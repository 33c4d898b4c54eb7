package dataplane

import (
	"context"
	"math"
	"time"

	"nfvnice/internal/bp"
	"nfvnice/internal/core"
	"nfvnice/internal/simtime"
)

// controlLoop is the decoupled control plane: the engine clock, the
// watermark backpressure policy, stage supervision, and the rate-cost weight
// controller (every Config.WeightPeriod, the paper's 10 ms weight push). It
// runs on Run's own goroutine so the hot path — core loops granting,
// processing and forwarding, movers taking packets in and out — never
// carries control work. It also keeps the grant deadline (watchdog), which
// is why its tick is capped at controlTickMax.
//
// Detection is not here: whoever enqueues into a queue — a mover at a chain
// entry, a grant mid-chain — notices it at its high watermark (postHigh)
// and pokes this loop, which steps the policy at once.
// Config.BackpressurePeriod is the cadence of everything a poke does not
// announce — release at the low watermark, the remote ECN windows — and the
// fallback sample for a crossing no enqueue saw.
func (e *Engine) controlLoop(ctx context.Context) {
	tick := e.cfg.BackpressurePeriod
	if tick > controlTickMax {
		tick = controlTickMax
	}
	if e.cfg.WeightPeriod > 0 && e.cfg.WeightPeriod < tick {
		tick = e.cfg.WeightPeriod
	}
	timer := newParkTimer()
	defer timer.Stop()
	lastBP := time.Now()
	lastW := lastBP
	poked := false
	for ctx.Err() == nil {
		now := time.Now()
		e.coarseNanos.Store(now.UnixNano())
		due := now.Sub(lastBP) >= e.cfg.BackpressurePeriod
		if due {
			lastBP = now
			// Fold remote ECN echoes into their observers first so the
			// backpressure pass sees fresh cross-host congestion signals.
			// Once per period, never on a poke: the observer's hysteresis
			// counts these windows.
			if len(e.remotes) > 0 {
				e.updateRemoteECN()
			}
		}
		if due || poked {
			e.updateBackpressure()
		}
		// Flight recorder: completed spans drain here, off the hot path —
		// the histogram observes and the span sink run on this goroutine.
		e.drainSpool()
		e.supervise(now.UnixNano())
		e.watchdog(now)
		if e.cfg.WeightPeriod > 0 && now.Sub(lastW) >= e.cfg.WeightPeriod {
			e.updateWeights(now, now.Sub(lastW))
			lastW = now
		}
		timer.Reset(tick)
		select {
		case <-e.poke:
			poked = true
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
			poked = false
		}
	}
}

// controlTickMax bounds the control loop's sleep so the coarse engine
// clock stays fresh, and supervision and the grant watchdog react promptly,
// even when the backpressure cadence is long.
const controlTickMax = 100 * time.Microsecond

// initControl fixes the topology for the control plane: the shared
// backpressure controller, the per-core stage groups of the weight step, and
// each stage's upstream set for the enqueuers' postHigh. Run calls it once
// every stage and chain is registered.
func (e *Engine) initControl() {
	e.startWall = time.Now()
	// The simulated manager's controller, with one parameter different, by
	// choice: the engine throttles on the first over-watermark observation.
	// The simulator's 50 µs watch window exists to let a short burst pass; a
	// live ring's headroom above HIGH (205 slots of the default 1024) fills in
	// less than that behind a multi-Mpps stage, so waiting it out would spend
	// the headroom the watermark is there to keep.
	e.bp = bp.NewController(bp.Params{QueueTimeThreshold: 0},
		len(e.stages), e.chains, bp.NewChainThrottles())
	e.bpObs = make([]bp.Observation, len(e.stages))
	e.byCore = make([][]*stage, e.cfg.Cores)
	for _, s := range e.stages {
		e.byCore[s.core] = append(e.byCore[s.core], s)
	}
	// dst.upstream is what the controller's selectYields returns when dst is
	// the only throttling stage — the same walk up from each chain's tail,
	// where a visit with dst not further down vetoes the stage. Any step that
	// throttles dst yields at least these, so an enqueuer raising them ahead
	// of the step can never make a shared stage (Fig. 8) yield wrongly.
	up := make([]bool, len(e.stages))
	for _, dst := range e.stages {
		clear(up)
		for _, chain := range e.chains {
			for _, s := range chain {
				up[s] = true
			}
		}
		for _, chain := range e.chains {
			below := false
			for hop := len(chain) - 1; hop >= 0; hop-- {
				if !below {
					up[chain[hop]] = false
				}
				below = below || chain[hop] == dst.id
			}
		}
		for i, s := range e.stages {
			if up[i] {
				dst.upstream = append(dst.upstream, s)
			}
		}
	}
}

// postHigh is watermark detection, where the paper's manager has it: with
// whoever enqueues, as it enqueues — the paper's Tx thread, here the lane
// drain at a chain entry and the grant's forward mid-chain. The enqueuer
// that finds dst's receive queue at or over the high watermark right after
// EnqueueBatch — and no post pending —
// leaves the depth it saw for the control goroutine, tells the stages that
// only feed dst to relinquish the CPU now (packets they would process have
// nowhere to go but dst's ring), and pokes the control loop, which steps the
// policy with that depth: the gate, the journal, claim counts and every
// release stay there. Plain idempotent stores, no allocation; kept out of
// line so the enqueue loops carry only the compare (a helper around the
// compare itself is over the inliner's budget and would be a call per run).
//
//go:noinline
func (e *Engine) postHigh(dst *stage, depth int) {
	dst.hot.Store(int32(depth))
	for _, s := range dst.upstream {
		s.yield.Store(true)
	}
	select {
	case e.poke <- struct{}{}:
	default:
	}
}

// updateBackpressure observes every stage's receive queue against the
// watermarks — the deeper of what an enqueuer posted at enqueue time and
// what the ring holds now — steps the backpressure controller, and applies
// what it decided: chain-entry gates, one journaled Decision per gate edge
// naming the stage that raised or released it with the depth observed
// there, and the upstream yield flags. A post that lands after its stage
// was read here stays pending with its poke, so the yield stores below can
// undo an enqueuer's early yield only until the next step, which the poke
// makes immediate.
func (e *Engine) updateBackpressure() {
	for i, s := range e.stages {
		l := s.rx.Len()
		if s.hot.Load() != 0 {
			l = max(l, int(s.hot.Swap(0)))
		}
		o := bp.Observation{AboveHigh: l >= e.highWater, BelowLow: l < e.lowWater, Depth: l}
		if s.rem != nil && s.rem.ecnActive.Load() {
			// The peer engine is congested (sustained ECN echoes): treat the
			// remote stage as over watermark regardless of local depth, so
			// the chain throttles at its origin before the pipe fills — the
			// paper's §3.4 cross-host backpressure. The signal also holds
			// the throttle (never below low) until the echoes quiesce.
			o.AboveHigh, o.BelowLow = true, false
		}
		e.bpObs[i] = o
	}
	for _, ed := range e.bp.Step(e.bpObs) {
		st := e.stages[ed.Stage]
		d := Decision{Kind: DecisionBPOff, Chain: ed.Chain,
			Stage: st.name, QueueDepth: e.bpObs[ed.Stage].Depth,
			HighWater: e.highWater, LowWater: e.lowWater}
		if ed.On {
			d.Kind = DecisionBPOn
			// A remote stage's throttle edge names its cause: the link
			// condition (credit exhaustion, peer ECN, outage) behind the
			// pressure, or "" for a plain deep queue.
			if st.rem != nil {
				d.Note = st.rem.bpCause()
			}
		}
		// Journal, then gate, then counter: whoever observes the gate closed
		// finds its cause already recorded, and whoever observes the event
		// counted finds the gate closed.
		e.record(d)
		e.throttled[ed.Chain].Store(ed.On)
		if ed.On {
			e.ThrottleEvents.Add(1)
		}
	}
	for i, s := range e.stages {
		if y := e.bp.Yield(i); s.yield.Load() != y {
			s.yield.Store(y)
			if !y {
				// No enqueue announces a cleared yield: wake the core.
				e.cores[s.core].maybeWake()
			}
		}
	}
}

// costUnit is the estimator's sample resolution, picoseconds per packet:
// whole nanoseconds would quantize a ~10 ns no-op stage by 10 %.
const costUnit = 1000

// updateWeights is the rate-cost proportional controller: each stage's
// measured handler time per packet since the last tick feeds its median
// estimator, load_i = λ_i·s_i is expressed in fractional cores, and the
// simulator's share function turns each core's loads into weights. elapsed
// is the time since the previous call.
func (e *Engine) updateWeights(now time.Time, elapsed time.Duration) {
	at := simtime.FromDuration(now.Sub(e.startWall))
	p := core.DefaultParams()
	for _, stages := range e.byCore {
		e.wDemands = e.wDemands[:0]
		for _, s := range stages {
			arr := s.arrivals.Load()
			busy := s.busyNanos.Load()
			proc := s.processed.Load()
			dArr := arr - s.lastArr
			dBusy := busy - s.lastBusy
			dProc := proc - s.lastProc
			s.lastArr, s.lastBusy, s.lastProc = arr, busy, proc
			if dProc > 0 {
				s.costEst.Observe(at, uint64(dBusy)*costUnit/dProc)
			}
			cost := float64(s.costEst.Median(at)) / costUnit // ns/packet
			s.estCost.Store(math.Float64bits(cost))
			e.wDemands = append(e.wDemands, core.Demand{
				Load: float64(dArr) * cost / float64(elapsed), Priority: 1})
		}
		e.wShares = core.Shares(e.wShares, e.wDemands, p.ShareScale, p.MinShare)
		for i, s := range stages {
			if e.wShares[i] == core.KeepShares {
				continue
			}
			w := int64(e.wShares[i])
			if old := s.weight.Swap(w); old != w {
				e.record(Decision{Kind: DecisionWeight, Chain: -1, Stage: s.name,
					Load: e.wDemands[i].Load, CostNanos: math.Float64frombits(s.estCost.Load()),
					OldWeight: old, NewWeight: w})
			}
		}
	}
}

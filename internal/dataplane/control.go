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
// watermark backpressure state machine (every Config.BackpressurePeriod,
// the paper's 1 ms load-estimation cadence), stage supervision, and the
// rate-cost weight controller (every Config.WeightPeriod, the paper's
// 10 ms weight push). It runs on Run's own goroutine so the hot path —
// schedulers granting, workers processing, movers shuttling — never
// carries control work.
func (e *Engine) controlLoop(ctx context.Context) {
	tick := e.cfg.BackpressurePeriod
	if tick > controlTickMax {
		tick = controlTickMax
	}
	if e.cfg.WeightPeriod > 0 && e.cfg.WeightPeriod < tick {
		tick = e.cfg.WeightPeriod
	}
	lastBP := time.Now()
	lastW := lastBP
	for ctx.Err() == nil {
		now := time.Now()
		e.coarseNanos.Store(now.UnixNano())
		if now.Sub(lastBP) >= e.cfg.BackpressurePeriod {
			// Fold remote ECN echoes into their observers first so the
			// backpressure pass sees fresh cross-host congestion signals.
			if len(e.remotes) > 0 {
				e.updateRemoteECN()
			}
			e.updateBackpressure()
			lastBP = now
		}
		// Flight recorder: completed spans drain here, off the hot path —
		// the histogram observes and the span sink run on this goroutine.
		e.drainSpool()
		e.supervise(now.UnixNano())
		if e.cfg.WeightPeriod > 0 && now.Sub(lastW) >= e.cfg.WeightPeriod {
			e.updateWeights(now, now.Sub(lastW))
			lastW = now
		}
		time.Sleep(tick)
	}
}

// controlTickMax bounds the control loop's sleep so the coarse engine
// clock stays fresh (and supervision reacts promptly) even when the
// backpressure cadence is long.
const controlTickMax = 100 * time.Microsecond

// initControl fixes the topology for the control plane: Run calls it once
// every stage and chain is registered.
func (e *Engine) initControl() {
	e.startWall = time.Now()
	// The simulated manager's controller, with one parameter different: the
	// engine sees depth only at the tick, not how long a queue has been above
	// its watermark, so it throttles on the first over-watermark sample.
	e.bp = bp.NewController(bp.Params{QueueTimeThreshold: 0},
		len(e.stages), e.chains, bp.NewChainThrottles())
	e.bpObs = make([]bp.Observation, len(e.stages))
	e.byCore = make([][]*stage, e.cfg.Cores)
	for _, s := range e.stages {
		e.byCore[s.core] = append(e.byCore[s.core], s)
	}
}

// updateBackpressure samples every stage's receive queue against the
// watermarks, steps the backpressure controller, and applies what it
// decided: chain-entry gates, one journaled Decision per gate edge naming
// the stage that raised or released it with the depth observed there, and
// the upstream yield flags.
func (e *Engine) updateBackpressure() {
	for i, s := range e.stages {
		l := s.rx.Len()
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
			e.ThrottleEvents.Add(1)
		}
		// Journal first: whoever observes the gate closed finds its cause
		// already recorded.
		e.record(d)
		e.throttled[ed.Chain].Store(ed.On)
	}
	for i, s := range e.stages {
		s.yield.Store(e.bp.Yield(i))
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

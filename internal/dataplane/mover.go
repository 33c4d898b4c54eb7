package dataplane

// The TX shards: the chain's ingress and egress. The paper's NF Manager
// dedicates RX threads that classify arrivals into chain entries and TX
// threads that shuttle packets between NF rings. Here Config.Movers spawns
// M mover goroutines that keep both ends of a chain and nothing between:
// each drains the inject lanes bound to it into chain entries (lanes.go)
// and owns a static partition of the stages' tx rings (stage i belongs to
// mover i mod M), which hold only packets that finished their chain, for
// delivery to the sink. The hops between run to completion on the grant
// that processed the packets (forward, sched.go), which is cheaper here
// than a hand-off to another goroutine: the paper's TX threads own
// dedicated cores, a mover shares the host's with everything else. Stage
// affinity keeps every tx ring single-consumer while the engine runs and
// preserves per-flow FIFO: a flow's packets traverse a fixed stage
// sequence, each hop's ring is FIFO and is fed by one core loop, and every
// ring on the path has exactly one drainer.
//
// Idle movers descend an adaptive spin → yield → park ladder so unused
// shards don't burn cores: a mover that sweeps dry respins a few times
// (work usually arrives within a batch quantum), then yields the OS thread
// via Gosched, then parks on its wake channel. Producers and grants
// publishing into a parked mover's lanes or tx rings send a non-blocking
// wake token; a bounded park timeout backstops the (seqcst-ordered,
// therefore lost-wakeup-free) signal so a missed edge costs bounded
// latency, never liveness.
//
// Everything a mover touches per sweep is shard-local — scratch buffer,
// latency run-length state, counter accumulators flushed once per drained
// batch — so movers share nothing but the lock-free rings and the final
// atomic counter adds.

import (
	"runtime"
	"sync/atomic"
	"time"

	"nfvnice/internal/ring"
)

// Idle-ladder tuning. Spin sweeps are nearly free (one atomic load per
// owned stage), the yield phase keeps single-CPU hosts live, and the park
// timeout bounds delivery latency if a wake edge is ever missed.
const (
	moverSpinSweeps  = 64
	moverYieldSweeps = 16
	moverParkMax     = time.Millisecond
)

// moverBatchMin is the adaptive sweep batch's floor; its ceiling is
// max(256, Config.BatchSize), the size of each shard's scratch slab.
const moverBatchMin = 32

// mover is one TX shard: a goroutine draining its bound inject lanes into
// chain entries and its partition of stage tx rings into the sink.
type mover struct {
	id     int
	stages []*stage  // static partition, fixed before Run starts the cores
	buf    []*Packet // sweep scratch, sized to the adaptive batch ceiling
	rc     *recycler // shard-local freelist batcher for in-flight drops
	// nstages mirrors len(stages) for MoverStats, which may race Run's
	// partition assignment.
	nstages atomic.Int32

	// lanes is the COW list of inject lanes bound to this shard (writers
	// serialize on Engine.laneMu; the sweep just loads the pointer), and
	// laneRR rotates the drain start index so one saturated lane cannot
	// starve the others. Owned by the mover goroutine except the pointer.
	lanes  atomic.Pointer[[]*injectLane]
	laneRR int

	// batch is the adaptive sweep batch: it tracks the drain-per-sweep
	// EWMA between moverBatchMin and len(buf), growing under sustained
	// backlog and shrinking when sweeps come up light, so loaded shards get
	// deep batch amortization without idle shards walking oversized
	// buffers. batch and ewma are owned by the mover goroutine; curBatch
	// mirrors batch for MoverStats.
	batch    int
	ewma     float64
	curBatch atomic.Int32

	// The wake slot gets its own cache line: producers and core loops on
	// other Ps hit it on every publish into a parked shard's lanes or tx
	// rings, and must not bounce the line carrying the mover's own
	// accumulators below.
	_ ring.Pad
	parker

	// Mover-written telemetry: sweeps counts drain passes over the
	// partition, moved the packets those sweeps delivered from tx rings,
	// laneMoved the packets drained from inject lanes, and parks the
	// descents into a blocking wait.
	_         ring.Pad
	sweeps    atomic.Uint64
	moved     atomic.Uint64
	laneMoved atomic.Uint64
	parks     atomic.Uint64
	_         ring.Pad
}

// MoverStats is a snapshot of one TX shard's counters.
type MoverStats struct {
	// Stages is how many stages' tx rings the shard owns; Lanes is how
	// many inject lanes are currently bound to it.
	Stages int
	Lanes  int
	// Batch is the shard's current adaptive sweep batch (between 32 and
	// max(256, Config.BatchSize)).
	Batch int
	// Sweeps counts drain passes; Moved counts packets delivered from tx
	// rings — chain exits — across all sweeps (Moved/Sweeps is the drain
	// efficiency); LaneMoved counts packets drained from inject lanes.
	Sweeps    uint64
	Moved     uint64
	LaneMoved uint64
	// Parks counts blocking idle waits; Parks/Sweeps is the park ratio.
	Parks uint64
	// Wakes counts enqueue-side wake signals delivered to this shard.
	Wakes uint64
}

// MoverStats snapshots every TX shard.
func (e *Engine) MoverStats() []MoverStats {
	out := make([]MoverStats, len(e.movers))
	for i, m := range e.movers {
		out[i] = MoverStats{
			Stages:    int(m.nstages.Load()),
			Lanes:     len(*m.lanes.Load()),
			Batch:     int(m.curBatch.Load()),
			Sweeps:    m.sweeps.Load(),
			Moved:     m.moved.Load(),
			LaneMoved: m.laneMoved.Load(),
			Parks:     m.parks.Load(),
			Wakes:     m.wakes.Load(),
		}
	}
	return out
}

// pending reports whether any owned tx ring or bound inject lane holds
// packets — the post-park re-check that closes the wake race window.
func (m *mover) pending() bool {
	for _, s := range m.stages {
		if s.tx.Len() > 0 {
			return true
		}
	}
	for _, ln := range *m.lanes.Load() {
		if ln.ring.Len() > 0 || ln.closed.Load() {
			return true
		}
	}
	return false
}

// assignMovers statically partitions the stages across the engine's movers
// (stage i → mover i mod M) and records each stage's owner for the
// enqueue-side wake path. Called once by Run, before any core starts.
func (e *Engine) assignMovers() {
	for _, m := range e.movers {
		m.stages = m.stages[:0]
	}
	for i, s := range e.stages {
		m := e.movers[i%len(e.movers)]
		m.stages = append(m.stages, s)
		s.mov = m
	}
	for _, m := range e.movers {
		m.nstages.Store(int32(len(m.stages)))
	}
}

// adaptBatch retunes the shard's sweep batch from the drain-per-sweep
// EWMA: sustained sweeps that fill most of the batch double it (deeper
// amortization while backlogged) and sweeps that drain only a sliver halve
// it (smaller walks, fresher latency stamps, less scratch traffic while
// idle-ish), clamped to [min, max]. The EWMA's 1/8 gain makes the batch
// react within a few tens of sweeps — fast against the 1 ms control
// cadence, slow against per-sweep noise. Owned by the mover goroutine;
// curBatch mirrors the choice for MoverStats.
func (m *mover) adaptBatch(drained, min, max int) {
	m.ewma += (float64(drained) - m.ewma) / 8
	switch {
	case m.ewma > 0.75*float64(m.batch) && m.batch < max:
		m.batch *= 2
		if m.batch > max {
			m.batch = max
		}
		m.curBatch.Store(int32(m.batch))
	case m.ewma < 0.25*float64(m.batch) && m.batch > min:
		m.batch /= 2
		if m.batch < min {
			m.batch = min
		}
		m.curBatch.Store(int32(m.batch))
	}
}

// runMover is one TX shard's loop: drain the bound inject lanes, deliver
// from the stage partition's tx rings, adapt the sweep batch to the
// observed drain, and when a sweep comes up dry descend the spin → yield →
// park ladder. Exits when Run closes moverStop (movers keep draining
// through the cancel-to-join window so the graceful drain starts from
// near-empty tx rings).
func (e *Engine) runMover(m *mover) {
	defer e.moverWg.Done()
	timer := newParkTimer()
	defer timer.Stop()
	idle := 0
	for {
		select {
		case <-e.moverStop:
			return
		default:
		}
		// Lanes first, then exits (drainLanes accounts laneMoved itself).
		n := e.drainLanes(m)
		sm := e.moveStages(m.stages, m.buf[:m.batch], m.rc)
		n += sm
		m.sweeps.Add(1)
		m.adaptBatch(n, moverBatchMin, len(m.buf))
		if sm > 0 {
			m.moved.Add(uint64(sm))
		}
		if n > 0 {
			idle = 0
			continue
		}
		idle++
		switch {
		case idle <= moverSpinSweeps:
			// Spin: re-sweep immediately; a grant in progress publishes
			// within a batch quantum.
		case idle <= moverSpinSweeps+moverYieldSweeps:
			runtime.Gosched()
		default:
			// Park. Publish the parked state before re-checking the rings
			// (see parker); the bounded timeout backstops the edge.
			m.state.Store(parkParked)
			if m.pending() {
				m.state.Store(parkActive)
				idle = 0
				continue
			}
			m.parks.Add(1)
			if !m.wait(timer, moverParkMax, e.moverStop) {
				return
			}
			// Skip straight to the yield phase: one wake usually means one
			// batch, not a sustained burst.
			idle = moverSpinSweeps
		}
	}
}

// moveAll serially delivers every stage's tx ring — the shutdown drain's
// single-threaded mover, run only after the TX shards have exited. Reports
// how many packets it delivered.
func (e *Engine) moveAll() int { return e.moveStages(e.stages, e.drainBuf, e.drainRC) }

// moveStages drains each given stage's tx ring — which holds only packets
// that finished their chain, the grants having forwarded every other
// survivor themselves (see forward) — and delivers each drained batch: span
// completion, the end-to-end latency account, then the sink. Counters are
// flushed once per call (add-N, not N adds), and every piece of scratch
// state — the drain buffer, the latency run-length encoder, the
// accumulators — is local to the call, so concurrent movers over disjoint
// partitions share nothing but the rings and the final atomic adds.
// Without a sink the descriptors are recycled through rc, one freelist
// reservation per sweep. Reports how many packets it delivered.
func (e *Engine) moveStages(stages []*stage, buf []*Packet, rc *recycler) int {
	// The clock is read lazily, once per sweep that actually drains
	// packets: idle movers sweep dry partitions thousands of times per
	// millisecond, and a vDSO clock call per dry sweep is the single
	// largest avoidable cost on the serial path.
	var now int64
	moved := 0
	var latSum, latMax int64
	// Coarse-clock latencies arrive in runs of identical values; batch them
	// into the histogram with run-length encoding.
	var histVal, histN uint64
	for _, s := range stages {
		for {
			k := s.tx.DequeueBatch(buf)
			if k == 0 {
				break
			}
			if now == 0 {
				now = time.Now().UnixNano()
				e.coarseNanos.Store(now)
			}
			moved += k
			if e.rec != nil {
				// Flight recorder: stamp sampled packets' move times with a
				// fresh clock read (the lazy `now` above can lag a grant's
				// exit stamp and break hop monotonicity) and complete their
				// spans.
				e.stampSpans(buf[:k])
			}
			for _, pkt := range buf[:k] {
				lat := max(now-pkt.enqueuedNanos, 0)
				latSum += lat
				latMax = max(latMax, lat)
				if uint64(lat) == histVal {
					histN++
				} else {
					if histN > 0 && e.latHist != nil {
						e.latHist.ObserveN(histVal, histN)
					}
					histVal, histN = uint64(lat), 1
				}
			}
			e.deliver(buf[:k], rc)
		}
	}
	if histN > 0 && e.latHist != nil {
		e.latHist.ObserveN(histVal, histN)
	}
	if moved > 0 {
		e.Delivered.Add(uint64(moved))
		e.latSumNanos.Add(latSum)
		for {
			cur := e.latMaxNanos.Load()
			if latMax <= cur || e.latMaxNanos.CompareAndSwap(cur, latMax) {
				break
			}
		}
	}
	rc.flush()
	return moved
}

// deliver hands a drained batch to the sink; with no sink set the engine
// retires the descriptors itself.
func (e *Engine) deliver(run []*Packet, rc *recycler) {
	if e.sink != nil {
		e.sink(run)
		return
	}
	for _, p := range run {
		rc.put(p)
	}
}

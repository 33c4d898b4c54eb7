package dataplane

// One loop per core. Each scheduler core is one goroutine that picks its
// runnable stage with the smallest WFQ pass and runs the grant itself:
// dequeue, handler, and the hop into the next stage's ring (forward) — the
// paper's libnf loop, with the scheduler that grants it on the same thread.
// Nothing is handed to another goroutine per grant. The grant deadline is
// kept from outside, by the control goroutine's watchdog (watchdog), and an
// idle core parks on its wake slot until an enqueuer into one of its
// stages' rings wakes it (parker), the paper's semaphore post.

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"nfvnice/internal/ring"
)

// Idle ladder of a core loop: after this many empty passes, each yielding
// the P, it parks; the park timeout is the backstop for work no enqueue
// announces (a yield flag the control loop clears, a restart, returning
// remote credit) and for a wake edge that is somehow missed.
const (
	coreYieldPasses = 16
	coreParkMax     = time.Millisecond
)

// Engine run phases (Engine.phase), advanced only by Run's goroutine.
const (
	// phaseRun: core loops grant under the yield flags.
	phaseRun int32 = iota
	// phaseDrain: the shutdown drain; core loops flush their stages and
	// ignore yield flags (the goal is emptying the rings, not fairness).
	phaseDrain
	// phaseExit: core loops return once their current grant ends.
	phaseExit
)

// grantDetached is the stamp the watchdog leaves on a grant it took over.
const grantDetached = math.MinInt64

// Parker run states (parker.state).
const (
	parkActive int32 = iota
	parkParked
)

// parker is an idle goroutine's wake slot: a mover's or a core loop's. The
// owner publishes parked before its last look for work, and an enqueuer
// that publishes work after that look observes the state (seqcst total
// order) and leaves a token, so no wake is lost; the owner's bounded park
// backstops the edge anyway.
type parker struct {
	state atomic.Int32
	wakes atomic.Uint64 // enqueuer-written: wake tokens delivered
	// ch carries at most one pending wake token.
	ch chan struct{}
}

// maybeWake leaves a wake token if the owner is parked (or descending into a
// park). One atomic load on the publish path; the cap-1 send never blocks.
func (p *parker) maybeWake() {
	if p.state.Load() == parkParked {
		select {
		case p.ch <- struct{}{}:
			p.wakes.Add(1)
		default:
		}
	}
}

// wait is the owner's blocking half, called after it published parkParked
// and found no work: it returns on a wake token, after d, or when stop
// closes (reporting false), with the owner marked active again. The timer
// must come from newParkTimer and is left stopped and drained.
func (p *parker) wait(timer *time.Timer, d time.Duration, stop <-chan struct{}) bool {
	timer.Reset(d)
	ok := true
	select {
	case <-p.ch:
		if !timer.Stop() {
			<-timer.C
		}
	case <-timer.C:
	case <-stop:
		ok = false
		if !timer.Stop() {
			<-timer.C
		}
	}
	p.state.Store(parkActive)
	return ok
}

// newParkTimer returns a stopped, drained timer for parker.wait reuse.
func newParkTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}

// coreSched is one scheduler core: its wake slot and its live loop.
type coreSched struct {
	id int
	// live is the core's current loop incarnation. Run's goroutine owns it:
	// the watchdog replaces it when it detaches a grant.
	live *coreLoop
	// The wake slot is touched by enqueuers on other Ps on every publish
	// into a parked core's stages, so it gets its own line.
	_ ring.Pad
	parker
	_ ring.Pad
	// parks counts blocking idle waits (core-written).
	parks atomic.Uint64
	_     ring.Pad
}

// coreLoop is one incarnation of a core's scheduler loop. The watchdog
// retires an incarnation whose grant overran the deadline and starts a
// replacement; the retired one may still be inside the handler, and when
// it returns it finds it lost the grant and exits.
type coreLoop struct {
	// stamp is the grant watch, the one word both sides CAS: > 0 while a
	// grant runs (its start, in monotonic nanoseconds since Run began,
	// strictly increasing per incarnation), the negated start once it ended,
	// and grantDetached once the watchdog took the grant.
	stamp atomic.Int64
	// stage and w name the running grant for the watchdog. The loop writes
	// them before publishing the stamp; the watchdog reads them only after
	// winning the stamp's CAS, after which the loop never writes again.
	stage *stage
	w     *workerCtx
	// last is the previous grant's start (loop-owned).
	last int64
	_    ring.Pad
}

// startCore starts a fresh loop incarnation on the core. Called on Run's
// goroutine: at start, and by the watchdog for a replacement.
func (e *Engine) startCore(c *coreSched) {
	l := &coreLoop{}
	c.live = l
	go e.runCore(c, l)
}

// runCore is one core's scheduler loop: grant the stage pickStage chooses,
// and when there is none, descend a short yield ladder and park until an
// enqueuer wakes the core. It returns at phaseExit, or at once when the
// watchdog detached its grant (the replacement owns the core from then on,
// and inherits this loop's place in liveCores).
func (e *Engine) runCore(c *coreSched, l *coreLoop) {
	timer := newParkTimer()
	defer timer.Stop()
	idle := 0
	for {
		phase := e.phase.Load()
		if phase == phaseExit {
			e.liveCores.Add(-1)
			return
		}
		pick, stalled := e.pickStage(c.id, phase == phaseRun)
		if pick != nil {
			if !e.grantStage(l, pick) {
				e.detached.Add(-1)
				return
			}
			idle = 0
			continue
		}
		if stalled || idle < coreYieldPasses {
			// A stage held back only by tx headroom waits on the mover,
			// which its own publish woke: yield to it rather than park.
			if !stalled {
				idle++
			}
			runtime.Gosched()
			continue
		}
		c.state.Store(parkParked)
		if pick, stalled = e.pickStage(c.id, phase == phaseRun); pick != nil || stalled || e.phase.Load() != phase {
			c.state.Store(parkActive)
			continue
		}
		c.parks.Add(1)
		c.wait(timer, coreParkMax, nil)
	}
}

// setPhase moves the core loops to the next run phase, waking parked ones.
func (e *Engine) setPhase(phase int32) {
	e.phase.Store(phase)
	for _, c := range e.cores {
		c.maybeWake()
	}
}

// pickStage returns the core's runnable stage with the smallest WFQ pass,
// honouring yield flags when fair. stalled reports a stage with work held
// back only by its tx ring's headroom (the mover lags behind chain exits).
func (e *Engine) pickStage(core int, fair bool) (pick *stage, stalled bool) {
	for _, s := range e.byCore[core] {
		if !s.schedulable() || (fair && s.yield.Load()) || s.rx.Len() == 0 {
			continue
		}
		if s.tx.Len() >= e.cfg.RingSize-1-e.cfg.BatchSize {
			stalled = true
			continue
		}
		if s.rem != nil && !s.rem.grantable(e.cfg.BatchSize) {
			// Remote credit exhausted (window full, link down, or send
			// queue at capacity): leave the packets in rx so the watermark
			// machine sees the pressure and throttles the chain at entry.
			continue
		}
		if pick == nil || s.pass < pick.pass {
			pick = s
		}
	}
	return pick, stalled
}

// grantStage runs one batch grant of pick on the calling core loop and
// settles it: WFQ pass accounting and probation on success, failStage on a
// panic. The grant is watched: its start is published in l.stamp, and the
// loop claims the end with a CAS. Losing that CAS means the watchdog
// detached the grant — charged what it held, failed the stage and started a
// replacement loop — so grantStage reports false and the caller exits
// without touching scheduler state again. The engine clock is refreshed
// once per grant.
func (e *Engine) grantStage(l *coreLoop, pick *stage) bool {
	w := pick.w.Load()
	now := time.Now()
	e.coarseNanos.Store(now.UnixNano())
	start := int64(now.Sub(e.startWall)) + 1
	if start <= l.last {
		start = l.last + 1
	}
	l.last = start
	l.stage, l.w = pick, w
	l.stamp.Store(start)
	before := pick.busyNanos.Load()
	panicked, pmsg := e.runGrant(pick, w, e.cfg.BatchSize)
	if !l.stamp.CompareAndSwap(start, -start) {
		return false
	}
	if panicked {
		e.failStage(pick, "panic", pmsg)
		return true
	}
	ran := time.Duration(pick.busyNanos.Load() - before)
	wt := pick.weight.Load()
	if wt < 2 {
		wt = 2
	}
	pick.pass += float64(ran) * 1024 / float64(wt)
	// Keep sleeping stages from banking unbounded credit.
	min := pick.pass
	for _, s := range e.byCore[pick.core] {
		if s.pass < min-float64(time.Second) {
			s.pass = min - float64(time.Second)
		}
	}
	// Probation: a restarted stage earns Healthy back by completing clean
	// grants under real traffic. Remote stages are exempt — their health
	// tracks the link state machine (remoteLinkState), and a clean grant
	// only proves the send queue had room, not that the peer is reachable.
	if w.kind == workerRemote {
		return true
	}
	switch Health(pick.health.Load()) {
	case Restarting:
		w.okGrants = 1
		e.setHealth(pick, Degraded)
	case Degraded:
		w.okGrants++
		if w.okGrants >= probationGrants {
			pick.consecFails.Store(0)
			e.setHealth(pick, Healthy)
		}
	}
	return true
}

// watchdog keeps the grant deadline from the control goroutine: a core
// whose grant has run longer than Config.GrantTimeout loses it. The CAS to
// grantDetached decides the race with the loop's own end-of-grant CAS, so
// exactly one side settles the grant. The winning watchdog detaches the
// stage (epoch bump, the inflight chunk charged to FaultDrops, Failed) and
// starts a replacement loop on the core; the wedged loop, whenever its
// handler returns, forwards nothing and exits. A negative GrantTimeout
// disables the deadline.
func (e *Engine) watchdog(now time.Time) {
	if e.cfg.GrantTimeout < 0 {
		return
	}
	late := int64(now.Sub(e.startWall)) + 1 - int64(e.cfg.GrantTimeout)
	for _, c := range e.cores {
		l := c.live
		st := l.stamp.Load()
		if st <= 0 || st > late || !l.stamp.CompareAndSwap(st, grantDetached) {
			continue
		}
		e.detached.Add(1)
		e.detachStage(l.stage, l.w)
		e.startCore(c)
	}
}

// coresQuiet reports whether no core loop holds packets and none has
// started a grant since the previous call, refreshing stamps (one per core)
// for the next. The shutdown drain calls it around its look at the rings: a
// grant publishes its hop before its stamp ends and every grant start
// changes the stamp, so two equal idle readings around empty rings mean
// nothing was in flight between them.
func (e *Engine) coresQuiet(stamps []int64) bool {
	quiet := true
	for i, c := range e.cores {
		st := c.live.stamp.Load()
		quiet = quiet && st <= 0 && st == stamps[i]
		stamps[i] = st
	}
	return quiet
}

// runGrant executes one grant: up to budget packets in chunks of the
// incarnation's scratch batch. Each chunk publishes its size in w.inflight
// before running the handler; whoever Swap()s it to zero — this grant on
// the happy path, the watchdog on detach, the final sweep at shutdown —
// owns the accounting for those packets (see runBatch). An incarnation the
// watchdog retired never starts its handler again: each chunk checks the
// epoch after publishing its claim.
func (e *Engine) runGrant(s *stage, w *workerCtx, budget int) (panicked bool, pmsg string) {
	start := time.Now()
	defer func() { s.busyNanos.Add(time.Since(start).Nanoseconds()) }()
	for n := 0; n < budget; {
		want := budget - n
		if want > len(w.batch) {
			want = len(w.batch)
		}
		k := s.rx.DequeueBatch(w.batch[:want])
		if k == 0 {
			break
		}
		w.inflight.Store(int64(k))
		if s.epoch.Load() != w.epoch {
			// Detached: whichever of us and the watchdog claims the chunk
			// charges it as a fault drop.
			if c := w.inflight.Swap(0); c > 0 {
				e.FaultDrops.Add(uint64(c))
				s.faultDrops.Add(uint64(c))
			}
			e.PutPacketBatch(w.batch[:k])
			return false, ""
		}
		live, panicked, pmsg := e.runBatch(s, w, k)
		if panicked {
			return true, pmsg
		}
		n += k
		// Counted before any packet is handed on, so a delivery is never
		// seen ahead of its processing.
		s.processed.Add(uint64(k))
		if live == 0 {
			w.inflight.Store(0)
			continue
		}
		if claimed := w.inflight.Swap(0); claimed == 0 {
			// The watchdog detached us mid-chunk and already charged these
			// packets as fault drops; recycle without counting.
			e.PutPacketBatch(w.batch[:live])
			return false, ""
		}
		if e.stopped.Load() {
			// Run already swept the rings: publishing into any of them
			// would strand the packets uncounted.
			e.ShutdownDrops.Add(uint64(live))
			e.PutPacketBatch(w.batch[:live])
		} else if exits := e.forward(s, w.batch[:live]); exits > 0 {
			// The scheduler only grants while tx has a batch of free space
			// and the owning mover only removes, so this completes on the
			// first pass; the loop covers a retired incarnation sharing the
			// ring with its replacement.
			rem := w.batch[:exits]
			for {
				rem = rem[s.tx.EnqueueBatch(rem):]
				if len(rem) == 0 {
					break
				}
				if e.stopped.Load() {
					e.ShutdownDrops.Add(uint64(len(rem)))
					e.PutPacketBatch(rem)
					break
				}
				runtime.Gosched()
			}
			if m := s.mov; m != nil {
				m.maybeWake()
			}
		}
	}
	return false, ""
}

// forward is the mid-chain hop, run by the grant that processed the
// packets: survivors whose chain continues are published straight into the
// next stage's rx with one reservation per run of packets bound for the same
// ring, waking that stage's core if it is parked, and the packets that
// finished their chain are compacted to the front of ps for the caller to
// hand to the stage's tx ring, the mover's side. Like enqueueRouted at the
// chain entry, it counts the arrivals, notices a ring it just filled past
// the high watermark (postHigh), and charges a full ring's losses — work
// already invested in them — to the forwarding stage's wasted count.
// Reports how many packets finished.
func (e *Engine) forward(s *stage, ps []*Packet) (exits int) {
	if e.anyFaulty.Load() {
		// Fail-open chains skip Failed hops; resolving every packet's
		// effective hop up front keeps the run loop oblivious to faults.
		e.bypassFailedHops(ps)
	}
	var drops uint64
	for i := 0; i < len(ps); {
		pkt := ps[i]
		chain := e.chains[pkt.ChainID]
		if pkt.Hop >= len(chain) {
			ps[exits] = pkt // exits <= i: only already-read slots are reused
			exits++
			i++
			continue
		}
		dstID := chain[pkt.Hop]
		j := i + 1
		for j < len(ps) {
			q := ps[j]
			qc := e.chains[q.ChainID]
			if q.Hop >= len(qc) || qc[q.Hop] != dstID {
				break
			}
			j++
		}
		run := ps[i:j]
		i = j
		if e.rec != nil {
			// The flight recorder's hand-off stamp, taken before the
			// packets become the next stage's.
			e.stampSpans(run)
		}
		dst := e.stages[dstID]
		dst.arrivals.Add(uint64(len(run)))
		n := dst.rx.EnqueueBatch(run)
		if n > 0 {
			e.cores[dst.core].maybeWake()
		}
		// Watermark detection is the enqueuer's: one compare per run, the
		// rest out of line and only on a crossing.
		if l := dst.rx.Len(); l >= e.highWater && dst.hot.Load() == 0 {
			e.postHigh(dst, l)
		}
		if n < len(run) {
			d := uint64(len(run) - n)
			drops += d
			dst.drops.Add(d)
			e.PutPacketBatch(run[n:])
		}
	}
	if drops > 0 {
		e.RingDrops.Add(drops)
		e.MidRingDrops.Add(drops)
		s.wasted.Add(drops)
	}
	return exits
}

// runBatch runs the stage's handler over batch[:k] in one call and compacts
// the survivors to the front, reporting how many there are. The flight
// recorder's enter/exit stamps bracket the call (one clock read per side,
// shared by every sampled packet in the chunk). It recovers handler panics:
// a panic leaves no packet of the chunk with a defined outcome, so the
// recovery claims the whole chunk back from w.inflight (unless the watchdog
// already detached us and charged it), charges it to fault drops and
// recycles it, so no packet escapes the drop ledger.
func (e *Engine) runBatch(s *stage, w *workerCtx, k int) (live int, panicked bool, pmsg string) {
	debug := e.cfg.DebugPool
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		live, panicked, pmsg = 0, true, panicString(r)
		if claimed := w.inflight.Swap(0); claimed > 0 {
			e.FaultDrops.Add(uint64(claimed))
			s.faultDrops.Add(uint64(claimed))
		}
		for _, p := range w.batch[:k] {
			// A descriptor the debug check just flagged as recycled is
			// already in the freelist — skip it rather than tripping the
			// double-put check inside this recover.
			if debug && atomic.LoadInt32(&p.poolState) != 0 {
				continue
			}
			e.PutPacket(p)
		}
	}()
	batch := w.batch[:k]
	if debug {
		for _, pkt := range batch {
			if atomic.LoadInt32(&pkt.poolState) != 0 {
				panic("dataplane: stage " + s.name + " processing a recycled packet (use-after-PutPacket)")
			}
		}
	}
	// Stamp sampled packets lazily: the clock is read only when the batch
	// actually carries a span, so the unsampled path stays clock-free.
	var now int64
	for _, pkt := range batch {
		if sp := pkt.span; sp != nil {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			sp.stampEnter(s.id, now)
		}
	}
	s.fn(batch)
	now = 0
	for _, pkt := range batch {
		if sp := pkt.span; sp != nil {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			sp.stampExit(now)
		}
	}
	for _, pkt := range batch {
		if pkt.Drop {
			// Claim the single unit back; if the watchdog detached us it
			// already charged this packet as a fault drop instead. Remote
			// stages consume every packet this way, but their units belong
			// to the transport ledger (RemoteDelivered/RemoteDrops), not
			// NFDrops — the handler already charged any refusal.
			if decInflight(&w.inflight) && w.kind == workerLocal {
				s.nfDrops.Add(1)
				e.NFDrops.Add(1)
			}
			e.PutPacket(pkt)
			continue
		}
		pkt.Hop++
		w.batch[live] = pkt
		live++
	}
	return live, false, ""
}

package dataplane

import (
	"runtime"
	"sync/atomic"
	"time"
)

// worker runs a stage's handler under grants until its grant channel closes
// or the incarnation is detached, moving packets rx→tx in bulk: one ring
// reservation per dequeued batch and one per published batch.
func (e *Engine) worker(s *stage, w *workerCtx) {
	defer e.liveWorkers.Add(-1)
	for budget := range w.grant {
		res, exit := e.runGrant(s, w, budget)
		if s.epoch.Load() != w.epoch {
			// Detached while running: the scheduler stopped listening and
			// a replacement may exist. Exit without signalling.
			return
		}
		w.done <- res // cap 1: never blocks, even if the scheduler left
		if exit {
			return // handler panicked; the supervisor decides what's next
		}
	}
}

// runGrant executes one grant: up to budget packets in chunks of the
// incarnation's scratch batch. Each chunk publishes its size in w.inflight
// before running the handler; whoever Swap()s it to zero — this worker on
// the happy path, the scheduler on detach, the final sweep at shutdown —
// owns the accounting for those packets (see runBatch).
func (e *Engine) runGrant(s *stage, w *workerCtx, budget int) (res grantResult, exit bool) {
	start := time.Now()
	n := 0
	for n < budget {
		want := budget - n
		if want > len(w.batch) {
			want = len(w.batch)
		}
		k := s.rx.DequeueBatch(w.batch[:want])
		if k == 0 {
			break
		}
		w.inflight.Store(int64(k))
		live, panicked, pmsg := e.runBatch(s, w, k)
		if panicked {
			s.busyNanos.Add(time.Since(start).Nanoseconds())
			if n > 0 {
				s.processed.Add(uint64(n))
			}
			return grantResult{panicked: true, panicVal: pmsg}, true
		}
		n += k
		if live > 0 {
			if claimed := w.inflight.Swap(0); claimed == 0 {
				// The scheduler detached us mid-chunk and already charged
				// these packets as fault drops; recycle without counting.
				e.PutPacketBatch(w.batch[:live])
				s.busyNanos.Add(time.Since(start).Nanoseconds())
				s.processed.Add(uint64(n))
				return res, true
			}
			if e.stopped.Load() {
				// Run already returned: the final sweep is done, so
				// publishing into any ring would strand the packets
				// uncounted.
				e.ShutdownDrops.Add(uint64(live))
				e.PutPacketBatch(w.batch[:live])
			} else if exits := e.forward(s, w.batch[:live]); exits > 0 {
				// The scheduler only grants while tx has a batch of free
				// space and the owning mover only removes, so this completes
				// on the first pass; the loop covers the detached-incarnation
				// race where two workers briefly share the ring.
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
		} else {
			w.inflight.Store(0)
		}
	}
	if n > 0 {
		s.processed.Add(uint64(n))
	}
	s.busyNanos.Add(time.Since(start).Nanoseconds())
	return res, false
}

// forward is the mid-chain hop, run by the worker whose grant processed the
// packets: survivors whose chain continues are published straight into the
// next stage's rx with one reservation per run of packets bound for the same
// ring, and the packets that finished their chain are compacted to the front
// of ps for the caller to hand to the stage's tx ring, the mover's side.
// Like enqueueRouted at the chain entry, it counts the arrivals, notices a
// ring it just filled past the high watermark (postHigh), and charges a full
// ring's losses — work already invested in them — to the forwarding stage's
// wasted count. Reports how many packets finished.
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
			// packets become the next worker's.
			e.stampSpans(run)
		}
		dst := e.stages[dstID]
		dst.arrivals.Add(uint64(len(run)))
		n := dst.rx.EnqueueBatch(run)
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
// recovery claims the whole chunk back from w.inflight (unless the scheduler
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
			// Claim the single unit back; if the scheduler detached us it
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

// scheduleCore grants the core's runnable stage with the smallest WFQ pass
// one batch and waits for completion, up to the grant deadline: an overdue
// stage is detached and marked Failed rather than wedging the core, so one
// stuck handler can never stall its neighbours. Reports whether anything
// ran. The engine clock is refreshed once per grant.
func (e *Engine) scheduleCore(core int, timer *time.Timer) bool {
	var pick *stage
	for _, s := range e.stages {
		if s.core != core || !s.schedulable() || s.yield.Load() || s.rx.Len() == 0 {
			continue
		}
		if s.tx.Len() >= e.cfg.RingSize-1-e.cfg.BatchSize {
			continue // egress backpressure: the mover lags behind chain exits
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
	if pick == nil {
		return false
	}
	e.coarseNanos.Store(time.Now().UnixNano())
	e.grantStage(pick, timer, core)
	return true
}

// grantStage issues one batch grant to the stage's live worker and settles
// the outcome: WFQ pass accounting and probation on success, failStage on
// panic, detach on deadline. Shared by scheduleCore and the shutdown drain.
func (e *Engine) grantStage(pick *stage, timer *time.Timer, core int) {
	w := pick.w.Load()
	before := time.Duration(pick.busyNanos.Load())
	w.grant <- e.cfg.BatchSize
	res, ok := waitGrant(w, timer, e.cfg.GrantTimeout)
	if !ok {
		e.detachStage(pick, w)
		return
	}
	if res.panicked {
		e.failStage(pick, "panic", res.panicVal)
		return
	}
	ran := time.Duration(pick.busyNanos.Load()) - before
	wt := pick.weight.Load()
	if wt < 2 {
		wt = 2
	}
	pick.pass += float64(ran) * 1024 / float64(wt)
	// Keep sleeping stages from banking unbounded credit.
	min := pick.pass
	for _, s := range e.stages {
		if s.core == core && s.pass < min-float64(time.Second) {
			s.pass = min - float64(time.Second)
		}
	}
	// Probation: a restarted stage earns Healthy back by completing clean
	// grants under real traffic. Remote stages are exempt — their health
	// tracks the link state machine (remoteLinkState), and a clean grant
	// only proves the send queue had room, not that the peer is reachable.
	if w.kind == workerRemote {
		return
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
}

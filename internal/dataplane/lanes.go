package dataplane

// Per-producer inject lanes: the contention-free entry path.
//
// Engine.Inject and Engine.InjectBatch enqueue straight into the chain
// entry stage's shared MPMC rx ring — correct from any goroutine, but every
// producer CASes against every other producer (and the movers forwarding
// mid-chain traffic) on the same reservation index. The paper's NF Manager
// avoids exactly this by giving the RX path its own threads and per-NF
// rings; inject lanes are that design's Go shape:
//
//   - A producer registers with Engine.ProducerHandle and receives a
//     private SPSC lane. Lane enqueues are single-producer ring writes —
//     zero CAS, zero contention with other producers.
//   - Each lane is bound (round-robin at registration) to one TX shard,
//     which drains it during its sweeps and routes the packets into entry
//     rings with the same batched, run-detecting path InjectBatch uses
//     (enqueueRouted). One drainer per lane preserves per-producer FIFO
//     end to end: SPSC lane order → single mover → entry ring reservation
//     order.
//   - The shared Engine.Inject/InjectBatch path remains as the fallback
//     lane for anonymous injectors — code that cannot register, or that
//     needs the synchronous shed feedback (Inject's false return reports
//     backpressure at call time; a lane defers routing to drain time).
//
// Deferred routing moves the shed/accounting decisions from the producer's
// call site to the mover's drain site, which is exactly the NIC-RX model:
// acceptance into the lane only promises the packet will be *offered* to
// the chain; backpressure, fail-closed gates and entry-ring overflow are
// applied (and counted) when the mover drains it. Producers that need
// per-packet shed feedback should stay on Engine.Inject.
//
// Lifecycle: Close marks the lane; the owning mover drains what remains,
// then unlinks it (COW under Engine.laneMu). Lanes still holding packets
// when Run winds down are swept into LateDrops by shutdown — those packets
// were never counted Injected, so the conservation invariant is untouched.

import (
	"sync/atomic"
	"time"

	"nfvnice/internal/ring"
)

// injectLane is one producer's private SPSC entry ring plus its binding to
// the draining TX shard.
type injectLane struct {
	ring *ring.SPSC[*Packet]
	mov  *mover
	// closed flips on ProducerHandle.Close; the owning mover retires the
	// lane once it has drained the remainder.
	closed atomic.Bool
}

// ProducerHandle is a registered producer's private entry lane. Create one
// per producer goroutine with Engine.ProducerHandle; a handle must not be
// shared between goroutines (the lane is single-producer).
type ProducerHandle struct {
	e    *Engine
	lane *injectLane
}

// ProducerHandle registers a new per-producer inject lane of the given
// capacity (0 takes Config.RingSize; rounded up to a power of two) and
// binds it round-robin to a TX shard. Safe to call before or during Run;
// lanes registered mid-run are picked up by the owning mover's next sweep.
func (e *Engine) ProducerHandle(capacity int) *ProducerHandle {
	if capacity <= 0 {
		capacity = e.cfg.RingSize
	}
	ln := &injectLane{ring: ring.NewSPSC[*Packet](capacity)}
	e.laneMu.Lock()
	m := e.movers[e.laneRR%len(e.movers)]
	e.laneRR++
	ln.mov = m
	e.lanes = append(e.lanes, ln)
	cur := *m.lanes.Load()
	next := make([]*injectLane, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = ln
	m.lanes.Store(&next)
	e.laneMu.Unlock()
	return &ProducerHandle{e: e, lane: ln}
}

// Inject offers a packet through the producer's private lane. It reports
// false when the lane is full (the mover hasn't caught up — per-lane
// backpressure), the handle is closed, or Run has exited; the caller keeps
// ownership of a rejected packet. Acceptance means the packet will be
// offered to its chain at the mover's next drain; chain-entry shedding is
// applied and counted there, not here (see the package comment in this
// file).
func (h *ProducerHandle) Inject(p *Packet) bool {
	if h.lane.closed.Load() {
		return false
	}
	if h.e.stopped.Load() {
		h.e.LateDrops.Add(1)
		return false
	}
	if !h.lane.ring.Enqueue(p) {
		return false
	}
	h.lane.mov.maybeWake()
	if h.e.stopped.Load() {
		// Run exited between the gate check and the enqueue: the shutdown
		// lane sweep may already have run, so rescue our own lane.
		h.e.lateSweepLane(h.lane)
	}
	return true
}

// InjectBatch offers packets through the lane with one ring publish,
// reporting how many were accepted. Unlike Engine.InjectBatch, the caller
// KEEPS ownership of the rejected tail ps[n:] — retry it or recycle it —
// because a lane-full condition is transient per-producer backpressure, not
// a routing verdict.
func (h *ProducerHandle) InjectBatch(ps []*Packet) int {
	if len(ps) == 0 || h.lane.closed.Load() {
		return 0
	}
	if h.e.stopped.Load() {
		h.e.LateDrops.Add(uint64(len(ps)))
		return 0
	}
	n := h.lane.ring.EnqueueBatch(ps)
	if n > 0 {
		h.lane.mov.maybeWake()
		if h.e.stopped.Load() {
			h.e.lateSweepLane(h.lane)
		}
	}
	return n
}

// Len reports the lane's instantaneous backlog (packets enqueued but not
// yet drained by the mover).
func (h *ProducerHandle) Len() int { return h.lane.ring.Len() }

// Close retires the handle: further Injects fail, and the owning mover
// drains whatever the lane still holds into the chain before unlinking it.
// Close does not wait for that drain; packets already accepted are routed
// (or, if the engine stops first, swept into LateDrops) asynchronously.
// Safe to call at most once per handle.
func (h *ProducerHandle) Close() {
	if h.lane.closed.CompareAndSwap(false, true) {
		// Wake the mover so an idle shard retires the lane promptly.
		h.lane.mov.maybeWake()
	}
}

// lateSweepLane rescues packets enqueued into a lane by an Inject that
// raced Run's stop gate, recycling them as LateDrops (lane packets are
// pre-acceptance: never counted Injected). lateMu serializes against the
// shutdown lane sweep and other racing producers — the SPSC consumer role
// is handed around under the lock, which is sound because the mover that
// normally owns it has exited before stopped flips.
func (e *Engine) lateSweepLane(ln *injectLane) {
	if ln.ring.Len() == 0 {
		return
	}
	e.lateMu.Lock()
	var n uint64
	for {
		p, ok := ln.ring.Dequeue()
		if !ok {
			break
		}
		e.PutPacket(p)
		n++
	}
	if n > 0 {
		e.LateDrops.Add(n)
	}
	e.lateMu.Unlock()
}

// drainLanes is the mover-side half of the lane path: drain every bound
// lane in round-robin order (rotating the start index each sweep so one
// saturated lane cannot starve the others), route the packets into entry
// rings via enqueueRouted, and retire closed lanes once empty. Returns how
// many packets were drained. Runs only on the owning mover's goroutine
// (or, after the movers exit, on Run's shutdown goroutine), preserving the
// lanes' single-consumer contract.
func (e *Engine) drainLanes(m *mover) int {
	lanes := *m.lanes.Load()
	if len(lanes) == 0 {
		return 0
	}
	var now int64 // lazy, like moveStages: idle sweeps skip the clock read
	moved := 0
	var retired bool
	for off := 0; off < len(lanes); off++ {
		ln := lanes[(m.laneRR+off)%len(lanes)]
		for {
			k := ln.ring.DequeueBatch(m.buf[:m.batch])
			if k == 0 {
				break
			}
			if now == 0 {
				now = time.Now().UnixNano()
				e.coarseNanos.Store(now)
			}
			moved += k
			if e.rec != nil {
				// Spans attach at drain time — the moment the packet
				// enters the engine proper — so lane residence shows up
				// as pre-inject time, not chain latency.
				e.sampleBatch(m.buf[:k], now)
			}
			if n := e.enqueueRouted(m.buf[:k], now, m.rc); n > 0 {
				e.Injected.Add(uint64(n))
			}
		}
		if ln.closed.Load() && ln.ring.Len() == 0 {
			retired = true
		}
	}
	m.laneRR++
	if moved > 0 {
		m.laneMoved.Add(uint64(moved))
		m.rc.flush()
	}
	if retired {
		e.retireLanes(m)
	}
	return moved
}

// retireLanes unlinks every closed-and-empty lane from the mover's COW
// list (and the engine registry). Cold path: runs only after a Close.
func (e *Engine) retireLanes(m *mover) {
	e.laneMu.Lock()
	cur := *m.lanes.Load()
	next := make([]*injectLane, 0, len(cur))
	for _, ln := range cur {
		if ln.closed.Load() && ln.ring.Len() == 0 {
			continue
		}
		next = append(next, ln)
	}
	m.lanes.Store(&next)
	keep := e.lanes[:0]
	for _, ln := range e.lanes {
		if ln.mov == m && ln.closed.Load() && ln.ring.Len() == 0 {
			continue
		}
		keep = append(keep, ln)
	}
	e.lanes = keep
	e.laneMu.Unlock()
}

// sweepLanes drains every registered lane into LateDrops — the shutdown
// path, called after the movers have exited (so the single-consumer
// contract transfers to the caller). Packets still in a lane were never
// counted Injected; LateDrops is their pre-acceptance drop class.
func (e *Engine) sweepLanes() {
	e.laneMu.Lock()
	lanes := append([]*injectLane(nil), e.lanes...)
	e.laneMu.Unlock()
	e.lateMu.Lock()
	var n uint64
	for _, ln := range lanes {
		for {
			p, ok := ln.ring.Dequeue()
			if !ok {
				break
			}
			e.PutPacket(p)
			n++
		}
	}
	if n > 0 {
		e.LateDrops.Add(n)
	}
	e.lateMu.Unlock()
}

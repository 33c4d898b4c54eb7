package dataplane

// Inject lanes: the engine's one ingress.
//
// The paper's NF Manager has a single way in: RX threads take packets off
// the NIC, look up the chain, and apply selective early discard at the chain
// entry. Inject lanes are that design's Go shape, and there is no other
// entry path:
//
//   - A producer registers with Engine.ProducerHandle and receives a
//     private SPSC lane. Lane enqueues are single-producer ring writes —
//     zero CAS, zero contention with other producers, with the movers or
//     with the core loops forwarding mid-chain traffic.
//   - Each lane is bound (round-robin at registration) to one TX shard,
//     which drains it during its sweeps and hands each drained batch to
//     enqueueRouted — the only code that routes a packet, counts its
//     arrival, consults the throttle and fail-closed gates, publishes into
//     an entry ring, and charges Injected or a pre-acceptance drop class.
//     One drainer per lane preserves per-producer FIFO end to end: SPSC
//     lane order → single mover → entry ring reservation order.
//
// Deferred routing is the contract: acceptance into a lane only promises
// the packet will be *offered* to its chain. Backpressure, fail-closed
// gates, entry-ring overflow and a missing route are applied (and counted)
// when the mover drains the lane, on the mover's goroutine — the NIC-RX
// model — so ProducerHandle.Inject's return value says "the lane had room",
// never "the chain took it". Outcomes are read from LedgerSnapshot: once a
// lane is drained, every packet it accepted is in exactly one of
//
//	Injected, EntryDrops, FaultEntryDrops, RingDrops − MidRingDrops,
//	UnroutedDrops, LateDrops
//
// and the Injected ones go on to the post-acceptance identity (ledger.go).
// Producers pace against that ledger (offered minus outcomes), not against
// a return value.
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
// applied and counted there, not here (see the header comment in this
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
// reporting how many were accepted. The caller KEEPS ownership of the
// rejected tail ps[n:] — retry it or recycle it — because a lane-full
// condition is transient per-producer backpressure, not a routing verdict.
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
// yet drained by the mover). Zero does not mean the packets reached their
// chain: the mover may still hold the batch it drained last. A producer
// moving its flows to a fresh lane, which may bind to another mover, keeps
// their order only if it first waits until the ledger shows every packet
// it offered routed (Injected or a pre-acceptance class).
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
// saturated lane cannot starve the others), hand the packets to
// enqueueRouted, and retire closed lanes once empty. Returns how
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
				// as pre-inject time, not chain latency. Packets the
				// entry sheds abort their spans when recycled.
				e.sampleBatch(m.buf[:k], now)
			}
			e.enqueueRouted(m.buf[:k], now, m.rc)
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

// enqueueRouted is the chain entry — the one place a packet is routed, its
// arrival counted, the throttle and fail-closed gates consulted, and
// Injected or a pre-acceptance drop class charged. It publishes each run of
// same-flow packets with a single ring reservation: one routing lookup, one
// counter update, one reservation per run. Packets that do not enter — shed
// by backpressure, a down chain, a full entry ring or a missing route — are
// recycled through rc, the draining mover's batcher. Called only from
// drainLanes.
func (e *Engine) enqueueRouted(ps []*Packet, now int64, rc *recycler) {
	var accepted, unrouted uint64
	for i := 0; i < len(ps); {
		p := ps[i]
		chainID, ok := e.routeOf(p.FlowID)
		if !ok {
			unrouted++
			rc.put(p)
			i++
			continue
		}
		entry := e.stages[e.chains[chainID][0]]
		// Extend the run across packets sharing the flow: one routing
		// lookup, one counter update, one ring reservation for the run.
		j := i
		for j < len(ps) && ps[j].FlowID == p.FlowID {
			ps[j].ChainID = chainID
			ps[j].Hop = 0
			ps[j].enqueuedNanos = now
			j++
		}
		run := ps[i:j]
		// Arrivals count offered load (attempts), not surviving enqueues:
		// the rate-cost controller's λ must not collapse to the drain rate
		// when a stage is overloaded or its chain is being shed.
		entry.arrivals.Add(uint64(len(run)))
		shed := run
		switch {
		case e.throttled[chainID].Load():
			e.EntryDrops.Add(uint64(len(run)))
		case e.chainDown[chainID].Load():
			e.FaultEntryDrops.Add(uint64(len(run)))
		default:
			n := entry.rx.EnqueueBatch(run)
			if n > 0 {
				e.cores[entry.core].maybeWake()
			}
			// A saturated entry closes its own gate: same check as the
			// grant's forward mid-chain.
			if l := entry.rx.Len(); l >= e.highWater && entry.hot.Load() == 0 {
				e.postHigh(entry, l)
			}
			accepted += uint64(n)
			shed = run[n:]
			if d := uint64(len(shed)); d > 0 {
				e.RingDrops.Add(d)
				entry.drops.Add(d)
			}
		}
		for _, q := range shed {
			rc.put(q)
		}
		i = j
	}
	if accepted > 0 {
		e.Injected.Add(accepted)
	}
	if unrouted > 0 {
		e.UnroutedDrops.Add(unrouted)
	}
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

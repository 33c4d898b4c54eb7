package dataplane

// The packet freelist. Engine.free is a lock-free MPMC recycle ring shared
// by every goroutine; PacketCache layers a per-producer local cache on top
// so hot producers and consumers touch the shared ring once per
// half-cache-full of traffic (one reservation and one publish for the whole
// batch) instead of once per packet.
//
// Ownership contract:
//
//   - GetPacket (or PacketCache.Get) hands the caller a descriptor; the
//     caller owns it until a ProducerHandle accepts it (Inject returns
//     true; InjectBatch counts it in the accepted prefix).
//   - A packet the lane rejects (Inject false, InjectBatch's tail) is still
//     the caller's: retry it or PutPacket it.
//   - Packets the engine drops after accepting them (shed at the chain
//     entry when the lane is drained, full rings, handler discards) are
//     recycled automatically.
//   - A delivered packet is owned by the Sink; returning it with PutPacket
//     closes the zero-allocation loop. Skipping that is safe — the freelist
//     just refills from the heap. With no Sink the engine recycles it.
//
// Recycled packets are reused immediately, so nothing may hold a *Packet (or
// a slice of its Frame) past these ownership boundaries: copy what must
// outlive them.
//
// Config.DebugPool arms ownership tracking for debugging violations of this
// contract: every recycle path flips the descriptor's poolState live→pooled
// with a CAS and panics on a double put; every Get marks it live again; and
// stage grants panic (naming the stage) when a handler receives a pooled
// descriptor — a use-after-recycle. Disabled, the tracking costs nothing:
// the hot path stays allocation-free and check-free.

import "sync/atomic"

// debugPut flips a descriptor live→pooled, panicking on a second put. With
// a frame arena it also verifies the descriptor still owns its arena slot:
// every legal reslice of frame0 shares the slot's final byte, so a Frame
// whose last reachable byte lives elsewhere was swapped for a foreign
// buffer — the pooling contract violation that silently leaks arena slots.
func debugPut(p *Packet) {
	if !atomic.CompareAndSwapInt32(&p.poolState, 0, 1) {
		panic("dataplane: double PutPacket: descriptor is already in the freelist")
	}
	if f0, f := p.frame0, p.Frame; cap(f0) > 0 && cap(f) > 0 &&
		&f[:cap(f)][cap(f)-1] != &f0[:cap(f0)][cap(f0)-1] {
		panic("dataplane: recycled descriptor's Frame no longer aliases its arena slot (buffer swapped)")
	}
}

// retire readies a descriptor for the freelist; every recycle path goes
// through it. A span still attached (a shed or rejected packet; delivered
// ones had theirs completed by the mover) aborts, DebugPool checks
// ownership, and the per-trip state clears: Frame returns to the
// descriptor's empty arena slot (nil without an arena) — a length reset
// only, the bytes stay put — so frame ownership follows the descriptor.
func (e *Engine) retire(p *Packet) {
	if p.span != nil {
		e.abortSpan(p)
	}
	if e.cfg.DebugPool {
		debugPut(p)
	}
	p.Hop = 0
	p.Drop = false
	p.Frame = p.frame0[:0]
}

// newPacket is the heap fallback when the freelist runs dry: with a frame
// arena configured the fresh descriptor gets a private full-capacity slot
// so the Frame contract holds even off the preallocated pool.
func (e *Engine) newPacket() *Packet {
	p := &Packet{}
	if fs := e.cfg.FrameSize; fs > 0 {
		slot := make([]byte, fs)
		p.frame0 = slot
		p.Frame = slot[:0]
	}
	return p
}

// GetPacket returns a descriptor from the engine's freelist, falling back to
// the heap when it is empty. Safe from any goroutine.
func (e *Engine) GetPacket() *Packet {
	if p, ok := e.free.Dequeue(); ok {
		if e.cfg.DebugPool {
			atomic.StoreInt32(&p.poolState, 0)
		}
		return p
	}
	return e.newPacket()
}

// PutPacket recycles a descriptor the caller owns; the engine uses it too
// for packets it drops in flight. If the freelist is full the packet is left
// to the garbage collector. Safe from any goroutine.
func (e *Engine) PutPacket(p *Packet) {
	e.retire(p)
	e.free.Enqueue(p)
}

// PutPacketBatch recycles a slice of descriptors the caller owns with one
// freelist reservation for the whole batch — the delivery-side mirror of
// ProducerHandle.InjectBatch, for sinks that retire packets in bursts.
// Descriptors that do not fit the freelist are left to the garbage
// collector. Safe from any goroutine; the slice itself is not retained.
func (e *Engine) PutPacketBatch(ps []*Packet) {
	for _, p := range ps {
		e.retire(p)
	}
	// Surplus beyond the freelist capacity is GC'd with the caller's refs.
	e.free.EnqueueBatch(ps)
}

// recycler batches the engine-internal recycling of packets dropped in
// flight: drops accumulate in a local slab and return to the shared
// freelist with one batch reservation per flush (once per mover sweep)
// instead of one CAS-reserve Enqueue per packet — the same lane treatment
// the inject path got, applied to the freelist's producer side, so movers
// recycling drops stop CASing against GetPacket's consumers. Each mover
// owns one; the serial shutdown drain owns another. Not safe for
// concurrent use.
type recycler struct {
	e   *Engine
	buf []*Packet
	n   int
}

func (e *Engine) newRecycler(size int) *recycler {
	if size < 1 {
		size = 1
	}
	return &recycler{e: e, buf: make([]*Packet, size)}
}

// put readies a dropped packet for reuse and buffers it for the next flush.
func (r *recycler) put(p *Packet) {
	r.e.retire(p)
	if r.n == len(r.buf) {
		r.flush()
	}
	r.buf[r.n] = p
	r.n++
}

// flush returns the buffered packets to the shared freelist in one batch
// reservation; whatever does not fit is surplus and left to the GC.
func (r *recycler) flush() {
	if r.n == 0 {
		return
	}
	r.e.free.EnqueueBatch(r.buf[:r.n])
	for i := 0; i < r.n; i++ {
		r.buf[i] = nil
	}
	r.n = 0
}

// PacketCache is a per-goroutine freelist cache: Get and Put work on a local
// LIFO slab and exchange half the cache with the shared recycle ring in one
// bulk reservation when it runs dry or fills up. Create one per producer (or
// consumer) goroutine; a PacketCache must not be shared between goroutines.
type PacketCache struct {
	e   *Engine
	buf []*Packet
}

// NewPacketCache returns a cache holding up to size descriptors locally
// (minimum 8).
func (e *Engine) NewPacketCache(size int) *PacketCache {
	if size < 8 {
		size = 8
	}
	return &PacketCache{e: e, buf: make([]*Packet, 0, size)}
}

// Get returns a descriptor, refilling half the cache from the shared
// freelist when the local slab is empty.
func (c *PacketCache) Get() *Packet {
	if len(c.buf) == 0 {
		n := c.e.free.DequeueBatch(c.buf[:cap(c.buf)/2])
		c.buf = c.buf[:n]
		if n == 0 {
			return c.e.newPacket()
		}
	}
	p := c.buf[len(c.buf)-1]
	c.buf[len(c.buf)-1] = nil
	c.buf = c.buf[:len(c.buf)-1]
	if c.e.cfg.DebugPool {
		atomic.StoreInt32(&p.poolState, 0)
	}
	return p
}

// Put recycles a descriptor, spilling half the cache to the shared freelist
// when the local slab is full.
func (c *PacketCache) Put(p *Packet) {
	c.e.retire(p)
	if len(c.buf) == cap(c.buf) {
		half := cap(c.buf) / 2
		c.e.free.EnqueueBatch(c.buf[half:])
		// Whatever didn't fit in the shared ring is surplus: drop the
		// references and let the GC take it.
		for i := half; i < len(c.buf); i++ {
			c.buf[i] = nil
		}
		c.buf = c.buf[:half]
	}
	c.buf = append(c.buf, p)
}

package dataplane

import (
	"slices"
	"testing"
)

// The grant's forward, tested on engines that are never Run: the test
// goroutine plays the lane-draining mover and the granted worker, so every
// assertion is about one grant and nothing depends on the clock.

// newHopEngine builds stages a, b, c with chain 0 = a→b→c and chain 1 = a→b,
// so one grant of b holds packets that continue (chain 0) and packets that
// finish (chain 1). Flow f rides chain f%2.
func newHopEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	a := e.AddStage("a", 1024, func(*Packet) {})
	b := e.AddStage("b", 1024, func(*Packet) {})
	c := e.AddStage("c", 1024, func(*Packet) {})
	for i, ids := range [][]int{{a, b, c}, {a, b}} {
		ch, err := e.AddChain(ids...)
		if err != nil {
			t.Fatal(err)
		}
		e.MapFlow(i, ch)
	}
	e.initControl()
	return e
}

// admit offers n packets, flows alternating, through a lane and drains it
// into the chain entry, so they are counted Injected like any packet.
func admit(t *testing.T, e *Engine, n int) {
	t.Helper()
	h := e.ProducerHandle(0)
	for i := 0; i < n; i++ {
		p := e.GetPacket()
		p.FlowID = i % 2
		setSeq(p, i)
		if !h.Inject(p) {
			t.Fatalf("lane refused packet %d", i)
		}
	}
	e.drainLanes(h.lane.mov)
	if got := e.Injected.Load(); got != uint64(n) {
		t.Fatalf("Injected = %d after admitting %d", got, n)
	}
}

// grant runs one grant of the stage on the test goroutine with a fresh
// worker incarnation.
func grant(e *Engine, s *stage) {
	e.runGrant(s, &workerCtx{batch: make([]*Packet, e.cfg.BatchSize)}, e.cfg.BatchSize)
}

// drainSeqs empties a ring, returning the sequence numbers in ring order.
func drainSeqs(e *Engine, s *stage, tx bool) []int {
	r := s.rx
	if tx {
		r = s.tx
	}
	var out []int
	for {
		p, ok := r.Dequeue()
		if !ok {
			return out
		}
		out = append(out, seqOf(p))
		e.PutPacket(p)
	}
}

// TestGrantForwardsMidChain: one grant of the middle stage publishes the
// chain-0 survivors into the next stage's rx and hands only the chain-1
// packets, which finished there, to its own tx — each in arrival order.
func TestGrantForwardsMidChain(t *testing.T) {
	e := newHopEngine(t, Config{RingSize: 64, BatchSize: 16, FrameSize: 8})
	a, b, c := e.stages[0], e.stages[1], e.stages[2]
	admit(t, e, 16)
	grant(e, a)
	if a.tx.Len() != 0 || b.rx.Len() != 16 {
		t.Fatalf("after a's grant: a.tx %d, b.rx %d, want 0 and 16", a.tx.Len(), b.rx.Len())
	}
	grant(e, b)
	if got, want := drainSeqs(e, c, false), []int{0, 2, 4, 6, 8, 10, 12, 14}; !slices.Equal(got, want) {
		t.Errorf("c.rx holds %v, want chain 0's %v", got, want)
	}
	if got, want := drainSeqs(e, b, true), []int{1, 3, 5, 7, 9, 11, 13, 15}; !slices.Equal(got, want) {
		t.Errorf("b.tx holds %v, want chain 1's %v", got, want)
	}
	if b.arrivals.Load() != 16 || c.arrivals.Load() != 8 || b.processed.Load() != 16 {
		t.Errorf("arrivals b %d c %d, b processed %d, want 16, 8, 16",
			b.arrivals.Load(), c.arrivals.Load(), b.processed.Load())
	}
}

// TestGrantForwardFullRing: survivors that meet a full next ring are charged
// once each to MidRingDrops (and RingDrops), the destination's drops and
// the forwarding stage's wasted work, so the ledger closes exactly.
func TestGrantForwardFullRing(t *testing.T) {
	e := newHopEngine(t, Config{RingSize: 16, BatchSize: 8, FrameSize: 8})
	a, b, c := e.stages[0], e.stages[1], e.stages[2]
	for c.rx.Enqueue(e.newPacket()) {
	}
	admit(t, e, 8)
	grant(e, a)
	grant(e, b)
	const lost = 4 // chain 0's half of the grant
	if e.MidRingDrops.Load() != lost || e.RingDrops.Load() != lost ||
		c.drops.Load() != lost || b.wasted.Load() != lost || a.wasted.Load() != 0 {
		t.Fatalf("MidRingDrops %d RingDrops %d c.drops %d b.wasted %d a.wasted %d, want %d each and a 0",
			e.MidRingDrops.Load(), e.RingDrops.Load(), c.drops.Load(), b.wasted.Load(), a.wasted.Load(), lost)
	}
	if n := e.moveStages(e.stages, e.drainBuf, e.drainRC); n != 8-lost {
		t.Fatalf("mover delivered %d, want %d", n, 8-lost)
	}
	if r := e.LedgerSnapshot().Residual(); r != 0 {
		t.Fatalf("ledger residual %d, want 0: %+v", r, e.LedgerSnapshot())
	}
}

// TestGrantPostsWatermark: the grant whose forward takes the next ring over
// HIGH posts the depth it saw and raises the upstream yield before any
// control step, as the lane drain does at a chain entry.
func TestGrantPostsWatermark(t *testing.T) {
	e := newEdgeEngine(t)
	from, bottleneck := e.stages[1], e.stages[2]
	for i := 0; i < e.highWater; i++ {
		from.rx.Enqueue(&Packet{ChainID: 0, Hop: 1})
	}
	for from.rx.Len() > 0 && bottleneck.hot.Load() == 0 {
		grant(e, from)
	}
	if d := int(bottleneck.hot.Load()); d < e.highWater || d != bottleneck.rx.Len() {
		t.Fatalf("posted depth %d, rx holds %d, HIGH %d", d, bottleneck.rx.Len(), e.highWater)
	}
	if got, want := yields(e), []bool{false, true, false, false, false}; !slices.Equal(got, want) {
		t.Fatalf("yield flags %v, want %v", got, want)
	}
	if len(e.poke) != 1 || e.Throttled(0) || e.Decisions().Total() != 0 {
		t.Fatalf("poke %d, throttled %v, journal %d: want a poke and nothing else",
			len(e.poke), e.Throttled(0), e.Decisions().Total())
	}
}

// TestGrantForwardsNothingUnclaimed: a worker that lost its chunk's inflight
// claim to a detach, or that finishes after the stop gate, publishes nothing
// — its packets belong to FaultDrops and ShutdownDrops respectively.
func TestGrantForwardsNothingUnclaimed(t *testing.T) {
	t.Run("detached", func(t *testing.T) {
		e := New(Config{RingSize: 64, BatchSize: 8, FrameSize: 8})
		var w *workerCtx
		a := e.AddStage("a", 1024, func(*Packet) {})
		var b int
		b = e.AddBatchStage("b", 1024, func([]*Packet) {
			// The scheduler's deadline fires while the handler runs.
			e.detachStage(e.stages[b], w)
		})
		c := e.AddStage("c", 1024, func(*Packet) {})
		ch, _ := e.AddChain(a, b, c)
		e.MapFlow(0, ch)
		e.MapFlow(1, ch)
		e.initControl()
		admit(t, e, 8)
		grant(e, e.stages[a])
		w = &workerCtx{batch: make([]*Packet, 8)}
		e.runGrant(e.stages[b], w, 8)
		if n := e.stages[c].rx.Len() + e.stages[b].tx.Len(); n != 0 || e.stages[c].arrivals.Load() != 0 {
			t.Fatalf("detached worker published %d packets (c arrivals %d)", n, e.stages[c].arrivals.Load())
		}
		if l := e.LedgerSnapshot(); l.FaultDrops != 8 || l.Residual() != 0 {
			t.Fatalf("ledger %+v, want 8 fault drops and residual 0", l)
		}
	})
	t.Run("stopped", func(t *testing.T) {
		e := newHopEngine(t, Config{RingSize: 64, BatchSize: 8, FrameSize: 8})
		admit(t, e, 8)
		grant(e, e.stages[0])
		e.stopped.Store(true)
		grant(e, e.stages[1])
		if n := e.stages[2].rx.Len() + e.stages[1].tx.Len(); n != 0 {
			t.Fatalf("worker published %d packets after the stop gate", n)
		}
		if l := e.LedgerSnapshot(); l.ShutdownDrops != 8 || l.Residual() != 0 {
			t.Fatalf("ledger %+v, want 8 shutdown drops and residual 0", l)
		}
	})
}

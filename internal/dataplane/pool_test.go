package dataplane

import (
	"context"
	"runtime"
	"testing"
	"time"
)

const arenaFrameSize = 32

// newArenaEngine builds a stopped two-stage chain over a small frame arena
// and maps flow 0 to it. Nothing runs: the recycle paths below are driven
// synchronously from the test goroutine.
func newArenaEngine(debug bool) (e *Engine, chain int) {
	e = New(Config{RingSize: 8, BatchSize: 4, PoolSize: 8, FrameSize: arenaFrameSize,
		WeightPeriod: 0, DebugPool: debug})
	a := e.AddStage("a", 1024, func(*Packet) {})
	b := e.AddStage("b", 1024, func(*Packet) {})
	chain, _ = e.AddChain(a, b)
	e.MapFlow(0, chain)
	return e, chain
}

// recyclePaths is every way a descriptor returns to the pool: the three
// caller-facing puts and the two engine-internal drops (a lane drain's
// recycler and a worker's forward). dropped, where set, is the counter that proves the
// engine-internal path was the one taken.
var recyclePaths = []struct {
	name    string
	put     func(e *Engine, chain int, p *Packet)
	dropped func(e *Engine) uint64
}{
	{"PutPacket", func(e *Engine, _ int, p *Packet) { e.PutPacket(p) }, nil},
	{"PutPacketBatch", func(e *Engine, _ int, p *Packet) { e.PutPacketBatch([]*Packet{p}) }, nil},
	{"PacketCache.Put", func(e *Engine, _ int, p *Packet) { e.NewPacketCache(8).Put(p) }, nil},
	{"entry shed", func(e *Engine, chain int, p *Packet) {
		e.throttled[chain].Store(true)
		p.FlowID = 0
		h := e.ProducerHandle(0)
		h.Inject(p)
		e.drainLanes(h.lane.mov) // the engine is not running: this goroutine is the mover
	}, func(e *Engine) uint64 { return e.EntryDrops.Load() }},
	{"mid-ring drop", func(e *Engine, chain int, p *Packet) {
		for e.stages[1].rx.Enqueue(e.newPacket()) {
		}
		p.ChainID, p.Hop = chain, 1
		e.forward(e.stages[0], []*Packet{p}) // stage 0's worker, done with p
	}, func(e *Engine) uint64 { return e.MidRingDrops.Load() }},
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestArenaContractOnEveryRecyclePath pins what a recycled descriptor looks
// like, whichever way it came back: an empty Frame over its own full arena
// slot, Hop and Drop cleared. With DebugPool, each path also panics on a
// second put and on a Frame swapped for a foreign buffer.
func TestArenaContractOnEveryRecyclePath(t *testing.T) {
	for _, path := range recyclePaths {
		t.Run(path.name, func(t *testing.T) {
			e, chain := newArenaEngine(false)
			p := e.GetPacket()
			slot := &p.frame0[0]
			p.Frame = append(p.Frame, "dirty"...)
			p.Hop, p.Drop = 3, true
			path.put(e, chain, p)
			if len(p.Frame) != 0 || cap(p.Frame) != arenaFrameSize || &p.Frame[:1][0] != slot {
				t.Errorf("Frame len=%d cap=%d, want the descriptor's empty %d-byte slot",
					len(p.Frame), cap(p.Frame), arenaFrameSize)
			}
			if p.Hop != 0 || p.Drop {
				t.Errorf("Hop=%d Drop=%v survived the recycle", p.Hop, p.Drop)
			}
			if path.dropped != nil && path.dropped(e) != 1 {
				t.Errorf("drop counter = %d, want 1: the packet took another path", path.dropped(e))
			}

			e, chain = newArenaEngine(true)
			p = e.GetPacket()
			e.PutPacket(p)
			mustPanic(t, "double put", func() { path.put(e, chain, p) })

			e, chain = newArenaEngine(true)
			p = e.GetPacket()
			p.Frame = make([]byte, 4)
			mustPanic(t, "foreign-buffer swap", func() { path.put(e, chain, p) })
		})
	}
}

// TestArenaAppendStaysInSlot fills every slot to capacity through append and
// then appends once more: the overflow must reallocate, never spill into the
// neighbouring slot.
func TestArenaAppendStaysInSlot(t *testing.T) {
	e, _ := newArenaEngine(false)
	pkts := make([]*Packet, e.cfg.PoolSize)
	for i := range pkts {
		pkts[i] = e.GetPacket()
	}
	for i, p := range pkts {
		for len(p.Frame) < cap(p.Frame) {
			p.Frame = append(p.Frame, byte(i+1))
		}
		p.Frame = append(p.Frame, 0xFF)
	}
	for i, p := range pkts {
		for j, b := range p.frame0 {
			if b != byte(i+1) {
				t.Fatalf("slot %d byte %d = %#x: a neighbour's append bled in", i, j, b)
			}
		}
	}
}

// TestNilSinkRecyclesDeliveries: an engine with no sink still delivers — it
// counts Delivered, closes the ledger and returns the descriptors to the
// freelist itself, so the steady state allocates nothing.
func TestNilSinkRecyclesDeliveries(t *testing.T) {
	cfg := benchConfig()
	cfg.FrameSize = 64
	e := New(cfg)
	a := e.AddStage("a", 1024, func(*Packet) {})
	b := e.AddStage("b", 1024, func(*Packet) {})
	ch, err := e.AddChain(a, b)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	h := e.ProducerHandle(0)
	cache := e.NewPacketCache(512)
	batch := make([]*Packet, 256)
	sent := 0
	push := func() {
		for i := range batch {
			p := cache.Get()
			p.FlowID = 0
			p.Size = 64
			batch[i] = p
		}
		for rem := batch; len(rem) > 0; rem = rem[h.InjectBatch(rem):] {
		}
		sent += len(batch)
		for int(e.Delivered.Load()) < sent {
			runtime.Gosched()
		}
	}
	for i := 0; i < 8; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(50, push)
	if perPacket := allocs / float64(len(batch)); perPacket > 0.01 {
		t.Errorf("nil-sink steady state allocates: %.4f allocs/packet", perPacket)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}

	l := e.LedgerSnapshot()
	if l.Residual() != 0 || l.Delivered != uint64(sent) || l.Injected != uint64(sent) {
		t.Errorf("sent %d, ledger %+v (residual %d)", sent, l, l.Residual())
	}
	// Every descriptor of the arena is back: in the freelist or in the
	// producer's cache, none leaked to the GC.
	if got := e.free.Len() + len(cache.buf); got != e.cfg.PoolSize {
		t.Errorf("%d of %d descriptors returned to the pool", got, e.cfg.PoolSize)
	}
}

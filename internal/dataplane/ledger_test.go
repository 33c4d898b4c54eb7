package dataplane

import (
	"context"
	"testing"
	"time"
)

// TestLedgerCleanRunCloses: with no faults and injection paced against the
// ledger (at most half a ring outstanding, so neither the watermark nor the
// mid-chain ring is ever reached, on any number of CPUs), the ledger
// identity holds exactly after Run returns and every class except Delivered
// is zero.
func TestLedgerCleanRunCloses(t *testing.T) {
	e := New(Config{RingSize: 256, WeightPeriod: 0})
	a := e.AddStage("a", 256, func(p *Packet) {})
	b := e.AddStage("b", 256, func(p *Packet) {})
	ch, err := e.AddChain(a, b)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)
	e.SetSink(func(ps []*Packet) { e.PutPacketBatch(ps) })
	h := e.ProducerHandle(0)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	const total = 5000
	for sent := 0; sent < total; sent++ {
		pace(e, sent, 256/2)
		p := e.GetPacket()
		p.FlowID = 0
		offer(h, p)
	}
	settle(t, e, total)
	cancel()
	<-done

	l := e.LedgerSnapshot()
	if l.Residual() != 0 {
		t.Fatalf("residual %d after Run, ledger %+v", l.Residual(), l)
	}
	if l.Delivered != total || l.Injected != total {
		t.Fatalf("delivered %d injected %d, want %d", l.Delivered, l.Injected, total)
	}
	if l.MidRingDrops != 0 || l.ShutdownDrops != 0 || l.FaultDrops != 0 {
		t.Fatalf("unexpected drop classes in clean run: %+v", l)
	}
	if got := l.Accounted(); got != l.Injected {
		t.Fatalf("Accounted %d != Injected %d", got, l.Injected)
	}
}

// TestLedgerMidRingDrops: a slow second stage behind a tiny ring, with the
// watermarks effectively disabled, forces mid-chain drops in the first
// stage's forward. They must land in MidRingDrops (and RingDrops), and the
// identity must still close exactly once the pipeline quiesces.
func TestLedgerMidRingDrops(t *testing.T) {
	e := New(Config{
		RingSize: 64, BatchSize: 8, WeightPeriod: 0,
		// HighFrac 1.0 keeps backpressure from throttling the chain before
		// the mid-chain ring overflows.
		HighFrac: 1.0, LowFrac: 0.9,
		DrainTimeout: 2 * time.Second,
	})
	a := e.AddStage("a", 64, func(p *Packet) {})
	b := e.AddStage("b", 64, func(p *Packet) { spin(50 * time.Microsecond) })
	ch, err := e.AddChain(a, b)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)
	e.SetSink(func(ps []*Packet) { e.PutPacketBatch(ps) })
	h := e.ProducerHandle(0)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	// Unpaced, and kept up until the mid-chain ring has overflowed: the
	// overload is the point, and the entry sheds most of it.
	total := 0
	for deadline := time.Now().Add(10 * time.Second); e.MidRingDrops.Load() == 0 || total < 20000; total++ {
		if time.Now().After(deadline) {
			break
		}
		p := e.GetPacket()
		p.FlowID = 0
		offer(h, p)
	}
	settle(t, e, total)
	cancel()
	<-done

	l := e.LedgerSnapshot()
	if l.Residual() != 0 {
		t.Fatalf("residual %d, ledger %+v", l.Residual(), l)
	}
	if l.MidRingDrops == 0 {
		t.Fatalf("expected mid-chain ring drops, ledger %+v", l)
	}
	if l.MidRingDrops > l.RingDrops {
		t.Fatalf("MidRingDrops %d exceeds RingDrops %d", l.MidRingDrops, l.RingDrops)
	}
	if l.Delivered+l.MidRingDrops != l.Injected {
		t.Fatalf("delivered %d + midDrops %d != injected %d",
			l.Delivered, l.MidRingDrops, l.Injected)
	}
	if l.Injected+preAccepted(l) != uint64(total) {
		t.Fatalf("injected %d + pre-acceptance drops %d != offered %d, ledger %+v",
			l.Injected, preAccepted(l), total, l)
	}
}

// TestLedgerAccessors covers the topology/queue snapshot helpers the
// hypothesis checkers use.
func TestLedgerAccessors(t *testing.T) {
	e := New(Config{RingSize: 64, WeightPeriod: 0})
	a := e.AddStage("a", 64, func(p *Packet) {})
	b := e.AddStage("b", 64, func(p *Packet) {})
	c := e.AddStage("c", 64, func(p *Packet) {})
	ch1, _ := e.AddChain(a, b)
	ch2, _ := e.AddChain(c)

	if n := e.NumChains(); n != 2 {
		t.Fatalf("NumChains %d, want 2", n)
	}
	got := e.ChainStages(ch1)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("ChainStages(%d) = %v, want [%d %d]", ch1, got, a, b)
	}
	got[0] = 999 // must be a copy
	if e.ChainStages(ch1)[0] != a {
		t.Fatal("ChainStages returned a live slice")
	}
	if e.ChainStages(-1) != nil || e.ChainStages(99) != nil {
		t.Fatal("out-of-range chain id not rejected")
	}
	if e.ChainStages(ch2)[0] != c {
		t.Fatalf("ChainStages(%d) wrong", ch2)
	}

	depths := e.QueueDepths(nil)
	if len(depths) != 3 {
		t.Fatalf("QueueDepths len %d, want 3", len(depths))
	}
	for i, d := range depths {
		if d != 0 {
			t.Fatalf("stage %d depth %d before Run, want 0", i, d)
		}
	}
	// Reuse path: a big enough scratch must be reused, not reallocated.
	scratch := make([]int, 8)
	out := e.QueueDepths(scratch)
	if &out[0] != &scratch[0] {
		t.Fatal("QueueDepths reallocated despite sufficient capacity")
	}
}

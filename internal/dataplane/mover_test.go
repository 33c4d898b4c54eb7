package dataplane

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMoverPartitionStatic pins the stage-affinity rule: stage i belongs to
// mover i mod M, every stage has exactly one owner, and the owner is
// recorded on the stage for the wake path.
func TestMoverPartitionStatic(t *testing.T) {
	e := New(Config{Movers: 3})
	for i := 0; i < 8; i++ {
		e.AddStage("s", 1024, func(*Packet) {})
	}
	e.assignMovers()
	owned := 0
	for mi, m := range e.movers {
		for _, s := range m.stages {
			if s.id%len(e.movers) != mi {
				t.Errorf("stage %d owned by mover %d, want %d", s.id, mi, s.id%len(e.movers))
			}
			if s.mov != m {
				t.Errorf("stage %d records wrong owning mover", s.id)
			}
			owned++
		}
	}
	if owned != 8 {
		t.Fatalf("partition covers %d stages, want 8", owned)
	}
}

// TestMoverParksWhenIdle asserts the idle ladder bottoms out in parks (no
// busy-burning cores on an idle engine) and that traffic still flows after
// parking — the wake/timeout path works.
func TestMoverParksWhenIdle(t *testing.T) {
	e := New(Config{RingSize: 64, WeightPeriod: 0, Movers: 2})
	a := e.AddStage("a", 1024, func(*Packet) {})
	b := e.AddStage("b", 1024, func(*Packet) {})
	ch, _ := e.AddChain(a, b)
	e.MapFlow(0, ch)
	var got atomic.Int64
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
		got.Add(int64(len(ps)))
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	// Idle phase: both movers must descend to parking.
	deadline := time.Now().Add(2 * time.Second)
	parked := func() bool {
		for _, m := range e.MoverStats() {
			if m.Stages > 0 && m.Parks == 0 {
				return false
			}
		}
		return true
	}
	for time.Now().Before(deadline) && !parked() {
		time.Sleep(time.Millisecond)
	}
	if !parked() {
		t.Fatalf("movers never parked while idle: %+v", e.MoverStats())
	}

	// Traffic after parking: deliveries resume (wake signal or park
	// timeout, either is correctness; the wake just bounds latency).
	h := e.ProducerHandle(0)
	for i := 0; i < 32; i++ {
		p := e.GetPacket()
		p.FlowID = 0
		offer(h, p)
	}
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && got.Load() < 32 {
		runtime.Gosched()
	}
	if got.Load() < 32 {
		t.Fatalf("only %d/32 delivered after movers parked", got.Load())
	}
	// Movers carry each packet exactly twice — in from its lane, out of the
	// last stage's tx ring — and never the a→b hop, which a's worker makes.
	// (A shard publishes its counts after the sweep that delivered.)
	var sweeps, moved, laneMoved uint64
	count := func() bool {
		sweeps, moved, laneMoved = 0, 0, 0
		for _, m := range e.MoverStats() {
			sweeps += m.Sweeps
			moved += m.Moved
			laneMoved += m.LaneMoved
		}
		return laneMoved == 32 && moved == 32
	}
	waitFor(t, 5*time.Second, "lane and tx counts of 32", count)
	time.Sleep(10 * time.Millisecond)
	if !count() || sweeps == 0 {
		t.Errorf("lane moved %d, tx moved %d over %d sweeps, want 32 each", laneMoved, moved, sweeps)
	}
	cancel()
	<-done
}

// TestConservationMovers drives an overloaded 3-stage chain with a sharded
// TX path and asserts exact packet conservation after shutdown:
// injected == delivered + mid-chain ring drops + all drop classes. Run
// under -race in CI (the chaos job) to certify the sharded counters.
func TestConservationMovers(t *testing.T) {
	e := New(Config{RingSize: 64, BatchSize: 16, WeightPeriod: 0, Movers: 2,
		DrainTimeout: 2 * time.Second, FrameSize: 8})
	entry := e.AddStage("entry", 1024, func(*Packet) {})
	mid := e.AddStage("mid", 1024, func(p *Packet) {
		if seqOf(p)%97 == 0 {
			p.Drop = true // exercise the NF-drop class under sharding
		}
	})
	back := e.AddStage("back", 1024, func(*Packet) { spin(time.Microsecond) })
	ch, err := e.AddChain(entry, mid, back)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	// Overdrive the tiny rings from two producers so mid-chain drops and
	// backpressure both fire while the movers run concurrently.
	prodDone := make(chan struct{}, 2)
	for pr := 0; pr < 2; pr++ {
		go func(pr int) {
			defer func() { prodDone <- struct{}{} }()
			h := e.ProducerHandle(0)
			deadline := time.Now().Add(500 * time.Millisecond)
			seq := 0
			for time.Now().Before(deadline) {
				p := e.GetPacket()
				p.FlowID = 0
				setSeq(p, seq)
				seq++
				offer(h, p)
			}
		}(pr)
	}
	<-prodDone
	<-prodDone
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}

	var midDrops uint64
	for _, s := range e.Stats() {
		if s.Name != "entry" {
			midDrops += s.QueueDrops
		}
	}
	injected := e.Injected.Load()
	accounted := e.Delivered.Load() + midDrops +
		e.NFDrops.Load() + e.FaultDrops.Load() + e.ShutdownDrops.Load()
	if injected == 0 {
		t.Fatal("nothing injected")
	}
	if e.Delivered.Load() == 0 {
		t.Fatal("nothing delivered")
	}
	if injected != accounted {
		t.Fatalf("conservation violated with Movers=2: injected=%d accounted=%d "+
			"(delivered=%d mid=%d nf=%d fault=%d shutdown=%d)",
			injected, accounted, e.Delivered.Load(), midDrops, e.NFDrops.Load(),
			e.FaultDrops.Load(), e.ShutdownDrops.Load())
	}
	if r := e.LedgerSnapshot().Residual(); r != 0 {
		t.Fatalf("ledger residual %d after Run, want 0", r)
	}
	// The sharded path ran, each mover on what it owns: lanes in — the two
	// producers' lanes bind one to each shard — and exits out, all through
	// the shard owning the last stage. No mover carries a mid-chain hop.
	ms := e.MoverStats()
	if len(ms) != 2 {
		t.Fatalf("MoverStats = %d shards, want 2", len(ms))
	}
	exitShard := back % len(ms)
	for i, m := range ms {
		if m.LaneMoved == 0 {
			t.Errorf("mover %d drained no lane (lanes=%d sweeps=%d)", i, m.Lanes, m.Sweeps)
		}
		if i != exitShard && m.Moved != 0 {
			t.Errorf("mover %d moved %d packets out of a mid-chain tx ring", i, m.Moved)
		}
	}
	// The final drain after the movers exit delivers too, so the exit shard
	// accounts for at most Delivered.
	if m := ms[exitShard].Moved; m == 0 || m > e.Delivered.Load() {
		t.Errorf("exit mover moved %d, delivered %d", m, e.Delivered.Load())
	}
}

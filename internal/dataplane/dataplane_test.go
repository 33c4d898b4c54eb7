package dataplane

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spin burns roughly d of CPU, standing in for packet processing work.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// setSeq and seqOf carry a test sequence number in the packet's frame (the
// engine needs Config.FrameSize >= 8 for it to ride the arena).
func setSeq(p *Packet, seq int) {
	p.Frame = binary.LittleEndian.AppendUint64(p.Frame[:0], uint64(seq))
}

func seqOf(p *Packet) int { return int(binary.LittleEndian.Uint64(p.Frame)) }

func TestPipelineDeliversAll(t *testing.T) {
	e := New(Config{RingSize: 256, WeightPeriod: 0, FrameSize: 8})
	a := e.AddStage("a", 1024, func(p *Packet) { setSeq(p, seqOf(p)+1) })
	b := e.AddStage("b", 1024, func(p *Packet) { setSeq(p, seqOf(p)*2) })
	ch, err := e.AddChain(a, b)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(7, ch)

	const total = 1000
	results := make(map[int]bool)
	var got atomic.Int64
	done := make(chan struct{})
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			results[seqOf(p)] = true
		}
		e.PutPacketBatch(ps)
		if got.Add(int64(len(ps))) == total {
			close(done)
		}
	})
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	// Closed loop: the in-flight window stays below b's ring and the
	// watermark, so nothing is shed or dropped mid-chain and every sequence
	// number is delivered.
	for sent := 0; sent < total; sent++ {
		pace(e, sent, 128)
		p := e.GetPacket()
		p.FlowID, p.Size = 7, 64
		setSeq(p, sent)
		offer(h, p)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timeout waiting for deliveries")
	}
	// Both handlers applied, in order: (v+1)*2.
	if !results[(0+1)*2] || !results[(999+1)*2] {
		t.Fatal("handlers not applied in chain order")
	}
	if e.Delivered.Load() != total {
		t.Fatalf("delivered %d, want %d", e.Delivered.Load(), total)
	}
}

// TestUnroutedFlowRejected: an engine with no chains at all (the flow table
// was never created) still drains its lanes, and charges the packet nobody
// can route to UnroutedDrops instead of losing it silently.
func TestUnroutedFlowRejected(t *testing.T) {
	e := New(Config{})
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)
	offer(h, &Packet{FlowID: 99})
	settle(t, e, 1)
	if l := e.LedgerSnapshot(); l.UnroutedDrops != 1 || l.Injected != 0 {
		t.Fatalf("unrouted packet not charged: %+v", l)
	}
}

func TestChainValidation(t *testing.T) {
	e := New(Config{})
	if _, err := e.AddChain(); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, err := e.AddChain(42); err == nil {
		t.Fatal("unknown stage accepted")
	}
	// A route to a chain that does not exist is refused at the call, not on
	// a mover goroutine when the first packet of the flow is drained.
	c, _ := e.AddChain(e.AddStage("s", 1024, func(*Packet) {}))
	e.MapFlow(7, c)
	mustPanic(t, "MapFlow to chain 99", func() { e.MapFlow(7, 99) })
	mustPanic(t, "MapFlow to chain -1", func() { e.MapFlow(7, -1) })
}

func TestWeightedSharesSkewThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	// Two independent single-stage chains with equal work and a 4:1
	// manual weight ratio: the heavy stage should process several times
	// more packets while both queues stay non-empty. The window is paced on
	// counts, not the clock: it opens once the movers have filled both entry
	// rings and closes after a fixed number of the light stage's packets,
	// so neither a slow start nor host steal can shift it.
	e := New(Config{RingSize: 16384, BatchSize: 8, WeightPeriod: 0})
	work := func(p *Packet) { spin(20 * time.Microsecond) }
	a := e.AddStage("a", 4096, work)
	b := e.AddStage("b", 1024, work)
	ca, _ := e.AddChain(a)
	cb, _ := e.AddChain(b)
	e.MapFlow(0, ca)
	e.MapFlow(1, cb)
	// One lane per chain, filled before Run: the movers empty both into the
	// entry rings (12 000 < the 13 107-packet high watermark) as soon as it
	// starts. At 4:1 the heavy stage runs about 4 096 packets while the
	// light one runs its 1 024, a window of about 100 ms: long enough that
	// one descheduled grant does not decide the ratio, with a queue deep
	// enough for a skew three times that.
	const queued, lightWindow = 12000, 1024
	var lanes [2]*ProducerHandle
	for flow := range lanes {
		lanes[flow] = e.ProducerHandle(0)
		for i := 0; i < queued; i++ {
			offer(lanes[flow], &Packet{FlowID: flow})
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	defer func() {
		cancel()
		<-done
	}()
	waitFor(t, 10*time.Second, "both entry rings to fill", func() bool {
		return e.Injected.Load() == 2*queued
	})
	st := e.Stats()
	a0, b0 := st[0].Processed, st[1].Processed
	waitFor(t, 30*time.Second, "the light stage's window", func() bool {
		return e.Stats()[1].Processed >= b0+lightWindow
	})
	st = e.Stats()
	da, db := st[0].Processed-a0, st[1].Processed-b0
	if st[0].Processed >= queued {
		t.Fatalf("the heavy stage drained its queue inside the window (a=%d b=%d): the window is mis-sized", da, db)
	}
	if ratio := float64(da) / float64(db); ratio < 2.0 {
		t.Fatalf("4:1 weights produced only %.2fx throughput skew (a=%d b=%d)", ratio, da, db)
	}
}

func TestAutoWeightsEqualizeUnequalCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	// Rate-cost proportional controller: stage B costs 4x stage A; with
	// equal arrivals the controller should weight B up and roughly
	// equalize processed counts.
	e := New(Config{RingSize: 512, BatchSize: 8, WeightPeriod: 5 * time.Millisecond})
	a := e.AddStage("light", 1024, func(p *Packet) { spin(5 * time.Microsecond) })
	b := e.AddStage("heavy", 1024, func(p *Packet) { spin(50 * time.Microsecond) })
	ca, _ := e.AddChain(a)
	cb, _ := e.AddChain(b)
	e.MapFlow(0, ca)
	e.MapFlow(1, cb)
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	go e.Run(ctx)
	// Equal offered load on both chains; what the entries shed is the
	// ledger's business, not the producer's.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		offer(h, &Packet{FlowID: 0})
		offer(h, &Packet{FlowID: 1})
	}
	cancel()
	st := e.Stats()
	if st[1].EstCost <= st[0].EstCost {
		// Wall-clock measurement was inverted by host scheduling noise;
		// the controller acted on garbage inputs, so the assertions below
		// would test the host, not the code.
		t.Skipf("host timing noise inverted cost estimates: light=%v heavy=%v",
			st[0].EstCost, st[1].EstCost)
	}
	if st[1].Weight <= st[0].Weight {
		t.Fatalf("controller did not weight the heavy stage up: %d vs %d",
			st[1].Weight, st[0].Weight)
	}
	ratio := float64(st[0].Processed) / float64(st[1].Processed)
	if ratio > 4 {
		t.Fatalf("throughputs not equalized: light=%d heavy=%d (%.2fx)",
			st[0].Processed, st[1].Processed, ratio)
	}
}

func TestBackpressureShedsAtEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	// A fast upstream feeding a very slow downstream: the chain must
	// throttle at entry rather than queueing without bound. The grant whose
	// forward fills slow's ring raises the edge; the tight control cadence only
	// makes release prompt, so the run sees many edges.
	e := New(Config{RingSize: 128, BatchSize: 8, WeightPeriod: 0,
		BackpressurePeriod: 50 * time.Microsecond})
	fast := e.AddStage("fast", 1024, func(p *Packet) {})
	slow := e.AddStage("slow", 1024, func(p *Packet) { spin(200 * time.Microsecond) })
	ch, _ := e.AddChain(fast, slow)
	e.MapFlow(0, ch)
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)
	// offer yields while the lane is full, so on a single-CPU box
	// (GOMAXPROCS=1, -race) the producer cannot starve the control loop. There
	// the planes take turns in a fixed order, and a run can go many throttle
	// cycles with the mover's one lane drain per cycle always finding the gate
	// just reopened: flood on, boundedly, until a drain has met it closed.
	end := time.Now().Add(400 * time.Millisecond)
	limit := end.Add(3 * time.Second)
	for now := time.Now(); now.Before(end) || (e.EntryDrops.Load() == 0 && now.Before(limit)); now = time.Now() {
		offer(h, &Packet{FlowID: 0})
	}
	if e.EntryDrops.Load() == 0 {
		t.Fatalf("overloaded chain never shed at entry: ledger %+v", e.LedgerSnapshot())
	}
	// Wasted work should be bounded: the fast stage must not have
	// processed vastly more than the slow one. The rings between them hold
	// two rings' worth; beyond that, what each edge can still waste is the
	// rest of the grant whose forward crossed HIGH (the yield is honoured at
	// the next grant) — a fraction of what slow processes between two edges,
	// however long the flood ran. Without backpressure the fast stage processes
	// everything offered, hundreds of times slow's count.
	st := e.Stats()
	if st[0].Processed > st[1].Processed+2*128+st[1].Processed/2 {
		t.Fatalf("wasted work: fast=%d slow=%d", st[0].Processed, st[1].Processed)
	}
}

func TestThrottleClears(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	e := New(Config{RingSize: 128, BatchSize: 8, WeightPeriod: 0})
	// One bottleneck at the entry; the tail behind it never queues.
	slow := e.AddStage("slow", 1024, func(p *Packet) { spin(50 * time.Microsecond) })
	tail := e.AddStage("tail", 1024, func(p *Packet) {})
	ch, _ := e.AddChain(slow, tail)
	e.MapFlow(0, ch)
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)
	// Flood: on a single CPU the engine may set AND clear the throttle
	// within one of its own timeslices, so assert on the event counter
	// rather than polling the instantaneous state.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) && e.ThrottleEvents.Load() == 0 {
		offer(h, &Packet{FlowID: 0})
	}
	if e.ThrottleEvents.Load() == 0 {
		t.Fatal("never throttled under flood")
	}
	// Stop injecting; the queue drains and the throttle clears.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && e.Throttled(ch) {
		time.Sleep(time.Millisecond)
	}
	if e.Throttled(ch) {
		t.Fatal("throttle never cleared after drain")
	}
	// Every release is journaled against the stage whose machine held the
	// claim — the bottleneck that raised it — not whichever queue happened
	// to be deepest when the chain cleared. Which stage that is belongs to the
	// host: detection at enqueue sees every crossing, and tail's ring crosses
	// too when the host holds tail's grants back while slow keeps forwarding
	// into it. So pair
	// the edges instead of naming a stage; the engine is still running, so a
	// last bp_on may not have its bp_off yet.
	edges := e.Decisions().Filter(0, func(d Decision) bool {
		return d.Kind == DecisionBPOn || d.Kind == DecisionBPOff
	})
	if len(edges) < 2 {
		t.Fatalf("journal holds %d backpressure edges, want an on/off pair", len(edges))
	}
	for i, d := range edges {
		if d.Chain != ch {
			t.Fatalf("edge %d = %v names chain %d, want %d", i, d.Kind, d.Chain, ch)
		}
		if i%2 == 0 {
			if d.Kind != DecisionBPOn || d.QueueDepth < d.HighWater {
				t.Fatalf("edge %d = %v stage %q depth %d, want a bp_on at or over %d",
					i, d.Kind, d.Stage, d.QueueDepth, d.HighWater)
			}
			continue
		}
		if on := edges[i-1]; d.Kind != DecisionBPOff || d.Stage != on.Stage {
			t.Fatalf("edge %d = %v stage %q, want the bp_off of stage %q's bp_on",
				i, d.Kind, d.Stage, on.Stage)
		}
	}
}

// TestInjectAccountingReconciles audits drop accounting across every path a
// packet can take once a lane accepted it: shed at entry (throttle), dropped
// at the full entry ring, dropped mid-chain (forward), or delivered. For a
// single chain a→b the counters must reconcile exactly once the pipeline
// quiesces:
//
//	offered            == arrivals(a)
//	offered - Injected == EntryDrops + drops(a)
//	Injected           == Delivered + drops(b)
//	processed(a)       == arrivals(b) == processed(b) + drops(b)
//	processed(b)       == Delivered
//	wasted(a)          == drops(b),  wasted(b) == 0
func TestInjectAccountingReconciles(t *testing.T) {
	// Tiny rings and a slow second stage force every drop path.
	e := New(Config{RingSize: 32, BatchSize: 8, WeightPeriod: 0})
	a := e.AddStage("a", 1024, func(p *Packet) {})
	bID := e.AddStage("b", 1024, func(p *Packet) { spin(2 * time.Microsecond) })
	ch, err := e.AddChain(a, bID)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)
	e.SetSink(e.PutPacketBatch)
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	offered := 0
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		p := e.GetPacket()
		p.FlowID = 0
		p.Size = 64
		offer(h, p)
		offered++
	}
	// Quiesce: every offered packet must end up shed, dropped or delivered.
	settle(t, e, offered)

	stats := func(name string) StageStats {
		for _, s := range e.Stats() {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("stage %s missing", name)
		return StageStats{}
	}
	sa, sb := stats("a"), stats("b")
	accepted := e.Injected.Load()
	if got := sa.QueueDrops + e.EntryDrops.Load(); got != uint64(offered)-accepted {
		t.Errorf("EntryDrops+drops(a) = %d, want offered-Injected = %d", got, uint64(offered)-accepted)
	}
	if sa.Arrivals != uint64(offered) {
		t.Errorf("arrivals(a) = %d, want offered = %d", sa.Arrivals, offered)
	}
	if sb.Arrivals != sa.Processed {
		t.Errorf("arrivals(b) = %d, want processed(a) = %d", sb.Arrivals, sa.Processed)
	}
	if sb.Arrivals != sb.Processed+sb.QueueDrops {
		t.Errorf("arrivals(b) = %d, want processed(b)+drops(b) = %d",
			sb.Arrivals, sb.Processed+sb.QueueDrops)
	}
	if sb.Processed != e.Delivered.Load() {
		t.Errorf("processed(b) = %d, want delivered = %d", sb.Processed, e.Delivered.Load())
	}
	if got := e.Delivered.Load() + sb.QueueDrops; got != accepted {
		t.Errorf("delivered+drops(b) = %d, want Injected = %d", got, accepted)
	}
	if sa.Wasted != sb.QueueDrops {
		t.Errorf("wasted(a) = %d, want drops(b) = %d", sa.Wasted, sb.QueueDrops)
	}
	if sb.Wasted != 0 {
		t.Errorf("wasted(b) = %d, want 0: nothing dies downstream of the last stage", sb.Wasted)
	}
	// The interesting paths actually fired; otherwise this test proves
	// nothing. Entry drops need sustained pressure, which a 1-CPU host may
	// not generate.
	if sb.QueueDrops == 0 {
		t.Log("note: no mid-chain drops occurred this run")
	}
}

func TestRunTwicePanics(t *testing.T) {
	e := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Run(ctx) // returns immediately
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	e.Run(ctx)
}

func TestStatsSnapshot(t *testing.T) {
	e := New(Config{})
	e.AddStage("x", 2048, func(*Packet) {})
	st := e.Stats()
	if len(st) != 1 || st[0].Name != "x" || st[0].Weight != 2048 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSetWeightFloor(t *testing.T) {
	e := New(Config{})
	id := e.AddStage("x", 1024, func(*Packet) {})
	e.SetWeight(id, 0)
	if e.Stats()[0].Weight < 2 {
		t.Fatal("weight floor not applied")
	}
}

func TestRunShutsDownCleanly(t *testing.T) {
	// Run must return after cancellation — no deadlocked workers.
	e := New(Config{Cores: 2, RingSize: 64, WeightPeriod: 0})
	a := e.AddStageOn("a", 1024, 0, func(*Packet) {})
	b := e.AddStageOn("b", 1024, 1, func(*Packet) {})
	ch, _ := e.AddChain(a, b)
	e.MapFlow(0, ch)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	h := e.ProducerHandle(0)
	for i := 0; i < 100; i++ {
		offer(h, &Packet{FlowID: 0})
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel: worker deadlock")
	}
}

func TestMultiCoreChainsProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	// A chain spanning two cores: both stages progress and all packets
	// arrive in order of chain position.
	e := New(Config{Cores: 2, RingSize: 256, BatchSize: 8, WeightPeriod: 0})
	a := e.AddStageOn("a", 1024, 0, func(p *Packet) {})
	b := e.AddStageOn("b", 1024, 1, func(p *Packet) {})
	ch, _ := e.AddChain(a, b)
	e.MapFlow(0, ch)
	var got atomic.Int64
	recv := make(chan struct{})
	var once sync.Once
	e.SetSink(func(ps []*Packet) {
		if got.Add(int64(len(ps))) >= 500 {
			once.Do(func() { close(recv) })
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	// Closed loop: cap in-flight packets well below the mid-chain ring's
	// capacity so a burst can't overflow it and drop instead of delivering.
	h := e.ProducerHandle(0)
	for sent := 0; sent < 500; sent++ {
		pace(e, sent, 128)
		offer(h, &Packet{FlowID: 0})
	}
	select {
	case <-recv:
	case <-time.After(10 * time.Second):
		t.Fatalf("cross-core chain delivered only %d/500", got.Load())
	}
	st := e.Stats()
	if st[0].Processed < 500 || st[1].Processed < 500 {
		t.Fatalf("stage progress: %d/%d", st[0].Processed, st[1].Processed)
	}
	cancel()
	<-done
}

func TestAddStageOnValidatesCore(t *testing.T) {
	e := New(Config{Cores: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range core accepted")
		}
	}()
	e.AddStageOn("x", 1024, 5, func(*Packet) {})
}

func TestLatencyStats(t *testing.T) {
	e := New(Config{RingSize: 64, WeightPeriod: 0})
	a := e.AddStage("a", 1024, func(p *Packet) { spin(100 * time.Microsecond) })
	ch, _ := e.AddChain(a)
	e.MapFlow(0, ch)
	got := make(chan struct{})
	seen := 0
	e.SetSink(func(ps []*Packet) {
		if seen += len(ps); seen == 20 {
			close(got)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	h := e.ProducerHandle(0)
	for i := 0; i < 20; i++ {
		offer(h, &Packet{FlowID: 0})
	}
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	mean, max := e.LatencyStats()
	if mean < 100*time.Microsecond {
		t.Fatalf("mean latency %v below the 100µs handler time", mean)
	}
	if max < mean {
		t.Fatalf("max %v < mean %v", max, mean)
	}
	cancel()
	<-done
}

// TestSinkCapturesDeliveredFrames is the capture use case (see
// examples/capture_pipeline): the sink copies every delivered frame before
// recycling the descriptors, and sees each one exactly once, in order.
func TestSinkCapturesDeliveredFrames(t *testing.T) {
	e := New(Config{RingSize: 64, WeightPeriod: 0, FrameSize: 8})
	a := e.AddStage("a", 1024, func(*Packet) {})
	ch, _ := e.AddChain(a)
	e.MapFlow(0, ch)
	const total = 30
	var captured [][]byte
	seen := make(chan struct{})
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			captured = append(captured, append([]byte(nil), p.Frame...))
		}
		e.PutPacketBatch(ps)
		if len(captured) == total {
			close(seen)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	h := e.ProducerHandle(0)
	for i := 0; i < total; i++ {
		p := e.GetPacket()
		setSeq(p, i)
		offer(h, p)
	}
	select {
	case <-seen:
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	cancel()
	<-done
	for i, fr := range captured {
		if got := int(binary.LittleEndian.Uint64(fr)); got != i {
			t.Fatalf("captured frame %d carries seq %d", i, got)
		}
	}
}

func TestSetSinkAfterRunPanics(t *testing.T) {
	e := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Run(ctx)
	defer func() {
		if recover() == nil {
			t.Fatal("SetSink after Run did not panic")
		}
	}()
	e.SetSink(func([]*Packet) {})
}

package dataplane

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nfvnice/internal/telemetry"
)

// reconcile returns the two sides of the full-run accounting invariant:
// accepted packets vs every accounted fate. Entry-stage ring drops are
// excluded — those happen before acceptance (the lane drain recycles the
// packet without incrementing Injected); only mid-chain ring drops consume
// an accepted packet.
func reconcile(e *Engine) (injected, accounted uint64) {
	entry := make(map[int]bool)
	for _, ch := range e.chains {
		entry[ch[0]] = true
	}
	var midDrops uint64
	for i, s := range e.stages {
		if !entry[i] {
			midDrops += s.drops.Load()
		}
	}
	return e.Injected.Load(), e.Delivered.Load() +
		midDrops + e.NFDrops.Load() + e.FaultDrops.Load() + e.ShutdownDrops.Load()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPanicIsolationAndRestart is the headline demo scenario: one stage of
// a 3-stage chain panics every Nth packet. The process survives, the stage
// restarts with backoff, fail-closed drops are charged at chain entry, the
// accounting reconciles after Run returns, and the event log shows the
// fault/restart/recovery timeline.
func TestPanicIsolationAndRestart(t *testing.T) {
	e := New(Config{
		RingSize:       256,
		BatchSize:      16,
		RestartBackoff: time.Millisecond,
		MaxRestarts:    -1, // unlimited: the fault keeps firing
	})
	events := telemetry.NewEventLog(4096)
	e.SetEventLog(events)

	// The fault period must exceed the probation window (probationGrants
	// grants × BatchSize packets), or the stage can never re-earn Healthy.
	var calls atomic.Uint64
	a := e.AddStage("ingress", 1024, func(p *Packet) {})
	b := e.AddStage("flaky", 1024, func(p *Packet) {
		if calls.Add(1)%600 == 0 {
			panic("injected crash")
		}
	})
	c := e.AddStage("egress", 1024, func(p *Packet) {})
	chain, _ := e.AddChain(a, b, c)
	e.MapFlow(0, chain)
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
	})

	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		// Keep driving until every asserted-on counter has fired: a
		// fail-closed entry drop needs a lane drain to land inside a
		// restart window, which fast restarts can make narrow.
		if e.Stats()[1].Restarts >= 3 && e.Delivered.Load() > 1000 &&
			e.FaultEntryDrops.Load() > 0 {
			break
		}
		offer(h, &Packet{FlowID: 0})
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
	}

	st := e.Stats()
	if st[1].FaultDrops == 0 {
		t.Error("panicking stage charged no fault drops")
	}
	if st[1].Restarts == 0 {
		t.Error("stage never restarted")
	}
	if e.Delivered.Load() == 0 {
		t.Error("nothing delivered despite restarts")
	}
	if e.FaultEntryDrops.Load() == 0 {
		t.Error("fail-closed chain charged no entry drops while its stage was down")
	}
	if inj, acc := reconcile(e); inj != acc {
		t.Errorf("accounting does not reconcile after Run: injected=%d accounted=%d", inj, acc)
	}

	var sawFault, sawRestart, sawRecovered bool
	for _, ev := range events.Events() {
		switch ev.Type {
		case "stage_fault":
			sawFault = true
		case "stage_restart":
			sawRestart = true
		case "stage_health":
			for _, f := range ev.Fields {
				if f.Key == "state" && f.Value == "healthy" {
					sawRecovered = true
				}
			}
		}
	}
	if !sawFault || !sawRestart || !sawRecovered {
		t.Errorf("event timeline incomplete: fault=%v restart=%v recovered=%v",
			sawFault, sawRestart, sawRecovered)
	}

	// /healthz surface: every stage reports first (in stage-id order), the
	// flaky stage's history shows its restarts, and the TX shards append
	// rows carrying their drain telemetry.
	snap := e.HealthSnapshot()
	if len(snap) < 3 {
		t.Fatalf("HealthSnapshot returned %d components, want >= 3 stages", len(snap))
	}
	if snap[1].Restarts == 0 {
		t.Error("HealthSnapshot shows no restarts for the flaky stage")
	}
	var moverRows int
	for _, c := range snap[3:] {
		if !strings.HasPrefix(c.Component, "mover/") {
			t.Errorf("unexpected non-mover component %q after the stage rows", c.Component)
			continue
		}
		moverRows++
		if c.Detail == nil {
			t.Errorf("%s row has no detail map", c.Component)
		} else if c.Detail["sweeps"] == 0 {
			t.Errorf("%s reports zero sweeps after a full run", c.Component)
		}
	}
	if moverRows == 0 {
		t.Error("HealthSnapshot has no mover rows")
	}
}

// TestWedgedHandlerDetached is the stall-watchdog regression test: a
// handler that blocks forever is detached and marked Failed within the
// grant deadline, sibling stages keep processing, and Run still returns.
func TestWedgedHandlerDetached(t *testing.T) {
	e := New(Config{
		RingSize:       64,
		BatchSize:      8,
		GrantTimeout:   20 * time.Millisecond,
		DrainTimeout:   50 * time.Millisecond,
		RestartBackoff: time.Millisecond,
		MaxRestarts:    1, // one restart, then the circuit opens
	})
	unblock := make(chan struct{})
	wedged := e.AddStage("wedged", 1024, func(p *Packet) { <-unblock })
	healthy := e.AddStage("healthy", 1024, func(p *Packet) {})
	cw, _ := e.AddChain(wedged)
	ch, _ := e.AddChain(healthy)
	e.MapFlow(0, cw)
	e.MapFlow(1, ch)
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
	})

	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	defer close(unblock)

	// Feed the wedge packets until it re-fails past its restart budget and
	// the circuit opens; prove the scheduler survives every detach.
	waitFor(t, 5*time.Second, "wedged stage circuit-open (Failed for good)", func() bool {
		offer(h, &Packet{FlowID: 0})
		st := e.Stats()[wedged]
		return st.Health == Failed && st.Restarts >= 1
	})

	// The same core must still grant the healthy stage.
	before := e.Delivered.Load()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && e.Delivered.Load() < before+100 {
		offer(h, &Packet{FlowID: 1})
	}
	if got := e.Delivered.Load(); got < before+100 {
		t.Fatalf("healthy stage starved after sibling wedged: delivered %d", got-before)
	}
	if e.Stats()[wedged].FaultDrops == 0 {
		t.Error("wedged stage's in-flight packet was not charged to fault drops")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run wedged at shutdown despite the blocked handler")
	}
	if inj, acc := reconcile(e); inj != acc {
		t.Errorf("accounting does not reconcile: injected=%d accounted=%d", inj, acc)
	}
	if e.HealthSnapshot()[wedged].Healthy {
		t.Error("healthz reports the wedged stage healthy")
	}
}

// TestFailOpenBypassesDeadHop: on a FailOpen chain the upstream worker
// forwards around a Failed stage, so delivery continues (minus that hop's
// work).
func TestFailOpenBypassesDeadHop(t *testing.T) {
	e := New(Config{
		RingSize:       256,
		BatchSize:      16,
		GrantTimeout:   20 * time.Millisecond,
		RestartBackoff: time.Millisecond,
		MaxRestarts:    2,
	})
	var midRuns atomic.Uint64
	a := e.AddStage("first", 1024, func(p *Packet) {})
	b := e.AddStage("dies", 1024, func(p *Packet) {
		midRuns.Add(1)
		panic("dead on arrival")
	})
	c := e.AddStage("last", 1024, func(p *Packet) {})
	chain, _ := e.AddChain(a, b, c)
	e.SetChainPolicy(chain, FailOpen)
	e.MapFlow(0, chain)
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	// Pace on the state under test: traffic can get around the dead hop
	// during every restart backoff, so a delivery count says nothing about
	// whether the circuit has opened yet. Offer until the journal shows it,
	// then until 500 more packets were delivered past the dead hop.
	h := e.ProducerHandle(0)
	opened := func() bool {
		return len(e.Decisions().Filter(1, func(d Decision) bool { return d.Kind == DecisionCircuitOpen })) > 0
	}
	feed := func() {
		for i := 0; i < 16; i++ {
			offer(h, &Packet{FlowID: 0})
		}
	}
	waitFor(t, 5*time.Second, "the dead hop's circuit to open", func() bool {
		feed()
		return opened()
	})
	base := e.Delivered.Load()
	waitFor(t, 5*time.Second, "500 deliveries past the open circuit", func() bool {
		feed()
		return e.Delivered.Load() >= base+500
	})
	cancel()
	<-done

	if e.Stats()[b].Health != Failed {
		t.Errorf("middle stage health = %v, want Failed", e.Stats()[b].Health)
	}
	if e.FaultEntryDrops.Load() != 0 {
		t.Errorf("fail-open chain charged %d entry drops", e.FaultEntryDrops.Load())
	}
	if last := e.Stats()[c]; last.Processed == 0 {
		t.Error("downstream stage processed nothing: bypass is not forwarding")
	}
	if inj, acc := reconcile(e); inj != acc {
		t.Errorf("accounting does not reconcile: injected=%d accounted=%d", inj, acc)
	}
}

// TestCircuitBreakerStopsRestarts: with MaxRestarts = N, a stage that
// fails on every grant is restarted at most N times and then left down;
// its queue is drained into FaultDrops instead of stranding packets.
func TestCircuitBreakerStopsRestarts(t *testing.T) {
	e := New(Config{
		RingSize:       256,
		BatchSize:      8,
		RestartBackoff: time.Millisecond,
		MaxRestarts:    2,
	})
	s := e.AddStage("hopeless", 1024, func(p *Packet) { panic("always") })
	chain, _ := e.AddChain(s)
	e.MapFlow(0, chain)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	h := e.ProducerHandle(0)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		offer(h, &Packet{FlowID: 0})
		if st := e.Stats()[s]; st.Health == Failed && st.Restarts >= 2 {
			// Give it a few more backoff periods to prove it stays down.
			time.Sleep(50 * time.Millisecond)
			break
		}
	}
	st := e.Stats()[s]
	if st.Restarts != 2 {
		t.Errorf("restarts = %d, want exactly MaxRestarts = 2", st.Restarts)
	}
	if st.Health != Failed {
		t.Errorf("health = %v, want Failed (circuit open)", st.Health)
	}
	cancel()
	<-done
	if inj, acc := reconcile(e); inj != acc {
		t.Errorf("accounting does not reconcile: injected=%d accounted=%d", inj, acc)
	}
}

// TestDrainOnShutdown: packets sitting in a lane at cancel are routed and
// delivered by the bounded drain rather than dropped, and the invariant
// holds after Run returns.
func TestDrainOnShutdown(t *testing.T) {
	e := New(Config{RingSize: 512, BatchSize: 16, DrainTimeout: time.Second})
	s := e.AddStage("nf", 1024, func(p *Packet) {})
	chain, _ := e.AddChain(s)
	e.MapFlow(0, chain)
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
	})

	// Pre-fill a lane, then run with an already-canceled context: Run
	// goes straight to the drain phase.
	const n = 300
	h := e.ProducerHandle(0)
	for i := 0; i < n; i++ {
		if !h.Inject(&Packet{FlowID: 0}) {
			t.Fatalf("inject %d rejected before Run", i)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Run(ctx)

	if got := e.Delivered.Load(); got != n {
		t.Errorf("drain delivered %d of %d pre-filled packets", got, n)
	}
	if inj, acc := reconcile(e); inj != acc {
		t.Errorf("accounting does not reconcile after Run: injected=%d accounted=%d", inj, acc)
	}
}

// TestInjectAfterRunRejected: once Run has exited — here without ever
// draining — a handle registered before it refuses packets (counting the
// attempts) instead of queueing them behind movers that are gone.
func TestInjectAfterRunRejected(t *testing.T) {
	e := New(Config{RingSize: 64, BatchSize: 8, DrainTimeout: -1})
	s := e.AddStage("nf", 1024, func(p *Packet) {})
	chain, _ := e.AddChain(s)
	e.MapFlow(0, chain)
	h := e.ProducerHandle(0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Run(ctx)

	if h.Inject(&Packet{FlowID: 0}) {
		t.Error("Inject accepted a packet after Run exited")
	}
	batch := []*Packet{{FlowID: 0}, {FlowID: 0}, {FlowID: 0}}
	if got := h.InjectBatch(batch); got != 0 {
		t.Errorf("InjectBatch accepted %d packets after Run exited", got)
	}
	if got := e.LateDrops.Load(); got != 4 {
		t.Errorf("LateDrops = %d, want 4", got)
	}
	if inj, acc := reconcile(e); inj != acc {
		t.Errorf("accounting does not reconcile: injected=%d accounted=%d", inj, acc)
	}
}

// TestDebugPoolDoublePut: with Config.DebugPool set, returning the same
// descriptor twice panics instead of silently corrupting the freelist.
func TestDebugPoolDoublePut(t *testing.T) {
	e := New(Config{RingSize: 64, BatchSize: 8, DebugPool: true})
	p := e.GetPacket()
	e.PutPacket(p)
	defer func() {
		if recover() == nil {
			t.Error("double PutPacket did not panic with DebugPool enabled")
		}
	}()
	e.PutPacket(p)
}

// TestDebugPoolUseAfterRecycle: a handler that stashes a packet pointer
// and touches it after the engine recycled it is caught by the stage-side
// check, which names the offending stage. The panic surfaces through the
// supervision layer as a stage fault, so the engine survives it.
func TestDebugPoolUseAfterRecycle(t *testing.T) {
	e := New(Config{
		RingSize:     64,
		BatchSize:    8,
		DebugPool:    true,
		MaxRestarts:  0,
		DrainTimeout: 50 * time.Millisecond,
	})
	events := telemetry.NewEventLog(256)
	e.SetEventLog(events)
	s := e.AddStage("hoarder", 1024, func(p *Packet) {})
	chain, _ := e.AddChain(s)
	e.MapFlow(0, chain)
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	// The bug under test: a producer returns a descriptor to the pool but
	// keeps the pointer, then injects it again without GetPacket. The
	// stage-side check must flag the stale descriptor, naming the stage.
	stale := e.GetPacket()
	e.PutPacket(stale)
	stale.FlowID = 0
	offer(e.ProducerHandle(0), stale)
	waitFor(t, 2*time.Second, "use-after-recycle flagged as stage fault", func() bool {
		for _, ev := range events.Events() {
			if ev.Type == "stage_fault" {
				for _, f := range ev.Fields {
					if f.Key == "msg" {
						if msg, ok := f.Value.(string); ok &&
							contains(msg, "hoarder") && contains(msg, "recycled") {
							return true
						}
					}
				}
			}
		}
		return false
	})
	cancel()
	<-done
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestGrantTimerReuse: the grant deadline must not disturb plain healthy
// scheduling. Across thousands of grants the control goroutine's watchdog
// reads the core's grant stamp every tick and races the loop's end-of-grant
// CAS, and it must never take a grant from a loop that is making progress.
func TestGrantTimerReuse(t *testing.T) {
	// The deadline must comfortably exceed worst-case scheduling latency
	// (single-CPU -race runs: a core loop descheduled mid-grant keeps its
	// stamp running), or healthy stages detach spuriously.
	e := New(Config{RingSize: 512, BatchSize: 16, GrantTimeout: 50 * time.Millisecond})
	s := e.AddStage("nf", 1024, func(p *Packet) {})
	chain, _ := e.AddChain(s)
	e.MapFlow(0, chain)
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	h := e.ProducerHandle(0)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && e.Delivered.Load() < 10000 {
		offer(h, e.GetPacket())
	}
	cancel()
	<-done
	if e.Delivered.Load() < 10000 {
		t.Errorf("throughput collapsed under grant deadlines: %d delivered", e.Delivered.Load())
	}
	if e.FaultDrops.Load() != 0 || e.Stats()[0].Restarts != 0 {
		t.Errorf("healthy stage tripped the watchdog: faultDrops=%d restarts=%d",
			e.FaultDrops.Load(), e.Stats()[0].Restarts)
	}
}

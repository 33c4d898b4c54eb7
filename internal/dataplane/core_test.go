package dataplane

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The core loop: the grant watchdog on the control goroutine and the idle
// core's park and wake.

// sinkAll recycles every delivered packet.
func sinkAll(e *Engine) {
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
	})
}

// TestWatchdogBoundsWedgedDrain: a handler that wedges during the shutdown
// drain is detached by the watchdog, which keeps running until every core
// loop has returned, so Run returns within DrainTimeout + GrantTimeout and
// the ledger closes; the wedged loop, released later, publishes nothing.
func TestWatchdogBoundsWedgedDrain(t *testing.T) {
	const grantTimeout, drainTimeout = 20 * time.Millisecond, 100 * time.Millisecond
	e := New(Config{RingSize: 64, BatchSize: 8, GrantTimeout: grantTimeout,
		DrainTimeout: drainTimeout, RestartBackoff: time.Millisecond, MaxRestarts: 1})
	release := make(chan struct{})
	var once sync.Once
	unwedge := func() { once.Do(func() { close(release) }) }
	defer unwedge()
	s := e.AddStage("wedge", 1024, func(*Packet) { <-release })
	ch, _ := e.AddChain(s)
	e.MapFlow(0, ch)
	sinkAll(e)
	h := e.ProducerHandle(0)
	for i := 0; i < 32; i++ {
		if !h.Inject(e.GetPacket()) {
			t.Fatalf("lane refused packet %d before Run", i)
		}
	}
	// Canceled before Run: every grant happens in the drain.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	start := time.Now()
	go func() { e.Run(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout + grantTimeout + 2*time.Second):
		t.Fatal("Run did not return with a handler wedged in the drain")
	}
	elapsed := time.Since(start)
	if l := e.LedgerSnapshot(); l.Residual() != 0 || l.FaultDrops == 0 {
		t.Fatalf("ledger after Run: %+v (residual %d), want fault drops and residual 0", l, l.Residual())
	}
	if elapsed > drainTimeout+grantTimeout+500*time.Millisecond {
		t.Errorf("Run took %v with DrainTimeout %v and GrantTimeout %v", elapsed, drainTimeout, grantTimeout)
	}
	unwedge()
	waitFor(t, 5*time.Second, "the detached loops to return", func() bool { return e.detached.Load() == 0 })
	st := e.stages[s]
	if l := e.LedgerSnapshot(); l.Residual() != 0 || st.rx.Len()+st.tx.Len() != 0 {
		t.Fatalf("a released detached loop published: ledger %+v, rx %d, tx %d", l, st.rx.Len(), st.tx.Len())
	}
}

// TestWatchdogDetachedLoopForwardsNothing is TestGrantForwardsNothingUnclaimed's
// invariant on a running core: the handler of a detached grant returns only
// after the replacement loop has granted a sibling stage many times, and
// then forwards nothing, writes no scheduler state (the race detector
// watches pass and okGrants) and exits.
func TestWatchdogDetachedLoopForwardsNothing(t *testing.T) {
	e := New(Config{RingSize: 64, BatchSize: 8, GrantTimeout: 20 * time.Millisecond,
		RestartBackoff: time.Millisecond})
	release := make(chan struct{})
	var calls atomic.Int32
	stuck := e.AddStage("stuck", 1024, func(*Packet) {
		if calls.Add(1) == 1 {
			<-release
		}
	})
	after := e.AddStage("after", 1024, func(*Packet) {})
	sibling := e.AddStage("sibling", 1024, func(*Packet) {})
	cs, _ := e.AddChain(stuck, after)
	cb, _ := e.AddChain(sibling)
	e.MapFlow(0, cs)
	e.MapFlow(1, cb)
	sinkAll(e)
	// One chunk, in the lane before Run so the mover moves it whole: the
	// restarted stage finds nothing left to run.
	h := e.ProducerHandle(0)
	for i := 0; i < 8; i++ {
		p := e.GetPacket()
		p.FlowID = 0
		offer(h, p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	defer func() {
		cancel()
		<-done
	}()
	waitFor(t, 5*time.Second, "the stuck grant to be detached", func() bool { return e.detached.Load() == 1 })
	base := e.Delivered.Load()
	waitFor(t, 5*time.Second, "the replacement loop to grant the sibling", func() bool {
		for i := 0; i < 8; i++ {
			p := e.GetPacket()
			p.FlowID = 1
			offer(h, p)
		}
		return e.Delivered.Load() >= base+200
	})
	close(release)
	waitFor(t, 5*time.Second, "the detached loop to return", func() bool { return e.detached.Load() == 0 })
	a := e.stages[after]
	if n := a.arrivals.Load(); n != 0 || a.rx.Len() != 0 || e.stages[stuck].tx.Len() != 0 {
		t.Fatalf("the detached loop forwarded: after arrivals %d rx %d, stuck tx %d",
			n, a.rx.Len(), e.stages[stuck].tx.Len())
	}
	if got := e.stages[stuck].faultDrops.Load(); got != 8 {
		t.Fatalf("stuck stage fault drops %d, want its 8-packet chunk", got)
	}
	cancel()
	<-done
	if l := e.LedgerSnapshot(); l.Residual() != 0 {
		t.Fatalf("ledger residual %d: %+v", l.Residual(), l)
	}
}

// TestCoreWakeIdleBackstop: an idle engine's cores park and leave the park
// no more often than the backstop timeout allows (nothing else wakes them).
func TestCoreWakeIdleBackstop(t *testing.T) {
	e := New(Config{Cores: 2})
	for core := 0; core < 2; core++ {
		s := e.AddStageOn("s", 1024, core, func(*Packet) {})
		ch, _ := e.AddChain(s)
		e.MapFlow(core, ch)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	defer func() {
		cancel()
		<-done
	}()
	waitFor(t, 5*time.Second, "both cores to park", func() bool {
		return e.cores[0].parks.Load() > 0 && e.cores[1].parks.Load() > 0
	})
	const window = 100 * time.Millisecond
	var before [2]uint64
	for i, c := range e.cores {
		before[i] = c.parks.Load()
	}
	start := time.Now()
	time.Sleep(window)
	elapsed := time.Since(start)
	// A park ends early only on a token, and there are none.
	limit := uint64(elapsed/coreParkMax) + 2
	for i, c := range e.cores {
		if n := c.parks.Load() - before[i]; n == 0 || n > limit {
			t.Errorf("core %d parked %d times in %v idle, want 1..%d (one per %v backstop)",
				i, n, elapsed, limit, coreParkMax)
		}
		if w := c.wakes.Load(); w != 0 {
			t.Errorf("core %d got %d wake tokens with no traffic", i, w)
		}
	}
}

// TestCoreWakeOnForward: with two cores, a grant on core 0 forwarding into
// a stage of parked core 1 leaves core 1 a wake token — counted, not timed.
func TestCoreWakeOnForward(t *testing.T) {
	e := New(Config{Cores: 2, RingSize: 64, BatchSize: 8})
	a := e.AddStageOn("a", 1024, 0, func(*Packet) {})
	b := e.AddStageOn("b", 1024, 1, func(*Packet) {})
	c := e.AddStageOn("c", 1024, 0, func(*Packet) {})
	ch, _ := e.AddChain(a, b, c)
	e.MapFlow(0, ch)
	sinkAll(e)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	defer func() {
		cancel()
		<-done
	}()
	h := e.ProducerHandle(0)
	core1 := e.cores[1]
	// Only b's arrivals can wake core 1. A park the core is leaving just as
	// the packet arrives takes no token, so a few attempts are allowed.
	for attempt := 1; attempt <= 20; attempt++ {
		waitFor(t, 5*time.Second, "core 1 to park", func() bool { return core1.state.Load() == parkParked })
		wakes, delivered := core1.wakes.Load(), e.Delivered.Load()
		offer(h, e.GetPacket())
		waitFor(t, 5*time.Second, "the packet to be delivered", func() bool { return e.Delivered.Load() > delivered })
		if core1.wakes.Load() > wakes {
			return
		}
	}
	t.Fatal("forwarding into parked core 1's stage never left it a wake token")
}

package dataplane

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"nfvnice/internal/bp"
	"nfvnice/internal/chain"
	"nfvnice/internal/eventsim"
	"nfvnice/internal/mgr"
	"nfvnice/internal/nf"
	"nfvnice/internal/packet"
	"nfvnice/internal/telemetry"
)

// TestPolicyDifferential is the check that simulator and engine share one
// backpressure policy: the paper's Fig. 8 topology (two chains sharing
// their first and last stage) is built once as a simulated manager and once
// as a live engine, both are shown the same seeded queue-depth random walk
// one control step at a time, and they must throttle the same chains and
// yield the same stages at every step.
func TestPolicyDifferential(t *testing.T) {
	const (
		ringSize = 64
		steps    = 4000
	)
	topology := [][]int{{0, 1, 3}, {0, 2, 3}}
	const stages = 4

	// Simulator half. The NFs are not pinned to a core, so they never run
	// and the rings hold exactly what the walk puts in them.
	sim := eventsim.New()
	pool := packet.NewPool(stages * ringSize)
	reg := chain.NewRegistry()
	mp := mgr.DefaultParams(mgr.FeatureBackpressureOnly())
	mp.BP = bp.Params{QueueTimeThreshold: 0} // the engine's setting
	m := mgr.New(sim, pool, reg, mp)
	np := nf.DefaultParams()
	np.RingSize = ringSize
	for i := 0; i < stages; i++ {
		m.AddNF(nf.New(i, "nf", nf.FixedCost(1), np, int64(i+1)))
	}
	for _, c := range topology {
		reg.MustAdd("chain", c...)
	}
	m.GrowChains(reg.Len())
	m.Start()

	// Engine half, never Run: the test is its control loop.
	e := New(Config{RingSize: ringSize, HighFrac: np.HighFrac, LowFrac: np.LowFrac})
	for i := 0; i < stages; i++ {
		e.AddStage("nf", 1024, func(*Packet) {})
	}
	for _, c := range topology {
		if _, err := e.AddChain(c...); err != nil {
			t.Fatal(err)
		}
	}
	e.initControl()
	if h, l := m.NF(0).Rx.HighWater(), m.NF(0).Rx.LowWater(); h != e.highWater || l != e.lowWater {
		t.Fatalf("watermarks differ: simulator %d/%d, engine %d/%d", h, l, e.highWater, e.lowWater)
	}

	rng := rand.New(rand.NewSource(8))
	depth := make([]int, stages)
	throttledSteps := make([]int, stages)
	var selective, sharedYields int
	for step := 0; step < steps; step++ {
		for i := range depth {
			d := depth[i] + rng.Intn(25) - 12
			depth[i] = min(max(d, 0), ringSize-1)
			rx := m.NF(i).Rx
			for rx.Len() < depth[i] {
				rx.Enqueue(sim.Now(), pool.Get())
			}
			for rx.Len() > depth[i] {
				rx.Dequeue(sim.Now()).Release()
			}
			erx := e.stages[i].rx
			for erx.Len() < depth[i] {
				erx.Enqueue(&Packet{})
			}
			for erx.Len() > depth[i] {
				erx.Dequeue()
			}
		}
		sim.RunUntil(sim.Now() + mp.WakeupInterval) // one wakeupThread pass
		e.updateBackpressure()

		for c := range topology {
			if s, l := m.Throttles.Throttled(c), e.Throttled(c); s != l {
				t.Fatalf("step %d depths %v: chain %d throttled: simulator %v, engine %v", step, depth, c, s, l)
			}
		}
		for i := 0; i < stages; i++ {
			if s, l := m.BPState(i), e.bp.State(i); s != l {
				t.Fatalf("step %d depths %v: stage %d state: simulator %v, engine %v", step, depth, i, s, l)
			}
			if s, l := m.NF(i).YieldFlag, e.stages[i].yield.Load(); s != l {
				t.Fatalf("step %d depths %v: stage %d yield: simulator %v, engine %v", step, depth, i, s, l)
			}
			if m.BPState(i) == bp.PacketThrottle {
				throttledSteps[i]++
			}
		}
		// Fig. 8 selectivity: the shared entry stage must keep serving a
		// chain that is not throttled.
		shared := e.stages[0].yield.Load()
		if shared && !(e.Throttled(0) && e.Throttled(1)) {
			t.Fatalf("step %d depths %v: shared stage yields with chain 0 throttled=%v chain 1 throttled=%v",
				step, depth, e.Throttled(0), e.Throttled(1))
		}
		if e.Throttled(0) != e.Throttled(1) {
			selective++
		}
		if shared {
			sharedYields++
		}
	}
	// The walk must have exercised what the test claims to compare.
	for i, n := range throttledSteps {
		if n == 0 || n == steps {
			t.Errorf("stage %d spent %d of %d steps throttling: the walk never crossed both watermarks there", i, n, steps)
		}
	}
	if selective == 0 || sharedYields == 0 {
		t.Errorf("walk too tame: %d steps with exactly one chain throttled, %d with the shared stage yielding",
			selective, sharedYields)
	}
	if e.ThrottleEvents.Load() == 0 {
		t.Error("engine counted no throttle events")
	}
}

// TestWeightsIgnoreOutlierTick is the row the wall-clock weight test cannot
// express: the cost estimate is the median of the window, so one tick whose
// sample is 50× off (a handler descheduled mid-batch) moves no weight.
func TestWeightsIgnoreOutlierTick(t *testing.T) {
	e := New(Config{RingSize: 64})
	light := e.stages[e.AddStage("light", 1024, func(*Packet) {})]
	heavy := e.stages[e.AddStage("heavy", 1024, func(*Packet) {})]
	e.initControl()
	const period = 10 * time.Millisecond
	now := e.startWall
	tick := func(lightNanos int64) {
		for _, s := range []*stage{light, heavy} {
			s.arrivals.Add(1000)
			s.processed.Add(1000)
		}
		light.busyNanos.Add(1000 * lightNanos)
		heavy.busyNanos.Add(1000 * 400)
		now = now.Add(period)
		e.updateWeights(now, period)
	}
	for i := 0; i < 12; i++ {
		tick(100)
	}
	// Same rate, 1:4 cost: a fifth and four fifths of the scale, give or
	// take the truncation to an integer weight.
	wl, wh := light.weight.Load(), heavy.weight.Load()
	if wl < 2047 || wl > 2048 || wh < 8191 || wh > 8192 {
		t.Fatalf("warmed weights = %d / %d, want 2048 / 8192", wl, wh)
	}
	before := e.Decisions().Total()
	tick(50 * 100)
	if light.weight.Load() != wl || heavy.weight.Load() != wh {
		t.Fatalf("one outlier sample moved the weights: %d / %d -> %d / %d",
			wl, wh, light.weight.Load(), heavy.weight.Load())
	}
	if n := e.Decisions().Total() - before; n != 0 {
		t.Fatalf("outlier tick journaled %d weight decisions", n)
	}
	if got := e.Stats()[0].EstCost; got != 100*time.Nanosecond {
		t.Fatalf("light EstCost = %v after the outlier, want 100ns", got)
	}
}

// fig8Stretched is the Fig. 8 topology — two chains sharing their first and
// last stage — with chain 0's middle stretched to two stages, so that its
// bottleneck (stage 2) has an upstream stage of its own (stage 1) besides the
// shared entry (stage 0).
var fig8Stretched = [][]int{{0, 1, 2, 4}, {0, 3, 4}}

// newEdgeEngine builds fig8Stretched on an engine that is never Run: the
// test is its enqueuers and its control loop, so nothing depends on the clock.
func newEdgeEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{RingSize: 64, BatchSize: 8})
	for i := 0; i < 5; i++ {
		e.AddStage("nf"+string(rune('0'+i)), 1024, func(*Packet) {})
	}
	for _, c := range fig8Stretched {
		if _, err := e.AddChain(c...); err != nil {
			t.Fatal(err)
		}
	}
	e.initControl()
	return e
}

// forward plays stage from's worker at the end of a grant: n packets of the
// chain, done at from, go through the grant's forward in one call.
func forward(e *Engine, from, chain, n int) {
	hop := slices.Index(e.chains[chain], from) + 1
	ps := make([]*Packet, n)
	for i := range ps {
		ps[i] = &Packet{ChainID: chain, Hop: hop}
	}
	e.forward(e.stages[from], ps)
}

func yields(e *Engine) []bool {
	out := make([]bool, len(e.stages))
	for i, s := range e.stages {
		out[i] = s.yield.Load()
	}
	return out
}

// TestEnqueueEdgeUpstreamSets holds the enqueuers' static yield sets to the
// policy they run ahead of: for every stage, what postHigh raises must be
// exactly what the shared controller selects when that stage alone throttles.
func TestEnqueueEdgeUpstreamSets(t *testing.T) {
	e := newEdgeEngine(t)
	for _, dst := range e.stages {
		c := bp.NewController(bp.Params{}, len(e.stages), e.chains, bp.NewChainThrottles())
		obs := make([]bp.Observation, len(e.stages))
		for i := range obs {
			obs[i].BelowLow = true
		}
		obs[dst.id] = bp.Observation{AboveHigh: true}
		c.Step(obs)
		want := make([]bool, len(e.stages))
		got := make([]bool, len(e.stages))
		for i := range e.stages {
			want[i] = c.Yield(i)
		}
		for _, s := range dst.upstream {
			got[s.id] = true
		}
		if !slices.Equal(got, want) {
			t.Errorf("stage %d: upstream set %v, controller yields %v", dst.id, got, want)
		}
	}
}

// TestEnqueueEdgeBeforeControlStep walks one watermark edge through its three
// owners. The forward that puts stage 2 over HIGH posts the depth, makes the
// stage that feeds only stage 2 yield and leaves the shared entry running —
// all before any control step. The step then journals a bp_on carrying the
// enqueue-time depth, closes the gate only once that entry exists and counts
// the event only once the gate is closed; a drain below LOW releases gate and
// yield through the same step.
func TestEnqueueEdgeBeforeControlStep(t *testing.T) {
	e := newEdgeEngine(t)
	bottleneck := e.stages[2]
	log := telemetry.NewEventLog(0)
	e.SetEventLog(log)
	log.AddSink(func(ev telemetry.Event) {
		// Emitted from record, after the journal append.
		if ev.Type != "bp_on" {
			return
		}
		if n := len(e.Decisions().Filter(0, func(d Decision) bool { return d.Kind == DecisionBPOn })); n != 1 {
			t.Errorf("bp_on emitted with %d bp_on entries in the journal, want 1", n)
		}
		if e.Throttled(0) || e.ThrottleEvents.Load() != 0 {
			t.Errorf("gate closed (%v) or event counted (%d) before the journal entry was complete",
				e.Throttled(0), e.ThrottleEvents.Load())
		}
	})

	forward(e, 1, 0, e.highWater-1)
	if got := bottleneck.hot.Load(); got != 0 || len(e.poke) != 0 {
		t.Fatalf("depth %d posted (poke %d) one packet below HIGH", got, len(e.poke))
	}
	forward(e, 1, 0, 5)
	posted := e.highWater + 4
	if got := int(bottleneck.hot.Load()); got != posted {
		t.Fatalf("posted depth %d, want %d", got, posted)
	}
	if got, want := yields(e), []bool{false, true, false, false, false}; !slices.Equal(got, want) {
		t.Fatalf("yield flags before any control step %v, want %v", got, want)
	}
	if len(e.poke) != 1 {
		t.Fatal("forward did not poke the control loop")
	}
	if e.Throttled(0) || e.Decisions().Total() != 0 {
		t.Fatal("forward wrote the gate or the journal")
	}

	// The worker takes a batch before the control goroutine gets to run: the
	// edge must still carry what the forward saw.
	for i := 0; i < 8; i++ {
		bottleneck.rx.Dequeue()
	}
	<-e.poke
	e.updateBackpressure()
	on := e.Decisions().Tail(0)
	if len(on) != 1 || on[0].Kind != DecisionBPOn || on[0].Chain != 0 ||
		on[0].Stage != bottleneck.name || on[0].QueueDepth != posted {
		t.Fatalf("journal after the step %+v, want one bp_on chain 0 stage %s depth %d", on, bottleneck.name, posted)
	}
	if !e.Throttled(0) || e.Throttled(1) || e.ThrottleEvents.Load() != 1 {
		t.Fatalf("gates after the step: chain 0 %v chain 1 %v, %d events", e.Throttled(0), e.Throttled(1), e.ThrottleEvents.Load())
	}
	if got, want := yields(e), []bool{false, true, false, false, false}; !slices.Equal(got, want) {
		t.Fatalf("yield flags after the step %v, want %v", got, want)
	}
	if bottleneck.hot.Load() != 0 {
		t.Fatal("step did not consume the post")
	}

	for bottleneck.rx.Len() >= e.lowWater {
		bottleneck.rx.Dequeue()
	}
	e.updateBackpressure()
	if off := e.Decisions().Tail(0); len(off) != 2 || off[1].Kind != DecisionBPOff || off[1].Stage != bottleneck.name {
		t.Fatalf("journal after the drain %+v, want a bp_off of stage %s", off, bottleneck.name)
	}
	if e.Throttled(0) || slices.Contains(yields(e), true) {
		t.Fatalf("drain below LOW left chain 0 throttled=%v, yields %v", e.Throttled(0), yields(e))
	}
}

// TestEnqueueEdgePostSurvivesStep is the lost-update race, interleaved by
// hand: a forward posts stage 2's crossing while the control goroutine is inside
// a step that has already read stage 2. That step's yield stores undo the
// forward's early yield, but the post and its poke stay pending, so the next
// step — immediate in controlLoop — throttles the chain with the posted depth.
func TestEnqueueEdgePostSurvivesStep(t *testing.T) {
	e := newEdgeEngine(t)
	log := telemetry.NewEventLog(0)
	e.SetEventLog(log)
	posted := e.highWater + 2
	raced := false
	log.AddSink(func(ev telemetry.Event) {
		// Stage 3's bp_on is recorded after every stage was observed and
		// before the yield flags are stored: the window the race needs.
		if ev.Type == "bp_on" && !raced {
			raced = true
			forward(e, 1, 0, posted)
		}
	})

	forward(e, 0, 1, e.highWater)
	<-e.poke
	e.updateBackpressure()
	if !raced || !e.Throttled(1) {
		t.Fatalf("first step: raced=%v chain 1 throttled=%v", raced, e.Throttled(1))
	}
	if e.Throttled(0) {
		t.Fatal("first step throttled chain 0 on a post it had not consumed")
	}
	if got := int(e.stages[2].hot.Load()); got != posted {
		t.Fatalf("post after the racing step = %d, want %d still pending", got, posted)
	}
	select {
	case <-e.poke:
	default:
		t.Fatal("poke lost: the next step would wait for the period")
	}
	// The ring has moved on meanwhile; only the post remembers it.
	for i := 0; i < 8; i++ {
		e.stages[2].rx.Dequeue()
	}
	e.updateBackpressure()
	// Both chains shed now, so the shared entry yields as well: the
	// controller's selection, one no enqueuer's static set could make.
	if got, want := yields(e), []bool{true, true, false, false, false}; !e.Throttled(0) || !slices.Equal(got, want) {
		t.Fatalf("second step: chain 0 throttled=%v, yields %v, want %v", e.Throttled(0), got, want)
	}
	var on Decision
	for _, d := range e.Decisions().Tail(0) {
		if d.Kind == DecisionBPOn && d.Chain == 0 {
			on = d
		}
	}
	if on.QueueDepth != posted {
		t.Fatalf("chain 0 bp_on depth %d, want the posted %d", on.QueueDepth, posted)
	}
}

package dataplane

import (
	"math/rand"
	"testing"
	"time"

	"nfvnice/internal/bp"
	"nfvnice/internal/chain"
	"nfvnice/internal/eventsim"
	"nfvnice/internal/mgr"
	"nfvnice/internal/nf"
	"nfvnice/internal/packet"
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

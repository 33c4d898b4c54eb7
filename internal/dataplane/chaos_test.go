// Chaos soak: seeded faults (panics, stalls, delays, drops) across a
// 3-stage chain, asserting the engine survives, restarts converge, and the
// packet-conservation invariant holds after Run returns. External test
// package because internal/faults imports internal/dataplane.
package dataplane_test

import (
	"context"
	"testing"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/faults"
	"nfvnice/internal/telemetry"
)

// chaosReconcile sums every accounted fate of an accepted packet. Entry
// ring drops are excluded: they happen before acceptance.
func chaosReconcile(e *dataplane.Engine, entryStages map[string]bool) (uint64, uint64) {
	var midDrops uint64
	for _, s := range e.Stats() {
		if !entryStages[s.Name] {
			midDrops += s.QueueDrops
		}
	}
	return e.Injected.Load(), e.Delivered.Load() +
		midDrops + e.NFDrops.Load() + e.FaultDrops.Load() + e.ShutdownDrops.Load()
}

// chaosSoak drives a 3-stage chain under a seeded fault schedule: the
// middle stage panics periodically and stalls past the grant deadline once;
// the first stage injects latency spikes and transient drops. The process
// must survive, the faulty stage must keep being restarted, and accounting
// must balance exactly when the dust settles. movers selects the TX-path
// shard count so supervision and conservation are soaked on both the
// serial and the sharded mover; sampleShift > 0 additionally arms the span
// recorder so the flight recorder is soaked against crashes, stalls, and
// drops (spans attached to killed packets must abort, not leak).
func chaosSoak(t *testing.T, movers, sampleShift int) {
	if testing.Short() {
		t.Skip("soak test")
	}
	e := dataplane.New(dataplane.Config{
		RingSize:         256,
		BatchSize:        16,
		Movers:           movers,
		GrantTimeout:     50 * time.Millisecond,
		DrainTimeout:     time.Second,
		RestartBackoff:   time.Millisecond,
		MaxRestarts:      -1, // faults keep firing; restarts must keep coming
		JitterSeed:       7,
		TraceSampleShift: sampleShift,
	})
	events := telemetry.NewEventLog(8192)
	e.SetEventLog(events)

	injFront := faults.New(11,
		faults.DelayOn(faults.Prob(0.002), 200*time.Microsecond),
		faults.DropOn(faults.Prob(0.01)),
	)
	injMid := faults.New(23,
		faults.PanicOn(faults.EveryNth(503), "chaos: injected panic"),
		faults.StallOn(faults.OnceAt(2000), 120*time.Millisecond),
	)
	defer injFront.Release()
	defer injMid.Release()

	a := e.AddStage("front", 1024, faults.Wrap(injFront, func(p *dataplane.Packet) {}))
	b := e.AddStage("mid", 1024, faults.Wrap(injMid, func(p *dataplane.Packet) {}))
	c := e.AddStage("back", 1024, func(p *dataplane.Packet) {})
	chain, err := e.AddChain(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, chain)
	e.SetSink(func(ps []*dataplane.Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
	})

	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		st := e.Stats()
		if st[b].Restarts >= 5 && st[b].Health == dataplane.Healthy &&
			e.Delivered.Load() > 5000 {
			break
		}
		p := e.GetPacket()
		p.FlowID = 0
		dataplane.Offer(h, p)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after chaos soak")
	}

	st := e.Stats()
	if st[b].Restarts == 0 {
		t.Error("faulty stage never restarted")
	}
	if st[b].FaultDrops == 0 {
		t.Error("no fault drops charged despite periodic panics")
	}
	if e.Delivered.Load() == 0 {
		t.Error("nothing delivered under chaos")
	}
	if inj, acc := chaosReconcile(e, map[string]bool{"front": true}); inj != acc {
		t.Errorf("conservation violated: injected=%d accounted=%d (delivered=%d nf=%d fault=%d shutdown=%d)",
			inj, acc, e.Delivered.Load(), e.NFDrops.Load(), e.FaultDrops.Load(),
			e.ShutdownDrops.Load())
	}
	// Restarts must converge: the stage ends the run schedulable (it was
	// restarted after its last fault), or mid-probation.
	if h := st[b].Health; h == dataplane.Failed {
		// Legal only if the run ended inside a backoff window; the stage
		// must at least have been restarted several times before that.
		if st[b].Restarts < 2 {
			t.Errorf("stage stuck Failed after only %d restarts", st[b].Restarts)
		}
	}
	var restarts int
	for _, ev := range events.Events() {
		if ev.Type == "stage_restart" {
			restarts++
		}
	}
	if restarts == 0 {
		t.Error("event log shows no restarts")
	}
	if sampleShift > 0 {
		// Span accounting must close even though faults killed packets at
		// every lifecycle point: every sampled span was either completed at
		// delivery or aborted when its packet died.
		ss := e.SpanStats()
		if ss.Sampled == 0 {
			t.Error("sampling armed but no spans sampled")
		}
		if ss.Sampled != ss.Completed+ss.Aborted {
			t.Errorf("span accounting open after chaos: %+v", ss)
		}
		t.Logf("chaos spans: %+v", ss)
	}
	t.Logf("chaos: injected=%d delivered=%d restarts=%d faultDrops=%d nfDrops=%d shutdownDrops=%d",
		e.Injected.Load(), e.Delivered.Load(), st[b].Restarts, e.FaultDrops.Load(),
		e.NFDrops.Load(), e.ShutdownDrops.Load())
}

// TestChaosSoak soaks the serial TX path (one mover).
func TestChaosSoak(t *testing.T) { chaosSoak(t, 1, 0) }

// TestChaosSoakMovers2 soaks the sharded TX path: two movers own disjoint
// halves of the stages' tx rings while faults crash and stall stages, so
// conservation and supervision are certified against concurrent movers
// (CI runs this under -race).
func TestChaosSoakMovers2(t *testing.T) { chaosSoak(t, 2, 0) }

// TestChaosSoakSampled soaks the sharded TX path with the flight recorder
// armed at 1-in-16 sampling: spans ride packets through panics, stalls,
// drops, and restarts, and the Sampled == Completed + Aborted invariant
// must close when the dust settles (CI runs this under -race).
func TestChaosSoakSampled(t *testing.T) { chaosSoak(t, 2, 4) }

// TestChaosSeededReplay runs the same short chaos scenario twice with
// identical seeds and checks the fault injectors evaluated identical
// schedules — the reproducibility contract that makes chaos failures
// debuggable.
func TestChaosSeededReplay(t *testing.T) {
	plan := func() []faults.Event {
		in := faults.New(99,
			faults.PanicOn(faults.EveryNth(251), "boom"),
			faults.DropOn(faults.Prob(0.03)),
		)
		return in.Plan(5000)
	}
	a, b := plan(), plan()
	if len(a) == 0 {
		t.Fatal("empty fault plan")
	}
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

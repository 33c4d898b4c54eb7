// Dataplane live: the real (non-simulated) goroutine runtime. Two service
// chains of Go handler functions share the cooperative weighted scheduler;
// the rate-cost controller measures actual handler nanoseconds and
// re-weights every 10 ms, while watermark backpressure sheds an overloaded
// chain at its entry.
//
// Run:
//
//	go run ./examples/dataplane_live
//	go run ./examples/dataplane_live -listen :9090   # scrape /metrics live
//	go run ./examples/dataplane_live -listen :9090 -sample 6 \
//	    -trace spans.json        # flight recorder: 1-in-64 packet spans
//
// With -listen set, point cmd/nfvtop at the same address for a live
// dashboard, and query /debug/decisions for the control plane's decision
// journal.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/obs"
	"nfvnice/internal/telemetry"
)

// work simulates payload processing by hashing a buffer n times.
func work(n int) dataplane.Handler {
	buf := make([]byte, 256)
	return func(p *dataplane.Packet) {
		for i := 0; i < n; i++ {
			h := fnv.New64a()
			h.Write(buf)
			_ = h.Sum64()
		}
	}
}

func main() {
	listen := flag.String("listen", "", "serve /metrics, /snapshot, /events and pprof on this address (e.g. :9090) and keep the pipeline running until interrupted")
	sample := flag.Int("sample", 0, "flight recorder: sample 1-in-2^N packets as spans (0 = off)")
	trace := flag.String("trace", "", "write sampled spans as a Chrome trace (chrome://tracing, Perfetto) to this file; requires -sample")
	flag.Parse()

	cfg := dataplane.DefaultConfig()
	cfg.TraceSampleShift = *sample
	e := dataplane.New(cfg)

	light := e.AddStage("light-fw", 1024, work(5))
	heavy := e.AddStage("heavy-dpi", 1024, work(50))

	chLight, _ := e.AddChain(light)
	chHeavy, _ := e.AddChain(heavy)
	e.MapFlow(0, chLight)
	e.MapFlow(1, chHeavy)

	// Telemetry: every stage counter/gauge is an atomic the scraper reads
	// while the pipeline runs.
	reg := telemetry.NewRegistry()
	events := telemetry.NewEventLog(0)
	e.RegisterMetrics(reg)
	e.SetEventLog(events)

	// Flight recorder: stream sampled packet spans into a Chrome trace.
	if *trace != "" {
		if *sample == 0 {
			fmt.Fprintln(os.Stderr, "dataplane_live: -trace requires -sample > 0")
			os.Exit(1)
		}
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dataplane_live:", err)
			os.Exit(1)
		}
		cw := obs.NewChromeWriter(f).SetUnit(obs.UnitNanos)
		e.SetSpanSink(e.SpanTraceSink(cw))
		defer func() {
			cw.Close()
			f.Close()
			fmt.Printf("flight recorder: %d trace events -> %s (open in chrome://tracing or Perfetto)\n", cw.Len(), *trace)
		}()
	}

	var ctx context.Context
	var cancel context.CancelFunc
	if *listen != "" {
		mux := telemetry.NewMux(reg, events)
		// A failing probe carries the recent control-plane decisions that
		// explain it; /debug/decisions serves the full queryable journal.
		telemetry.AddHealthzDetail(mux, e.HealthSnapshot, func() any {
			if j := e.Decisions(); j != nil {
				return j.Tail(16)
			}
			return nil
		})
		e.AddDebugEndpoints(mux)
		srv, err := telemetry.StartServerMux(*listen, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dataplane_live:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/metrics (also /snapshot, /events, /healthz, /debug/pprof) — Ctrl-C to exit\n", srv.Addr)
		ctx, cancel = signal.NotifyContext(context.Background(), os.Interrupt)
	} else {
		ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
	}
	defer cancel()
	go e.Run(ctx)

	// Deliver in batches on the mover goroutine and recycle descriptors so
	// the steady state never allocates.
	sinkCache := e.NewPacketCache(256)
	e.SetSink(func(ps []*dataplane.Packet) {
		for _, p := range ps {
			sinkCache.Put(p)
		}
	})

	// Offer equal load to both chains until the context ends, on the
	// batch-amortized hot path: descriptors come from a per-goroutine
	// freelist cache, the producer's lane takes each batch with one ring
	// publish, and the lane's mover routes each same-flow run into its chain
	// entry with one reservation. What the entries shed shows up in the
	// ledger, not in InjectBatch's return value.
	h := e.ProducerHandle(0)
	go func() {
		cache := e.NewPacketCache(256)
		batch := make([]*dataplane.Packet, 8)
		// Flows are assigned by a seeded PRNG rather than a fixed
		// flow-to-batch-position layout: the flight recorder samples every
		// 2^N-th packet, and any periodic layout aliases with that stride
		// (one flow hogging every sample).
		rng := rand.New(rand.NewSource(1))
		for ctx.Err() == nil {
			for i := range batch {
				p := cache.Get()
				p.FlowID = rng.Intn(2)
				p.Size = 64
				batch[i] = p
			}
			// The lane keeps what it accepted; a full lane's tail is ours.
			for _, p := range batch[h.InjectBatch(batch):] {
				cache.Put(p)
			}
			time.Sleep(80 * time.Microsecond)
		}
	}()

	fmt.Println("live dataplane: equal arrivals, 10x cost ratio, auto weights")
	fmt.Printf("%6s  %-10s %10s %8s %12s %10s %8s\n", "t(ms)", "stage", "processed", "weight", "est cost", "drops", "wasted")
	start := time.Now()
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	printed := 0
	for (*listen != "" || printed < 4) && ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case <-tick.C:
			for _, s := range e.Stats() {
				fmt.Printf("%6d  %-10s %10d %8d %12v %10d %8d\n",
					time.Since(start).Milliseconds(), s.Name, s.Processed, s.Weight,
					s.EstCost.Round(time.Nanosecond), s.QueueDrops, s.Wasted)
			}
			printed++
		}
	}
	fmt.Printf("\ninjected=%d delivered=%d entryDrops=%d ringDrops=%d throttleEvents=%d events=%d(dropped %d)\n",
		e.Injected.Load(), e.Delivered.Load(), e.EntryDrops.Load(), e.RingDrops.Load(),
		e.ThrottleEvents.Load(), events.Total(), events.Dropped())
	if *sample > 0 {
		fmt.Printf("spans: %+v\n", e.SpanStats())
	}
	fmt.Println("\nThe controller weights the heavy stage up (~10x) so both chains")
	fmt.Println("drain at similar packet rates despite the cost imbalance.")
}

// Chaos chain: a 3-stage service chain where the middle NF panics on a
// deterministic schedule. The supervisor isolates each crash (the packets in
// the dying worker's hands are charged to FaultDrops, nothing else is lost),
// restarts the stage with exponential backoff, and — because the chain runs
// the default fail-closed policy — sheds new arrivals at the chain entry
// while the hop is down. When the dust settles, packet conservation holds
// exactly:
//
//	injected == delivered + nf + fault + shutdown + output + mid-ring drops
//
// Run:
//
//	go run ./examples/chaos_chain
//	go run ./examples/chaos_chain -listen :9090   # poll /healthz live
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/faults"
	"nfvnice/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "", "serve /metrics, /events and /healthz on this address (e.g. :9090) and run until interrupted")
	seed := flag.Uint64("seed", 42, "fault schedule seed (same seed, same crash timeline)")
	every := flag.Int("every", 400, "middle stage panics every Nth packet it touches")
	flag.Parse()

	e := dataplane.New(dataplane.Config{
		RingSize:       512,
		BatchSize:      16,
		GrantTimeout:   100 * time.Millisecond,
		DrainTimeout:   time.Second,
		RestartBackoff: 2 * time.Millisecond,
		MaxRestarts:    -1, // keep restarting; the demo faults never stop
		JitterSeed:     1,
	})

	// The fault injector is part of the harness, not the handler: the same
	// seed replays the same crash schedule byte for byte.
	inj := faults.New(*seed,
		faults.PanicOn(faults.EveryNth(*every), "chaos_chain: injected NF crash"),
		faults.DelayOn(faults.Prob(0.005), 100*time.Microsecond),
	)
	defer inj.Release()

	classify := e.AddStage("classify", 1024, func(p *dataplane.Packet) {})
	flaky := e.AddStage("flaky-dpi", 1024, faults.Wrap(inj, func(p *dataplane.Packet) {}))
	forward := e.AddStage("forward", 1024, func(p *dataplane.Packet) {})
	chain, err := e.AddChain(classify, flaky, forward)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos_chain:", err)
		os.Exit(1)
	}
	e.MapFlow(0, chain)
	// Default policy is fail-closed: while flaky-dpi is Failed, arrivals are
	// shed at the chain entry (FaultEntryDrops) instead of piling up behind
	// a dead hop. Uncomment for fail-open (skip the dead hop instead):
	//
	//	e.SetChainPolicy(chain, dataplane.FailOpen)

	reg := telemetry.NewRegistry()
	events := telemetry.NewEventLog(4096)
	e.RegisterMetrics(reg)
	e.SetEventLog(events)

	var ctx context.Context
	var cancel context.CancelFunc
	if *listen != "" {
		mux := telemetry.NewMux(reg, events)
		telemetry.AddHealthz(mux, e.HealthSnapshot)
		srv, err := telemetry.StartServerMux(*listen, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos_chain:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/healthz (also /metrics, /events) — Ctrl-C to exit\n", srv.Addr)
		ctx, cancel = signal.NotifyContext(context.Background(), os.Interrupt)
	} else {
		ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
	}
	defer cancel()

	sink := e.NewPacketCache(256)
	e.SetSink(func(ps []*dataplane.Packet) {
		for _, p := range ps {
			sink.Put(p)
		}
	})

	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	h := e.ProducerHandle(0)
	go func() {
		cache := e.NewPacketCache(256)
		batch := make([]*dataplane.Packet, 8)
		for ctx.Err() == nil {
			for i := range batch {
				p := cache.Get()
				p.FlowID = 0
				p.Size = 64
				batch[i] = p
			}
			// The lane keeps what it accepted; a full lane's tail is ours.
			for _, p := range batch[h.InjectBatch(batch):] {
				cache.Put(p)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	fmt.Printf("chaos chain: classify -> flaky-dpi (panics every %dth packet) -> forward\n\n", *every)
	fmt.Printf("%6s  %-10s %-10s %9s %8s %10s %10s\n",
		"t(ms)", "stage", "health", "processed", "restarts", "faultDrops", "entryShed")
	start := time.Now()
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for printed := 0; (*listen != "" || printed < 4) && ctx.Err() == nil; {
		select {
		case <-ctx.Done():
		case <-tick.C:
			for _, s := range e.Stats() {
				fmt.Printf("%6d  %-10s %-10s %9d %8d %10d %10d\n",
					time.Since(start).Milliseconds(), s.Name, s.Health,
					s.Processed, s.Restarts, s.FaultDrops, e.FaultEntryDrops.Load())
			}
			printed++
		}
	}
	cancel()
	<-done

	fmt.Println("\nsupervision timeline (first 12 health events):")
	shown := 0
	for _, ev := range events.Events() {
		switch ev.Type {
		case "stage_fault", "stage_restart", "stage_health", "chain_failclosed":
			if shown < 12 {
				fmt.Printf("  %8.3fs  %-16s %v\n", ev.Time, ev.Type, ev.Fields)
				shown++
			}
		}
	}

	var midDrops uint64
	for _, s := range e.Stats() {
		if s.Name != "classify" { // entry-ring drops happen before acceptance
			midDrops += s.QueueDrops
		}
	}
	injected := e.Injected.Load()
	accounted := e.Delivered.Load() + midDrops +
		e.NFDrops.Load() + e.FaultDrops.Load() + e.ShutdownDrops.Load()
	fmt.Printf("\ninjected=%d delivered=%d faultDrops=%d entryShed=%d shutdownDrops=%d\n",
		injected, e.Delivered.Load(), e.FaultDrops.Load(),
		e.FaultEntryDrops.Load(), e.ShutdownDrops.Load())
	fmt.Printf("conservation: injected=%d accounted=%d (%v)\n", injected, accounted, injected == accounted)
	fmt.Println("\nEvery crash cost only the packets in the dying worker's hands;")
	fmt.Println("the supervisor restarted the stage with backoff and the chain shed")
	fmt.Println("at its entry while the hop was down — the process never died.")
}

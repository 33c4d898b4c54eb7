// Crosshost live: a service chain split across two processes joined by the
// remote-stage transport. The downstream process terminates the chain and
// listens for frames; the upstream process runs a local stage plus a remote
// uplink stage that ships every packet over TCP under a bounded credit
// window, with reconnect/backoff and exactly-once delivery accounting.
//
// Run the pair (two shells, or background the first):
//
//	go run ./examples/crosshost_live -role down -listen 127.0.0.1:7007
//	go run ./examples/crosshost_live -role up -peer 127.0.0.1:7007 \
//	    -rate 50000 -duration 3s -kill 500 -seed 42
//
// -kill N arms the seeded wire-fault injector on the upstream dialer: the
// connection is killed every N writes and the link must heal under backoff
// and retransmit, without losing a single packet (-seed replays the exact
// schedule). Both sides finish by printing their delivered count and a
// "conservation ok" line once their ledger closes exactly.
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
	"nfvnice/internal/remote"
)

// reconcile sums every accounted fate of an accepted packet, including the
// cross-host transport classes. Entry-stage ring drops are excluded: they
// happen before acceptance.
func reconcile(e *dataplane.Engine, entry map[string]bool) (uint64, uint64) {
	var midDrops uint64
	for _, s := range e.Stats() {
		if !entry[s.Name] {
			midDrops += s.QueueDrops
		}
	}
	acc := e.Delivered.Load() + midDrops +
		e.NFDrops.Load() + e.FaultDrops.Load() + e.ShutdownDrops.Load() +
		e.RemoteDelivered.Load() + e.RemoteDrops.Load()
	return e.Injected.Load(), acc
}

func verdict(role string, e *dataplane.Engine, entry map[string]bool) int {
	inj, acc := reconcile(e, entry)
	if inj != acc {
		fmt.Printf("crosshost %s: conservation ERROR (injected=%d accounted=%d)\n", role, inj, acc)
		return 1
	}
	fmt.Printf("crosshost %s: conservation ok (injected=%d accounted=%d)\n", role, inj, acc)
	return 0
}

func runDown(ctx context.Context, listen string, dur time.Duration) int {
	e := dataplane.New(dataplane.DefaultConfig())
	sink := e.AddStage("sink", 1024, func(p *dataplane.Packet) {})
	ch, err := e.AddChain(sink)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crosshost down:", err)
		return 1
	}
	e.MapFlow(1, ch)
	e.SetSink(e.PutPacketBatch)

	ectx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ectx); close(done) }()

	srv, err := remote.Listen(listen, remote.ServerConfig{
		OnBatch: e.RemoteIngress(),
		ECN:     e.CongestionSignal(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crosshost down:", err)
		cancel()
		<-done
		return 1
	}
	fmt.Printf("crosshost down: listening on %s for %v\n", srv.Addr(), dur)

	// Serve for the window (upstream's duration plus its drain), or until
	// interrupted.
	select {
	case <-time.After(dur):
	case <-ctx.Done():
	}
	srv.Close()
	cancel()
	<-done

	st := srv.Stats()
	fmt.Printf("crosshost down: delivered=%d received=%d dups_deduped=%d conns=%d\n",
		e.Delivered.Load(), st.Received, st.Dups, st.Conns)
	return verdict("down", e, map[string]bool{"sink": true})
}

func runUp(ctx context.Context, peer string, rate int, dur time.Duration, kill int, seed int64) int {
	rcfg := dataplane.RemoteConfig{
		Addr:       peer,
		Window:     32,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 250 * time.Millisecond,
		MaxDials:   -1, // outages heal; keep dialing until we are done
		Seed:       seed,
	}
	var wire *faults.WireInjector
	if kill > 0 {
		wire = faults.NewWire(uint64(seed), faults.ConnDropOn(faults.EveryNth(kill)))
		rcfg.Dial = wire.Dial(nil)
	}

	e := dataplane.New(dataplane.DefaultConfig())
	stamp := e.AddStage("stamp", 1024, func(p *dataplane.Packet) {})
	up := e.AddRemoteStage("uplink", 1024, rcfg)
	ch, err := e.AddChain(stamp, up)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crosshost up:", err)
		return 1
	}
	e.MapFlow(1, ch)

	ectx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ectx); close(done) }()

	// Pace the source: -rate packets/s in 1ms slices, with the in-flight
	// population capped so a link outage backs pressure up to the injector
	// (the transport's send queue absorbs it) instead of overflowing the
	// uplink ring.
	fmt.Printf("crosshost up: %d pps to %s for %v (kill every %d writes, seed %d)\n",
		rate, peer, dur, kill, seed)
	deadline := time.Now().Add(dur)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	h := e.ProducerHandle(0)
	var sent uint64
	for time.Now().Before(deadline) && ctx.Err() == nil {
		<-tick.C
		quota := rate / 1000
		for i := 0; i < quota; i++ {
			if sent-e.RemoteDelivered.Load() >= 256 {
				break // transport saturated or mid-outage: shed the slice
			}
			p := e.GetPacket()
			p.FlowID = 1
			p.Size = 64
			if h.Inject(p) {
				sent++
			} else {
				e.PutPacket(p)
			}
		}
	}

	// Drain: wait for every accepted packet's fate before shutting down.
	settle := time.Now().Add(10 * time.Second)
	for time.Now().Before(settle) {
		rs := e.RemoteStats()[0]
		inj, acc := reconcile(e, map[string]bool{"stamp": true})
		if rs.Queued == 0 && rs.Inflight == 0 && inj == acc {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	rs := e.RemoteStats()[0]
	var kills uint64
	if wire != nil {
		kills = wire.Stats().Drops
	}
	fmt.Printf("crosshost up: delivered=%d remote_drops=%d kills=%d reconnects=%d retries=%d window_stalls=%d\n",
		e.RemoteDelivered.Load(), e.RemoteDrops.Load(), kills, rs.Reconnects,
		rs.Retries, rs.WindowStalls)
	return verdict("up", e, map[string]bool{"stamp": true})
}

func main() {
	role := flag.String("role", "", "up (inject and ship over the uplink) or down (listen and terminate)")
	listen := flag.String("listen", "127.0.0.1:7007", "down: frame listener address")
	peer := flag.String("peer", "127.0.0.1:7007", "up: downstream listener address")
	rate := flag.Int("rate", 50000, "up: injection rate, packets/s")
	dur := flag.Duration("duration", 3*time.Second, "up: injection window; down: serve window")
	kill := flag.Int("kill", 0, "up: kill the connection every N writes (0 = no wire faults)")
	seed := flag.Int64("seed", 42, "seed for the wire-fault schedule and reconnect jitter")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch *role {
	case "down":
		os.Exit(runDown(ctx, *listen, *dur))
	case "up":
		os.Exit(runUp(ctx, *peer, *rate, *dur, *kill, *seed))
	default:
		fmt.Fprintln(os.Stderr, "crosshost: -role must be up or down")
		os.Exit(2)
	}
}

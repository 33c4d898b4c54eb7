package hypo

// H-Conservation: the packet ledger closes exactly — Injected equals the
// sum of Delivered plus every post-acceptance drop class (including the
// Remote* transport classes) — through seeded panics, stalls, wedges, NF
// drops, and wire kill/heal/partition cycles on remote links. Conservation
// is the engine's strongest safety property: a packet is never lost without
// being charged to exactly one cause.

import (
	"fmt"
	"runtime"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/faults"
	"nfvnice/internal/remote"
)

func init() {
	Register(Experiment{
		Name:  "h-conservation",
		Title: "Exact ledger closure through faults",
		Claim: "Injected == Delivered + MidRingDrops + NFDrops + FaultDrops + " +
			"ShutdownDrops + RemoteDelivered + RemoteDrops holds exactly after shutdown, through " +
			"seeded handler panics, sub- and super-grant-deadline stalls, probabilistic NF drops, " +
			"supervised restarts under FailClosed and FailOpen policies, and — for cross-host " +
			"chains — TCP connection kills and timed partitions with reconnect/retransmit " +
			"(exactly-once delivery at the peer).",
		Axes: []Axis{
			{Name: "scenario", Values: []string{
				"local-fc-m1", "local-fc-m2", "local-fo-m2",
				"remote-kill", "remote-kill-partition",
			}},
		},
		Run: runConservation,
	})
}

func runConservation(ctx RunCtx) (Outcome, error) {
	switch ctx.Params["scenario"] {
	case "local-fc-m1":
		return conservationLocal(ctx, 1, dataplane.FailClosed)
	case "local-fc-m2":
		return conservationLocal(ctx, 2, dataplane.FailClosed)
	case "local-fo-m2":
		return conservationLocal(ctx, 2, dataplane.FailOpen)
	case "remote-kill":
		return conservationRemote(ctx, false)
	case "remote-kill-partition":
		return conservationRemote(ctx, true)
	default:
		return Outcome{}, fmt.Errorf("unknown scenario %q", ctx.Params["scenario"])
	}
}

// conservationFaultRules is the per-chain fault envelope: a panic roughly
// every 1500 wrapped calls, a short stall (absorbed within the grant
// deadline), one long stall (exceeds the deadline — exercises wedge
// detachment and FaultDrops), and probabilistic NF drops.
func conservationFaultRules() []faults.Rule {
	return []faults.Rule{
		faults.PanicOn(faults.EveryNth(1500), "hypo: injected panic"),
		faults.StallOn(faults.EveryNth(2100), 2*time.Millisecond),
		faults.StallOn(faults.OnceAt(777), 120*time.Millisecond),
		faults.DropOn(faults.Prob(0.005)),
	}
}

func conservationLocal(ctx RunCtx, movers int, policy dataplane.FailPolicy) (Outcome, error) {
	const nChains = 8
	e := dataplane.New(dataplane.Config{
		RingSize: 256, BatchSize: 16, Movers: movers,
		WeightPeriod:   10 * time.Millisecond,
		GrantTimeout:   50 * time.Millisecond,
		DrainTimeout:   time.Second,
		RestartBackoff: time.Millisecond, MaxRestarts: -1,
		JitterSeed: int64(ctx.Seed),
	})
	// One injector per chain, wrapped around hops 1 and 2 (the entry hop
	// stays clean so pre-acceptance behavior is undisturbed). The injector
	// seed derives from (run seed, chain), so the whole envelope replays
	// from the run seed.
	injectors := make([]*faults.Injector, nChains)
	for c := 0; c < nChains; c++ {
		injectors[c] = faults.New(mix(ctx.Seed^uint64(c)), conservationFaultRules()...)
	}
	chains := buildChains(e, nChains, 3, func(chain, hop int) dataplane.Handler {
		fn := func(p *dataplane.Packet) {}
		if hop == 0 {
			return fn
		}
		return faults.Wrap(injectors[chain], fn)
	})
	for _, ch := range chains {
		e.SetChainPolicy(ch, policy)
	}
	e.SetSink(e.PutPacketBatch)
	defer func() {
		for _, in := range injectors {
			in.Release()
		}
	}()

	run := start(e)
	total := ctx.N(3000 * nChains)
	deadline := time.Now().Add(180 * time.Second)
	injected := injectPaced(e, nChains, total, 384, deadline)
	settled := injected && waitSettled(e, total, 60*time.Second)
	if err := run.stop(30 * time.Second); err != nil {
		return Outcome{}, err
	}

	l := e.LedgerSnapshot()
	restarts := journalCount(e, func(d dataplane.Decision) bool {
		return d.Kind == dataplane.DecisionRestart
	})
	checks := []Check{
		check("admits_full_load", injected, "injection stalled (injected=%d want=%d)", l.Injected, total),
		check("settles", settled, "residual never reached zero: %+v", l),
		check("ledger_closes", l.Residual() == 0, "residual=%d ledger=%+v", l.Residual(), l),
		check("faults_exercised", restarts > 0 && l.NFDrops > 0,
			"fault envelope idle: restarts=%d nf_drops=%d", restarts, l.NFDrops),
		check("restarts_journaled", restarts > 0, "no restart decisions journaled"),
	}
	// The chain-0 plan stands for the set: chains c > 0 use seed
	// mix(seed^c) with identical rules.
	plan, err := injectors[0].ExportPlan(8192)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Checks:     checks,
		FaultPlans: []faults.Plan{plan},
		Observed: map[string]uint64{
			"injected":    l.Injected,
			"delivered":   l.Delivered,
			"nf_drops":    l.NFDrops,
			"fault_drops": l.FaultDrops,
			"mid_drops":   l.MidRingDrops,
			"restarts":    uint64(restarts),
		},
	}, nil
}

func conservationRemote(ctx RunCtx, partition bool) (Outcome, error) {
	// Downstream engine B: one local sink stage fed by the wire.
	b := dataplane.New(dataplane.Config{
		RingSize: 4096, WeightPeriod: 0, DrainTimeout: time.Second,
		JitterSeed: int64(ctx.Seed),
	})
	bs := b.AddStage("sink", 1024, func(p *dataplane.Packet) {})
	bch, err := b.AddChain(bs)
	if err != nil {
		return Outcome{}, err
	}
	b.MapFlow(1, bch)
	b.SetSink(b.PutPacketBatch)
	brun := start(b)

	srv, err := remote.Listen("127.0.0.1:0", remote.ServerConfig{
		OnBatch: b.RemoteIngress(),
		ECN:     b.CongestionSignal(),
	})
	if err != nil {
		return Outcome{}, err
	}

	// Seeded wire faults: kill the connection every 60 writes; the
	// partition variant also opens a 40 ms two-sided outage at write 80.
	rules := []faults.WireRule{faults.ConnDropOn(faults.EveryNth(60))}
	if partition {
		rules = append(rules, faults.PartitionFor(faults.OnceAt(80), 40*time.Millisecond))
	}
	wire := faults.NewWire(ctx.Seed, rules...)

	// Upstream engine A: local stamp stage, then the remote uplink.
	a := dataplane.New(dataplane.Config{
		RingSize: 512, BatchSize: 16, Movers: 2, WeightPeriod: 0,
		DrainTimeout: 2 * time.Second,
		JitterSeed:   int64(ctx.Seed),
	})
	as := a.AddStage("stamp", 1024, func(p *dataplane.Packet) {})
	up := a.AddRemoteStage("uplink", 1024, dataplane.RemoteConfig{
		Addr:       srv.Addr(),
		Window:     8,
		FrameBatch: 16,
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
		MaxDials:   -1, // the schedule heals; keep dialing
		Seed:       int64(ctx.Seed),
		Dial:       wire.Dial(nil),
	})
	ach, err := a.AddChain(as, up)
	if err != nil {
		return Outcome{}, err
	}
	a.MapFlow(1, ach)
	ha := a.ProducerHandle(0)
	arun := start(a)

	// Pace against the link: cap in-flight below the uplink ring so
	// outages back pressure up to the injector instead of overflowing
	// mid-chain — every accepted packet must cross the wire exactly once.
	total := ctx.N(8000)
	sent := 0
	deadline := time.Now().Add(120 * time.Second)
	injected := true
	for sent < total {
		if time.Now().After(deadline) {
			injected = false
			break
		}
		if uint64(sent)-a.RemoteDelivered.Load() >= 256 {
			runtime.Gosched()
			continue
		}
		p := a.GetPacket()
		p.FlowID = 1
		p.Size = 64
		if ha.Inject(p) {
			sent++
		} else {
			a.PutPacket(p)
			runtime.Gosched()
		}
	}

	// Quiesce: the unacked window empties (the schedule always heals) and
	// the upstream ledger balances.
	settled := false
	if injected {
		settleBy := time.Now().Add(60 * time.Second)
		for time.Now().Before(settleBy) {
			rs := a.RemoteStats()[0]
			if rs.Queued == 0 && rs.Inflight == 0 && outstanding(a, sent) == 0 {
				settled = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	if err := arun.stop(30 * time.Second); err != nil {
		return Outcome{}, err
	}
	srv.Close()
	if err := brun.stop(30 * time.Second); err != nil {
		return Outcome{}, err
	}

	la, lb := a.LedgerSnapshot(), b.LedgerSnapshot()
	ws := wire.Stats()
	reconnects := journalCount(a, func(d dataplane.Decision) bool {
		return d.Kind == dataplane.DecisionRemoteReconnect
	})
	faultsFired := ws.Drops >= 1
	if partition {
		faultsFired = faultsFired && ws.Partitions >= 1
	}
	checks := []Check{
		check("admits_full_load", injected, "injection stalled (sent=%d want=%d)", sent, total),
		check("settles", settled, "upstream link/ledger never quiesced: %+v stats=%+v", la, a.RemoteStats()),
		check("ledger_closes_up", la.Residual() == 0, "upstream residual=%d ledger=%+v", la.Residual(), la),
		check("ledger_closes_down", lb.Residual() == 0, "downstream residual=%d ledger=%+v", lb.Residual(), lb),
		check("exactly_once",
			la.RemoteDelivered == uint64(total) && la.RemoteDrops == 0 &&
				srv.Stats().Received == uint64(total),
			"remoteDelivered=%d remoteDrops=%d peerReceived=%d dups=%d want=%d",
			la.RemoteDelivered, la.RemoteDrops, srv.Stats().Received, srv.Stats().Dups, total),
		check("wire_faults_fired", faultsFired,
			"wire schedule idle: drops=%d partitions=%d writes=%d", ws.Drops, ws.Partitions, wire.Seen()),
		check("reconnects_journaled", reconnects > 0, "no remote_reconnect decisions journaled"),
	}
	plan, err := wire.ExportPlan(2048)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Checks:     checks,
		FaultPlans: []faults.Plan{plan},
		Observed: map[string]uint64{
			"injected":         la.Injected,
			"remote_delivered": la.RemoteDelivered,
			"wire_kills":       ws.Drops,
			"wire_partitions":  ws.Partitions,
			"reconnects":       uint64(reconnects),
			"peer_received":    srv.Stats().Received,
			"peer_dups":        srv.Stats().Dups,
		},
	}, nil
}

package hypo

// H-Liveness: under admissible load (offered rate held below capacity by an
// in-flight cap, rho < 0.9), every admitted packet is eventually delivered,
// no accepted packet is lost to any drop class, and queue occupancy stays
// bounded by the in-flight population — across mover counts, chain counts,
// and watermark settings. This is the baseline form of the paper's §3.2
// claim: backpressure at admissible load is quiescent, not lossy.

import (
	"strconv"
	"time"

	"nfvnice/internal/dataplane"
)

func init() {
	Register(Experiment{
		Name:  "h-liveness",
		Title: "Liveness under admissible load",
		Claim: "With offered load paced below capacity (in-flight cap 128 << ring 512, rho < 0.9), " +
			"every admitted packet is delivered: the ledger closes with zero mid-chain, fault, " +
			"NF, and shutdown drops, and no stage queue ever exceeds the in-flight population — " +
			"for movers in {1,4}, chains in {4,16}, and watermarks in {default 0.80/0.60, tight 0.50/0.30}.",
		Axes: []Axis{
			{Name: "movers", Values: []string{"1", "4"}},
			{Name: "chains", Values: []string{"4", "16"}},
			{Name: "watermarks", Values: []string{"default", "tight"}},
		},
		Run: runLiveness,
	})
}

func runLiveness(ctx RunCtx) (Outcome, error) {
	movers, _ := strconv.Atoi(ctx.Params["movers"])
	chains, _ := strconv.Atoi(ctx.Params["chains"])
	high, low := 0.80, 0.60
	if ctx.Params["watermarks"] == "tight" {
		high, low = 0.50, 0.30
	}

	const inflight = 128
	e := dataplane.New(dataplane.Config{
		RingSize: 512, BatchSize: 16, Movers: movers,
		HighFrac: high, LowFrac: low,
		WeightPeriod: 10 * time.Millisecond,
		DrainTimeout: 2 * time.Second,
		JitterSeed:   int64(ctx.Seed),
	})
	buildChains(e, chains, 3, func(chain, hop int) dataplane.Handler {
		return func(p *dataplane.Packet) {}
	})
	e.SetSink(e.PutPacketBatch)

	run := start(e)
	sampler := sampleDepths(e)

	total := ctx.N(2500 * chains)
	deadline := time.Now().Add(120 * time.Second)
	injected := injectPaced(e, chains, total, inflight, deadline)
	settled := injected && waitSettled(e, total, 60*time.Second)
	maxDepth := sampler.Stop()
	if err := run.stop(30 * time.Second); err != nil {
		return Outcome{}, err
	}

	l := e.LedgerSnapshot()
	checks := []Check{
		check("admits_full_load", injected,
			"injection did not complete %d packets before the deadline (injected=%d)", total, l.Injected),
		check("settles", settled, "residual never reached zero: %+v", l),
		check("ledger_closes", l.Residual() == 0, "residual=%d ledger=%+v", l.Residual(), l),
		check("all_delivered", l.Delivered == uint64(total),
			"delivered=%d want=%d ledger=%+v", l.Delivered, total, l),
		check("no_accepted_loss",
			l.MidRingDrops == 0 && l.NFDrops == 0 && l.FaultDrops == 0 &&
				l.ShutdownDrops == 0 && l.LateDrops == 0,
			"accepted packets lost: mid=%d nf=%d fault=%d shutdown=%d late=%d",
			l.MidRingDrops, l.NFDrops, l.FaultDrops, l.ShutdownDrops, l.LateDrops),
		check("queues_bounded", maxDepth <= inflight,
			"max sampled queue depth %d exceeds the in-flight cap %d", maxDepth, inflight),
	}
	return Outcome{
		Checks: checks,
		Observed: map[string]uint64{
			"injected":        l.Injected,
			"delivered":       l.Delivered,
			"entry_drops":     l.EntryDrops,
			"throttle_events": l.ThrottleEvents,
			"max_queue_depth": uint64(maxDepth),
		},
	}, nil
}

package hypo

// H-Degradation: under 2-4x overload of one chain, the system degrades at
// the right place — the watermark backpressure machine throttles the
// overloaded chain and sheds its excess at chain entry (before work is
// invested), downstream drops stay near zero, and chains that are NOT
// overloaded keep their throughput: a paced victim workload completes
// losslessly while the aggressor is being shed. This is the paper's Fig. 8
// performance-isolation claim (cgroup weights + early drop).

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nfvnice/internal/dataplane"
)

func init() {
	Register(Experiment{
		Name:  "h-degradation",
		Title: "Graceful degradation and isolation under overload",
		Claim: "With one chain overdriven by 2-4 unpaced producers against an expensive NF, " +
			"backpressure sheds the excess at the aggressor's chain entry (EntryDrops, journaled " +
			"bp_on for that chain), accepted packets are not lost downstream (mid-chain drops " +
			"<= 1% of accepted, zero NF drops), and paced victim chains sharing the same core " +
			"deliver 100% of their packets within the run deadline.",
		Axes: []Axis{
			{Name: "overload", Values: []string{"2", "4"}},
			{Name: "movers", Values: []string{"1", "2"}},
		},
		Run: runDegradation,
	})
}

func runDegradation(ctx RunCtx) (Outcome, error) {
	producers, _ := strconv.Atoi(ctx.Params["overload"])
	movers, _ := strconv.Atoi(ctx.Params["movers"])
	const (
		nVictims     = 3
		victimFlows  = nVictims // flows 0..2 -> victim chains
		aggFlow      = nVictims // flow 3 -> aggressor chain
		inflightVict = 64
	)

	e := dataplane.New(dataplane.Config{
		RingSize: 256, BatchSize: 16, Movers: movers,
		WeightPeriod: 10 * time.Millisecond,
		DrainTimeout: 2 * time.Second,
		JitterSeed:   int64(ctx.Seed),
	})
	// Victim chains: three hops of negligible cost.
	victims := buildChains(e, nVictims, 3, func(chain, hop int) dataplane.Handler {
		return func(p *dataplane.Packet) {}
	})
	// Aggressor chain: a cheap entry hop feeding an expensive NF (~2 us of
	// busy work per packet) on the same core as the victims.
	aggEntry := e.AddStage("agg.entry", 1024, func(p *dataplane.Packet) {})
	aggWork := e.AddStage("agg.work", 1024, func(p *dataplane.Packet) {
		end := time.Now().Add(2 * time.Microsecond)
		for time.Now().Before(end) {
		}
	})
	aggChain, err := e.AddChain(aggEntry, aggWork)
	if err != nil {
		return Outcome{}, err
	}
	e.MapFlow(aggFlow, aggChain)

	// Per-chain delivery counts, taken in the sink.
	var mu sync.Mutex
	delivered := map[int]uint64{}
	e.SetSink(func(ps []*dataplane.Packet) {
		mu.Lock()
		for _, p := range ps {
			delivered[p.ChainID]++
		}
		mu.Unlock()
		e.PutPacketBatch(ps)
	})

	run := start(e)

	// Aggressor: `producers` goroutines, one lane each, blasting unpaced —
	// offered load is a multiple of what the expensive stage can drain, so
	// the excess can only be shed when the movers drain the lanes. A full
	// lane just means the mover has not caught up: retry at once, without
	// yielding, as a NIC would not — these goroutines compete with the
	// pipeline for the CPUs exactly as the pre-lane drivers' did.
	var stopAgg atomic.Bool
	var aggWG sync.WaitGroup
	var aggOffered atomic.Uint64
	for i := 0; i < producers; i++ {
		aggWG.Add(1)
		h := e.ProducerHandle(0)
		go func() {
			defer aggWG.Done()
			defer h.Close()
			for {
				p := e.GetPacket()
				p.FlowID = aggFlow
				p.Size = 64
				for !h.Inject(p) {
					if stopAgg.Load() {
						e.PutPacket(p)
						return
					}
				}
				aggOffered.Add(1)
			}
		}()
	}

	// Victim: one paced producer pushing a fixed workload through the
	// victim chains while the aggressor rages. Pacing caps the victims'
	// own in-flight population (injected minus delivered, from the sink
	// counts) well below the rings, so the victim load is admissible by
	// construction — any victim loss is an isolation failure, not
	// self-inflicted overload.
	victimTotal := ctx.N(12000)
	deadline := time.Now().Add(180 * time.Second)
	victimInFlight := func(sent int) int {
		mu.Lock()
		var d uint64
		for _, ch := range victims {
			d += delivered[ch]
		}
		mu.Unlock()
		return sent - int(d)
	}
	victimStart := time.Now()
	victimDone := true
	vh := e.ProducerHandle(0)
	sent := 0
	for sent < victimTotal {
		if time.Now().After(deadline) {
			victimDone = false
			break
		}
		if victimInFlight(sent) >= inflightVict {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		p := e.GetPacket()
		p.FlowID = sent % victimFlows
		p.Size = 64
		if vh.Inject(p) {
			sent++
		} else {
			e.PutPacket(p)
			time.Sleep(100 * time.Microsecond)
		}
	}
	victimElapsed := time.Since(victimStart)
	vh.Close()

	stopAgg.Store(true)
	aggWG.Wait()
	// Everything either kind of producer got into a lane must reach an
	// outcome; a victim cut short by the deadline offered fewer than its
	// total, which victim_completes reports.
	offered := int(aggOffered.Load()) + sent
	settled := waitSettled(e, offered, 60*time.Second)
	if err := run.stop(30 * time.Second); err != nil {
		return Outcome{}, err
	}

	l := e.LedgerSnapshot()
	bpOnAgg := journalCount(e, func(d dataplane.Decision) bool {
		return d.Kind == dataplane.DecisionBPOn && d.Chain == aggChain
	})
	mu.Lock()
	var victimDelivered uint64
	for _, ch := range victims {
		victimDelivered += delivered[ch]
	}
	aggDelivered := delivered[aggChain]
	mu.Unlock()

	checks := []Check{
		check("victim_completes", victimDone,
			"victim workload (%d pkts) did not finish before the deadline (elapsed=%v)",
			victimTotal, victimElapsed),
		check("settles", settled, "residual never reached zero: %+v", l),
		check("ledger_closes", l.Residual() == 0, "residual=%d ledger=%+v", l.Residual(), l),
		check("sheds_at_entry", l.EntryDrops > 0 && l.ThrottleEvents > 0,
			"no entry shedding under %dx overload: entryDrops=%d throttleEvents=%d",
			producers, l.EntryDrops, l.ThrottleEvents),
		check("bp_journaled", bpOnAgg > 0,
			"no bp_on decisions journaled for the aggressor chain %d", aggChain),
		check("downstream_protected",
			l.NFDrops == 0 && l.MidRingDrops*100 <= l.Injected,
			"downstream loss: midRingDrops=%d (%.2f%% of %d injected) nfDrops=%d",
			l.MidRingDrops, 100*float64(l.MidRingDrops)/float64(l.Injected), l.Injected, l.NFDrops),
		check("victim_no_loss", victimDelivered == uint64(victimTotal),
			"victim delivered %d of %d", victimDelivered, victimTotal),
	}
	return Outcome{
		Checks: checks,
		Observed: map[string]uint64{
			"injected":          l.Injected,
			"entry_drops":       l.EntryDrops,
			"throttle_events":   l.ThrottleEvents,
			"mid_ring_drops":    l.MidRingDrops,
			"aggressor_offered": aggOffered.Load(),
			"aggressor_done":    aggDelivered,
			"victim_delivered":  victimDelivered,
			"victim_ms":         uint64(victimElapsed.Milliseconds()),
			"bp_on_aggressor":   uint64(bpOnAgg),
		},
	}, nil
}

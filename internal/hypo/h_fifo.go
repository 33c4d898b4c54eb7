package hypo

// H-FIFO: per-flow delivery order is preserved — every delivered packet of
// a flow carries a strictly larger sequence number than the one before it
// (drops create gaps, never reordering) — across mover counts, producer
// lane churn (handles closed and reopened mid-stream), and FailOpen bypass
// of a crashed-and-circuit-opened stage.
//
// One deliberate carve-out, discovered by this experiment: the bypass
// BOUNDARY can scramble the faulted chain. When the mid hop dies, packets
// already queued in its rx ring wait out the restart backoff while newer
// packets bypass it straight into the next hop's rx; the restarted stage
// then forwards the older ones behind them, so flows on the bypassed chain
// may see a transient reorder bounded by the in-flight population at the
// fault instant. Flows on other chains must never invert, and the scramble
// must stay within that bound; both are checked.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/faults"
)

func init() {
	Register(Experiment{
		Name:  "h-fifo",
		Title: "Per-flow FIFO under scaling, lane churn, and bypass",
		Claim: "For every flow, delivered packets appear in strictly increasing sequence order " +
			"(gaps from accounted drops allowed, inversions never) — with movers in {1,2,4} and " +
			"with producer inject lanes closed and reopened mid-stream (after draining, per the " +
			"lane contract). With a FailOpen chain whose mid stage panics until its circuit " +
			"opens, flows on every OTHER chain still never invert, and the bypassed chain's own " +
			"flows reorder at most transiently at the fault boundary: total inversions stay " +
			"within the in-flight population (packets past the dead hop racing packets that " +
			"bypass it), never a sustained interleave.",
		Axes: []Axis{
			{Name: "movers", Values: []string{"1", "2", "4"}},
			{Name: "mode", Values: []string{"plain", "lanechurn", "failopen"}},
		},
		Run: runFIFO,
	})
}

func runFIFO(ctx RunCtx) (Outcome, error) {
	movers, _ := strconv.Atoi(ctx.Params["movers"])
	mode := ctx.Params["mode"]
	const (
		nChains  = 4
		nFlows   = 16
		inflight = 256
	)

	cfg := dataplane.Config{
		RingSize: 512, BatchSize: 16, Movers: movers,
		FrameSize:      8, // the per-flow sequence number
		WeightPeriod:   10 * time.Millisecond,
		DrainTimeout:   2 * time.Second,
		RestartBackoff: time.Millisecond,
		JitterSeed:     int64(ctx.Seed),
	}
	var inj *faults.Injector
	if mode == "failopen" {
		// From packet 500 on, every grant to the wrapped stage panics: the
		// failure streak builds through each restart (no clean grants to
		// reset it), the circuit opens at MaxRestarts, and the FailOpen
		// policy bypasses the dead hop for the rest of the run.
		cfg.MaxRestarts = 2
		inj = faults.New(mix(ctx.Seed), faults.PanicOn(faults.After(500), "hypo: fifo crash"))
	} else {
		cfg.MaxRestarts = -1
	}
	e := dataplane.New(cfg)
	chains := buildChains(e, nChains, 3, func(chain, hop int) dataplane.Handler {
		fn := func(p *dataplane.Packet) {}
		if inj != nil && chain == 0 && hop == 1 {
			return faults.Wrap(inj, fn)
		}
		return fn
	})
	for f := nChains; f < nFlows; f++ {
		e.MapFlow(f, chains[f%nChains])
	}
	if mode == "failopen" {
		for _, ch := range chains {
			e.SetChainPolicy(ch, dataplane.FailOpen)
		}
	}

	// The sink checks per-flow monotonicity: sequence numbers ride in the
	// 8-byte frame, assigned in injection order by the single producer.
	var (
		mu         sync.Mutex
		lastSeq    [nFlows]int
		deliveries [nFlows]uint64
		inversions [nFlows]int
	)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	e.SetSink(func(ps []*dataplane.Packet) {
		mu.Lock()
		for _, p := range ps {
			f := p.FlowID
			s := int(binary.LittleEndian.Uint64(p.Frame))
			if s <= lastSeq[f] {
				inversions[f]++
			}
			lastSeq[f] = s
			deliveries[f]++
		}
		mu.Unlock()
		e.PutPacketBatch(ps)
	})
	if inj != nil {
		defer inj.Release()
	}

	run := start(e)
	total := ctx.N(16000)
	deadline := time.Now().Add(180 * time.Second)

	// One producer on one lane at a time; sequence numbers ride in the
	// frame, assigned in offer order.
	handle := e.ProducerHandle(256)
	sent := 0
	offerNext := func() bool {
		ok := offerPaced(e, handle, sent, inflight, deadline, func(p *dataplane.Packet) {
			p.FlowID = sent % nFlows
			p.Size = 64
			p.Frame = binary.LittleEndian.AppendUint64(p.Frame[:0], uint64(sent/nFlows))
		})
		if ok {
			sent++
		}
		return ok
	}
	churnEvery := 0
	if mode == "lanechurn" {
		churnEvery = total / 8
	}
	nextChurn := churnEvery
	injected := true
	for sent < total {
		if churnEvery > 0 && sent >= nextChurn {
			nextChurn += churnEvery
			// Lane churn: retire the old handle only once everything it
			// took has been routed into the chain — the per-flow order
			// contract spans lanes only through drained handoffs — then
			// continue on a fresh lane. An empty lane is not enough: its
			// mover may still hold the last batch it dequeued, and the
			// fresh lane's mover could route newer packets past it.
			for unrouted(e, sent) > 0 && !time.Now().After(deadline) {
				runtime.Gosched()
			}
			handle.Close()
			handle = e.ProducerHandle(256)
		}
		if !offerNext() {
			injected = false
			break
		}
	}
	if inj != nil {
		// The fail-open bypass races the restart ladder: every Failed
		// backoff window lets the whole remaining load route around the
		// dead hop, so a restarted incarnation can come back to an empty
		// rx and never earn the grant that trips the breaker. Keep the
		// load (and the per-flow sequence numbers) flowing until the
		// circuit actually opens: paced on the journal entry, bounded by
		// time, never by a packet count (faster hops get more of it around
		// the dead one per backoff window).
		opened := func() bool {
			return journalCount(e, func(d dataplane.Decision) bool {
				return d.Kind == dataplane.DecisionCircuitOpen
			}) > 0
		}
		openBy := time.Now().Add(30 * time.Second)
		for extra := 0; time.Now().Before(openBy); extra++ {
			if (extra%64 == 0 && opened()) || !offerNext() {
				break
			}
		}
	}
	handle.Close()
	settled := injected && waitSettled(e, sent, 60*time.Second)
	if err := run.stop(30 * time.Second); err != nil {
		return Outcome{}, err
	}

	l := e.LedgerSnapshot()
	mu.Lock()
	// Split inversions by chain: flows f with f%nChains == 0 ride chain 0,
	// the only chain the failopen mode faults. invFaulted is the bypass
	// boundary's transient scramble (bounded, failopen only); invClean must
	// be zero in every mode.
	var invFaulted, invClean int
	for f, n := range inversions {
		if f%nChains == 0 {
			invFaulted += n
		} else {
			invClean += n
		}
	}
	var starved []int
	var deliveredTotal uint64
	for f, d := range deliveries {
		deliveredTotal += d
		if d == 0 {
			starved = append(starved, f)
		}
	}
	mu.Unlock()

	checks := []Check{
		check("admits_full_load", injected, "injection stalled before %d packets", total),
		check("settles", settled, "residual never reached zero: %+v", l),
		check("ledger_closes", l.Residual() == 0, "residual=%d ledger=%+v", l.Residual(), l),
		check("all_flows_delivered", len(starved) == 0, "flows with zero deliveries: %v", starved),
	}
	observed := map[string]uint64{
		"injected":    l.Injected,
		"delivered":   deliveredTotal,
		"fault_drops": l.FaultDrops,
		"late_drops":  l.LateDrops,
	}
	if inj == nil {
		checks = append(checks,
			check("fifo_preserved", invFaulted+invClean == 0,
				"%d per-flow order inversions", invFaulted+invClean))
	} else {
		checks = append(checks,
			check("fifo_preserved_unfaulted", invClean == 0,
				"%d inversions on chains the fault never touched", invClean),
			check("bypass_scramble_bounded", invFaulted <= inflight,
				"bypassed chain scrambled beyond the in-flight window: %d inversions > %d",
				invFaulted, inflight))
		observed["bypass_inversions"] = uint64(invFaulted)
	}
	out := Outcome{Checks: checks, Observed: observed}
	if inj != nil {
		circuitOpens := journalCount(e, func(d dataplane.Decision) bool {
			return d.Kind == dataplane.DecisionCircuitOpen
		})
		out.Checks = append(out.Checks,
			check("bypass_engaged", circuitOpens > 0,
				"circuit never opened (restarts absorbed every panic): %s",
				fmt.Sprint(e.HealthSnapshot())))
		observed["circuit_opens"] = uint64(circuitOpens)
		plan, err := inj.ExportPlan(8192)
		if err != nil {
			return Outcome{}, err
		}
		out.FaultPlans = []faults.Plan{plan}
	}
	return out, nil
}

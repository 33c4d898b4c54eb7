package nfvnice

import (
	"math"
	"strings"
	"testing"

	"nfvnice/internal/obs"
)

// build3NFChain assembles the paper's §4.2.1 scenario: a Low(120) → Med(270)
// → High(550) chain sharing one core, offered 64-byte line-rate UDP.
func build3NFChain(sched SchedPolicy, mode Mode) (*Platform, int) {
	p := NewPlatform(DefaultConfig(sched, mode))
	core := p.AddCore()
	n1 := p.AddNF("low", FixedCost(120), core)
	n2 := p.AddNF("med", FixedCost(270), core)
	n3 := p.AddNF("high", FixedCost(550), core)
	ch := p.AddChain("low-med-high", n1, n2, n3)
	f := UDPFlow(0, 64)
	p.MapFlow(f, ch)
	p.AddCBR(f, LineRate10G(64))
	return p, ch
}

func runWindow(p *Platform, warmup, measure Cycles) *Snapshot {
	p.Run(warmup)
	s := p.TakeSnapshot()
	p.Run(warmup + measure)
	return s
}

func TestChainDefaultVsNFVnice(t *testing.T) {
	if testing.Short() {
		t.Skip("full platform run")
	}
	warm, meas := Milliseconds(100), Milliseconds(300)

	pd, chd := build3NFChain(SchedBatch, ModeDefault)
	sd := runWindow(pd, warm, meas)
	defThroughput := pd.ChainDeliveredSince(sd, chd)
	defWasted := pd.TotalWastedSince(sd)

	pn, chn := build3NFChain(SchedBatch, ModeNFVnice)
	sn := runWindow(pn, warm, meas)
	niceThroughput := pn.ChainDeliveredSince(sn, chn)
	niceWasted := pn.TotalWastedSince(sn)

	t.Logf("default: %.3f Mpps, wasted %.3f Mpps", defThroughput.Mpps(), defWasted.Mpps())
	t.Logf("nfvnice: %.3f Mpps, wasted %.3f Mpps", niceThroughput.Mpps(), niceWasted.Mpps())

	if defThroughput <= 0 || niceThroughput <= 0 {
		t.Fatal("no packets delivered")
	}
	// Under overload the default scheduler wastes work at upstream NFs;
	// NFVnice must beat it on throughput...
	if niceThroughput < defThroughput*1.2 {
		t.Fatalf("NFVnice %.3f Mpps not clearly above default %.3f Mpps",
			niceThroughput.Mpps(), defThroughput.Mpps())
	}
	// ...and nearly eliminate wasted work (paper Table 3: millions -> ~0).
	if defWasted < 100_000 {
		t.Fatalf("default wasted only %.0f pps; overload scenario broken", float64(defWasted))
	}
	if niceWasted > defWasted/20 {
		t.Fatalf("NFVnice wasted %.0f pps vs default %.0f pps; backpressure ineffective",
			float64(niceWasted), float64(defWasted))
	}
	// The chain's theoretical ceiling on one core is 2.6G/940 ≈ 2.77 Mpps;
	// NFVnice should get within 25% of it.
	if niceThroughput.Mpps() < 2.0 {
		t.Fatalf("NFVnice throughput %.3f Mpps too far from the 2.77 Mpps ceiling", niceThroughput.Mpps())
	}
}

func TestRateCostProportionalShares(t *testing.T) {
	if testing.Short() {
		t.Skip("full platform run")
	}
	// Two NFs, same arrival rate, 1:3 cost ratio, separate flows, one core:
	// NFVnice must give the heavy NF ~3x the CPU and equalize throughput
	// (the Fig 15a steady state).
	p := NewPlatform(DefaultConfig(SchedNormal, ModeNFVnice))
	core := p.AddCore()
	a := p.AddNF("cost1", FixedCost(300), core)
	b := p.AddNF("cost3", FixedCost(900), core)
	ca := p.AddChain("a", a)
	cb := p.AddChain("b", b)
	fa, fb := UDPFlow(0, 64), UDPFlow(1, 64)
	p.MapFlow(fa, ca)
	p.MapFlow(fb, cb)
	// Offer enough that both NFs individually exceed the core: the light
	// NF alone needs 10M*300 = 115% of a core, the heavy 346%.
	p.AddCBR(fa, 10e6)
	p.AddCBR(fb, 10e6)
	s := runWindow(p, Milliseconds(200), Milliseconds(300))
	m := p.NFMetricsSince(s)
	shareRatio := m[1].CPUShare / m[0].CPUShare
	if shareRatio < 2.4 || shareRatio > 3.6 {
		t.Fatalf("CPU share ratio = %.2f, want ~3 (rate-cost proportional)", shareRatio)
	}
	tputA := p.ChainDeliveredSince(s, ca)
	tputB := p.ChainDeliveredSince(s, cb)
	if r := float64(tputA) / float64(tputB); math.Abs(r-1) > 0.25 {
		t.Fatalf("throughput ratio %.2f, want ~1 (equal output under rate-cost fairness)", r)
	}
}

func TestDefaultCFSSplitsEvenly(t *testing.T) {
	if testing.Short() {
		t.Skip("full platform run")
	}
	// Control for the previous test: without NFVnice, CFS gives each NF
	// half the CPU and the heavy NF delivers ~1/3 the throughput.
	p := NewPlatform(DefaultConfig(SchedNormal, ModeDefault))
	core := p.AddCore()
	a := p.AddNF("cost1", FixedCost(300), core)
	b := p.AddNF("cost3", FixedCost(900), core)
	ca := p.AddChain("a", a)
	cb := p.AddChain("b", b)
	p.MapFlow(UDPFlow(0, 64), ca)
	p.MapFlow(UDPFlow(1, 64), cb)
	p.AddCBR(UDPFlow(0, 64), 10e6)
	p.AddCBR(UDPFlow(1, 64), 10e6)
	s := runWindow(p, Milliseconds(200), Milliseconds(300))
	m := p.NFMetricsSince(s)
	if r := m[1].CPUShare / m[0].CPUShare; r < 0.8 || r > 1.25 {
		t.Fatalf("default CFS share ratio = %.2f, want ~1", r)
	}
	tputA := p.ChainDeliveredSince(s, ca)
	tputB := p.ChainDeliveredSince(s, cb)
	if r := float64(tputA) / float64(tputB); r < 2 {
		t.Fatalf("light/heavy throughput ratio = %.2f, want ~3 under equal CPU split", r)
	}
}

func TestBackpressureStateReached(t *testing.T) {
	if testing.Short() {
		t.Skip("full platform run")
	}
	p, _ := build3NFChain(SchedBatch, ModeNFVnice)
	p.Run(Milliseconds(50))
	// Under line-rate overload, the bottleneck NF (id 2) must have
	// throttled at some point and entry drops must be happening.
	if p.EntryThrottleDrops() == 0 {
		t.Fatal("no entry-point sheds under heavy overload")
	}
}

func TestDeterministicRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full platform run")
	}
	run := func() (uint64, uint64) {
		p, _ := build3NFChain(SchedNormal, ModeNFVnice)
		p.Run(Milliseconds(80))
		return p.Mgr.TotalDelivered(), p.Mgr.TotalWasted()
	}
	d1, w1 := run()
	d2, w2 := run()
	if d1 != d2 || w1 != w2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", d1, w1, d2, w2)
	}
}

func TestPacketConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("full platform run")
	}
	// Every descriptor must be accounted for: delivered + in rings +
	// in-pool = capacity; no leaks after a bursty overloaded run.
	p, _ := build3NFChain(SchedNormal, ModeDefault)
	p.Run(Milliseconds(100))
	inRings := 0
	for i := 0; i < p.NFCount(); i++ {
		n := p.NF(i)
		inRings += n.Rx.Len() + n.Tx.Len() + n.InFlight()
	}
	if got := p.Pool.InUse(); got != inRings {
		t.Fatalf("pool says %d in use but rings hold %d: descriptor leak", got, inRings)
	}
}

func TestTracingCapturesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full platform run")
	}
	p, _ := build3NFChain(SchedBatch, ModeNFVnice)
	var buf strings.Builder
	tr := obs.NewChromeWriter(&buf)
	p.EnableTraceTo(tr)
	p.Run(Milliseconds(50))
	if tr.Len() == 0 {
		t.Fatal("no trace events recorded")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Run spans for each NF, plus backpressure instants under overload.
	for _, want := range []string{`"name":"low"`, `"name":"high"`, "bp-throttle", "shares:"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestCrossHostLink(t *testing.T) {
	if testing.Short() {
		t.Skip("full platform run")
	}
	// Two hosts, one timeline: packets exiting host A's chain re-enter
	// host B's chain after the link delay; end-to-end events reach the
	// downstream sink exactly once per packet.
	a := NewPlatform(DefaultConfig(SchedBatch, ModeDefault))
	fw := a.AddNF("fw", FixedCost(200), a.AddCore())
	chainA := a.AddChain("a", fw)

	b := NewPlatformOn(DefaultConfig(SchedBatch, ModeDefault), a.Eng)
	wan := b.AddNF("wan", FixedCost(400), b.AddCore())
	chainB := b.AddChain("b", wan)

	f := UDPFlow(0, 64)
	a.MapFlow(f, chainA)
	b.MapFlow(f, chainB)
	link := ConnectHosts(a, b, f, Milliseconds(1))
	var delivered, dropped int
	link.Downstream = sinkFuncs{
		del:  func(*Packet) { delivered++ },
		drop: func(*Packet, DropPoint) { dropped++ },
	}
	a.AddCBR(f, 100_000) // well under both hosts' capacity

	b.Start()
	a.Run(Milliseconds(100))
	if link.Forwarded < 9_000 {
		t.Fatalf("forwarded %d, want ~9900 (100 kpps x ~99 ms)", link.Forwarded)
	}
	if dropped != 0 || link.DroppedAtB != 0 {
		t.Fatalf("unexpected drops: sink=%d link=%d", dropped, link.DroppedAtB)
	}
	if delivered == 0 || uint64(delivered) > link.Forwarded {
		t.Fatalf("delivered %d of %d forwarded", delivered, link.Forwarded)
	}
	// Conservation across hosts: A's exits equal link attempts plus the
	// packets still in flight on the wire (≤ delay × rate = 100).
	exits := a.Mgr.Delivered[chainA].Total()
	attempts := link.Forwarded + link.DroppedAtB
	if exits < attempts || exits-attempts > 110 {
		t.Fatalf("A exits %d vs link attempts %d (in-flight beyond link capacity)", exits, attempts)
	}
}

func TestConnectHostsRequiresSharedEngine(t *testing.T) {
	a := NewPlatform(DefaultConfig(SchedBatch, ModeDefault))
	b := NewPlatform(DefaultConfig(SchedBatch, ModeDefault))
	defer func() {
		if recover() == nil {
			t.Fatal("separate engines accepted")
		}
	}()
	ConnectHosts(a, b, UDPFlow(0, 64), 0)
}

type sinkFuncs struct {
	del  func(*Packet)
	drop func(*Packet, DropPoint)
}

func (s sinkFuncs) Delivered(_ Cycles, p *Packet)             { s.del(p) }
func (s sinkFuncs) Dropped(_ Cycles, p *Packet, at DropPoint) { s.drop(p, at) }

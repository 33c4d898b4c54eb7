package frontend_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/frontend"
	"nfvnice/internal/nfs"
	"nfvnice/internal/pcap"
	"nfvnice/internal/proto"
)

// buildEngine assembles a live engine with a frame arena and the given
// real-NF chains (one slice of processors per chain), premapping flow i to
// chain i so the frontends' directors can route by chain id. The sink
// recycles deliveries back into the arena pool.
func buildEngine(t testing.TB, frameSize int, chains ...[]nfs.Processor) (*dataplane.Engine, context.CancelFunc, *sync.WaitGroup) {
	t.Helper()
	e := dataplane.New(dataplane.Config{
		RingSize:  4096,
		BatchSize: 256,
		FrameSize: frameSize,
		// The controller cadences stay at defaults; backpressure protects
		// the rings when a max-rate producer overruns the chain.
	})
	for ci, procs := range chains {
		ids := make([]int, len(procs))
		for i, p := range procs {
			ids[i] = e.AddBatchStage(p.Name(), 1024, nfs.AdaptBatch(p))
		}
		id, err := e.AddChain(ids...)
		if err != nil {
			t.Fatalf("AddChain: %v", err)
		}
		if id != ci {
			t.Fatalf("chain id %d, want %d", id, ci)
		}
		e.MapFlow(ci, ci)
	}
	e.SetSink(func(ps []*dataplane.Packet) { e.PutPacketBatch(ps) })
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Run(ctx)
	}()
	return e, cancel, &wg
}

// waitAccounted polls until every lane-accepted packet has been routed and
// settled into an outcome class (offered == injected + pre-acceptance
// drops is implied by residual reaching zero after the lanes drain).
func waitAccounted(t testing.TB, e *dataplane.Engine, offered uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		l := e.LedgerSnapshot()
		settled := l.Injected + l.EntryDrops + l.FaultEntryDrops + l.LateDrops +
			(l.RingDrops - l.MidRingDrops)
		if settled >= offered && l.Residual() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not settle: offered=%d ledger=%+v", offered, l)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tracePcap builds an in-memory pcap with UDP and TCP flows.
func tracePcap(t testing.TB, flows, pktsPerFlow int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, 65535)
	src := proto.MAC{2, 0, 0, 0, 0, 1}
	dst := proto.MAC{2, 0, 0, 0, 0, 2}
	base := time.Unix(0, 0)
	for i := 0; i < pktsPerFlow; i++ {
		for f := 0; f < flows; f++ {
			sip := proto.Addr4(10, 1, byte(f>>8), byte(f))
			dip := proto.Addr4(198, 51, 100, 7)
			var frame []byte
			if f%2 == 0 {
				frame = proto.BuildUDP(src, dst, sip, dip, uint16(2000+f), 53, []byte("replayed payload"))
			} else {
				frame = proto.BuildTCP(src, dst, sip, dip, uint16(2000+f), 80, uint32(i), 0, 0x10, []byte("replayed tcp"))
			}
			if err := w.WritePacket(base.Add(time.Duration(i)*time.Millisecond), frame); err != nil {
				t.Fatalf("WritePacket: %v", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return &buf
}

// TestReplaySmoke replays a trace at max rate through a firewall→monitor
// chain on the live engine: every record must be offered, the ledger must
// close exactly, and the monitor must have seen real frames.
func TestReplaySmoke(t *testing.T) {
	const flows, per, loops = 32, 8, 25
	trace := tracePcap(t, flows, per)
	dir := frontend.NewDirector(1, 1<<12)
	rp, err := frontend.NewReplay(trace, frontend.ReplayConfig{Loops: loops}, dir)
	if err != nil {
		t.Fatalf("NewReplay: %v", err)
	}
	if rp.Records() != flows*per {
		t.Fatalf("prescan kept %d records, want %d", rp.Records(), flows*per)
	}
	mon := nfs.NewMonitor()
	e, cancel, wg := buildEngine(t, rp.MaxFrame(),
		[]nfs.Processor{nfs.NewFirewall(nfs.Accept), mon})
	stats := rp.Run(context.Background(), e)
	if want := uint64(flows * per * loops); stats.Offered != want {
		t.Fatalf("offered %d, want %d (rejected=%d skipped=%d)", stats.Offered, want, stats.Rejected, stats.Skipped)
	}
	if stats.Skipped != 0 {
		t.Fatalf("replay skipped %d records", stats.Skipped)
	}
	waitAccounted(t, e, stats.Offered, 10*time.Second)
	cancel()
	wg.Wait()
	l := e.LedgerSnapshot()
	if l.Residual() != 0 {
		t.Fatalf("ledger residual %d after shutdown: %+v", l.Residual(), l)
	}
	if l.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", l)
	}
	if got := dir.Table.Lookups(); got < uint64(stats.Offered) {
		t.Fatalf("flow table saw %d lookups, want >= %d", got, stats.Offered)
	}
	if mon.Flows() != flows {
		t.Fatalf("monitor tracked %d flows, want %d", mon.Flows(), flows)
	}
}

// TestMillionFlowConservation drives over a million distinct flows — the
// synthetic heavy-tailed generator and a looping pcap replay concurrently —
// through the shared flow table into stateless real-NF chains, at max rate,
// and requires the packet ledger to close exactly at shutdown.
func TestMillionFlowConservation(t *testing.T) {
	synthFlows := 1_050_000
	if testing.Short() {
		synthFlows = 120_000
	}
	dir := frontend.NewDirector(2, 1<<20)
	syn := frontend.NewSynthetic(frontend.SyntheticConfig{
		Seed:        42,
		Flows:       synthFlows,
		ActiveFlows: 2048,
		MaxPackets:  4,
		PayloadLen:  32,
	}, dir)

	const rpFlows, rpPer, rpLoops = 64, 4, 50
	rp, err := frontend.NewReplay(tracePcap(t, rpFlows, rpPer), frontend.ReplayConfig{Loops: rpLoops}, dir)
	if err != nil {
		t.Fatalf("NewReplay: %v", err)
	}
	frameSize := syn.FrameSize()
	if rp.MaxFrame() > frameSize {
		frameSize = rp.MaxFrame()
	}

	rt := nfs.NewRouter()
	if err := rt.AddRoute(0, 0, 1); err != nil {
		t.Fatalf("AddRoute: %v", err)
	}
	e, cancel, wg := buildEngine(t, frameSize,
		[]nfs.Processor{nfs.NewFirewall(nfs.Accept), nfs.NewDPI([][]byte{[]byte("malware")}, false)},
		[]nfs.Processor{nfs.NewFirewall(nfs.Accept), rt})

	var syns frontend.SyntheticStats
	var rps frontend.ReplayStats
	var prod sync.WaitGroup
	prod.Add(2)
	go func() { defer prod.Done(); syns = syn.Run(context.Background(), e) }()
	go func() { defer prod.Done(); rps = rp.Run(context.Background(), e) }()
	prod.Wait()

	offered := syns.Offered + rps.Offered
	waitAccounted(t, e, offered, 60*time.Second)
	cancel()
	wg.Wait()

	l := e.LedgerSnapshot()
	if l.Residual() != 0 {
		t.Fatalf("ledger residual %d: %+v", l.Residual(), l)
	}
	if syns.Rejected != 0 || rps.Rejected != 0 {
		t.Fatalf("producers gave up on %d+%d packets", syns.Rejected, rps.Rejected)
	}
	distinct := syns.Flows + rpFlows
	if !testing.Short() && distinct < 1_000_000 {
		t.Fatalf("only %d distinct flows crossed the table", distinct)
	}
	// The synthetic generator classifies once per flow (at arm time); the
	// replay classifies every record it offers.
	if got, want := dir.Table.Lookups(), syns.Flows+rps.Offered; got < want {
		t.Fatalf("flow table lookups %d < %d", got, want)
	}
	// The bounded table must have survived the sweep within its cap, and
	// with > 1M distinct flows through a 1M-entry table, evicted something.
	if dir.Table.Len() > dir.Table.Capacity() {
		t.Fatalf("table over capacity: %d > %d", dir.Table.Len(), dir.Table.Capacity())
	}
	if !testing.Short() && dir.Table.Evictions.Load() == 0 {
		t.Fatal("expected evictions with flows exceeding table capacity")
	}
	if l.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", l)
	}
	t.Logf("flows=%d offered=%d delivered=%d entry_drops=%d mid_ring=%d evictions=%d",
		distinct, offered, l.Delivered, l.EntryDrops, l.MidRingDrops, dir.Table.Evictions.Load())
}

package dataplane

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testPerFlowFIFO drives seq-stamped packets from several flows through a
// 3-stage chain, stage i on core i mod cores, and asserts every flow's
// packets are delivered in injection order. This pins the FIFO contract: a
// flow's path is a fixed stage sequence, every ring on it is FIFO, each hop
// is published by the one worker that processed the packets, and each tx
// ring has exactly one consumer (its owning mover), so per-flow order
// survives any number of movers and cores. With one mover it also pins the
// sink's single-caller promise: however many cores forward, only that
// mover ever enters the sink, so no two calls overlap.
func testPerFlowFIFO(t *testing.T, movers, cores int) {
	const (
		flows = 4
		total = 20000
	)
	e := New(Config{RingSize: 1024, BatchSize: 32, WeightPeriod: 0, Movers: movers,
		Cores: cores, FrameSize: 8})
	a := e.AddStageOn("a", 1024, 0, func(p *Packet) {})
	b := e.AddStageOn("b", 1024, 1%cores, func(p *Packet) {})
	c := e.AddStageOn("c", 1024, 2%cores, func(p *Packet) {})
	ch, err := e.AddChain(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < flows; f++ {
		e.MapFlow(f, ch)
	}

	// The sink may run concurrently when movers > 1; guard the per-flow
	// order state with a mutex (PutPacket itself is concurrency-safe).
	var (
		mu       sync.Mutex
		lastSeq  [flows]int
		gotCount int
		violated string
	)
	for f := range lastSeq {
		lastSeq[f] = -1
	}
	var inSink atomic.Int32
	var overlapped atomic.Bool
	done := make(chan struct{})
	e.SetSink(func(ps []*Packet) {
		if inSink.Add(1) > 1 {
			overlapped.Store(true)
		}
		defer inSink.Add(-1)
		mu.Lock()
		for _, p := range ps {
			seq := seqOf(p)
			if seq <= lastSeq[p.FlowID] && violated == "" {
				violated = "flow " + string(rune('0'+p.FlowID)) +
					": delivered out of order"
			}
			lastSeq[p.FlowID] = seq
			gotCount++
		}
		fin := gotCount == total
		mu.Unlock()
		for _, p := range ps {
			e.PutPacket(p)
		}
		if fin {
			close(done)
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() { e.Run(ctx); close(runDone) }()

	// One producer goroutine on one lane, flows interleaved round-robin.
	// The closed-loop window stays below every ring's capacity and the
	// high watermark, so nothing is shed at entry, no mid-chain ring can
	// overflow, and every sequence number is delivered.
	const inflight = 512
	h := e.ProducerHandle(0)
	injected := 0
	for seq := 0; seq < total/flows; seq++ {
		for f := 0; f < flows; f++ {
			for {
				mu.Lock()
				got := gotCount
				mu.Unlock()
				if injected-got < inflight {
					break
				}
				runtime.Gosched()
			}
			p := e.GetPacket()
			p.FlowID = f
			setSeq(p, seq)
			offer(h, p)
			injected++
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		got := gotCount
		mu.Unlock()
		t.Fatalf("timeout: delivered %d/%d", got, total)
	}
	cancel()
	<-runDone

	mu.Lock()
	defer mu.Unlock()
	if violated != "" {
		t.Fatal(violated)
	}
	if movers == 1 && overlapped.Load() {
		t.Error("two sink calls in flight at once with one mover")
	}
	for f := 0; f < flows; f++ {
		if want := total/flows - 1; lastSeq[f] != want {
			t.Errorf("flow %d: last seq = %d, want %d", f, lastSeq[f], want)
		}
	}
}

// TestPerFlowFIFOThreeStageChain is the end-to-end ordering regression for
// the single-mover TX path.
func TestPerFlowFIFOThreeStageChain(t *testing.T) { testPerFlowFIFO(t, 1, 1) }

// TestPerFlowFIFOThreeStageChainMovers4 repeats the ordering regression
// with the TX path sharded four ways.
func TestPerFlowFIFOThreeStageChainMovers4(t *testing.T) { testPerFlowFIFO(t, 4, 1) }

// TestPerFlowFIFOTwoCoresOneMover spreads the chain over two scheduler
// cores, so hops are published from two goroutines at once, while one mover
// owns every exit: order holds per flow and the sink is never re-entered.
func TestPerFlowFIFOTwoCoresOneMover(t *testing.T) { testPerFlowFIFO(t, 1, 2) }

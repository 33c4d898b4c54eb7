package dataplane

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchConfig is shared by the steady-state benchmarks so pre/post
// comparisons measure the same topology.
func benchConfig() Config {
	return Config{RingSize: 4096, BatchSize: 256, WeightPeriod: 0}
}

// benchInflight bounds the closed-loop window. Keeping it below every ring's
// high watermark guarantees zero drops, so exactly b.N packets cross the
// pipeline and the benchmark is deterministic.
const benchInflight = 1024

// benchBatch is the injection batch size for the bulk path.
const benchBatch = 64

func newBenchEngine(b *testing.B, stages int) *Engine {
	return newBenchEngineCfg(b, stages, benchConfig())
}

// newBenchEngineMovers builds the multi-core scaling topology: `movers` TX
// shards AND `movers` scheduler cores with the stages spread across them
// (stage i → core i mod movers), so added shards bring real parallelism
// instead of time-sharing one scheduler loop. Single-mover configs reduce
// to the serial topology the other benchmarks use.
func newBenchEngineMovers(b *testing.B, stages, movers int) *Engine {
	cfg := benchConfig()
	cfg.Movers = movers
	cfg.Cores = movers
	e := New(cfg)
	ids := make([]int, stages)
	for i := range ids {
		ids[i] = e.AddStageOn("nf"+string(rune('a'+i)), 1024, i%movers, func(p *Packet) {})
	}
	ch, err := e.AddChain(ids...)
	if err != nil {
		b.Fatal(err)
	}
	e.MapFlow(0, ch)
	return e
}

func newBenchEngineCfg(b *testing.B, stages int, cfg Config) *Engine {
	e := New(cfg)
	ids := make([]int, stages)
	for i := range ids {
		ids[i] = e.AddStage("nf"+string(rune('a'+i)), 1024, func(p *Packet) {})
	}
	ch, err := e.AddChain(ids...)
	if err != nil {
		b.Fatal(err)
	}
	e.MapFlow(0, ch)
	return e
}

func reportRate(b *testing.B, elapsed time.Duration) {
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "pps")
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/pkt")
	}
}

// closedLoop pushes total packets through h in benchBatch bursts, keeping at
// most benchInflight of them undelivered, and returns how long it took for
// the sink to count them all. A lane-full tail goes back to the producer's
// cache and is retried with fresh descriptors on the next pass.
func closedLoop(e *Engine, h *ProducerHandle, received *atomic.Int64, total int) time.Duration {
	cache := e.NewPacketCache(2 * benchBatch)
	batch := make([]*Packet, benchBatch)
	start := time.Now()
	injected := 0
	for int(received.Load()) < total {
		n := min(total-injected, benchBatch)
		if n > 0 && injected-int(received.Load()) < benchInflight {
			for i := 0; i < n; i++ {
				p := cache.Get()
				p.FlowID = 0
				p.Size = 64
				batch[i] = p
			}
			k := h.InjectBatch(batch[:n])
			injected += k
			for _, p := range batch[k:n] {
				cache.Put(p)
			}
		} else {
			runtime.Gosched()
		}
	}
	return time.Since(start)
}

// runChainBench drives b.N packets through a chain of `stages` no-op stages
// on the batch-amortized hot path — PacketCache allocation, lane injection,
// Sink delivery, recycling — and reports pps and ns/pkt. The handler is a
// no-op so the measurement isolates framework overhead: lane enqueue, entry
// routing, ring transfer per hop, scheduling, movement, delivery and
// recycling.
func runChainBench(b *testing.B, stages int) {
	runChainBenchEngine(b, newBenchEngine(b, stages))
}

func runChainBenchEngine(b *testing.B, e *Engine) {
	var received atomic.Int64
	sinkCache := e.NewPacketCache(2 * benchBatch)
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			sinkCache.Put(p)
		}
		received.Add(int64(len(ps)))
	})
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	b.ReportAllocs()
	b.ResetTimer()
	reportRate(b, closedLoop(e, h, &received, b.N))
}

// BenchmarkInjectSteadyState measures the full inject→process→deliver path
// through a single no-op stage on the batch-amortized hot path.
func BenchmarkInjectSteadyState(b *testing.B) { runChainBench(b, 1) }

// BenchmarkChain3Stages measures a three-stage service chain: each packet
// crosses four rings (entry + two hops + delivery).
func BenchmarkChain3Stages(b *testing.B) { runChainBench(b, 3) }

// BenchmarkChain3StagesSampled is the flight-recorder overhead gate: the
// same 3-stage chain with 1-in-1024 span sampling armed. The unsampled
// 1023/1024 of packets pay only the per-batch sequence add and a nil span
// check per hop, so this must stay within a few percent of the unsampled
// BenchmarkChain3Stages.
func BenchmarkChain3StagesSampled(b *testing.B) {
	cfg := benchConfig()
	cfg.TraceSampleShift = 10 // 1 in 1024
	runChainBenchEngine(b, newBenchEngineCfg(b, 3, cfg))
}

// runChainBenchMovers is the multi-core variant of runChainBench: a
// 3-stage chain with the TX path sharded across `movers` shards and the
// scheduler spread over as many cores. With Movers > 1 the sink runs
// concurrently, so delivery recycles through the batch freelist path
// (PutPacketBatch); every sweep point uses the same sink so the curve
// isolates mover parallelism, not recycle-path differences.
func runChainBenchMovers(b *testing.B, stages, movers int) {
	e := newBenchEngineMovers(b, stages, movers)
	var received atomic.Int64
	e.SetSink(func(ps []*Packet) {
		e.PutPacketBatch(ps)
		received.Add(int64(len(ps)))
	})
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	b.ReportAllocs()
	b.ResetTimer()
	reportRate(b, closedLoop(e, h, &received, b.N))
}

// BenchmarkChain3StagesMovers is the multi-core curve: the same 3-stage
// chain at 1, 2 and 4 movers, with the scheduler cores scaled alongside.
// Movers carry only lanes in and exits out, so the extra shards add little;
// the extra cores are what can scale (and time-share on fewer CPUs).
func BenchmarkChain3StagesMovers(b *testing.B) {
	for _, m := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(m), func(b *testing.B) {
			runChainBenchMovers(b, 3, m)
		})
	}
}

// runFanIn drives b.N packets from `producers` concurrent goroutines, each
// on its own lane, into one single-stage chain and reports the aggregate
// rate: the cost of entry fan-in when no two producers share a ring.
func runFanIn(b *testing.B, producers int) {
	e := newBenchEngineMovers(b, 1, 1)
	var received atomic.Int64
	e.SetSink(func(ps []*Packet) {
		e.PutPacketBatch(ps)
		received.Add(int64(len(ps)))
	})
	handles := make([]*ProducerHandle, producers)
	for i := range handles {
		handles[i] = e.ProducerHandle(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	var injected atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for _, h := range handles {
		wg.Add(1)
		go func(h *ProducerHandle) {
			defer wg.Done()
			cache := e.NewPacketCache(2 * benchBatch)
			batch := make([]*Packet, benchBatch)
			for {
				have := int(injected.Load())
				n := min(b.N-have, benchBatch)
				if n <= 0 {
					return
				}
				if have-int(received.Load()) >= benchInflight {
					runtime.Gosched()
					continue
				}
				// Reserve our slice of the budget optimistically; if
				// another producer got there first, go round again.
				if !injected.CompareAndSwap(int64(have), int64(have+n)) {
					continue
				}
				for i := 0; i < n; i++ {
					p := cache.Get()
					p.FlowID = 0
					p.Size = 64
					batch[i] = p
				}
				// The lane keeps what it accepted; spin the rejected tail
				// back in (transient per-producer backpressure).
				for rem := batch[:n]; len(rem) > 0; {
					rem = rem[h.InjectBatch(rem):]
					if len(rem) > 0 {
						runtime.Gosched()
					}
				}
			}
		}(h)
	}
	wg.Wait()
	for int(received.Load()) < int(injected.Load()) {
		runtime.Gosched()
	}
	reportRate(b, time.Since(start))
}

// BenchmarkFanIn4Producers measures 4-producer entry fan-in: four lanes
// drained by one mover into one entry ring.
func BenchmarkFanIn4Producers(b *testing.B) { runFanIn(b, 4) }

// newBenchEngineMoversT is newBenchEngineMovers for tests.
func newBenchEngineMoversT(t *testing.T, stages, movers int) *Engine {
	cfg := benchConfig()
	cfg.Movers = movers
	cfg.Cores = movers
	e := New(cfg)
	ids := make([]int, stages)
	for i := range ids {
		ids[i] = e.AddStageOn("nf"+string(rune('a'+i)), 1024, i%movers, func(p *Packet) {})
	}
	ch, err := e.AddChain(ids...)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)
	return e
}

// zeroAllocGate is the body of the allocation gates: a 256-packet burst
// through h, waited out to delivery, must not allocate once the freelist is
// warm — descriptors come from the freelist and every lane, counter, stamp
// and ring operation is allocation-free.
func zeroAllocGate(t *testing.T, e *Engine, h *ProducerHandle, received *atomic.Int64) {
	t.Helper()
	cache := e.NewPacketCache(512)
	batch := make([]*Packet, 256)
	sent := 0
	push := func() {
		for i := range batch {
			p := cache.Get()
			p.FlowID = 0
			p.Size = 64
			batch[i] = p
		}
		for rem := batch; len(rem) > 0; rem = rem[h.InjectBatch(rem):] {
		}
		sent += len(batch)
		for int(received.Load()) < sent {
			runtime.Gosched()
		}
	}
	// Warm the freelist and reach steady state before measuring.
	for i := 0; i < 8; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(50, push)
	if perPacket := allocs / float64(len(batch)); perPacket > 0.01 {
		t.Fatalf("steady state allocates: %.4f allocs/packet (%.1f per %d-packet batch)",
			perPacket, allocs, len(batch))
	}
}

// TestSteadyStateZeroAllocs is the allocation gate for the hot path: after
// warm-up, pushing packets through a running chain must not allocate. CI
// fails on any regression here.
func TestSteadyStateZeroAllocs(t *testing.T) {
	e := New(benchConfig())
	a := e.AddStage("a", 1024, func(p *Packet) {})
	bID := e.AddStage("b", 1024, func(p *Packet) {})
	ch, err := e.AddChain(a, bID)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)
	var received atomic.Int64
	sinkCache := e.NewPacketCache(512)
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			sinkCache.Put(p)
		}
		received.Add(int64(len(ps)))
	})
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)
	zeroAllocGate(t, e, h, &received)
}

// TestSteadyStateZeroAllocsMovers2 holds the allocation gate on the
// sharded TX path: with two movers sweeping concurrently (park/wake ladder
// included) the steady state must still not allocate. Delivery recycles
// via PutPacket because the sink runs on two mover goroutines.
func TestSteadyStateZeroAllocsMovers2(t *testing.T) {
	cfg := benchConfig()
	cfg.Movers = 2
	e := New(cfg)
	a := e.AddStage("a", 1024, func(p *Packet) {})
	bID := e.AddStage("b", 1024, func(p *Packet) {})
	ch, err := e.AddChain(a, bID)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)
	var received atomic.Int64
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
		received.Add(int64(len(ps)))
	})
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)
	zeroAllocGate(t, e, h, &received)
}

// TestSteadyStateZeroAllocsMovers4 is the allocation gate for the full
// scaling path: four movers over four scheduler cores (drain-time routing,
// adaptive batch, recycler flushes), delivery through PutPacketBatch. The
// whole lane→route→process→move→deliver→recycle loop must stay
// allocation-free.
func TestSteadyStateZeroAllocsMovers4(t *testing.T) {
	e := newBenchEngineMoversT(t, 2, 4)
	var received atomic.Int64
	e.SetSink(func(ps []*Packet) {
		e.PutPacketBatch(ps)
		received.Add(int64(len(ps)))
	})
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)
	zeroAllocGate(t, e, h, &received)
}

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
// comparisons in BENCH_dataplane.json measure the same topology.
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

// runChainBench drives b.N packets through a chain of `stages` no-op stages
// on the batch-amortized hot path — PacketCache allocation, InjectBatch
// injection, Sink delivery, recycling — and reports pps and ns/pkt. The
// handler is a no-op so the measurement isolates framework overhead:
// injection, ring transfer per hop, scheduling, movement, delivery and
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	cache := e.NewPacketCache(2 * benchBatch)
	batch := make([]*Packet, benchBatch)

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	injected := 0
	for int(received.Load()) < b.N {
		n := b.N - injected
		if n > benchBatch {
			n = benchBatch
		}
		if n > 0 && injected-int(received.Load()) < benchInflight {
			for i := 0; i < n; i++ {
				p := cache.Get()
				p.FlowID = 0
				p.Size = 64
				batch[i] = p
			}
			injected += e.InjectBatch(batch[:n])
		} else {
			runtime.Gosched()
		}
	}
	reportRate(b, time.Since(start))
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
// 3-stage chain with the TX path sharded across `movers` shards, the
// scheduler spread over as many cores, and injection through a registered
// ProducerHandle lane (the contention-free entry path the scaling work
// added). With Movers > 1 the sink runs concurrently, so delivery recycles
// through the batch freelist path (PutPacketBatch); every sweep point uses
// the same sink so the curve isolates mover parallelism, not recycle-path
// differences.
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

	cache := e.NewPacketCache(2 * benchBatch)
	batch := make([]*Packet, benchBatch)

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	injected := 0
	for int(received.Load()) < b.N {
		n := b.N - injected
		if n > benchBatch {
			n = benchBatch
		}
		if n > 0 && injected-int(received.Load()) < benchInflight {
			for i := 0; i < n; i++ {
				p := cache.Get()
				p.FlowID = 0
				p.Size = 64
				batch[i] = p
			}
			k := h.InjectBatch(batch[:n])
			injected += k
			// The lane kept what it accepted; recycle nothing — the
			// rejected tail is retried next pass via fresh Gets, so
			// return it to the cache.
			for _, p := range batch[k:n] {
				cache.Put(p)
			}
		} else {
			runtime.Gosched()
		}
	}
	reportRate(b, time.Since(start))
}

// BenchmarkChain3StagesMovers is the multi-core scaling gate for the
// sharded TX path: the same 3-stage chain at 1, 2 and 4 movers, with the
// scheduler cores scaled alongside and injection on the lane path. On a
// ≥4-CPU runner the 4-mover point must reach ≥2.8× the single-mover pps
// (TestMoverScalingGate enforces it); on fewer CPUs the curve flattens
// (the shards time-share) but must not collapse below the serial mover.
func BenchmarkChain3StagesMovers(b *testing.B) {
	for _, m := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(m), func(b *testing.B) {
			runChainBenchMovers(b, 3, m)
		})
	}
}

// runFanIn drives b.N packets from `producers` concurrent goroutines into
// one single-stage chain and reports the aggregate rate. The shared variant
// funnels every producer through Engine.InjectBatch — all of them CASing on
// the entry ring's reservation index — while the lanes variant gives each
// producer a private SPSC lane; the gap between the two is the entry-side
// fan-in contention the lanes eliminate.
func runFanIn(b *testing.B, producers int, lanes bool) {
	e := newBenchEngineMovers(b, 1, 1)
	var received atomic.Int64
	e.SetSink(func(ps []*Packet) {
		e.PutPacketBatch(ps)
		received.Add(int64(len(ps)))
	})
	handles := make([]*ProducerHandle, producers)
	if lanes {
		for i := range handles {
			handles[i] = e.ProducerHandle(0)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	var injected atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			cache := e.NewPacketCache(2 * benchBatch)
			batch := make([]*Packet, benchBatch)
			for {
				have := int(injected.Load())
				n := b.N - have
				if n <= 0 {
					return
				}
				if n > benchBatch {
					n = benchBatch
				}
				if have-int(received.Load()) >= benchInflight {
					runtime.Gosched()
					continue
				}
				// Reserve our slice of the budget optimistically; if
				// another producer got there first the ring/lane feedback
				// self-limits via the inflight window.
				if !injected.CompareAndSwap(int64(have), int64(have+n)) {
					continue
				}
				for i := 0; i < n; i++ {
					p := cache.Get()
					p.FlowID = 0
					p.Size = 64
					batch[i] = p
				}
				if lanes {
					// The lane keeps what it accepted; spin the rejected
					// tail back in (transient per-producer backpressure).
					rem := batch[:n]
					for len(rem) > 0 {
						rem = rem[handles[pi].InjectBatch(rem):]
						if len(rem) > 0 {
							runtime.Gosched()
						}
					}
				} else {
					// Engine.InjectBatch consumes the whole slice; sheds
					// (none expected under the inflight window) recycle
					// internally and shrink the effective budget.
					if k := e.InjectBatch(batch[:n]); k < n {
						injected.Add(int64(k - n))
					}
				}
			}
		}(pi)
	}
	wg.Wait()
	for int(received.Load()) < int(injected.Load()) {
		runtime.Gosched()
	}
	reportRate(b, time.Since(start))
}

// BenchmarkFanIn4Producers measures 4-producer entry fan-in on both entry
// paths. The contention gap only shows on multi-CPU hosts; on one CPU the
// two converge (producers time-share instead of CASing concurrently).
func BenchmarkFanIn4Producers(b *testing.B) {
	b.Run("shared", func(b *testing.B) { runFanIn(b, 4, false) })
	b.Run("lanes", func(b *testing.B) { runFanIn(b, 4, true) })
}

// TestMoverScalingGate is the CI scaling gate in test form: it runs the
// 3-stage closed loop at 1 and 4 movers (cores scaled alongside) and
// requires the 4-mover point to reach ≥2.8× the single-mover throughput on
// a ≥4-CPU runner, best of three attempts. On smaller hosts the shards
// time-share one CPU, so the gate only demands flat-not-collapsed (≥0.7×).
func TestMoverScalingGate(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling gate skipped in -short mode")
	}
	const pkts = 200_000
	run := func(movers int) float64 {
		e := newBenchEngineMoversT(t, 3, movers)
		var received atomic.Int64
		e.SetSink(func(ps []*Packet) {
			e.PutPacketBatch(ps)
			received.Add(int64(len(ps)))
		})
		h := e.ProducerHandle(0)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go e.Run(ctx)
		cache := e.NewPacketCache(2 * benchBatch)
		batch := make([]*Packet, benchBatch)
		start := time.Now()
		injected := 0
		for int(received.Load()) < pkts {
			n := pkts - injected
			if n > benchBatch {
				n = benchBatch
			}
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
		return float64(pkts) / time.Since(start).Seconds()
	}
	cpus := runtime.NumCPU()
	want := 2.8
	if cpus < 4 {
		want = 0.7
	}
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		base := run(1)
		wide := run(4)
		if base > 0 {
			if r := wide / base; r > best {
				best = r
			}
		}
		if best >= want {
			break
		}
	}
	if best < want {
		t.Fatalf("mover scaling 4v1 = %.2fx, want >= %.2fx (NumCPU=%d)", best, want, cpus)
	}
}

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

// TestSteadyStateZeroAllocs is the allocation gate for the hot path: after
// warm-up, pushing packets through a running chain must not allocate —
// descriptors come from the freelist and every counter, stamp and ring
// operation is allocation-free. CI fails on any regression here.
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

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
		sent += e.InjectBatch(batch)
		for int(received.Load()) < sent {
			runtime.Gosched()
		}
	}
	// Warm the freelist and reach steady state before measuring.
	for i := 0; i < 8; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(50, push)
	perPacket := allocs / float64(len(batch))
	if perPacket > 0.01 {
		t.Fatalf("steady state allocates: %.4f allocs/packet (%.1f per %d-packet batch)",
			perPacket, allocs, len(batch))
	}
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

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
		sent += e.InjectBatch(batch)
		for int(received.Load()) < sent {
			runtime.Gosched()
		}
	}
	for i := 0; i < 8; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(50, push)
	perPacket := allocs / float64(len(batch))
	if perPacket > 0.01 {
		t.Fatalf("sharded steady state allocates: %.4f allocs/packet (%.1f per %d-packet batch)",
			perPacket, allocs, len(batch))
	}
}

// TestSteadyStateZeroAllocsMovers4 is the allocation gate for the full
// scaling path: four movers over four scheduler cores, injection through a
// ProducerHandle lane (drain-time routing, adaptive batch, recycler
// flushes), delivery through PutPacketBatch. The whole
// lane→route→process→move→deliver→recycle loop must stay allocation-free.
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

	cache := e.NewPacketCache(512)
	batch := make([]*Packet, 256)
	sent := 0
	push := func() {
		remaining := len(batch)
		for remaining > 0 {
			for i := 0; i < remaining; i++ {
				p := cache.Get()
				p.FlowID = 0
				p.Size = 64
				batch[i] = p
			}
			k := h.InjectBatch(batch[:remaining])
			sent += k
			for _, p := range batch[k:remaining] {
				cache.Put(p)
			}
			remaining -= k
			for int(received.Load()) < sent {
				runtime.Gosched()
			}
		}
	}
	for i := 0; i < 8; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(50, push)
	perPacket := allocs / float64(len(batch))
	if perPacket > 0.01 {
		t.Fatalf("lane steady state allocates: %.4f allocs/packet (%.1f per %d-packet batch)",
			perPacket, allocs, len(batch))
	}
}

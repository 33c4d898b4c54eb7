package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"nfvnice/internal/dataplane"
)

// Sweep parameters mirror the committed BenchmarkChain3StagesMovers shape so
// the in-process numbers are comparable to the `go test -bench` ones: a
// 3-stage chain, closed-loop injection bounded below every ring's high
// watermark (zero drops, deterministic delivery), batch recycle through the
// shared freelist.
const (
	sweepStages   = 3
	sweepBatch    = 64
	sweepInflight = 1024
	sweepWarmup   = 100 * time.Millisecond
)

// sweepMovers drives the closed-loop 3-stage chain with the TX path sharded
// across the given mover count for roughly the measurement window, and
// reports the achieved rate plus per-packet heap allocations (freelist
// regressions show up here as allocs/op > 0).
func sweepMovers(movers int, window time.Duration) Result {
	e := dataplane.New(dataplane.Config{
		RingSize:  4096,
		BatchSize: 256,
		Movers:    movers,
	})
	ids := make([]int, sweepStages)
	for i := range ids {
		ids[i] = e.AddStage("nf"+string(rune('a'+i)), 1024, func(p *dataplane.Packet) {})
	}
	return runSweep(e, ids, window)
}

// sweepCores is the core-count scaling point: GOMAXPROCS is pinned to the
// core count for the whole measurement, and the engine runs one mover per
// core with the chain's stages spread across the cores. On a host with
// fewer physical CPUs than the pinned count the movers time-share and the
// curve flattens — the recorded maxprocs_host makes that visible next to
// the points.
func sweepCores(cores int, window time.Duration) Result {
	prev := runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(prev)
	e := dataplane.New(dataplane.Config{
		RingSize:  4096,
		BatchSize: 256,
		Cores:     cores,
		Movers:    cores,
	})
	ids := make([]int, sweepStages)
	for i := range ids {
		ids[i] = e.AddStageOn("nf"+string(rune('a'+i)), 1024, i%cores, func(p *dataplane.Packet) {})
	}
	return runSweep(e, ids, window)
}

// runSweep drives the prepared engine closed-loop, through one producer
// lane, for the warmup plus the measurement window.
func runSweep(e *dataplane.Engine, ids []int, window time.Duration) Result {
	ch, err := e.AddChain(ids...)
	if err != nil {
		panic(err)
	}
	e.MapFlow(0, ch)
	var received atomic.Int64
	e.SetSink(func(ps []*dataplane.Packet) {
		received.Add(int64(len(ps)))
		e.PutPacketBatch(ps)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	lane := e.ProducerHandle(0)
	cache := e.NewPacketCache(2 * sweepBatch)
	batch := make([]*dataplane.Packet, sweepBatch)
	// injected is cumulative across the warmup and measured phases — the
	// inflight window compares it against the cumulative delivery count.
	var injected int64
	inject := func(until time.Time) {
		for time.Now().Before(until) {
			if injected-received.Load() < sweepInflight {
				for i := range batch {
					p := cache.Get()
					p.FlowID = 0
					p.Size = 64
					batch[i] = p
				}
				k := lane.InjectBatch(batch)
				injected += int64(k)
				// Lane full: the rejected tail stays ours — recycle it.
				for _, p := range batch[k:] {
					cache.Put(p)
				}
			} else {
				runtime.Gosched()
			}
		}
		// Drain the window so the measured packet count is fully delivered.
		for received.Load() < injected {
			runtime.Gosched()
		}
	}

	inject(time.Now().Add(sweepWarmup))
	warm := received.Load()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	inject(start.Add(window))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	cancel()
	<-done

	n := received.Load() - warm
	if n <= 0 || elapsed <= 0 {
		return Result{}
	}
	if os.Getenv("SWEEP_DEBUG") != "" {
		fmt.Printf("debug: stats=%+v moverstats=%+v\n", e.Stats(), e.MoverStats())
	}
	return Result{
		NsPerPkt:    float64(elapsed.Nanoseconds()) / float64(n),
		PPS:         float64(n) / elapsed.Seconds(),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
}

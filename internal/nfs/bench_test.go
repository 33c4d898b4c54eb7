package nfs_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/nfs"
	"nfvnice/internal/proto"
)

// BenchmarkRealNFChain3 measures the paper's firewall→NAT→monitor service
// chain on the live engine — real header parsing, RFC 1624 incremental
// checksum rewrites, per-flow accounting — on the zero-copy frame path: wire
// bytes live in preallocated arena slots (Config.FrameSize) and NFs mutate
// them in place. TestRealNFChainZeroAllocs gates this path at 0 allocs/pkt.
//
// It uses the same closed-loop harness as internal/dataplane/bench_test.go
// (RingSize 4096, BatchSize 256, inflight window 1024) so ns/pkt deltas are
// attributable to the NFs, not the topology.

const (
	realBenchBatch    = 64
	realBenchInflight = 1024
	realBenchFlows    = 64
	realBenchPayload  = 1458 // 1500-byte MTU frame with Ethernet+IPv4+UDP headers
)

// realChainProcs builds fresh firewall→NAT→monitor processors. The NAT
// masquerades 10/8 sources behind one external address; the benchmark's
// bounded flow set keeps its binding tables at realBenchFlows entries.
func realChainProcs() []nfs.Processor {
	external := proto.Addr4(203, 0, 113, 1)
	return []nfs.Processor{
		nfs.NewFirewall(nfs.Accept),
		nfs.NewNAT(external, nil),
		nfs.NewMonitor(),
	}
}

// realTemplates prebuilds one valid Ethernet+IPv4+UDP frame per flow; the
// producer's per-packet work is a template memcpy into the frame — the same
// single copy a NIC's DMA would make at ingress.
func realTemplates() [][]byte {
	src := proto.MAC{2, 0, 0, 0, 0, 1}
	dst := proto.MAC{2, 0, 0, 0, 0, 2}
	payload := make([]byte, realBenchPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	tpls := make([][]byte, realBenchFlows)
	for f := range tpls {
		tpls[f] = proto.BuildUDP(src, dst,
			proto.Addr4(10, 0, 1, byte(f)), proto.Addr4(198, 51, 100, 7),
			uint16(40000+f), 53, payload)
	}
	return tpls
}

// newRealChainEngine assembles the live engine over the chain, its stages
// batch-adapted on arena frames of frameSize bytes.
func newRealChainEngine(tb testing.TB, frameSize int) *dataplane.Engine {
	tb.Helper()
	e := dataplane.New(dataplane.Config{
		RingSize:  4096,
		BatchSize: 256,
		FrameSize: frameSize,
	})
	ids := make([]int, 0, 3)
	for _, p := range realChainProcs() {
		ids = append(ids, e.AddBatchStage(p.Name(), 1024, nfs.AdaptBatch(p)))
	}
	ch, err := e.AddChain(ids...)
	if err != nil {
		tb.Fatal(err)
	}
	e.MapFlow(0, ch)
	return e
}

// runRealChainBench is the closed-loop driver: b.N packets cross the chain
// with a bounded inflight window; fill copies flow f's template into the
// descriptor's arena frame.
func runRealChainBench(b *testing.B, e *dataplane.Engine, fill func(p *dataplane.Packet, f int)) {
	var received atomic.Int64
	sinkCache := e.NewPacketCache(2 * realBenchBatch)
	e.SetSink(func(ps []*dataplane.Packet) {
		for _, p := range ps {
			sinkCache.Put(p)
		}
		received.Add(int64(len(ps)))
	})
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	cache := e.NewPacketCache(2 * realBenchBatch)
	batch := make([]*dataplane.Packet, realBenchBatch)

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	injected := 0
	for int(received.Load()) < b.N {
		n := b.N - injected
		if n > realBenchBatch {
			n = realBenchBatch
		}
		if n > 0 && injected-int(received.Load()) < realBenchInflight {
			for i := 0; i < n; i++ {
				p := cache.Get()
				p.FlowID = 0
				fill(p, (injected+i)%realBenchFlows)
				batch[i] = p
			}
			k := h.InjectBatch(batch[:n])
			injected += k
			for _, p := range batch[k:n] {
				cache.Put(p) // lane full: the tail is ours, refill it next pass
			}
		} else {
			runtime.Gosched()
		}
	}
	elapsed := time.Since(start)
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "pps")
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/pkt")
	}
}

// fillFrame copies the template into the packet's arena frame in place.
func fillFrame(tpls [][]byte) func(p *dataplane.Packet, f int) {
	return func(p *dataplane.Packet, f int) {
		tpl := tpls[f]
		buf := p.Frame[:cap(p.Frame)]
		n := copy(buf, tpl)
		p.Frame = buf[:n]
		p.Size = n
	}
}

// BenchmarkRealNFChain3 measures firewall→NAT→monitor on arena frames: the
// zero-copy path the engine now runs real NFs on at line rate.
func BenchmarkRealNFChain3(b *testing.B) {
	tpls := realTemplates()
	e := newRealChainEngine(b, len(tpls[0]))
	runRealChainBench(b, e, fillFrame(tpls))
}

// TestRealNFChainZeroAllocs is the allocation gate for real NFs on the
// frame path: once the NAT and monitor flow tables are warm, pushing
// packets through the live firewall→NAT→monitor chain must not allocate —
// frames ride arena slots and verdicts route through Packet.Drop. CI fails
// on any regression here.
func TestRealNFChainZeroAllocs(t *testing.T) {
	tpls := realTemplates()
	e := newRealChainEngine(t, len(tpls[0]))
	fill := fillFrame(tpls)
	var received atomic.Int64
	sinkCache := e.NewPacketCache(512)
	e.SetSink(func(ps []*dataplane.Packet) {
		for _, p := range ps {
			sinkCache.Put(p)
		}
		received.Add(int64(len(ps)))
	})
	h := e.ProducerHandle(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	cache := e.NewPacketCache(512)
	batch := make([]*dataplane.Packet, 256)
	sent := 0
	push := func() {
		for i := range batch {
			p := cache.Get()
			p.FlowID = 0
			fill(p, (sent+i)%realBenchFlows)
			batch[i] = p
		}
		for rem := batch; len(rem) > 0; rem = rem[h.InjectBatch(rem):] {
		}
		sent += len(batch)
		for int(received.Load()) < sent {
			runtime.Gosched()
		}
	}
	// Warm the freelist, the NAT bindings and the monitor flow table.
	for i := 0; i < 8; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(50, push)
	perPacket := allocs / float64(len(batch))
	if perPacket > 0.01 {
		t.Fatalf("real-NF steady state allocates: %.4f allocs/packet (%.1f per %d-packet batch)",
			perPacket, allocs, len(batch))
	}
}

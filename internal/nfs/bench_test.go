package nfs_test

import (
	"context"
	"math"
	"math/rand"
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

// Shape of the churning real-NF workload: 1 024 live flows emitted
// round-robin, each a bounded-Pareto(1.2) number of packets in [1, 1024],
// their 5-tuples drawn in turn from a cycle of 32 768 distinct keys.
const (
	churnLive    = 1024
	churnKeys    = 32768
	churnPayload = 64
)

// churnFrames prebuilds one 64-byte-payload UDP frame per key, sources
// seeded at random in 10/8 toward one DNS server, as the workload draws them.
func churnFrames(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	src := proto.MAC{2, 0, 0, 0, 0, 1}
	dst := proto.MAC{2, 0, 0, 0, 0, 2}
	payload := make([]byte, churnPayload)
	seen := make(map[[2]uint32]bool, churnKeys)
	frames := make([][]byte, 0, churnKeys)
	for len(frames) < churnKeys {
		sip, sport := 0x0a000000|uint32(rng.Intn(1<<24)), uint32(1024+rng.Intn(60000))
		if seen[[2]uint32{sip, sport}] {
			continue
		}
		seen[[2]uint32{sip, sport}] = true
		frames = append(frames, proto.BuildUDP(src, dst, proto.IPv4Addr(sip), proto.Addr4(198, 51, 100, 7), uint16(sport), 53, payload))
	}
	return frames
}

// churnStream is the per-packet sequence of key indices the workload emits.
func churnStream(seed int64, n int) []int32 {
	rng := rand.New(rand.NewSource(seed))
	size := func() int {
		const a, l, h = 1.2, 1.0, 1024.0
		x := l / math.Pow(1-rng.Float64()*(1-math.Pow(l/h, a)), 1/a)
		return min(max(int(x), 1), 1024)
	}
	type slot struct{ key, remaining int }
	slots := make([]slot, churnLive)
	next := 0
	for i := range slots {
		slots[i] = slot{next % churnKeys, size()}
		next++
	}
	out := make([]int32, n)
	for i := range out {
		sl := &slots[i%churnLive]
		if sl.remaining == 0 {
			*sl = slot{next % churnKeys, size()}
			next++
		}
		sl.remaining--
		out[i] = int32(sl.key)
	}
	return out
}

// churnChain is the workload's firewall → NAT → monitor: eight deny rules
// no packet matches ahead of a default accept.
func churnChain() []nfs.Processor {
	fw := nfs.NewFirewall(nfs.Accept)
	for i := 0; i < 8; i++ {
		fw.AddRule(nfs.FirewallRule{
			SrcAddr: proto.Addr4(192, 168, byte(i), 0), SrcPrefixLen: 24,
			DstPortLo: 6000, DstPortHi: 6063, Proto: proto.IPProtoUDP, Action: nfs.Drop,
		})
	}
	return []nfs.Processor{fw, nfs.NewNAT(proto.Addr4(203, 0, 113, 1), nil), nfs.NewMonitor()}
}

// runChurn pushes the stream's packets from i on through the chain, each
// on a fresh copy of its flow's frame (the NAT rewrites in place).
func runChurn(procs []nfs.Processor, frames [][]byte, stream []int32, scratch []byte, i, n int) {
	for end := i + n; i < end; i++ {
		f := frames[stream[i%len(stream)]]
		copy(scratch, f)
		for _, p := range procs {
			if p.Process(scratch[:len(f)]) == nfs.Drop {
				panic("churn chain dropped a packet")
			}
		}
	}
}

// BenchmarkNFChainChurn times firewall → NAT → monitor per packet on the
// churning workload's flow mix, where the NF maps see tens of thousands of
// keys: the per-flow state cost that 64 resident flows cannot show.
func BenchmarkNFChainChurn(b *testing.B) {
	frames, stream := churnFrames(1), churnStream(1, 1<<20)
	procs := churnChain()
	scratch := make([]byte, len(frames[0]))
	runChurn(procs, frames, stream, scratch, 0, len(stream))
	b.ReportAllocs()
	b.ResetTimer()
	runChurn(procs, frames, stream, scratch, 0, b.N)
}

// TestNFChainChurnZeroAllocs is the allocation gate for flow state under
// churn: once every key has been seen, NAT bindings and monitor counters
// are updated in place, so no packet allocates.
func TestNFChainChurnZeroAllocs(t *testing.T) {
	frames, stream := churnFrames(1), churnStream(1, 1<<16)
	procs := churnChain()
	scratch := make([]byte, len(frames[0]))
	warm := make([]int32, churnKeys)
	for i := range warm {
		warm[i] = int32(i)
	}
	runChurn(procs, frames, warm, scratch, 0, len(warm))
	const perRun = 4096
	i := 0
	allocs := testing.AllocsPerRun(len(stream)/perRun, func() {
		runChurn(procs, frames, stream, scratch, i, perRun)
		i += perRun
	})
	if allocs != 0 {
		t.Fatalf("warm churn allocates: %.1f allocs per %d packets", allocs, perRun)
	}
}

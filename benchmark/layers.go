package main

import (
	"math/rand"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/flowtable"
	"nfvnice/internal/frontend"
	"nfvnice/internal/nfs"
	"nfvnice/internal/packet"
	"nfvnice/internal/proto"
	"nfvnice/internal/ring"
)

// isolatedCalls times about a million calls into each of the layers a packet
// crosses, one layer at a time and with nothing else running: the first
// rungs of the cost ladder. A traced run reports them next to the in-place
// numbers so a change in one layer can be told from a change in how the
// layers meet. quick cuts the call count for the smoke test.
func isolatedCalls(seed int64, quick bool) map[string]float64 {
	calls := 1 << 20
	if quick {
		calls = 1 << 12
	}
	out := map[string]float64{}
	perCall := func(name string, n int, fn func()) {
		t0 := time.Now()
		fn()
		out[name] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	const batch = 32

	spsc := ring.NewSPSC[uint64](1024)
	mpmc := ring.NewMPMC[uint64](1024)
	var in, outBuf [batch]uint64
	perCall("ring.spsc_ns_per_pkt", calls, func() {
		for i := 0; i < calls; i += batch {
			spsc.EnqueueBatch(in[:])
			spsc.DequeueBatch(outBuf[:])
		}
	})
	perCall("ring.mpmc_ns_per_pkt", calls, func() {
		for i := 0; i < calls; i += batch {
			mpmc.EnqueueBatch(in[:])
			mpmc.DequeueBatch(outBuf[:])
		}
	})

	// An engine that never runs still owns a freelist and an arena.
	e := dataplane.New(dataplane.Config{RingSize: 256, FrameSize: 64})
	cache := e.NewPacketCache(2 * batch)
	pkts := make([]*dataplane.Packet, batch)
	perCall("dataplane.pool.getput_ns_per_pkt", calls, func() {
		for i := 0; i < calls; i += batch {
			for j := range pkts {
				pkts[j] = cache.Get()
			}
			e.PutPacketBatch(pkts)
		}
	})

	// 64 resident frames, as a director and the NFs would see them.
	rng := rand.New(rand.NewSource(seed))
	const nFrames, payloadLen = 64, 64
	payload := make([]byte, payloadLen)
	frames := make([][]byte, nFrames)
	keys := make([]packet.FlowKey, nFrames)
	for i := range frames {
		keys[i] = packet.FlowKey{
			SrcIP: 0x0a000000 | uint32(rng.Intn(1<<24)), DstIP: uint32(proto.Addr4(198, 51, 100, 7)),
			SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 53, Proto: packet.UDP,
		}
		frontend.FillPayload(uint64(i), payload)
		frames[i] = make([]byte, udpHeaders+payloadLen)
		proto.EncodeUDP(frames[i], srcMAC, dstMAC, proto.IPv4Addr(keys[i].SrcIP), proto.IPv4Addr(keys[i].DstIP),
			keys[i].SrcPort, keys[i].DstPort, payload)
	}
	scratch := make([]byte, udpHeaders+payloadLen)
	perCall("proto.encode_ns_per_pkt", calls, func() {
		for i := 0; i < calls; i++ {
			k := &keys[i%nFrames]
			proto.EncodeUDP(scratch, srcMAC, dstMAC, proto.IPv4Addr(k.SrcIP), proto.IPv4Addr(k.DstIP), k.SrcPort, k.DstPort, payload)
		}
	})

	dir := frontend.NewDirector(1, 4096)
	for _, k := range keys {
		dir.ChainOf(k)
	}
	perCall("frontend.chainof_ns_per_pkt", calls, func() {
		for i := 0; i < calls; i++ {
			if k, ok := frontend.FlowKeyOf(frames[i%nFrames]); ok {
				dir.ChainOf(k)
			}
		}
	})

	chainOf := func(packet.FlowKey) int { return 0 }
	perCall("flowtable.hit_ns", calls, func() {
		for i := 0; i < calls; i++ {
			dir.Table.LookupOrInsert(keys[i%nFrames], chainOf)
		}
	})
	// Every key is new to a table that is already full: lookup, insert, evict.
	small := flowtable.NewSharded(64, 512)
	k := packet.FlowKey{DstIP: uint32(proto.Addr4(198, 51, 100, 7)), DstPort: 53, Proto: packet.UDP}
	perCall("flowtable.miss_ns", calls, func() {
		for i := 0; i < calls; i++ {
			k.SrcIP = 0x0a000000 | uint32(i)
			small.LookupOrInsert(k, chainOf)
		}
	})

	// The NFs rewrite frames in place, so each call works on a fresh copy;
	// the copy (106 bytes) is part of every NF's figure alike.
	fw := nfs.NewFirewall(nfs.Accept)
	for _, r := range firewallRules() {
		fw.AddRule(r)
	}
	for _, nf := range []struct {
		name string
		p    nfs.Processor
	}{
		{"nfs.firewall_ns_per_pkt", fw},
		{"nfs.nat_ns_per_pkt", nfs.NewNAT(natExternal, nil)},
		{"nfs.monitor_ns_per_pkt", nfs.NewMonitor()},
	} {
		perCall(nf.name, calls, func() {
			for i := 0; i < calls; i++ {
				copy(scratch, frames[i%nFrames])
				nf.p.Process(scratch)
			}
		})
	}
	return out
}

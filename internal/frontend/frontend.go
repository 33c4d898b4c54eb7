// Package frontend provides real ingress for the live dataplane: producers
// that fill preallocated arena frames (Config.FrameSize) in place and feed
// them through per-producer inject lanes, so real NF chains see wire bytes
// without a copy or an allocation on the steady-state path.
//
// Two frontends cover the paper's evaluation traffic:
//
//   - Replay streams a pcap trace at maximum rate, copying each record's
//     bytes into an arena frame (the software analogue of NIC DMA — the
//     single unavoidable copy at ingress).
//   - Synthetic generates seeded traffic with heavy-tailed flow sizes
//     (bounded Pareto, the distribution "Benchmarking NFV Software
//     Dataplanes" uses for realistic mixes), building Ethernet+IPv4+UDP
//     frames in place and cycling a bounded working set of live flows so a
//     run can cross millions of distinct flows with constant memory.
//
// Both classify every frame's 5-tuple through the concurrent flow table
// (flowtable.Sharded) — OpenNetVM's flow-director role — and route by
// setting Packet.FlowID to the resolved chain. Callers pre-map chain i to
// flow i (engine.MapFlow(i, i)), keeping the engine's flow map tiny while
// the flow table absorbs the millions of real 5-tuples.
package frontend

import (
	"math/bits"

	"nfvnice/internal/flowtable"
	"nfvnice/internal/packet"
	"nfvnice/internal/proto"
)

// Director resolves frames to service chains through the shared concurrent
// flow table: resident flows hit the table; new flows are installed
// hash-spread across the chains, so a flow's chain assignment is sticky for
// as long as it stays resident (and deterministically re-derived if random
// replacement evicted it).
type Director struct {
	Table  *flowtable.Sharded
	Chains int
}

// NewDirector returns a director over a fresh sharded table bounded at
// capacity entries, spreading flows across nChains chains.
func NewDirector(nChains, capacity int) *Director {
	if nChains < 1 {
		nChains = 1
	}
	return &Director{Table: flowtable.NewSharded(64, capacity), Chains: nChains}
}

// spread is the miss-path chain assignment: a hash spread over the chains,
// by multiply-high rather than a division. It packs k field by field
// instead of calling k.Hash(): copying a FlowKey argument whole, just after
// it was spilled one field at a time, stalls store-to-load forwarding.
func (d *Director) spread(k packet.FlowKey) int {
	h := packet.PackKey(k.SrcIP, k.DstIP, k.SrcPort, k.DstPort, uint8(k.Proto)).Hash()
	i, _ := bits.Mul64(h, uint64(d.Chains))
	return int(i)
}

// ChainOf resolves (installing if absent) the chain for a flow key.
func (d *Director) ChainOf(k packet.FlowKey) int {
	id, _ := d.Table.LookupOrInsert(k, d.spread)
	return id
}

// FlowKeyOf extracts the 5-tuple from a raw Ethernet frame; ok is false
// for non-IPv4 frames.
func FlowKeyOf(frame []byte) (packet.FlowKey, bool) {
	t, err := proto.DecodeTuple(frame)
	if err != nil || !t.HasIP() {
		return packet.FlowKey{}, false
	}
	return packet.FlowKey{
		SrcIP: uint32(t.Src), DstIP: uint32(t.Dst),
		SrcPort: t.SrcPort, DstPort: t.DstPort, Proto: packet.Proto(t.Protocol),
	}, true
}

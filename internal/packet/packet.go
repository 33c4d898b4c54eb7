// Package packet models packet descriptors and the shared memory buffer
// pool of the NFV platform. As in OpenNetVM, NFs never copy packet payloads:
// descriptors referencing pool buffers travel through ring queues, and the
// pool caps the total number of packets in flight inside the platform.
package packet

import (
	"fmt"

	"nfvnice/internal/simtime"
)

// Proto identifies the transport protocol of a flow.
type Proto uint8

// Transport protocols used by the workloads.
const (
	UDP Proto = 17
	TCP Proto = 6
)

func (p Proto) String() string {
	switch p {
	case UDP:
		return "UDP"
	case TCP:
		return "TCP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// FlowKey is the 5-tuple used for flow table lookups.
type FlowKey struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            Proto
}

// Key is a 5-tuple packed into two words, the one layout every flow table
// keys on: both addresses in one word, ports and protocol in the other.
// Two word compares decide equality, and Hash mixes the two words, so the
// NFs' flowtable.Map and the flow director's flowtable.Sharded probe it
// without calling into Go's map code. The zero Key is the empty slot of
// flowtable.Map.
type Key struct {
	Addrs uint64 // SrcIP<<32 | DstIP
	Ports uint64 // SrcPort<<24 | DstPort<<8 | Proto
}

// PackKey packs a 5-tuple.
func PackKey(srcIP, dstIP uint32, srcPort, dstPort uint16, proto uint8) Key {
	return Key{
		Addrs: uint64(srcIP)<<32 | uint64(dstIP),
		Ports: uint64(srcPort)<<24 | uint64(dstPort)<<8 | uint64(proto),
	}
}

// Key packs the 5-tuple.
func (k FlowKey) Key() Key {
	return PackKey(k.SrcIP, k.DstIP, k.SrcPort, k.DstPort, uint8(k.Proto))
}

// FlowKey unpacks the 5-tuple.
func (k Key) FlowKey() FlowKey {
	return FlowKey{
		SrcIP: uint32(k.Addrs >> 32), DstIP: uint32(k.Addrs),
		SrcPort: uint16(k.Ports >> 24), DstPort: uint16(k.Ports >> 8), Proto: Proto(k.Ports),
	}
}

// Hash mixes the two words with multiplies and xorshifts (the murmur3
// finalizer over a multiplicative combine): a few cycles per key, with
// every input bit reaching the high and the low output bits, so callers
// may take a shard from the low bits and a set from the high ones.
func (k Key) Hash() uint64 {
	h := k.Addrs*0x9e3779b97f4a7c15 ^ k.Ports
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Hash is the packed key's hash.
func (k FlowKey) Hash() uint64 { return k.Key().Hash() }

func (k FlowKey) String() string {
	return fmt.Sprintf("%s %d.%d.%d.%d:%d->%d.%d.%d.%d:%d",
		k.Proto,
		byte(k.SrcIP>>24), byte(k.SrcIP>>16), byte(k.SrcIP>>8), byte(k.SrcIP), k.SrcPort,
		byte(k.DstIP>>24), byte(k.DstIP>>16), byte(k.DstIP>>8), byte(k.DstIP), k.DstPort)
}

// ECN codepoints carried in the (modelled) IP header.
type ECN uint8

// ECN codepoints per RFC 3168.
const (
	NotECT ECN = 0 // transport does not support ECN
	ECT    ECN = 2 // ECN-capable transport
	CE     ECN = 3 // congestion experienced
)

// Packet is a packet descriptor. Fields are set by the traffic generator and
// consumed by the manager, NFs, and sinks. Descriptors are pooled; a Packet
// must not be referenced after Release.
type Packet struct {
	Seq     uint64  // global sequence number, assigned by the pool
	Flow    FlowKey // 5-tuple
	FlowID  int     // dense flow identifier assigned by the generator
	ChainID int     // service chain this packet is mapped to
	Size    int     // frame size in bytes (FCS included)
	ECN     ECN

	Arrival simtime.Cycles // time the packet hit the NIC
	Hop     int            // index of the next NF in the chain
	Work    simtime.Cycles // cycles of NF processing spent on this packet so far

	// CostClass selects among per-NF cost classes for the variable
	// processing cost experiments (Fig 10); generators assign it per
	// packet, deterministically from the seeded RNG.
	CostClass int

	pool *Pool
	live bool
}

// Pool is a fixed-capacity descriptor pool, the analogue of the DPDK
// mempool/huge-page region shared by manager and NFs. When the pool is
// exhausted, arriving packets are dropped at the NIC — the same backstop a
// real platform has.
type Pool struct {
	capacity int
	free     []*Packet
	seq      uint64

	// Allocs and Exhausted count successful allocations and allocation
	// failures, for diagnostics.
	Allocs    uint64
	Exhausted uint64
}

// NewPool returns a pool of the given capacity.
func NewPool(capacity int) *Pool {
	if capacity <= 0 {
		panic("packet: pool capacity must be positive")
	}
	p := &Pool{capacity: capacity, free: make([]*Packet, 0, capacity)}
	backing := make([]Packet, capacity)
	for i := range backing {
		backing[i].pool = p
		p.free = append(p.free, &backing[i])
	}
	return p
}

// Capacity reports the pool's total descriptor count.
func (p *Pool) Capacity() int { return p.capacity }

// Available reports the number of free descriptors.
func (p *Pool) Available() int { return len(p.free) }

// InUse reports descriptors currently allocated.
func (p *Pool) InUse() int { return p.capacity - len(p.free) }

// Get allocates a descriptor, or returns nil when the pool is exhausted.
// The descriptor is zeroed except for its sequence number.
func (p *Pool) Get() *Packet {
	if len(p.free) == 0 {
		p.Exhausted++
		return nil
	}
	pkt := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.seq++
	*pkt = Packet{Seq: p.seq, pool: p, live: true}
	p.Allocs++
	return pkt
}

// Release returns the descriptor to its pool. Double release panics: it is
// always a platform bug (the equivalent of a DPDK mbuf double free).
func (pkt *Packet) Release() {
	if pkt.pool == nil || !pkt.live {
		panic("packet: release of non-pooled or already-released packet")
	}
	pkt.live = false
	pkt.pool.free = append(pkt.pool.free, pkt)
}

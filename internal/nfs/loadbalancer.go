package nfs

import (
	"encoding/binary"

	"nfvnice/internal/flowtable"
	"nfvnice/internal/proto"
)

// LoadBalancer is an L4 load balancer: flows are hashed consistently onto a
// backend set and the destination address is rewritten in place (checksum-
// incremental), so a flow always lands on the same backend even as other
// backends come and go — a rendezvous ("highest random weight") hash.
type LoadBalancer struct {
	// VIP is the virtual address the balancer answers for; only traffic
	// to it is rewritten.
	VIP      proto.IPv4Addr
	backends []proto.IPv4Addr

	// Balanced, PassedThrough count outcomes; PerBackend counts flows by
	// backend index (first packet of each flow).
	Balanced      uint64
	PassedThrough uint64
	PerBackend    []uint64

	flows *flowtable.Map[int] // backend index per flow
}

// NewLoadBalancer returns a balancer for vip over backends.
func NewLoadBalancer(vip proto.IPv4Addr, backends []proto.IPv4Addr) *LoadBalancer {
	return &LoadBalancer{
		VIP:        vip,
		backends:   append([]proto.IPv4Addr(nil), backends...),
		PerBackend: make([]uint64, len(backends)),
		flows:      flowtable.NewMap[int](0),
	}
}

// Name implements Processor.
func (lb *LoadBalancer) Name() string { return "loadbalancer" }

// rendezvous picks the backend with the highest hash(flow, backend) score.
func (lb *LoadBalancer) rendezvous(t *proto.Tuple) int {
	best, bestScore := 0, uint64(0)
	for i, b := range lb.backends {
		h := fnvMix(uint64(t.Src)<<32|uint64(t.SrcPort)<<16|uint64(t.Protocol), uint64(b))
		if h >= bestScore {
			best, bestScore = i, h
		}
	}
	return best
}

func fnvMix(a, b uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= a >> (8 * i) & 0xff
		h *= prime
	}
	for i := 0; i < 8; i++ {
		h ^= b >> (8 * i) & 0xff
		h *= prime
	}
	return h
}

// Process implements Processor.
func (lb *LoadBalancer) Process(frame []byte) Verdict {
	if len(lb.backends) == 0 {
		return Drop
	}
	t, err := proto.DecodeTuple(frame)
	if err != nil || !t.HasIP() || t.Dst != lb.VIP || !t.HasPorts() {
		lb.PassedThrough++
		return Accept
	}
	idx, found := lb.flows.Upsert(keyOf(&t))
	if !found {
		*idx = lb.rendezvous(&t)
		lb.PerBackend[*idx]++
	}
	backend := lb.backends[*idx]

	ipb, l4 := frame[proto.EthernetHeaderLen:], frame[t.L4:]
	oldAddr := binary.BigEndian.Uint32(ipb[16:20])
	binary.BigEndian.PutUint32(ipb[16:20], uint32(backend))
	cs := binary.BigEndian.Uint16(ipb[10:12])
	binary.BigEndian.PutUint16(ipb[10:12], csumUpdate32(cs, oldAddr, uint32(backend)))
	if off := transportCsumOffset(t.Protocol); off >= 0 {
		tc := binary.BigEndian.Uint16(l4[off : off+2])
		if t.Protocol != proto.IPProtoUDP || tc != 0 {
			binary.BigEndian.PutUint16(l4[off:off+2], csumUpdate32(tc, oldAddr, uint32(backend)))
		}
	}
	lb.Balanced++
	return Accept
}

// ActiveFlows reports tracked flows.
func (lb *LoadBalancer) ActiveFlows() int { return lb.flows.Len() }

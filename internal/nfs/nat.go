package nfs

import (
	"encoding/binary"

	"nfvnice/internal/flowtable"
	"nfvnice/internal/packet"
	"nfvnice/internal/proto"
)

// NAT is a source NAT (masquerade): outbound packets from internal
// addresses are rewritten to carry the NAT's external address and an
// allocated port; inbound packets to an allocated port are rewritten back.
// All IP and transport checksums are updated incrementally per RFC 1624 —
// the expensive little detail that makes NAT a "Medium" cost NF.
type NAT struct {
	// External is the public address owned by the NAT.
	External proto.IPv4Addr
	// Internal reports whether an address is on the inside network.
	Internal func(proto.IPv4Addr) bool

	nextPort uint16
	// outbound maps an internal connection to its allocated port; inbound,
	// indexed by port-natPortLo, maps the port back to the connection (the
	// zero Key: unbound; a translatable flow has a protocol, so never packs
	// to it).
	outbound *flowtable.Map[uint16]
	inbound  []packet.Key

	// Translated, Untranslatable and PortExhausted count outcomes.
	Translated     uint64
	Untranslatable uint64
	PortExhausted  uint64
}

// The external ports the NAT allocates: [natPortLo, 65535].
const (
	natPortLo = 20000
	natPorts  = 1<<16 - natPortLo
)

// NewNAT returns a NAT owning the external address; internal classifies
// inside addresses (nil means "everything not equal to External").
func NewNAT(external proto.IPv4Addr, internal func(proto.IPv4Addr) bool) *NAT {
	if internal == nil {
		internal = func(a proto.IPv4Addr) bool { return a != external }
	}
	return &NAT{
		External: external,
		Internal: internal,
		nextPort: natPortLo,
		// Sized once for every port bound: a NAT never holds more
		// bindings than that, so its table never doubles.
		outbound: flowtable.NewMap[uint16](natPorts),
		inbound:  make([]packet.Key, natPorts),
	}
}

// Name implements Processor.
func (n *NAT) Name() string { return "nat" }

// Bindings reports active translations.
func (n *NAT) Bindings() int { return n.outbound.Len() }

// csumUpdate16 folds a 16-bit field change into an internet checksum per
// RFC 1624: HC' = ~(~HC + ~m + m').
func csumUpdate16(hc, old, new uint16) uint16 {
	sum := uint32(^hc) + uint32(^old) + uint32(new)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// csumUpdate32 folds a 32-bit field change (e.g. an IPv4 address) into a
// checksum as two 16-bit updates.
func csumUpdate32(hc uint16, old, new uint32) uint16 {
	hc = csumUpdate16(hc, uint16(old>>16), uint16(new>>16))
	return csumUpdate16(hc, uint16(old), uint16(new))
}

// Process implements Processor.
func (n *NAT) Process(frame []byte) Verdict {
	if len(frame) < proto.EthernetHeaderLen+proto.IPv4MinHeaderLen {
		return Drop
	}
	t, err := proto.DecodeTuple(frame)
	if err != nil || !t.HasIP() || !t.HasPorts() {
		n.Untranslatable++
		return Accept // pass non-translatable traffic untouched
	}
	ipb, l4 := frame[proto.EthernetHeaderLen:], frame[t.L4:]

	switch {
	case n.Internal(t.Src):
		// Outbound: allocate (or reuse) a port, rewrite source.
		k := keyOf(&t)
		port := n.outbound.Get(k)
		if port == nil {
			p, ok := n.allocPort()
			if !ok {
				n.PortExhausted++
				return Drop
			}
			port, _ = n.outbound.Upsert(k)
			*port = p
			n.inbound[p-natPortLo] = k
		}
		rewrite(ipb, l4, t.Protocol, srcAddrOff, srcPortOff, n.External, *port)
		n.Translated++
		return Accept
	case t.Dst == n.External:
		// Inbound: look up the binding by destination port.
		if t.DstPort < natPortLo {
			return Drop // never allocated
		}
		k := n.inbound[t.DstPort-natPortLo]
		if k == (packet.Key{}) {
			return Drop // unsolicited
		}
		orig := k.FlowKey()
		rewrite(ipb, l4, t.Protocol, dstAddrOff, dstPortOff, proto.IPv4Addr(orig.SrcIP), orig.SrcPort)
		n.Translated++
		return Accept
	default:
		n.Untranslatable++
		return Accept
	}
}

// allocPort hands out the next free port, round robin over the range. With
// every port bound it fails at once rather than scanning the range per
// packet; otherwise one full lap finds a free port.
func (n *NAT) allocPort() (uint16, bool) {
	if n.outbound.Len() == natPorts {
		return 0, false
	}
	for tries := 0; tries < natPorts; tries++ {
		p := n.nextPort
		n.nextPort++
		if n.nextPort == 0 {
			n.nextPort = natPortLo
		}
		if n.inbound[p-natPortLo] == (packet.Key{}) {
			return p, true
		}
	}
	return 0, false
}

// Offsets of an endpoint's address in the IPv4 header and of its port in
// the transport header.
const (
	srcAddrOff, srcPortOff = 12, 0
	dstAddrOff, dstPortOff = 16, 2
)

// rewrite replaces one endpoint's address and port in place, with
// incremental checksum updates. l4 points at the transport header.
func rewrite(ipb, l4 []byte, protocol uint8, addrOff, portOff int, newAddr proto.IPv4Addr, newPort uint16) {
	oldAddr := binary.BigEndian.Uint32(ipb[addrOff : addrOff+4])
	binary.BigEndian.PutUint32(ipb[addrOff:addrOff+4], uint32(newAddr))
	// IP header checksum covers the address.
	ipCsum := binary.BigEndian.Uint16(ipb[10:12])
	ipCsum = csumUpdate32(ipCsum, oldAddr, uint32(newAddr))
	binary.BigEndian.PutUint16(ipb[10:12], ipCsum)
	// Transport checksum covers the pseudo header (address) and port.
	oldPort := binary.BigEndian.Uint16(l4[portOff : portOff+2])
	binary.BigEndian.PutUint16(l4[portOff:portOff+2], newPort)
	csOff := transportCsumOffset(protocol)
	if csOff >= 0 {
		tc := binary.BigEndian.Uint16(l4[csOff : csOff+2])
		if protocol != proto.IPProtoUDP || tc != 0 { // UDP checksum 0 = disabled
			tc = csumUpdate32(tc, oldAddr, uint32(newAddr))
			tc = csumUpdate16(tc, oldPort, newPort)
			binary.BigEndian.PutUint16(l4[csOff:csOff+2], tc)
		}
	}
}

func transportCsumOffset(protocol uint8) int {
	switch protocol {
	case proto.IPProtoUDP:
		return 6
	case proto.IPProtoTCP:
		return 16
	default:
		return -1
	}
}

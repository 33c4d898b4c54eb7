package nfs

import (
	"encoding/binary"

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
	// outbound maps an internal connection to its allocated port; inbound
	// maps the port back to the connection.
	outbound map[packet.Key]uint16
	inbound  map[uint16]packet.Key

	// Translated, Untranslatable and PortExhausted count outcomes.
	Translated     uint64
	Untranslatable uint64
	PortExhausted  uint64
}

// NewNAT returns a NAT owning the external address; internal classifies
// inside addresses (nil means "everything not equal to External").
func NewNAT(external proto.IPv4Addr, internal func(proto.IPv4Addr) bool) *NAT {
	if internal == nil {
		internal = func(a proto.IPv4Addr) bool { return a != external }
	}
	return &NAT{
		External: external,
		Internal: internal,
		nextPort: 20000,
		outbound: make(map[packet.Key]uint16),
		inbound:  make(map[uint16]packet.Key),
	}
}

// Name implements Processor.
func (n *NAT) Name() string { return "nat" }

// Bindings reports active translations.
func (n *NAT) Bindings() int { return len(n.outbound) }

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
		port, ok := n.outbound[k]
		if !ok {
			port, ok = n.allocPort()
			if !ok {
				n.PortExhausted++
				return Drop
			}
			n.outbound[k] = port
			n.inbound[port] = k
		}
		rewrite(ipb, l4, t.Protocol, srcAddrOff, srcPortOff, n.External, port)
		n.Translated++
		return Accept
	case t.Dst == n.External:
		// Inbound: look up the binding by destination port.
		k, ok := n.inbound[t.DstPort]
		if !ok {
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

func (n *NAT) allocPort() (uint16, bool) {
	for tries := 0; tries < 45000; tries++ {
		p := n.nextPort
		n.nextPort++
		if n.nextPort == 0 {
			n.nextPort = 20000
		}
		if p < 20000 {
			continue
		}
		if _, used := n.inbound[p]; !used {
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

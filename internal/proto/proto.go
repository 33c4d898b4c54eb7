// Package proto implements the packet header formats the platform's real
// network functions parse and rewrite: Ethernet II, IPv4, UDP and TCP, with
// correct internet checksums. It is a minimal, allocation-conscious
// decoder/encoder in the spirit of gopacket's DecodingLayerParser: headers
// decode from and serialize into caller-provided byte slices, so the hot
// path never allocates.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Byte offsets and sizes of the supported headers.
const (
	EthernetHeaderLen = 14
	IPv4MinHeaderLen  = 20
	UDPHeaderLen      = 8
	TCPMinHeaderLen   = 20
)

// EtherTypes.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
)

// IP protocol numbers.
const (
	IPProtoICMP = 1
	IPProtoTCP  = 6
	IPProtoUDP  = 17
)

// Common decoding errors.
var (
	ErrTooShort   = errors.New("proto: buffer too short")
	ErrBadVersion = errors.New("proto: not IPv4")
	ErrBadIHL     = errors.New("proto: bad IPv4 header length")
)

// MAC is an Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is an IPv4 address in network order.
type IPv4Addr uint32

// Addr4 builds an address from octets.
func Addr4(a, b, c, d byte) IPv4Addr {
	return IPv4Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Ethernet is an Ethernet II header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

// DecodeEthernet parses the header and returns the payload slice.
func DecodeEthernet(b []byte) (Ethernet, []byte, error) {
	if len(b) < EthernetHeaderLen {
		return Ethernet{}, nil, ErrTooShort
	}
	var e Ethernet
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	return e, b[EthernetHeaderLen:], nil
}

// Put serializes the header into b, which must hold EthernetHeaderLen bytes.
func (e *Ethernet) Put(b []byte) {
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	binary.BigEndian.PutUint16(b[12:14], e.EtherType)
}

// IPv4 is an IPv4 header (options unsupported on encode, skipped on decode).
type IPv4 struct {
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	Length   uint16 // total length including header
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst IPv4Addr
}

// ECN codepoint accessors (low two bits of TOS).
func (ip *IPv4) ECN() uint8     { return ip.TOS & 0x3 }
func (ip *IPv4) SetECN(v uint8) { ip.TOS = ip.TOS&^0x3 | v&0x3 }

// DecodeIPv4 parses the header and returns the L4 payload slice.
func DecodeIPv4(b []byte) (IPv4, []byte, error) {
	if len(b) < IPv4MinHeaderLen {
		return IPv4{}, nil, ErrTooShort
	}
	if b[0]>>4 != 4 {
		return IPv4{}, nil, ErrBadVersion
	}
	var ip IPv4
	ip.IHL = b[0] & 0x0f
	hlen := int(ip.IHL) * 4
	if hlen < IPv4MinHeaderLen || len(b) < hlen {
		return IPv4{}, nil, ErrBadIHL
	}
	ip.TOS = b[1]
	ip.Length = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:12])
	ip.Src = IPv4Addr(binary.BigEndian.Uint32(b[12:16]))
	ip.Dst = IPv4Addr(binary.BigEndian.Uint32(b[16:20]))
	end := int(ip.Length)
	if end > len(b) || end < hlen {
		end = len(b)
	}
	return ip, b[hlen:end], nil
}

// Put serializes a 20-byte (optionless) header into b and stamps a correct
// checksum. Length, Src, Dst etc. come from the struct; IHL is forced to 5.
func (ip *IPv4) Put(b []byte) {
	ip.IHL = 5
	b[0] = 4<<4 | 5
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], ip.Length)
	binary.BigEndian.PutUint16(b[4:6], ip.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b[8] = ip.TTL
	b[9] = ip.Protocol
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint32(b[12:16], uint32(ip.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(ip.Dst))
	ip.Checksum = Checksum(b[:20])
	binary.BigEndian.PutUint16(b[10:12], ip.Checksum)
}

// VerifyChecksum reports whether an on-wire IPv4 header checksums to zero.
func VerifyIPv4Checksum(b []byte) bool {
	if len(b) < IPv4MinHeaderLen {
		return false
	}
	hlen := int(b[0]&0x0f) * 4
	if hlen < IPv4MinHeaderLen || hlen > len(b) {
		return false
	}
	return Checksum(b[:hlen]) == 0
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// DecodeUDP parses the header and returns the payload.
func DecodeUDP(b []byte) (UDP, []byte, error) {
	if len(b) < UDPHeaderLen {
		return UDP{}, nil, ErrTooShort
	}
	u := UDP{
		SrcPort:  binary.BigEndian.Uint16(b[0:2]),
		DstPort:  binary.BigEndian.Uint16(b[2:4]),
		Length:   binary.BigEndian.Uint16(b[4:6]),
		Checksum: binary.BigEndian.Uint16(b[6:8]),
	}
	return u, b[UDPHeaderLen:], nil
}

// Put serializes the header (checksum left as stored; use PseudoChecksum to
// compute it).
func (u *UDP) Put(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], u.Length)
	binary.BigEndian.PutUint16(b[6:8], u.Checksum)
}

// TCP is a TCP header (options preserved as opaque bytes on decode).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          uint8 // header length in 32-bit words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
	TCPUrg = 1 << 5
	TCPEce = 1 << 6 // ECN echo
	TCPCwr = 1 << 7
)

// DecodeTCP parses the header and returns the payload.
func DecodeTCP(b []byte) (TCP, []byte, error) {
	if len(b) < TCPMinHeaderLen {
		return TCP{}, nil, ErrTooShort
	}
	var t TCP
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.DataOff = b[12] >> 4
	hlen := int(t.DataOff) * 4
	if hlen < TCPMinHeaderLen || hlen > len(b) {
		return TCP{}, nil, ErrBadIHL
	}
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	t.Checksum = binary.BigEndian.Uint16(b[16:18])
	t.Urgent = binary.BigEndian.Uint16(b[18:20])
	return t, b[hlen:], nil
}

// Put serializes a 20-byte (optionless) header.
func (t *TCP) Put(b []byte) {
	t.DataOff = 5
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	b[12] = 5 << 4
	b[13] = t.Flags
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	binary.BigEndian.PutUint16(b[16:18], t.Checksum)
	binary.BigEndian.PutUint16(b[18:20], t.Urgent)
}

// Checksum computes the RFC 1071 internet checksum of b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// PseudoChecksum computes the TCP/UDP checksum over the IPv4 pseudo header
// plus the transport segment bytes (header with zeroed checksum + payload).
func PseudoChecksum(src, dst IPv4Addr, protocol uint8, segment []byte) uint16 {
	var pseudo [12]byte
	binary.BigEndian.PutUint32(pseudo[0:4], uint32(src))
	binary.BigEndian.PutUint32(pseudo[4:8], uint32(dst))
	pseudo[9] = protocol
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	var sum uint32
	add := func(b []byte) {
		for len(b) >= 2 {
			sum += uint32(binary.BigEndian.Uint16(b[:2]))
			b = b[2:]
		}
		if len(b) == 1 {
			sum += uint32(b[0]) << 8
		}
	}
	add(pseudo[:])
	add(segment)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Frame is a fully decoded packet: the layers present and the payload.
type Frame struct {
	Eth     Ethernet
	IP      IPv4
	HasIP   bool
	UDP     UDP
	HasUDP  bool
	TCP     TCP
	HasTCP  bool
	Payload []byte
}

// Decode parses an Ethernet frame through the transport layer. Unsupported
// ether types or protocols stop cleanly with the decoded prefix.
func Decode(b []byte) (Frame, error) {
	var f Frame
	eth, rest, err := DecodeEthernet(b)
	if err != nil {
		return f, err
	}
	f.Eth = eth
	f.Payload = rest
	if eth.EtherType != EtherTypeIPv4 {
		return f, nil
	}
	ip, l4, err := DecodeIPv4(rest)
	if err != nil {
		return f, err
	}
	f.IP = ip
	f.HasIP = true
	f.Payload = l4
	switch ip.Protocol {
	case IPProtoUDP:
		u, pay, err := DecodeUDP(l4)
		if err != nil {
			return f, err
		}
		f.UDP = u
		f.HasUDP = true
		f.Payload = pay
	case IPProtoTCP:
		t, pay, err := DecodeTCP(l4)
		if err != nil {
			return f, err
		}
		f.TCP = t
		f.HasTCP = true
		f.Payload = pay
	}
	return f, nil
}

// Tuple is a frame's 5-tuple and where its transport header starts, read in
// place: what flow-keyed NFs need, without Decode's copy of every header.
type Tuple struct {
	Src, Dst         IPv4Addr
	SrcPort, DstPort uint16 // zero unless the frame carries UDP or TCP
	Protocol         uint8
	// L4 is the transport header's offset in the frame; 0 when the frame
	// is not IPv4.
	L4 int
}

// HasIP reports whether the frame is IPv4 (Decode's Frame.HasIP).
func (t *Tuple) HasIP() bool { return t.L4 != 0 }

// HasPorts reports whether the frame carries a UDP or TCP header (Decode's
// HasUDP or HasTCP).
func (t *Tuple) HasPorts() bool {
	return t.Protocol == IPProtoUDP || t.Protocol == IPProtoTCP
}

// DecodeTuple reads the 5-tuple Decode would yield and fails on exactly the
// frames Decode fails on, with the same error.
func DecodeTuple(b []byte) (Tuple, error) {
	if len(b) < EthernetHeaderLen {
		return Tuple{}, ErrTooShort
	}
	if binary.BigEndian.Uint16(b[12:14]) != EtherTypeIPv4 {
		return Tuple{}, nil
	}
	ip := b[EthernetHeaderLen:]
	if len(ip) < IPv4MinHeaderLen {
		return Tuple{}, ErrTooShort
	}
	if ip[0]>>4 != 4 {
		return Tuple{}, ErrBadVersion
	}
	hlen := int(ip[0]&0x0f) * 4
	if hlen < IPv4MinHeaderLen || len(ip) < hlen {
		return Tuple{}, ErrBadIHL
	}
	// The transport layer ends where the IP total length says, as in
	// DecodeIPv4.
	end := int(binary.BigEndian.Uint16(ip[2:4]))
	if end > len(ip) || end < hlen {
		end = len(ip)
	}
	l4 := ip[hlen:end]
	var srcPort, dstPort uint16
	switch ip[9] {
	case IPProtoUDP:
		if len(l4) < UDPHeaderLen {
			return Tuple{}, ErrTooShort
		}
		srcPort, dstPort = binary.BigEndian.Uint16(l4[0:2]), binary.BigEndian.Uint16(l4[2:4])
	case IPProtoTCP:
		if len(l4) < TCPMinHeaderLen {
			return Tuple{}, ErrTooShort
		}
		if off := int(l4[12]>>4) * 4; off < TCPMinHeaderLen || off > len(l4) {
			return Tuple{}, ErrBadIHL
		}
		srcPort, dstPort = binary.BigEndian.Uint16(l4[0:2]), binary.BigEndian.Uint16(l4[2:4])
	}
	// One literal at the return: filling a named Tuple field by field and
	// then returning it copies the struct whole, which stalls store-to-load
	// forwarding.
	return Tuple{
		Src:     IPv4Addr(binary.BigEndian.Uint32(ip[12:16])),
		Dst:     IPv4Addr(binary.BigEndian.Uint32(ip[16:20])),
		SrcPort: srcPort, DstPort: dstPort,
		Protocol: ip[9],
		L4:       EthernetHeaderLen + hlen,
	}, nil
}

// EncodeUDP assembles a complete Ethernet+IPv4+UDP frame with correct
// checksums in place into b — the allocation-free counterpart of BuildUDP
// for preallocated frame arenas — and reports the frame length. b must have
// room for EthernetHeaderLen+IPv4MinHeaderLen+UDPHeaderLen+len(payload)
// bytes (it panics on a short buffer, like any slice write).
func EncodeUDP(b []byte, srcMAC, dstMAC MAC, src, dst IPv4Addr, srcPort, dstPort uint16, payload []byte) int {
	total := EthernetHeaderLen + IPv4MinHeaderLen + UDPHeaderLen + len(payload)
	b = b[:total]
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	eth.Put(b)
	ipb := b[EthernetHeaderLen:]
	ip := IPv4{
		Length:   uint16(IPv4MinHeaderLen + UDPHeaderLen + len(payload)),
		TTL:      64,
		Protocol: IPProtoUDP,
		Src:      src,
		Dst:      dst,
	}
	ip.Put(ipb)
	ub := ipb[IPv4MinHeaderLen:]
	u := UDP{SrcPort: srcPort, DstPort: dstPort, Length: uint16(UDPHeaderLen + len(payload))}
	u.Put(ub)
	copy(ub[UDPHeaderLen:], payload)
	u.Checksum = PseudoChecksum(src, dst, IPProtoUDP, ub)
	binary.BigEndian.PutUint16(ub[6:8], u.Checksum)
	return total
}

// BuildUDP assembles a complete Ethernet+IPv4+UDP frame with correct
// checksums into a fresh slice.
func BuildUDP(srcMAC, dstMAC MAC, src, dst IPv4Addr, srcPort, dstPort uint16, payload []byte) []byte {
	total := EthernetHeaderLen + IPv4MinHeaderLen + UDPHeaderLen + len(payload)
	b := make([]byte, total)
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	eth.Put(b)
	ipb := b[EthernetHeaderLen:]
	ip := IPv4{
		Length:   uint16(IPv4MinHeaderLen + UDPHeaderLen + len(payload)),
		TTL:      64,
		Protocol: IPProtoUDP,
		Src:      src,
		Dst:      dst,
	}
	ip.Put(ipb)
	ub := ipb[IPv4MinHeaderLen:]
	u := UDP{SrcPort: srcPort, DstPort: dstPort, Length: uint16(UDPHeaderLen + len(payload))}
	u.Put(ub)
	copy(ub[UDPHeaderLen:], payload)
	u.Checksum = PseudoChecksum(src, dst, IPProtoUDP, ub)
	binary.BigEndian.PutUint16(ub[6:8], u.Checksum)
	return b
}

// BuildTCP assembles a complete Ethernet+IPv4+TCP frame with correct
// checksums into a fresh slice.
func BuildTCP(srcMAC, dstMAC MAC, src, dst IPv4Addr, srcPort, dstPort uint16, seq, ack uint32, flags uint8, payload []byte) []byte {
	total := EthernetHeaderLen + IPv4MinHeaderLen + TCPMinHeaderLen + len(payload)
	b := make([]byte, total)
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	eth.Put(b)
	ipb := b[EthernetHeaderLen:]
	ip := IPv4{
		Length:   uint16(IPv4MinHeaderLen + TCPMinHeaderLen + len(payload)),
		TTL:      64,
		Protocol: IPProtoTCP,
		Src:      src,
		Dst:      dst,
	}
	ip.Put(ipb)
	tb := ipb[IPv4MinHeaderLen:]
	t := TCP{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack, Flags: flags, Window: 65535}
	t.Put(tb)
	copy(tb[TCPMinHeaderLen:], payload)
	t.Checksum = PseudoChecksum(src, dst, IPProtoTCP, tb)
	binary.BigEndian.PutUint16(tb[16:18], t.Checksum)
	return b
}

package proto

import (
	"encoding/binary"
	"testing"
)

// tupleOf is the 5-tuple a decoded Frame carries, in DecodeTuple's form.
func tupleOf(f *Frame) Tuple {
	if !f.HasIP {
		return Tuple{}
	}
	t := Tuple{
		Src: f.IP.Src, Dst: f.IP.Dst, Protocol: f.IP.Protocol,
		L4: EthernetHeaderLen + int(f.IP.IHL)*4,
	}
	switch {
	case f.HasUDP:
		t.SrcPort, t.DstPort = f.UDP.SrcPort, f.UDP.DstPort
	case f.HasTCP:
		t.SrcPort, t.DstPort = f.TCP.SrcPort, f.TCP.DstPort
	}
	return t
}

// tupleSeeds are frames on each of Decode's paths, accepted and refused.
func tupleSeeds() [][]byte {
	udp := BuildUDP(macA, macB, ipA, ipB, 1234, 53, []byte("query"))
	tcp := BuildTCP(macA, macB, ipA, ipB, 5000, 80, 1, 2, TCPAck, []byte("GET /"))
	edit := func(b []byte, f func(b []byte)) []byte {
		c := append([]byte(nil), b...)
		f(c)
		return c
	}
	// IHL 6: four bytes of options between the IP and UDP headers.
	opts := make([]byte, 0, len(udp)+4)
	opts = append(opts, udp[:EthernetHeaderLen+IPv4MinHeaderLen]...)
	opts = append(opts, 1, 1, 1, 0)
	opts = append(opts, udp[EthernetHeaderLen+IPv4MinHeaderLen:]...)
	opts[EthernetHeaderLen] = 4<<4 | 6
	binary.BigEndian.PutUint16(opts[EthernetHeaderLen+2:], uint16(len(opts)-EthernetHeaderLen))
	tcpOff := EthernetHeaderLen + IPv4MinHeaderLen + 12
	return [][]byte{
		udp,
		tcp,
		opts,
		udp[:EthernetHeaderLen+IPv4MinHeaderLen+4],                    // truncated UDP header
		tcp[:EthernetHeaderLen+IPv4MinHeaderLen+10],                   // truncated TCP header
		edit(tcp, func(b []byte) { b[tcpOff] = 4 << 4 }),              // TCP data offset below 5
		edit(tcp, func(b []byte) { b[tcpOff] = 15 << 4 }),             // TCP data offset past the frame
		edit(udp, func(b []byte) { b[EthernetHeaderLen] = 6<<4 | 5 }), // IPv6 version nibble
		edit(udp, func(b []byte) { b[EthernetHeaderLen] = 4<<4 | 4 }), // IHL below 5
		edit(udp, func(b []byte) { binary.BigEndian.PutUint16(b[12:], EtherTypeARP) }),
		edit(udp, func(b []byte) { binary.BigEndian.PutUint16(b[EthernetHeaderLen+2:], 10) }), // total length < header
		edit(udp, func(b []byte) { binary.BigEndian.PutUint16(b[EthernetHeaderLen+2:], 24) }), // total length cuts UDP
		edit(udp, func(b []byte) { b[EthernetHeaderLen+9] = IPProtoICMP }),
		udp[:EthernetHeaderLen+10],
		udp[:EthernetHeaderLen-1],
		{},
	}
}

// FuzzDecodeTuple holds DecodeTuple to Decode: for any bytes, the same error
// and, when there is none, the same 5-tuple and transport offset.
func FuzzDecodeTuple(f *testing.F) {
	for _, b := range tupleSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, ferr := Decode(b)
		tu, terr := DecodeTuple(b)
		if ferr != terr {
			t.Fatalf("DecodeTuple error %v, Decode error %v", terr, ferr)
		}
		if ferr != nil {
			return
		}
		if want := tupleOf(&fr); tu != want {
			t.Fatalf("DecodeTuple = %+v, Decode yields %+v", tu, want)
		}
		if tu.HasIP() != fr.HasIP || tu.HasIP() && tu.HasPorts() != (fr.HasUDP || fr.HasTCP) {
			t.Fatalf("HasIP/HasPorts = %v/%v, Decode has IP %v, UDP %v, TCP %v",
				tu.HasIP(), tu.HasPorts(), fr.HasIP, fr.HasUDP, fr.HasTCP)
		}
	})
}

func BenchmarkDecodeTupleUDPFrame(b *testing.B) {
	frame := BuildUDP(macA, macB, ipA, ipB, 1234, 53, make([]byte, 64))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeTuple(frame); err != nil {
			b.Fatal(err)
		}
	}
}

package packet

import (
	"testing"
	"testing/quick"
)

func TestPoolLifecycle(t *testing.T) {
	p := NewPool(4)
	if p.Capacity() != 4 || p.Available() != 4 || p.InUse() != 0 {
		t.Fatalf("fresh pool: cap=%d avail=%d inuse=%d", p.Capacity(), p.Available(), p.InUse())
	}
	var pkts []*Packet
	for i := 0; i < 4; i++ {
		pkt := p.Get()
		if pkt == nil {
			t.Fatalf("Get %d returned nil with capacity left", i)
		}
		pkts = append(pkts, pkt)
	}
	if p.Available() != 0 || p.InUse() != 4 {
		t.Fatalf("drained pool: avail=%d inuse=%d", p.Available(), p.InUse())
	}
	if p.Get() != nil {
		t.Fatal("Get on exhausted pool should return nil")
	}
	if p.Exhausted != 1 {
		t.Fatalf("Exhausted = %d", p.Exhausted)
	}
	for _, pkt := range pkts {
		pkt.Release()
	}
	if p.Available() != 4 {
		t.Fatalf("after releases: avail=%d", p.Available())
	}
}

func TestPoolSequenceNumbers(t *testing.T) {
	p := NewPool(2)
	a := p.Get()
	b := p.Get()
	aSeq, bSeq := a.Seq, b.Seq
	if aSeq == bSeq {
		t.Fatal("sequence numbers must be unique")
	}
	a.Release()
	c := p.Get()
	if c.Seq == bSeq || c.Seq == aSeq {
		t.Fatal("recycled descriptor must get a fresh sequence number")
	}
}

func TestPoolGetZeroesDescriptor(t *testing.T) {
	p := NewPool(1)
	a := p.Get()
	a.Hop = 7
	a.Work = 999
	a.FlowID = 3
	a.Release()
	b := p.Get()
	if b.Hop != 0 || b.Work != 0 || b.FlowID != 0 {
		t.Fatal("recycled descriptor not zeroed")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool(1)
	pkt := p.Get()
	pkt.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	pkt.Release()
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}

func TestFlowKeyHashDeterminism(t *testing.T) {
	k := FlowKey{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: TCP}
	if k.Hash() != k.Hash() {
		t.Fatal("hash must be deterministic")
	}
}

func TestFlowKeyHashDistinguishes(t *testing.T) {
	base := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: UDP}
	variants := []FlowKey{
		{SrcIP: 9, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: UDP},
		{SrcIP: 1, DstIP: 9, SrcPort: 3, DstPort: 4, Proto: UDP},
		{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 4, Proto: UDP},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 9, Proto: UDP},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: TCP},
	}
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Errorf("variant %d collides with base", i)
		}
	}
}

func TestFlowKeyHashQuick(t *testing.T) {
	// Different keys should essentially never collide for random input.
	f := func(a, b FlowKey) bool {
		if a == b {
			return a.Hash() == b.Hash()
		}
		return a.Hash() != b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	// Packing loses nothing: NAT and monitor rebuild tuples from map keys.
	f := func(k FlowKey) bool { return k.Key().FlowKey() == k }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestProtoString(t *testing.T) {
	if UDP.String() != "UDP" || TCP.String() != "TCP" {
		t.Fatal("proto names wrong")
	}
	if Proto(99).String() != "proto(99)" {
		t.Fatalf("unknown proto: %s", Proto(99))
	}
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: TCP}
	want := "TCP 10.0.0.1:1234->10.0.0.2:80"
	if got := k.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func BenchmarkPoolGetRelease(b *testing.B) {
	p := NewPool(1024)
	for i := 0; i < b.N; i++ {
		pkt := p.Get()
		pkt.Release()
	}
}

func BenchmarkFlowKeyHash(b *testing.B) {
	k := FlowKey{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: TCP}
	var sink uint64
	for i := 0; i < b.N; i++ {
		k.SrcPort = uint16(i)
		sink += k.Hash()
	}
	_ = sink
}

package nfs

import (
	"testing"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/proto"
)

var (
	macA    = proto.MAC{2, 0, 0, 0, 0, 0xaa}
	macB    = proto.MAC{2, 0, 0, 0, 0, 0xbb}
	macC    = proto.MAC{2, 0, 0, 0, 0, 0xcc}
	insideA = proto.Addr4(10, 0, 0, 5)
	outside = proto.Addr4(93, 184, 216, 34)
	natIP   = proto.Addr4(198, 51, 100, 1)
)

func udpFrame(src, dst proto.IPv4Addr, sp, dp uint16, payload string) []byte {
	return proto.BuildUDP(macA, macB, src, dst, sp, dp, []byte(payload))
}

func tcpFrame(src, dst proto.IPv4Addr, sp, dp uint16, payload string) []byte {
	return proto.BuildTCP(macA, macB, src, dst, sp, dp, 1000, 2000, proto.TCPAck, []byte(payload))
}

// checksumsValid verifies IP and transport checksums of a frame.
func checksumsValid(t *testing.T, frame []byte) {
	t.Helper()
	ipb := frame[proto.EthernetHeaderLen:]
	if !proto.VerifyIPv4Checksum(ipb) {
		t.Fatal("IP checksum invalid")
	}
	f, err := proto.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	seg := ipb[int(f.IP.IHL)*4:]
	if proto.PseudoChecksum(f.IP.Src, f.IP.Dst, f.IP.Protocol, seg) != 0 {
		t.Fatal("transport checksum invalid")
	}
}

func TestBridgeLearnsAndForwards(t *testing.T) {
	b := NewBridge(3)
	// First frame from A: dst unknown -> flood, A learned on port 3.
	f1 := proto.BuildUDP(macA, macB, insideA, outside, 1, 2, nil)
	if b.Process(f1) != Accept {
		t.Fatal("bridge dropped a frame")
	}
	if b.LastOutPort != -1 || b.Flooded != 1 {
		t.Fatal("unknown destination should flood")
	}
	if port, ok := b.Lookup(macA); !ok || port != 3 {
		t.Fatal("source not learned")
	}
	// Reply toward A: forwarded out port 3.
	b2 := NewBridge(7)
	b2.table = b.table // same fabric table
	f2 := proto.BuildUDP(macB, macA, outside, insideA, 2, 1, nil)
	b2.Process(f2)
	if b2.LastOutPort != 3 {
		t.Fatalf("reply forwarded to port %d, want 3", b2.LastOutPort)
	}
	if b2.TableSize() != 2 {
		t.Fatalf("table size = %d", b2.TableSize())
	}
}

func TestBridgeRelearnsMovedHost(t *testing.T) {
	b := NewBridge(1)
	b.Process(proto.BuildUDP(macA, macC, insideA, outside, 1, 2, nil))
	b.Port = 9 // host moved to another port
	b.Process(proto.BuildUDP(macA, macC, insideA, outside, 1, 2, nil))
	if port, _ := b.Lookup(macA); port != 9 {
		t.Fatalf("moved host port = %d, want 9", port)
	}
}

func TestMonitorCountsFlows(t *testing.T) {
	m := NewMonitor()
	for i := 0; i < 5; i++ {
		m.Process(udpFrame(insideA, outside, 1111, 53, "query"))
	}
	for i := 0; i < 3; i++ {
		m.Process(tcpFrame(insideA, outside, 2222, 443, "hello TLS"))
	}
	if m.Flows() != 2 {
		t.Fatalf("flows = %d", m.Flows())
	}
	top := m.Top(1)
	if len(top) != 1 || top[0].Packets != 5 || top[0].DstPort != 53 {
		t.Fatalf("top flow = %+v", top)
	}
	if m.Top(10)[1].Packets != 3 {
		t.Fatal("second flow miscounted")
	}
}

func TestMonitorNeverDrops(t *testing.T) {
	m := NewMonitor()
	if m.Process([]byte{1, 2, 3}) != Accept {
		t.Fatal("monitor dropped garbage; it must be passive")
	}
	if m.NonIP != 1 {
		t.Fatal("NonIP not counted")
	}
}

func TestFirewallRules(t *testing.T) {
	fw := NewFirewall(Drop) // default deny
	// Allow DNS anywhere, and all traffic from 10.0.0.0/8.
	fw.AddRule(FirewallRule{DstPortLo: 53, Proto: proto.IPProtoUDP, Action: Accept})
	fw.AddRule(FirewallRule{SrcAddr: proto.Addr4(10, 0, 0, 0), SrcPrefixLen: 8, Action: Accept})

	if fw.Process(udpFrame(outside, outside, 999, 53, "dns")) != Accept {
		t.Fatal("DNS rule should accept")
	}
	if fw.Process(tcpFrame(insideA, outside, 999, 22, "ssh")) != Accept {
		t.Fatal("10/8 rule should accept")
	}
	if fw.Process(tcpFrame(outside, insideA, 999, 22, "ssh")) != Drop {
		t.Fatal("default deny should drop")
	}
	if fw.Accepted != 2 || fw.Dropped != 1 {
		t.Fatalf("counters: acc=%d drop=%d", fw.Accepted, fw.Dropped)
	}
}

func TestFirewallFirstMatchWins(t *testing.T) {
	fw := NewFirewall(Accept)
	fw.AddRule(FirewallRule{DstPortLo: 80, DstPortHi: 90, Proto: proto.IPProtoTCP, Action: Drop})
	fw.AddRule(FirewallRule{DstPortLo: 85, Proto: proto.IPProtoTCP, Action: Accept}) // shadowed
	if fw.Process(tcpFrame(insideA, outside, 1, 85, "x")) != Drop {
		t.Fatal("first matching rule must win")
	}
}

func TestFirewallPortlessProtocols(t *testing.T) {
	fw := NewFirewall(Drop)
	fw.AddRule(FirewallRule{DstPortLo: 53, Action: Accept})
	// Build a bare IPv4/ICMP-ish frame (protocol 1, no L4 we decode).
	b := proto.BuildUDP(macA, macB, insideA, outside, 1, 53, nil)
	ipb := b[proto.EthernetHeaderLen:]
	ipb[9] = proto.IPProtoICMP
	// Port rule must not match a portless packet.
	if fw.Process(b) != Drop {
		t.Fatal("port rule matched a portless protocol")
	}
}

func TestNATOutboundInboundRoundTrip(t *testing.T) {
	n := NewNAT(natIP, func(a proto.IPv4Addr) bool { return uint32(a)>>24 == 10 })
	out := udpFrame(insideA, outside, 5555, 53, "query")
	if n.Process(out) != Accept {
		t.Fatal("outbound dropped")
	}
	f, _ := proto.Decode(out)
	if f.IP.Src != natIP {
		t.Fatalf("src not rewritten: %v", f.IP.Src)
	}
	natPort := f.UDP.SrcPort
	if natPort < 20000 {
		t.Fatalf("nat port = %d", natPort)
	}
	checksumsValid(t, out)

	// Reply comes back to the NAT's external address and port.
	in := udpFrame(outside, natIP, 53, natPort, "answer")
	if n.Process(in) != Accept {
		t.Fatal("inbound dropped")
	}
	fi, _ := proto.Decode(in)
	if fi.IP.Dst != insideA || fi.UDP.DstPort != 5555 {
		t.Fatalf("inbound not restored: %v:%d", fi.IP.Dst, fi.UDP.DstPort)
	}
	checksumsValid(t, in)
	if n.Bindings() != 1 {
		t.Fatalf("bindings = %d", n.Bindings())
	}
}

func TestNATReusesBindingPerFlow(t *testing.T) {
	n := NewNAT(natIP, nil)
	a := udpFrame(insideA, outside, 7777, 80, "1")
	b := udpFrame(insideA, outside, 7777, 80, "2")
	n.Process(a)
	n.Process(b)
	fa, _ := proto.Decode(a)
	fb, _ := proto.Decode(b)
	if fa.UDP.SrcPort != fb.UDP.SrcPort {
		t.Fatal("same flow must keep its binding")
	}
	if n.Bindings() != 1 {
		t.Fatalf("bindings = %d", n.Bindings())
	}
}

func TestNATDistinctFlowsDistinctPorts(t *testing.T) {
	n := NewNAT(natIP, nil)
	a := udpFrame(insideA, outside, 1000, 80, "")
	b := udpFrame(insideA, outside, 1001, 80, "")
	n.Process(a)
	n.Process(b)
	fa, _ := proto.Decode(a)
	fb, _ := proto.Decode(b)
	if fa.UDP.SrcPort == fb.UDP.SrcPort {
		t.Fatal("distinct flows share a NAT port")
	}
}

func TestNATTCPChecksum(t *testing.T) {
	n := NewNAT(natIP, nil)
	fr := tcpFrame(insideA, outside, 43210, 443, "payload bytes")
	if n.Process(fr) != Accept {
		t.Fatal("tcp outbound dropped")
	}
	checksumsValid(t, fr)
}

func TestNATUnsolicitedInboundDropped(t *testing.T) {
	n := NewNAT(natIP, func(a proto.IPv4Addr) bool { return uint32(a)>>24 == 10 })
	in := udpFrame(outside, natIP, 53, 33333, "scan")
	if n.Process(in) != Drop {
		t.Fatal("unsolicited inbound must be dropped")
	}
}

// TestNATExhaustedFailsFast binds every external port, then sends an
// unbound flow: its packets must be dropped and counted at once, not after a
// scan of the whole port range per packet.
func TestNATExhaustedFailsFast(t *testing.T) {
	n := NewNAT(natIP, nil)
	for i := 0; i < natPorts; i++ {
		src := proto.IPv4Addr(uint32(insideA) + uint32(i>>15))
		if n.Process(udpFrame(src, outside, uint16(1024+i&0x7fff), 53, "")) != Accept {
			t.Fatalf("binding %d of %d refused", i, natPorts)
		}
	}
	if n.Bindings() != natPorts || n.PortExhausted != 0 {
		t.Fatalf("bindings = %d, exhausted = %d; want %d, 0", n.Bindings(), n.PortExhausted, natPorts)
	}
	tpl := udpFrame(proto.Addr4(10, 9, 9, 9), outside, 4242, 53, "")
	fr := make([]byte, len(tpl))
	var wrong, calls int
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(fr, tpl)
			if n.Process(fr) != Drop {
				wrong++
			}
		}
		calls += b.N
	})
	if wrong != 0 || n.PortExhausted != uint64(calls) {
		t.Fatalf("%d of %d packets passed, %d counted exhausted", wrong, calls, n.PortExhausted)
	}
	ns := res.NsPerOp()
	if ns > 50_000 {
		t.Fatalf("an exhausted NAT takes %d ns per unbound packet; want under 50 µs", ns)
	}
	t.Logf("%d ns per unbound packet", ns)
}

// TestFlowHitPathsZeroAllocs: once a flow is known, the load balancer and
// the per-flow rate limiter update its state in place.
func TestFlowHitPathsZeroAllocs(t *testing.T) {
	vip := proto.Addr4(198, 51, 100, 100)
	lb := NewLoadBalancer(vip, []proto.IPv4Addr{proto.Addr4(10, 0, 1, 1), proto.Addr4(10, 0, 1, 2)})
	rl := NewRateLimiter(1e12, 1e12, true)
	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = tcpFrame(proto.Addr4(10, 0, 0, byte(i)), vip, uint16(1000+i), 80, "x")
	}
	scratch := make([]byte, len(frames[0]))
	for _, nf := range []Processor{lb, rl} {
		pass := func() {
			for _, fr := range frames {
				copy(scratch, fr) // the balancer rewrites the destination
				if nf.Process(scratch) != Accept {
					t.Fatalf("%s dropped a packet", nf.Name())
				}
			}
		}
		pass() // warm: every flow inserted
		if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
			t.Errorf("%s hit path allocates: %.1f allocs per %d packets", nf.Name(), allocs, len(frames))
		}
	}
	if lb.ActiveFlows() != len(frames) || lb.PassedThrough != 0 {
		t.Fatalf("load balancer tracks %d flows and passed %d packets through; want %d and 0",
			lb.ActiveFlows(), lb.PassedThrough, len(frames))
	}
}

func TestRouterLPM(t *testing.T) {
	r := NewRouter()
	r.AddRoute(proto.Addr4(0, 0, 0, 0), 0, 1)   // default
	r.AddRoute(proto.Addr4(10, 0, 0, 0), 8, 2)  // corporate
	r.AddRoute(proto.Addr4(10, 1, 0, 0), 16, 3) // branch
	r.AddRoute(proto.Addr4(10, 1, 2, 0), 24, 4) // lab
	cases := []struct {
		addr proto.IPv4Addr
		hop  int
	}{
		{proto.Addr4(8, 8, 8, 8), 1},
		{proto.Addr4(10, 9, 9, 9), 2},
		{proto.Addr4(10, 1, 9, 9), 3},
		{proto.Addr4(10, 1, 2, 250), 4},
	}
	for _, c := range cases {
		hop, ok := r.Lookup(c.addr)
		if !ok || hop != c.hop {
			t.Errorf("Lookup(%v) = %d,%v, want %d", c.addr, hop, ok, c.hop)
		}
	}
	if _, ok := NewRouter().Lookup(proto.Addr4(1, 2, 3, 4)); ok {
		t.Error("empty FIB matched")
	}
	if err := r.AddRoute(0, 40, 1); err == nil {
		t.Error("bad prefix length accepted")
	}
}

func TestRouterTTLAndChecksum(t *testing.T) {
	r := NewRouter()
	r.AddRoute(0, 0, 7)
	fr := udpFrame(insideA, outside, 1, 2, "x")
	if r.Process(fr) != Accept {
		t.Fatal("routable packet dropped")
	}
	f, _ := proto.Decode(fr)
	if f.IP.TTL != 63 {
		t.Fatalf("TTL = %d, want 63", f.IP.TTL)
	}
	if !proto.VerifyIPv4Checksum(fr[proto.EthernetHeaderLen:]) {
		t.Fatal("checksum wrong after TTL decrement")
	}
	if r.LastNextHop != 7 {
		t.Fatalf("next hop = %d", r.LastNextHop)
	}
	// TTL 1 expires.
	fr2 := udpFrame(insideA, outside, 1, 2, "x")
	fr2[proto.EthernetHeaderLen+8] = 1
	if r.Process(fr2) != Drop {
		t.Fatal("TTL 1 must expire")
	}
}

func TestDPIMatching(t *testing.T) {
	d := NewDPI([][]byte{[]byte("attack"), []byte("tac")}, true)
	// Overlapping patterns: "attack" contains "tac".
	if d.Process(udpFrame(insideA, outside, 1, 2, "an attack payload")) != Drop {
		t.Fatal("IPS mode must drop on match")
	}
	if d.PerPattern[0] != 1 || d.PerPattern[1] != 1 {
		t.Fatalf("per-pattern hits = %v (overlap must be found)", d.PerPattern)
	}
	if d.Process(udpFrame(insideA, outside, 1, 2, "benign traffic")) != Accept {
		t.Fatal("benign payload dropped")
	}
}

func TestDPIIDSMode(t *testing.T) {
	d := NewDPI([][]byte{[]byte("worm")}, false)
	if d.Process(udpFrame(insideA, outside, 1, 2, "worm worm worm")) != Accept {
		t.Fatal("IDS mode must not drop")
	}
	if d.Matches != 3 {
		t.Fatalf("matches = %d, want 3 occurrences", d.Matches)
	}
}

func TestDPIEmptyAndBinaryPayloads(t *testing.T) {
	d := NewDPI([][]byte{{0x90, 0x90, 0x90}}, true) // NOP sled
	if d.Process(udpFrame(insideA, outside, 1, 2, "")) != Accept {
		t.Fatal("empty payload mishandled")
	}
	bin := string([]byte{0x41, 0x90, 0x90, 0x90, 0x42})
	if d.Process(udpFrame(insideA, outside, 1, 2, bin)) != Drop {
		t.Fatal("binary pattern missed")
	}
}

func TestLoadBalancerConsistency(t *testing.T) {
	vip := proto.Addr4(198, 51, 100, 100)
	backends := []proto.IPv4Addr{
		proto.Addr4(10, 0, 1, 1), proto.Addr4(10, 0, 1, 2), proto.Addr4(10, 0, 1, 3),
	}
	lb := NewLoadBalancer(vip, backends)
	// The same flow must always land on the same backend.
	var first proto.IPv4Addr
	for i := 0; i < 5; i++ {
		fr := tcpFrame(insideA, vip, 40000, 80, "GET /")
		if lb.Process(fr) != Accept {
			t.Fatal("balanced packet dropped")
		}
		f, _ := proto.Decode(fr)
		if i == 0 {
			first = f.IP.Dst
		} else if f.IP.Dst != first {
			t.Fatal("flow moved between backends")
		}
		checksumsValid(t, fr)
	}
	if lb.ActiveFlows() != 1 {
		t.Fatalf("flows = %d", lb.ActiveFlows())
	}
}

func TestLoadBalancerSpreadsFlows(t *testing.T) {
	vip := proto.Addr4(198, 51, 100, 100)
	backends := []proto.IPv4Addr{
		proto.Addr4(10, 0, 1, 1), proto.Addr4(10, 0, 1, 2),
		proto.Addr4(10, 0, 1, 3), proto.Addr4(10, 0, 1, 4),
	}
	lb := NewLoadBalancer(vip, backends)
	for i := 0; i < 400; i++ {
		fr := tcpFrame(proto.Addr4(10, 0, 0, byte(i)), vip, uint16(1000+i), 80, "")
		lb.Process(fr)
	}
	for i, c := range lb.PerBackend {
		if c < 40 {
			t.Errorf("backend %d got only %d of 400 flows", i, c)
		}
	}
}

func TestLoadBalancerPassThrough(t *testing.T) {
	lb := NewLoadBalancer(proto.Addr4(198, 51, 100, 100), []proto.IPv4Addr{proto.Addr4(10, 0, 1, 1)})
	fr := udpFrame(insideA, outside, 1, 2, "not for vip")
	if lb.Process(fr) != Accept {
		t.Fatal("non-VIP traffic dropped")
	}
	f, _ := proto.Decode(fr)
	if f.IP.Dst != outside {
		t.Fatal("non-VIP traffic rewritten")
	}
	if lb.PassedThrough != 1 {
		t.Fatal("pass-through not counted")
	}
}

func TestAdaptBatchVerdicts(t *testing.T) {
	deny := AdaptBatch(NewFirewall(Drop))
	allow := AdaptBatch(NewFirewall(Accept))
	frame := func() *dataplane.Packet {
		return &dataplane.Packet{Frame: udpFrame(outside, insideA, 1, 2, "x")}
	}
	dropped, frameless := frame(), &dataplane.Packet{}
	deny([]*dataplane.Packet{dropped, frameless})
	if !dropped.Drop {
		t.Fatal("Drop verdict must set Packet.Drop so the ledger charges an NFDrop")
	}
	if frameless.Drop {
		t.Fatal("frameless packet must pass through untouched")
	}
	ok := frame()
	allow([]*dataplane.Packet{ok})
	if ok.Drop || len(ok.Frame) == 0 {
		t.Fatal("accepted frame dropped or cleared")
	}
}

func BenchmarkNATOutbound(b *testing.B) {
	n := NewNAT(natIP, nil)
	fr := udpFrame(insideA, outside, 5555, 53, "query")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Process(fr)
	}
}

func BenchmarkRouterLPM(b *testing.B) {
	r := NewRouter()
	r.AddRoute(0, 0, 1)
	for i := 0; i < 256; i++ {
		r.AddRoute(proto.Addr4(10, byte(i), 0, 0), 16, i)
	}
	fr := udpFrame(insideA, proto.Addr4(10, 200, 3, 4), 1, 2, "x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr[proto.EthernetHeaderLen+8] = 64 // refresh TTL
		r.Process(fr)
	}
}

func BenchmarkDPI64B(b *testing.B) {
	d := NewDPI([][]byte{[]byte("attack"), []byte("malware"), []byte("exploit")}, false)
	fr := udpFrame(insideA, outside, 1, 2, "just an ordinary payload here!")
	b.SetBytes(int64(len(fr)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(fr)
	}
}

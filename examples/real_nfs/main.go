// Real NFs: a service chain of actual packet processors — monitor →
// firewall → NAT → router → DPI — running real Ethernet/IPv4/UDP frames
// through the concurrent dataplane, with NFVnice-style auto weights and
// backpressure. This is the paper's motivating middlebox chain as working
// code: headers get parsed, checksums get rewritten incrementally, payloads
// get scanned.
//
// Frames ride the zero-copy arena path: Config.FrameSize preallocates one
// frame slot per descriptor, ingress copies wire bytes into the slot once
// (the NIC-DMA analogue), and every NF mutates the slot in place. An NF
// Drop verdict recycles the descriptor mid-chain and shows up in the
// conservation ledger's NFDrops class, not at the output.
//
// Run:
//
//	go run ./examples/real_nfs
package main

import (
	"context"
	"fmt"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/nfs"
	"nfvnice/internal/proto"
)

func main() {
	var (
		macSrc = proto.MAC{2, 0, 0, 0, 0, 1}
		macGW  = proto.MAC{2, 0, 0, 0, 0, 2}
		inside = proto.Addr4(10, 0, 0, 42)
		dnsSrv = proto.Addr4(8, 8, 8, 8)
		webSrv = proto.Addr4(93, 184, 216, 34)
		natIP  = proto.Addr4(198, 51, 100, 1)
	)

	mon := nfs.NewMonitor()
	fw := nfs.NewFirewall(nfs.Drop)
	fw.AddRule(nfs.FirewallRule{DstPortLo: 53, Proto: proto.IPProtoUDP, Action: nfs.Accept})
	fw.AddRule(nfs.FirewallRule{DstPortLo: 80, DstPortHi: 443, Action: nfs.Accept})
	nat := nfs.NewNAT(natIP, func(a proto.IPv4Addr) bool { return uint32(a)>>24 == 10 })
	rt := nfs.NewRouter()
	rt.AddRoute(proto.Addr4(0, 0, 0, 0), 0, 1)
	rt.AddRoute(proto.Addr4(8, 8, 8, 0), 24, 2)
	dpi := nfs.NewDPI([][]byte{[]byte("exploit"), []byte("\x90\x90\x90\x90")}, true)

	cfg := dataplane.DefaultConfig()
	cfg.FrameSize = 256
	e := dataplane.New(cfg)
	stages := []struct {
		name string
		p    nfs.Processor
	}{
		{"monitor", mon}, {"firewall", fw}, {"nat", nat}, {"router", rt}, {"dpi", dpi},
	}
	ids := make([]int, len(stages))
	for i, s := range stages {
		ids[i] = e.AddBatchStage(s.name, 1024, nfs.AdaptBatch(s.p))
	}
	ch, err := e.AddChain(ids...)
	if err != nil {
		panic(err)
	}
	e.MapFlow(0, ch)

	// Frames an NF drops mid-chain are recycled there and charged to the
	// ledger; only survivors reach the sink.
	survived := 0
	e.SetSink(func(ps []*dataplane.Packet) {
		survived += len(ps)
		e.PutPacketBatch(ps)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	// Inject a realistic mix: DNS queries (allowed), HTTP (allowed, one
	// carrying an exploit string the DPI kills), and SSH (firewalled).
	// Each frame is copied once into an arena slot at ingress.
	// The producer's lane only promises to offer a frame to the chain, so
	// pace against the ledger (unsettled packets plus the lane's backlog):
	// held below the watermark, the entry sheds nothing.
	h := e.ProducerHandle(0)
	injected := 0
	inject := func(frame []byte) {
		p := e.GetPacket()
		buf := p.Frame[:cap(p.Frame)]
		n := copy(buf, frame)
		p.Frame = buf[:n]
		p.Size = n
		p.FlowID = 0
		for h.Len()+int(e.LedgerSnapshot().Residual()) >= 256 || !h.Inject(p) {
			time.Sleep(10 * time.Microsecond)
		}
		injected++
	}
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		inject(proto.BuildUDP(macSrc, macGW, inside, dnsSrv, uint16(30000+i%1000), 53, []byte("dns query")))
		inject(proto.BuildTCP(macSrc, macGW, inside, webSrv, uint16(40000+i%1000), 80, 1, 1, proto.TCPAck, []byte("GET / HTTP/1.1")))
		if i%100 == 0 {
			inject(proto.BuildTCP(macSrc, macGW, inside, webSrv, 45555, 80, 1, 1, proto.TCPAck, []byte("run exploit now")))
		}
		inject(proto.BuildTCP(macSrc, macGW, inside, webSrv, uint16(50000+i%1000), 22, 1, 1, proto.TCPSyn, nil))
	}
	time.Sleep(500 * time.Millisecond)
	cancel()
	<-done

	l := e.LedgerSnapshot()
	fmt.Println("chain: monitor → firewall → nat → router → dpi")
	fmt.Printf("injected %d frames: %d survived, %d dropped mid-chain (ledger residual %d)\n\n",
		injected, survived, l.NFDrops, l.Residual())
	fmt.Printf("monitor:  %d flows tracked, top flow %d packets\n", mon.Flows(), mon.Top(1)[0].Packets)
	fmt.Printf("firewall: %d accepted, %d dropped (ssh blocked)\n", fw.Accepted, fw.Dropped)
	fmt.Printf("nat:      %d translations, %d bindings (external %v)\n", nat.Translated, nat.Bindings(), natIP)
	fmt.Printf("router:   %d routed, last next-hop %d\n", rt.Routed, rt.LastNextHop)
	fmt.Printf("dpi:      %d payloads scanned, %d matches, %d dropped\n", dpi.Scanned, dpi.Matches, dpi.Dropped)
	fmt.Println()
	for _, s := range e.Stats() {
		fmt.Printf("stage %-9s processed=%6d weight=%5d estCost=%v\n", s.Name, s.Processed, s.Weight, s.EstCost)
	}
}

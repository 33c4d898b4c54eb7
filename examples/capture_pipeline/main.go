// Capture pipeline: the full stack in one program. A two-core goroutine
// dataplane runs real NFs (monitor on core 0, DPI on core 1) over real
// frames; the sink mirrors every frame that survives the chain into a
// Wireshark-readable pcap file, which is then read back and summarized.
//
// Run:
//
//	go run ./examples/capture_pipeline
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/nfs"
	"nfvnice/internal/pcap"
	"nfvnice/internal/proto"
)

func main() {
	const out = "capture.pcap"

	mon := nfs.NewMonitor()
	dpi := nfs.NewDPI([][]byte{[]byte("exfiltrate")}, true)

	e := dataplane.New(dataplane.Config{Cores: 2, RingSize: 1024, FrameSize: 128})
	s1 := e.AddBatchStageOn("monitor", 1024, 0, nfs.AdaptBatch(mon))
	s2 := e.AddBatchStageOn("dpi", 1024, 1, nfs.AdaptBatch(dpi))
	ch, err := e.AddChain(s1, s2)
	if err != nil {
		panic(err)
	}
	e.MapFlow(0, ch)

	f, err := os.Create(out)
	if err != nil {
		panic(err)
	}
	w := pcap.NewWriter(f, 0)
	e.SetSink(func(ps []*dataplane.Packet) {
		// Frames the DPI killed mid-chain were recycled at the DPI stage
		// (Packet.Drop) and never reach the sink; survivors carry their
		// arena frame.
		now := time.Now()
		for _, p := range ps {
			if len(p.Frame) > 0 {
				w.WritePacket(now, p.Frame)
			}
		}
		e.PutPacketBatch(ps) // recycle the descriptors and their arena frames
	})

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { e.Run(ctx); close(runDone) }()

	// Offer a mix of benign and malicious traffic through the producer's
	// lane. Lane acceptance only means "offered": pace against the ledger
	// (accepted-but-unsettled packets plus the lane's own backlog) so the
	// chain entry never has a reason to shed.
	h := e.ProducerHandle(0)
	macA := proto.MAC{2, 0, 0, 0, 0, 1}
	macB := proto.MAC{2, 0, 0, 0, 0, 2}
	src := proto.Addr4(10, 0, 0, 1)
	dst := proto.Addr4(10, 9, 9, 9)
	const total = 2000
	sent := 0
	for i := 0; sent < total; i++ {
		payload := []byte("regular business traffic")
		if i%50 == 0 {
			payload = []byte("attempt to exfiltrate secrets")
		}
		frame := proto.BuildUDP(macA, macB, src, dst, uint16(4000+i%100), 9, payload)
		p := e.GetPacket()
		buf := p.Frame[:cap(p.Frame)]
		n := copy(buf, frame)
		p.Frame = buf[:n]
		p.Size = n
		p.FlowID = 0
		for h.Len()+int(e.LedgerSnapshot().Residual()) >= 256 || !h.Inject(p) {
			time.Sleep(50 * time.Microsecond)
		}
		sent++
	}
	time.Sleep(300 * time.Millisecond)
	cancel()
	<-runDone // the sink runs on the engine's mover: stop it before flushing
	w.Flush()
	f.Close()

	// Read the capture back.
	rf, err := os.Open(out)
	if err != nil {
		panic(err)
	}
	pkts, err := pcap.ReadAll(rf)
	rf.Close()
	if err != nil {
		panic(err)
	}
	fmt.Printf("injected %d frames across 2 cores (monitor@0 → dpi@1)\n", sent)
	fmt.Printf("monitor tracked %d flows; dpi dropped %d malicious frames\n", mon.Flows(), dpi.Dropped)
	fmt.Printf("sink captured %d surviving frames to %s (Wireshark-readable)\n", len(pkts), out)
	if len(pkts) > 0 {
		fr, _ := proto.Decode(pkts[0].Data)
		fmt.Printf("first captured frame: %v:%d -> %v:%d, %d bytes\n",
			fr.IP.Src, fr.UDP.SrcPort, fr.IP.Dst, fr.UDP.DstPort, pkts[0].Orig)
	}
	os.Remove(out)
}

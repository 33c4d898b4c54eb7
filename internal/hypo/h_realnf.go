package hypo

// H-RealNF-Liveness: the liveness invariant holds when the stages are real
// network functions on the zero-copy frame path, not no-op handlers. A
// paced firewall→NAT→monitor chain below capacity must deliver every
// admitted frame, close the ledger, keep queues bounded by the in-flight
// population — and deliver the frames *intact*: every frame carries a flow
// number and payload checksum written at ingress and verified at the sink,
// after the NAT has rewritten addresses, ports, and checksums in the same
// arena slot. A buffer-ownership bug in the arena (slot aliasing, recycle
// while in flight, cross-slot append bleed) shows up here as a checksum
// mismatch even when the packet-count invariants all pass.

import (
	"strconv"
	"sync/atomic"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/frontend"
	"nfvnice/internal/nfs"
	"nfvnice/internal/proto"
)

func init() {
	Register(Experiment{
		Name:  "h-realnf-liveness",
		Title: "Real-NF chains on arena frames are lossless and frame-intact below capacity",
		Claim: "With offered load paced below capacity (in-flight cap 128 << ring 512), " +
			"firewall→NAT→monitor chains running on preallocated arena frames deliver every " +
			"admitted packet with a closed ledger and queues bounded by the in-flight " +
			"population, and every delivered frame passes its ingress payload checksum after " +
			"in-place NAT rewriting — for movers in {1,4}, chains in {2,8}, and payloads in " +
			"{64B, 512B}.",
		Axes: []Axis{
			{Name: "movers", Values: []string{"1", "4"}},
			{Name: "chains", Values: []string{"2", "8"}},
			{Name: "payload", Values: []string{"64", "512"}},
		},
		Run: runRealNFLiveness,
	})
}

// realNFHeaderLen is the fixed header prefix of the generated frames; the
// checksummed payload starts right after it.
const realNFHeaderLen = proto.EthernetHeaderLen + proto.IPv4MinHeaderLen + proto.UDPHeaderLen

func runRealNFLiveness(ctx RunCtx) (Outcome, error) {
	movers, _ := strconv.Atoi(ctx.Params["movers"])
	chains, _ := strconv.Atoi(ctx.Params["chains"])
	payloadLen, _ := strconv.Atoi(ctx.Params["payload"])

	const inflight = 128
	const flowsPerChain = 64 // bounded so NAT bindings and monitor flows stay finite
	frameSize := realNFHeaderLen + payloadLen
	e := dataplane.New(dataplane.Config{
		RingSize: 512, BatchSize: 16, Movers: movers,
		FrameSize:    frameSize,
		WeightPeriod: 10 * time.Millisecond,
		DrainTimeout: 2 * time.Second,
		JitterSeed:   int64(ctx.Seed),
	})
	for c := 0; c < chains; c++ {
		procs := []nfs.Processor{
			nfs.NewFirewall(nfs.Accept),
			nfs.NewNAT(proto.Addr4(203, 0, 113, byte(c+1)), nil),
			nfs.NewMonitor(),
		}
		ids := make([]int, len(procs))
		for i, p := range procs {
			ids[i] = e.AddBatchStage(p.Name(), 1024, nfs.AdaptBatch(p))
		}
		ch, err := e.AddChain(ids...)
		if err != nil {
			return Outcome{}, err
		}
		e.MapFlow(c, ch)
	}

	// The CRC tap: the sink re-derives each delivered frame's payload
	// checksum (frontend.FillPayload wrote it at ingress) before recycling.
	// NAT rewrote the headers in the same slot; the payload must be intact.
	var verified, corrupt atomic.Uint64
	e.SetSink(func(ps []*dataplane.Packet) {
		for _, p := range ps {
			if len(p.Frame) >= realNFHeaderLen+16 {
				if _, ok := frontend.VerifyPayload(p.Frame[realNFHeaderLen:]); ok {
					verified.Add(1)
				} else {
					corrupt.Add(1)
				}
			} else {
				corrupt.Add(1)
			}
		}
		e.PutPacketBatch(ps)
	})

	// Per-flow payloads: flow number + FNV-1a checksum, precomputed once.
	flows := chains * flowsPerChain
	payloads := make([][]byte, flows)
	for n := range payloads {
		payloads[n] = make([]byte, payloadLen)
		frontend.FillPayload(uint64(n), payloads[n])
	}

	run := start(e)
	sampler := sampleDepths(e)

	total := ctx.N(2000 * chains)
	deadline := time.Now().Add(120 * time.Second)
	injected := injectFrames(e, chains, flowsPerChain, payloads, total, inflight, deadline)
	settled := injected && waitSettled(e, total, 60*time.Second)
	maxDepth := sampler.Stop()
	if err := run.stop(30 * time.Second); err != nil {
		return Outcome{}, err
	}

	l := e.LedgerSnapshot()
	checks := []Check{
		check("admits_full_load", injected,
			"injection did not complete %d packets before the deadline (injected=%d)", total, l.Injected),
		check("settles", settled, "residual never reached zero: %+v", l),
		check("ledger_closes", l.Residual() == 0, "residual=%d ledger=%+v", l.Residual(), l),
		check("all_delivered", l.Delivered == uint64(total),
			"delivered=%d want=%d ledger=%+v", l.Delivered, total, l),
		check("no_accepted_loss",
			l.MidRingDrops == 0 && l.NFDrops == 0 && l.FaultDrops == 0 &&
				l.ShutdownDrops == 0 && l.LateDrops == 0,
			"accepted packets lost: mid=%d nf=%d fault=%d shutdown=%d late=%d",
			l.MidRingDrops, l.NFDrops, l.FaultDrops, l.ShutdownDrops, l.LateDrops),
		check("queues_bounded", maxDepth <= inflight,
			"max sampled queue depth %d exceeds the in-flight cap %d", maxDepth, inflight),
		check("frames_intact", corrupt.Load() == 0 && verified.Load() == uint64(total),
			"frame integrity tap: verified=%d corrupt=%d want=%d",
			verified.Load(), corrupt.Load(), total),
	}
	return Outcome{
		Checks: checks,
		Observed: map[string]uint64{
			"injected":        l.Injected,
			"delivered":       l.Delivered,
			"verified_frames": verified.Load(),
			"corrupt_frames":  corrupt.Load(),
			"max_queue_depth": uint64(maxDepth),
		},
	}, nil
}

// injectFrames is injectPaced for the frame path: each admitted packet gets
// a full Ethernet+IPv4+UDP frame encoded in place into its arena slot, with
// flow n's checksummed payload. Flows cycle round-robin across chains and a
// bounded per-chain flow population, so every chain's NAT sees a finite,
// recurring set of 5-tuples.
func injectFrames(e *dataplane.Engine, chains, flowsPerChain int, payloads [][]byte, total, inflight int, deadline time.Time) bool {
	srcMAC := proto.MAC{2, 0, 0, 0, 0, 1}
	dstMAC := proto.MAC{2, 0, 0, 0, 0, 2}
	flows := chains * flowsPerChain
	h := e.ProducerHandle(0)
	defer h.Close()
	for sent := 0; sent < total; sent++ {
		f := sent % flows
		ok := offerPaced(e, h, sent, inflight, deadline, func(p *dataplane.Packet) {
			buf := p.Frame[:cap(p.Frame)]
			n := proto.EncodeUDP(buf, srcMAC, dstMAC,
				proto.Addr4(10, byte(f>>16), byte(f>>8), byte(f)),
				proto.Addr4(198, 51, 100, 7),
				uint16(20000+f%40000), 53, payloads[f])
			p.Frame = buf[:n]
			p.Size = n
			p.FlowID = f % chains
		})
		if !ok {
			return false
		}
	}
	return true
}

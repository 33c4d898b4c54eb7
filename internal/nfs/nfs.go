// Package nfs implements the network functions the paper's introduction
// motivates — bridge, monitor, firewall, NAT, router, DPI, load balancer —
// as real packet processors over internal/proto frames. They run in the
// concurrent dataplane (each satisfies Processor; AdaptBatch turns one into
// a dataplane.BatchHandler) and double as realistic cost generators: their
// cycle costs vary with packet contents exactly the way §2.1 describes.
package nfs

import (
	"fmt"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/packet"
	"nfvnice/internal/proto"
)

// Verdict is an NF's decision about a packet.
type Verdict int

// Verdicts.
const (
	Accept Verdict = iota
	Drop
)

func (v Verdict) String() string {
	switch v {
	case Accept:
		return "accept"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Processor is a network function operating on a raw Ethernet frame. The
// frame may be mutated in place (NAT, router TTL, ECN marking).
type Processor interface {
	// Name identifies the NF in stats.
	Name() string
	// Process handles one frame and returns the verdict.
	Process(frame []byte) Verdict
}

// AdaptBatch wraps a Processor as a dataplane BatchHandler: one closure call
// covers the worker's whole dequeued chunk, and the NF mutates each
// Packet.Frame in place (no boxing, no copy). A Drop verdict routes through
// Packet.Drop, so the worker recycles the descriptor and the conservation
// ledger charges an NFDrop. Frameless packets (descriptor-only traffic) pass
// through untouched.
func AdaptBatch(p Processor) dataplane.BatchHandler {
	return func(pkts []*dataplane.Packet) {
		for _, pkt := range pkts {
			if len(pkt.Frame) == 0 {
				continue
			}
			if p.Process(pkt.Frame) == Drop {
				pkt.Drop = true
			}
		}
	}
}

// keyOf packs a frame's 5-tuple into the flow key of every NF's per-flow
// state, a flowtable.Map.
func keyOf(t *proto.Tuple) packet.Key {
	return packet.PackKey(uint32(t.Src), uint32(t.Dst), t.SrcPort, t.DstPort, t.Protocol)
}

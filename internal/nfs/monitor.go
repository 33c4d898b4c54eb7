package nfs

import (
	"sort"

	"nfvnice/internal/packet"
	"nfvnice/internal/proto"
)

// FlowStat is a monitor counter for one 5-tuple.
type FlowStat struct {
	Src, Dst         proto.IPv4Addr
	SrcPort, DstPort uint16
	Proto            uint8
	Packets, Bytes   uint64
}

// flowCount is one flow's counters. It lives in the map value, so a packet
// costs a lookup and a write-back: no pointer to chase, nothing to allocate.
type flowCount struct{ packets, bytes uint64 }

// Monitor is a passive per-flow packet/byte counter — the paper's "basic
// monitor NF". Its per-packet cost is a flow-table hash update, naturally
// cheap, matching the "Low" class.
type Monitor struct {
	flows map[packet.Key]flowCount

	// NonIP counts frames the monitor could not classify.
	NonIP uint64
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{flows: make(map[packet.Key]flowCount)}
}

// Name implements Processor.
func (m *Monitor) Name() string { return "monitor" }

// Process implements Processor.
func (m *Monitor) Process(frame []byte) Verdict {
	t, err := proto.DecodeTuple(frame)
	if err != nil || !t.HasIP() {
		m.NonIP++
		return Accept // monitors never drop
	}
	k := keyOf(&t)
	c := m.flows[k]
	c.packets++
	c.bytes += uint64(len(frame))
	m.flows[k] = c
	return Accept
}

// Flows reports the number of tracked flows.
func (m *Monitor) Flows() int { return len(m.flows) }

// Top returns the n busiest flows by bytes, descending (deterministic ties
// by tuple order).
func (m *Monitor) Top(n int) []FlowStat {
	out := make([]FlowStat, 0, len(m.flows))
	for k, c := range m.flows {
		fk := k.FlowKey()
		out = append(out, FlowStat{
			Src: proto.IPv4Addr(fk.SrcIP), Dst: proto.IPv4Addr(fk.DstIP),
			SrcPort: fk.SrcPort, DstPort: fk.DstPort, Proto: uint8(fk.Proto),
			Packets: c.packets, Bytes: c.bytes,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].SrcPort < out[j].SrcPort
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

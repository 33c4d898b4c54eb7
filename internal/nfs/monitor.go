package nfs

import (
	"sort"

	"nfvnice/internal/flowtable"
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

// flowCount is one flow's counters. It lives in the table slot beside its
// key, so a packet costs one probe and two adds in place.
type flowCount struct{ packets, bytes uint64 }

// Monitor is a passive per-flow packet/byte counter — the paper's "basic
// monitor NF". Its per-packet cost is a flow-table hash update, naturally
// cheap, matching the "Low" class.
type Monitor struct {
	flows *flowtable.Map[flowCount]

	// NonIP counts frames the monitor could not classify.
	NonIP uint64
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{flows: flowtable.NewMap[flowCount](0)}
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
	c, _ := m.flows.Upsert(keyOf(&t))
	c.packets++
	c.bytes += uint64(len(frame))
	return Accept
}

// Flows reports the number of tracked flows.
func (m *Monitor) Flows() int { return m.flows.Len() }

// Top returns the n busiest flows by bytes, descending (deterministic ties
// by tuple order).
func (m *Monitor) Top(n int) []FlowStat {
	out := make([]FlowStat, 0, m.flows.Len())
	m.flows.Range(func(k packet.Key, c *flowCount) {
		fk := k.FlowKey()
		out = append(out, FlowStat{
			Src: proto.IPv4Addr(fk.SrcIP), Dst: proto.IPv4Addr(fk.DstIP),
			SrcPort: fk.SrcPort, DstPort: fk.DstPort, Proto: uint8(fk.Proto),
			Packets: c.packets, Bytes: c.bytes,
		})
	})
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

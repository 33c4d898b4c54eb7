package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/flowtable"
	"nfvnice/internal/frontend"
	"nfvnice/internal/nfs"
	"nfvnice/internal/packet"
	"nfvnice/internal/proto"
)

// The workloads, in the order BENCHMARK.json lists them. README.md says why
// each exists and which layers it stresses.
var workloadNames = []string{
	"fwd64_chain3",
	"realnf_mtu_resident",
	"realnf_64B_churn",
	"paced_200k",
	"overload_isolation",
	"sim_fig7",
}

// journalSize lets a traced run, which polls the journal four times a second,
// read every decision before the journal wraps.
const journalSize = 8192

var liveWorkloads = map[string]*liveSpec{
	// Bare forwarding at the smallest frame: lanes, rings, grant hand-off,
	// mover and pool do all the work; NFs, flow table and control loop none.
	"fwd64_chain3": {
		cfg: dataplane.Config{
			Cores: 1, Movers: 1, RingSize: 4096, BatchSize: 256,
			FrameSize: 64, DecisionJournalSize: journalSize,
		},
		inflight: 1024,
		build: func(e *dataplane.Engine, seed int64, wrap wrapFunc) traffic {
			chains := noopChains(e, 1, 3, "fwd", true, wrap)
			return traffic{classes: []class{{name: "fwd", victim: true, src: newRawSource(seed, 64, 64, chains)}}}
		},
	},
	// Real NFs on MTU frames with a resident flow set, at a fixed 600 kpps:
	// handler work and a 24 MB arena dominate, the flow table only ever hits.
	// As a closed loop this chain's goodput followed the host's memory system
	// more than the code — 1.15 to 1.72 Mpps over ten identical runs, and with
	// a 3 MB arena still 1.54 to 1.95 — so it is offered about 40 % of what
	// it forwards and held to delivery and the latency limit instead.
	"realnf_mtu_resident": {
		cfg: dataplane.Config{
			Cores: 1, Movers: 1, RingSize: 4096, BatchSize: 256,
			FrameSize: 1500, DecisionJournalSize: journalSize,
		},
		spin: true,
		build: func(e *dataplane.Engine, seed int64, wrap wrapFunc) traffic {
			return realNFTraffic(e, seed, wrap, udpParams{
				payload: 1500 - metaLen - udpHeaders, slots: 64, keys: 64, tableCap: 4096,
				rate: 600_000,
			})
		},
	},
	// The same chain the other way: small frames, short heavy-tailed flows
	// and a flow table smaller than the live flow set, so classification
	// misses, inserts and evicts all the time.
	"realnf_64B_churn": {
		cfg: dataplane.Config{
			Cores: 1, Movers: 1, RingSize: 4096, BatchSize: 256,
			FrameSize: udpHeaders + 64 + metaLen, DecisionJournalSize: journalSize,
		},
		inflight: 1024,
		build: func(e *dataplane.Engine, seed int64, wrap wrapFunc) traffic {
			return realNFTraffic(e, seed, wrap, udpParams{
				payload: 64, slots: 1024, keys: natKeyBudget, tableCap: 512,
				alpha: 1.2, minPkts: 1, maxPkts: 1024,
			})
		},
	},
	// About 8 % load: latency and CPU are set by the idle path (scheduler
	// sleep, mover park and wake), not by per-packet cost.
	"paced_200k": {
		cfg: dataplane.Config{
			Cores: 1, Movers: 1, RingSize: 1024, BatchSize: 32,
			WeightPeriod: 10 * time.Millisecond,
			FrameSize:    64, DecisionJournalSize: journalSize,
		},
		spin: true,
		build: func(e *dataplane.Engine, seed int64, wrap wrapFunc) traffic {
			chains := noopChains(e, 3, 3, "paced", true, wrap)
			return traffic{classes: []class{{name: "paced", rate: 200_000, victim: true, src: newRawSource(seed, 64, 96, chains)}}}
		},
	},
	// The paper's Fig. 8 / Table 3 case: paced victims share a core with a
	// chain offered three times what it drains. Only here do backpressure,
	// entry shedding and the weight controller act.
	"overload_isolation": {
		cfg: dataplane.Config{
			Cores: 1, Movers: 1, RingSize: 1024, BatchSize: 32,
			WeightPeriod: 10 * time.Millisecond,
			FrameSize:    64, DecisionJournalSize: journalSize,
		},
		build: func(e *dataplane.Engine, seed int64, wrap wrapFunc) traffic {
			victims := noopChains(e, 3, 3, "victim", true, wrap)
			entry := e.AddBatchStage("aggr-entry", 1024, wrap(0, "aggr-entry", false, noop))
			work := e.AddBatchStage("aggr-work", 1024, wrap(1, "aggr-work", false, fixedWork))
			ch, err := e.AddChain(entry, work)
			if err != nil {
				panic(err)
			}
			e.MapFlow(ch, ch)
			return traffic{classes: []class{
				{name: "victim", rate: 100_000, victim: true, src: newRawSource(seed, 64, 96, victims)},
				{name: "aggressor", rate: 1_000_000, src: newRawSource(seed+1, 64, 32, []int{ch})},
			}}
		},
	},
}

// traffic is what a workload's build returns: the classes to offer and, when
// the workload classifies through one, the flow table to read counters from.
type traffic struct {
	classes []class
	table   *flowtable.Sharded
}

func noop([]*dataplane.Packet) {}

// fixedWork spends about 2 µs per packet: 80 rounds of FNV-1a over the
// frame's first 16 bytes, the result stored so the loop is not dead code.
func fixedWork(ps []*dataplane.Packet) {
	for _, p := range ps {
		h := uint64(14695981039346656037)
		for r := 0; r < 80; r++ {
			for _, b := range p.Frame[:16] {
				h ^= uint64(b)
				h *= 1099511628211
			}
		}
		p.Frame[16] = byte(h)
	}
}

// noopChains registers n chains of hops no-op batch stages each and routes
// flow id c to chain c. It returns the chain ids.
func noopChains(e *dataplane.Engine, n, hops int, prefix string, victim bool, wrap wrapFunc) []int {
	chains := make([]int, n)
	for c := range chains {
		ids := make([]int, hops)
		for h := range ids {
			name := fmt.Sprintf("%s%d-hop%d", prefix, c, h)
			ids[h] = e.AddBatchStage(name, 1024, wrap(h, name, victim, noop))
		}
		ch, err := e.AddChain(ids...)
		if err != nil {
			panic(err) // a bug in this file, not an input
		}
		e.MapFlow(ch, ch)
		chains[c] = ch
	}
	return chains
}

// rawSource emits fixed-size frames that carry nothing but the trailer, over
// nFlows flows visited in a seeded order and spread round-robin over chains.
type rawSource struct {
	frameLen int
	order    []uint32 // seeded permutation of the flow indices
	chains   []int
}

func newRawSource(seed int64, frameLen, nFlows int, chains []int) *rawSource {
	s := &rawSource{frameLen: frameLen, chains: chains}
	for _, f := range rand.New(rand.NewSource(seed)).Perm(nFlows) {
		s.order = append(s.order, uint32(f))
	}
	return s
}

func (s *rawSource) flows() int { return len(s.order) }

func (s *rawSource) fill(p *dataplane.Packet, seq uint64) uint32 {
	flow := s.order[seq%uint64(len(s.order))]
	p.Frame = p.Frame[:s.frameLen]
	p.Size = s.frameLen
	p.FlowID = s.chains[int(flow)%len(s.chains)]
	return flow
}

const (
	udpHeaders = proto.EthernetHeaderLen + proto.IPv4MinHeaderLen + proto.UDPHeaderLen
	// natKeyBudget is how many distinct 5-tuples the churn workload draws
	// from. nfs.NAT owns 45 536 ports and never expires a binding, so a run
	// that kept inventing 5-tuples would exhaust them and drop; flows beyond
	// the budget reuse a 5-tuple the way ephemeral ports are reused.
	natKeyBudget = 32768
)

var (
	natExternal = proto.Addr4(203, 0, 113, 1)
	srcMAC      = proto.MAC{0x02, 0, 0, 0, 0, 0x01}
	dstMAC      = proto.MAC{0x02, 0, 0, 0, 0, 0x02}
)

// udpParams shapes a real-NF workload's traffic.
type udpParams struct {
	rate     float64 // packets per second; 0 in a closed loop
	payload  int     // UDP payload bytes
	slots    int     // flows live at once, emitted round-robin
	keys     int     // distinct 5-tuples
	tableCap int     // flow-table capacity
	// Bounded-Pareto flow sizes in packets; alpha 0 means flows never end.
	alpha            float64
	minPkts, maxPkts int
}

// udpSlot is one live flow: its 5-tuple, its ready-made frame and how many
// packets it still has to send.
type udpSlot struct {
	key       packet.FlowKey
	tpl       []byte
	remaining int
}

// udpSource emits Ethernet+IPv4+UDP frames whose payload frontend.VerifyPayload
// can check, classifying every packet through the director's flow table.
type udpSource struct {
	udpParams
	rng      *rand.Rand
	dir      *frontend.Director
	keys     []packet.FlowKey
	slots    []udpSlot
	nextFlow uint64
	payload  []byte
}

func newUDPSource(seed int64, p udpParams, dir *frontend.Director) *udpSource {
	s := &udpSource{udpParams: p, rng: rand.New(rand.NewSource(seed)), dir: dir, payload: make([]byte, p.payload)}
	seen := make(map[packet.FlowKey]bool, p.keys)
	for len(s.keys) < p.keys {
		k := packet.FlowKey{
			SrcIP:   0x0a000000 | uint32(s.rng.Intn(1<<24)),
			DstIP:   uint32(proto.Addr4(198, 51, 100, 7)),
			SrcPort: uint16(1024 + s.rng.Intn(60000)),
			DstPort: 53,
			Proto:   packet.UDP,
		}
		if !seen[k] {
			seen[k] = true
			s.keys = append(s.keys, k)
		}
	}
	s.slots = make([]udpSlot, p.slots)
	for i := range s.slots {
		s.slots[i].tpl = make([]byte, udpHeaders+p.payload)
		s.arm(&s.slots[i])
	}
	return s
}

// arm starts the next flow in the slot.
func (s *udpSource) arm(sl *udpSlot) {
	n := s.nextFlow
	s.nextFlow++
	sl.key = s.keys[n%uint64(len(s.keys))]
	frontend.FillPayload(n, s.payload)
	proto.EncodeUDP(sl.tpl, srcMAC, dstMAC, proto.IPv4Addr(sl.key.SrcIP), proto.IPv4Addr(sl.key.DstIP),
		sl.key.SrcPort, sl.key.DstPort, s.payload)
	sl.remaining = s.flowSize()
}

// flowSize draws a bounded-Pareto packet count by inverting its CDF.
func (s *udpSource) flowSize() int {
	if s.alpha == 0 {
		return math.MaxInt
	}
	l, h := float64(s.minPkts), float64(s.maxPkts)
	u := s.rng.Float64()
	n := int(l / math.Pow(1-u*(1-math.Pow(l/h, s.alpha)), 1/s.alpha))
	return min(max(n, s.minPkts), s.maxPkts)
}

func (s *udpSource) flows() int { return len(s.slots) }

func (s *udpSource) fill(p *dataplane.Packet, seq uint64) uint32 {
	i := seq % uint64(len(s.slots))
	sl := &s.slots[i]
	if sl.remaining == 0 {
		s.arm(sl)
	}
	sl.remaining--
	buf := p.Frame[:len(sl.tpl)+metaLen]
	copy(buf, sl.tpl)
	p.Frame = buf
	p.Size = len(buf)
	p.FlowID = s.dir.ChainOf(sl.key)
	return uint32(i)
}

// verify checks a delivered frame: it still parses, its IPv4 checksum holds
// after the NAT's incremental update, its source is the NAT's address, and
// its payload is the one FillPayload wrote.
func (s *udpSource) verify(frame []byte) error {
	f, err := proto.Decode(frame)
	if err != nil {
		return err
	}
	switch {
	case !f.HasUDP:
		return errors.New("not UDP any more")
	case f.IP.Src != natExternal:
		return fmt.Errorf("source %v is not the NAT's %v", f.IP.Src, natExternal)
	case !proto.VerifyIPv4Checksum(frame[proto.EthernetHeaderLen : proto.EthernetHeaderLen+proto.IPv4MinHeaderLen]):
		return errors.New("IPv4 header checksum wrong after NAT")
	}
	if _, ok := frontend.VerifyPayload(frame[udpHeaders : udpHeaders+s.payloadLen()]); !ok {
		return errors.New("payload checksum mismatch")
	}
	return nil
}

func (s *udpSource) payloadLen() int { return len(s.payload) }

// realNFTraffic registers firewall→NAT→monitor as batch stages and returns
// the UDP class that feeds it through a one-chain director.
func realNFTraffic(e *dataplane.Engine, seed int64, wrap wrapFunc, p udpParams) traffic {
	fw := nfs.NewFirewall(nfs.Accept)
	for _, r := range firewallRules() {
		fw.AddRule(r)
	}
	procs := []nfs.Processor{fw, nfs.NewNAT(natExternal, nil), nfs.NewMonitor()}
	ids := make([]int, len(procs))
	for h, proc := range procs {
		ids[h] = e.AddBatchStage(proc.Name(), 1024, wrap(h, proc.Name(), true, nfs.AdaptBatch(proc)))
	}
	ch, err := e.AddChain(ids...)
	if err != nil {
		panic(err)
	}
	e.MapFlow(0, ch) // a one-chain director resolves every flow to index 0
	dir := frontend.NewDirector(1, p.tableCap)
	src := newUDPSource(seed, p, dir)
	return traffic{
		classes: []class{{name: "udp", rate: p.rate, victim: true, src: src, verify: src.verify}},
		table:   dir.Table,
	}
}

// firewallRules is a small deny list none of the generated traffic matches,
// so every packet walks all of it before the default accept.
func firewallRules() []nfs.FirewallRule {
	var rules []nfs.FirewallRule
	for i := 0; i < 8; i++ {
		rules = append(rules, nfs.FirewallRule{
			SrcAddr: proto.Addr4(192, 168, byte(i), 0), SrcPrefixLen: 24,
			DstPortLo: 6000, DstPortHi: 6063, Proto: proto.IPProtoUDP, Action: nfs.Drop,
		})
	}
	return rules
}

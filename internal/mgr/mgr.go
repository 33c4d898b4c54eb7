// Package mgr implements the NF manager: the OpenNetVM-style control plane
// running on dedicated cores that ferries packet descriptors between the
// NIC and NF rings (Rx/Tx threads), wakes NFs (wakeup subsystem), detects
// overload at enqueue time, and drives NFVnice's cross-chain backpressure.
//
// Thread model in the simulation: the Rx path runs inline with traffic
// injection (the Rx thread is never the bottleneck on its dedicated core);
// the Tx threads are modelled as a polling loop that drains NF transmit
// rings every TxPollInterval; the wakeup thread scans NF state every
// WakeupInterval, exactly the separation of overload detection (Tx) from
// control (wakeup) that the paper describes.
package mgr

import (
	"fmt"

	"nfvnice/internal/bp"
	"nfvnice/internal/chain"
	"nfvnice/internal/eventsim"
	"nfvnice/internal/flowtable"
	"nfvnice/internal/nf"
	"nfvnice/internal/packet"
	"nfvnice/internal/simtime"
	"nfvnice/internal/stats"
)

// Features select which NFVnice mechanisms are active, matching the paper's
// ablation: Default (none), CGroups only, Backpressure only, full NFVnice.
// CGroupShares itself is enacted by the controller in internal/core; the
// flag here gates nothing in the manager but travels with the config.
type Features struct {
	// CGroupShares enables rate-cost proportional cpu.shares assignment.
	CGroupShares bool
	// Backpressure enables the watermark state machine, chain-entry
	// dropping, upstream yield flags, and hold-instead-of-drop at
	// downstream rings (local backpressure).
	Backpressure bool
	// ECN enables CE marking of ECN-capable flows on smoothed queue
	// length.
	ECN bool
	// NoEntryDrop keeps backpressure's yield flags and local hold but
	// disables chain-entry shedding — the hop-by-hop-only ablation.
	NoEntryDrop bool
}

// FeatureDefault is the vanilla platform (kernel scheduler only).
func FeatureDefault() Features { return Features{} }

// FeatureCgroupsOnly matches the paper's "CGroup" bars.
func FeatureCgroupsOnly() Features { return Features{CGroupShares: true} }

// FeatureBackpressureOnly matches the paper's "Only BKPR" bars.
func FeatureBackpressureOnly() Features { return Features{Backpressure: true} }

// FeatureNFVnice is the full system.
func FeatureNFVnice() Features { return Features{CGroupShares: true, Backpressure: true, ECN: true} }

// Params configure the manager.
type Params struct {
	TxPollInterval simtime.Cycles
	WakeupInterval simtime.Cycles
	BP             bp.Params
	// ECNThreshold is the smoothed queue length (packets) above which
	// ECT packets are CE-marked. Half the default ring: comfortably above
	// the standing queue a weighted-fair share produces, and below the
	// 80% HIGH watermark so responsive flows react before backpressure
	// engages (RFC 3168 works at longer timescales).
	ECNThreshold float64
	Features     Features
}

// DefaultParams returns calibrated manager parameters.
func DefaultParams(f Features) Params {
	return Params{
		TxPollInterval: 10 * simtime.Microsecond,
		WakeupInterval: 50 * simtime.Microsecond,
		BP:             bp.DefaultParams(),
		ECNThreshold:   2048,
		Features:       f,
	}
}

// DropPoint says where a packet died.
type DropPoint uint8

// Drop locations.
const (
	DropPool       DropPoint = iota // descriptor pool exhausted (NIC drop)
	DropNoRoute                     // no flow table match
	DropEntry                       // shed at chain entry by backpressure
	DropEntryRing                   // first NF's receive ring full
	DropDownstream                  // mid-chain receive ring full (wasted work)
)

func (d DropPoint) String() string {
	switch d {
	case DropPool:
		return "pool"
	case DropNoRoute:
		return "no-route"
	case DropEntry:
		return "entry-throttle"
	case DropEntryRing:
		return "entry-ring"
	case DropDownstream:
		return "downstream"
	default:
		return "?"
	}
}

// Sink observes a flow's fate: traffic models (TCP) use it for feedback,
// experiments for per-flow accounting. Implementations must not retain pkt.
type Sink interface {
	Delivered(now simtime.Cycles, pkt *packet.Packet)
	Dropped(now simtime.Cycles, pkt *packet.Packet, at DropPoint)
}

// Manager wires NFs, chains, rings and backpressure together.
type Manager struct {
	Eng    *eventsim.Engine
	Pool   *packet.Pool
	Table  *flowtable.Table
	Chains *chain.Registry
	Params Params

	nfs []*nf.NF
	// bp is the backpressure policy (state machines, chain claims, yield
	// selection), built by Start over the topology declared until then;
	// bpObs is its per-NF observation scratch. Throttles is the claim table
	// it counts in, which Inject reads at chain entry.
	bp        *bp.Controller
	bpObs     []bp.Observation
	Throttles *bp.ChainThrottles
	ecn       []*bp.ECNMarker

	sinks map[int]Sink

	// Per-chain delivered packets and bytes (exit throughput).
	Delivered      []stats.Meter
	DeliveredBytes []stats.Meter
	// Wasted-work drops attributed to the NF that last processed the
	// packet (the paper's Table 3 metric).
	Wasted []stats.Meter
	// EntryRingDrops: packets dropped unprocessed at the chain's first
	// ring (occupied before any work was invested).
	EntryRingDrops []stats.Meter
	// QueueDrops counts drops AT each NF's receive queue (entry-ring and
	// downstream-full combined) — the per-NF "drop rate" of Table 5.
	QueueDrops []stats.Meter
	// PoolDrops counts NIC-level drops from descriptor exhaustion.
	PoolDrops stats.Meter
	// OnBPTransition, when set, observes every Figure-4 state-machine edge
	// with its cause (watermark conditions and time-above-high at decision
	// time). Backpressure engages on the edge into bp.PacketThrottle and
	// releases on the edge out of it. Decision-journal provenance.
	OnBPTransition func(nfID int, tr bp.Transition)
	// OnECNMark, when set, observes every CE mark applied at an NF's queue
	// (telemetry). Set before AddNF calls take effect on later NFs; the
	// platform wires it before any packet flows.
	OnECNMark func(nfID int, now simtime.Cycles)
	// Latency accumulates end-to-end packet latency of delivered packets.
	Latency stats.Histogram

	started bool
}

// New returns a manager over the given chains. NFs are added with AddNF;
// call Start before running the engine.
func New(eng *eventsim.Engine, pool *packet.Pool, chains *chain.Registry, params Params) *Manager {
	nChains := chains.Len()
	return &Manager{
		Eng:            eng,
		Pool:           pool,
		Table:          flowtable.New(),
		Chains:         chains,
		Params:         params,
		Throttles:      bp.NewChainThrottles(),
		sinks:          make(map[int]Sink),
		Delivered:      make([]stats.Meter, nChains),
		DeliveredBytes: make([]stats.Meter, nChains),
	}
}

// AddNF registers an NF; its ID must equal its index (dense registration).
func (m *Manager) AddNF(n *nf.NF) {
	if n.ID != len(m.nfs) {
		panic(fmt.Sprintf("mgr: NF %q has id %d, want %d (dense registration)", n.Name, n.ID, len(m.nfs)))
	}
	m.nfs = append(m.nfs, n)
	marker := bp.NewECNMarker(m.Params.ECNThreshold)
	nfID := n.ID
	marker.OnMark = func() {
		if m.OnECNMark != nil {
			m.OnECNMark(nfID, m.Eng.Now())
		}
	}
	m.ecn = append(m.ecn, marker)
	m.Wasted = append(m.Wasted, stats.Meter{})
	m.EntryRingDrops = append(m.EntryRingDrops, stats.Meter{})
	m.QueueDrops = append(m.QueueDrops, stats.Meter{})
}

// GrowChains resizes per-chain meters after chains are registered. Safe to
// call repeatedly; existing counts are preserved.
func (m *Manager) GrowChains(n int) {
	for len(m.Delivered) < n {
		m.Delivered = append(m.Delivered, stats.Meter{})
		m.DeliveredBytes = append(m.DeliveredBytes, stats.Meter{})
	}
}

// NF returns the NF with the given id.
func (m *Manager) NF(id int) *nf.NF { return m.nfs[id] }

// NFs returns all registered NFs.
func (m *Manager) NFs() []*nf.NF { return m.nfs }

// RegisterSink attaches a per-flow observer.
func (m *Manager) RegisterSink(flowID int, s Sink) { m.sinks[flowID] = s }

// BPState exposes an NF's backpressure state for tests and metrics (valid
// once Start has run).
func (m *Manager) BPState(nfID int) bp.State { return m.bp.State(nfID) }

// Start fixes the topology for the backpressure controller and arms the Tx
// and wakeup threads; NFs and chains must be registered before it.
func (m *Manager) Start() {
	if m.started {
		return
	}
	m.started = true
	chains := make([][]int, m.Chains.Len())
	for i, c := range m.Chains.All() {
		chains[i] = c.NFs
	}
	m.bp = bp.NewController(m.Params.BP, len(m.nfs), chains, m.Throttles)
	m.bp.Observer = func(nfID int, tr bp.Transition) {
		if m.OnBPTransition != nil {
			m.OnBPTransition(nfID, tr)
		}
	}
	m.bpObs = make([]bp.Observation, len(m.nfs))
	m.Eng.Every(m.Params.TxPollInterval, m.Params.TxPollInterval, m.txThread)
	m.Eng.Every(m.Params.WakeupInterval, m.Params.WakeupInterval, m.wakeupThread)
}

// Inject delivers one packet from the wire into the platform: flow table
// lookup, backpressure entry check, first-ring enqueue, wakeup. The caller
// (traffic generator) provides the header fields; the manager allocates the
// descriptor. The returned DropPoint is only meaningful when ok is false.
func (m *Manager) Inject(key packet.FlowKey, flowID, size int, ecn packet.ECN, costClass int) (ok bool, at DropPoint) {
	now := m.Eng.Now()
	chainID, routed := m.Table.Lookup(key)
	if !routed {
		return false, DropNoRoute
	}
	if m.Params.Features.Backpressure && !m.Params.Features.NoEntryDrop && m.Throttles.Throttled(chainID) {
		// Selective early discard at the chain entry: no descriptor is
		// consumed, no NF cycles are wasted. The packet still counts as a
		// wire arrival for the entry NF's rate estimate — otherwise
		// throttling would depress λ, shrink the NF's CPU share, and
		// spiral it into starvation.
		m.nfs[m.Chains.Get(chainID).Entry()].ArrivalMeter.Inc()
		m.Throttles.CountEntryDrop(chainID)
		if s := m.sinks[flowID]; s != nil {
			tmp := packet.Packet{Flow: key, FlowID: flowID, ChainID: chainID, Size: size}
			s.Dropped(now, &tmp, DropEntry)
		}
		return false, DropEntry
	}
	pkt := m.Pool.Get()
	if pkt == nil {
		m.PoolDrops.Inc()
		if s := m.sinks[flowID]; s != nil {
			tmp := packet.Packet{Flow: key, FlowID: flowID, ChainID: chainID, Size: size}
			s.Dropped(now, &tmp, DropPool)
		}
		return false, DropPool
	}
	pkt.Flow = key
	pkt.FlowID = flowID
	pkt.ChainID = chainID
	pkt.Size = size
	pkt.ECN = ecn
	pkt.CostClass = costClass
	pkt.Arrival = now

	entry := m.nfs[m.Chains.Get(chainID).Entry()]
	// Arrival accounting happens on the attempt: a packet dropped at a
	// full ring still arrived at that NF's queue, and the controller's
	// λ_i must reflect offered load, not survivor throughput.
	entry.ArrivalMeter.Inc()
	if !entry.Rx.Enqueue(now, pkt) {
		m.EntryRingDrops[entry.ID].Inc()
		m.QueueDrops[entry.ID].Inc()
		if s := m.sinks[flowID]; s != nil {
			s.Dropped(now, pkt, DropEntryRing)
		}
		pkt.Release()
		return false, DropEntryRing
	}
	if m.Params.Features.ECN {
		m.ecn[entry.ID].OnEnqueue(entry.Rx.Len(), pkt)
	}
	m.maybeWake(entry)
	return true, 0
}

func (m *Manager) maybeWake(n *nf.NF) {
	if n.Task.Core() != nil && n.WantsWake() {
		n.Task.Core().Wake(n.Task)
	}
}

// txThread drains every NF's transmit ring toward the next hop or the NIC.
func (m *Manager) txThread() {
	now := m.Eng.Now()
	for _, src := range m.nfs {
		m.drainTx(now, src)
	}
}

func (m *Manager) drainTx(now simtime.Cycles, src *nf.NF) {
	localBP := m.Params.Features.Backpressure
	for {
		pkt := src.Tx.Peek()
		if pkt == nil {
			break
		}
		ch := m.Chains.Get(pkt.ChainID)
		if pkt.Hop >= ch.Len() {
			// Chain complete: out the NIC.
			src.Tx.Dequeue(now)
			m.Delivered[pkt.ChainID].Inc()
			m.DeliveredBytes[pkt.ChainID].Add(uint64(pkt.Size))
			m.Latency.Observe(uint64(now - pkt.Arrival))
			if s := m.sinks[pkt.FlowID]; s != nil {
				s.Delivered(now, pkt)
			}
			pkt.Release()
			continue
		}
		dst := m.nfs[ch.NFAt(pkt.Hop)]
		if dst.Rx.Free() == 0 {
			if localBP {
				// Hold: the packet stays in src's Tx ring; src suspends
				// via local backpressure when the ring fills. Arrival is
				// counted when the packet actually moves.
				break
			}
			// Default platform: the Tx thread drops — work already
			// invested in this packet is wasted. It still arrived at
			// dst's queue for rate-estimation purposes.
			src.Tx.Dequeue(now)
			dst.ArrivalMeter.Inc()
			m.Wasted[src.ID].Inc()
			m.QueueDrops[dst.ID].Inc()
			if s := m.sinks[pkt.FlowID]; s != nil {
				s.Dropped(now, pkt, DropDownstream)
			}
			pkt.Release()
			continue
		}
		src.Tx.Dequeue(now)
		dst.Rx.Enqueue(now, pkt)
		dst.ArrivalMeter.Inc()
		if m.Params.Features.ECN {
			m.ecn[dst.ID].OnEnqueue(dst.Rx.Len(), pkt)
		}
		m.maybeWake(dst)
	}
	// Clear local backpressure once the ring has meaningful room again.
	if src.TxBlocked() && src.Tx.Free() > src.Tx.Cap()/2 {
		src.SetTxBlocked(false)
		m.maybeWake(src)
	}
}

// wakeupThread is the control half: feed each NF's receive-ring condition to
// the backpressure controller, apply the yield flags it selects, and wake
// eligible NFs.
func (m *Manager) wakeupThread() {
	if m.Params.Features.Backpressure {
		now := m.Eng.Now()
		for i, n := range m.nfs {
			m.bpObs[i] = bp.Observation{
				AboveHigh: n.Rx.AboveHigh(),
				BelowLow:  n.Rx.BelowLow(),
				TimeAbove: n.Rx.TimeAboveHigh(now),
			}
		}
		m.bp.Step(m.bpObs)
		for i, n := range m.nfs {
			yield := m.bp.Yield(i)
			if n.YieldFlag && !yield {
				n.YieldFlag = false
				m.maybeWake(n)
			} else {
				n.YieldFlag = yield
			}
		}
	}
	for _, n := range m.nfs {
		m.maybeWake(n)
	}
}

// ChainThroughput reports a chain's delivered packet rate since the last
// snapshot of its meter.
func (m *Manager) ChainThroughput(chainID int, now simtime.Cycles) simtime.Rate {
	return m.Delivered[chainID].Snapshot(now)
}

// TotalDelivered sums delivered packets across chains.
func (m *Manager) TotalDelivered() uint64 {
	var n uint64
	for i := range m.Delivered {
		n += m.Delivered[i].Total()
	}
	return n
}

// TotalWasted sums wasted-work drops across NFs.
func (m *Manager) TotalWasted() uint64 {
	var n uint64
	for i := range m.Wasted {
		n += m.Wasted[i].Total()
	}
	return n
}

// ECNMarked reports total CE marks applied at an NF's queue.
func (m *Manager) ECNMarked(nfID int) uint64 { return m.ecn[nfID].Marked }

// Package bp implements NFVnice's backpressure policy: the per-NF
// hysteresis state machine of the paper's Figure 4 (watch list → packet
// throttle → clear throttle), the cross-chain throttle table that enables
// service-chain-specific packet dropping at chain entry points, the
// Controller that steps both over a chain topology and selects the upstream
// stages that should yield, and the ECN marker and observer for responsive
// flows crossing host boundaries.
//
// The Controller is substrate-free — observations in, edges out — and has two
// callers that must stay in agreement: the simulated manager's wakeup thread
// (internal/mgr) and the live engine's control loop (internal/dataplane,
// updateBackpressure). They differ only in Params.QueueTimeThreshold;
// internal/dataplane's TestPolicyDifferential holds them to identical
// decisions.
package bp

import (
	"nfvnice/internal/packet"
	"nfvnice/internal/simtime"
	"nfvnice/internal/stats"
)

// State is a position in the Figure 4 state machine.
type State uint8

// Backpressure states.
const (
	ClearThrottle  State = iota // no pressure
	WatchList                   // queue crossed HIGH_WATER_MARK, under observation
	PacketThrottle              // backpressure asserted
)

func (s State) String() string {
	switch s {
	case ClearThrottle:
		return "clear"
	case WatchList:
		return "watch"
	case PacketThrottle:
		return "throttle"
	default:
		return "?"
	}
}

// Params tune the state machine.
type Params struct {
	// QueueTimeThreshold is how long occupancy must stay above the high
	// watermark before throttling engages — the hysteresis that stops a
	// short burst from triggering backpressure.
	QueueTimeThreshold simtime.Cycles
}

// DefaultParams returns the calibrated threshold (50 µs: roughly the
// wakeup-thread scan spacing, as the paper's separation of detection and
// control implies).
func DefaultParams() Params {
	return Params{QueueTimeThreshold: 50 * simtime.Microsecond}
}

// Transition describes one state-machine edge together with the queue
// observation that caused it — the decision provenance record consumed by
// event logs and decision journals. The inputs are the exact arguments the
// Update call saw, so a logged transition is always explainable after the
// fact ("throttled because the queue had been above HIGH_WATER_MARK for
// TimeAbove ≥ QueueTimeThreshold").
type Transition struct {
	From, To State
	// AboveHigh and BelowLow are the watermark conditions at decision time.
	AboveHigh, BelowLow bool
	// TimeAbove is how long the queue had been above the high watermark.
	TimeAbove simtime.Cycles
}

// NFState is one NF's backpressure state machine. Update is fed queue
// observations (typically by the manager's wakeup thread) and reports
// enable/disable edges.
type NFState struct {
	state State

	// Throttles counts enable edges, for diagnostics.
	Throttles uint64

	// Observer, when set, sees every state change with its cause — the
	// hook that feeds decision journals without coupling the state machine
	// to any particular log. Called synchronously from Update.
	Observer func(Transition)
}

// State reports the current state.
func (s *NFState) State() State { return s.state }

// setState transitions the machine, notifying the observer on change.
func (s *NFState) setState(to State, aboveHigh, belowLow bool, timeAbove simtime.Cycles) {
	from := s.state
	s.state = to
	if from != to && s.Observer != nil {
		s.Observer(Transition{From: from, To: to, AboveHigh: aboveHigh, BelowLow: belowLow, TimeAbove: timeAbove})
	}
}

// Update advances the machine given the NF's receive-ring condition.
// enable is true on the Watch→Throttle edge; disable on Throttle→Clear.
func (s *NFState) Update(p Params, aboveHigh, belowLow bool, timeAbove simtime.Cycles) (enable, disable bool) {
	switch s.state {
	case ClearThrottle:
		if aboveHigh {
			s.setState(WatchList, aboveHigh, belowLow, timeAbove)
			// Immediate promotion if the queue has already been high
			// long enough (e.g. detection lagged).
			if timeAbove >= p.QueueTimeThreshold {
				s.setState(PacketThrottle, aboveHigh, belowLow, timeAbove)
				s.Throttles++
				return true, false
			}
		}
	case WatchList:
		switch {
		case belowLow:
			s.setState(ClearThrottle, aboveHigh, belowLow, timeAbove)
		case aboveHigh && timeAbove >= p.QueueTimeThreshold:
			s.setState(PacketThrottle, aboveHigh, belowLow, timeAbove)
			s.Throttles++
			return true, false
		}
	case PacketThrottle:
		if belowLow {
			s.setState(ClearThrottle, aboveHigh, belowLow, timeAbove)
			return false, true
		}
	}
	return false, false
}

// ChainThrottles tracks which service chains are currently under
// backpressure. A chain is throttled while at least one of its NFs is in
// PacketThrottle; the Rx thread then drops that chain's packets at entry
// ("selective early discard"), leaving other chains untouched.
type ChainThrottles struct {
	counts map[int]int

	// EntryDrops counts packets shed at chain entry, per chain.
	EntryDrops map[int]uint64
}

// NewChainThrottles returns an empty table.
func NewChainThrottles() *ChainThrottles {
	return &ChainThrottles{counts: make(map[int]int), EntryDrops: make(map[int]uint64)}
}

// Enable marks the chain throttled by one more bottleneck NF.
func (c *ChainThrottles) Enable(chainID int) { c.counts[chainID]++ }

// Disable removes one bottleneck's claim on the chain.
func (c *ChainThrottles) Disable(chainID int) {
	if c.counts[chainID] > 0 {
		c.counts[chainID]--
	}
}

// Throttled reports whether the chain should be shed at entry.
func (c *ChainThrottles) Throttled(chainID int) bool { return c.counts[chainID] > 0 }

// CountEntryDrop records a packet shed at the chain's entry point.
func (c *ChainThrottles) CountEntryDrop(chainID int) { c.EntryDrops[chainID]++ }

// TotalEntryDrops sums sheds across chains.
func (c *ChainThrottles) TotalEntryDrops() uint64 {
	var n uint64
	for _, v := range c.EntryDrops {
		n += v
	}
	return n
}

// ECNMarker marks Congestion Experienced on ECN-capable packets when the
// exponentially weighted moving average of queue length exceeds a threshold,
// following RFC 3168 as the paper does for cross-host chains. ECN works at
// longer timescales than backpressure, hence the EWMA rather than the
// instantaneous occupancy.
type ECNMarker struct {
	avg       *stats.EWMA
	threshold float64

	// Marked counts CE marks applied.
	Marked uint64

	// OnMark, when set, observes every CE mark (telemetry).
	OnMark func()
}

// NewECNMarker returns a marker that trips when the smoothed queue length
// exceeds threshold packets. Weight 0.02 gives the multi-millisecond
// averaging horizon ECN wants.
func NewECNMarker(threshold float64) *ECNMarker {
	return &ECNMarker{avg: stats.NewEWMA(0.02), threshold: threshold}
}

// OnEnqueue observes the post-enqueue queue length and marks the packet if
// the smoothed length is above threshold and the transport supports ECN.
func (m *ECNMarker) OnEnqueue(qlen int, pkt *packet.Packet) {
	m.avg.Observe(float64(qlen))
	if pkt.ECN == packet.ECT && m.avg.Value() > m.threshold {
		pkt.ECN = packet.CE
		m.Marked++
		if m.OnMark != nil {
			m.OnMark()
		}
	}
}

// Average reports the smoothed queue length.
func (m *ECNMarker) Average() float64 { return m.avg.Value() }

// ECNObserver is the receive side of the cross-host ECN loop: it turns a
// stream of ack-carried CE echoes (see internal/remote) into a sustained
// congestion on/off signal with hysteresis. Congestion asserts on the first
// echo in an observation window and clears only after QuietWindows
// consecutive windows without one — ECN operates at longer timescales than
// local watermark backpressure, matching the EWMA marker on the send side.
// Call Observe once per control-plane window (the engine's backpressure
// cadence) with the echo count since the last call; not safe for concurrent
// use (own it from one control goroutine).
type ECNObserver struct {
	// QuietWindows is how many consecutive echo-free windows clear the
	// signal (0 takes DefaultECNQuietWindows).
	QuietWindows int

	// Asserts counts off→on transitions.
	Asserts uint64

	active bool
	quiet  int
}

// DefaultECNQuietWindows is the default clear hysteresis: with the paper's
// 1 ms backpressure cadence, 8 quiet windows ≈ 8 ms of silence before the
// origin stops throttling.
const DefaultECNQuietWindows = 8

// Observe feeds one window's echo count and reports whether the congestion
// signal changed edge.
func (o *ECNObserver) Observe(echoes uint64) (changed bool) {
	if echoes > 0 {
		o.quiet = 0
		if !o.active {
			o.active = true
			o.Asserts++
			return true
		}
		return false
	}
	if !o.active {
		return false
	}
	o.quiet++
	q := o.QuietWindows
	if q <= 0 {
		q = DefaultECNQuietWindows
	}
	if o.quiet >= q {
		o.active = false
		o.quiet = 0
		return true
	}
	return false
}

// Active reports the current congestion signal.
func (o *ECNObserver) Active() bool { return o.active }

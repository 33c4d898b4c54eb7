package dataplane

// Ledger is a point-in-time snapshot of the engine's global packet-accounting
// counters, packaged so the conservation identity can be checked (or
// serialized into an experiment manifest) without touching the atomics
// directly. See the reconciliation comment on Engine: at quiescence — and,
// with the shutdown drain, after Run returns —
//
//	Injected == Delivered + MidRingDrops + NFDrops + FaultDrops
//	          + ShutdownDrops + RemoteDelivered + RemoteDrops
//
// The pre-acceptance classes (EntryDrops, FaultEntryDrops, UnroutedDrops,
// LateDrops, and the entry-ring portion of RingDrops) are not part of the
// identity — those packets were never counted Injected — but they close the
// producer-side one: once a lane is drained, every packet it accepted is
// either Injected or in exactly one of them (see lanes.go).
type Ledger struct {
	Injected        uint64 `json:"injected"`
	Delivered       uint64 `json:"delivered"`
	MidRingDrops    uint64 `json:"mid_ring_drops"`
	NFDrops         uint64 `json:"nf_drops"`
	FaultDrops      uint64 `json:"fault_drops"`
	ShutdownDrops   uint64 `json:"shutdown_drops"`
	RemoteDelivered uint64 `json:"remote_delivered"`
	RemoteDrops     uint64 `json:"remote_drops"`

	// Pre-acceptance classes (not part of the identity).
	EntryDrops      uint64 `json:"entry_drops"`
	FaultEntryDrops uint64 `json:"fault_entry_drops"`
	LateDrops       uint64 `json:"late_drops"`
	UnroutedDrops   uint64 `json:"unrouted_drops"`
	RingDrops       uint64 `json:"ring_drops"`
	ThrottleEvents  uint64 `json:"throttle_events"`
}

// LedgerSnapshot reads the global counters. Each counter is read atomically,
// but the set is not a consistent cut while the engine is running; call it at
// quiescence (or after Run returns) when Residual must be exact.
func (e *Engine) LedgerSnapshot() Ledger {
	return Ledger{
		Injected:        e.Injected.Load(),
		Delivered:       e.Delivered.Load(),
		MidRingDrops:    e.MidRingDrops.Load(),
		NFDrops:         e.NFDrops.Load(),
		FaultDrops:      e.FaultDrops.Load(),
		ShutdownDrops:   e.ShutdownDrops.Load(),
		RemoteDelivered: e.RemoteDelivered.Load(),
		RemoteDrops:     e.RemoteDrops.Load(),
		EntryDrops:      e.EntryDrops.Load(),
		FaultEntryDrops: e.FaultEntryDrops.Load(),
		LateDrops:       e.LateDrops.Load(),
		UnroutedDrops:   e.UnroutedDrops.Load(),
		RingDrops:       e.RingDrops.Load(),
		ThrottleEvents:  e.ThrottleEvents.Load(),
	}
}

// Accounted sums the post-acceptance outcome classes.
func (l Ledger) Accounted() uint64 {
	return l.Delivered + l.MidRingDrops + l.NFDrops + l.FaultDrops +
		l.ShutdownDrops + l.RemoteDelivered + l.RemoteDrops
}

// Residual is Injected minus Accounted: zero at quiescence, positive while
// packets are in flight, and never negative once the pipeline has settled.
func (l Ledger) Residual() int64 {
	return int64(l.Injected) - int64(l.Accounted())
}

// QueueDepths writes the instantaneous receive-ring occupancy of every stage
// into out (grown if needed) and returns it, indexed by stage id. The reads
// are individually atomic but not a consistent cut; intended for bounded-queue
// sampling, not exact accounting.
func (e *Engine) QueueDepths(out []int) []int {
	if cap(out) < len(e.stages) {
		out = make([]int, len(e.stages))
	}
	out = out[:len(e.stages)]
	for i, s := range e.stages {
		out[i] = s.rx.Len()
	}
	return out
}

// NumChains reports how many chains have been added.
func (e *Engine) NumChains() int { return len(e.chains) }

// ChainStages returns a copy of the stage-id path of one chain, or nil if the
// chain id is out of range.
func (e *Engine) ChainStages(chainID int) []int {
	if chainID < 0 || chainID >= len(e.chains) {
		return nil
	}
	return append([]int(nil), e.chains[chainID]...)
}

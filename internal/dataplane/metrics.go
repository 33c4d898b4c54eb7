package dataplane

import (
	"math"
	"strconv"
	"time"

	"nfvnice/internal/telemetry"
)

// StageStats is a snapshot of one stage's counters.
type StageStats struct {
	Name      string
	Processed uint64
	// Arrivals counts packets offered to the stage, including ones that
	// were then shed or dropped (offered load, the controller's λ).
	Arrivals uint64
	Weight   int64
	// Busy is cumulative handler wall time.
	Busy time.Duration
	// EstCost is the controller's per-packet cost estimate: the median of
	// its per-tick samples over the last 100 ms (0 until measured).
	EstCost time.Duration
	// QueueDrops counts packets dropped at this stage's full receive ring;
	// Wasted counts packets this stage processed that died downstream (the
	// paper's wasted-work metric).
	QueueDrops uint64
	Wasted     uint64
	// Health is the supervision state; Restarts counts supervised stage
	// restarts; FaultDrops counts packets lost in this stage's crashes,
	// stalls and failed-queue drains; NFDrops counts packets the handler
	// discarded via Packet.Drop.
	Health     Health
	Restarts   uint64
	FaultDrops uint64
	NFDrops    uint64
}

// Stats snapshots every stage.
func (e *Engine) Stats() []StageStats {
	out := make([]StageStats, len(e.stages))
	for i, s := range e.stages {
		out[i] = StageStats{
			Name:       s.name,
			Processed:  s.processed.Load(),
			Arrivals:   s.arrivals.Load(),
			Weight:     s.weight.Load(),
			Busy:       time.Duration(s.busyNanos.Load()),
			EstCost:    time.Duration(math.Float64frombits(s.estCost.Load())),
			QueueDrops: s.drops.Load(),
			Wasted:     s.wasted.Load(),
			Health:     Health(s.health.Load()),
			Restarts:   s.restarts.Load(),
			FaultDrops: s.faultDrops.Load(),
			NFDrops:    s.nfDrops.Load(),
		}
	}
	return out
}

// LatencyStats reports the mean and maximum end-to-end sojourn time of
// delivered packets, accurate to within one batch quantum (the coarse-clock
// bound).
func (e *Engine) LatencyStats() (mean, max time.Duration) {
	n := e.Delivered.Load()
	if n == 0 {
		return 0, 0
	}
	return time.Duration(e.latSumNanos.Load() / int64(n)), time.Duration(e.latMaxNanos.Load())
}

// Throttled reports whether a chain is currently shed at entry.
func (e *Engine) Throttled(chainID int) bool { return e.throttled[chainID].Load() }

// RegisterMetrics publishes the engine's counters, gauges and the end-to-end
// latency histogram into a telemetry registry. All backing values are
// atomic, so the registry may be gathered (scraped) live while the engine
// runs. Must be called before Run.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	if e.running.Load() {
		panic("dataplane: RegisterMetrics after Run")
	}
	for _, s := range e.stages {
		lbl := []telemetry.Label{
			telemetry.L("stage", s.name),
			telemetry.L("id", strconv.Itoa(s.id)),
			telemetry.L("core", strconv.Itoa(s.core)),
		}
		reg.CounterFunc("dataplane_stage_processed_total",
			"Packets processed by the stage.", s.processed.Load, lbl...)
		reg.CounterFunc("dataplane_stage_arrivals_total",
			"Packets offered to the stage (attempts, including drops).", s.arrivals.Load, lbl...)
		reg.CounterFunc("dataplane_stage_queue_drops_total",
			"Packets dropped at the stage's full receive ring.", s.drops.Load, lbl...)
		reg.CounterFunc("dataplane_stage_wasted_total",
			"Packets processed by the stage that died downstream (wasted work).", s.wasted.Load, lbl...)
		reg.CounterFunc("dataplane_stage_busy_nanoseconds_total",
			"Cumulative handler wall time.", func() uint64 { return uint64(s.busyNanos.Load()) }, lbl...)
		reg.GaugeFunc("dataplane_stage_weight",
			"Current scheduler weight (1024 = one default share).",
			func() float64 { return float64(s.weight.Load()) }, lbl...)
		reg.GaugeFunc("dataplane_stage_queue_depth",
			"Instantaneous receive-ring occupancy.",
			func() float64 { return float64(s.rx.Len()) }, lbl...)
		reg.GaugeFunc("dataplane_stage_health",
			"Supervision state: 0 healthy, 1 degraded, 2 failed, 3 restarting.",
			func() float64 { return float64(s.health.Load()) }, lbl...)
		reg.CounterFunc("dataplane_stage_restarts_total",
			"Supervised worker respawns after a crash or stall.", s.restarts.Load, lbl...)
		reg.CounterFunc("dataplane_stage_fault_drops_total",
			"Packets lost in this stage's crashes, stalls and failed-queue drains.",
			s.faultDrops.Load, lbl...)
		reg.CounterFunc("dataplane_stage_nf_drops_total",
			"Packets the handler discarded via Packet.Drop.", s.nfDrops.Load, lbl...)
	}
	for _, m := range e.movers {
		m := m
		lbl := []telemetry.Label{telemetry.L("mover", strconv.Itoa(m.id))}
		reg.CounterFunc("dataplane_mover_sweeps_total",
			"Drain passes the TX shard made over its stage partition.", m.sweeps.Load, lbl...)
		reg.CounterFunc("dataplane_mover_moved_total",
			"Packets the TX shard drained from its tx rings.", m.moved.Load, lbl...)
		reg.CounterFunc("dataplane_mover_parks_total",
			"Times the idle TX shard parked awaiting a wake signal.", m.parks.Load, lbl...)
		reg.CounterFunc("dataplane_mover_wakes_total",
			"Enqueue-side wake signals delivered to the parked TX shard.", m.wakes.Load, lbl...)
		reg.CounterFunc("dataplane_mover_lane_moved_total",
			"Packets the TX shard drained from its bound inject lanes.", m.laneMoved.Load, lbl...)
		reg.GaugeFunc("dataplane_mover_lanes",
			"Inject lanes currently bound to the TX shard.",
			func() float64 { return float64(len(*m.lanes.Load())) }, lbl...)
		reg.GaugeFunc("dataplane_mover_batch",
			"Current adaptive sweep batch of the TX shard.",
			func() float64 { return float64(m.curBatch.Load()) }, lbl...)
		reg.GaugeFunc("dataplane_mover_park_ratio",
			"Fraction of the TX shard's sweeps that ended in a park.",
			func() float64 {
				if sw := m.sweeps.Load(); sw > 0 {
					return float64(m.parks.Load()) / float64(sw)
				}
				return 0
			}, lbl...)
		reg.GaugeFunc("dataplane_mover_drain_per_sweep",
			"Mean packets drained per TX-shard sweep.",
			func() float64 {
				if sw := m.sweeps.Load(); sw > 0 {
					return float64(m.moved.Load()) / float64(sw)
				}
				return 0
			}, lbl...)
	}
	for ci := range e.chains {
		lbl := []telemetry.Label{telemetry.L("chain", strconv.Itoa(ci))}
		th := &e.throttled[ci]
		reg.GaugeFunc("dataplane_chain_throttled",
			"1 while the chain is shed at entry by backpressure.",
			func() float64 {
				if th.Load() {
					return 1
				}
				return 0
			}, lbl...)
	}
	reg.CounterFunc("dataplane_injected_total",
		"Packets accepted into a chain entry ring.", e.Injected.Load)
	reg.CounterFunc("dataplane_delivered_total",
		"Packets that completed their chains.", e.Delivered.Load)
	reg.CounterFunc("dataplane_entry_drops_total",
		"Packets shed at chain entry by backpressure.", e.EntryDrops.Load)
	reg.CounterFunc("dataplane_ring_drops_total",
		"Packets dropped at full stage receive rings (entry or mid-chain).", e.RingDrops.Load)
	reg.CounterFunc("dataplane_mid_ring_drops_total",
		"Accepted packets dropped at full mid-chain receive rings (subset of ring drops).", e.MidRingDrops.Load)
	reg.CounterFunc("dataplane_throttle_events_total",
		"Chain-throttle activations.", e.ThrottleEvents.Load)
	reg.CounterFunc("dataplane_fault_entry_drops_total",
		"Packets shed at the entry of a fail-closed chain with a Failed stage.",
		e.FaultEntryDrops.Load)
	reg.CounterFunc("dataplane_nf_drops_total",
		"Packets discarded by handlers via Packet.Drop.", e.NFDrops.Load)
	reg.CounterFunc("dataplane_fault_drops_total",
		"In-flight packets lost to stage crashes, stalls and failed-queue drains.",
		e.FaultDrops.Load)
	reg.CounterFunc("dataplane_shutdown_drops_total",
		"Accepted packets swept out of rings when Run wound down.",
		e.ShutdownDrops.Load)
	reg.CounterFunc("dataplane_late_drops_total",
		"Lane injects rejected, and lane leftovers swept, because Run had exited.", e.LateDrops.Load)
	reg.CounterFunc("dataplane_unrouted_drops_total",
		"Packets dropped at lane drain because their flow had no route.", e.UnroutedDrops.Load)
	reg.GaugeFunc("dataplane_watermark_packets",
		"Backpressure high watermark in packets.",
		func() float64 { return float64(e.highWater) }, telemetry.L("level", "high"))
	reg.GaugeFunc("dataplane_watermark_packets",
		"Backpressure low watermark in packets.",
		func() float64 { return float64(e.lowWater) }, telemetry.L("level", "low"))
	e.latHist = reg.Histogram("dataplane_latency_nanoseconds",
		"End-to-end sojourn time of delivered packets.")
	if r := e.rec; r != nil {
		reg.CounterFunc("dataplane_spans_sampled_total",
			"Flight-recorder spans started at inject.", r.sampled.Load)
		reg.CounterFunc("dataplane_spans_completed_total",
			"Flight-recorder spans that reached the output boundary.", r.completed.Load)
		reg.CounterFunc("dataplane_spans_aborted_total",
			"Flight-recorder spans whose packet was dropped mid-flight.", r.aborted.Load)
		reg.CounterFunc("dataplane_span_starved_total",
			"Sampler hits skipped because every span slab was in flight.", r.starved.Load)
		reg.CounterFunc("dataplane_span_spool_drops_total",
			"Completed spans discarded at a full spool.", r.spoolDrops.Load)
		e.hopService = make([]*telemetry.Histogram, len(e.stages))
		e.hopWait = make([]*telemetry.Histogram, len(e.stages))
		for _, s := range e.stages {
			lbl := []telemetry.Label{
				telemetry.L("stage", s.name),
				telemetry.L("id", strconv.Itoa(s.id)),
			}
			e.hopService[s.id] = reg.Histogram("dataplane_hop_service_nanoseconds",
				"Per-hop handler time of sampled packets.", lbl...)
			e.hopWait[s.id] = reg.Histogram("dataplane_hop_wait_nanoseconds",
				"Per-hop ring wait of sampled packets (previous move to dequeue).", lbl...)
		}
	}
	if j := e.journal; j != nil {
		reg.CounterFunc("dataplane_decisions_total",
			"Control-plane decisions appended to the journal.", j.Total)
		reg.CounterFunc("dataplane_decision_drops_total",
			"Journal records overwritten by ring wrap.", j.Dropped)
	}
	e.registerRemoteMetrics(reg)
}

// SetEventLog attaches a structured event log receiving backpressure
// transitions (info) and weight updates (debug). Must be called before Run.
func (e *Engine) SetEventLog(l *telemetry.EventLog) {
	if e.running.Load() {
		panic("dataplane: SetEventLog after Run")
	}
	e.events = l
}

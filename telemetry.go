package nfvnice

import (
	"strconv"

	"nfvnice/internal/bp"
	"nfvnice/internal/cpusched"
	"nfvnice/internal/obs"
	"nfvnice/internal/simtime"
	"nfvnice/internal/telemetry"
)

// Telemetry bundles a platform's observability surfaces: the metric registry
// (gather it, serve it with telemetry.NewMux/StartServer, or record it into
// a time series), and the structured event log of control-plane decisions
// (backpressure edges, cgroup weight writes, ECN marks). Obtain one with
// Platform.EnableTelemetry after declaring the topology and before Run.
type Telemetry struct {
	Registry *telemetry.Registry
	Events   *telemetry.EventLog

	p *Platform
}

// EnableTelemetry registers every NF, core and chain of the platform into a
// fresh metric registry and hooks the manager and controller into a
// structured event log. Call after the topology is declared (AddNF/AddChain)
// and before Run; NFs or chains added later are not instrumented.
//
// The registry's instruments read the simulator's meters directly, so gather
// (scrape, record, dump) only while the simulation is not being advanced —
// from inside the event loop (StartRecorder does this) or after Run returns.
func (p *Platform) EnableTelemetry() *Telemetry {
	t := &Telemetry{
		Registry: telemetry.NewRegistry(),
		Events:   telemetry.NewEventLog(0),
		p:        p,
	}
	reg := t.Registry

	reg.GaugeFunc("nfvnice_sim_seconds",
		"Current simulated time.", func() float64 { return p.Eng.Now().Seconds() })

	for id, n := range p.nfs {
		lbl := []telemetry.Label{
			telemetry.L("nf", n.Name),
			telemetry.L("id", strconv.Itoa(id)),
		}
		reg.CounterFunc("nfvnice_nf_processed_total",
			"Packets processed by the NF.", n.ProcessedMeter.Total, lbl...)
		reg.CounterFunc("nfvnice_nf_arrivals_total",
			"Packets offered to the NF's receive queue (attempts).", n.ArrivalMeter.Total, lbl...)
		reg.CounterFunc("nfvnice_nf_wasted_total",
			"Packets this NF processed that were dropped downstream (wasted work).",
			p.Mgr.Wasted[id].Total, lbl...)
		reg.CounterFunc("nfvnice_nf_entry_drops_total",
			"Packets dropped unprocessed at this NF's receive ring as a chain entry.",
			p.Mgr.EntryRingDrops[id].Total, lbl...)
		reg.CounterFunc("nfvnice_nf_queue_drops_total",
			"Packets dropped at this NF's receive queue (entry and downstream).",
			p.Mgr.QueueDrops[id].Total, lbl...)
		reg.CounterFunc("nfvnice_nf_ecn_marked_total",
			"CE marks applied at this NF's queue.",
			func() uint64 { return p.Mgr.ECNMarked(id) }, lbl...)
		reg.GaugeFunc("nfvnice_nf_queue_depth",
			"Instantaneous receive-ring occupancy.",
			func() float64 { return float64(n.Rx.Len()) }, lbl...)
		reg.GaugeFunc("nfvnice_nf_service_time_cycles",
			"Median service-time estimate over the moving window.",
			func() float64 { return float64(n.EstimatedServiceTime(p.Eng.Now())) }, lbl...)
		reg.GaugeFunc("nfvnice_nf_runtime_cycles",
			"Cumulative on-CPU cycles.",
			func() float64 { return float64(n.Task.Stats.Runtime) }, lbl...)
		reg.HistogramFunc("nfvnice_nf_service_cycles",
			"Sampled per-packet service times.", n.ServiceHist.Snapshot, lbl...)
		if p.cfg.features().CGroupShares {
			reg.GaugeFunc("nfvnice_nf_cpu_shares",
				"Current cgroup cpu.shares assigned by the controller.",
				func() float64 { return float64(p.Ctl.ShareOf(n)) }, lbl...)
		}
	}

	for id, c := range p.cores {
		lbl := []telemetry.Label{telemetry.L("core", strconv.Itoa(id))}
		reg.CounterFunc("nfvnice_core_busy_cycles_total",
			"Cycles spent executing NF work.", func() uint64 { return uint64(c.BusyCycles) }, lbl...)
		reg.CounterFunc("nfvnice_core_switch_cycles_total",
			"Cycles burned in context switches.", func() uint64 { return uint64(c.SwitchCycles) }, lbl...)
		reg.CounterFunc("nfvnice_core_switches_total",
			"Context switches.", func() uint64 { return c.Switches }, lbl...)
	}

	for _, ch := range p.Chains.All() {
		id := ch.ID
		lbl := []telemetry.Label{
			telemetry.L("chain", ch.Name),
			telemetry.L("id", strconv.Itoa(id)),
		}
		reg.CounterFunc("nfvnice_chain_delivered_total",
			"Packets that completed the chain.", p.Mgr.Delivered[id].Total, lbl...)
		reg.CounterFunc("nfvnice_chain_delivered_bytes_total",
			"Bytes delivered by the chain.", p.Mgr.DeliveredBytes[id].Total, lbl...)
		reg.CounterFunc("nfvnice_chain_entry_throttle_drops_total",
			"Packets shed at the chain entry by backpressure.",
			func() uint64 { return p.Mgr.Throttles.EntryDrops[id] }, lbl...)
		reg.GaugeFunc("nfvnice_chain_throttled",
			"1 while the chain is shed at entry.",
			func() float64 {
				if p.Mgr.Throttles.Throttled(id) {
					return 1
				}
				return 0
			}, lbl...)
	}

	reg.CounterFunc("nfvnice_pool_drops_total",
		"NIC-level drops from descriptor-pool exhaustion.", p.Mgr.PoolDrops.Total)
	reg.CounterFunc("nfvnice_cgroup_writes_total",
		"cpu.shares sysfs writes.", func() uint64 { return p.FS.Writes })
	reg.HistogramFunc("nfvnice_latency_cycles",
		"End-to-end latency of delivered packets.", p.Mgr.Latency.Snapshot)

	// Event log: every control-plane decision flows through here; sinks
	// (AttachTrace) fan the same instrumentation points out to the trace.
	// Hooks run in registration order, so each throttle edge logs its
	// bp_state cause before the backpressure event it produces.
	p.addBPTransitionHook(func(nfID int, tr bp.Transition) {
		t.Events.Emit(p.Eng.Now().Seconds(), telemetry.LevelDebug, "bp_state",
			telemetry.F("nf", p.nfs[nfID].Name),
			telemetry.F("from", tr.From.String()), telemetry.F("to", tr.To.String()),
			telemetry.F("above_high", tr.AboveHigh), telemetry.F("below_low", tr.BelowLow),
			telemetry.F("time_above_us", float64(tr.TimeAbove)/float64(simtime.Microsecond)))
	})
	p.addThrottleHook(func(nfID int, state string, now Cycles) {
		t.Events.Emit(now.Seconds(), telemetry.LevelInfo, "backpressure",
			telemetry.F("nf", p.nfs[nfID].Name), telemetry.F("state", state))
	})
	p.addSharesHook(func(nfID, shares int, now Cycles) {
		t.Events.Emit(now.Seconds(), telemetry.LevelDebug, "cpu.shares",
			telemetry.F("nf", p.nfs[nfID].Name), telemetry.F("shares", shares))
	})
	p.addECNHook(func(nfID int, now Cycles) {
		t.Events.Emit(now.Seconds(), telemetry.LevelDebug, "ecn-mark",
			telemetry.F("nf", p.nfs[nfID].Name))
	})
	return t
}

// StartRecorder samples the registry every period of simulated time into a
// bounded time series (capacity 0 takes the default). Call before Run; the
// samples happen inside the event loop, so gathering is race-free.
func (t *Telemetry) StartRecorder(period Cycles, capacity int) *telemetry.Recorder {
	rec := telemetry.NewRecorder(t.Registry, capacity)
	eng := t.p.Eng
	eng.Every(eng.Now()+period, period, func() {
		rec.Sample(eng.Now().Seconds())
	})
	return rec
}

// AttachTrace mirrors the platform's instrumentation into a Chrome-trace
// sink (an obs.ChromeWriter): per-core NF run spans directly, and the event
// log's backpressure/weight events as instants and counter tracks — one set
// of instrumentation points, three outputs (Prometheus, CSV time series,
// Perfetto trace).
func (t *Telemetry) AttachTrace(sink obs.Sink) {
	t.p.addRunSpanHook(sink)
	t.Events.AddSink(func(e telemetry.Event) {
		now := simtime.Cycles(e.Time * float64(simtime.Second))
		switch e.Type {
		case "backpressure":
			args := make(map[string]any, len(e.Fields))
			state := ""
			for _, f := range e.Fields {
				args[f.Key] = f.Value
				if f.Key == "state" {
					state, _ = f.Value.(string)
				}
			}
			sink.Instant("bp-"+state, now, args)
		case "cpu.shares":
			name := ""
			shares := 0
			for _, f := range e.Fields {
				switch f.Key {
				case "nf":
					name, _ = f.Value.(string)
				case "shares":
					shares, _ = f.Value.(int)
				}
			}
			sink.Counter("shares:"+name, now, float64(shares))
		}
	})
}

// addBPTransitionHook chains a Figure-4 state-machine observer onto the
// manager without displacing previously registered ones.
func (p *Platform) addBPTransitionHook(fn func(nfID int, tr bp.Transition)) {
	prev := p.Mgr.OnBPTransition
	p.Mgr.OnBPTransition = func(nfID int, tr bp.Transition) {
		if prev != nil {
			prev(nfID, tr)
		}
		fn(nfID, tr)
	}
}

// addThrottleHook observes only the edges on which backpressure engages or
// releases — the transitions into and out of bp.PacketThrottle — as the
// state entered, "throttle" or "clear".
func (p *Platform) addThrottleHook(fn func(nfID int, state string, now Cycles)) {
	p.addBPTransitionHook(func(nfID int, tr bp.Transition) {
		if tr.To == bp.PacketThrottle || tr.From == bp.PacketThrottle {
			fn(nfID, tr.To.String(), p.Eng.Now())
		}
	})
}

// addSharesHook chains a cpu.shares observer onto the controller.
func (p *Platform) addSharesHook(fn func(nfID, shares int, now Cycles)) {
	prev := p.Ctl.OnShares
	p.Ctl.OnShares = func(nfID, shares int, now Cycles) {
		if prev != nil {
			prev(nfID, shares, now)
		}
		fn(nfID, shares, now)
	}
}

// addECNHook chains a CE-mark observer onto the manager.
func (p *Platform) addECNHook(fn func(nfID int, now Cycles)) {
	prev := p.Mgr.OnECNMark
	p.Mgr.OnECNMark = func(nfID int, now Cycles) {
		if prev != nil {
			prev(nfID, now)
		}
		fn(nfID, now)
	}
}

// addRunSpanHook chains a run-span observer onto every core.
func (p *Platform) addRunSpanHook(sink obs.Sink) {
	for _, c := range p.cores {
		prev := c.OnRunSpan
		c.OnRunSpan = func(t *cpusched.Task, start, end Cycles) {
			if prev != nil {
				prev(t, start, end)
			}
			sink.RunSpan(t.Core().ID, t.Name, start, end)
		}
	}
}

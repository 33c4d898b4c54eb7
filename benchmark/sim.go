package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"nfvnice"
	"nfvnice/internal/mgr"
	"nfvnice/internal/packet"
	"nfvnice/internal/simtime"
)

// sim_fig7 drives the simulator through the root nfvnice API: the paper's
// Figure 7 sweep — a 3-NF chain (120/270/550 cycles) on one core offered
// 64-byte line rate, four feature modes by four kernel schedulers. It is
// single-threaded and, for one seed, exactly reproducible. Its end-to-end
// metrics are simulated values — what the paper's figure plots — and guard
// the simulator's fidelity; how fast the simulator itself runs is among the
// per-layer metrics, because on the sandbox's host that speed moved by a
// quarter between identical runs (NOISE.md).

type simConfig struct {
	sched nfvnice.SchedPolicy
	mode  nfvnice.Mode
}

func simConfigs() []simConfig {
	var cs []simConfig
	for _, m := range nfvnice.AllModes() {
		for _, s := range nfvnice.AllSchedPolicies() {
			cs = append(cs, simConfig{s, m})
		}
	}
	return cs
}

// simValues are one configuration's simulated results; two runs with one
// seed must agree on every field.
type simValues struct {
	delivered, dropped, sloOK uint64
	entryDrops                uint64
	p50, p90                  float64 // µs of simulated time
	processedPps, wastedPps   float64
	events, switches          uint64
}

// simRun is one build-warm-measure pass over one configuration.
type simRun struct {
	simValues
	buildSec, measSec float64 // wall: building the platform; simulating the measured part
	start, mid, end   int64   // ns since epoch: build begins, measuring begins, measuring ends
	cpuNanos          int64   // over the measured part
	allocBytes        uint64
	gcCycles          uint32
}

// simSink times every packet of the flow once the measured window is open.
type simSink struct {
	from, slo simtime.Cycles
	lat       hist
	v         *simValues
}

func (s *simSink) Delivered(now simtime.Cycles, pkt *packet.Packet) {
	if now < s.from {
		return
	}
	s.v.delivered++
	lat := now - pkt.Arrival
	s.lat.add(int64(lat))
	if lat <= s.slo {
		s.v.sloOK++
	}
}

func (s *simSink) Dropped(now simtime.Cycles, _ *packet.Packet, at mgr.DropPoint) {
	if now < s.from {
		return
	}
	s.v.dropped++
	if at == mgr.DropEntry {
		s.v.entryDrops++
	}
}

func cyclesToMicros(c float64) float64 { return c / float64(nfvnice.Milliseconds(1)) * 1e3 }

func runSimConfig(c simConfig, seed int64, warm, meas nfvnice.Cycles, traced bool) simRun {
	var r simRun
	t0 := time.Now()
	r.start = nowNanos()
	cfg := nfvnice.DefaultConfig(c.sched, c.mode)
	cfg.Seed = seed
	p := nfvnice.NewPlatform(cfg)
	core := p.AddCore()
	var ids []int
	for i, cost := range []nfvnice.Cycles{120, 270, 550} {
		ids = append(ids, p.AddNF(fmt.Sprintf("nf%d", i+1), nfvnice.UniformCost(cost-cost/20, cost+cost/20), core))
	}
	ch := p.AddChain("chain", ids...)
	f := nfvnice.UDPFlow(int(seed&0xff), 64)
	p.MapFlow(f, ch)
	p.AddCBR(f, nfvnice.LineRate10G(64))
	sink := &simSink{from: warm, slo: nfvnice.Milliseconds(sloNanos / 1e6), v: &r.simValues}
	p.RegisterSink(f.ID, sink)
	r.buildSec = time.Since(t0).Seconds()
	p.Run(warm)
	snap := p.TakeSnapshot()
	ev0, sw0 := p.Eng.Executed, p.Core(core).Switches
	var m0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}

	t1, cpu1 := time.Now(), cpuNanos()
	r.mid = nowNanos()
	p.Run(warm + meas)
	r.measSec = time.Since(t1).Seconds()
	r.end = nowNanos()
	r.cpuNanos = cpuNanos() - cpu1

	if traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		r.gcCycles = m1.NumGC - m0.NumGC
	}
	r.events, r.switches = p.Eng.Executed-ev0, p.Core(core).Switches-sw0
	for _, nm := range p.NFMetricsSince(snap) {
		r.processedPps += float64(nm.ProcessedPps)
		r.wastedPps += float64(nm.WastedDropsPps)
	}
	r.p50 = cyclesToMicros(sink.lat.quantile(0.5))
	r.p90 = cyclesToMicros(sink.lat.quantile(0.9))
	return r
}

// runSim warms the process up for warmDur of wall time with throwaway
// simulations, then repeats the sweep, configuration by configuration, until
// seconds have passed (and at least once). The work is identical every time:
// a configuration's simulated values must agree on every repeat, and its
// wall-clock figures are the mean over its repeats.
func runSim(o options) (*result, error) {
	warm, meas := nfvnice.Milliseconds(50), nfvnice.Milliseconds(100)
	warmUp := warmDur
	if o.quick {
		warm, meas = nfvnice.Milliseconds(5), nfvnice.Milliseconds(10)
		warmUp /= 20
	}
	traced := o.trace
	configs := simConfigs()
	// The warm-up's passes are a millisecond of simulated time each, so it
	// ends within a few wall milliseconds of warmUp: heap, GC pacer and
	// caches are warm, and setup_s does not ride on the host's speed.
	for i := 0; time.Duration(nowNanos()-o.began) < warmUp; i++ {
		runSimConfig(configs[i%len(configs)], o.seed, nfvnice.Milliseconds(5), nfvnice.Milliseconds(5), false)
		runtime.GC() // as in the sweep below
	}
	warmedUp := float64(nowNanos()-o.began) / 1e9
	runs := make([][]simRun, len(configs))
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start).Seconds() < o.seconds; rep++ {
		for i, c := range configs {
			if rep > 0 && time.Since(start).Seconds() >= o.seconds {
				break
			}
			runs[i] = append(runs[i], runSimConfig(c, o.seed, warm, meas, traced))
			// Drop this platform before the next is built: left to the pacer,
			// how many dead platforms pile up varies and peak_rss_mb with it.
			runtime.GC()
		}
	}

	res := newResult()
	var build, wall, cpu float64
	var tot simValues
	var alloc, gcs float64
	for i, rs := range runs {
		c := configs[i]
		var builds, walls, cpus []float64
		for _, r := range rs {
			if r.simValues != rs[0].simValues {
				res.failed++
				res.fail("%v/%v: two runs with seed %d differ: %+v vs %+v", c.mode, c.sched, o.seed, rs[0].simValues, r.simValues)
			}
			builds = append(builds, r.buildSec)
			walls = append(walls, r.measSec)
			cpus = append(cpus, float64(r.cpuNanos))
		}
		build += median(builds)
		wall += mean(walls)
		cpu += mean(cpus)
		v := rs[0].simValues
		tot.delivered += v.delivered
		tot.dropped += v.dropped
		tot.sloOK += v.sloOK
		tot.entryDrops += v.entryDrops
		tot.events += v.events
		tot.switches += v.switches
		tot.processedPps += v.processedPps
		tot.wastedPps += v.wastedPps
		// Latency quantiles do not add up: report the mean over the sweep.
		tot.p50 += v.p50 / float64(len(configs))
		tot.p90 += v.p90 / float64(len(configs))
		alloc += float64(rs[0].allocBytes)
		gcs += float64(rs[0].gcCycles)
		res.attempted++
		res.note("%v/%v: %d delivered, %d dropped, p50 %.0f us", c.mode, c.sched, v.delivered, v.dropped, v.p50)
	}
	// The paper's claim, as an output check: under every scheduler NFVnice
	// delivers at least what the default platform does.
	byKey := map[simConfig]uint64{}
	for i, c := range configs {
		byKey[c] = runs[i][0].delivered
	}
	for _, s := range nfvnice.AllSchedPolicies() {
		nice, def := byKey[simConfig{s, nfvnice.ModeNFVnice}], byKey[simConfig{s, nfvnice.ModeDefault}]
		if nice < def {
			res.fail("%v: NFVnice delivered %d packets, Default %d", s, nice, def)
		}
	}

	offered := float64(tot.delivered + tot.dropped)
	simSeconds := float64(meas) / float64(nfvnice.Milliseconds(1000)) * float64(len(configs))
	res.e2e["goodput_pps"] = ratio(float64(tot.delivered), simSeconds)
	res.e2e["delivered_ratio"] = ratio(float64(tot.delivered), offered)
	res.e2e["victim_delivered_ratio"] = res.e2e["delivered_ratio"]
	res.e2e["useful_work_ratio"] = 1 - ratio(tot.wastedPps, tot.processedPps)
	res.e2e["slo_ok_ratio"] = ratio(float64(tot.sloOK), offered)
	res.e2e["peak_rss_mb"] = peakRSSMB()
	// Set-up is the warm-up plus building the sixteen platforms; each
	// configuration's own simulated warm window runs at the simulator's speed
	// and is counted with it, in sim.eventsim.events_per_s.
	res.e2e["setup_s"] = warmedUp + build
	res.layer["sink.p50_us"] = tot.p50 // simulated time, mean over the sweep
	res.layer["sink.p90_us"] = tot.p90
	res.layer["process.cpu_ns_per_pkt"] = ratio(cpu, float64(tot.delivered))
	res.layer["sim.eventsim.events_per_s"] = ratio(float64(tot.events), wall)
	res.note("sweep: %d configurations, %d repeats of the first; simulated %v warm + %v measured each",
		len(configs), len(runs[0]), warm, meas)

	if traced {
		// The simulator has no per-packet hooks to wrap: its span file holds
		// the two wall-clock phases of every configuration run.
		var spans []span
		var names []string
		for i, rs := range runs {
			names = append(names, fmt.Sprintf("%v-%v", configs[i].mode, configs[i].sched))
			for rep, r := range rs {
				spans = append(spans,
					span{class: uint8(i), seq: uint64(rep), kind: 0, start: r.start, end: r.mid},
					span{class: uint8(i), seq: uint64(rep), kind: 1, start: r.mid, end: r.end})
			}
		}
		path := filepath.Join(o.outDir, "trace-"+o.workload+".json")
		err := writeSpanFile(path, o.workload, "every configuration run", spans, names, func(s span) (string, string) {
			return [...]string{"sim.build_warm", "sim.measure"}[s.kind], ""
		})
		if err != nil {
			return nil, fmt.Errorf("write span file: %w", err)
		}
		res.note("spans written to %s", path)
		res.layer["trace.spans"] = float64(len(spans))
		res.layer["trace.overhead_ratio"] = 1 // nothing to switch on inside the simulator
		res.layer["sim.eventsim.events_per_pkt"] = ratio(float64(tot.events), float64(tot.delivered))
		res.layer["sim.cpusched.switches_per_kpkt"] = ratio(float64(tot.switches)*1000, float64(tot.delivered))
		res.layer["sim.mgr.wasted_ratio"] = ratio(tot.wastedPps, tot.processedPps)
		res.layer["sim.mgr.entry_drop_ratio"] = ratio(float64(tot.entryDrops), offered)
		res.layer["sim.alloc_mb"] = alloc / (1 << 20)
		res.layer["sim.gc_cycles"] = gcs
	}
	return res, nil
}

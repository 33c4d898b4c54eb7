// Command benchmark is the repository's end-to-end benchmark: one command
// per workload builds its input from a seed, drives the engine (or the
// simulator) through public functions only, checks what came out, and prints
// every metric by name with its unit. BENCHMARK.json at the repository root
// names the workloads and metrics; README.md in this directory defines them.
//
//	go run ./benchmark -workload fwd64_chain3 -seed 1
//	go run ./benchmark -workload paced_200k -seed 1 -trace
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names a metric and its unit. An end-to-end metric also says
// which way is better and carries its bound: how far its median may worsen,
// as a share of the parent's median, before a change counts as a regression.
// BENCHMARK.json carries the same lists (smoke_test.go holds the two
// together).
type metricDef struct {
	name, unit    string
	lowerIsBetter bool
	bound         float64
}

var endToEnd = []metricDef{
	{"goodput_pps", "1/s", false, 0.10},
	{"delivered_ratio", "ratio", false, 0.10},
	{"victim_delivered_ratio", "ratio", false, 0.005},
	{"useful_work_ratio", "ratio", false, 0.02},
	{"slo_ok_ratio", "ratio", false, 0.05},
	{"peak_rss_mb", "MB", true, 0.10},
	{"setup_s", "s", true, 0.10},
}

var perLayer = []metricDef{
	{name: "gen.offered_pps", unit: "1/s"},
	{name: "gen.late_p99_us", unit: "us"},
	{name: "gen.late_max_us", unit: "us"},
	{name: "gen.fill_ns_per_pkt", unit: "ns"},
	{name: "gen.refused_ratio", unit: "ratio"},
	{name: "host.steal_ms", unit: "ms"},
	{name: "process.cpu_ns_per_pkt", unit: "ns"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "runtime.allocs_per_kpkt", unit: "count"},
	{name: "runtime.sched_lat_p99_us", unit: "us"},
	{name: "ring.spsc_ns_per_pkt", unit: "ns"},
	{name: "ring.mpmc_ns_per_pkt", unit: "ns"},
	{name: "dataplane.pool.getput_ns_per_pkt", unit: "ns"},
	{name: "dataplane.lane.inject_ns_per_pkt", unit: "ns"},
	{name: "dataplane.lane.backlog_p99", unit: "count"},
	{name: "dataplane.lane.refused", unit: "count"},
	{name: "dataplane.sched.pkts_per_call", unit: "count"},
	{name: "dataplane.sched.handler_busy_share", unit: "ratio"},
	{name: "dataplane.sched.entry_wait_p50_us", unit: "us"},
	{name: "dataplane.sched.hop_wait_p50_us", unit: "us"},
	{name: "dataplane.sched.hop_wait_p99_us", unit: "us"},
	{name: "dataplane.sched.victim_busy_share", unit: "ratio"},
	{name: "dataplane.mover.pkts_per_sweep", unit: "count"},
	{name: "dataplane.mover.parks_per_s", unit: "1/s"},
	{name: "dataplane.mover.wakes_per_s", unit: "1/s"},
	{name: "dataplane.mover.batch", unit: "count"},
	{name: "dataplane.mover.exit_wait_p50_us", unit: "us"},
	{name: "dataplane.queue.depth_p50", unit: "count"},
	{name: "dataplane.queue.depth_p99", unit: "count"},
	{name: "dataplane.queue.depth_max", unit: "count"},
	{name: "dataplane.control.bp_on_per_s", unit: "1/s"},
	{name: "dataplane.control.throttle_events_per_s", unit: "1/s"},
	{name: "dataplane.control.weight_updates_per_s", unit: "1/s"},
	{name: "dataplane.control.bp_on_overshoot_p50", unit: "count"},
	{name: "dataplane.ledger.entry_drop_ratio", unit: "ratio"},
	{name: "dataplane.ledger.midring_drop_ratio", unit: "ratio"},
	{name: "dataplane.ledger.nf_drop_ratio", unit: "ratio"},
	{name: "dataplane.ledger.residual", unit: "count"},
	{name: "dataplane.transit_self_p50_us", unit: "us"},
	{name: "sink.p50_us", unit: "us"},
	{name: "sink.p90_us", unit: "us"},
	{name: "sink.p99_us", unit: "us"},
	{name: "sink.p999_us", unit: "us"},
	{name: "sink.batch_mean", unit: "count"},
	{name: "nfs.firewall_ns_per_pkt", unit: "ns"},
	{name: "nfs.nat_ns_per_pkt", unit: "ns"},
	{name: "nfs.monitor_ns_per_pkt", unit: "ns"},
	{name: "flowtable.hit_ratio", unit: "ratio"},
	{name: "flowtable.evictions_per_kpkt", unit: "count"},
	{name: "flowtable.hit_ns", unit: "ns"},
	{name: "flowtable.miss_ns", unit: "ns"},
	{name: "frontend.chainof_ns_per_pkt", unit: "ns"},
	{name: "proto.encode_ns_per_pkt", unit: "ns"},
	{name: "sim.eventsim.events_per_s", unit: "1/s"},
	{name: "sim.eventsim.events_per_pkt", unit: "count"},
	{name: "sim.cpusched.switches_per_kpkt", unit: "count"},
	{name: "sim.mgr.wasted_ratio", unit: "ratio"},
	{name: "sim.mgr.entry_drop_ratio", unit: "ratio"},
	{name: "sim.alloc_mb", unit: "MB"},
	{name: "sim.gc_cycles", unit: "count"},
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "trace.spans", unit: "count"},
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// began is when set-up began, in ns since the process started: 0 for the
	// command, which does nothing else first.
	began int64
	// quick shortens the warm-up; only the smoke test sets it.
	quick bool
}

// runSeconds is the length of the measured window BENCHMARK.json asks for.
const runSeconds = 20

// result is what one run of one workload produced.
type result struct {
	e2e, layer        map[string]float64
	attempted, failed uint64
	errs, notes       []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) fail(format string, a ...any) { r.errs = append(r.errs, fmt.Sprintf(format, a...)) }
func (r *result) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// gomaxprocs is pinned: the same closed loop is 4.1 Mpps on one P and
// 2.6 Mpps on two, so a run that inherited the host's count would not be
// comparable with any other.
const gomaxprocs = 2

func runWorkload(o options) (*result, error) {
	if runtime.NumCPU() < gomaxprocs {
		return nil, fmt.Errorf("need at least %d CPUs, have %d: generator and engine would share one", gomaxprocs, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if o.workload == "sim_fig7" {
		return runSim(o)
	}
	spec, ok := liveWorkloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	return runLive(o, spec)
}

// envStamp describes the host and build a result came from.
func envStamp(o options) map[string]any {
	return map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"gomaxprocs": gomaxprocs, "num_cpu": runtime.NumCPU(), "cpu_model": cpuModel(),
		"go_version": runtime.Version(), "goarch": runtime.GOARCH, "commit": commit(),
	}
}

// commit is the revision the binary was built from: stamped by `go build`,
// asked of git under `go run` (which stamps nothing), "unknown" in a checkout
// that is not a repository. git looks in the working directory only, not in
// the directories above it.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the env stamp, every metric with its unit, the notes and
// errors, and last the one-line JSON result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func report(w io.Writer, o options, r *result) error {
	env, err := json.Marshal(envStamp(o))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "env %s\n", env)
	printMetrics := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			if v, ok := vals[d.name]; ok {
				fmt.Fprintf(w, "%-42s %16.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	printMetrics(endToEnd, r.e2e)
	printMetrics(perLayer, r.layer)
	if o.trace {
		var absent []string
		for _, d := range perLayer {
			if _, ok := r.layer[d.name]; !ok {
				absent = append(absent, d.name)
			}
		}
		if len(absent) > 0 {
			fmt.Fprintf(w, "not measured on this workload (0 in the result line, which must carry every metric): %s\n", strings.Join(absent, " "))
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, r.e2e
	if o.trace {
		defs, vals = perLayer, r.layer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(r.errs) == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// joinTraceValue lets `-trace` be a plain boolean flag and still accept the
// value the benchmark contract passes as a separate argument (`--trace 0`),
// which package flag would take for the first positional argument.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch v := args[i+1]; v {
			case "0", "1", "true", "false":
				a += "=" + v
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var selfcheck bool
	fs.StringVar(&o.workload, "workload", "", "one of: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured window")
	fs.BoolVar(&o.trace, "trace", false, "traced run: prints the per-layer metrics and writes a span file")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for span files")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run every workload ten times and write benchmark/NOISE.md")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if selfcheck {
		if err := selfCheck(o, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	r, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := report(stdout, o, r); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if len(r.errs) > 0 {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// benchdataplane turns `go test -bench` output into BENCH_dataplane.json,
// runs in-process mover sweeps, and compares two benchmark runs.
//
// It reads benchmark output on stdin, extracts the pps / ns-per-packet /
// allocs metrics the dataplane benchmarks report (averaging across -count
// repetitions), and rewrites the JSON file's "current" section while
// preserving the committed "baseline" section (the pre-batching numbers
// recorded before the hot-path rework).
//
// Usage (see `make bench-dataplane` and `make bench-compare`):
//
//	go test -run='^$' -bench='SteadyState|Chain3' -benchtime=2s ./internal/dataplane/ |
//	    go run ./cmd/benchdataplane -out BENCH_dataplane.json -commit $(git rev-parse --short HEAD)
//
//	# In-process movers sweep (no `go test` needed), merged into the JSON:
//	go run ./cmd/benchdataplane -movers 1,2,4 -benchtime 2s -out BENCH_dataplane.json
//
//	# Core-count scaling sweep: pins GOMAXPROCS per point, Movers = Cores,
//	# writes the "scaling" section of the JSON:
//	go run ./cmd/benchdataplane -cores 1,2,4,8 -benchtime 2s -out BENCH_dataplane.json
//
//	# Compare two saved runs (fallback when benchstat is not installed);
//	# -threshold N makes it exit nonzero when any ns/pkt regresses > N%:
//	go run ./cmd/benchdataplane -compare -threshold 5 old.txt new.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's parsed metrics.
type Result struct {
	NsPerPkt    float64 `json:"ns_per_pkt"`
	PPS         float64 `json:"pps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Env records the toolchain and host a section was measured on, so a
// regression flagged by -compare can be told apart from a machine change.
type Env struct {
	GoVersion string `json:"go_version,omitempty"`
	GoArch    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`
}

// Section is one measurement epoch: a commit and its benchmark results.
type Section struct {
	Commit     string            `json:"commit,omitempty"`
	Note       string            `json:"note,omitempty"`
	Env        *Env              `json:"env,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// ScalingPoint is one core-count sweep measurement. Speedup is the PPS ratio
// against the sweep's first (cores=1) point.
type ScalingPoint struct {
	Cores    int     `json:"cores"`
	Movers   int     `json:"movers"`
	NsPerPkt float64 `json:"ns_per_pkt"`
	PPS      float64 `json:"pps"`
	Speedup  float64 `json:"speedup"`
}

// ScalingSection records a -cores sweep: the commit it measured, the host's
// CPU count (a 1-CPU host time-shares every point, flattening the curve),
// and the per-core-count points.
type ScalingSection struct {
	Commit       string         `json:"commit,omitempty"`
	HostMaxProcs int            `json:"maxprocs_host"`
	Env          *Env           `json:"env,omitempty"`
	Points       []ScalingPoint `json:"points"`
}

// File is the whole BENCH_dataplane.json document. Previous holds the
// last epoch's current section (rotated by hand when a PR re-measures) so
// the JSON keeps one generation of history beyond the fixed baseline.
type File struct {
	Baseline Section         `json:"baseline"`
	Current  Section         `json:"current"`
	Previous *Section        `json:"previous,omitempty"`
	Scaling  *ScalingSection `json:"scaling,omitempty"`
}

const currentNote = "zero-copy frame arena + batch NF adapters; RealNFChain3 " +
	"family runs firewall→NAT→monitor on live engine (single-CPU runner)"

func main() {
	out := flag.String("out", "BENCH_dataplane.json", "JSON file to update in place (empty to skip writing)")
	commit := flag.String("commit", "", "commit hash to record in the current section")
	movers := flag.String("movers", "", "comma-separated mover counts to sweep in-process (e.g. 1,2,4)")
	cores := flag.String("cores", "", "comma-separated core counts to sweep, pinning GOMAXPROCS per point (e.g. 1,2,4,8)")
	benchtime := flag.Duration("benchtime", 2*time.Second, "measurement window per sweep point")
	compare := flag.Bool("compare", false, "compare two benchmark output files: -compare old.txt new.txt")
	threshold := flag.Float64("threshold", -1, "with -compare: exit nonzero when any shared benchmark's ns/pkt regresses more than this percentage (negative disables the gate)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the in-process sweeps to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile of the in-process sweeps to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchdataplane -compare [-threshold pct] old.txt new.txt")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), *threshold))
	}

	results := make(map[string]Result)
	// Stdin is parsed when it is a pipe; the -movers sweep needs no input.
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
		for k, v := range parseBench(os.Stdin) {
			results[k] = v
		}
	}

	stopProfiles := startProfiles(*cpuprofile, *mutexprofile)
	if *movers != "" {
		counts, err := parseMovers(*movers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdataplane:", err)
			os.Exit(2)
		}
		for _, m := range counts {
			r := sweepMovers(m, *benchtime)
			name := "BenchmarkChain3StagesMovers/" + strconv.Itoa(m)
			results[name] = r
			fmt.Printf("%-40s %10.1f ns/pkt %12.0f pps %6.2f allocs/op\n",
				name, r.NsPerPkt, r.PPS, r.AllocsPerOp)
		}
	}
	var scaling *ScalingSection
	if *cores != "" {
		counts, err := parseMovers(*cores)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdataplane:", err)
			os.Exit(2)
		}
		scaling = &ScalingSection{Commit: *commit, HostMaxProcs: runtime.NumCPU(), Env: hostEnv()}
		var base float64
		for _, c := range counts {
			r := sweepCores(c, *benchtime)
			pt := ScalingPoint{Cores: c, Movers: c, NsPerPkt: r.NsPerPkt, PPS: r.PPS}
			if base == 0 {
				base = r.PPS
			}
			if base > 0 {
				pt.Speedup = r.PPS / base
			}
			scaling.Points = append(scaling.Points, pt)
			fmt.Printf("scaling cores=%-2d %10.1f ns/pkt %12.0f pps %6.2fx %6.2f allocs/op\n",
				c, r.NsPerPkt, r.PPS, pt.Speedup, r.AllocsPerOp)
		}
	}
	stopProfiles()

	if len(results) == 0 && scaling == nil {
		fmt.Fprintln(os.Stderr, "benchdataplane: no benchmark lines on stdin and no -movers/-cores sweep")
		os.Exit(1)
	}
	if *out == "" {
		return
	}

	var doc File
	if raw, err := os.ReadFile(*out); err == nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchdataplane: %s is not valid JSON: %v\n", *out, err)
			os.Exit(1)
		}
	}
	// Merge so a -movers sweep refreshes its points without discarding the
	// `go test` numbers recorded by an earlier bench-dataplane run.
	if doc.Current.Benchmarks == nil {
		doc.Current.Benchmarks = make(map[string]Result)
	}
	for k, v := range results {
		doc.Current.Benchmarks[k] = v
	}
	if *commit != "" {
		doc.Current.Commit = *commit
	}
	doc.Current.Note = currentNote
	doc.Current.Env = hostEnv()
	if scaling != nil {
		doc.Scaling = scaling
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdataplane:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchdataplane:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(results))
}

// hostEnv stamps the toolchain and CPU the measurement ran on.
func hostEnv() *Env {
	return &Env{GoVersion: runtime.Version(), GoArch: runtime.GOARCH, CPU: cpuModel()}
}

// cpuModel reads the CPU model name from /proc/cpuinfo; empty when the
// platform does not expose one (the field is then omitted from the JSON).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// startProfiles arms the requested profilers around the in-process sweeps and
// returns the function that stops them and writes the files. Mutex profiling
// samples 1-in-5 contention events — enough to rank hot locks without
// perturbing the sweep.
func startProfiles(cpuPath, mutexPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdataplane:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchdataplane:", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(5)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Println("wrote CPU profile:", cpuPath)
		}
		if mutexPath != "" {
			f, err := os.Create(mutexPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchdataplane:", err)
				os.Exit(1)
			}
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "benchdataplane:", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Println("wrote mutex profile:", mutexPath)
		}
	}
}

// parseMovers parses "1,2,4" into mover counts.
func parseMovers(s string) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -movers element %q (want positive integers)", f)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// parseBench extracts metric pairs from `go test -bench` output lines, which
// look like:
//
//	BenchmarkChain3Stages   10000   143.8 ns/pkt   6953819 pps   0 B/op   0 allocs/op
//
// Repeated lines for the same benchmark (`-count=N` runs) are averaged.
func parseBench(f io.Reader) map[string]Result {
	sums := make(map[string]Result)
	counts := make(map[string]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the -N GOMAXPROCS suffix go test appends.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var r Result
		seen := false
		for i := 1; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/pkt":
				r.NsPerPkt, seen = v, true
			case "pps":
				r.PPS, seen = v, true
			case "allocs/op":
				r.AllocsPerOp, seen = v, true
			}
		}
		if seen {
			s := sums[name]
			s.NsPerPkt += r.NsPerPkt
			s.PPS += r.PPS
			s.AllocsPerOp += r.AllocsPerOp
			sums[name] = s
			counts[name]++
		}
	}
	for name, n := range counts {
		s := sums[name]
		s.NsPerPkt /= float64(n)
		s.PPS /= float64(n)
		s.AllocsPerOp /= float64(n)
		sums[name] = s
	}
	return sums
}

// compareFiles prints an old-vs-new delta table for two benchmark output
// files (the builtin fallback for benchstat). With a non-negative threshold
// it becomes a regression gate: any benchmark present in both files whose
// ns/pkt grew by more than threshold percent makes it return 1. Returns the
// process exit code.
func compareFiles(oldPath, newPath string, threshold float64) int {
	read := func(path string) map[string]Result {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdataplane:", err)
			os.Exit(1)
		}
		defer f.Close()
		return parseBench(f)
	}
	oldR, newR := read(oldPath), read(newPath)

	names := make([]string, 0, len(newR))
	for name := range newR {
		names = append(names, name)
	}
	sort.Strings(names)

	worstName, worstPct := "", 0.0
	fmt.Printf("%-42s %12s %12s %8s\n", "benchmark", "old ns/pkt", "new ns/pkt", "delta")
	for _, name := range names {
		n := newR[name]
		o, ok := oldR[name]
		if !ok {
			fmt.Printf("%-42s %12s %12.1f %8s\n", name, "-", n.NsPerPkt, "new")
			continue
		}
		delta := "~"
		if o.NsPerPkt > 0 {
			pct := (n.NsPerPkt - o.NsPerPkt) / o.NsPerPkt * 100
			delta = fmt.Sprintf("%+.1f%%", pct)
			if pct > worstPct {
				worstName, worstPct = name, pct
			}
		}
		fmt.Printf("%-42s %12.1f %12.1f %8s\n", name, o.NsPerPkt, n.NsPerPkt, delta)
	}
	for name := range oldR {
		if _, ok := newR[name]; !ok {
			fmt.Printf("%-42s %12.1f %12s %8s\n", name, oldR[name].NsPerPkt, "-", "gone")
		}
	}
	if threshold >= 0 && worstPct > threshold {
		fmt.Fprintf(os.Stderr, "benchdataplane: %s regressed %+.1f%% ns/pkt (threshold %.1f%%)\n",
			worstName, worstPct, threshold)
		return 1
	}
	return 0
}

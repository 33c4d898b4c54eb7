package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the numbers
// here are the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// selfRuns is how many times the self-check runs each workload: two
// interleaved sets of five.
const selfRuns = 10

// selfCheck measures the benchmark's own noise: it runs this binary selfRuns
// times per workload, alternating between two sets (A: even runs, B: odd
// runs). Each run gets another seed, as in the acceptance check, so whatever
// the inputs add to the spread is in the figure. For every end-to-end metric
// it prints median, quartiles, the quartile distance over the median (what
// the acceptance check looks at), the full range over the median, and the
// drift between the two sets, each against the metric's bound, and writes
// the table to NOISE.md next to this file's package.
func selfCheck(o options, w io.Writer) error {
	const runs = selfRuns
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	var md strings.Builder
	env, _ := json.Marshal(envStamp(o))
	fmt.Fprintf(&md, "# Run-to-run noise of the benchmark\n\nWritten by `go run ./benchmark -selfcheck` on %s.\n\n", time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintf(&md, "%d runs per workload of one binary, %g s windows, seeds %d…%d, in two interleaved sets (A: even runs, B: odd runs).\n\n",
		runs, o.seconds, o.seed, o.seed+int64(runs)-1)
	fmt.Fprintf(&md, "Host: `%s`\n\n", env)
	md.WriteString("`iqr/med` is the distance between the quartiles (Python's `statistics.quantiles(values, n=4)`) over the median; " +
		"the benchmark is steady enough when it stays under a third of the bound. `range/med` is (max − min)/median. " +
		"`drift` is how much worse set B's median is than set A's, as a share of A's. " +
		"README.md (\"End-to-end metrics\") says why the bounds are as wide as they are and which rows stay over a third.\n")
	// Round-robin over the workloads, so each workload's runs are spread
	// over the whole session and slow drift of the host lands inside the
	// spread instead of hiding between workloads.
	vals := map[string]map[string][]float64{}
	failedRuns := map[string]int{}
	for i := 0; i < runs; i++ {
		for _, name := range names {
			args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed + int64(i)), "-seconds", fmt.Sprint(o.seconds), "-out", o.outDir}
			var stdout bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct bool   `json:"correct"`
				Failed  uint64 `json:"failed"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s run %d: %v (exit: %v)", name, i, err, runErr)
			}
			if runErr != nil || !res.Correct || res.Failed > 0 {
				failedRuns[name]++
			}
			if vals[name] == nil {
				vals[name] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				vals[name][k] = append(vals[name][k], v.Value)
			}
			fmt.Fprintf(w, "%s run %d/%d: correct=%v failed=%d goodput=%.6g slo_ok=%.6g\n", name, i+1, runs, res.Correct, res.Failed,
				res.Metrics["goodput_pps"].Value, res.Metrics["slo_ok_ratio"].Value)
		}
	}
	worst := 0.0
	for _, name := range names {
		fmt.Fprintf(&md, "\n## %s\n\n%d of %d runs had a failed check or a failed operation.\n\n", name, failedRuns[name], runs)
		md.WriteString("| metric | unit | median | q1 | q3 | iqr/med | range/med | drift B vs A | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n")
		for _, d := range endToEnd {
			xs := vals[name][d.name]
			if len(xs) < 4 {
				continue
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			var a, b []float64
			for i, x := range xs {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			drift := ratio(median(b)-median(a), median(a))
			if !d.lowerIsBetter {
				drift = -drift
			}
			spread := ratio(q3-q1, med)
			bound := d.bound
			verdict := "steady"
			switch {
			case spread > bound || drift > bound:
				verdict = "OVER BOUND"
			case spread > bound/3:
				verdict = "over a third"
			}
			worst = max(worst, spread/bound)
			fmt.Fprintf(&md, "| %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %+.4f | %.3f | %s |\n",
				d.name, d.unit, med, q1, q3, spread, ratio(slices.Max(xs)-slices.Min(xs), med), drift, bound, verdict)
		}
	}
	fmt.Fprintf(&md, "\nWorst iqr/med over its bound, any metric, any workload: %.2f.\n", worst)
	fmt.Fprint(w, md.String())
	path := filepath.Join(filepath.Dir(o.outDir), "NOISE.md")
	return os.WriteFile(path, []byte(md.String()), 0o644)
}

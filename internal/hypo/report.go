package hypo

// Result emission: canonical JSON for machine diffing and CI artifacts,
// markdown for the hypotheses/<name>/FINDINGS.md ledgers.
//
// Canonical JSON is byte-reproducible for a fixed (config matrix, seeds,
// rounds, scale) on one host as long as the verdict reproduces: it contains
// only data that is a pure function of those inputs, the host stamp (Env)
// and the per-check pass/fail bits. Observed counters (delivered totals,
// drop classes — measured, not deterministic) are stripped unless explicitly
// requested.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// CanonicalJSON renders the result set. With includeObserved false (the
// default, and the mode the byte-reproducibility guarantee covers) the
// per-run Observed maps are stripped.
func CanonicalJSON(res Result, includeObserved bool) ([]byte, error) {
	if !includeObserved {
		runs := make([]RunResult, len(res.Runs))
		for i, r := range res.Runs {
			r.Observed = nil
			runs[i] = r
		}
		res.Runs = runs
	}
	return json.MarshalIndent(res, "", "  ")
}

// Markdown renders the ledger body for FINDINGS.md: claim, matrix, verdict
// table. Deliberately timestamp-free — the committed ledger carries its own
// date line.
func Markdown(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Result: %s\n\n", strings.ToUpper(string(res.Verdict)))
	fmt.Fprintf(&b, "**Hypothesis:** %s\n\n", res.Claim)
	fmt.Fprintf(&b, "**Runs:** %d configs x %d seeds x %d rounds = %d runs at scale %g\n\n",
		len(res.Configs), len(res.Seeds), res.Rounds,
		len(res.Runs), res.Scale)
	fmt.Fprintf(&b, "**Seeds:** %s\n\n", joinSeeds(res.Seeds))
	fmt.Fprintf(&b, "**Host:** GOMAXPROCS %d of %d CPUs, %s, %s\n\n",
		res.Env.GOMAXPROCS, res.Env.NumCPU, res.Env.CPUModel, res.Env.GoVersion)

	b.WriteString("### Config matrix\n\n")
	axes := axisNames(res.Configs)
	if len(axes) > 0 {
		b.WriteString("| " + strings.Join(axes, " | ") + " |\n")
		b.WriteString("|" + strings.Repeat("---|", len(axes)) + "\n")
		for _, cfg := range res.Configs {
			row := make([]string, len(axes))
			for i, a := range axes {
				row[i] = cfg[a]
			}
			b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
		b.WriteString("\n")
	}

	b.WriteString("### Check verdicts\n\n")
	b.WriteString("| check | verdict | pass | fail |\n|---|---|---|---|\n")
	names := make([]string, 0, len(res.CheckVerdicts))
	for n := range res.CheckVerdicts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pass, fail := 0, 0
		for _, r := range res.Runs {
			for _, c := range r.Checks {
				if c.Name != n {
					continue
				}
				if c.Pass {
					pass++
				} else {
					fail++
				}
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %d |\n", n, res.CheckVerdicts[n], pass, fail)
	}
	b.WriteString("\n")

	if failures := failedRuns(res); len(failures) > 0 {
		b.WriteString("### Failures\n\n")
		for _, f := range failures {
			b.WriteString(f + "\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// axisNames collects the sorted union of config keys.
func axisNames(configs []Params) []string {
	set := map[string]bool{}
	for _, c := range configs {
		for k := range c {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func failedRuns(res Result) []string {
	var out []string
	for _, r := range res.Runs {
		for _, c := range r.Checks {
			if !c.Pass {
				out = append(out, fmt.Sprintf("- `%s` config=%v seed=%d round=%d: %s",
					c.Name, r.Config, r.Seed, r.Round, c.Detail))
			}
		}
	}
	return out
}

func joinSeeds(seeds []uint64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprintf("%d", s)
	}
	return strings.Join(parts, ", ")
}

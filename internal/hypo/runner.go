package hypo

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"nfvnice/internal/faults"
)

// Options tunes a hypothesis run.
type Options struct {
	// Rounds repeats every (config, seed) point to expose scheduling
	// flakiness; the fault schedule is identical across rounds (it is a
	// function of the seed), the goroutine interleavings are not.
	Rounds int
	// Seeds are the fault/jitter seeds; each (config, seed) pair is an
	// independent experiment point.
	Seeds []uint64
	// Scale multiplies workload sizes (1.0 = ledger scale).
	Scale float64
	// Logf reports progress (nil discards).
	Logf func(format string, args ...any)
}

// RunResult is one executed (config, seed, round) point.
type RunResult struct {
	Config Params  `json:"config"`
	Seed   uint64  `json:"seed"`
	Round  int     `json:"round"`
	Pass   bool    `json:"pass"`
	Checks []Check `json:"checks"`
	// FaultPlans are the replayable injector manifests for this point
	// (identical across rounds of the same seed).
	FaultPlans []faults.Plan `json:"fault_plans,omitempty"`
	// Observed is stripped from canonical output (see report.go).
	Observed map[string]uint64 `json:"observed,omitempty"`
}

// Env is the host a result set was recorded on. The verdicts of the
// wall-clock experiments belong to it: h-degradation was Confirmed on one
// CPU and refuted on two, and the ledger that did not say which was no use.
type Env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

// hostEnv reads the stamp for this process.
func hostEnv() Env {
	env := Env{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", GoVersion: runtime.Version()}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return env // not Linux: the model stays unknown
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			env.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return env
}

// Result is the full outcome of a hypothesis: every run plus the per-check
// and overall verdicts.
type Result struct {
	Hypothesis string      `json:"hypothesis"`
	Title      string      `json:"title"`
	Claim      string      `json:"claim"`
	Env        Env         `json:"env"`
	Scale      float64     `json:"scale"`
	Rounds     int         `json:"rounds"`
	Seeds      []uint64    `json:"seeds"`
	Configs    []Params    `json:"configs"`
	Runs       []RunResult `json:"runs"`
	// CheckVerdicts aggregates each named check across all runs:
	// confirmed (always passed), refuted (always failed), flaky (mixed).
	CheckVerdicts map[string]Verdict `json:"check_verdicts"`
	Verdict       Verdict            `json:"verdict"`
}

// Run executes the experiment across its full matrix × seeds × rounds and
// aggregates the verdict. Execution order is deterministic: configs in
// matrix order, then seeds, then rounds.
func Run(e Experiment, opt Options) (Result, error) {
	if opt.Rounds <= 0 {
		opt.Rounds = 1
	}
	if len(opt.Seeds) == 0 {
		opt.Seeds = []uint64{42}
	}
	if opt.Scale <= 0 {
		opt.Scale = 1.0
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	res := Result{
		Hypothesis: e.Name,
		Title:      e.Title,
		Claim:      e.Claim,
		Env:        hostEnv(),
		Scale:      opt.Scale,
		Rounds:     opt.Rounds,
		Seeds:      opt.Seeds,
		Configs:    ExpandMatrix(e.Axes),
	}
	total := len(res.Configs) * len(opt.Seeds) * opt.Rounds
	n := 0
	for _, cfg := range res.Configs {
		for _, seed := range opt.Seeds {
			for round := 1; round <= opt.Rounds; round++ {
				n++
				logf("%s: run %d/%d config=%v seed=%d round=%d",
					e.Name, n, total, cfg, seed, round)
				out, err := e.Run(RunCtx{Params: cfg, Seed: seed, Scale: opt.Scale, Logf: logf})
				if err != nil {
					return Result{}, fmt.Errorf("hypo: %s config=%v seed=%d round=%d: %w",
						e.Name, cfg, seed, round, err)
				}
				rr := RunResult{
					Config: cfg, Seed: seed, Round: round,
					Pass: true, Checks: out.Checks,
					Observed: out.Observed,
				}
				// Plans are a function of the seed alone; carrying them on
				// round 1 only keeps the result set compact without losing
				// information.
				if round == 1 {
					rr.FaultPlans = out.FaultPlans
				}
				for _, c := range out.Checks {
					if !c.Pass {
						rr.Pass = false
						logf("%s: FAIL %s: %s", e.Name, c.Name, c.Detail)
					}
				}
				res.Runs = append(res.Runs, rr)
			}
		}
	}
	res.CheckVerdicts, res.Verdict = aggregate(res.Runs)
	return res, nil
}

// aggregate folds per-run check outcomes into verdicts. A check missing
// from some runs is judged only over the runs that report it.
func aggregate(runs []RunResult) (map[string]Verdict, Verdict) {
	passes := map[string]int{}
	fails := map[string]int{}
	for _, r := range runs {
		for _, c := range r.Checks {
			if c.Pass {
				passes[c.Name]++
			} else {
				fails[c.Name]++
			}
		}
	}
	verdicts := make(map[string]Verdict, len(passes)+len(fails))
	for name := range passes {
		if fails[name] == 0 {
			verdicts[name] = Confirmed
		} else {
			verdicts[name] = Flaky
		}
	}
	for name := range fails {
		if passes[name] == 0 {
			verdicts[name] = Refuted
		}
	}
	overall := Confirmed
	for _, v := range verdicts {
		if v == Refuted {
			return verdicts, Refuted
		}
		if v == Flaky {
			overall = Flaky
		}
	}
	if len(verdicts) == 0 {
		overall = Refuted // an experiment that checked nothing proves nothing
	}
	return verdicts, overall
}

package hypo

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nfvnice/internal/faults"
)

func TestExpandMatrix(t *testing.T) {
	got := ExpandMatrix([]Axis{
		{Name: "a", Values: []string{"1", "2"}},
		{Name: "b", Values: []string{"x", "y", "z"}},
	})
	if len(got) != 6 {
		t.Fatalf("want 6 configs, got %d", len(got))
	}
	// First axis varies slowest.
	want := []Params{
		{"a": "1", "b": "x"}, {"a": "1", "b": "y"}, {"a": "1", "b": "z"},
		{"a": "2", "b": "x"}, {"a": "2", "b": "y"}, {"a": "2", "b": "z"},
	}
	for i, w := range want {
		for k, v := range w {
			if got[i][k] != v {
				t.Fatalf("config %d: want %v got %v", i, w, got[i])
			}
		}
	}
	if n := len(ExpandMatrix(nil)); n != 1 {
		t.Fatalf("no axes should yield one empty config, got %d", n)
	}
}

func TestAggregateVerdicts(t *testing.T) {
	run := func(pairs ...any) RunResult {
		var rr RunResult
		for i := 0; i < len(pairs); i += 2 {
			rr.Checks = append(rr.Checks, Check{Name: pairs[i].(string), Pass: pairs[i+1].(bool)})
		}
		return rr
	}
	cases := []struct {
		name    string
		runs    []RunResult
		overall Verdict
		checks  map[string]Verdict
	}{
		{"all pass", []RunResult{run("a", true), run("a", true)},
			Confirmed, map[string]Verdict{"a": Confirmed}},
		{"all fail", []RunResult{run("a", false), run("a", false)},
			Refuted, map[string]Verdict{"a": Refuted}},
		{"mixed is flaky", []RunResult{run("a", true), run("a", false)},
			Flaky, map[string]Verdict{"a": Flaky}},
		{"any refuted dominates", []RunResult{run("a", true, "b", false), run("a", false, "b", false)},
			Refuted, map[string]Verdict{"a": Flaky, "b": Refuted}},
		{"no checks refutes", nil, Refuted, map[string]Verdict{}},
	}
	for _, tc := range cases {
		verdicts, overall := aggregate(tc.runs)
		if overall != tc.overall {
			t.Errorf("%s: overall want %s got %s", tc.name, tc.overall, overall)
		}
		if len(verdicts) != len(tc.checks) {
			t.Errorf("%s: verdicts want %v got %v", tc.name, tc.checks, verdicts)
			continue
		}
		for k, v := range tc.checks {
			if verdicts[k] != v {
				t.Errorf("%s: check %s want %s got %s", tc.name, k, v, verdicts[k])
			}
		}
	}
}

func TestRunnerOrderAndDefaults(t *testing.T) {
	var trace []string
	exp := Experiment{
		Name:  "t-order",
		Title: "ordering probe",
		Claim: "runs execute configs, then seeds, then rounds",
		Axes:  []Axis{{Name: "v", Values: []string{"p", "q"}}},
		Run: func(ctx RunCtx) (Outcome, error) {
			trace = append(trace, fmt.Sprintf("%s/%d", ctx.Params["v"], ctx.Seed))
			return Outcome{Checks: []Check{{Name: "ok", Pass: true}}}, nil
		},
	}
	res, err := Run(exp, Options{Rounds: 2, Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p/1", "p/1", "p/2", "p/2", "q/1", "q/1", "q/2", "q/2"}
	if strings.Join(trace, " ") != strings.Join(want, " ") {
		t.Fatalf("execution order: want %v got %v", want, trace)
	}
	if res.Verdict != Confirmed || len(res.Runs) != 8 {
		t.Fatalf("want confirmed over 8 runs, got %s over %d", res.Verdict, len(res.Runs))
	}
	// Defaults: 1 round, seed 42, scale 1.0.
	res, err = Run(exp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || len(res.Seeds) != 1 || res.Seeds[0] != 42 || res.Scale != 1.0 {
		t.Fatalf("defaults not applied: %+v", res)
	}
}

func TestRunnerPlansOnRoundOneOnly(t *testing.T) {
	inj := faults.New(7, faults.DropOn(faults.EveryNth(10)))
	plan, err := inj.ExportPlan(64)
	if err != nil {
		t.Fatal(err)
	}
	exp := Experiment{
		Name: "t-plans", Title: "plans probe", Claim: "plans ride round 1",
		Run: func(ctx RunCtx) (Outcome, error) {
			return Outcome{
				Checks:     []Check{{Name: "ok", Pass: true}},
				FaultPlans: []faults.Plan{plan},
			}, nil
		},
	}
	res, err := Run(exp, Options{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runs {
		if r.Round == 1 && len(r.FaultPlans) != 1 {
			t.Fatalf("round 1 lost its plan: %+v", r)
		}
		if r.Round > 1 && len(r.FaultPlans) != 0 {
			t.Fatalf("round %d should not carry plans", r.Round)
		}
	}
}

// TestCanonicalJSONDeterministic runs the same synthetic experiment twice —
// with Observed counters that differ between executions — and requires the
// canonical (non-observed) output to be byte-identical, while -observed
// output differs.
func TestCanonicalJSONDeterministic(t *testing.T) {
	mk := func(noise uint64) Result {
		exp := Experiment{
			Name: "t-canon", Title: "canonical probe", Claim: "bytes reproduce",
			Axes: []Axis{{Name: "k", Values: []string{"a", "b"}}},
			Run: func(ctx RunCtx) (Outcome, error) {
				return Outcome{
					Checks:   []Check{{Name: "ok", Pass: true}},
					Observed: map[string]uint64{"noise": noise},
				}, nil
			},
		}
		res, err := Run(exp, Options{Rounds: 2, Seeds: []uint64{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := mk(111), mk(999)
	c1, err := CanonicalJSON(r1, false)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CanonicalJSON(r2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical output not byte-identical:\n%s\n---\n%s", c1, c2)
	}
	o1, err := CanonicalJSON(r1, true)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := CanonicalJSON(r2, true)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(o1, o2) {
		t.Fatal("-observed output should differ when counters differ")
	}
	if !strings.Contains(string(o1), "observed") || strings.Contains(string(c1), "observed") {
		t.Fatal("observed block present/absent in the wrong outputs")
	}
	// The host stamp is part of the canonical set: a verdict is only
	// comparable with one recorded at the same parallelism.
	for _, key := range []string{`"gomaxprocs"`, `"num_cpu"`, `"cpu_model"`, `"go_version"`} {
		if !strings.Contains(string(c1), key) {
			t.Fatalf("canonical output has no %s stamp:\n%s", key, c1)
		}
	}
}

func TestMarkdownReport(t *testing.T) {
	exp := Experiment{
		Name: "t-md", Title: "markdown probe", Claim: "the claim text",
		Axes: []Axis{{Name: "k", Values: []string{"a"}}},
		Run: func(ctx RunCtx) (Outcome, error) {
			return Outcome{Checks: []Check{
				{Name: "good", Pass: true},
				{Name: "bad", Pass: false, Detail: "it broke"},
			}}, nil
		},
	}
	res, err := Run(exp, Options{Seeds: []uint64{5}})
	if err != nil {
		t.Fatal(err)
	}
	md := Markdown(res)
	for _, want := range []string{
		"## Result: REFUTED", "the claim text", "1 configs x 1 seeds x 1 rounds", "**Host:** GOMAXPROCS",
		"| bad | refuted |", "| good | confirmed |", "it broke",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestRegisteredHypothesesSmoke executes every registered hypothesis at a
// small scale with one seed and requires a Confirmed verdict — the same
// invariants the ledgers record, compressed for CI. Scale 0.25 is the floor
// at which every seeded fault trigger (EveryNth(1500) panics, After(500)
// circuit-building crashes) still fires within the shrunken workload.
func TestRegisteredHypothesesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-engine smoke; skipped in -short")
	}
	names := Names()
	if len(names) != 5 {
		t.Fatalf("expected 5 registered hypotheses, got %v", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := Get(name)
			if !ok {
				t.Fatalf("Get(%q) failed", name)
			}
			res, err := Run(e, Options{Rounds: 1, Seeds: []uint64{42}, Scale: 0.25, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != Confirmed {
				for _, r := range res.Runs {
					for _, c := range r.Checks {
						if !c.Pass {
							t.Errorf("config=%v seed=%d round=%d %s: %s",
								r.Config, r.Seed, r.Round, c.Name, c.Detail)
						}
					}
				}
				t.Fatalf("verdict %s, want confirmed", res.Verdict)
			}
		})
	}
}

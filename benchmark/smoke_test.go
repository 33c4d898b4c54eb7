package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestListsMatchBenchmarkFile keeps the harness's workload and metric tables
// and BENCHMARK.json the same lists, in the same order.
func TestListsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] || !nameOK.MatchString(w.Name) {
			t.Errorf("workload %d: file %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !nameOK.MatchString(m.Name) {
			t.Errorf("end-to-end metric %d: file %s [%s], harness %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound != endToEnd[i].bound || (m.Better == "lower") != endToEnd[i].lowerIsBetter {
			t.Errorf("%s: file says better %s, bound %v; harness says lower-is-better %v, bound %v",
				m.Name, m.Better, m.Bound, endToEnd[i].lowerIsBetter, endToEnd[i].bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !nameOK.MatchString(m.Name) {
			t.Errorf("per-layer metric %d: file %s [%s], harness %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload for 0.3 s, untraced and traced, and checks
// only the shape of what comes out: a clean exit, and a last line carrying
// every metric of the run's kind with its unit. It asserts no timing.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < gomaxprocs {
		t.Skipf("the benchmark needs %d CPUs", gomaxprocs)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	outDir := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.3, trace: trace, outDir: outDir, began: nowNanos(), quick: true}
			r, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(r.errs) > 0 {
				t.Errorf("%s trace=%v: checks failed: %s", name, trace, strings.Join(r.errs, "; "))
			}
			var out bytes.Buffer
			if err := report(&out, o, r); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool
				Attempted *uint64
				Failed    *uint64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", name, trace, err)
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || *last.Attempted < 1 {
				t.Errorf("%s trace=%v: result lacks correct/attempted/failed: %s", name, trace, lines[len(lines)-1])
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(last.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := last.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %q", name, trace, d.name, d.unit)
				}
			}
		}
	}
}

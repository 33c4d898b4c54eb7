package nfvnice

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"nfvnice/internal/obs"
	"nfvnice/internal/telemetry"
)

// TestTelemetryEndToEnd is the acceptance test for the unified observability
// layer: ONE simulator run simultaneously produces a valid Prometheus text
// dump, a recorder CSV time series, and a Perfetto-loadable Chrome trace,
// all fed from the same instrumentation points.
func TestTelemetryEndToEnd(t *testing.T) {
	p, ch := buildSmallChain()
	tel := p.EnableTelemetry()

	var traceBuf bytes.Buffer
	cw := obs.NewChromeWriter(&traceBuf)
	tel.AttachTrace(cw)
	rec := tel.StartRecorder(Milliseconds(5), 0)

	w := p.RunWindow(Milliseconds(20), Milliseconds(80))
	if w.ChainRate(ch) <= 0 {
		t.Fatal("run delivered nothing")
	}

	// Output 1: Prometheus text exposition, parsed back.
	var prom bytes.Buffer
	if err := telemetry.WritePrometheus(&prom, tel.Registry); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	vals, err := telemetry.ParseText(strings.NewReader(prom.String()))
	if err != nil {
		t.Fatalf("Prometheus dump does not parse: %v", err)
	}
	for _, key := range []string{
		`nfvnice_nf_processed_total{nf="a",id="0"}`,
		`nfvnice_nf_processed_total{nf="b",id="1"}`,
		`nfvnice_nf_wasted_total{nf="a",id="0"}`,
		`nfvnice_nf_queue_drops_total{nf="a",id="0"}`,
		`nfvnice_nf_queue_depth{nf="a",id="0"}`,
		`nfvnice_chain_delivered_total{chain="ab",id="0"}`,
		"nfvnice_latency_cycles_count",
		"nfvnice_sim_seconds",
	} {
		if _, ok := vals[key]; !ok {
			t.Errorf("Prometheus dump missing %s", key)
		}
	}
	if vals[`nfvnice_nf_processed_total{nf="a",id="0"}`] == 0 {
		t.Error("nf a processed_total = 0")
	}
	if vals[`nfvnice_chain_delivered_total{chain="ab",id="0"}`] == 0 {
		t.Error("chain delivered_total = 0")
	}
	if vals["nfvnice_sim_seconds"] <= 0 {
		t.Error("sim_seconds not advanced")
	}
	// The controller ran in NFVnice mode: cpu.shares gauges must be present.
	if vals[`nfvnice_nf_cpu_shares{nf="a",id="0"}`] <= 0 {
		t.Error("cpu_shares gauge missing or zero")
	}

	// Output 2: recorder CSV time series from the same registry.
	if rec.Len() < 10 {
		t.Fatalf("recorder took %d samples over 100 ms at 5 ms period", rec.Len())
	}
	var csvBuf bytes.Buffer
	if err := rec.WriteCSV(&csvBuf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(strings.NewReader(csvBuf.String())).ReadAll()
	if err != nil {
		t.Fatalf("recorder CSV invalid: %v", err)
	}
	if len(rows) != rec.Len()+1 {
		t.Errorf("CSV rows = %d, want %d", len(rows), rec.Len()+1)
	}
	procCol := `nfvnice_nf_processed_total{nf="a",id="0"}`
	times, series, ok := rec.Column(procCol)
	if !ok {
		t.Fatalf("recorder missing column %s (have %v)", procCol, rec.Columns()[:5])
	}
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Errorf("counter column not monotonic at sample %d: %v -> %v", i, series[i-1], series[i])
		}
		if times[i] <= times[i-1] {
			t.Errorf("sample times not increasing: %v -> %v", times[i-1], times[i])
		}
	}
	// The final sample agrees with the Prometheus dump taken after the run.
	if final := series[len(series)-1]; final > vals[procCol] {
		t.Errorf("last recorded %v exceeds final scrape %v", final, vals[procCol])
	}

	// Output 3: the Chrome trace, terminated and decoded.
	if err := cw.Close(); err != nil {
		t.Fatalf("trace Close: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(traceBuf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	kinds := map[string]int{}
	for _, e := range events {
		ph, _ := e["ph"].(string)
		kinds[ph]++
	}
	if kinds["X"] == 0 {
		t.Error("trace has no run spans")
	}
	if kinds["C"] == 0 {
		t.Error("trace has no cpu.shares counter samples (event-log bridge broken)")
	}

	// The event log recorded control-plane decisions behind those counters.
	sawShares := false
	for _, e := range tel.Events.Events() {
		if e.Type == "cpu.shares" {
			sawShares = true
			break
		}
	}
	if !sawShares && tel.Events.Dropped() == 0 {
		t.Error("event log has no cpu.shares events")
	}
}

// TestTelemetryComposesWithTracing pins that EnableTelemetry and
// EnableTraceTo chain their hooks instead of displacing each other.
func TestTelemetryComposesWithTracing(t *testing.T) {
	p, _ := buildSmallChain()
	tel := p.EnableTelemetry()
	var trace bytes.Buffer
	tr := obs.NewChromeWriter(&trace)
	p.EnableTraceTo(tr)
	p.Run(Milliseconds(30))

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Error("trace saw no events")
	}
	if tel.Events.Total() == 0 {
		t.Error("event log saw no events")
	}
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, tel.Registry); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if _, err := telemetry.ParseText(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
}

package dataplane

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"nfvnice/internal/telemetry"
)

// scrape fetches /metrics from the mux and parses the exposition.
func scrape(t *testing.T, mux http.Handler) map[string]float64 {
	t.Helper()
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	vals, err := telemetry.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text format: %v\n%s", err, body)
	}
	return vals
}

// TestScrapeWhileRunning is the acceptance test for the live exposition: the
// pipeline runs with a sharded TX path and concurrent producers while the
// HTTP handler is scraped, and the parsed output must carry per-stage
// processed/wasted/drop counters, queue-depth gauges, and per-mover shard
// counters.
func TestScrapeWhileRunning(t *testing.T) {
	e := New(Config{RingSize: 64, WeightPeriod: 5 * time.Millisecond, Movers: 2})
	a := e.AddStage("fw", 1024, func(p *Packet) {})
	b := e.AddStage("dpi", 1024, func(p *Packet) { spin(5 * time.Microsecond) })
	ch, err := e.AddChain(a, b)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)

	reg := telemetry.NewRegistry()
	events := telemetry.NewEventLog(0)
	e.RegisterMetrics(reg)
	e.SetEventLog(events)
	mux := telemetry.NewMux(reg, events)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	// Overdrive a small ring so drops and wasted work occur, scraping
	// concurrently with the producers.
	h := e.ProducerHandle(0)
	deadline := time.Now().Add(2 * time.Second)
	sent := 0
	for time.Now().Before(deadline) && sent < 20000 {
		offer(h, &Packet{FlowID: 0, Size: 64})
		sent++
		if sent%1000 == 0 {
			scrape(t, mux)
		}
	}
	// Quiesce: stop injecting and wait until every offered packet has an
	// outcome (shed at entry, delivered, or dropped at dpi's receive ring).
	// Until then the batch-flushed counters lag the in-flight packets and
	// the equalities below would race.
	settle(t, e, sent)
	vals := scrape(t, mux)

	for _, stage := range []string{
		`stage="fw",id="0",core="0"`,
		`stage="dpi",id="1",core="0"`,
	} {
		for _, metric := range []string{
			"dataplane_stage_processed_total",
			"dataplane_stage_wasted_total",
			"dataplane_stage_queue_drops_total",
			"dataplane_stage_queue_depth",
			"dataplane_stage_weight",
		} {
			key := metric + "{" + stage + "}"
			if _, ok := vals[key]; !ok {
				t.Errorf("scrape missing %s", key)
			}
		}
	}
	if vals[`dataplane_stage_processed_total{stage="fw",id="0",core="0"}`] == 0 {
		t.Error("fw processed nothing")
	}
	if vals["dataplane_delivered_total"] == 0 {
		t.Error("dataplane_delivered_total = 0")
	}
	if c := vals["dataplane_latency_nanoseconds_count"]; c == 0 {
		t.Error("latency histogram empty")
	}
	if vals["dataplane_latency_nanoseconds_count"] != vals["dataplane_delivered_total"] {
		t.Errorf("latency count %v != delivered %v",
			vals["dataplane_latency_nanoseconds_count"], vals["dataplane_delivered_total"])
	}

	// Per-mover shard telemetry: both TX shards own a stage here (stage i →
	// mover i mod 2), so both must expose counters and have swept.
	for _, shard := range []string{`mover="0"`, `mover="1"`} {
		for _, metric := range []string{
			"dataplane_mover_sweeps_total",
			"dataplane_mover_moved_total",
			"dataplane_mover_parks_total",
			"dataplane_mover_wakes_total",
			"dataplane_mover_park_ratio",
			"dataplane_mover_drain_per_sweep",
		} {
			key := metric + "{" + shard + "}"
			if _, ok := vals[key]; !ok {
				t.Errorf("scrape missing %s", key)
			}
		}
		if vals["dataplane_mover_sweeps_total{"+shard+"}"] == 0 {
			t.Errorf("mover %s never swept", shard)
		}
	}
	if vals[`dataplane_mover_moved_total{mover="0"}`]+
		vals[`dataplane_mover_moved_total{mover="1"}`] == 0 {
		t.Error("no packets moved through the sharded TX path")
	}

	// Engine-level accounting reconciles through the scrape: every packet
	// accepted into the chain was delivered or dropped at a mid-chain
	// receive ring.
	injected := vals["dataplane_injected_total"]
	if injected == 0 {
		t.Error("dataplane_injected_total = 0")
	}
	accounted := vals["dataplane_delivered_total"] +
		vals[`dataplane_stage_queue_drops_total{stage="dpi",id="1",core="0"}`]
	if injected != accounted {
		t.Errorf("scrape does not reconcile: injected %v != delivered+mid_drops %v",
			injected, accounted)
	}
}

// TestStageDropAndWastedCounters pins the attribution of the new per-stage
// counters: a packet that dies at the slow second stage's full receive ring
// is wasted work charged to the stage that processed it, and overdriving the
// small entry ring charges queue drops to the entry stage. HighFrac 1.0 puts
// the watermark at the ring's capacity, so a ring has to fill before its
// chain sheds, and two cheap entry stages feed the one slow stage, so every
// scheduling round offers it two batches for the one it drains: its ring
// overflows by construction, not by how a single CPU happens to interleave
// producer and pipeline. The entry rings overflow by construction too: a
// burst longer than the ring waits in the lane when Run starts, and the part
// of it that does not fit is dropped before the full ring can close its gate.
func TestStageDropAndWastedCounters(t *testing.T) {
	e := New(Config{RingSize: 16, BatchSize: 8, WeightPeriod: 0, HighFrac: 1.0, LowFrac: 0.5})
	a := e.AddStage("a", 1024, func(p *Packet) {})
	a2 := e.AddStage("a2", 1024, func(p *Packet) {})
	b := e.AddStage("b", 1024, func(p *Packet) { spin(20 * time.Microsecond) })
	for flow, entry := range []int{a, a2} {
		ch, err := e.AddChain(entry, b)
		if err != nil {
			t.Fatal(err)
		}
		e.MapFlow(flow, ch)
	}
	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg)
	h := e.ProducerHandle(64)
	for i := 0; i < 48; i++ {
		offer(h, &Packet{FlowID: i / 24, Size: 64})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)

	// Summed over the two entry stages: which of them loses the race for
	// b's last free slots is the mover's sweep order, not the point.
	stats := func() (wasted, qdrops uint64) {
		st := e.Stats()
		return st[a].Wasted + st[a2].Wasted, st[a].QueueDrops + st[a2].QueueDrops
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		offer(h, &Packet{FlowID: 0, Size: 64})
		offer(h, &Packet{FlowID: 1, Size: 64})
		if w, q := stats(); w > 0 && q > 0 {
			break
		}
		runtime.Gosched()
	}
	wasted, qdrops := stats()
	if wasted == 0 {
		t.Error("entry stages recorded no wasted work despite b's full receive ring")
	}
	if qdrops == 0 {
		t.Error("entry stages recorded no queue drops despite overdriven entry rings")
	}
	if st := e.Stats()[b]; st.Wasted != 0 {
		t.Errorf("wasted(b) = %d: nothing dies downstream of the last stage", st.Wasted)
	}

	// The same counters flow through the registry.
	vals := scrape(t, telemetry.NewMux(reg, nil))
	if vals[`dataplane_stage_wasted_total{stage="a",id="0",core="0"}`]+
		vals[`dataplane_stage_wasted_total{stage="a2",id="1",core="0"}`] == 0 {
		t.Error("dataplane_stage_wasted_total = 0 for both entry stages in scrape")
	}
}

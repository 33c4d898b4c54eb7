package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/flowtable"
)

// Span kinds, in the order a packet meets them. A span's parent is the kind
// before it.
const (
	spanFill   = iota // gen.fill: the generator writing the frame
	spanInject        // lane.inject: ProducerHandle.InjectBatch
	spanHop0          // handler.hop0, hop1, ...: one BatchHandler call
	maxHops    = 8
	spanSink   = spanHop0 + maxHops // sink: the SetSink callback, recycle included
)

func spanName(kind uint8) string {
	switch {
	case kind == spanFill:
		return "gen.fill"
	case kind == spanInject:
		return "lane.inject"
	case kind == spanSink:
		return "sink"
	default:
		return "handler.hop" + strconv.Itoa(int(kind)-spanHop0)
	}
}

// span is one interval of one sampled packet. Packets are named by class and
// sequence number, which every span of the packet shares.
type span struct {
	seq        uint64
	start, end int64 // ns since epoch
	class      uint8
	kind       uint8
	stage      uint16 // index into segTrace.stages for handler spans
}

// spanBuf is appended to by exactly one goroutine.
type spanBuf struct{ s []span }

func (b *spanBuf) add(class int, seq uint64, kind uint8, start, end int64) {
	b.s = append(b.s, span{seq: seq, start: start, end: end, class: uint8(class), kind: kind})
}

// stageTrace is what the wrapper around one stage's handler records. The
// stage's worker goroutine owns it while the engine runs.
type stageTrace struct {
	name   string
	victim bool
	spans  spanBuf
	calls  uint64
	pkts   uint64
}

// segTrace collects a traced segment: spans from the harness's own wrappers
// and the public snapshots taken at the window's start and end.
type segTrace struct {
	gen    *spanBuf // generator goroutine: gen.fill and lane.inject
	sink   *spanBuf // mover goroutine
	stages []*stageTrace
	table  *flowtable.Sharded // the workload's flow table, if it has one

	late        hist // how late the generator sent a packet (open loop)
	fillNanos   int64
	fillPkts    uint64
	injectNanos int64
	injectPkts  uint64

	nextSample int64
	nextPoll   int64
	depths     hist // receive-ring occupancy, every stage, 1 ms samples
	backlog    hist // lane backlog, every lane, 1 ms samples
	depthBuf   []int

	journalSeq uint64
	bpOn       uint64
	weights    uint64
	overshoot  hist

	// Readings at the window's start; the deltas go into out.
	movers0           []dataplane.MoverStats
	ledger0           dataplane.Ledger
	mem0              runtime.MemStats
	sched0            *metrics.Float64Histogram
	steal0            float64
	hits0, miss0, ev0 uint64
	window            float64

	out map[string]float64
}

func newSegTrace() *segTrace {
	return &segTrace{gen: &spanBuf{}, sink: &spanBuf{}, out: map[string]float64{}}
}

// wrap times every call of a stage's handler and records a span for each
// sampled packet in the batch.
func (t *segTrace) wrap(hop int, stage string, victim bool, h dataplane.BatchHandler) dataplane.BatchHandler {
	st := &stageTrace{name: stage, victim: victim}
	idx := uint16(len(t.stages))
	t.stages = append(t.stages, st)
	kind := uint8(spanHop0 + hop)
	return func(ps []*dataplane.Packet) {
		t0 := nowNanos()
		h(ps)
		t1 := nowNanos()
		st.calls++
		st.pkts += uint64(len(ps))
		for _, p := range ps {
			if m := frameMeta(p); m[metaFlags]&flagSampled != 0 {
				st.spans.s = append(st.spans.s, span{
					seq: binary.LittleEndian.Uint64(m[metaSeq:]), start: t0, end: t1,
					class: m[metaClass], kind: kind, stage: idx,
				})
			}
		}
	}
}

// filled records the generator's fill of one batch.
func (t *segTrace) filled(ps []*dataplane.Packet, t0, t1 int64) {
	t.fillNanos += t1 - t0
	t.fillPkts += uint64(len(ps))
	for _, p := range ps {
		if m := frameMeta(p); m[metaFlags]&flagSampled != 0 {
			t.gen.add(int(m[metaClass]), binary.LittleEndian.Uint64(m[metaSeq:]), spanFill, t0, t1)
		}
	}
}

// sample reads queue depths and lane backlogs once a millisecond inside the
// window, and the decision journal often enough that it cannot wrap unread.
func (t *segTrace) sample(g *generator, now int64) {
	if now < t.nextSample {
		return
	}
	t.nextSample = now + 1_000_000
	t.depthBuf = g.e.QueueDepths(t.depthBuf)
	for _, d := range t.depthBuf {
		t.depths.add(int64(d))
	}
	for _, c := range g.classes {
		t.backlog.add(int64(c.h.Len()))
	}
	if now >= t.nextPoll {
		t.nextPoll = now + 250_000_000
		t.pollJournal(g.e, true)
	}
}

// pollJournal counts the decisions appended since the last poll.
func (t *segTrace) pollJournal(e *dataplane.Engine, count bool) {
	j := e.Decisions()
	if j == nil {
		return
	}
	for _, d := range j.Tail(0) {
		if d.Seq <= t.journalSeq {
			continue
		}
		t.journalSeq = d.Seq
		if !count {
			continue
		}
		switch d.Kind {
		case dataplane.DecisionBPOn:
			t.bpOn++
			t.overshoot.add(int64(d.QueueDepth - d.HighWater))
		case dataplane.DecisionWeight:
			t.weights++
		}
	}
}

// open takes the public snapshots at the window's start and skips the
// decisions journaled before it.
func (t *segTrace) open(g *generator) {
	t.pollJournal(g.e, false)
	t.nextPoll = g.first.t + 250_000_000
	t.movers0 = g.e.MoverStats()
	t.ledger0 = g.e.LedgerSnapshot()
	t.sched0 = schedLatencies()
	t.steal0 = stealMillis()
	if t.table != nil {
		t.hits0, t.miss0, t.ev0 = t.table.Hits.Load(), t.table.Misses.Load(), t.table.Evictions.Load()
	}
	runtime.ReadMemStats(&t.mem0)
}

// finish takes the window's closing snapshots, while the engine still runs.
func (t *segTrace) finish(g *generator) {
	e := g.e
	t.pollJournal(e, true)
	t.window = float64(g.last.t-g.first.t) / 1e9
	w := t.window
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	delivered := float64(g.last.delivered - g.first.delivered)
	o := t.out
	o["runtime.gc_cycles"] = float64(mem.NumGC - t.mem0.NumGC)
	o["runtime.gc_pause_ms"] = float64(mem.PauseTotalNs-t.mem0.PauseTotalNs) / 1e6
	o["runtime.allocs_per_kpkt"] = ratio(float64(mem.Mallocs-t.mem0.Mallocs)*1000, delivered)
	o["runtime.sched_lat_p99_us"] = histDeltaQuantile(t.sched0, schedLatencies(), 0.99) * 1e6
	o["host.steal_ms"] = stealMillis() - t.steal0

	var sweeps, moved, parks, wakes, batch float64
	for i, m := range e.MoverStats() {
		m0 := t.movers0[i]
		sweeps += float64(m.Sweeps - m0.Sweeps)
		moved += float64(m.Moved - m0.Moved)
		parks += float64(m.Parks - m0.Parks)
		wakes += float64(m.Wakes - m0.Wakes)
		batch += float64(m.Batch)
	}
	o["dataplane.mover.pkts_per_sweep"] = ratio(moved, sweeps)
	o["dataplane.mover.parks_per_s"] = ratio(parks, w)
	o["dataplane.mover.wakes_per_s"] = ratio(wakes, w)
	o["dataplane.mover.batch"] = ratio(batch, float64(len(t.movers0)))

	l := e.LedgerSnapshot()
	l0 := t.ledger0
	offered := float64(l.Injected-l0.Injected) + float64(l.EntryDrops-l0.EntryDrops) +
		float64(l.RingDrops-l0.RingDrops) - float64(l.MidRingDrops-l0.MidRingDrops)
	o["dataplane.ledger.entry_drop_ratio"] = ratio(offered-float64(l.Injected-l0.Injected), offered)
	o["dataplane.ledger.midring_drop_ratio"] = ratio(float64(l.MidRingDrops-l0.MidRingDrops), offered)
	o["dataplane.ledger.nf_drop_ratio"] = ratio(float64(l.NFDrops-l0.NFDrops), offered)
	o["dataplane.control.throttle_events_per_s"] = ratio(float64(l.ThrottleEvents-l0.ThrottleEvents), w)
	o["dataplane.control.bp_on_per_s"] = ratio(float64(t.bpOn), w)
	o["dataplane.control.weight_updates_per_s"] = ratio(float64(t.weights), w)
	o["dataplane.control.bp_on_overshoot_p50"] = t.overshoot.quantile(0.5)

	if t.table != nil {
		hits := float64(t.table.Hits.Load() - t.hits0)
		miss := float64(t.table.Misses.Load() - t.miss0)
		o["flowtable.hit_ratio"] = ratio(hits, hits+miss)
		o["flowtable.evictions_per_kpkt"] = ratio(float64(t.table.Evictions.Load()-t.ev0)*1000, hits+miss)
	}

	o["dataplane.queue.depth_p50"] = t.depths.quantile(0.5)
	o["dataplane.queue.depth_p99"] = t.depths.quantile(0.99)
	o["dataplane.queue.depth_max"] = float64(t.depths.max)
	o["dataplane.lane.backlog_p99"] = t.backlog.quantile(0.99)
	o["dataplane.lane.inject_ns_per_pkt"] = ratio(float64(t.injectNanos), float64(t.injectPkts))
	o["gen.fill_ns_per_pkt"] = ratio(float64(t.fillNanos), float64(t.fillPkts))
	o["gen.late_p99_us"] = t.late.quantile(0.99) / 1e3
	o["gen.late_max_us"] = float64(t.late.max) / 1e3
}

// close runs after the engine has stopped and its goroutines' buffers are
// safe to read: it derives the waits from the spans and the remaining
// per-layer numbers from the final counters.
func (t *segTrace) close(g *generator, sink *sinkState, l dataplane.Ledger) {
	o := t.out
	w := t.window
	var offered, refused float64
	for _, c := range g.classes {
		offered += float64(c.offered)
		refused += float64(c.refused)
	}
	o["gen.offered_pps"] = ratio(offered, w)
	o["gen.refused_ratio"] = ratio(refused, offered+refused)
	o["dataplane.lane.refused"] = refused
	o["dataplane.ledger.residual"] = float64(l.Residual())

	var calls, pkts float64
	for _, st := range t.stages {
		calls += float64(st.calls)
		pkts += float64(st.pkts)
	}
	o["dataplane.sched.pkts_per_call"] = ratio(pkts, calls)
	var busy, victimBusy float64
	for i, s := range g.last.stats {
		d := float64(s.Busy - g.first.stats[i].Busy)
		busy += d
		if i < len(t.stages) && t.stages[i].victim {
			victimBusy += d
		}
	}
	o["dataplane.sched.handler_busy_share"] = ratio(busy/1e9, w)
	o["dataplane.sched.victim_busy_share"] = ratio(victimBusy, busy)

	o["sink.p99_us"] = sink.lat.quantile(0.99) / 1e3
	o["sink.p999_us"] = sink.lat.quantile(0.999) / 1e3
	o["sink.batch_mean"] = ratio(float64(sink.delivered()), float64(sink.calls))

	spans := t.allSpans()
	o["trace.spans"] = float64(len(spans))
	var entryWait, hopWait, exitWait, self hist
	forEachPacket(spans, func(ps []span) {
		var inject, sinkSpan *span
		var hops []*span
		for i := range ps {
			switch k := ps[i].kind; {
			case k == spanInject:
				inject = &ps[i]
			case k == spanSink:
				sinkSpan = &ps[i]
			case k >= spanHop0:
				hops = append(hops, &ps[i])
			}
		}
		if inject == nil || sinkSpan == nil || len(hops) == 0 {
			return // shed on the way: no complete journey to take apart
		}
		if inject.start < g.wStart || inject.start >= g.wEnd {
			return // warm-up or drain
		}
		entryWait.add(hops[0].start - inject.end)
		handler := int64(0)
		for i, h := range hops {
			handler += h.end - h.start
			if i > 0 {
				hopWait.add(h.start - hops[i-1].end)
			}
		}
		exitWait.add(sinkSpan.start - hops[len(hops)-1].end)
		self.add(sinkSpan.start - inject.end - handler)
	})
	o["dataplane.sched.entry_wait_p50_us"] = entryWait.quantile(0.5) / 1e3
	o["dataplane.sched.hop_wait_p50_us"] = hopWait.quantile(0.5) / 1e3
	o["dataplane.sched.hop_wait_p99_us"] = hopWait.quantile(0.99) / 1e3
	o["dataplane.mover.exit_wait_p50_us"] = exitWait.quantile(0.5) / 1e3
	o["dataplane.transit_self_p50_us"] = self.quantile(0.5) / 1e3
}

// allSpans merges every recorder's buffer, ordered by packet and then by the
// order a packet meets the spans.
func (t *segTrace) allSpans() []span {
	all := append([]span(nil), t.gen.s...)
	all = append(all, t.sink.s...)
	for _, st := range t.stages {
		all = append(all, st.spans.s...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.class != b.class {
			return a.class < b.class
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.kind < b.kind
	})
	return all
}

// maxFileSpans bounds the span file; the statistics use every span.
const maxFileSpans = 200_000

// forEachPacket calls fn with each packet's spans (sorted input).
func forEachPacket(spans []span, fn func([]span)) {
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].class == spans[i].class && spans[j].seq == spans[i].seq {
			j++
		}
		fn(spans[i:j])
		i = j
	}
}

// writeSpans writes the segment's spans (see writeSpanFile).
func (t *segTrace) writeSpans(path, workload string, classes []string) error {
	spans := t.allSpans()
	return writeSpanFile(path, workload, fmt.Sprintf("1 packet in %d", sampleEvery), spans, classes,
		func(s span) (name, stage string) {
			if s.kind >= spanHop0 && s.kind < spanSink {
				stage = t.stages[s.stage].name
			}
			return spanName(s.kind), stage
		})
}

// writeSpanFile writes spans, sorted by packet and then by kind, as one JSON
// document: a header naming the workload, and one object per span with the
// packet it belongs to, its name, its parent's name and its interval. At
// most maxFileSpans are written.
func writeSpanFile(path, workload, sampled string, spans []span, classes []string, nameOf func(span) (name, stage string)) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	total := len(spans)
	if len(spans) > maxFileSpans {
		spans = spans[:maxFileSpans]
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"clock\":\"ns since process start\",\"sampled\":%q,\"spans_recorded\":%d,\"spans\":[\n",
		workload, sampled, total)
	first := true
	forEachPacket(spans, func(ps []span) {
		parent := ""
		for _, s := range ps {
			if !first {
				w.WriteString(",\n")
			}
			first = false
			name, stage := nameOf(s)
			fmt.Fprintf(w, "{\"packet\":\"%s/%d\",\"name\":%q,\"parent\":%q,\"start_ns\":%d,\"end_ns\":%d",
				classes[s.class], s.seq, name, parent, s.start, s.end)
			if stage != "" {
				fmt.Fprintf(w, ",\"stage\":%q", stage)
			}
			w.WriteString("}")
			parent = name
		}
	})
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// schedLatencies reads the Go scheduler's goroutine run-queue latency
// histogram (cumulative since process start).
func schedLatencies() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	h := s[0].Value.Float64Histogram()
	return &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
}

// histDeltaQuantile is the q-quantile of the samples b has beyond a.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen > rank {
			return b.Buckets[i+1] // the bucket's upper edge
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// stealMillis is the time the hypervisor ran something else while this
// machine had work, from the first line of /proc/stat (0 where unreadable).
func stealMillis() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks * 10 // USER_HZ is 100 on Linux
}

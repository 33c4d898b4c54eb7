package dataplane

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nfvnice/internal/obs"
	"nfvnice/internal/telemetry"
)

// TestSamplerRateHonored pins the power-of-two sampling arithmetic: with
// shift s, exactly the packets whose sequence number is a multiple of 2^s
// get a span, regardless of how the stream is chopped into batches.
func TestSamplerRateHonored(t *testing.T) {
	e := New(Config{TraceSampleShift: 3}) // 1 in 8
	mk := func(n int) []*Packet {
		ps := make([]*Packet, n)
		for i := range ps {
			ps[i] = &Packet{}
		}
		return ps
	}
	var total, sampled int
	// Uneven batch sizes exercise the first-offset arithmetic across
	// batch boundaries.
	for _, n := range []int{1, 7, 8, 3, 64, 5, 100} {
		ps := mk(n)
		e.sampleBatch(ps, time.Now().UnixNano())
		for _, p := range ps {
			if p.span != nil {
				sampled++
				e.abortSpan(p)
			}
		}
		total += n
	}
	want := (total + 7) / 8 // seq 0, 8, 16, ... below total
	if sampled != want {
		t.Fatalf("sampled %d of %d packets at shift 3, want %d", sampled, total, want)
	}
	st := e.SpanStats()
	if st.Sampled != uint64(want) || st.Aborted != uint64(want) {
		t.Fatalf("counters: %+v, want sampled=aborted=%d", st, want)
	}
}

// TestSamplerDisabledNoStamps proves the recorder stays fully inert when
// TraceSampleShift is 0: no spans, no counters, nil recorder.
func TestSamplerDisabledNoStamps(t *testing.T) {
	e := New(Config{RingSize: 64})
	if e.rec != nil {
		t.Fatal("recorder allocated despite TraceSampleShift=0")
	}
	a := e.AddStage("a", 1024, func(p *Packet) {})
	ch, _ := e.AddChain(a)
	e.MapFlow(0, ch)
	var got atomic.Int32
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			if p.span != nil {
				t.Error("unsampled packet carries a span")
			}
			e.PutPacket(p)
		}
		got.Add(int32(len(ps)))
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go e.Run(ctx)
	h := e.ProducerHandle(0)
	for i := 0; i < 100; i++ {
		pace(e, i, 32) // half the ring: nothing is shed
		offer(h, &Packet{FlowID: 0})
	}
	waitFor(t, 5*time.Second, "delivery", func() bool { return got.Load() == 100 })
	if st := e.SpanStats(); st != (SpanStats{}) {
		t.Fatalf("disabled recorder counted spans: %+v", st)
	}
}

// TestSpanSlabRecycling drives far more sampled packets than there are span
// slabs through a running pipeline: the control loop's spool drain must
// recycle slabs fast enough that sampling keeps working (total sampled >>
// slab count) and the accounting closes (sampled == completed + aborted
// once quiesced).
func TestSpanSlabRecycling(t *testing.T) {
	e := New(Config{
		RingSize:         256,
		TraceSampleShift: 1, // 1 in 2
		TraceSpoolSize:   16,
	})
	a := e.AddStage("a", 1024, func(p *Packet) {})
	ch, _ := e.AddChain(a)
	e.MapFlow(0, ch)
	var got atomic.Int64
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
		got.Add(int64(len(ps)))
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	const n = 4000
	h := e.ProducerHandle(0)
	for sent := 0; sent < n; {
		p := e.GetPacket()
		p.FlowID = 0
		offer(h, p)
		sent++
		// Closed loop: never outrun the 16-slab recorder by more than the
		// ring; the point is recycling, not starvation.
		for int(got.Load()) < sent-64 {
			runtime.Gosched()
		}
	}
	waitFor(t, 5*time.Second, "delivery", func() bool { return int(got.Load()) == n })
	cancel()
	<-done

	st := e.SpanStats()
	if st.Sampled <= 16 {
		t.Fatalf("sampled only %d spans with 16 slabs — recycling is broken", st.Sampled)
	}
	if st.Sampled != st.Completed+st.Aborted {
		t.Fatalf("span accounting open after Run: %+v", st)
	}
	t.Logf("spans: %+v", st)
}

// TestSpanHopsChain3 is the tentpole e2e: a 3-stage chain sampled at 1/64
// must produce spans whose hop count equals the chain length, whose stage
// sequence matches the chain, and whose timestamps are monotonic through
// inject → (enter ≤ exit ≤ moved)×3 → deliver.
func TestSpanHopsChain3(t *testing.T) {
	e := New(Config{
		RingSize:         1024,
		TraceSampleShift: 6, // 1 in 64
	})
	a := e.AddStage("fw", 1024, func(p *Packet) {})
	b := e.AddStage("nat", 1024, func(p *Packet) {})
	c := e.AddStage("dpi", 1024, func(p *Packet) {})
	ch, err := e.AddChain(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)

	// The sink runs on the control goroutine and spans are recycled after
	// it returns: copy.
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	var spans []Span
	e.SetSpanSink(func(sp *Span) {
		<-mu
		spans = append(spans, *sp)
		mu <- struct{}{}
	})

	var got atomic.Int64
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
		got.Add(int64(len(ps)))
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	const n = 64 * 40
	h := e.ProducerHandle(0)
	cache := e.NewPacketCache(256)
	batch := make([]*Packet, 64)
	sent := 0
	for sent < n {
		for i := range batch {
			p := cache.Get()
			p.FlowID = 0
			batch[i] = p
		}
		sent += len(batch)
		for rem := batch; len(rem) > 0; rem = rem[h.InjectBatch(rem):] {
		}
		for int(got.Load()) < sent-512 {
			runtime.Gosched()
		}
	}
	waitFor(t, 5*time.Second, "all spans drained", func() bool {
		st := e.SpanStats()
		return st.Sampled > 0 && st.Sampled == st.Completed+st.Aborted
	})
	cancel()
	<-done

	<-mu
	defer func() { mu <- struct{}{} }()
	if len(spans) == 0 {
		t.Fatal("no spans reached the sink")
	}
	wantStages := []int32{int32(a), int32(b), int32(c)}
	for _, sp := range spans {
		if sp.N != 3 {
			t.Fatalf("span has %d hops, want 3 (chain length): %+v", sp.N, sp)
		}
		prev := sp.InjectNanos
		for h := 0; h < sp.N; h++ {
			hs := sp.Hops[h]
			if hs.Stage != wantStages[h] {
				t.Fatalf("hop %d ran stage %d, want %d", h, hs.Stage, wantStages[h])
			}
			if hs.EnterNanos < prev || hs.ExitNanos < hs.EnterNanos || hs.MovedNanos < hs.ExitNanos {
				t.Fatalf("hop %d timestamps not monotonic: prev=%d enter=%d exit=%d moved=%d",
					h, prev, hs.EnterNanos, hs.ExitNanos, hs.MovedNanos)
			}
			prev = hs.MovedNanos
		}
		if sp.DeliverNanos < prev {
			t.Fatalf("deliver %d precedes last move %d", sp.DeliverNanos, prev)
		}
	}
	t.Logf("verified %d spans, stats %+v", len(spans), e.SpanStats())
}

// TestBackpressureFlightRecorder is the acceptance scenario: a 3-stage chain
// with a slow tail under overload must (a) journal a bp_on decision naming
// the congested stage with its queue depth at or above the high watermark,
// and (b) stream sampled spans into a Chrome trace whose events include the
// congested stage's ring-wait slices.
func TestBackpressureFlightRecorder(t *testing.T) {
	e := New(Config{
		RingSize:           64,
		BatchSize:          8,
		HighFrac:           0.5,
		LowFrac:            0.25,
		TraceSampleShift:   1, // 1 in 2: plenty of spans despite shedding
		BackpressurePeriod: time.Millisecond,
		WeightPeriod:       0,
	})
	a := e.AddStage("fw", 1024, func(p *Packet) {})
	b := e.AddStage("nat", 1024, func(p *Packet) {})
	c := e.AddStage("slow", 1024, func(p *Packet) { spin(20 * time.Microsecond) })
	ch, err := e.AddChain(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(0, ch)

	var buf bytes.Buffer
	cw := obs.NewChromeWriter(&buf).SetUnit(obs.UnitNanos)
	e.SetSpanSink(e.SpanTraceSink(cw))
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	h := e.ProducerHandle(0)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e.ThrottleEvents.Load() > 0 && e.SpanStats().Completed > 10 {
			break
		}
		p := e.GetPacket()
		p.FlowID = 0
		offer(h, p)
	}
	cancel()
	<-done
	if e.ThrottleEvents.Load() == 0 {
		t.Fatal("never built enough backpressure to throttle")
	}

	// (a) The journal carries the throttle decision with its cause.
	var bpOn []Decision
	for _, d := range e.Decisions().Tail(0) {
		if d.Kind == DecisionBPOn {
			bpOn = append(bpOn, d)
		}
	}
	if len(bpOn) == 0 {
		t.Fatal("no bp_on decision journaled")
	}
	d := bpOn[0]
	if d.Chain != ch {
		t.Errorf("bp_on chain = %d, want %d", d.Chain, ch)
	}
	if d.Stage == "" {
		t.Error("bp_on decision names no stage")
	}
	if d.HighWater == 0 || d.QueueDepth < d.HighWater {
		t.Errorf("bp_on cause incoherent: qdepth=%d high_water=%d", d.QueueDepth, d.HighWater)
	}

	// (b) The Chrome trace holds sampled spans, including ring-wait slices.
	if err := cw.Close(); err != nil {
		t.Fatalf("chrome writer: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var service, rxwait int
	for _, ev := range events {
		name, _ := ev["name"].(string)
		switch {
		case strings.HasSuffix(name, ":rxwait"):
			rxwait++
		case name == "fw" || name == "nat" || name == "slow":
			service++
		}
	}
	if service == 0 {
		t.Fatal("trace has no stage service spans")
	}
	if rxwait == 0 {
		t.Fatal("trace has no ring-wait spans despite congestion")
	}
	t.Logf("journal bp_on=%d (first: stage=%s qdepth=%d/hw=%d); trace events=%d service=%d rxwait=%d",
		len(bpOn), d.Stage, d.QueueDepth, d.HighWater, len(events), service, rxwait)
}

// TestHopHistogramsRegistered checks the per-hop latency histograms fill
// from drained spans and expose through the registry scrape.
func TestHopHistogramsRegistered(t *testing.T) {
	e := New(Config{RingSize: 256, TraceSampleShift: 2})
	a := e.AddStage("a", 1024, func(p *Packet) {})
	b := e.AddStage("b", 1024, func(p *Packet) {})
	ch, _ := e.AddChain(a, b)
	e.MapFlow(0, ch)
	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg)
	var got atomic.Int64
	e.SetSink(func(ps []*Packet) {
		for _, p := range ps {
			e.PutPacket(p)
		}
		got.Add(int64(len(ps)))
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	h := e.ProducerHandle(0)
	for i := 0; i < 400; i++ {
		pace(e, i, 128) // below the watermark: all 400 must be delivered
		p := e.GetPacket()
		p.FlowID = 0
		offer(h, p)
	}
	waitFor(t, 5*time.Second, "delivery", func() bool { return got.Load() == 400 })
	waitFor(t, 5*time.Second, "spool drain", func() bool {
		st := e.SpanStats()
		return st.Sampled > 0 && st.Sampled == st.Completed+st.Aborted
	})
	cancel()
	<-done

	vals := scrape(t, telemetry.NewMux(reg, nil))
	for _, key := range []string{
		`dataplane_hop_service_nanoseconds_count{stage="a",id="0"}`,
		`dataplane_hop_wait_nanoseconds_count{stage="a",id="0"}`,
		`dataplane_hop_service_nanoseconds_count{stage="b",id="1"}`,
		`dataplane_spans_sampled_total`,
		`dataplane_spans_completed_total`,
	} {
		if vals[key] == 0 {
			t.Errorf("%s = 0 after sampled run", key)
		}
	}
}

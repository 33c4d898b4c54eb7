package dataplane

// The flight recorder's packet-span half: a power-of-two 1-in-N sampler
// stamps selected packets at inject and records per-hop wall-clock
// timestamps — stage enter (its grant dequeued it), stage exit (handler
// returned), move (handed on: published into the next stage's rx by the
// grant, or drained from the last stage's tx ring by a mover) — plus
// inject and delivery, into pooled fixed-size Span records.
//
// Cost model: the unsampled path stays zero-allocation and zero-atomic —
// when the recorder is disabled (Config.TraceSampleShift == 0) the only
// additions to the hot path are a nil pointer check per batch (lane drain,
// forward run, tx sweep) and a nil `span` field check per packet in the grant, all
// perfectly predicted; the allocation gate (TestSteadyStateZeroAllocs)
// holds. With sampling enabled, the sampler pays one atomic add per
// drained lane batch and sampled packets pay a handful of time.Now calls;
// spans are recycled through a lock-free freelist so the sampled path does
// not allocate either.
//
// Completed spans drain into a bounded MPMC spool. The control loop empties
// the spool off the hot path: each span feeds the per-hop latency
// histograms (dataplane_hop_{service,wait}_nanoseconds) and the optional
// SetSpanSink callback, then returns to the freelist. Spool overflow drops
// are counted, never blocked on.

import (
	"sync/atomic"
	"time"

	"nfvnice/internal/obs"
	"nfvnice/internal/ring"
	"nfvnice/internal/simtime"
)

// MaxSpanHops bounds the per-hop stamps one span can hold. Chains longer
// than this still flow normally; spans just stop stamping past the limit
// (Span.N stays below the chain length, which consumers can detect).
const MaxSpanHops = 16

// HopStamp is one stage visit of a sampled packet, in wall-clock unix
// nanoseconds. RingWait for hop h is EnterNanos - (previous hop's
// MovedNanos, or the span's InjectNanos for hop 0); service time is
// ExitNanos - EnterNanos; hand-off is MovedNanos - ExitNanos (at the last
// hop, the tx dwell before a mover picked the packet up).
type HopStamp struct {
	// Stage is the stage id (index into Engine.Stats).
	Stage int32
	// EnterNanos is when the stage's grant picked the packet up (handler
	// about to run); ExitNanos when the handler returned; MovedNanos when
	// it was handed on: published into the next stage's rx by the grant
	// that processed it, or, at the chain's last hop, drained from the
	// stage's tx ring by a mover.
	EnterNanos int64
	ExitNanos  int64
	MovedNanos int64
}

// Span is the recorded journey of one sampled packet. Spans handed to the
// SetSpanSink callback are recycled when the callback returns — copy, don't
// retain.
type Span struct {
	FlowID  int
	ChainID int
	// Seq is the sampler's packet sequence number at inject.
	Seq uint64
	// InjectNanos is the chain-entry timestamp; DeliverNanos is when the
	// packet reached the output boundary (the sink).
	InjectNanos  int64
	DeliverNanos int64
	// N is how many hops committed stamps (equals the chain length for a
	// fully traversed chain of ≤ MaxSpanHops stages).
	N    int
	Hops [MaxSpanHops]HopStamp
}

// reset clears a span for reuse without releasing the array.
func (sp *Span) reset() {
	*sp = Span{}
}

// stampEnter opens hop N: the stage's grant just dequeued the packet.
// The hop stays uncommitted until stampExit, so a handler that panics or
// drops mid-hop leaves no half-written stamp visible to consumers.
func (sp *Span) stampEnter(stageID int, now int64) {
	if sp.N >= MaxSpanHops {
		return
	}
	h := &sp.Hops[sp.N]
	h.Stage = int32(stageID)
	h.EnterNanos = now
	h.ExitNanos = 0
	h.MovedNanos = 0
}

// stampExit commits hop N: the handler returned.
func (sp *Span) stampExit(now int64) {
	if sp.N >= MaxSpanHops {
		return
	}
	sp.Hops[sp.N].ExitNanos = now
	sp.N++
}

// SpanStats is a snapshot of the flight recorder's span accounting.
// Sampled == Completed + Aborted + in-flight; after the pipeline quiesces
// the in-flight term is zero.
type SpanStats struct {
	// Sampled counts spans started at inject; Completed counts spans that
	// reached the output boundary; Aborted counts spans whose packet was
	// dropped mid-flight (shed, crashed, swept at shutdown).
	Sampled   uint64
	Completed uint64
	Aborted   uint64
	// Starved counts sampler hits skipped because every span slab was in
	// flight; SpoolDrops counts completed spans discarded at a full spool.
	// Both mean "raise Config.TraceSpoolSize", never blocking.
	Starved    uint64
	SpoolDrops uint64
}

// recorder is the engine's span machinery; nil when sampling is disabled.
type recorder struct {
	// mask selects 1-in-(mask+1) packets by sequence number (power of two).
	mask uint64
	// seq numbers every offered packet; one atomic add per drained batch.
	seq atomic.Uint64
	// free holds idle span slabs; spool holds completed spans awaiting the
	// control loop's drain.
	free  *ring.MPMC[*Span]
	spool *ring.MPMC[*Span]

	sampled    atomic.Uint64
	completed  atomic.Uint64
	aborted    atomic.Uint64
	starved    atomic.Uint64
	spoolDrops atomic.Uint64
}

// newRecorder builds the span pools: spoolSize slabs preallocated into the
// freelist and a spool of the same capacity.
func newRecorder(shift, spoolSize int) *recorder {
	r := &recorder{
		mask:  (uint64(1) << uint(shift)) - 1,
		free:  ring.NewMPMC[*Span](spoolSize),
		spool: ring.NewMPMC[*Span](spoolSize),
	}
	for i := 0; i < r.free.Cap(); i++ {
		r.free.Enqueue(&Span{})
	}
	return r
}

// SpanStats snapshots the recorder's counters (zero value when sampling is
// disabled).
func (e *Engine) SpanStats() SpanStats {
	r := e.rec
	if r == nil {
		return SpanStats{}
	}
	return SpanStats{
		Sampled:    r.sampled.Load(),
		Completed:  r.completed.Load(),
		Aborted:    r.aborted.Load(),
		Starved:    r.starved.Load(),
		SpoolDrops: r.spoolDrops.Load(),
	}
}

// SetSpanSink registers a callback receiving every completed span, invoked
// on the control goroutine during its spool drain. The span is recycled when
// the callback returns — copy what you need, do not retain the pointer. Must
// be called before Run. Combine with Engine.SpanTraceSink to stream spans as
// a Chrome trace.
func (e *Engine) SetSpanSink(fn func(*Span)) {
	if e.running.Load() {
		panic("dataplane: SetSpanSink after Run")
	}
	e.spanSink = fn
}

// startSpan attaches a fresh span to a sampled packet. Called with the
// packet still owned by the draining mover, before it is published to any
// ring (a packet out of a lane never carries one already: lanes reject
// before sampling, and every recycle path aborts an attached span).
func (e *Engine) startSpan(p *Packet, seq uint64, nowNanos int64) {
	r := e.rec
	sp, ok := r.free.Dequeue()
	if !ok {
		r.starved.Add(1)
		return
	}
	sp.reset()
	sp.FlowID = p.FlowID
	sp.Seq = seq
	sp.InjectNanos = nowNanos
	p.span = sp
	r.sampled.Add(1)
}

// sampleBatch numbers a whole drained lane batch with one atomic add and
// starts spans on the packets whose sequence numbers hit the 1-in-N
// boundary.
func (e *Engine) sampleBatch(ps []*Packet, nowNanos int64) {
	r := e.rec
	n := uint64(len(ps))
	base := r.seq.Add(n) - n
	step := r.mask + 1
	// First offset in [0,n) whose absolute sequence is a multiple of step.
	off := (step - base&r.mask) & r.mask
	for ; off < n; off += step {
		e.startSpan(ps[off], base+off, nowNanos)
	}
}

// abortSpan releases the span of a packet that died before delivery.
func (e *Engine) abortSpan(p *Packet) {
	sp := p.span
	p.span = nil
	if sp == nil || e.rec == nil {
		return
	}
	e.rec.aborted.Add(1)
	e.rec.free.Enqueue(sp)
}

// stampSpans is the hand-off pass over a batch leaving its stage — a run the
// grant is about to forward, or a tx batch a mover is about to deliver —
// gated on the recorder being enabled: stamp the move time of each sampled
// packet's last committed hop, and complete spans whose packet reached the
// end of its chain. The clock is read once per batch that actually carries
// a span.
func (e *Engine) stampSpans(ps []*Packet) {
	var tnow int64
	for _, p := range ps {
		sp := p.span
		if sp == nil {
			continue
		}
		if tnow == 0 {
			tnow = time.Now().UnixNano()
		}
		// Stamp the last committed hop's move time exactly once (a chain
		// longer than MaxSpanHops keeps being handed on after the span
		// stopped committing hops — don't overwrite the last record).
		if sp.N > 0 && sp.Hops[sp.N-1].MovedNanos == 0 {
			sp.Hops[sp.N-1].MovedNanos = tnow
		}
		if p.Hop >= len(e.chains[p.ChainID]) {
			e.completeSpan(p, tnow)
		}
	}
}

// completeSpan detaches and spools a span whose packet reached the output
// boundary.
func (e *Engine) completeSpan(p *Packet, nowNanos int64) {
	sp := p.span
	p.span = nil
	r := e.rec
	sp.DeliverNanos = nowNanos
	sp.ChainID = p.ChainID
	r.completed.Add(1)
	if !r.spool.Enqueue(sp) {
		r.spoolDrops.Add(1)
		r.free.Enqueue(sp)
	}
}

// drainSpool empties the completed-span spool on the control goroutine:
// feed the per-hop histograms and the span sink, then recycle. Returns how
// many spans were drained.
func (e *Engine) drainSpool() int {
	r := e.rec
	if r == nil {
		return 0
	}
	n := 0
	for {
		sp, ok := r.spool.Dequeue()
		if !ok {
			return n
		}
		e.observeSpan(sp)
		if e.spanSink != nil {
			e.spanSink(sp)
		}
		r.free.Enqueue(sp)
		n++
	}
}

// observeSpan feeds one completed span into the per-hop latency histograms
// (no-ops until RegisterMetrics created them).
func (e *Engine) observeSpan(sp *Span) {
	if e.hopService == nil {
		return
	}
	prev := sp.InjectNanos
	for h := 0; h < sp.N; h++ {
		st := &sp.Hops[h]
		id := int(st.Stage)
		if id < 0 || id >= len(e.hopService) {
			continue
		}
		if wait := st.EnterNanos - prev; wait >= 0 {
			e.hopWait[id].Observe(uint64(wait))
		}
		if svc := st.ExitNanos - st.EnterNanos; svc >= 0 {
			e.hopService[id].Observe(uint64(svc))
		}
		prev = st.MovedNanos
	}
}

// SpanTraceSink adapts an obs sink (an obs.ChromeWriter) into a
// span sink for SetSpanSink: each hop becomes a "service" slice on the
// stage's lane preceded by an "rxwait" slice covering the packet's ring
// wait, so a congested stage shows as inflated rxwait ahead of it. The obs
// sink must be configured for wall-clock nanoseconds (obs.UnitNanos);
// timestamps are passed as nanos cast to the sink's tick type.
//
//	cw := obs.NewChromeWriter(f).SetUnit(obs.UnitNanos)
//	e.SetSpanSink(e.SpanTraceSink(cw))
func (e *Engine) SpanTraceSink(sink obs.Sink) func(*Span) {
	return func(sp *Span) {
		prev := sp.InjectNanos
		for h := 0; h < sp.N; h++ {
			st := sp.Hops[h]
			name := "stage"
			if id := int(st.Stage); id >= 0 && id < len(e.stages) {
				name = e.stages[id].name
			}
			if st.EnterNanos > prev {
				sink.RunSpan(int(st.Stage), name+":rxwait",
					simtime.Cycles(prev), simtime.Cycles(st.EnterNanos))
			}
			sink.RunSpan(int(st.Stage), name,
				simtime.Cycles(st.EnterNanos), simtime.Cycles(st.ExitNanos))
			prev = st.MovedNanos
		}
		sink.Instant("deliver", simtime.Cycles(sp.DeliverNanos), map[string]any{
			"flow": sp.FlowID, "chain": sp.ChainID, "seq": sp.Seq,
		})
	}
}

package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"nfvnice/internal/dataplane"
)

// Every frame the harness injects ends in a metaLen-byte trailer — past the
// IP datagram on real-NF frames, so parsers ignore it — that carries what the
// sink needs to time and check the packet. Nothing rides in Packet.Userdata.
const (
	metaLen = 32

	metaStamp   = 0  // int64: due time (open loop) or inject time (closed loop), ns since epoch
	metaSeq     = 8  // uint64: sequence number within the class
	metaFlowSeq = 16 // uint64: sequence number within the flow, from 1
	metaFlow    = 24 // uint32: flow index within the class
	metaClass   = 28 // uint8: traffic class index
	metaFlags   = 29 // uint8: flagSampled | flagVerify

	flagSampled = 1 // record spans for this packet (traced runs, 1 in sampleEvery)
	flagVerify  = 2 // the sink decodes and verifies this frame (1 in sampleEvery)

	sampleEvery = 256
	genBatch    = 64
	openTick    = 100 * time.Microsecond // between two sends of the open-loop generator
	warmDur     = time.Second            // traffic before the measured window opens
	sloNanos    = 5_000_000              // latency limit for slo_ok_ratio: 5 ms
	maxClasses  = 4                      // traffic classes a workload may have
)

var epoch = time.Now()

func nowNanos() int64 { return int64(time.Since(epoch)) }

func frameMeta(p *dataplane.Packet) []byte { return p.Frame[len(p.Frame)-metaLen:] }

// source produces the frames of one traffic class from the seed.
type source interface {
	// flows is the number of flow indices fill may return.
	flows() int
	// fill writes packet number seq of the class into p (Frame with room for
	// the trailer, FlowID, Size) and returns its flow index.
	fill(p *dataplane.Packet, seq uint64) uint32
}

// class is one kind of traffic: one source, one producer lane.
type class struct {
	name string
	// rate is the offered load in packets per second (open loop only).
	rate float64
	// victim marks traffic the workload promises to deliver: it is counted
	// in attempted/failed and its latency is measured. Non-victim traffic is
	// an aggressor the engine is expected to shed.
	victim bool
	src    source
	// verify, when set, checks a delivered frame (payload, NAT rewrite).
	verify func(frame []byte) error
}

// liveSpec describes one live-engine workload.
type liveSpec struct {
	cfg dataplane.Config
	// inflight > 0 selects a closed loop with that many packets in flight;
	// otherwise the classes' rates drive an open loop.
	inflight int
	// spin makes the open-loop generator busy-wait between ticks instead of
	// sleeping (see runOpen for what each costs and which workload needs which).
	spin bool
	// build registers stages and chains on e, wrapping each handler with
	// wrap, and returns the traffic classes (inputs generated from seed).
	build func(e *dataplane.Engine, seed int64, wrap wrapFunc) traffic
}

// wrapFunc decorates the handler of the hop-th stage of a chain; the
// untraced run uses the identity.
type wrapFunc func(hop int, stage string, victim bool, h dataplane.BatchHandler) dataplane.BatchHandler

// reading is what the generator reads at an edge of the measured window.
type reading struct {
	t         int64 // ns since epoch
	delivered uint64
	cpu       int64 // process user+system CPU, ns
	genCPU    int64 // the generator's own thread (spinning open loop only), ns
	stats     []dataplane.StageStats
}

// segment is what one set-up plus one measured window produced.
type segment struct {
	setupSec    float64
	first, last reading
	lat         *hist  // victim latency, packets stamped inside the window
	sloOK       uint64 // of them, those inside the latency limit

	offered, delivered             uint64 // all classes, stamped inside the window
	victimOffered, victimDelivered uint64
	processed, wasted              uint64 // Σ over stages, window delta
	errs                           []string

	classNames []string
	ledger     dataplane.Ledger // whole run, warm-up and drain included
	shed       []string         // per stage: packets offered to it but not processed
	tr         *segTrace        // traced runs only
}

// sinkState is owned by the mover goroutine that calls the sink (Movers is 1
// in every workload); the generator reads received while the engine runs and
// the rest after Run has returned.
type sinkState struct {
	e        *dataplane.Engine
	classes  []class
	received []atomic.Uint64 // per class: packets the sink has seen
	// wStart/wEnd bound the measured window; the generator stores them
	// before it offers the first packet.
	wStart, wEnd atomic.Int64

	lastSeq    [][]uint64 // per class, per flow: last flowSeq delivered
	windowDel  []uint64   // per class: delivered packets stamped inside the window
	lat        hist
	sloOK      uint64
	calls      uint64
	orderErrs  uint64
	verifyErrs uint64
	firstErr   string
	spans      *spanBuf // nil unless traced
}

func (s *sinkState) deliver(ps []*dataplane.Packet) {
	now := nowNanos()
	ws, we := s.wStart.Load(), s.wEnd.Load()
	mark := 0
	if s.spans != nil {
		mark = len(s.spans.s)
	}
	var seen [maxClasses]uint64
	for _, p := range ps {
		m := frameMeta(p)
		stamp := int64(binary.LittleEndian.Uint64(m[metaStamp:]))
		ci := int(m[metaClass])
		c := &s.classes[ci]
		seen[ci]++
		flow := binary.LittleEndian.Uint32(m[metaFlow:])
		fseq := binary.LittleEndian.Uint64(m[metaFlowSeq:])
		if last := s.lastSeq[ci][flow]; fseq <= last {
			s.orderErrs++
			if s.firstErr == "" {
				s.firstErr = fmt.Sprintf("class %s flow %d: sequence %d after %d", c.name, flow, fseq, last)
			}
		}
		s.lastSeq[ci][flow] = fseq
		if stamp >= ws && stamp < we {
			s.windowDel[ci]++
			if c.victim {
				lat := now - stamp
				s.lat.add(lat)
				if lat <= sloNanos {
					s.sloOK++
				}
			}
		}
		flags := m[metaFlags]
		if flags&flagVerify != 0 && c.verify != nil {
			if err := c.verify(p.Frame); err != nil {
				s.verifyErrs++
				if s.firstErr == "" {
					s.firstErr = fmt.Sprintf("class %s seq %d: %v", c.name, binary.LittleEndian.Uint64(m[metaSeq:]), err)
				}
			}
		}
		if s.spans != nil && flags&flagSampled != 0 {
			s.spans.add(ci, binary.LittleEndian.Uint64(m[metaSeq:]), spanSink, now, now)
		}
	}
	s.calls++
	s.e.PutPacketBatch(ps)
	if s.spans != nil && len(s.spans.s) > mark {
		// The sink span covers the whole callback, recycle included.
		end := nowNanos()
		for i := mark; i < len(s.spans.s); i++ {
			s.spans.s[i].end = end
		}
	}
	for ci := range s.received {
		if seen[ci] > 0 {
			s.received[ci].Add(seen[ci])
		}
	}
}

// delivered is how many packets the sink has seen so far, all classes.
func (s *sinkState) delivered() uint64 {
	var n uint64
	for i := range s.received {
		n += s.received[i].Load()
	}
	return n
}

// genClass is the generator's state for one class.
type genClass struct {
	class
	h       *dataplane.ProducerHandle
	seq     uint64
	flowSeq []uint64
	// pending holds filled victim packets a full lane refused; they go
	// first on the next attempt, so a victim is late, never lost.
	pending []*dataplane.Packet
	batch   []*dataplane.Packet

	accepted uint64 // into the lane, whole run
	offered  uint64 // stamped inside the window
	refused  uint64
}

// sampledPkt is a span-sampled packet's place in a batch and its sequence number.
type sampledPkt struct {
	index int
	seq   uint64
}

// generator is the single goroutine that offers all traffic.
type generator struct {
	e       *dataplane.Engine
	cache   *dataplane.PacketCache
	classes []*genClass
	sink    *sinkState
	traced  bool
	tr      *segTrace
	sampled []sampledPkt // scratch of inject
	start   int64        // when the open loop's schedule began
	wStart  int64
	wEnd    int64
	// ownThread is set while the generator is locked to an OS thread whose
	// CPU time the readings take (spinning open loop).
	ownThread   bool
	first, last reading
	// window caps how many packets of an open-loop victim class may be
	// inside the engine at once: half a ring (see runOpen).
	window uint64
}

// next fills and stamps the next packet of class ci.
func (g *generator) next(ci int, stamp int64) *dataplane.Packet {
	c := g.classes[ci]
	p := g.cache.Get()
	flow := c.src.fill(p, c.seq)
	c.flowSeq[flow]++
	m := frameMeta(p)
	binary.LittleEndian.PutUint64(m[metaStamp:], uint64(stamp))
	binary.LittleEndian.PutUint64(m[metaSeq:], c.seq)
	binary.LittleEndian.PutUint64(m[metaFlowSeq:], c.flowSeq[flow])
	binary.LittleEndian.PutUint32(m[metaFlow:], flow)
	m[metaClass] = byte(ci)
	var flags byte
	if c.seq%sampleEvery == 0 {
		flags = flagVerify
		if g.traced {
			flags |= flagSampled
		}
	}
	m[metaFlags] = flags
	c.seq++
	if stamp >= g.wStart && stamp < g.wEnd {
		c.offered++
	}
	return p
}

// fill makes b the class's next packets. A class with a rate stamps each with
// the time it was due, counted from the open loop's start; a closed loop
// stamps them with now.
func (g *generator) fill(ci int, b []*dataplane.Packet, now int64) {
	c := g.classes[ci]
	var f0 int64
	if g.traced {
		f0 = nowNanos()
	}
	for i := range b {
		stamp := now
		if c.rate > 0 {
			stamp = g.start + int64(float64(c.seq)/c.rate*1e9)
			if g.traced {
				g.tr.late.add(now - stamp)
			}
		}
		b[i] = g.next(ci, stamp)
	}
	if g.traced {
		g.tr.filled(b, f0, nowNanos())
	}
}

// inject offers ps through the class's lane and returns how many it took.
func (g *generator) inject(ci int, ps []*dataplane.Packet) int {
	c := g.classes[ci]
	if !g.traced {
		n := c.h.InjectBatch(ps)
		c.accepted += uint64(n)
		return n
	}
	// Note the sampled packets first: once the lane has a packet it is the
	// engine's, and may be delivered and recycled before this function returns.
	g.sampled = g.sampled[:0]
	for i, p := range ps {
		if m := frameMeta(p); m[metaFlags]&flagSampled != 0 {
			g.sampled = append(g.sampled, sampledPkt{i, binary.LittleEndian.Uint64(m[metaSeq:])})
		}
	}
	t0 := nowNanos()
	n := c.h.InjectBatch(ps)
	t1 := nowNanos()
	c.accepted += uint64(n)
	g.tr.injectNanos += t1 - t0
	g.tr.injectPkts += uint64(n)
	for _, sp := range g.sampled {
		if sp.index < n {
			g.tr.gen.add(ci, sp.seq, spanInject, t0, t1)
		}
	}
	return n
}

// setWindow fixes the measured window and publishes it to the sink.
func (g *generator) setWindow(start int64, seconds float64) {
	g.wStart = start
	g.wEnd = start + int64(seconds*1e9)
	g.sink.wEnd.Store(g.wEnd)
	g.sink.wStart.Store(g.wStart)
}

// read takes a reading of the counters the window's rates are made of.
func (g *generator) read(now int64) reading {
	r := reading{t: now, delivered: g.sink.delivered(), cpu: cpuNanos(), stats: g.e.Stats()}
	if g.ownThread {
		r.genCPU = threadCPUNanos()
	}
	return r
}

// tick runs once per iteration of the generator's loop: it takes the first
// reading when the window opens, and lets a traced run sample while it lasts.
func (g *generator) tick(now int64) {
	if now < g.wStart {
		return
	}
	if g.first.t == 0 {
		g.first = g.read(now)
		if g.traced {
			g.tr.open(g)
		}
	}
	if g.traced {
		g.tr.sample(g, now)
	}
}

// runClosed keeps inflight packets between lane and sink: warm long, then
// for the length of the window. It returns when the window opened.
func (g *generator) runClosed(inflight int, warm time.Duration, seconds float64) int64 {
	c := g.classes[0]
	g.setWindow(nowNanos()+int64(warm), seconds)
	var sent uint64
	for {
		now := nowNanos()
		g.tick(now)
		if now >= g.wEnd {
			g.last = g.read(now)
			return g.wStart
		}
		recv := g.sink.received[0].Load()
		if len(c.pending) == 0 && sent-recv >= uint64(inflight) {
			runtime.Gosched()
			continue
		}
		if len(c.pending) == 0 {
			g.fill(0, c.batch, now)
			c.pending = c.batch
		}
		n := g.inject(0, c.pending)
		sent += uint64(n)
		c.pending = c.pending[n:]
		if len(c.pending) > 0 {
			runtime.Gosched()
		}
	}
}

// runOpen offers every class at its fixed rate: every tick it sends what
// has come due, each packet stamped with the time it was due. It returns when
// the window opened. Between ticks it sleeps or, with spin, busy-waits;
// neither serves both open-loop workloads.
//
// A sleeping generator wakes on the kernel's timer tick (1.1 ms on the
// sandbox's kernel, whatever the sleep asked for), the same tick the engine's
// idle scheduler wakes on. Under overload that only makes the load bursty. At
// 8 % load latency then depends on which of the two wakes first: three 8 s
// runs of paced_200k gave medians of 0.85, 1.40 and 2.01 ms. Spinning spreads
// the arrivals evenly over the tick (0.372, 0.377, 0.382 ms).
//
// A spinning generator owns one of the two Ps. An idle engine does not miss
// it; an overloaded one does — its worker and mover then share one P and
// change places at the Go scheduler's 10 ms preemption: overload_isolation's
// victims waited 0.6 s at the median, against 0.22 ms with the generator
// asleep.
//
// The spinning costs a core's worth of CPU, which is the harness's own: the
// generator locks itself to an OS thread and the readings take that thread's
// CPU time, so cpu_ns_per_pkt leaves it out.
//
// After a stall the generator catches up at no more than four times the rate,
// and a victim class never has more than window packets inside the engine —
// lanes, rings and handlers together; the sink reports what has come out. A
// ring holds twice the window, so whichever goroutine of the engine is being
// stalled, the victims' packets wait in the generator and go out late, timed
// from when they were due, instead of overflowing a ring: late, never lost,
// the way a sender that honours backpressure behaves.
func (g *generator) runOpen(spin bool, warm time.Duration, seconds float64) int64 {
	if spin {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		g.ownThread = true
	}
	start := nowNanos()
	g.start = start
	g.setWindow(start+int64(warm), seconds)
	last := start
	for {
		if !spin {
			time.Sleep(openTick)
		}
		now := nowNanos()
		for now-last < int64(openTick) {
			now = nowNanos()
		}
		g.tick(now)
		if now >= g.wEnd {
			g.last = g.read(now)
			return g.wStart
		}
		dt := float64(now-last) / 1e9
		last = now
		for ci, c := range g.classes {
			room := g.window
			if c.victim {
				if inside := c.accepted + uint64(len(c.pending)) - g.sink.received[ci].Load(); inside < g.window {
					room = g.window - inside
				} else {
					continue
				}
			}
			if len(c.pending) > 0 {
				n := g.inject(ci, c.pending)
				c.pending = c.pending[n:]
				if len(c.pending) > 0 {
					continue
				}
			}
			due := uint64(float64(now-start) / 1e9 * c.rate)
			allow := uint64(4 * c.rate * dt)
			if allow < 32 {
				allow = 32
			}
			if c.victim && allow > room {
				allow = room
			}
			todo := due - c.seq
			if due < c.seq {
				todo = 0
			}
			if todo > allow {
				todo = allow
			}
			for todo > 0 {
				k := int(todo)
				if k > genBatch {
					k = genBatch
				}
				b := c.batch[:k]
				g.fill(ci, b, now)
				todo -= uint64(k)
				n := g.inject(ci, b)
				if n == k {
					continue
				}
				if c.victim {
					c.pending = append(c.pending[:0], b[n:]...)
				} else {
					c.refused += uint64(k - n)
					for _, p := range b[n:] {
						g.cache.Put(p)
					}
				}
				break
			}
		}
	}
}

// runSegment sets the workload up once — inputs from the seed, the engine,
// its lanes, warm long of traffic — measures one window of the given length
// and checks what came out. setupStart is when the set-up began.
func runSegment(spec *liveSpec, seed int64, warm time.Duration, seconds float64, traced bool, setupStart int64) *segment {
	seg := &segment{}
	var tr *segTrace
	wrap := wrapFunc(func(_ int, _ string, _ bool, h dataplane.BatchHandler) dataplane.BatchHandler { return h })
	if traced {
		tr = newSegTrace()
		wrap = tr.wrap
		seg.tr = tr
	}
	e := dataplane.New(spec.cfg)
	tf := spec.build(e, seed, wrap)
	classes := tf.classes
	if traced {
		tr.table = tf.table
	}

	sink := &sinkState{e: e, classes: classes}
	sink.windowDel = make([]uint64, len(classes))
	sink.received = make([]atomic.Uint64, len(classes))
	if traced {
		sink.spans = tr.sink
	}
	g := &generator{e: e, sink: sink, traced: traced, tr: tr, window: uint64(spec.cfg.RingSize / 2)}
	for _, c := range classes {
		seg.classNames = append(seg.classNames, c.name)
		sink.lastSeq = append(sink.lastSeq, make([]uint64, c.src.flows()))
		g.classes = append(g.classes, &genClass{
			class:   c,
			flowSeq: make([]uint64, c.src.flows()),
			batch:   make([]*dataplane.Packet, genBatch),
		})
	}
	e.SetSink(sink.deliver)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		e.Run(ctx)
		close(done)
	}()
	g.cache = e.NewPacketCache(4 * genBatch)
	for _, c := range g.classes {
		c.h = e.ProducerHandle(0)
	}
	var opened int64
	if spec.inflight > 0 {
		opened = g.runClosed(spec.inflight, warm, seconds)
	} else {
		opened = g.runOpen(spec.spin, warm, seconds)
	}
	seg.setupSec = float64(opened-setupStart) / 1e9
	if traced {
		tr.finish(g)
	}

	// Let everything in flight settle, then stop the engine and close the books.
	for _, c := range g.classes {
		deadline := time.Now().Add(2 * time.Second)
		for len(c.pending) > 0 && time.Now().Before(deadline) {
			n := c.h.InjectBatch(c.pending)
			c.accepted += uint64(n)
			c.pending = c.pending[n:]
			runtime.Gosched()
		}
	}
	waitQuiet(e, g)
	cancel()
	<-done

	seg.check(e, g, sink)
	return seg
}

// waitQuiet waits (at most two seconds) until the lanes are empty and the
// ledger shows nothing in flight.
func waitQuiet(e *dataplane.Engine, g *generator) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		quiet := e.LedgerSnapshot().Residual() == 0
		for _, c := range g.classes {
			if c.h.Len() > 0 {
				quiet = false
			}
		}
		if quiet {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// check closes the books after the engine has stopped: conservation inside
// the engine, conservation between generator and engine, ordering and frame
// checks from the sink. It also folds the counters into the segment.
func (seg *segment) check(e *dataplane.Engine, g *generator, sink *sinkState) {
	fail := func(format string, a ...any) { seg.errs = append(seg.errs, fmt.Sprintf(format, a...)) }
	l := e.LedgerSnapshot()
	if r := l.Residual(); r != 0 {
		fail("ledger residual %d after drain: %+v", r, l)
	}
	var accepted uint64
	for ci, c := range g.classes {
		accepted += c.accepted
		if len(c.pending) > 0 {
			fail("class %s: %d packets never fitted into the lane", c.name, len(c.pending))
		}
		seg.offered += c.offered
		seg.delivered += sink.windowDel[ci]
		if c.victim {
			seg.victimOffered += c.offered
			seg.victimDelivered += sink.windowDel[ci]
		}
	}
	preAccept := l.EntryDrops + l.FaultEntryDrops + l.LateDrops + (l.RingDrops - l.MidRingDrops)
	if accepted != l.Injected+preAccept {
		fail("lanes accepted %d packets, engine accounts for %d injected + %d shed before acceptance", accepted, l.Injected, preAccept)
	}
	if got := sink.delivered(); got != l.Delivered {
		fail("sink saw %d packets, ledger says %d delivered", got, l.Delivered)
	}
	if sink.orderErrs > 0 || sink.verifyErrs > 0 {
		fail("%d packets out of order, %d frames failed verification; first: %s", sink.orderErrs, sink.verifyErrs, sink.firstErr)
	}
	seg.first, seg.last = g.first, g.last
	seg.lat, seg.sloOK = &sink.lat, sink.sloOK
	for i, s := range g.last.stats {
		s0 := g.first.stats[i]
		seg.processed += s.Processed - s0.Processed
		seg.wasted += s.Wasted - s0.Wasted
	}
	seg.ledger = l
	for _, st := range e.Stats() {
		if shed := st.Arrivals - st.Processed; shed > 0 {
			seg.shed = append(seg.shed, fmt.Sprintf("%s %d (ring full %d)", st.Name, shed, st.QueueDrops))
		}
	}
	if seg.tr != nil {
		seg.tr.close(g, sink, l)
	}
}

// goodput is the delivery rate over the segment's window.
func (seg *segment) goodput() float64 {
	return ratio(float64(seg.last.delivered-seg.first.delivered), float64(seg.last.t-seg.first.t)/1e9)
}

// runLive measures a live-engine workload: one set-up, one window. A traced
// run sets up twice: a plain window of a third of the time, for the overhead
// ratio, then the traced one.
func runLive(o options, spec *liveSpec) (*result, error) {
	warm := warmDur
	if o.quick {
		warm /= 20
	}
	res := newResult()
	measure := func(seconds float64, traced bool, setupStart int64) *segment {
		seg := runSegment(spec, o.seed, warm, seconds, traced, setupStart)
		for _, e := range seg.errs {
			res.fail("%s", e)
		}
		return seg
	}
	if !o.trace {
		foldLive(res, measure(o.seconds, false, o.began))
		return res, nil
	}

	plain := measure(o.seconds/3, false, o.began)
	runtime.GC() // drop the plain segment's arena
	traced := measure(o.seconds*2/3, true, nowNanos())
	foldLive(res, plain)
	for k, v := range traced.tr.out {
		res.layer[k] = v
	}
	for k, v := range isolatedCalls(o.seed, o.quick) {
		res.layer[k] = v
	}
	res.layer["trace.overhead_ratio"] = ratio(plain.goodput(), traced.goodput())
	path := filepath.Join(o.outDir, "trace-"+o.workload+".json")
	if err := traced.tr.writeSpans(path, o.workload, traced.classNames); err != nil {
		return nil, fmt.Errorf("write span file: %w", err)
	}
	res.note("spans written to %s", path)
	return res, nil
}

// foldLive turns a segment's window into the end-to-end metrics: every one
// of them counts the whole window.
func foldLive(res *result, seg *segment) {
	delivered := float64(seg.last.delivered - seg.first.delivered)
	cpu := float64(seg.last.cpu-seg.first.cpu) - float64(seg.last.genCPU-seg.first.genCPU)
	res.e2e["goodput_pps"] = seg.goodput()
	res.e2e["delivered_ratio"] = ratio(float64(seg.delivered), float64(seg.offered))
	res.e2e["victim_delivered_ratio"] = ratio(float64(seg.victimDelivered), float64(seg.victimOffered))
	res.e2e["useful_work_ratio"] = 1 - ratio(float64(seg.wasted), float64(seg.processed))
	res.e2e["slo_ok_ratio"] = ratio(float64(seg.sloOK), float64(seg.victimOffered))
	res.e2e["peak_rss_mb"] = peakRSSMB()
	res.e2e["setup_s"] = seg.setupSec
	// Latency quantiles and CPU cost are measured on every run but held to
	// no bound (README.md, "End-to-end metrics").
	res.layer["sink.p50_us"] = seg.lat.quantile(0.5) / 1e3
	res.layer["sink.p90_us"] = seg.lat.quantile(0.9) / 1e3
	res.layer["process.cpu_ns_per_pkt"] = ratio(cpu, delivered)
	res.attempted = seg.victimOffered
	res.failed = seg.victimOffered - seg.victimDelivered
	res.note("ledger %+v", seg.ledger)
	if len(seg.shed) > 0 {
		res.note("offered but not processed, by stage: %s", strings.Join(seg.shed, ", "))
	}
	res.note("window %.3f s, %d latency samples; offered %d delivered %d",
		float64(seg.last.t-seg.first.t)/1e9, seg.lat.n, seg.offered, seg.delivered)
}

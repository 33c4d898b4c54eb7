// Package dataplane is a real (non-simulated) concurrent service-chain
// runtime running NFVnice's control algorithms with goroutines: stages
// (NFs) connected by lock-free rings, a weighted-fair cooperative scheduler
// standing in for cgroup-weighted CFS, watermark backpressure with
// chain-entry shedding, and yield flags checked at batch boundaries.
//
// Where the simulator (the rest of this repository) reproduces the paper's
// evaluation against faithful kernel-scheduler models, this package shows
// the same control plane working against wall-clock time: rate-cost
// proportional weights equalize throughput of unequal-cost stages, and
// backpressure sheds load at chain entries instead of wasting work. It is
// literally the same control plane: the backpressure decisions are
// internal/bp's Controller and the weights internal/core's Shares over
// internal/stats' median window, the code the simulator validates against
// the paper; this package only gathers their inputs from live rings and
// counters and applies their outputs to atomics.
//
// The steady-state hot path is allocation-free and batch-amortized, the
// regime the paper's ≤32-packet grant quantum targets: packet descriptors
// come from a per-engine freelist and are recycled on drop and on delivery
// (by the Sink, or by the engine itself when none is set); every producer
// owns a private single-producer inject lane (lanes.go), so producers never
// contend with each other or with movers; stage receive rings are
// rte_ring-style multi-producer rings (one CAS reservation and one publish
// per batch) so movers and core loops never take a lock;
// core loops, movers and producers move packets with bulk ring operations that
// publish once per batch; and per-packet wall-clock reads are replaced by a
// coarse engine clock sampled once per grant and once per moved or drained
// batch, so end-to-end latency is accurate to within one batch quantum.
//
// Threading model: user code offers packets through one ProducerHandle per
// producer goroutine — the engine's only ingress — and the lane's owning
// mover routes them into chain entries. Each core is one goroutine, the
// core loop (sched.go), that picks its stage with the smallest WFQ pass and
// runs the grant itself, handler included, so stage execution on a core is
// serialized (the shared-CPU-core regime the paper studies) with no
// goroutine hand-off per grant; an idle core loop parks until an enqueuer
// into one of its stages' rings wakes it, libnf's semaphore wait. Hops run
// to completion: the grant that processed a batch publishes its survivors
// straight into the next stage's receive ring (forward), so the paper's
// manager TX threads map to Config.Movers mover goroutines (mover.go) that
// keep only the chain's ingress — the lanes — and egress — each owning a
// static partition of the stages' tx rings, which hold only packets that
// finished their chain, and calling the sink. Whoever enqueues into a
// receive ring notices it at its high watermark (postHigh), while the
// backpressure policy that acts on it, supervision, the grant watchdog and
// the weight controller run on a decoupled control goroutine at the paper's
// cadences (Config.BackpressurePeriod 1 ms, Config.WeightPeriod 10 ms).
//
// Failure model: stages are supervised (see supervise.go). A handler panic
// fails only its stage; a handler that exceeds the grant deadline is
// detached and its core loop replaced, so it can never wedge the core; failed stages restart with
// exponential backoff under a max-restart circuit breaker, and chains
// through a failed stage either shed at entry (fail-closed, the default) or
// bypass the dead hop (fail-open). Every packet lost to a fault is charged
// to an explicit drop class so accounting reconciles even across crashes
// and shutdown.
//
// File map, one plane per file: config.go is the Config and its validation;
// dataplane.go the Engine, stage, registration and Run; sched.go the core
// loops, their grants, the hop (forward) and the grant watchdog; mover.go the TX
// shards' egress (moveStages, deliver) with lanes.go their ingress side;
// control.go the backpressure and weight step on the control loop;
// metrics.go the stats and telemetry surface.
package dataplane

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nfvnice/internal/bp"
	"nfvnice/internal/core"
	"nfvnice/internal/nf"
	"nfvnice/internal/ring"
	"nfvnice/internal/stats"
	"nfvnice/internal/telemetry"
)

// Packet is the unit of work flowing through a pipeline. Per-packet state
// travels between stages in Frame.
//
// Descriptors are pooled: obtain them with Engine.GetPacket (or a
// PacketCache) and return delivered ones with PutPacket. Packets the engine
// drops internally are recycled automatically, so a packet must never be
// retained past the call that surrendered it — copy what you need instead.
type Packet struct {
	FlowID  int
	ChainID int
	Size    int
	Hop     int

	// Frame is the packet's wire bytes, backed by a preallocated arena
	// slot that travels with the descriptor (Config.FrameSize > 0).
	// Handlers mutate it in place — the zero-copy path real NFs run on —
	// and may shrink or grow it within the slot's capacity via reslicing
	// or append. Swapping in a foreign buffer breaks the pooling contract
	// (Config.DebugPool catches it); the length is reset to zero whenever
	// the descriptor is recycled, the bytes are not cleared.
	Frame []byte

	// frame0 is the descriptor's arena slot at full capacity; Frame is
	// restored to frame0[:0] on every recycle so ownership of the slot
	// follows the descriptor through the freelist.
	frame0 []byte

	// Drop, when set by a handler, discards the packet instead of
	// forwarding it: the grant recycles it and charges an NF drop (the
	// path fault injectors use to model transient NF errors). The flag is
	// cleared before the descriptor is reused.
	Drop bool

	// enqueuedNanos is the coarse engine clock (unix nanos) at chain entry.
	enqueuedNanos int64

	// span is the flight recorder's per-hop trace, attached at inject to
	// sampled packets only (see trace.go); nil on the unsampled path, so
	// the hot path pays one predictable branch per packet.
	span *Span

	// poolState tracks freelist ownership when Config.DebugPool is set
	// (0 = live, 1 = pooled); manipulated with sync/atomic functions.
	poolState int32
}

// Handler processes one packet at a stage (see AddStage, which runs it in a
// loop over each batch).
type Handler func(*Packet)

// BatchHandler is the engine's handler shape: it processes a whole dequeued
// batch (at most Config.BatchSize packets) in one call, as libnf hands an NF
// a burst of descriptors. Handlers mark discards by setting Packet.Drop; the
// grant recycles those and charges them to NFDrops. The slice is the
// incarnation's scratch and must not be retained past the call.
type BatchHandler func([]*Packet)

type stage struct {
	id   int
	core int
	name string
	// fn receives each dequeued chunk whole (see runBatch).
	fn BatchHandler
	// rx is a multi-producer ring: movers (lane drains at a chain entry)
	// and upstream grants (forward, mid-chain) each reserve a run with one
	// CAS and publish it in reservation order, without a lock; the stage's
	// core loop is normally the single consumer (a detached loop may race
	// it briefly, which the multi-consumer side allows).
	rx *ring.MPMC[*Packet]
	// tx holds only the packets that finished their chain here, on their
	// way to the sink. It is MPMC on the producer side so a detached core
	// loop waking from a stall can never corrupt the ring against its
	// replacement; the stage's owning mover remains the single consumer.
	tx *ring.MPMC[*Packet]
	// mov is the TX shard owning this stage's tx ring (the wake target for
	// grants publishing into it); assigned by Run before the cores start.
	mov *mover
	// rem, when non-nil, marks a remote stage: the handler ships packets to
	// a peer engine over rem.client instead of processing them (remote.go).
	// The scheduler gates grants on the link's credit, the backpressure pass
	// folds the link's ECN signal into the stage's watermark state, and the
	// link's state machine — not grant probation — owns the stage's health.
	rem    *remoteLink
	weight atomic.Int64
	yield  atomic.Bool
	// hot is the enqueue-time watermark post: the rx depth (>= highWater, so
	// never 0) an enqueuer — a lane-draining mover or an upstream grant —
	// saw right after enqueueing here, 0 once the control goroutine has
	// consumed it. upstream is who the posting enqueuer tells to yield: the
	// stages all of whose chains reach this one further down (fixed by
	// initControl).
	hot      atomic.Int32
	upstream []*stage

	// w is the live incarnation (scratch batch, in-flight claim counter)
	// the stage's grants run with. Swapped on supervised restart; epoch
	// stamps incarnations so a grant still running in a detached core loop
	// can detect it was retired.
	w     atomic.Pointer[workerCtx]
	epoch atomic.Uint64

	// health is the supervision state machine (Health values); consecFails
	// feeds the backoff schedule and circuit breaker; restartAtNanos is
	// when a Failed stage may respawn (restartNever = circuit open).
	health         atomic.Int32
	consecFails    atomic.Int32
	restartAtNanos atomic.Int64
	restarts       atomic.Uint64

	// Hot counters, grouped by writer with cache-line pads between groups
	// (the ring.Pad contract): the stage's grants hammering processed can
	// never invalidate the line carrying its enqueuers' arrivals, and vice
	// versa. Within a group the writers are the same goroutine (or rare
	// cold paths), so sharing a line is free.
	_          ring.Pad
	processed  atomic.Uint64 // grant-written
	busyNanos  atomic.Int64  // grant-written
	nfDrops    atomic.Uint64 // grant-written: handler discards via Packet.Drop
	wasted     atomic.Uint64 // grant-written: processed here, died at the next full ring
	_          ring.Pad
	arrivals   atomic.Uint64 // enqueuer-written: offered load
	drops      atomic.Uint64 // enqueuer-written: full-rx-ring losses
	faultDrops atomic.Uint64 // supervisor-written: crash/stall/drain losses
	_          ring.Pad

	pass float64 // WFQ virtual time, owned by the stage's core loop
	// costEst is the service-time estimator the simulator's NFs use — the
	// median over a moving window — fed one busy/processed sample per weight
	// tick, in costUnit per packet, on the control goroutine only. estCost
	// publishes its value as Float64bits of ns/packet (0 until measured) for
	// Stats to read while the engine runs.
	costEst  *stats.MedianWindow
	estCost  atomic.Uint64
	lastArr  uint64
	lastBusy int64
	lastProc uint64
}

// schedulable reports whether the scheduler may grant the stage: every
// state but Failed runs (Degraded and Restarting stages prove themselves
// under real traffic).
func (s *stage) schedulable() bool { return Health(s.health.Load()) != Failed }

// Engine is a runnable pipeline host.
type Engine struct {
	cfg    Config
	stages []*stage
	chains [][]int // chainID -> stage ids

	// flows maps flowID -> chainID. It is copy-on-write: MapFlow clones the
	// map under flowsMu and swaps the pointer, so the per-packet lookup is a
	// plain (allocation-free) map read — sync.Map would box every int key
	// outside the runtime's small-integer cache.
	flows   atomic.Pointer[map[int]int]
	flowsMu sync.Mutex

	throttled []atomic.Bool // per chain
	highWater int
	lowWater  int

	// chainDown marks chains shed at entry because a stage on them is
	// Failed under the fail-closed policy; chainPolicy is fixed at Run.
	chainDown   []atomic.Bool
	chainPolicy []FailPolicy

	// anyFaulty is the fast-path gate for all supervision checks: while
	// every stage is Healthy the grants' forward and the supervisor skip
	// per-packet and per-tick health work entirely.
	anyFaulty atomic.Bool

	// stopped flips when Run's drain completes: later lane injects are
	// rejected and counted in LateDrops instead of queueing behind movers
	// that have exited.
	stopped atomic.Bool

	// cores are the scheduler cores (sched.go). phase is the run phase the
	// core loops follow (phaseRun, phaseDrain, phaseExit), and liveCores
	// counts the loops Run still waits for: a loop the watchdog detached
	// hands its count to its replacement, so a wedged one is never waited
	// for. detached counts loops the watchdog retired whose grant has not
	// returned yet: the shutdown drain waits for them (up to its deadline)
	// so the packets they hold are recycled before Run returns.
	cores     []*coreSched
	phase     atomic.Int32
	liveCores atomic.Int32
	detached  atomic.Int32

	// jitterMu guards jitterRand, the seeded PRNG behind restart-backoff
	// jitter (reachable from every core loop and the watchdog).
	jitterMu   sync.Mutex
	jitterRand *rand.Rand

	// sink receives delivered packets (see SetSink); nil means the engine
	// recycles them itself.
	sink func([]*Packet)

	// free is the shared packet freelist (see GetPacket/PutPacket and
	// PacketCache for the per-producer caches layered on top).
	free *ring.MPMC[*Packet]

	// coarseNanos is the engine clock: unix nanos refreshed once per
	// scheduler iteration, grant and moved batch. Injection stamps and
	// latency measurements read it instead of calling time.Now per packet.
	// It is written by several planes (control loop, schedulers, movers),
	// so it gets a cache line to itself: a clock store must not invalidate
	// any counter's line.
	_           ring.Pad
	coarseNanos atomic.Int64
	_           ring.Pad

	// Injected counts packets accepted into a chain entry ring; Delivered,
	// EntryDrops and RingDrops count packet outcomes;
	// ThrottleEvents counts chain-throttle activations.
	//
	// Fault-tolerance classes: FaultEntryDrops counts packets shed at the
	// entry of a fail-closed chain whose stage is down (pre-acceptance,
	// like EntryDrops); NFDrops counts packets handlers discarded via
	// Packet.Drop; FaultDrops counts in-flight packets lost to stage
	// crashes/stalls and failed-queue drains; ShutdownDrops counts
	// accepted packets swept out of rings when Run winds down; LateDrops
	// counts lane injects rejected after Run exited and lane leftovers
	// swept at shutdown; UnroutedDrops counts packets whose FlowID had no
	// route when their lane was drained (both pre-acceptance).
	//
	// Cross-host classes: packets a remote stage hands to its link leave
	// the local classes and settle in exactly one of RemoteDelivered (the
	// peer acknowledged the frame) or RemoteDrops (the link died with the
	// packet queued or in flight, refused it, or was closed holding it).
	//
	// Reconciliation: once the pipeline quiesces — and, with the shutdown
	// drain, after Run returns —
	//
	//	Injected == Delivered + MidRingDrops
	//	          + NFDrops + FaultDrops + ShutdownDrops
	//	          + RemoteDelivered + RemoteDrops
	//
	// MidRingDrops is the mid-chain (post-acceptance) subset of RingDrops;
	// LedgerSnapshot packages this identity as a checkable struct.
	//
	// Layout: the counters are grouped by their steady-state writers —
	// entry-side (a mover's lane drain, enqueueRouted), delivery-side (a
	// mover's tx sweep), and grant/control — with a cache-line pad
	// between groups so the shard draining lanes into Injected never
	// bounces the line another shard bumps Delivered on.
	Injected        atomic.Uint64 // lane-drain-written
	EntryDrops      atomic.Uint64 // lane-drain-written
	FaultEntryDrops atomic.Uint64 // lane-drain-written
	UnroutedDrops   atomic.Uint64 // lane-drain-written
	LateDrops       atomic.Uint64 // cold: post-stop injects, shutdown lane sweep
	RingDrops       atomic.Uint64 // lane-drain- and forward-written (entry vs mid-chain)
	_               ring.Pad
	Delivered       atomic.Uint64 // mover-written
	// MidRingDrops is the subset of RingDrops a grant's forward charges:
	// packets that were already accepted (counted Injected) and then died
	// at a full mid-chain receive ring. Entry-ring drops are pre-acceptance
	// and appear only in RingDrops, so the reconciliation above can be
	// checked exactly from the global counters alone (see LedgerSnapshot)
	// without knowing which stages are chain entries.
	MidRingDrops atomic.Uint64 // forward-written, overload only
	// latSumNanos/latMaxNanos accumulate end-to-end sojourn time of
	// delivered packets (mover-written; read via LatencyStats).
	latSumNanos    atomic.Int64
	latMaxNanos    atomic.Int64
	_              ring.Pad
	ThrottleEvents atomic.Uint64 // control-written
	NFDrops        atomic.Uint64 // grant-written
	FaultDrops     atomic.Uint64 // grant/supervisor-written
	ShutdownDrops  atomic.Uint64 // shutdown/grant-written
	// RemoteDelivered/RemoteDrops are written from remote-link callback
	// goroutines (ack-rate and transition-rate, never per local grant).
	RemoteDelivered atomic.Uint64
	RemoteDrops     atomic.Uint64

	// remotes lists the remote links behind StageRemote stages (remote.go);
	// fixed before Run, so the slice itself needs no lock.
	remotes []*remoteLink

	// movers are the TX shards (see mover.go); moverStop ends them after
	// the scheduler loops join, and moverWg waits for their exit before
	// the serial shutdown drain takes over their rings.
	movers    []*mover
	moverStop chan struct{}
	moverWg   sync.WaitGroup

	// laneMu guards lane registration/retirement (the COW writes to each
	// mover's lane list and the engine-wide lanes slice); laneRR spreads
	// new lanes across movers round-robin. The per-packet lane paths never
	// take it (see lanes.go).
	laneMu sync.Mutex
	lanes  []*injectLane
	laneRR int

	// lateMu serializes the post-stop lane sweeps (lateSweepLane and the
	// shutdown sweepLanes) so a producer racing Run's exit can't
	// double-drain a lane against another late producer.
	lateMu sync.Mutex

	// drainRC batches freelist recycling for the serial shutdown drain
	// (movers carry their own; see recycler in pool.go).
	drainRC *recycler

	// drainBuf is the shutdown drain's tx scratch (the serial moveAll).
	drainBuf []*Packet

	// The control plane's policy state, built by initControl and owned by
	// the control goroutine: bp is the backpressure controller the simulated
	// manager also runs (internal/bp), bpObs its per-stage observation
	// scratch; byCore groups the stages per scheduler core for the share
	// computation, wDemands and wShares are its per-core scratch.
	bp       *bp.Controller
	bpObs    []bp.Observation
	byCore   [][]*stage
	wDemands []core.Demand
	wShares  []int
	// poke wakes the control goroutine ahead of its timer: an enqueuer that
	// posted a watermark crossing (postHigh) leaves its one token here.
	poke chan struct{}

	// rec is the flight recorder's span machinery (nil unless
	// Config.TraceSampleShift > 0); spanSink optionally receives completed
	// spans on the control goroutine; hopService/hopWait are the per-stage
	// per-hop latency histograms created by RegisterMetrics.
	rec        *recorder
	spanSink   func(*Span)
	hopService []*telemetry.Histogram
	hopWait    []*telemetry.Histogram

	// journal is the control-plane decision journal (nil when
	// Config.DecisionJournalSize < 0).
	journal *DecisionJournal

	// latHist, when registered via RegisterMetrics, observes per-packet
	// end-to-end latency in nanoseconds.
	latHist *telemetry.Histogram
	// events, when set via SetEventLog, receives control-plane decisions.
	events    *telemetry.EventLog
	startWall time.Time

	running atomic.Bool
}

// New returns an engine with the given config (zero value fields take
// defaults). It panics on a config Validate rejects.
func New(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	def := DefaultConfig()
	if cfg.RingSize == 0 {
		cfg.RingSize = def.RingSize
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = def.BatchSize
	}
	if cfg.HighFrac == 0 {
		cfg.HighFrac = def.HighFrac
	}
	if cfg.LowFrac == 0 {
		cfg.LowFrac = def.LowFrac
	}
	if cfg.Cores <= 0 {
		cfg.Cores = def.Cores
	}
	if cfg.Movers <= 0 {
		cfg.Movers = cfg.Cores
		if p := runtime.GOMAXPROCS(0); cfg.Movers > p {
			cfg.Movers = p
		}
		if cfg.Movers < 1 {
			cfg.Movers = 1
		}
	}
	if cfg.BackpressurePeriod == 0 {
		cfg.BackpressurePeriod = def.BackpressurePeriod
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4 * cfg.RingSize
	}
	if cfg.GrantTimeout == 0 {
		cfg.GrantTimeout = def.GrantTimeout
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = def.DrainTimeout
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = def.RestartBackoff
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = def.MaxRestarts
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = def.JitterSeed
	}
	if cfg.TraceSpoolSize == 0 {
		cfg.TraceSpoolSize = 1024
	}
	high, low := ring.ClampWatermarks(cfg.RingSize, cfg.HighFrac, cfg.LowFrac)
	e := &Engine{
		cfg:        cfg,
		highWater:  high,
		lowWater:   low,
		free:       ring.NewMPMC[*Packet](cfg.PoolSize),
		drainBuf:   make([]*Packet, cfg.BatchSize),
		jitterRand: rand.New(rand.NewSource(cfg.JitterSeed)),
		poke:       make(chan struct{}, 1),
	}
	if cfg.TraceSampleShift > 0 {
		e.rec = newRecorder(cfg.TraceSampleShift, cfg.TraceSpoolSize)
	}
	if cfg.DecisionJournalSize >= 0 {
		size := cfg.DecisionJournalSize
		if size == 0 {
			size = 1024
		}
		e.journal = NewDecisionJournal(size)
	}
	// TX shards exist from construction so RegisterMetrics can expose
	// their counters and ProducerHandle can bind lanes to them before Run
	// partitions the stages across them. The sweep scratch is sized for
	// the adaptive batch ceiling, max(256, BatchSize); the starting batch
	// is BatchSize clamped into the adaptive window.
	batchMax := max(256, cfg.BatchSize)
	startBatch := min(max(cfg.BatchSize, moverBatchMin), batchMax)
	e.movers = make([]*mover, cfg.Movers)
	for i := range e.movers {
		m := &mover{
			id:    i,
			buf:   make([]*Packet, batchMax),
			batch: startBatch,
			ewma:  float64(startBatch),
			rc:    e.newRecycler(batchMax),
		}
		m.ch = make(chan struct{}, 1)
		m.curBatch.Store(int32(startBatch))
		m.lanes.Store(&[]*injectLane{})
		e.movers[i] = m
	}
	e.cores = make([]*coreSched, cfg.Cores)
	for i := range e.cores {
		c := &coreSched{id: i}
		c.ch = make(chan struct{}, 1)
		e.cores[i] = c
	}
	e.drainRC = e.newRecycler(cfg.BatchSize)
	if cfg.FrameSize > 0 {
		// One contiguous arena, sliced into full-capacity slots bound to
		// prefilled descriptors: frame ownership rides the freelist, and
		// the three-index slice caps append growth at the slot boundary so
		// a runaway handler can never bleed into a neighbour's frame.
		fs := cfg.FrameSize
		arena := make([]byte, cfg.PoolSize*fs)
		for i := 0; i < cfg.PoolSize; i++ {
			slot := arena[i*fs : (i+1)*fs : (i+1)*fs]
			e.free.Enqueue(&Packet{Frame: slot[:0], frame0: slot})
		}
	}
	e.coarseNanos.Store(time.Now().UnixNano())
	return e
}

// AddStage is AddStageOn on core 0.
func (e *Engine) AddStage(name string, weight int64, fn Handler) int {
	return e.AddStageOn(name, weight, 0, fn)
}

// AddStageOn is sugar for per-packet NFs: it registers a batch stage that
// calls fn on each packet of the batch in turn.
func (e *Engine) AddStageOn(name string, weight int64, core int, fn Handler) int {
	return e.AddBatchStageOn(name, weight, core, func(ps []*Packet) {
		for _, p := range ps {
			fn(p)
		}
	})
}

// AddBatchStage registers an NF on core 0 with the given initial weight
// (1024 = one default share). Must be called before Run.
func (e *Engine) AddBatchStage(name string, weight int64, fn BatchHandler) int {
	return e.AddBatchStageOn(name, weight, 0, fn)
}

// AddBatchStageOn registers an NF pinned to the given core: the handler
// receives each dequeued chunk whole, so NFs amortize dispatch and lookup
// costs across the batch. Must be called before Run.
func (e *Engine) AddBatchStageOn(name string, weight int64, core int, fn BatchHandler) int {
	if core < 0 || core >= e.cfg.Cores {
		panic("dataplane: stage core out of range")
	}
	s := &stage{
		id:   len(e.stages),
		core: core,
		name: name,
		fn:   fn,
		rx:   ring.NewMPMC[*Packet](e.cfg.RingSize),
		tx:   ring.NewMPMC[*Packet](e.cfg.RingSize),
		// The same window the simulated manager estimates over (100 ms).
		costEst: stats.NewMedianWindow(nf.DefaultParams().SampleWindow),
	}
	s.weight.Store(weight)
	s.health.Store(int32(Healthy))
	e.stages = append(e.stages, s)
	return s.id
}

// AddChain registers a service chain over stage ids and returns the chain
// id. Must be called before Run.
func (e *Engine) AddChain(stageIDs ...int) (int, error) {
	if len(stageIDs) == 0 {
		return 0, errors.New("dataplane: empty chain")
	}
	for _, id := range stageIDs {
		if id < 0 || id >= len(e.stages) {
			return 0, errors.New("dataplane: unknown stage in chain")
		}
	}
	e.chains = append(e.chains, append([]int(nil), stageIDs...))
	e.throttled = append(e.throttled, atomic.Bool{})
	e.chainDown = append(e.chainDown, atomic.Bool{})
	e.chainPolicy = append(e.chainPolicy, FailClosed)
	return len(e.chains) - 1, nil
}

// SetChainPolicy selects what happens to a chain while one of its stages is
// Failed: FailClosed (the default) sheds the chain's packets at entry,
// charged to FaultEntryDrops; FailOpen forwards past the dead hop. Must be
// called before Run.
func (e *Engine) SetChainPolicy(chainID int, p FailPolicy) {
	if e.running.Load() {
		panic("dataplane: SetChainPolicy after Run")
	}
	e.chainPolicy[chainID] = p
}

// MapFlow routes a flow to a chain. Safe to call at any time; it panics on a
// chain AddChain never returned.
func (e *Engine) MapFlow(flowID, chainID int) {
	if chainID < 0 || chainID >= len(e.chains) {
		panic("dataplane: MapFlow to unknown chain")
	}
	e.flowsMu.Lock()
	defer e.flowsMu.Unlock()
	next := make(map[int]int)
	if cur := e.flows.Load(); cur != nil {
		for k, v := range *cur {
			next[k] = v
		}
	}
	next[flowID] = chainID
	e.flows.Store(&next)
}

// routeOf resolves a flow to its chain without allocating.
func (e *Engine) routeOf(flowID int) (int, bool) {
	m := e.flows.Load()
	if m == nil {
		return 0, false
	}
	chainID, ok := (*m)[flowID]
	return chainID, ok
}

// SetWeight adjusts a stage's scheduler weight (manual control when the
// auto controller is disabled).
func (e *Engine) SetWeight(stageID int, w int64) {
	if w < 2 {
		w = 2
	}
	e.stages[stageID].weight.Store(w)
}

// SetSink registers the engine's one way out: a callback invoked on a mover
// goroutine with each batch of packets that completed their chains. The
// sink owns the packets; recycle them with PutPacket, PutPacketBatch or a
// PacketCache when done. The slice is reused after the call returns — don't
// retain it. Without a sink the engine counts deliveries and recycles the
// packets itself. Must be called before Run.
//
// Sink concurrency: with Config.Movers > 1 the sink may be invoked
// concurrently from multiple movers, so it must be safe for concurrent
// use (Engine.PutPacket is; a PacketCache is not — use one per mover's
// worth of traffic only under an external lock, or a plain PutPacket
// loop). Deliveries of any single flow always come from one mover — a
// flow exits through a fixed final stage, and each stage's tx ring has
// exactly one consumer — so per-flow delivery order is still FIFO.
func (e *Engine) SetSink(fn func([]*Packet)) {
	if e.running.Load() {
		panic("dataplane: SetSink after Run")
	}
	e.sink = fn
}

// Run operates the pipeline until ctx is canceled, then winds down in
// order: a bounded drain (the core loops grant and Run's goroutine moves
// until the rings empty or Config.DrainTimeout passes), the core loops'
// exit under the grant watchdog (a wedged handler cannot block Run), a stop
// gate rejecting later Injects, and a final sweep that charges every packet
// still in flight to ShutdownDrops so the accounting reconciliation holds
// after Run returns. It blocks; run it on its own goroutine. Run may be
// called once.
func (e *Engine) Run(ctx context.Context) {
	if !e.running.CompareAndSwap(false, true) {
		panic("dataplane: Run called twice")
	}
	e.initControl()
	e.moverStop = make(chan struct{})
	// Partition the stages across the TX shards before any grant can
	// publish into a tx ring (a grant wakes its stage's owning mover).
	e.assignMovers()
	// Remote links start dialing now, not at AddRemoteStage: their state
	// callbacks touch supervision structures that must not race setup.
	e.startRemotes()
	for _, s := range e.stages {
		e.newIncarnation(s)
	}
	// The three decoupled planes, mirroring the paper's manager split: core
	// loops (one per core) grant their stages and carry each hop; mover
	// shards (the manager's RX and TX threads) take lanes in and exits out
	// to the sink; and the control plane — this goroutine — runs
	// backpressure, supervision, the grant watchdog and the weight
	// controller at their configured cadences, off the hot path.
	e.liveCores.Store(int32(len(e.cores)))
	for _, c := range e.cores {
		e.startCore(c)
	}
	for _, m := range e.movers {
		// Every shard runs, even with an empty stage partition: inject
		// lanes may bind to it mid-run, and an idle shard parks on its
		// wake channel for near-nothing.
		e.moverWg.Add(1)
		go e.runMover(m)
	}
	e.controlLoop(ctx)
	e.shutdown()
}

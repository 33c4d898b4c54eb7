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
// CAS-reserve multi-producer rings so movers never take a lock; workers,
// movers and producers move packets with bulk ring operations that publish
// once per batch; and per-packet wall-clock reads are replaced by a coarse
// engine clock sampled once per grant and once per moved or drained batch,
// so end-to-end latency is accurate to within one batch quantum.
//
// Threading model: user code offers packets through one ProducerHandle per
// producer goroutine — the engine's only ingress — and the lane's owning
// mover routes them into chain entries; each stage's handler runs on its
// own goroutine but only while holding a grant from the scheduler, which
// serializes stage execution (the shared-CPU-core regime the paper studies)
// while keeping handlers free to block briefly on their own I/O. The TX path is sharded (mover.go): the
// paper's manager TX threads map to Config.Movers mover goroutines, each
// owning a static partition of the stages' tx rings, while backpressure,
// supervision and the weight controller run on a decoupled control
// goroutine at the paper's cadences (Config.BackpressurePeriod 1 ms,
// Config.WeightPeriod 10 ms).
//
// Failure model: stages are supervised (see supervise.go). A handler panic
// fails only its stage; a handler that exceeds the grant deadline is
// detached so it can never wedge the scheduler; failed stages restart with
// exponential backoff under a max-restart circuit breaker, and chains
// through a failed stage either shed at entry (fail-closed, the default) or
// bypass the dead hop (fail-open). Every packet lost to a fault is charged
// to an explicit drop class so accounting reconciles even across crashes
// and shutdown.
package dataplane

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nfvnice/internal/bp"
	"nfvnice/internal/core"
	"nfvnice/internal/nf"
	"nfvnice/internal/ring"
	"nfvnice/internal/simtime"
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
	// forwarding it: the worker recycles it and charges an NF drop (the
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
// worker recycles those and charges them to NFDrops. The slice is the
// worker's scratch and must not be retained past the call.
type BatchHandler func([]*Packet)

// Config tunes the runtime.
type Config struct {
	// Cores is the number of scheduler loops; stages are assigned to a
	// core with AddStageOn and contend only with co-resident stages, as
	// NFs pinned to CPU cores do (default 1).
	Cores int
	// Movers is the number of TX-path mover goroutines (the paper's
	// manager TX threads). Each mover owns a static partition of the
	// stages' tx rings — stage i belongs to mover i mod Movers — so every
	// tx ring keeps a single consumer and per-flow FIFO is preserved.
	// 0 takes min(Cores, GOMAXPROCS). With Movers > 1 the Sink callback
	// may be invoked concurrently from multiple movers.
	Movers int
	// BackpressurePeriod is the control plane's queue-length sampling
	// cadence: how often the watermark backpressure state machine runs
	// (the paper's 1 ms load-estimation interval; 0 takes the 1 ms
	// default).
	BackpressurePeriod time.Duration
	// RingSize is each stage's receive/transmit ring capacity (rounded up
	// to a power of two).
	RingSize int
	// BatchSize bounds packets processed per grant between yield checks.
	BatchSize int
	// HighFrac and LowFrac are the backpressure watermarks.
	HighFrac, LowFrac float64
	// WeightPeriod is the weight-push cadence: how often the rate-cost
	// controller recomputes auto-weights (the paper's 10 ms interval;
	// 0 disables the controller; manual SetWeight still works).
	WeightPeriod time.Duration
	// PoolSize caps the packet freelist (rounded up to a power of two;
	// default 4×RingSize). Excess recycled packets are left to the GC.
	PoolSize int
	// FrameSize, when > 0, gives every pooled descriptor a wire-frame
	// buffer of this capacity carved from one contiguous preallocated
	// arena (PoolSize slots — the role OpenNetVM's shared huge-page
	// mempool plays for the paper's NFs). Packet.Frame aliases the
	// descriptor's slot for its whole pooled lifetime: frontends fill it
	// in place, NFs mutate it in place, and recycling resets only its
	// length, so the steady-state frame path allocates nothing. 0 (the
	// default) leaves Frame nil and the arena unallocated.
	FrameSize int

	// GrantTimeout bounds how long the scheduler waits for a granted stage
	// to finish its batch. A stage that overruns it is detached and marked
	// Failed instead of wedging the core (0 takes the 100ms default;
	// negative disables the deadline and restores unbounded waits).
	GrantTimeout time.Duration
	// DrainTimeout bounds the graceful shutdown drain: after ctx cancel,
	// Run keeps granting and moving until the rings empty or the deadline
	// passes, then sweeps leftovers into ShutdownDrops (0 takes the 500ms
	// default; negative skips the drain and sweeps immediately).
	DrainTimeout time.Duration
	// RestartBackoff shapes the supervised-restart schedule: the k-th
	// consecutive failure waits min(RestartBackoff<<(k-1), 500ms), plus
	// jitter (default 2ms).
	RestartBackoff time.Duration
	// MaxRestarts is the circuit breaker: after this many consecutive
	// failures the stage stays Failed permanently and its queue is drained
	// into FaultDrops (0 takes the default of 8; negative means unlimited).
	MaxRestarts int
	// JitterSeed seeds the restart-backoff jitter PRNG so chaos runs are
	// reproducible (0 takes seed 1).
	JitterSeed int64
	// DebugPool enables double-PutPacket and use-after-recycle detection
	// on the packet freelist; violations panic with the offending stage.
	// Costs one predictable branch per packet — leave off in production.
	DebugPool bool

	// TraceSampleShift enables the flight recorder's packet spans: 0 (the
	// default) disables sampling entirely; a value s ≥ 1 samples 1 in 2^s
	// injected packets and records per-hop timestamps into pooled spans
	// (see trace.go). Disabled, the hot path stays zero-atomic and
	// zero-allocation.
	TraceSampleShift int
	// TraceSpoolSize is the completed-span spool capacity and the number
	// of preallocated span slabs (rounded up to a power of two; 0 takes
	// 1024). Overflow drops are counted, never blocked on.
	TraceSpoolSize int
	// DecisionJournalSize is the control-plane decision journal capacity
	// (0 takes 1024; negative disables the journal). The journal records
	// every backpressure, weight and supervision decision with its cause;
	// query it with Engine.Decisions or over HTTP via AddDebugEndpoints.
	DecisionJournalSize int
}

// DefaultConfig mirrors the paper's platform parameters (1 ms load
// estimation, 10 ms weight push). Movers is left 0 — New resolves it to
// min(Cores, GOMAXPROCS).
func DefaultConfig() Config {
	return Config{
		Cores:              1,
		RingSize:           4096,
		BatchSize:          32,
		HighFrac:           0.80,
		LowFrac:            0.60,
		BackpressurePeriod: time.Millisecond,
		WeightPeriod:       10 * time.Millisecond,
		GrantTimeout:       100 * time.Millisecond,
		DrainTimeout:       500 * time.Millisecond,
		RestartBackoff:     2 * time.Millisecond,
		MaxRestarts:        8,
		JitterSeed:         1,
	}
}

// Validate reports the first nonsensical setting in the config, before
// zero-value defaulting is applied. Fields where a negative value selects
// documented behaviour (GrantTimeout, DrainTimeout, MaxRestarts) are not
// flagged. New panics on an invalid config; call Validate first to handle
// bad configs gracefully.
func (cfg Config) Validate() error {
	switch {
	case cfg.Cores < 0:
		return errors.New("dataplane: Cores must be >= 0")
	case cfg.Movers < 0:
		return errors.New("dataplane: Movers must be >= 0")
	case cfg.RingSize < 0:
		return errors.New("dataplane: RingSize must be >= 0")
	case cfg.BatchSize < 0:
		return errors.New("dataplane: BatchSize must be >= 0")
	case cfg.BackpressurePeriod < 0:
		return errors.New("dataplane: BackpressurePeriod must be >= 0")
	case cfg.WeightPeriod < 0:
		return errors.New("dataplane: WeightPeriod must be >= 0 (0 disables the controller)")
	case cfg.HighFrac < 0 || cfg.HighFrac > 1:
		return errors.New("dataplane: HighFrac must be in [0, 1]")
	case cfg.LowFrac < 0 || cfg.LowFrac > 1:
		return errors.New("dataplane: LowFrac must be in [0, 1]")
	case cfg.HighFrac > 0 && cfg.LowFrac > 0 && cfg.LowFrac > cfg.HighFrac:
		return errors.New("dataplane: LowFrac must not exceed HighFrac")
	case cfg.FrameSize < 0:
		return errors.New("dataplane: FrameSize must be >= 0")
	case cfg.TraceSampleShift < 0 || cfg.TraceSampleShift > 32:
		return errors.New("dataplane: TraceSampleShift must be in [0, 32]")
	case cfg.TraceSpoolSize < 0:
		return errors.New("dataplane: TraceSpoolSize must be >= 0")
	}
	return nil
}

// StageStats is a snapshot of one stage's counters.
type StageStats struct {
	Name      string
	Processed uint64
	// Arrivals counts packets offered to the stage, including ones that
	// were then shed or dropped (offered load, the controller's λ).
	Arrivals uint64
	Weight   int64
	// Busy is cumulative handler wall time.
	Busy time.Duration
	// EstCost is the controller's per-packet cost estimate: the median of
	// its per-tick samples over the last 100 ms (0 until measured).
	EstCost time.Duration
	// QueueDrops counts packets dropped at this stage's full receive ring;
	// Wasted counts packets this stage processed that died downstream (the
	// paper's wasted-work metric).
	QueueDrops uint64
	Wasted     uint64
	// Health is the supervision state; Restarts counts supervised worker
	// respawns; FaultDrops counts packets lost in this stage's crashes,
	// stalls and failed-queue drains; NFDrops counts packets the handler
	// discarded via Packet.Drop.
	Health     Health
	Restarts   uint64
	FaultDrops uint64
	NFDrops    uint64
}

type stage struct {
	id   int
	core int
	name string
	// fn receives each dequeued chunk whole (see runBatch).
	fn BatchHandler
	// rx is a CAS-reserve multi-producer ring: movers (lane drains at a
	// chain entry, stage sweeps mid-chain) enqueue concurrently without a
	// lock; the stage's live worker is
	// normally the single consumer (a detached worker incarnation may race
	// it briefly, which the MPMC ring tolerates).
	rx *ring.MPMC[*Packet]
	// tx is MPMC on the producer side so a detached worker incarnation
	// waking from a stall can never corrupt the ring against its
	// replacement; the stage's owning mover remains the single consumer.
	tx *ring.MPMC[*Packet]
	// mov is the TX shard owning this stage's tx ring (the wake target for
	// workers publishing into it); assigned by Run before workers spawn.
	mov *mover
	// rem, when non-nil, marks a remote stage: the handler ships packets to
	// a peer engine over rem.client instead of processing them (remote.go).
	// The scheduler gates grants on the link's credit, the backpressure pass
	// folds the link's ECN signal into the stage's watermark state, and the
	// link's state machine — not grant probation — owns the stage's health.
	rem    *remoteLink
	weight atomic.Int64
	yield  atomic.Bool

	// w is the live worker incarnation (grant/done channels, scratch,
	// in-flight claim counter). Swapped on supervised restart; epoch
	// stamps incarnations so a stale worker can detect it was detached.
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
	// (the ring.Pad contract): the stage's worker hammering processed can
	// never invalidate the line carrying the movers' arrivals, and vice
	// versa. Within a group the writers are the same goroutine (or rare
	// cold paths), so sharing a line is free.
	_          ring.Pad
	processed  atomic.Uint64 // worker-written
	busyNanos  atomic.Int64  // worker-written
	nfDrops    atomic.Uint64 // worker-written: handler discards via Packet.Drop
	_          ring.Pad
	arrivals   atomic.Uint64 // mover-written: offered load
	drops      atomic.Uint64 // mover-written: full-rx-ring losses
	wasted     atomic.Uint64 // mover-written: processed here, died downstream
	faultDrops atomic.Uint64 // supervisor-written: crash/stall/drain losses
	_          ring.Pad

	pass float64 // WFQ virtual time, owned by the scheduler goroutine
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
	// every stage is Healthy the mover and supervisor skip per-packet and
	// per-tick health work entirely.
	anyFaulty atomic.Bool

	// stopped flips when Run's drain completes: later lane injects are
	// rejected and counted in LateDrops instead of queueing behind movers
	// that have exited.
	stopped atomic.Bool

	// liveWorkers counts running worker goroutines (wedged ones included
	// until they wake); shutdown waits for it boundedly.
	liveWorkers atomic.Int64

	// jitterMu guards jitterRand, the seeded PRNG behind restart-backoff
	// jitter (reachable from every core's scheduler loop).
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
	// mover's stage sweep), and worker/control — with a cache-line pad
	// between groups so the shard draining lanes into Injected never
	// bounces the line another shard bumps Delivered on.
	Injected        atomic.Uint64 // lane-drain-written
	EntryDrops      atomic.Uint64 // lane-drain-written
	FaultEntryDrops atomic.Uint64 // lane-drain-written
	UnroutedDrops   atomic.Uint64 // lane-drain-written
	LateDrops       atomic.Uint64 // cold: post-stop injects, shutdown lane sweep
	RingDrops       atomic.Uint64 // lane-drain- and sweep-written (entry vs mid-chain)
	_               ring.Pad
	Delivered       atomic.Uint64 // mover-written
	// MidRingDrops is the mover-written subset of RingDrops: packets that
	// were already accepted (counted Injected) and then died at a full
	// mid-chain receive ring. Entry-ring drops are pre-acceptance and appear
	// only in RingDrops, so the reconciliation above can be checked exactly
	// from the global counters alone (see LedgerSnapshot) without knowing
	// which stages are chain entries.
	MidRingDrops atomic.Uint64 // mover-written
	// latSumNanos/latMaxNanos accumulate end-to-end sojourn time of
	// delivered packets (mover-written; read via LatencyStats).
	latSumNanos    atomic.Int64
	latMaxNanos    atomic.Int64
	_              ring.Pad
	ThrottleEvents atomic.Uint64 // control-written
	NFDrops        atomic.Uint64 // worker-written
	FaultDrops     atomic.Uint64 // worker/supervisor-written
	ShutdownDrops  atomic.Uint64 // shutdown/worker-written
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
			id:     i,
			buf:    make([]*Packet, batchMax),
			wakeCh: make(chan struct{}, 1),
			batch:  startBatch,
			ewma:   float64(startBatch),
			rc:     e.newRecycler(batchMax),
		}
		m.curBatch.Store(int32(startBatch))
		m.lanes.Store(&[]*injectLane{})
		e.movers[i] = m
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

// MapFlow routes a flow to a chain. Safe to call at any time.
func (e *Engine) MapFlow(flowID, chainID int) {
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

// Stats snapshots every stage.
func (e *Engine) Stats() []StageStats {
	out := make([]StageStats, len(e.stages))
	for i, s := range e.stages {
		out[i] = StageStats{
			Name:       s.name,
			Processed:  s.processed.Load(),
			Arrivals:   s.arrivals.Load(),
			Weight:     s.weight.Load(),
			Busy:       time.Duration(s.busyNanos.Load()),
			EstCost:    time.Duration(math.Float64frombits(s.estCost.Load())),
			QueueDrops: s.drops.Load(),
			Wasted:     s.wasted.Load(),
			Health:     Health(s.health.Load()),
			Restarts:   s.restarts.Load(),
			FaultDrops: s.faultDrops.Load(),
			NFDrops:    s.nfDrops.Load(),
		}
	}
	return out
}

// LatencyStats reports the mean and maximum end-to-end sojourn time of
// delivered packets, accurate to within one batch quantum (the coarse-clock
// bound).
func (e *Engine) LatencyStats() (mean, max time.Duration) {
	n := e.Delivered.Load()
	if n == 0 {
		return 0, 0
	}
	return time.Duration(e.latSumNanos.Load() / int64(n)), time.Duration(e.latMaxNanos.Load())
}

// Throttled reports whether a chain is currently shed at entry.
func (e *Engine) Throttled(chainID int) bool { return e.throttled[chainID].Load() }

// Run operates the pipeline until ctx is canceled, then winds down in
// order: a bounded drain (grant and move until the rings empty or
// Config.DrainTimeout passes), a stop gate rejecting later Injects, worker
// shutdown with a bounded wait (a wedged handler cannot block Run), and a
// final sweep that charges every packet still in flight to ShutdownDrops so
// the accounting reconciliation holds after Run returns. It blocks; run it
// on its own goroutine. Run may be called once.
func (e *Engine) Run(ctx context.Context) {
	if !e.running.CompareAndSwap(false, true) {
		panic("dataplane: Run called twice")
	}
	e.initControl()
	e.moverStop = make(chan struct{})
	// Partition the stages across the TX shards before any worker can
	// publish into a tx ring (workers wake their stage's owning mover).
	e.assignMovers()
	// Remote links start dialing now, not at AddRemoteStage: their state
	// callbacks touch supervision structures that must not race setup.
	e.startRemotes()
	for _, s := range e.stages {
		e.spawnWorker(s)
	}
	// The three decoupled planes, mirroring the paper's manager split:
	// scheduler loops (one per core) grant stages, mover shards (the
	// manager's TX threads) shuttle packets between rings, and the control
	// plane — this goroutine — runs backpressure, supervision and the
	// weight controller at their configured cadences, off the hot path.
	var cores sync.WaitGroup
	for core := 0; core < e.cfg.Cores; core++ {
		cores.Add(1)
		go func(core int) {
			defer cores.Done()
			timer := newGrantTimer()
			defer timer.Stop()
			for ctx.Err() == nil {
				if !e.scheduleCore(core, timer) {
					// Idle: plain sleep, not time.After — the select-timer
					// variant allocates, and this is inside the hot loop.
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(core)
	}
	for _, m := range e.movers {
		// Every shard runs, even with an empty stage partition: inject
		// lanes may bind to it mid-run, and an idle shard parks on its
		// wake channel for near-nothing.
		e.moverWg.Add(1)
		go e.runMover(m)
	}
	e.controlLoop(ctx)
	// Shutdown. Join the scheduler loops first; movers keep draining tx
	// rings until then so the graceful drain starts from near-empty rings.
	// Only after the movers exit does the serial drain own every ring.
	cores.Wait()
	close(e.moverStop)
	e.moverWg.Wait()
	timer := newGrantTimer()
	defer timer.Stop()
	e.shutdown(timer)
}

// worker runs a stage's handler under grants until its grant channel closes
// or the incarnation is detached, moving packets rx→tx in bulk: one ring
// reservation per dequeued batch and one per published batch.
func (e *Engine) worker(s *stage, w *workerCtx) {
	defer e.liveWorkers.Add(-1)
	for budget := range w.grant {
		res, exit := e.runGrant(s, w, budget)
		if s.epoch.Load() != w.epoch {
			// Detached while running: the scheduler stopped listening and
			// a replacement may exist. Exit without signalling.
			return
		}
		w.done <- res // cap 1: never blocks, even if the scheduler left
		if exit {
			return // handler panicked; the supervisor decides what's next
		}
	}
}

// runGrant executes one grant: up to budget packets in chunks of the
// incarnation's scratch batch. Each chunk publishes its size in w.inflight
// before running the handler; whoever Swap()s it to zero — this worker on
// the happy path, the scheduler on detach, the final sweep at shutdown —
// owns the accounting for those packets (see runBatch).
func (e *Engine) runGrant(s *stage, w *workerCtx, budget int) (res grantResult, exit bool) {
	start := time.Now()
	n := 0
	for n < budget {
		want := budget - n
		if want > len(w.batch) {
			want = len(w.batch)
		}
		k := s.rx.DequeueBatch(w.batch[:want])
		if k == 0 {
			break
		}
		w.inflight.Store(int64(k))
		live, panicked, pmsg := e.runBatch(s, w, k)
		if panicked {
			s.busyNanos.Add(time.Since(start).Nanoseconds())
			if n > 0 {
				s.processed.Add(uint64(n))
			}
			return grantResult{panicked: true, panicVal: pmsg}, true
		}
		n += k
		if live > 0 {
			if claimed := w.inflight.Swap(0); claimed == 0 {
				// The scheduler detached us mid-chunk and already charged
				// these packets as fault drops; recycle without counting.
				e.PutPacketBatch(w.batch[:live])
				s.busyNanos.Add(time.Since(start).Nanoseconds())
				s.processed.Add(uint64(n))
				return res, true
			}
			if e.stopped.Load() {
				// Run already returned: the mover is gone, so delivering
				// into tx would strand the packets uncounted.
				e.ShutdownDrops.Add(uint64(live))
				e.PutPacketBatch(w.batch[:live])
			} else {
				// The scheduler only grants while tx has a batch of free
				// space and the owning mover only removes, so this completes
				// on the first pass; the loop covers the detached-incarnation
				// race where two workers briefly share the ring.
				rem := w.batch[:live]
				for {
					rem = rem[s.tx.EnqueueBatch(rem):]
					if len(rem) == 0 {
						break
					}
					if e.stopped.Load() {
						e.ShutdownDrops.Add(uint64(len(rem)))
						e.PutPacketBatch(rem)
						break
					}
					runtime.Gosched()
				}
				if m := s.mov; m != nil {
					m.maybeWake()
				}
			}
		} else {
			w.inflight.Store(0)
		}
	}
	if n > 0 {
		s.processed.Add(uint64(n))
	}
	s.busyNanos.Add(time.Since(start).Nanoseconds())
	return res, false
}

// runBatch runs the stage's handler over batch[:k] in one call and compacts
// the survivors to the front, reporting how many there are. The flight
// recorder's enter/exit stamps bracket the call (one clock read per side,
// shared by every sampled packet in the chunk). It recovers handler panics:
// a panic leaves no packet of the chunk with a defined outcome, so the
// recovery claims the whole chunk back from w.inflight (unless the scheduler
// already detached us and charged it), charges it to fault drops and
// recycles it, so no packet escapes the drop ledger.
func (e *Engine) runBatch(s *stage, w *workerCtx, k int) (live int, panicked bool, pmsg string) {
	debug := e.cfg.DebugPool
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		live, panicked, pmsg = 0, true, panicString(r)
		if claimed := w.inflight.Swap(0); claimed > 0 {
			e.FaultDrops.Add(uint64(claimed))
			s.faultDrops.Add(uint64(claimed))
		}
		for _, p := range w.batch[:k] {
			// A descriptor the debug check just flagged as recycled is
			// already in the freelist — skip it rather than tripping the
			// double-put check inside this recover.
			if debug && atomic.LoadInt32(&p.poolState) != 0 {
				continue
			}
			e.PutPacket(p)
		}
	}()
	batch := w.batch[:k]
	if debug {
		for _, pkt := range batch {
			if atomic.LoadInt32(&pkt.poolState) != 0 {
				panic("dataplane: stage " + s.name + " processing a recycled packet (use-after-PutPacket)")
			}
		}
	}
	// Stamp sampled packets lazily: the clock is read only when the batch
	// actually carries a span, so the unsampled path stays clock-free.
	var now int64
	for _, pkt := range batch {
		if sp := pkt.span; sp != nil {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			sp.stampEnter(s.id, now)
		}
	}
	s.fn(batch)
	now = 0
	for _, pkt := range batch {
		if sp := pkt.span; sp != nil {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			sp.stampExit(now)
		}
	}
	for _, pkt := range batch {
		if pkt.Drop {
			// Claim the single unit back; if the scheduler detached us it
			// already charged this packet as a fault drop instead. Remote
			// stages consume every packet this way, but their units belong
			// to the transport ledger (RemoteDelivered/RemoteDrops), not
			// NFDrops — the handler already charged any refusal.
			if decInflight(&w.inflight) && w.kind == workerLocal {
				s.nfDrops.Add(1)
				e.NFDrops.Add(1)
			}
			e.PutPacket(pkt)
			continue
		}
		pkt.Hop++
		w.batch[live] = pkt
		live++
	}
	return live, false, ""
}

// scheduleCore grants the core's runnable stage with the smallest WFQ pass
// one batch and waits for completion, up to the grant deadline: an overdue
// stage is detached and marked Failed rather than wedging the core, so one
// stuck handler can never stall its neighbours. Reports whether anything
// ran. The engine clock is refreshed once per grant.
func (e *Engine) scheduleCore(core int, timer *time.Timer) bool {
	var pick *stage
	for _, s := range e.stages {
		if s.core != core || !s.schedulable() || s.yield.Load() || s.rx.Len() == 0 {
			continue
		}
		if s.tx.Len() >= e.cfg.RingSize-1-e.cfg.BatchSize {
			continue // local backpressure: tx nearly full
		}
		if s.rem != nil && !s.rem.grantable(e.cfg.BatchSize) {
			// Remote credit exhausted (window full, link down, or send
			// queue at capacity): leave the packets in rx so the watermark
			// machine sees the pressure and throttles the chain at entry.
			continue
		}
		if pick == nil || s.pass < pick.pass {
			pick = s
		}
	}
	if pick == nil {
		return false
	}
	e.coarseNanos.Store(time.Now().UnixNano())
	e.grantStage(pick, timer, core)
	return true
}

// grantStage issues one batch grant to the stage's live worker and settles
// the outcome: WFQ pass accounting and probation on success, failStage on
// panic, detach on deadline. Shared by scheduleCore and the shutdown drain.
func (e *Engine) grantStage(pick *stage, timer *time.Timer, core int) {
	w := pick.w.Load()
	before := time.Duration(pick.busyNanos.Load())
	w.grant <- e.cfg.BatchSize
	res, ok := waitGrant(w, timer, e.cfg.GrantTimeout)
	if !ok {
		e.detachStage(pick, w)
		return
	}
	if res.panicked {
		e.failStage(pick, "panic", res.panicVal)
		return
	}
	ran := time.Duration(pick.busyNanos.Load()) - before
	wt := pick.weight.Load()
	if wt < 2 {
		wt = 2
	}
	pick.pass += float64(ran) * 1024 / float64(wt)
	// Keep sleeping stages from banking unbounded credit.
	min := pick.pass
	for _, s := range e.stages {
		if s.core == core && s.pass < min-float64(time.Second) {
			s.pass = min - float64(time.Second)
		}
	}
	// Probation: a restarted stage earns Healthy back by completing clean
	// grants under real traffic. Remote stages are exempt — their health
	// tracks the link state machine (remoteLinkState), and a clean grant
	// only proves the send queue had room, not that the peer is reachable.
	if w.kind == workerRemote {
		return
	}
	switch Health(pick.health.Load()) {
	case Restarting:
		w.okGrants = 1
		e.setHealth(pick, Degraded)
	case Degraded:
		w.okGrants++
		if w.okGrants >= probationGrants {
			pick.consecFails.Store(0)
			e.setHealth(pick, Healthy)
		}
	}
}

// moveAll serially drains every stage's tx ring — the shutdown drain's
// single-threaded mover, run only after the TX shards have exited.
func (e *Engine) moveAll() { e.moveStages(e.stages, e.drainBuf, e.drainRC) }

// moveStages drains each given stage's tx ring toward the next hop or the
// sink (the paper's TX-thread role), in batches: runs of packets bound for
// the same destination ring are forwarded with one
// reservation, and all engine counters are flushed once per drained batch
// (add-N, not N adds). Every piece of scratch state — the drain buffer, the
// latency run-length encoder, the counter accumulators — is local to the
// call, so concurrent movers over disjoint partitions share nothing but
// the rings and the final atomic adds. Packets dropped in flight are
// recycled through rc — buffered locally and returned to the shared
// freelist with one batch reservation per sweep instead of one CAS each.
// Reports how many packets it moved.
func (e *Engine) moveStages(stages []*stage, buf []*Packet, rc *recycler) int {
	// The clock is read lazily, once per sweep that actually drains
	// packets: idle movers sweep dry partitions thousands of times per
	// millisecond, and a vDSO clock call per dry sweep is the single
	// largest avoidable cost on the serial path.
	var now int64
	moved := 0
	var delivered, ringDrops uint64
	var latSum, latMax int64
	// Coarse-clock latencies arrive in runs of identical values; batch them
	// into the histogram with run-length encoding.
	var histVal, histN uint64
	var sinkFrom int
	for _, s := range stages {
		var wastedHere uint64
		for {
			k := s.tx.DequeueBatch(buf)
			if k == 0 {
				break
			}
			if now == 0 {
				now = time.Now().UnixNano()
				e.coarseNanos.Store(now)
			}
			moved += k
			if e.anyFaulty.Load() {
				// Fail-open chains skip Failed hops; resolving every
				// packet's effective hop up front keeps the run-forwarding
				// loop below oblivious to faults.
				e.bypassFailedHops(buf[:k])
			}
			if e.rec != nil {
				// Flight recorder: stamp sampled packets' move times with a
				// fresh clock read (the lazy `now` above can lag a worker's
				// exit stamp and break hop monotonicity) and complete spans
				// whose packet is about to be delivered below.
				e.stampSpans(buf[:k])
			}
			sinkFrom = 0
			for i := 0; i < k; {
				pkt := buf[i]
				chain := e.chains[pkt.ChainID]
				if pkt.Hop >= len(chain) {
					// Delivery: leave the packet in buf; the contiguous
					// delivered run is handed over below.
					lat := now - pkt.enqueuedNanos
					if lat < 0 {
						lat = 0
					}
					delivered++
					latSum += lat
					if lat > latMax {
						latMax = lat
					}
					if uint64(lat) == histVal {
						histN++
					} else {
						if histN > 0 && e.latHist != nil {
							e.latHist.ObserveN(histVal, histN)
						}
						histVal, histN = uint64(lat), 1
					}
					i++
					continue
				}
				// Forward: extend the run while packets share the next-hop
				// ring, then publish the run with one reservation.
				if i > sinkFrom {
					e.deliver(buf[sinkFrom:i], rc)
				}
				dstID := chain[pkt.Hop]
				dst := e.stages[dstID]
				j := i + 1
				for j < k {
					q := buf[j]
					qc := e.chains[q.ChainID]
					if q.Hop >= len(qc) || qc[q.Hop] != dstID {
						break
					}
					j++
				}
				run := buf[i:j]
				dst.arrivals.Add(uint64(len(run)))
				n := dst.rx.EnqueueBatch(run)
				if n < len(run) {
					// Work already invested in these packets is wasted; the
					// drop itself happens at dst's full receive ring.
					d := uint64(len(run) - n)
					ringDrops += d
					dst.drops.Add(d)
					wastedHere += d
					for _, q := range run[n:] {
						rc.put(q)
					}
				}
				i = j
				sinkFrom = j
			}
			if k > sinkFrom {
				e.deliver(buf[sinkFrom:k], rc)
			}
		}
		if wastedHere > 0 {
			s.wasted.Add(wastedHere)
		}
	}
	if histN > 0 && e.latHist != nil {
		e.latHist.ObserveN(histVal, histN)
	}
	if delivered > 0 {
		e.Delivered.Add(delivered)
		e.latSumNanos.Add(latSum)
		for {
			cur := e.latMaxNanos.Load()
			if latMax <= cur || e.latMaxNanos.CompareAndSwap(cur, latMax) {
				break
			}
		}
	}
	if ringDrops > 0 {
		e.RingDrops.Add(ringDrops)
		e.MidRingDrops.Add(ringDrops)
	}
	rc.flush()
	return moved
}

// deliver hands a contiguous all-delivered run of a mover's drain buffer to
// the sink; with no sink set the engine retires the descriptors itself.
func (e *Engine) deliver(run []*Packet, rc *recycler) {
	if e.sink != nil {
		e.sink(run)
		return
	}
	for _, p := range run {
		rc.put(p)
	}
}

// initControl fixes the topology for the control plane: Run calls it once
// every stage and chain is registered.
func (e *Engine) initControl() {
	e.startWall = time.Now()
	// The simulated manager's controller, with one parameter different: the
	// engine sees depth only at the tick, not how long a queue has been above
	// its watermark, so it throttles on the first over-watermark sample.
	e.bp = bp.NewController(bp.Params{QueueTimeThreshold: 0},
		len(e.stages), e.chains, bp.NewChainThrottles())
	e.bpObs = make([]bp.Observation, len(e.stages))
	e.byCore = make([][]*stage, e.cfg.Cores)
	for _, s := range e.stages {
		e.byCore[s.core] = append(e.byCore[s.core], s)
	}
}

// updateBackpressure samples every stage's receive queue against the
// watermarks, steps the backpressure controller, and applies what it
// decided: chain-entry gates, one journaled Decision per gate edge naming
// the stage that raised or released it with the depth observed there, and
// the upstream yield flags.
func (e *Engine) updateBackpressure() {
	for i, s := range e.stages {
		l := s.rx.Len()
		o := bp.Observation{AboveHigh: l >= e.highWater, BelowLow: l < e.lowWater, Depth: l}
		if s.rem != nil && s.rem.ecnActive.Load() {
			// The peer engine is congested (sustained ECN echoes): treat the
			// remote stage as over watermark regardless of local depth, so
			// the chain throttles at its origin before the pipe fills — the
			// paper's §3.4 cross-host backpressure. The signal also holds
			// the throttle (never below low) until the echoes quiesce.
			o.AboveHigh, o.BelowLow = true, false
		}
		e.bpObs[i] = o
	}
	for _, ed := range e.bp.Step(e.bpObs) {
		st := e.stages[ed.Stage]
		d := Decision{Kind: DecisionBPOff, Chain: ed.Chain,
			Stage: st.name, QueueDepth: e.bpObs[ed.Stage].Depth,
			HighWater: e.highWater, LowWater: e.lowWater}
		if ed.On {
			d.Kind = DecisionBPOn
			// A remote stage's throttle edge names its cause: the link
			// condition (credit exhaustion, peer ECN, outage) behind the
			// pressure, or "" for a plain deep queue.
			if st.rem != nil {
				d.Note = st.rem.bpCause()
			}
			e.ThrottleEvents.Add(1)
		}
		// Journal first: whoever observes the gate closed finds its cause
		// already recorded.
		e.record(d)
		e.throttled[ed.Chain].Store(ed.On)
	}
	for i, s := range e.stages {
		s.yield.Store(e.bp.Yield(i))
	}
}

// costUnit is the estimator's sample resolution, picoseconds per packet:
// whole nanoseconds would quantize a ~10 ns no-op stage by 10 %.
const costUnit = 1000

// updateWeights is the rate-cost proportional controller: each stage's
// measured handler time per packet since the last tick feeds its median
// estimator, load_i = λ_i·s_i is expressed in fractional cores, and the
// simulator's share function turns each core's loads into weights. elapsed
// is the time since the previous call.
func (e *Engine) updateWeights(now time.Time, elapsed time.Duration) {
	at := simtime.FromDuration(now.Sub(e.startWall))
	p := core.DefaultParams()
	for _, stages := range e.byCore {
		e.wDemands = e.wDemands[:0]
		for _, s := range stages {
			arr := s.arrivals.Load()
			busy := s.busyNanos.Load()
			proc := s.processed.Load()
			dArr := arr - s.lastArr
			dBusy := busy - s.lastBusy
			dProc := proc - s.lastProc
			s.lastArr, s.lastBusy, s.lastProc = arr, busy, proc
			if dProc > 0 {
				s.costEst.Observe(at, uint64(dBusy)*costUnit/dProc)
			}
			cost := float64(s.costEst.Median(at)) / costUnit // ns/packet
			s.estCost.Store(math.Float64bits(cost))
			e.wDemands = append(e.wDemands, core.Demand{
				Load: float64(dArr) * cost / float64(elapsed), Priority: 1})
		}
		e.wShares = core.Shares(e.wShares, e.wDemands, p.ShareScale, p.MinShare)
		for i, s := range stages {
			if e.wShares[i] == core.KeepShares {
				continue
			}
			w := int64(e.wShares[i])
			if old := s.weight.Swap(w); old != w {
				e.record(Decision{Kind: DecisionWeight, Chain: -1, Stage: s.name,
					Load: e.wDemands[i].Load, CostNanos: math.Float64frombits(s.estCost.Load()),
					OldWeight: old, NewWeight: w})
			}
		}
	}
}

// RegisterMetrics publishes the engine's counters, gauges and the end-to-end
// latency histogram into a telemetry registry. All backing values are
// atomic, so the registry may be gathered (scraped) live while the engine
// runs. Must be called before Run.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry) {
	if e.running.Load() {
		panic("dataplane: RegisterMetrics after Run")
	}
	for _, s := range e.stages {
		lbl := []telemetry.Label{
			telemetry.L("stage", s.name),
			telemetry.L("id", strconv.Itoa(s.id)),
			telemetry.L("core", strconv.Itoa(s.core)),
		}
		reg.CounterFunc("dataplane_stage_processed_total",
			"Packets processed by the stage.", s.processed.Load, lbl...)
		reg.CounterFunc("dataplane_stage_arrivals_total",
			"Packets offered to the stage (attempts, including drops).", s.arrivals.Load, lbl...)
		reg.CounterFunc("dataplane_stage_queue_drops_total",
			"Packets dropped at the stage's full receive ring.", s.drops.Load, lbl...)
		reg.CounterFunc("dataplane_stage_wasted_total",
			"Packets processed by the stage that died downstream (wasted work).", s.wasted.Load, lbl...)
		reg.CounterFunc("dataplane_stage_busy_nanoseconds_total",
			"Cumulative handler wall time.", func() uint64 { return uint64(s.busyNanos.Load()) }, lbl...)
		reg.GaugeFunc("dataplane_stage_weight",
			"Current scheduler weight (1024 = one default share).",
			func() float64 { return float64(s.weight.Load()) }, lbl...)
		reg.GaugeFunc("dataplane_stage_queue_depth",
			"Instantaneous receive-ring occupancy.",
			func() float64 { return float64(s.rx.Len()) }, lbl...)
		reg.GaugeFunc("dataplane_stage_health",
			"Supervision state: 0 healthy, 1 degraded, 2 failed, 3 restarting.",
			func() float64 { return float64(s.health.Load()) }, lbl...)
		reg.CounterFunc("dataplane_stage_restarts_total",
			"Supervised worker respawns after a crash or stall.", s.restarts.Load, lbl...)
		reg.CounterFunc("dataplane_stage_fault_drops_total",
			"Packets lost in this stage's crashes, stalls and failed-queue drains.",
			s.faultDrops.Load, lbl...)
		reg.CounterFunc("dataplane_stage_nf_drops_total",
			"Packets the handler discarded via Packet.Drop.", s.nfDrops.Load, lbl...)
	}
	for _, m := range e.movers {
		m := m
		lbl := []telemetry.Label{telemetry.L("mover", strconv.Itoa(m.id))}
		reg.CounterFunc("dataplane_mover_sweeps_total",
			"Drain passes the TX shard made over its stage partition.", m.sweeps.Load, lbl...)
		reg.CounterFunc("dataplane_mover_moved_total",
			"Packets the TX shard drained from its tx rings.", m.moved.Load, lbl...)
		reg.CounterFunc("dataplane_mover_parks_total",
			"Times the idle TX shard parked awaiting a wake signal.", m.parks.Load, lbl...)
		reg.CounterFunc("dataplane_mover_wakes_total",
			"Enqueue-side wake signals delivered to the parked TX shard.", m.wakes.Load, lbl...)
		reg.CounterFunc("dataplane_mover_lane_moved_total",
			"Packets the TX shard drained from its bound inject lanes.", m.laneMoved.Load, lbl...)
		reg.GaugeFunc("dataplane_mover_lanes",
			"Inject lanes currently bound to the TX shard.",
			func() float64 { return float64(len(*m.lanes.Load())) }, lbl...)
		reg.GaugeFunc("dataplane_mover_batch",
			"Current adaptive sweep batch of the TX shard.",
			func() float64 { return float64(m.curBatch.Load()) }, lbl...)
		reg.GaugeFunc("dataplane_mover_park_ratio",
			"Fraction of the TX shard's sweeps that ended in a park.",
			func() float64 {
				if sw := m.sweeps.Load(); sw > 0 {
					return float64(m.parks.Load()) / float64(sw)
				}
				return 0
			}, lbl...)
		reg.GaugeFunc("dataplane_mover_drain_per_sweep",
			"Mean packets drained per TX-shard sweep.",
			func() float64 {
				if sw := m.sweeps.Load(); sw > 0 {
					return float64(m.moved.Load()) / float64(sw)
				}
				return 0
			}, lbl...)
	}
	for ci := range e.chains {
		lbl := []telemetry.Label{telemetry.L("chain", strconv.Itoa(ci))}
		th := &e.throttled[ci]
		reg.GaugeFunc("dataplane_chain_throttled",
			"1 while the chain is shed at entry by backpressure.",
			func() float64 {
				if th.Load() {
					return 1
				}
				return 0
			}, lbl...)
	}
	reg.CounterFunc("dataplane_injected_total",
		"Packets accepted into a chain entry ring.", e.Injected.Load)
	reg.CounterFunc("dataplane_delivered_total",
		"Packets that completed their chains.", e.Delivered.Load)
	reg.CounterFunc("dataplane_entry_drops_total",
		"Packets shed at chain entry by backpressure.", e.EntryDrops.Load)
	reg.CounterFunc("dataplane_ring_drops_total",
		"Packets dropped at full stage receive rings (entry or mid-chain).", e.RingDrops.Load)
	reg.CounterFunc("dataplane_mid_ring_drops_total",
		"Accepted packets dropped at full mid-chain receive rings (subset of ring drops).", e.MidRingDrops.Load)
	reg.CounterFunc("dataplane_throttle_events_total",
		"Chain-throttle activations.", e.ThrottleEvents.Load)
	reg.CounterFunc("dataplane_fault_entry_drops_total",
		"Packets shed at the entry of a fail-closed chain with a Failed stage.",
		e.FaultEntryDrops.Load)
	reg.CounterFunc("dataplane_nf_drops_total",
		"Packets discarded by handlers via Packet.Drop.", e.NFDrops.Load)
	reg.CounterFunc("dataplane_fault_drops_total",
		"In-flight packets lost to stage crashes, stalls and failed-queue drains.",
		e.FaultDrops.Load)
	reg.CounterFunc("dataplane_shutdown_drops_total",
		"Accepted packets swept out of rings when Run wound down.",
		e.ShutdownDrops.Load)
	reg.CounterFunc("dataplane_late_drops_total",
		"Lane injects rejected, and lane leftovers swept, because Run had exited.", e.LateDrops.Load)
	reg.CounterFunc("dataplane_unrouted_drops_total",
		"Packets dropped at lane drain because their flow had no route.", e.UnroutedDrops.Load)
	reg.GaugeFunc("dataplane_watermark_packets",
		"Backpressure high watermark in packets.",
		func() float64 { return float64(e.highWater) }, telemetry.L("level", "high"))
	reg.GaugeFunc("dataplane_watermark_packets",
		"Backpressure low watermark in packets.",
		func() float64 { return float64(e.lowWater) }, telemetry.L("level", "low"))
	e.latHist = reg.Histogram("dataplane_latency_nanoseconds",
		"End-to-end sojourn time of delivered packets.")
	if r := e.rec; r != nil {
		reg.CounterFunc("dataplane_spans_sampled_total",
			"Flight-recorder spans started at inject.", r.sampled.Load)
		reg.CounterFunc("dataplane_spans_completed_total",
			"Flight-recorder spans that reached the output boundary.", r.completed.Load)
		reg.CounterFunc("dataplane_spans_aborted_total",
			"Flight-recorder spans whose packet was dropped mid-flight.", r.aborted.Load)
		reg.CounterFunc("dataplane_span_starved_total",
			"Sampler hits skipped because every span slab was in flight.", r.starved.Load)
		reg.CounterFunc("dataplane_span_spool_drops_total",
			"Completed spans discarded at a full spool.", r.spoolDrops.Load)
		e.hopService = make([]*telemetry.Histogram, len(e.stages))
		e.hopWait = make([]*telemetry.Histogram, len(e.stages))
		for _, s := range e.stages {
			lbl := []telemetry.Label{
				telemetry.L("stage", s.name),
				telemetry.L("id", strconv.Itoa(s.id)),
			}
			e.hopService[s.id] = reg.Histogram("dataplane_hop_service_nanoseconds",
				"Per-hop handler time of sampled packets.", lbl...)
			e.hopWait[s.id] = reg.Histogram("dataplane_hop_wait_nanoseconds",
				"Per-hop ring wait of sampled packets (previous move to dequeue).", lbl...)
		}
	}
	if j := e.journal; j != nil {
		reg.CounterFunc("dataplane_decisions_total",
			"Control-plane decisions appended to the journal.", j.Total)
		reg.CounterFunc("dataplane_decision_drops_total",
			"Journal records overwritten by ring wrap.", j.Dropped)
	}
	e.registerRemoteMetrics(reg)
}

// SetEventLog attaches a structured event log receiving backpressure
// transitions (info) and weight updates (debug). Must be called before Run.
func (e *Engine) SetEventLog(l *telemetry.EventLog) {
	if e.running.Load() {
		panic("dataplane: SetEventLog after Run")
	}
	e.events = l
}

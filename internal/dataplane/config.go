package dataplane

import (
	"errors"
	"time"
)

// Config tunes the runtime.
type Config struct {
	// Cores is the number of scheduler loops; stages are assigned to a
	// core with AddStageOn and contend only with co-resident stages, as
	// NFs pinned to CPU cores do (default 1).
	Cores int
	// Movers is the number of mover goroutines, the chain's ingress and
	// egress (the paper's manager RX and TX threads). Each drains the
	// inject lanes bound to it and owns a static partition of the stages'
	// tx rings — stage i belongs to mover i mod Movers — which hold only
	// packets that finished their chain, so every tx ring keeps a single
	// consumer and per-flow FIFO is preserved; mid-chain hops never pass
	// through a mover. 0 takes min(Cores, GOMAXPROCS). With Movers > 1 the
	// Sink callback may be invoked concurrently from multiple movers; with
	// Movers == 1 never.
	Movers int
	// BackpressurePeriod is the control plane's release cadence: how often
	// the watermark backpressure policy is stepped when no enqueuer has
	// asked for it. A queue crossing its high watermark is noticed by
	// whoever enqueues into it, which has the policy stepped at once; the
	// period paces what no enqueue announces — release at the low
	// watermark, the remote ECN windows — and is the fallback sample of
	// every queue (the paper's 1 ms interval; 0 takes the 1 ms default).
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

	// GrantTimeout bounds how long a granted stage may run its batch. The
	// control goroutine's watchdog detaches a stage that overruns it, within
	// one control tick, marks it Failed and gives the core a fresh loop
	// instead of letting the handler wedge it (0 takes the 100ms default;
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

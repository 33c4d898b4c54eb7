package dataplane

// The flight recorder's decision-journal half: every control-plane decision
// — backpressure edges, weight pushes, supervision transitions — is appended
// to a bounded ring as a structured record carrying its cause (queue depth
// against the watermarks, load×cost behind a weight, failure streak behind
// a restart), so "why did the engine throttle chain 2 at 14:03?" is
// answerable from the journal alone.
//
// Writers are the control goroutine (backpressure, weights, supervised
// restarts) and the scheduler goroutines (grant-deadline detach, panic
// fail, probation promotions) — all cold paths that fire on transitions,
// never per packet, so a short mutex-guarded critical section is fine and
// keeps readers trivially consistent. When the ring wraps, the oldest
// record is overwritten and counted in Dropped.

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"nfvnice/internal/telemetry"
)

// DecisionKind classifies a journal record.
type DecisionKind uint8

// Decision kinds.
const (
	// DecisionBPOn and DecisionBPOff are the chain-throttle edges of the
	// watermark backpressure machine (the paper's §3.2): the record names
	// the stage whose queue crossed the watermark and the depth it had.
	DecisionBPOn DecisionKind = iota
	DecisionBPOff
	// DecisionWeight is a rate-cost controller weight push (§3.3): the
	// record carries the load×cost inputs and the old→new weight.
	DecisionWeight
	// DecisionHealth is a supervision state transition (Healthy, Degraded,
	// Failed, Restarting) with the fault note when one caused it.
	DecisionHealth
	// DecisionRestart is a supervised stage restart after backoff.
	DecisionRestart
	// DecisionCircuitOpen marks a stage failed permanently after
	// MaxRestarts consecutive failures.
	DecisionCircuitOpen
	// DecisionChainDown and DecisionChainUp are the fail-closed entry
	// gate edges for chains through a Failed stage.
	DecisionChainDown
	DecisionChainUp
	// DecisionRemoteReconnect is a remote link recovering after an outage:
	// the record carries the peer address and how many dials it took.
	DecisionRemoteReconnect
	// DecisionRemoteCircuitOpen is a remote link declared dead after
	// MaxDials consecutive failed dials.
	DecisionRemoteCircuitOpen
)

func (k DecisionKind) String() string {
	switch k {
	case DecisionBPOn:
		return "bp_on"
	case DecisionBPOff:
		return "bp_off"
	case DecisionWeight:
		return "weight"
	case DecisionHealth:
		return "health"
	case DecisionRestart:
		return "restart"
	case DecisionCircuitOpen:
		return "circuit_open"
	case DecisionChainDown:
		return "chain_down"
	case DecisionChainUp:
		return "chain_up"
	case DecisionRemoteReconnect:
		return "remote_reconnect"
	case DecisionRemoteCircuitOpen:
		return "remote_circuit_open"
	default:
		return "?"
	}
}

// MarshalJSON renders the kind as its string name.
func (k DecisionKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// Decision is one control-plane decision with its cause. Fields irrelevant
// to a kind are zero and omitted from JSON; Chain is -1 when the decision
// is not chain-scoped.
type Decision struct {
	// Seq is the journal-assigned monotonic sequence number; TimeUnixNanos
	// the wall-clock append time.
	Seq           uint64 `json:"seq"`
	TimeUnixNanos int64  `json:"t_ns"`

	Kind  DecisionKind `json:"kind"`
	Chain int          `json:"chain"`
	Stage string       `json:"stage,omitempty"`

	// Backpressure cause: the observed queue depth against the watermarks —
	// for a bp_on, the deeper of what the enqueuer (lane drain or grant)
	// posted and what the ring held at decision time.
	QueueDepth int `json:"qdepth,omitempty"`
	HighWater  int `json:"high_water,omitempty"`
	LowWater   int `json:"low_water,omitempty"`

	// Weight cause: the stage's load (arrival rate × cost, in fractional
	// cores) and median per-packet cost estimate behind the push.
	Load      float64 `json:"load,omitempty"`
	CostNanos float64 `json:"cost_ns,omitempty"`
	OldWeight int64   `json:"old_weight,omitempty"`
	NewWeight int64   `json:"new_weight,omitempty"`

	// Supervision cause: the health edge and the fault or context note
	// ("panic: ...", "stall: grant deadline exceeded", failure streak).
	From     string `json:"from,omitempty"`
	To       string `json:"to,omitempty"`
	Failures int    `json:"failures,omitempty"`
	Note     string `json:"note,omitempty"`

	// Peer is the remote link's peer address on remote_* records.
	Peer string `json:"peer,omitempty"`
}

// DecisionJournal is a bounded, overwrite-oldest ring of decisions.
type DecisionJournal struct {
	mu    sync.Mutex
	buf   []Decision
	next  uint64 // total appends; buf[(next-1) % len] is the newest
	drops uint64
}

// NewDecisionJournal returns a journal retaining the last size decisions
// (minimum 16).
func NewDecisionJournal(size int) *DecisionJournal {
	if size < 16 {
		size = 16
	}
	return &DecisionJournal{buf: make([]Decision, 0, size)}
}

// Append records a decision, stamping its sequence number and (if unset)
// its time.
func (j *DecisionJournal) Append(d Decision) {
	if d.TimeUnixNanos == 0 {
		d.TimeUnixNanos = time.Now().UnixNano()
	}
	j.mu.Lock()
	d.Seq = j.next
	if len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, d)
	} else {
		j.buf[j.next%uint64(cap(j.buf))] = d
		j.drops++
	}
	j.next++
	j.mu.Unlock()
}

// Total reports how many decisions were ever appended; Dropped how many
// were overwritten by ring wrap.
func (j *DecisionJournal) Total() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Dropped reports decisions lost to ring wrap.
func (j *DecisionJournal) Dropped() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.drops
}

// Tail returns up to n of the most recent decisions, oldest first.
// n <= 0 returns everything retained.
func (j *DecisionJournal) Tail(n int) []Decision {
	return j.Filter(n, func(Decision) bool { return true })
}

// Filter returns up to n of the most recent decisions matching keep,
// oldest first (n <= 0: no limit).
func (j *DecisionJournal) Filter(n int, keep func(Decision) bool) []Decision {
	j.mu.Lock()
	defer j.mu.Unlock()
	held := len(j.buf)
	out := make([]Decision, 0, held)
	for i := 0; i < held; i++ {
		// Oldest-first scan: once full, the oldest record sits at
		// next % cap (which is index 0 until the first overwrite).
		idx := i
		if held == cap(j.buf) {
			idx = int((j.next + uint64(i)) % uint64(held))
		}
		if d := j.buf[idx]; keep(d) {
			out = append(out, d)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// record appends to the engine's journal, if one is enabled, and derives the
// decision's event-log line from the same record, so the two views of the
// control plane cannot disagree. Callers are all transition-rate (not
// packet-rate) paths.
func (e *Engine) record(d Decision) {
	if e.journal != nil {
		e.journal.Append(d)
	}
	if e.events == nil {
		return
	}
	switch d.Kind {
	case DecisionBPOn:
		fields := []telemetry.Field{
			telemetry.F("chain", d.Chain), telemetry.F("stage", d.Stage),
			telemetry.F("qdepth", d.QueueDepth), telemetry.F("high_water", d.HighWater),
		}
		if d.Note != "" {
			fields = append(fields, telemetry.F("cause", d.Note))
		}
		e.emit(telemetry.LevelInfo, "bp_on", fields...)
	case DecisionBPOff:
		e.emit(telemetry.LevelInfo, "bp_off",
			telemetry.F("chain", d.Chain), telemetry.F("stage", d.Stage),
			telemetry.F("qdepth", d.QueueDepth), telemetry.F("low_water", d.LowWater))
	case DecisionWeight:
		e.emit(telemetry.LevelDebug, "weight",
			telemetry.F("stage", d.Stage), telemetry.F("weight", d.NewWeight))
	case DecisionHealth:
		e.emit(telemetry.LevelInfo, "stage_health",
			telemetry.F("stage", d.Stage), telemetry.F("state", d.To))
	case DecisionCircuitOpen:
		e.emit(telemetry.LevelWarn, "stage_circuit_open",
			telemetry.F("stage", d.Stage), telemetry.F("failures", d.Failures))
	case DecisionChainDown:
		e.emit(telemetry.LevelInfo, "chain_failclosed",
			telemetry.F("chain", d.Chain), telemetry.F("state", "down"))
	case DecisionChainUp:
		e.emit(telemetry.LevelInfo, "chain_failclosed",
			telemetry.F("chain", d.Chain), telemetry.F("state", "up"))
	case DecisionRemoteReconnect:
		e.emit(telemetry.LevelInfo, "remote_reconnect",
			telemetry.F("stage", d.Stage), telemetry.F("peer", d.Peer),
			telemetry.F("attempts", d.Failures))
	case DecisionRemoteCircuitOpen:
		e.emit(telemetry.LevelWarn, "remote_circuit_open",
			telemetry.F("stage", d.Stage), telemetry.F("peer", d.Peer),
			telemetry.F("failures", d.Failures))
	}
}

// Decisions exposes the engine's decision journal (nil when disabled via
// Config.DecisionJournalSize < 0).
func (e *Engine) Decisions() *DecisionJournal { return e.journal }

// ServeHTTP answers decision queries:
//
//	GET /debug/decisions?chain=2&stage=nat&kind=bp_on&n=50
//
// All parameters are optional filters; n bounds the reply to the most
// recent matches. kind matches exactly or as an underscore-delimited prefix,
// so kind=remote selects remote_reconnect and remote_circuit_open together.
// The reply is {"total":…,"dropped":…,"decisions":[…]}, oldest first.
func (j *DecisionJournal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	chain, haveChain := -1, false
	if v := q.Get("chain"); v != "" {
		if c, err := strconv.Atoi(v); err == nil {
			chain, haveChain = c, true
		}
	}
	stage := q.Get("stage")
	kind := q.Get("kind")
	n := 0
	if v := q.Get("n"); v != "" {
		if k, err := strconv.Atoi(v); err == nil {
			n = k
		}
	}
	ds := j.Filter(n, func(d Decision) bool {
		if haveChain && d.Chain != chain {
			return false
		}
		if stage != "" && d.Stage != stage {
			return false
		}
		if kind != "" {
			k := d.Kind.String()
			if k != kind && !strings.HasPrefix(k, kind+"_") {
				return false
			}
		}
		return true
	})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Total     uint64     `json:"total"`
		Dropped   uint64     `json:"dropped"`
		Decisions []Decision `json:"decisions"`
	}{j.Total(), j.Dropped(), ds})
}

// AddDebugEndpoints mounts the engine's flight-recorder debug surfaces on
// the mux: /debug/decisions (the decision journal query endpoint, when the
// journal is enabled) and /debug/spans (the span recorder's counters).
func (e *Engine) AddDebugEndpoints(mux *http.ServeMux) {
	if e.journal != nil {
		mux.Handle("/debug/decisions", e.journal)
	}
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(e.SpanStats())
	})
}

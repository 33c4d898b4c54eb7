// Package obs records simulator timelines in the Chrome trace-event format
// (the JSON array flavour), so a platform run can be opened in Perfetto or
// chrome://tracing: per-core swimlanes of NF run spans, instant markers for
// backpressure transitions, and counter tracks for cgroup weight updates.
package obs

import "nfvnice/internal/simtime"

// TimeUnit scales a sink's raw timestamps into the trace format's
// microseconds. Producers hand in either simulated cycles (the simulator's
// simtime.Cycles, the zero-value default) or wall-clock nanoseconds (the
// live dataplane's flight recorder: cast the int64 nanos to simtime.Cycles
// and set UnitNanos on the sink). One writer therefore serves both sides.
type TimeUnit float64

const (
	// UnitCycles interprets timestamps as simtime.Cycles (the default; the
	// zero TimeUnit behaves identically).
	UnitCycles = TimeUnit(1) / TimeUnit(simtime.Microsecond)
	// UnitNanos interprets timestamps as wall-clock nanoseconds.
	UnitNanos TimeUnit = 1.0 / 1000
)

// toUS converts a raw timestamp to trace microseconds under the unit.
func (u TimeUnit) toUS(c simtime.Cycles) float64 {
	if u == 0 {
		u = UnitCycles
	}
	return float64(c) * float64(u)
}

// event is one Chrome trace event (subset of the spec we emit).
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

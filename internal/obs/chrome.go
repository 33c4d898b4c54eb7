package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"nfvnice/internal/simtime"
)

// Sink receives trace instrumentation points: what the simulator's hooks and
// the live engine's span adapter are written against. ChromeWriter is the
// package's one implementation.
type Sink interface {
	RunSpan(core int, task string, start, end simtime.Cycles)
	Instant(name string, now simtime.Cycles, args map[string]any)
	Counter(name string, now simtime.Cycles, value float64)
}

var _ Sink = (*ChromeWriter)(nil)

// ChromeWriter emits Chrome trace events incrementally to an io.Writer
// instead of buffering them, so arbitrarily long runs never hit a retention
// cap and silently drop. Events are written in emission order; trace viewers
// (Perfetto, chrome://tracing) do not require timestamp ordering. Safe for
// concurrent producers. Call Close to terminate the JSON array; viewers
// tolerate a missing terminator if the process dies first.
type ChromeWriter struct {
	mu     sync.Mutex
	w      io.Writer
	enc    *json.Encoder
	unit   TimeUnit
	n      int
	err    error
	closed bool
}

// NewChromeWriter returns a writer streaming the JSON-array trace format to w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	cw := &ChromeWriter{w: w, enc: json.NewEncoder(w)}
	cw.enc.SetEscapeHTML(false)
	return cw
}

// SetUnit selects the timestamp base for subsequent events (the zero value
// is UnitCycles, the simulator's clock; the live dataplane sets UnitNanos
// and passes wall-clock nanoseconds cast to simtime.Cycles). Returns the
// writer for chaining: obs.NewChromeWriter(f).SetUnit(obs.UnitNanos).
func (c *ChromeWriter) SetUnit(u TimeUnit) *ChromeWriter {
	c.mu.Lock()
	c.unit = u
	c.mu.Unlock()
	return c
}

// timeUnit reads the configured unit under the lock.
func (c *ChromeWriter) timeUnit() TimeUnit {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.unit
}

func (c *ChromeWriter) emit(e event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || c.closed {
		return
	}
	if c.n == 0 {
		if _, err := io.WriteString(c.w, "[\n"); err != nil {
			c.err = err
			return
		}
	} else {
		if _, err := io.WriteString(c.w, ","); err != nil {
			c.err = err
			return
		}
	}
	if err := c.enc.Encode(&e); err != nil {
		c.err = fmt.Errorf("obs: %w", err)
		return
	}
	c.n++
}

// RunSpan streams a task execution span on a core.
func (c *ChromeWriter) RunSpan(core int, task string, start, end simtime.Cycles) {
	if end <= start {
		return
	}
	u := c.timeUnit()
	c.emit(event{
		Name: task,
		Cat:  "run",
		Ph:   "X",
		TS:   u.toUS(start),
		Dur:  u.toUS(end - start),
		PID:  0,
		TID:  core,
	})
}

// Instant streams a point event on the control lane.
func (c *ChromeWriter) Instant(name string, now simtime.Cycles, args map[string]any) {
	c.emit(event{
		Name: name,
		Cat:  "control",
		Ph:   "i",
		TS:   c.timeUnit().toUS(now),
		PID:  0,
		TID:  1000,
		S:    "g",
		Args: args,
	})
}

// Counter streams a named counter sample.
func (c *ChromeWriter) Counter(name string, now simtime.Cycles, value float64) {
	c.emit(event{
		Name: name,
		Ph:   "C",
		TS:   c.timeUnit().toUS(now),
		PID:  0,
		TID:  0,
		Args: map[string]any{"value": value},
	})
}

// Len reports events written so far.
func (c *ChromeWriter) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Err reports the first write error, if any; once set, further events are
// discarded.
func (c *ChromeWriter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close terminates the JSON array. Further events are discarded.
func (c *ChromeWriter) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	c.closed = true
	if c.err != nil {
		return c.err
	}
	terminator := "]\n"
	if c.n == 0 {
		terminator = "[]\n"
	}
	if _, err := io.WriteString(c.w, terminator); err != nil {
		c.err = err
	}
	return c.err
}

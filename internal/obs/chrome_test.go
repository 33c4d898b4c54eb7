package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nfvnice/internal/simtime"
)

func decodeTrace(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var evs []map[string]any
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	return evs
}

func TestChromeWriterStreams(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)

	cw.RunSpan(0, "nf-a", 0, 2600)
	before := buf.Len()
	cw.Instant("bp-throttle", 2600, map[string]any{"nf": "nf-a"})
	if buf.Len() <= before {
		t.Error("Instant did not stream incrementally")
	}
	cw.Counter("shares:nf-a", 5200, 512)
	cw.RunSpan(1, "zero-span", 100, 100) // dropped: zero duration

	if err := cw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if cw.Len() != 3 {
		t.Errorf("Len = %d, want 3", cw.Len())
	}

	evs := decodeTrace(t, buf.Bytes())
	if len(evs) != 3 {
		t.Fatalf("decoded %d events, want 3", len(evs))
	}
	span := evs[0]
	if span["name"] != "nf-a" || span["ph"] != "X" || span["tid"] != float64(0) {
		t.Errorf("span event = %v", span)
	}
	if span["dur"] != float64(1) { // 2600 cycles = 1 µs at 2.6 GHz
		t.Errorf("span dur = %v, want 1", span["dur"])
	}
	if inst := evs[1]; inst["ph"] != "i" || inst["s"] != "g" {
		t.Errorf("instant event = %v", inst)
	}
	if ctr := evs[2]; ctr["ph"] != "C" {
		t.Errorf("counter event = %v", ctr)
	}

	// Close is idempotent and stops accepting events.
	cw.Counter("late", 0, 1)
	if err := cw.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if cw.Len() != 3 {
		t.Errorf("events accepted after Close: %d", cw.Len())
	}
}

func TestChromeWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty trace = %q, want []", got)
	}
}

func TestChromeWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				cw.RunSpan(g, "t", simtime.Cycles(i*100), simtime.Cycles(i*100+50))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if evs := decodeTrace(t, buf.Bytes()); len(evs) != 800 {
		t.Errorf("decoded %d events, want 800", len(evs))
	}
}

// TestChromeWriterUnitNanos pins the wall-clock mode used by the live
// dataplane's flight recorder: with UnitNanos, timestamps fed as nanoseconds
// come out as microseconds in the trace (ts/dur are µs by Chrome convention).
func TestChromeWriterUnitNanos(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf).SetUnit(UnitNanos)
	cw.RunSpan(0, "hop", 1000, 3000) // 1 µs .. 3 µs wall clock
	cw.Instant("deliver", 3000, nil)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, buf.Bytes())
	if len(evs) != 2 {
		t.Fatalf("decoded %d events, want 2", len(evs))
	}
	if ts, dur := evs[0]["ts"], evs[0]["dur"]; ts != float64(1) || dur != float64(2) {
		t.Errorf("nanos span ts=%v dur=%v, want 1 and 2 µs", ts, dur)
	}
	if ts := evs[1]["ts"]; ts != float64(3) {
		t.Errorf("nanos instant ts=%v, want 3 µs", ts)
	}
	// The zero value stays cycle-denominated (simulator compatibility).
	var buf2 bytes.Buffer
	cw2 := NewChromeWriter(&buf2)
	cw2.RunSpan(0, "hop", 0, 2600)
	cw2.Close()
	if evs := decodeTrace(t, buf2.Bytes()); evs[0]["dur"] != float64(1) {
		t.Errorf("default unit dur=%v, want 1 µs for 2600 cycles", evs[0]["dur"])
	}
}

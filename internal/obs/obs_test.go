package obs

import (
	"bytes"
	"testing"
)

func TestRunSpanAndWrite(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	cw.RunSpan(0, "nf1", 2600, 5200) // 1µs..2µs
	cw.RunSpan(1, "nf2", 0, 2600)
	cw.Instant("bp-throttle", 5200, map[string]any{"nf": "nf1"})
	cw.Counter("shares:nf1", 5200, 4096)
	if cw.Len() != 4 {
		t.Fatalf("Len = %d", cw.Len())
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, buf.Bytes())
	if len(evs) != 4 {
		t.Fatalf("decoded %d events", len(evs))
	}
	// Emission order, not timestamp order: nf1's span (ts=1) stays first.
	if evs[0]["name"] != "nf1" || evs[1]["name"] != "nf2" {
		t.Fatalf("events reordered: %v, %v", evs[0]["name"], evs[1]["name"])
	}
	// Span start and duration in microseconds.
	if ts, dur := evs[0]["ts"], evs[0]["dur"]; ts != 1.0 || dur != 1.0 {
		t.Fatalf("nf1 ts=%v dur=%v µs, want 1 and 1", ts, dur)
	}
	if nf := evs[2]["args"].(map[string]any)["nf"]; nf != "nf1" {
		t.Fatalf("instant args nf = %v", nf)
	}
	if v := evs[3]["args"].(map[string]any)["value"]; v != 4096.0 {
		t.Fatalf("counter value = %v", v)
	}
}

func TestZeroLengthSpanSkipped(t *testing.T) {
	cw := NewChromeWriter(new(bytes.Buffer))
	cw.RunSpan(0, "x", 100, 100)
	cw.RunSpan(0, "x", 100, 50)
	if cw.Len() != 0 {
		t.Fatal("degenerate spans recorded")
	}
}

func TestEmptyTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := NewChromeWriter(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	if evs := decodeTrace(t, buf.Bytes()); len(evs) != 0 {
		t.Fatalf("empty trace decoded to %d events", len(evs))
	}
}

package dataplane

import (
	"runtime"
	"testing"
	"time"
)

// Shared ingress helpers for the tests. A lane's acceptance only means the
// packet will be offered to its chain; what became of it is read from the
// ledger. So tests count what their handles accepted and compare that with
// the ledger's outcome classes, instead of reading a return value as "shed".

// offer pushes p through h, yielding while the lane is full. It reports
// false — the caller still owns p — only when the lane will never take the
// packet: the handle is closed or Run has exited.
func offer(h *ProducerHandle, p *Packet) bool {
	for !h.Inject(p) {
		if h.lane.closed.Load() || h.e.stopped.Load() {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// preAccepted sums the classes a lane-accepted packet lands in when the
// chain entry does not take it (see lanes.go).
func preAccepted(l Ledger) uint64 {
	return l.EntryDrops + l.FaultEntryDrops + (l.RingDrops - l.MidRingDrops) +
		l.UnroutedDrops + l.LateDrops
}

// outstanding is how many of the offered (lane-accepted) packets have no
// outcome in the ledger yet: still in a lane, in a mover's hands, or in
// flight through the chains. It is exact wherever the packets sit, which a
// sum of Residual() and lane lengths is not while a mover holds a batch.
func outstanding(e *Engine, offered int) int {
	l := e.LedgerSnapshot()
	return offered - int(preAccepted(l)+l.Accounted())
}

// pace blocks while limit or more of the offered packets are outstanding —
// the closed loop that keeps a test's load admissible on any number of
// CPUs, where Gosched lock-step only worked on one.
func pace(e *Engine, offered, limit int) {
	for outstanding(e, offered) >= limit {
		runtime.Gosched()
	}
}

// settle waits until every offered packet has an outcome.
func settle(tb testing.TB, e *Engine, offered int) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for outstanding(e, offered) != 0 {
		if time.Now().After(deadline) {
			tb.Fatalf("pipeline did not settle: %d of %d offered packets outstanding, ledger %+v",
				outstanding(e, offered), offered, e.LedgerSnapshot())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Offer exports offer to the external test package (chaos_test.go and
// remote_test.go live there because internal/faults imports this package).
var Offer = offer

// PreAccepted exports preAccepted likewise.
var PreAccepted = preAccepted

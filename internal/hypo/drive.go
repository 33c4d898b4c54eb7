package hypo

// Shared engine-driving plumbing for the experiments: chain topology
// builders, paced injection, quiescence waits, and journal queries. The
// experiments drive the real internal/dataplane engine — no simulation.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"nfvnice/internal/dataplane"
)

// engineRun wraps a running engine with its shutdown plumbing.
type engineRun struct {
	e      *dataplane.Engine
	cancel context.CancelFunc
	done   chan struct{}
}

// start launches Run on a fresh goroutine.
func start(e *dataplane.Engine) *engineRun {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	return &engineRun{e: e, cancel: cancel, done: done}
}

// stop cancels Run and waits for it to return (bounded).
func (r *engineRun) stop(timeout time.Duration) error {
	r.cancel()
	select {
	case <-r.done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("hypo: Run did not return within %v", timeout)
	}
}

// buildChains adds n linear chains of hops stages each and maps flow i to
// chain i. handler(chain, hop) supplies each stage's handler. Returns the
// chain ids.
func buildChains(e *dataplane.Engine, n, hops int, handler func(chain, hop int) dataplane.Handler) []int {
	chains := make([]int, n)
	for c := 0; c < n; c++ {
		ids := make([]int, hops)
		for h := 0; h < hops; h++ {
			ids[h] = e.AddStage(fmt.Sprintf("c%d.s%d", c, h), 1024, handler(c, h))
		}
		ch, err := e.AddChain(ids...)
		if err != nil {
			panic(err)
		}
		e.MapFlow(c, ch)
		chains[c] = ch
	}
	return chains
}

// outstanding is how many of the offered packets — the ones a producer lane
// accepted — have no outcome in the ledger yet: still in a lane, in a
// mover's hands, or in flight through the chains. A lane's acceptance only
// promises the packet will be offered to its chain; what became of it is
// read here, from the pre-acceptance drop classes plus the post-acceptance
// identity. Exact wherever the packets sit (which Residual() plus lane
// lengths is not while a mover holds a drained batch), provided offered
// counts everything any producer of this engine got accepted.
func outstanding(e *dataplane.Engine, offered int) int {
	l := e.LedgerSnapshot()
	return offered - int(preAccepted(l)+l.Accounted())
}

// unrouted is how many of the offered packets have not reached their chain
// entry yet — still in a lane or in a mover's hands — as opposed to
// outstanding, which also counts the ones in flight through the chains.
func unrouted(e *dataplane.Engine, offered int) int {
	l := e.LedgerSnapshot()
	return offered - int(preAccepted(l)+l.Injected)
}

// preAccepted sums the classes a lane-accepted packet lands in when its
// chain entry does not take it.
func preAccepted(l dataplane.Ledger) uint64 {
	return l.EntryDrops + l.FaultEntryDrops + (l.RingDrops - l.MidRingDrops) +
		l.UnroutedDrops + l.LateDrops
}

// offerPaced waits until fewer than inflight of the sent packets are
// outstanding (admissible load: queues stay bounded by construction), then
// lets fill stamp a fresh descriptor and offers it through h, retrying a
// full lane. It reports false if the deadline passes first.
func offerPaced(e *dataplane.Engine, h *dataplane.ProducerHandle, sent, inflight int,
	deadline time.Time, fill func(p *dataplane.Packet)) bool {
	for outstanding(e, sent) >= inflight {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	p := e.GetPacket()
	fill(p)
	for !h.Inject(p) {
		if time.Now().After(deadline) {
			e.PutPacket(p)
			return false
		}
		runtime.Gosched()
	}
	return true
}

// injectPaced pushes total packets round-robin across flows through one
// producer lane, keeping at most inflight of them outstanding. Returns
// false if the deadline passes first.
func injectPaced(e *dataplane.Engine, flows, total, inflight int, deadline time.Time) bool {
	h := e.ProducerHandle(0)
	defer h.Close()
	for sent := 0; sent < total; sent++ {
		ok := offerPaced(e, h, sent, inflight, deadline, func(p *dataplane.Packet) {
			p.FlowID = sent % flows
			p.Size = 64
		})
		if !ok {
			return false
		}
	}
	return true
}

// waitSettled polls until every one of the offered packets has an outcome
// in the ledger or the deadline passes.
func waitSettled(e *dataplane.Engine, offered int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if outstanding(e, offered) == 0 {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// journalCount counts journal records matching pred (0 when the journal is
// disabled).
func journalCount(e *dataplane.Engine, pred func(dataplane.Decision) bool) int {
	j := e.Decisions()
	if j == nil {
		return 0
	}
	return len(j.Filter(0, pred))
}

// depthSampler polls every stage's queue depth in the background and tracks
// the global maximum. Stop it before reading Max.
type depthSampler struct {
	e    *dataplane.Engine
	stop chan struct{}
	done chan struct{}
	max  int
}

func sampleDepths(e *dataplane.Engine) *depthSampler {
	s := &depthSampler{e: e, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var buf []int
		for {
			select {
			case <-s.stop:
				return
			case <-time.After(500 * time.Microsecond):
			}
			buf = s.e.QueueDepths(buf)
			for _, d := range buf {
				if d > s.max {
					s.max = d
				}
			}
		}
	}()
	return s
}

func (s *depthSampler) Stop() int {
	close(s.stop)
	<-s.done
	return s.max
}

// check builds a passing or failing Check; detail is only attached on
// failure (canonical output stays byte-stable across passing runs).
func check(name string, pass bool, detailFmt string, args ...any) Check {
	c := Check{Name: name, Pass: pass}
	if !pass {
		c.Detail = fmt.Sprintf(detailFmt, args...)
	}
	return c
}

// mix is splitmix64 (same finalizer internal/faults uses), for deriving
// per-chain injector seeds from the run seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

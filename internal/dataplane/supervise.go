package dataplane

// Supervision: the NF-Manager liveness layer around stage handlers.
//
// The paper's NF Manager assumes misbehaving NFs are contained — overload
// is managed (backpressure, early discard), never fatal. This file gives
// the live goroutine dataplane the same property:
//
//   - A handler panic fails only its stage: the grant recovers it, charges
//     the in-flight chunk to the fault ledger and returns, and the core
//     loop marks the stage Failed and moves on.
//   - A handler that blocks past Config.GrantTimeout cannot wedge its
//     core: the control goroutine's watchdog (sched.go) takes the overdue
//     grant from the core loop with one CAS on the loop's grant stamp,
//     *detaches* the stage — its epoch is bumped so the stale incarnation
//     discovers it on wake, and its in-flight packets are claimed via an
//     atomic Swap of the incarnation's inflight counter — and starts a
//     replacement core loop. Exactly one side (the grant, the watchdog, or
//     the shutdown sweep) wins the Swap and owns the accounting, so no
//     packet is double-counted or lost.
//   - Failed stages restart with exponential backoff plus seeded jitter
//     under a max-restart circuit breaker; a restarted stage re-earns
//     Healthy through a probation of clean grants (Restarting → Degraded
//     → Healthy).
//   - Chains through a Failed stage follow a per-chain policy: FailClosed
//     sheds at chain entry (reusing the backpressure gate shape, charged
//     to FaultEntryDrops), FailOpen bypasses the dead hop in the upstream
//     grant's forward.
//
// Goroutines cannot be killed, so a truly wedged core loop leaks until its
// handler returns; the circuit breaker bounds the leak, and every structure
// the old loop might touch on wake is either guarded by the CAS it lost
// (scheduler state), epoch-guarded, per-incarnation (scratch batch,
// inflight), or safe under an extra producer (the MPMC tx ring). A restart
// can re-enter a handler that is still wedged in the detached loop, as any
// restart of a stalled NF does; a detached loop never starts its handler
// again.

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"nfvnice/internal/remote"
	"nfvnice/internal/ring"
	"nfvnice/internal/telemetry"
)

// Health is a stage's supervision state.
type Health int32

// Health states. Every state but Failed is schedulable.
const (
	// Healthy: normal operation.
	Healthy Health = iota
	// Degraded: restarted and on probation; a run of clean grants
	// promotes the stage back to Healthy.
	Degraded
	// Failed: crashed or stalled; waiting out restart backoff, or down
	// permanently once the circuit breaker opens.
	Failed
	// Restarting: a fresh incarnation was installed and has yet to
	// complete its first grant.
	Restarting
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	case Restarting:
		return "restarting"
	default:
		return "?"
	}
}

// FailPolicy selects a chain's degradation mode while one of its stages is
// Failed.
type FailPolicy uint8

const (
	// FailClosed sheds the chain's packets at entry (the paper's
	// drop-early ethos: don't invest work in packets that cannot finish).
	FailClosed FailPolicy = iota
	// FailOpen forwards past the dead hop, trading the failed stage's
	// processing for chain availability.
	FailOpen
)

// probationGrants is how many clean grants a Degraded stage must complete
// to be promoted back to Healthy (resetting the failure streak).
const probationGrants = 8

// restartNever marks a circuit-open stage: no restart will be scheduled.
const restartNever = int64(math.MaxInt64)

// restartBackoffMax caps the exponential restart schedule (see
// restartBackoff).
const restartBackoffMax = 500 * time.Millisecond

// workerKind distinguishes stage incarnations by what their stage's
// handler does with packets.
type workerKind uint8

const (
	// workerLocal runs an ordinary NF handler.
	workerLocal workerKind = iota
	// workerRemote ships packets onto a remote link (see remote.go). Remote
	// incarnations skip grant probation — the link state machine, not clean
	// grants, decides the stage's health — and their handler never blocks,
	// so the grant-deadline detach path is effectively unreachable for them.
	workerRemote
)

// workerCtx is one incarnation of a stage: what its grants run with. Restart
// replaces the whole context, so a stale incarnation can never share
// scratch or the inflight counter with its replacement.
type workerCtx struct {
	// epoch identifies the incarnation; stage.epoch moves past it when
	// the incarnation is detached.
	epoch uint64
	// kind is the incarnation's handler class (local NF or remote link).
	kind workerKind
	// batch is the incarnation's dequeue scratch.
	batch []*Packet
	// inflight is the chunk ownership arbiter: the grant publishes the
	// chunk size before running handlers; whoever Swap()s it to zero owns
	// the accounting for those packets.
	inflight atomic.Int64
	// okGrants counts clean grants since (re)start; owned by the loop of
	// the stage's core.
	okGrants int
}

// newIncarnation installs a fresh incarnation for the stage. The epoch bump
// precedes the pointer swap so a previous incarnation still inside its
// handler observes it is stale before it can start another chunk.
func (e *Engine) newIncarnation(s *stage) {
	kind := workerLocal
	if s.rem != nil {
		kind = workerRemote
	}
	s.w.Store(&workerCtx{
		epoch: s.epoch.Add(1),
		kind:  kind,
		batch: make([]*Packet, e.cfg.BatchSize),
	})
}

// decInflight claims one unit from an incarnation's inflight counter,
// reporting false when a detach (or the shutdown sweep) already claimed the
// remainder.
func decInflight(v *atomic.Int64) bool {
	for {
		cur := v.Load()
		if cur <= 0 {
			return false
		}
		if v.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// panicString renders a recovered panic value (cold path).
func panicString(r any) string { return fmt.Sprint(r) }

// emit forwards an event to the attached event log, if any. Decisions reach
// it through record; direct callers are the events with no journal record.
func (e *Engine) emit(lvl telemetry.Level, typ string, fields ...telemetry.Field) {
	if e.events != nil {
		e.events.Emit(time.Since(e.startWall).Seconds(), lvl, typ, fields...)
	}
}

// setHealth transitions a stage's health state, recording the change.
func (e *Engine) setHealth(s *stage, h Health) {
	e.setHealthNote(s, h, "")
}

// setHealthNote is setHealth with a cause note (panic message, stall) that
// rides along in the decision journal.
func (e *Engine) setHealthNote(s *stage, h Health, note string) {
	if from := Health(s.health.Swap(int32(h))); from != h {
		e.record(Decision{Kind: DecisionHealth, Chain: -1, Stage: s.name,
			From: from.String(), To: h.String(),
			Failures: int(s.consecFails.Load()), Note: note})
	}
}

// detachStage abandons an incarnation whose grant overran the deadline:
// the epoch bump makes the incarnation stale, and the inflight Swap claims
// whatever chunk it was holding for the fault ledger (if the grant
// completes the chunk concurrently, exactly one side wins the Swap).
func (e *Engine) detachStage(s *stage, w *workerCtx) {
	s.epoch.Add(1)
	if k := w.inflight.Swap(0); k > 0 {
		e.FaultDrops.Add(uint64(k))
		s.faultDrops.Add(uint64(k))
	}
	e.failStage(s, "stall", "grant deadline exceeded")
}

// failStage marks a stage Failed, schedules its restart (or opens the
// circuit breaker), and applies chain degradation policies. Called from the
// loop of the stage's core, or from the watchdog.
func (e *Engine) failStage(s *stage, kind, msg string) {
	fails := int(s.consecFails.Add(1))
	if e.cfg.MaxRestarts >= 0 && fails > e.cfg.MaxRestarts {
		s.restartAtNanos.Store(restartNever)
		e.record(Decision{Kind: DecisionCircuitOpen, Chain: -1, Stage: s.name,
			Failures: fails, Note: kind + ": " + msg})
	} else {
		s.restartAtNanos.Store(time.Now().UnixNano() + e.restartBackoff(fails).Nanoseconds())
	}
	e.setHealthNote(s, Failed, kind+": "+msg)
	// Raise the gate only after the state is visible: supervise re-reads
	// every stage's health after it clears the gate, so one of the two
	// always sees the other (see supervise).
	e.anyFaulty.Store(true)
	e.recomputeChainsDown()
	e.emit(telemetry.LevelWarn, "stage_fault",
		telemetry.F("stage", s.name), telemetry.F("kind", kind),
		telemetry.F("msg", msg), telemetry.F("failures", fails))
}

// restartBackoff is the supervised-restart schedule: exponential in the
// consecutive-failure count, capped, with ±20% seeded jitter so co-failing
// stages don't restart in lockstep (and chaos runs stay reproducible).
func (e *Engine) restartBackoff(fails int) time.Duration {
	d := e.cfg.RestartBackoff
	for i := 1; i < fails && d < restartBackoffMax; i++ {
		d *= 2
	}
	d = min(d, restartBackoffMax)
	e.jitterMu.Lock()
	f := 0.8 + 0.4*e.jitterRand.Float64()
	e.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// restartStage installs a replacement incarnation for a Failed stage. The
// context swap happens before the health transition so no core can grant a
// stale incarnation, and the stage's core is woken: no enqueue announces
// that its queue became grantable again.
func (e *Engine) restartStage(s *stage) {
	s.restarts.Add(1)
	e.record(Decision{Kind: DecisionRestart, Chain: -1, Stage: s.name,
		Failures: int(s.consecFails.Load()),
		Note:     "attempt " + strconv.FormatUint(s.restarts.Load(), 10)})
	e.newIncarnation(s)
	e.setHealth(s, Restarting)
	e.cores[s.core].maybeWake()
	e.recomputeChainsDown()
	e.emit(telemetry.LevelInfo, "stage_restart",
		telemetry.F("stage", s.name),
		telemetry.F("attempt", s.restarts.Load()),
		telemetry.F("failures", s.consecFails.Load()))
}

// recomputeChainsDown refreshes the fail-closed entry gates: a chain is
// down while any of its stages is Failed and its policy is FailClosed.
func (e *Engine) recomputeChainsDown() {
	for ci, chain := range e.chains {
		down := false
		if e.chainPolicy[ci] == FailClosed {
			for _, sid := range chain {
				if Health(e.stages[sid].health.Load()) == Failed {
					down = true
					break
				}
			}
		}
		if e.chainDown[ci].Swap(down) != down {
			kind := DecisionChainUp
			if down {
				kind = DecisionChainDown
			}
			e.record(Decision{Kind: kind, Chain: ci})
		}
	}
}

// remoteLinkState maps a remote link's transport transitions onto its
// stage's supervision state — the link's reconnect loop plays the role the
// restart/backoff schedule plays for local stages. Called from the client's
// connection-manager goroutine; everything it touches is atomic- or
// mutex-guarded.
//
//   - Connected: the stage is Healthy again immediately (no probation — the
//     handshake itself is the proof). A recovery after an outage journals
//     remote_reconnect with the peer address and how many dials it took.
//   - Reconnecting: the stage degrades but stays schedulable; packets keep
//     flowing into the send queue until Space() runs out and the watermark
//     machine throttles the chain.
//   - CircuitOpen: the link is dead for good. The stage fails permanently
//     (restartNever, like a local circuit breaker) and the chain policies
//     take over; the journal records remote_circuit_open with the peer.
//   - Closed: engine shutdown; nothing to transition.
func (e *Engine) remoteLinkState(l *remoteLink, st remote.State, attempt int) {
	s := l.stage
	switch st {
	case remote.StateConnected:
		if attempt > 0 {
			e.record(Decision{Kind: DecisionRemoteReconnect, Chain: -1,
				Stage: s.name, Peer: l.addr, Failures: attempt})
		}
		s.consecFails.Store(0)
		e.setHealthNote(s, Healthy, "remote: connected "+l.addr)
		e.recomputeChainsDown()
	case remote.StateReconnecting:
		s.consecFails.Store(int32(attempt))
		e.setHealthNote(s, Degraded, "remote: reconnecting "+l.addr)
	case remote.StateCircuitOpen:
		s.consecFails.Store(int32(attempt))
		s.restartAtNanos.Store(restartNever)
		e.record(Decision{Kind: DecisionRemoteCircuitOpen, Chain: -1,
			Stage: s.name, Peer: l.addr, Failures: attempt})
		e.setHealthNote(s, Failed, "remote: circuit open "+l.addr)
		e.anyFaulty.Store(true)
		e.recomputeChainsDown()
	case remote.StateClosed:
		// Engine shutdown owns the final accounting; no health transition.
	}
}

// supervise is the control loop's restart pass: respawn Failed stages whose
// backoff elapsed and keep circuit-open stages' queues from stranding
// accepted packets. Gated on anyFaulty so the all-healthy steady state pays
// one atomic load per iteration.
func (e *Engine) supervise(now int64) {
	if !e.anyFaulty.Load() {
		return
	}
	allHealthy := true
	for _, s := range e.stages {
		switch Health(s.health.Load()) {
		case Healthy:
			continue
		case Failed:
			allHealthy = false
			ra := s.restartAtNanos.Load()
			if ra == restartNever {
				// Circuit open: the stage will never drain its own queue.
				if n := e.sweepRing(s.rx, &e.FaultDrops); n > 0 {
					s.faultDrops.Add(n)
				}
			} else if now >= ra {
				e.restartStage(s)
			}
		default:
			allHealthy = false
		}
	}
	if allHealthy {
		// Clear the gate, then look again: a stage that failed on a
		// core loop between the scan above and the clear has
		// already published Failed (failStage sets health before the gate),
		// so the second look re-raises the gate instead of stranding the
		// stage with nobody to restart it.
		e.anyFaulty.Store(false)
		for _, s := range e.stages {
			if Health(s.health.Load()) != Healthy {
				e.anyFaulty.Store(true)
				break
			}
		}
	}
}

// bypassFailedHops advances each packet's hop past Failed stages on
// fail-open chains, so the grant's forward publishes around dead hops (or
// hands the packet to tx as finished).
func (e *Engine) bypassFailedHops(ps []*Packet) {
	for _, pkt := range ps {
		if e.chainPolicy[pkt.ChainID] != FailOpen {
			continue
		}
		chain := e.chains[pkt.ChainID]
		for pkt.Hop < len(chain) && Health(e.stages[chain[pkt.Hop]].health.Load()) == Failed {
			pkt.Hop++
		}
	}
}

// sweepRing drains a ring, recycling packets and charging them to the
// given drop counter; returns how many were swept.
func (e *Engine) sweepRing(r *ring.MPMC[*Packet], counter *atomic.Uint64) uint64 {
	var n uint64
	for {
		p, ok := r.Dequeue()
		if !ok {
			break
		}
		e.PutPacket(p)
		n++
	}
	if n > 0 {
		counter.Add(n)
	}
	return n
}

// idleRings reports whether every stage's rx and tx ring is empty.
func (e *Engine) idleRings() bool {
	for _, s := range e.stages {
		if s.rx.Len() > 0 || s.tx.Len() > 0 {
			return false
		}
	}
	return true
}

// idleLanes reports whether every registered inject lane is empty (the
// shutdown drain's companion to idleRings).
func (e *Engine) idleLanes() bool {
	e.laneMu.Lock()
	defer e.laneMu.Unlock()
	for _, ln := range e.lanes {
		if ln.ring.Len() > 0 {
			return false
		}
	}
	return true
}

// shutdown is Run's wind-down, entered once ctx is canceled. The movers
// stop first and this goroutine takes over their lanes and tx rings, while
// the core loops keep granting, yield flags ignored, until the rings, lanes
// and remote links are empty with no grant in flight, or
// Config.DrainTimeout passes; then the core loops exit. The drain also
// waits for detached loops to return what their wedged handlers hold. The
// watchdog and the restart pass keep running until the last loop has
// returned, so a handler wedged in the drain delays Run by at most
// GrantTimeout. Last, the
// stop gate closes and a final sweep charges every packet still in a ring
// to ShutdownDrops: after Run returns, every accepted packet is delivered
// or charged to a drop class (the one caveat is a detached loop preempted
// between its stop-gate check and its publish until after the sweep).
func (e *Engine) shutdown() {
	close(e.moverStop)
	e.moverWg.Wait()
	phase := phaseDrain
	if e.cfg.DrainTimeout < 0 {
		phase = phaseExit
	}
	e.setPhase(phase)
	deadline := time.Now().Add(e.cfg.DrainTimeout)
	stamps := make([]int64, len(e.cores))
	for phase == phaseDrain || e.liveCores.Load() > 0 {
		now := time.Now()
		e.coarseNanos.Store(now.UnixNano())
		e.watchdog(now)
		e.supervise(now.UnixNano())
		moved := 0
		if phase == phaseDrain {
			moved = e.moveAll()
			for _, m := range e.movers {
				moved += e.drainLanes(m)
			}
			e.coresQuiet(stamps)
			if now.After(deadline) || moved == 0 && e.detached.Load() == 0 &&
				e.idleRings() && e.idleLanes() && e.idleRemotes() && e.coresQuiet(stamps) {
				phase = phaseExit
				e.setPhase(phase)
				continue
			}
		}
		if moved == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	// Stop gate: from here on, Inject attempts are counted (LateDrops), not
	// enqueued. Deliver what reached tx, then sweep what is left into the
	// shutdown ledger.
	e.stopped.Store(true)
	e.moveAll()
	for _, s := range e.stages {
		e.sweepRing(s.rx, &e.ShutdownDrops)
		e.sweepRing(s.tx, &e.ShutdownDrops)
	}
	// Inject lanes still holding packets are swept into LateDrops (their
	// packets were never counted Injected), serialized with any producer
	// racing the stop gate via lateMu.
	e.sweepLanes()
	// Settle the remote links: whatever the peers never acknowledged is
	// surrendered into RemoteDrops, closing the cross-host ledger.
	e.closeRemotes()
	// The shutdown recycler may hold the last drops; return them to the
	// freelist so a post-Run GetPacket still finds them.
	e.drainRC.flush()
	// Flush spans completed by the final moveAll; the control loop that
	// normally drains the spool has already exited.
	e.drainSpool()
}

// HealthSnapshot reports every stage's supervision state, restart count and
// failure streak, followed by one row per TX shard carrying the mover's
// drain telemetry (parks, wakes, park ratio, drain efficiency) in Detail —
// the /healthz payload (see telemetry.AddHealthz). Stage rows always come
// first, in stage-id order, so indexing by stage id keeps working.
func (e *Engine) HealthSnapshot() []telemetry.ComponentHealth {
	out := make([]telemetry.ComponentHealth, len(e.stages), len(e.stages)+len(e.movers))
	for i, s := range e.stages {
		h := Health(s.health.Load())
		out[i] = telemetry.ComponentHealth{
			Component: s.name,
			State:     h.String(),
			Healthy:   h != Failed,
			Restarts:  s.restarts.Load(),
			Failures:  uint64(s.consecFails.Load()),
		}
	}
	for _, ms := range e.MoverStats() {
		detail := map[string]float64{
			"stages":     float64(ms.Stages),
			"lanes":      float64(ms.Lanes),
			"batch":      float64(ms.Batch),
			"sweeps":     float64(ms.Sweeps),
			"moved":      float64(ms.Moved),
			"lane_moved": float64(ms.LaneMoved),
			"parks":      float64(ms.Parks),
			"wakes":      float64(ms.Wakes),
		}
		if ms.Sweeps > 0 {
			detail["park_ratio"] = float64(ms.Parks) / float64(ms.Sweeps)
			detail["drain_per_sweep"] = float64(ms.Moved) / float64(ms.Sweeps)
		}
		out = append(out, telemetry.ComponentHealth{
			Component: "mover/" + strconv.Itoa(len(out)-len(e.stages)),
			State:     "active",
			Healthy:   true,
			Detail:    detail,
		})
	}
	for _, rs := range e.RemoteStats() {
		out = append(out, telemetry.ComponentHealth{
			Component: "remote/" + rs.Stage,
			State:     rs.State,
			Healthy:   rs.State != "circuit_open" && rs.State != "closed",
			Restarts:  rs.Reconnects,
			Failures:  rs.DialFails,
			Detail: map[string]float64{
				"queued":        float64(rs.Queued),
				"inflight":      float64(rs.Inflight),
				"sent":          float64(rs.Sent),
				"acked":         float64(rs.Acked),
				"retries":       float64(rs.Retries),
				"window_stalls": float64(rs.WindowStalls),
				"ecn_echoes":    float64(rs.ECNEchoes),
			},
		})
	}
	return out
}

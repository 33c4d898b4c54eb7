package dataplane

// Remote stages: the cross-host half of a service chain (paper §3.4).
//
// A remote stage looks like any other NF to the scheduler — it has a receive
// ring, an incarnation, a weight, a health state — but its "handler" serializes
// packets onto a credit-windowed TCP link (internal/remote) instead of
// processing them. The chain continues on the peer engine, whose accept side
// (RemoteIngress) re-materializes descriptors and injects them into its own
// chains.
//
// End-to-end backpressure composes from three mechanisms:
//
//   - Credit window: at most RemoteConfig.Window unacked frames ride the
//     wire. A slow peer stops acking, the window fills, the client's send
//     queue backs up, Space() hits zero, and the scheduler stops granting
//     the remote stage — its rx ring then fills and the ordinary watermark
//     machine throttles the chain at entry (journal bp_on, cause
//     "remote_window").
//   - ECN echo: the peer samples its own queue occupancy per ack
//     (CongestionSignal) and sets the CE flag; the client surfaces each
//     echo, and the control loop's ECNObserver (internal/bp) converts the
//     echo stream into a sustained congestion signal. updateBackpressure
//     reports the remote stage to the shared bp.Controller as above HIGH and
//     never below LOW while the signal holds, so the origin throttles before
//     the pipe even fills (cause "remote_ecn") and stays throttled until the
//     echoes quiesce — an override of the observation, not of the policy.
//   - Link supervision: a lost connection puts the stage in Degraded while
//     the client re-dials under exponential backoff with seeded jitter
//     (packets keep buffering in the send queue — the outage is absorbed,
//     not dropped); MaxDials consecutive failures open the circuit, the
//     stage goes Failed permanently, and the chain's FailClosed/FailOpen
//     policy takes over exactly as for a crashed local NF.
//
// Accounting: a packet granted to a remote stage leaves the local ledger's
// ordinary classes and enters the transport's. The grant recycles the
// descriptor immediately (its bytes are copied into the frame), and the
// packet is charged to exactly one of RemoteDelivered (peer acked the frame)
// or RemoteDrops (link died with it queued or in flight, the circuit opened,
// or the engine shut down first). The reconciliation invariant becomes
//
//	Injected == Delivered + MidRingDrops + NFDrops + FaultDrops
//	          + ShutdownDrops + RemoteDelivered + RemoteDrops
//
// exact at quiescence — and, because the peer dedups retransmitted frames by
// sequence number, A.RemoteDelivered equals the peer's received count even
// across connection kills. The one irreducible caveat is two-generals: a
// packet whose final ack was lost with a permanently dead link is counted
// RemoteDrops here though the peer delivered it. A healed link never
// double-counts.
//
// A remote stage must be the last hop of its local chain: the handler
// consumes every packet, so downstream local hops would never see traffic.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nfvnice/internal/bp"
	"nfvnice/internal/remote"
	"nfvnice/internal/telemetry"
)

// RemoteConfig parameterizes a remote stage's link. Build one with
// DefaultRemoteConfig and override what the deployment needs.
type RemoteConfig struct {
	// Addr is the peer engine's remote.Listen address. Required.
	Addr string
	// Window is the credit window: the maximum unacknowledged DATA frames in
	// flight. Must be >= 1 — an explicit window is the backpressure contract,
	// so there is no silent default here.
	Window int
	// FrameBatch caps packets per DATA frame (0 takes the transport default).
	FrameBatch int
	// SendBuf is the send-queue capacity ahead of framing (0 takes
	// Window*FrameBatch). The queue is what absorbs reconnect outages.
	SendBuf int
	// BackoffMin/BackoffMax bound the reconnect backoff (0 takes the
	// transport defaults, 5ms/1s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// MaxDials is the consecutive failed dials that open the circuit and
	// fail the stage permanently (0 takes the default 16; negative retries
	// forever).
	MaxDials int
	// DialTimeout bounds each dial attempt (0 takes the default 2s).
	DialTimeout time.Duration
	// Seed drives the reconnect jitter; same seed, same retry schedule.
	Seed int64
	// Dial overrides the dialer — the hook for wire-level fault injection
	// (faults.WireInjector.Dial).
	Dial func(addr string) (net.Conn, error)
}

// DefaultRemoteConfig returns a working link config for addr: window 32,
// transport defaults elsewhere.
func DefaultRemoteConfig(addr string) RemoteConfig {
	return RemoteConfig{Addr: addr, Window: 32}
}

// Validate rejects unusable link configurations: a missing peer address, a
// zero or negative credit window, negative buffers, inverted backoff bounds.
func (c RemoteConfig) Validate() error {
	if c.Addr == "" {
		return errors.New("dataplane: remote stage needs a peer Addr")
	}
	if c.Window <= 0 {
		return fmt.Errorf("dataplane: remote Window %d: a credit window must be >= 1", c.Window)
	}
	if c.FrameBatch < 0 {
		return fmt.Errorf("dataplane: remote FrameBatch %d negative", c.FrameBatch)
	}
	if c.SendBuf < 0 {
		return fmt.Errorf("dataplane: remote SendBuf %d negative", c.SendBuf)
	}
	if c.BackoffMin < 0 || c.BackoffMax < 0 {
		return errors.New("dataplane: remote backoff negative")
	}
	if c.BackoffMin > 0 && c.BackoffMax > 0 && c.BackoffMin > c.BackoffMax {
		return fmt.Errorf("dataplane: remote BackoffMin %v > BackoffMax %v", c.BackoffMin, c.BackoffMax)
	}
	return nil
}

// clientConfig lowers the stage-level knobs onto the transport's config.
func (c RemoteConfig) clientConfig() remote.Config {
	return remote.Config{
		Addr:        c.Addr,
		Window:      c.Window,
		FrameBatch:  c.FrameBatch,
		SendBuf:     c.SendBuf,
		BackoffMin:  c.BackoffMin,
		BackoffMax:  c.BackoffMax,
		MaxDials:    c.MaxDials,
		DialTimeout: c.DialTimeout,
		Seed:        c.Seed,
		Dial:        c.Dial,
	}
}

// remoteLink binds a stage to its transport client and carries the ECN
// machinery: ecnEchoes is bumped by the client's read loop per CE-marked ack
// and swapped out by the control loop each backpressure tick; ecnObs (owned
// by the control goroutine) turns the echo stream into a sustained signal
// published through ecnActive for the backpressure pass.
type remoteLink struct {
	stage  *stage
	client *remote.Client
	addr   string
	// batch is the engine's grant quantum: the scheduler stops granting the
	// stage when the link's Space falls below it, so that is the credit
	// threshold bpCause judges "window exhausted" against.
	batch int

	ecnEchoes atomic.Uint64
	ecnActive atomic.Bool
	ecnObs    bp.ECNObserver // control-goroutine only
}

// grantable reports whether the link can absorb a full grant right now; the
// scheduler skips the stage otherwise, letting its rx ring carry the
// pressure to the watermark machine.
func (l *remoteLink) grantable(batch int) bool {
	return l.client.Space() >= batch
}

// bpCause names the remote condition behind a backpressure edge on this
// stage, for the decision journal ("" when the queue grew for ordinary
// local reasons).
func (l *remoteLink) bpCause() string {
	if l.ecnActive.Load() {
		return "remote_ecn"
	}
	switch l.client.State() {
	case remote.StateConnected:
		if l.client.Space() < l.batch {
			return "remote_window"
		}
		return ""
	case remote.StateCircuitOpen, remote.StateClosed:
		return "remote_down"
	case remote.StateConnecting:
		return "remote_connecting"
	default:
		return "remote_reconnecting"
	}
}

// AddRemoteStage registers a remote stage on core 0. See AddRemoteStageOn.
func (e *Engine) AddRemoteStage(name string, weight int64, rcfg RemoteConfig) int {
	return e.AddRemoteStageOn(name, weight, 0, rcfg)
}

// AddRemoteStageOn registers a stage whose handler ships packets to a peer
// engine over a credit-windowed link instead of processing them locally.
// Must be the final hop of any chain it appears on, and must be called
// before Run (the link starts dialing when Run starts). Panics on a config
// Validate rejects, like New.
func (e *Engine) AddRemoteStageOn(name string, weight int64, core int, rcfg RemoteConfig) int {
	if err := rcfg.Validate(); err != nil {
		panic(err.Error())
	}
	if e.running.Load() {
		panic("dataplane: AddRemoteStage after Run")
	}
	id := e.AddBatchStageOn(name, weight, core, nil)
	s := e.stages[id]
	batch := e.cfg.BatchSize
	if batch == 0 {
		batch = DefaultConfig().BatchSize
	}
	l := &remoteLink{stage: s, addr: rcfg.Addr, batch: batch}
	ccfg := rcfg.clientConfig()
	ccfg.OnState = func(st remote.State, attempt int) { e.remoteLinkState(l, st, attempt) }
	ccfg.OnDelivered = func(n int) { e.RemoteDelivered.Add(uint64(n)) }
	ccfg.OnDropped = func(n int) { e.RemoteDrops.Add(uint64(n)) }
	ccfg.OnECN = func() { l.ecnEchoes.Add(1) }
	client, err := remote.New(ccfg)
	if err != nil {
		panic("dataplane: " + err.Error())
	}
	l.client = client
	// wire is the uplink's scratch: stage handlers are grant-serialized, so
	// one slice per stage is enough.
	wire := make([]remote.Pkt, 0, batch)
	s.fn = func(ps []*Packet) {
		// Copy the descriptors' wire-visible fields into the frame and
		// consume them: from here the transport ledger owns the packets. The
		// scheduler only grants while Space() covers a full batch, so a
		// refusal is a race with the link dying mid-grant — charged straight
		// to RemoteDrops.
		wire = wire[:0]
		for _, p := range ps {
			wire = append(wire, remote.Pkt{Flow: int64(p.FlowID), Size: int32(p.Size)})
			p.Drop = true // recycle locally without an NFDrops charge (see runBatch)
		}
		if refused := len(ps) - client.Offer(wire); refused > 0 {
			e.RemoteDrops.Add(uint64(refused))
		}
	}
	s.rem = l
	e.remotes = append(e.remotes, l)
	return id
}

// updateRemoteECN runs on the control goroutine at the backpressure cadence:
// it folds each link's echo count since the last tick into its observer and
// publishes signal edges for updateBackpressure (which runs right after).
func (e *Engine) updateRemoteECN() {
	for _, l := range e.remotes {
		echoes := l.ecnEchoes.Swap(0)
		if !l.ecnObs.Observe(echoes) {
			continue
		}
		active := l.ecnObs.Active()
		l.ecnActive.Store(active)
		state := "clear"
		if active {
			state = "active"
		}
		e.emit(telemetry.LevelInfo, "remote_ecn",
			telemetry.F("stage", l.stage.name),
			telemetry.F("peer", l.addr),
			telemetry.F("state", state))
	}
}

// idleRemotes reports whether every remote link has flushed — nothing queued
// or awaiting ack on any connected link. Links that cannot make progress
// (reconnecting, circuit open, closed) count as idle: the shutdown drain
// must not stall on a dead peer, and closing the clients will settle their
// accounting into RemoteDrops.
func (e *Engine) idleRemotes() bool {
	for _, l := range e.remotes {
		if l.client.State() != remote.StateConnected {
			continue
		}
		if l.client.Queued() > 0 || l.client.Inflight() > 0 {
			return false
		}
	}
	return true
}

// startRemotes begins dialing every link; called once from Run.
func (e *Engine) startRemotes() {
	for _, l := range e.remotes {
		l.client.Start()
	}
}

// closeRemotes settles every link: each client stops, and whatever the peer
// never acknowledged lands in RemoteDrops via OnDropped — the final entries
// that close the conservation ledger.
func (e *Engine) closeRemotes() {
	for _, l := range e.remotes {
		l.client.Close()
	}
}

// RemoteLinkStats is a snapshot of one remote link's transport state.
type RemoteLinkStats struct {
	Stage string
	Peer  string
	State string
	remote.Stats
	Queued   int
	Inflight int
}

// RemoteStats snapshots every remote link (empty when the engine has none).
func (e *Engine) RemoteStats() []RemoteLinkStats {
	out := make([]RemoteLinkStats, 0, len(e.remotes))
	for _, l := range e.remotes {
		out = append(out, RemoteLinkStats{
			Stage:    l.stage.name,
			Peer:     l.addr,
			State:    l.client.State().String(),
			Stats:    l.client.Stats(),
			Queued:   l.client.Queued(),
			Inflight: l.client.Inflight(),
		})
	}
	return out
}

// RemoteIngress returns the accept-side adapter for this engine: wire it as
// a remote.ServerConfig.OnBatch and every frame from upstream peers is
// re-materialized from the freelist and offered to this engine's chains
// (flows must be mapped with MapFlow as usual). The adapter owns one inject
// lane and a reusable scratch slab behind a mutex, so it is safe for
// concurrent sessions and allocates nothing per frame. A frame arriving
// faster than the lane's mover drains it overflows like a full entry ring:
// the tail is recycled and charged to RingDrops.
func (e *Engine) RemoteIngress() func([]remote.Pkt) {
	var mu sync.Mutex
	h := e.ProducerHandle(0)
	var scratch []*Packet
	return func(ps []remote.Pkt) {
		mu.Lock()
		defer mu.Unlock()
		scratch = scratch[:0]
		for _, rp := range ps {
			p := e.GetPacket()
			p.FlowID = int(rp.Flow)
			p.Size = int(rp.Size)
			scratch = append(scratch, p)
		}
		if tail := scratch[h.InjectBatch(scratch):]; len(tail) > 0 {
			// After Run has exited the handle already charged LateDrops.
			if !e.stopped.Load() {
				e.RingDrops.Add(uint64(len(tail)))
			}
			e.PutPacketBatch(tail)
		}
	}
}

// CongestionSignal returns the peer-side ECN sampler: true while any stage's
// receive ring sits at or above the high watermark. Wire it as a
// remote.ServerConfig.ECN so upstream senders throttle at their origin when
// this engine congests (paper §3.4's cross-host backpressure).
func (e *Engine) CongestionSignal() func() bool {
	return func() bool {
		for _, s := range e.stages {
			if s.rx.Len() >= e.highWater {
				return true
			}
		}
		return false
	}
}

// registerRemoteMetrics publishes per-link transport counters and the global
// remote ledger classes; called from RegisterMetrics.
func (e *Engine) registerRemoteMetrics(reg *telemetry.Registry) {
	if len(e.remotes) == 0 {
		return
	}
	for _, l := range e.remotes {
		l := l
		lbl := []telemetry.Label{
			telemetry.L("stage", l.stage.name),
			telemetry.L("peer", l.addr),
		}
		reg.CounterFunc("dataplane_remote_sent_total",
			"Packets framed and written to the peer (including later retransmits).",
			func() uint64 { return l.client.Stats().Sent }, lbl...)
		reg.CounterFunc("dataplane_remote_acked_total",
			"Packets the peer acknowledged (delivered exactly once).",
			func() uint64 { return l.client.Stats().Acked }, lbl...)
		reg.CounterFunc("dataplane_remote_retries_total",
			"Frames retransmitted after a reconnect.",
			func() uint64 { return l.client.Stats().Retries }, lbl...)
		reg.CounterFunc("dataplane_remote_reconnects_total",
			"Successful re-dials after a connection loss.",
			func() uint64 { return l.client.Stats().Reconnects }, lbl...)
		reg.CounterFunc("dataplane_remote_window_stalls_total",
			"Stall episodes where the send queue was ready but the credit window was full.",
			func() uint64 { return l.client.Stats().WindowStalls }, lbl...)
		reg.CounterFunc("dataplane_remote_ecn_echoes_total",
			"Acks carrying the peer's congestion mark.",
			func() uint64 { return l.client.Stats().ECNEchoes }, lbl...)
		reg.GaugeFunc("dataplane_remote_queued",
			"Packets buffered ahead of framing on the link.",
			func() float64 { return float64(l.client.Queued()) }, lbl...)
		reg.GaugeFunc("dataplane_remote_inflight_frames",
			"DATA frames sent and not yet acknowledged.",
			func() float64 { return float64(l.client.Inflight()) }, lbl...)
		reg.GaugeFunc("dataplane_remote_link_state",
			"Link state: 0 connecting, 1 connected, 2 reconnecting, 3 circuit open, 4 closed.",
			func() float64 { return float64(l.client.State()) }, lbl...)
	}
	reg.CounterFunc("dataplane_remote_delivered_total",
		"Packets confirmed delivered to peer engines (cumulative acks).",
		e.RemoteDelivered.Load)
	reg.CounterFunc("dataplane_remote_drops_total",
		"Packets surrendered by dead or closing remote links.",
		e.RemoteDrops.Load)
}

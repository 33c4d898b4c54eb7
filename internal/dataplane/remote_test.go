// Cross-host chain tests: two engines in one test binary joined by a real
// localhost TCP link, with seeded wire faults killing and healing the
// connection mid-stream. External test package because internal/faults
// imports internal/dataplane.
package dataplane_test

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nfvnice/internal/dataplane"
	"nfvnice/internal/faults"
	"nfvnice/internal/remote"
	"nfvnice/internal/telemetry"
)

// remoteWait polls cond until it holds or the deadline passes.
func remoteWait(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// remoteReconcile extends chaosReconcile with the cross-host ledger classes.
func remoteReconcile(e *dataplane.Engine, entryStages map[string]bool) (uint64, uint64) {
	inj, acc := chaosReconcile(e, entryStages)
	return inj, acc + e.RemoteDelivered.Load() + e.RemoteDrops.Load()
}

// TestCrossProcessConservation is the headline fault-tolerance scenario: an
// upstream engine ships a chain's packets to a downstream engine over TCP
// while a seeded wire injector kills the connection every 150 writes. Exact
// conservation must hold on both sides of the wire: every packet the
// upstream accepted is delivered-to-peer exactly once (retransmits dedup'd
// by sequence), and both engines' ledgers close after shutdown.
func TestCrossProcessConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// Downstream engine B: one local stage, generous rings.
	b := dataplane.New(dataplane.Config{
		RingSize: 4096, WeightPeriod: 0, DrainTimeout: time.Second,
	})
	bs := b.AddStage("sink", 1024, func(p *dataplane.Packet) {})
	bch, err := b.AddChain(bs)
	if err != nil {
		t.Fatal(err)
	}
	b.MapFlow(1, bch)
	b.SetSink(b.PutPacketBatch)
	bctx, bcancel := context.WithCancel(context.Background())
	bdone := make(chan struct{})
	go func() { b.Run(bctx); close(bdone) }()

	ingress := b.RemoteIngress()
	srv, err := remote.Listen("127.0.0.1:0", remote.ServerConfig{
		OnBatch: ingress,
		ECN:     b.CongestionSignal(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second session's worth of frames, fed straight into the same
	// adapter from another goroutine for as long as the wire is busy: the
	// adapter's one lane and scratch slab are shared by every session, so
	// this is the concurrency -race has to clear.
	var direct atomic.Uint64
	stopDirect := make(chan struct{})
	directDone := make(chan struct{})
	go func() {
		defer close(directDone)
		frame := make([]remote.Pkt, 16)
		for i := range frame {
			frame[i] = remote.Pkt{Flow: 1, Size: 64}
		}
		for {
			select {
			case <-stopDirect:
				return
			default:
			}
			ingress(frame)
			direct.Add(uint64(len(frame)))
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// The seeded wire schedule: kill the connection every 150 writes. Same
	// seed, same kill indices (see TestWireDropDeterministic), so a failing
	// run replays exactly.
	wire := faults.NewWire(42, faults.ConnDropOn(faults.EveryNth(150)))

	// Upstream engine A: local stamp stage, then the remote uplink.
	a := dataplane.New(dataplane.Config{
		RingSize: 512, BatchSize: 16, Movers: 2, WeightPeriod: 0,
		DrainTimeout: 2 * time.Second,
	})
	as := a.AddStage("stamp", 1024, func(p *dataplane.Packet) {})
	up := a.AddRemoteStage("uplink", 1024, dataplane.RemoteConfig{
		Addr:       srv.Addr(),
		Window:     8,
		FrameBatch: 16,
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
		MaxDials:   -1, // the fault schedule heals; keep dialing
		Seed:       42,
		Dial:       wire.Dial(nil),
	})
	ach, err := a.AddChain(as, up)
	if err != nil {
		t.Fatal(err)
	}
	a.MapFlow(1, ach)
	ha := a.ProducerHandle(0)
	actx, acancel := context.WithCancel(context.Background())
	adone := make(chan struct{})
	go func() { a.Run(actx); close(adone) }()

	// Pace the source against the link: cap the in-flight population below
	// the uplink ring so an outage backs pressure up to the injector instead
	// of overflowing mid-chain. (Overflow is a legitimate accounted class —
	// the watermark reaction window is ~1ms — but pacing pins the stronger
	// invariant: every single packet traverses the faulty wire exactly once.)
	const total = 20000
	sent := 0
	for sent < total {
		if uint64(sent)-a.RemoteDelivered.Load() >= 256 {
			runtime.Gosched()
			continue
		}
		p := a.GetPacket()
		p.FlowID = 1
		p.Size = 64
		dataplane.Offer(ha, p)
		sent++
	}

	// Quiesce: injection has stopped, so the pipeline drains and the link's
	// unacked window empties (the fault schedule always heals). The ledger
	// balances exactly once every accepted packet's fate — delivered locally,
	// shed mid-chain during an outage, or delivered-to-peer — is recorded.
	remoteWait(t, 30*time.Second, func() bool {
		rs := a.RemoteStats()[0]
		if rs.Queued != 0 || rs.Inflight != 0 || a.Injected.Load() != total {
			return false
		}
		inj, acc := remoteReconcile(a, map[string]bool{"stamp": true})
		return inj == acc
	}, "upstream ledger never settled")
	close(stopDirect)
	<-directDone

	acancel()
	select {
	case <-adone:
	case <-time.After(10 * time.Second):
		t.Fatal("upstream Run did not return")
	}
	srv.Close()
	bcancel()
	select {
	case <-bdone:
	case <-time.After(10 * time.Second):
		t.Fatal("downstream Run did not return")
	}

	// ≥3 seeded kill/heal cycles actually happened.
	ws := wire.Stats()
	rs := a.RemoteStats()[0]
	if ws.Drops < 3 {
		t.Errorf("wire kills = %d, want >= 3", ws.Drops)
	}
	if rs.Reconnects < 3 {
		t.Errorf("reconnects = %d, want >= 3", rs.Reconnects)
	}
	if rs.Retries == 0 {
		t.Error("no frames retransmitted despite connection kills")
	}

	// Exact conservation across the process boundary: everything the link
	// accepted reached the peer exactly once (retransmits dedup'd by
	// sequence), and a link that always heals surrenders nothing.
	if got := a.RemoteDrops.Load(); got != 0 {
		t.Errorf("RemoteDrops = %d on a healed link, want 0", got)
	}
	if got := a.RemoteDelivered.Load(); got != total {
		t.Errorf("RemoteDelivered = %d, want %d", got, total)
	}
	if got := srv.Stats().Received; got != total {
		t.Errorf("peer received %d packets exactly-once, want %d (dups=%d)",
			got, total, srv.Stats().Dups)
	}
	if inj, acc := remoteReconcile(a, map[string]bool{"stamp": true}); inj != acc {
		t.Errorf("upstream conservation violated: injected=%d accounted=%d", inj, acc)
	}
	// Downstream: every packet either session handed the ingress adapter is
	// Injected or in a pre-acceptance class (a lane-full tail lands in
	// RingDrops), and everything Injected has an outcome.
	lb := b.LedgerSnapshot()
	if got, want := lb.Injected+dataplane.PreAccepted(lb), total+direct.Load(); got != want {
		t.Errorf("downstream ingress lost packets: injected+pre-acceptance=%d, handed over %d, ledger %+v",
			got, want, lb)
	}
	if lb.Residual() != 0 || lb.Delivered == 0 {
		t.Errorf("downstream ledger open: residual=%d ledger %+v", lb.Residual(), lb)
	}

	// The outage and recovery are journaled with the peer address.
	recs := a.Decisions().Filter(0, func(d dataplane.Decision) bool {
		return d.Kind == dataplane.DecisionRemoteReconnect
	})
	if len(recs) == 0 {
		t.Fatal("no remote_reconnect decisions journaled")
	}
	for _, d := range recs {
		if d.Peer != srv.Addr() {
			t.Errorf("remote_reconnect peer = %q, want %q", d.Peer, srv.Addr())
		}
		if d.Failures < 1 {
			t.Errorf("remote_reconnect without an attempt count: %+v", d)
		}
	}
	t.Logf("crosshost: injected=%d remoteDelivered=%d kills=%d reconnects=%d retries=%d dups=%d wireWrites=%d",
		a.Injected.Load(), a.RemoteDelivered.Load(), ws.Drops, rs.Reconnects,
		rs.Retries, srv.Stats().Dups, wire.Seen())
}

// TestRemoteWindowBackpressure starves the link of acks (a peer that reads
// but never responds): the credit window fills, the send queue backs up, the
// scheduler stops granting the remote stage, its rx ring crosses the high
// watermark, and the chain throttles at entry with the journal naming
// remote_window as the cause.
func TestRemoteWindowBackpressure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c) // swallow frames, never ack
		}
	}()

	e := dataplane.New(dataplane.Config{
		RingSize: 64, BatchSize: 4, WeightPeriod: 0,
		DrainTimeout: 50 * time.Millisecond,
	})
	up := e.AddRemoteStage("uplink", 1024, dataplane.RemoteConfig{
		Addr:       ln.Addr().String(),
		Window:     1,
		FrameBatch: 4,
		SendBuf:    8,
	})
	ch, err := e.AddChain(up)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(1, ch)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	h := e.ProducerHandle(0)
	go func() { e.Run(ctx); close(done) }()

	// Wait for the dial to complete, then fill the transport: the unacked
	// window (one frame of 4) plus the send queue (8) absorb a dozen packets
	// — well under the high watermark, so no backpressure edge fires yet —
	// and Space pins at zero because the acks never come.
	remoteWait(t, 10*time.Second, func() bool {
		return e.RemoteStats()[0].State == "connected"
	}, "link never connected")
	for i := 0; i < 24; i++ {
		p := e.GetPacket()
		p.FlowID = 1
		dataplane.Offer(h, p)
	}
	remoteWait(t, 10*time.Second, func() bool {
		return e.RemoteStats()[0].Queued == 8 // SendBuf full: Space == 0
	}, "send queue never filled against a dead-ack peer")

	// Now flood: grants are stopped, the rx ring crosses the watermark, and
	// the one throttle edge that fires must name the exhausted window.
	deadline := time.Now().Add(10 * time.Second)
	for !e.Throttled(ch) && time.Now().Before(deadline) {
		p := e.GetPacket()
		p.FlowID = 1
		dataplane.Offer(h, p)
	}
	if !e.Throttled(ch) {
		t.Fatal("chain never throttled despite a dead-ack peer")
	}

	bps := e.Decisions().Filter(0, func(d dataplane.Decision) bool {
		return d.Kind == dataplane.DecisionBPOn && d.Note == "remote_window"
	})
	if len(bps) == 0 {
		t.Fatalf("no bp_on journaled with cause remote_window; got %+v",
			e.Decisions().Tail(10))
	}
	if st := e.RemoteStats()[0]; st.WindowStalls == 0 {
		t.Error("window never stalled despite Window=1 and no acks")
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}
	// Unacked and queued packets were surrendered to the transport ledger.
	if inj, acc := remoteReconcile(e, map[string]bool{"uplink": true}); inj != acc {
		t.Errorf("conservation violated: injected=%d accounted=%d", inj, acc)
	}
	if e.RemoteDrops.Load() == 0 {
		t.Error("closing a stalled link surrendered nothing to RemoteDrops")
	}
}

// TestRemoteECNOriginThrottle drives the §3.4 loop end to end: the peer
// marks congestion on every ack, the client surfaces the echoes, the control
// loop's observer asserts, and the chain throttles at its origin — then
// clears once the peer stops marking.
func TestRemoteECNOriginThrottle(t *testing.T) {
	var congested atomic.Bool
	congested.Store(true)
	srv, err := remote.Listen("127.0.0.1:0", remote.ServerConfig{
		OnBatch: func([]remote.Pkt) {},
		ECN:     congested.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	e := dataplane.New(dataplane.Config{
		RingSize: 256, BatchSize: 8, WeightPeriod: 0,
		DrainTimeout: 100 * time.Millisecond,
	})
	up := e.AddRemoteStage("uplink", 1024, dataplane.RemoteConfig{
		Addr: srv.Addr(), Window: 32,
	})
	ch, err := e.AddChain(up)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(1, ch)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	h := e.ProducerHandle(0)
	go func() { e.Run(ctx); close(done) }()
	defer func() {
		cancel()
		<-done
	}()

	// Prime with a small burst once the link is up: it is far below the
	// watermark, so the only way the chain can throttle is the peer's marked
	// acks driving the ECN observer — no ambiguity about the edge's cause.
	remoteWait(t, 10*time.Second, func() bool {
		return e.RemoteStats()[0].State == "connected"
	}, "link never connected")
	for i := 0; i < 32; i++ {
		p := e.GetPacket()
		p.FlowID = 1
		dataplane.Offer(h, p)
	}
	remoteWait(t, 10*time.Second, func() bool {
		return e.RemoteStats()[0].ECNEchoes > 0
	}, "peer never echoed ECN in its acks")
	remoteWait(t, 10*time.Second, func() bool { return e.Throttled(ch) },
		"peer ECN marks never throttled the origin")
	bps := e.Decisions().Filter(0, func(d dataplane.Decision) bool {
		return d.Kind == dataplane.DecisionBPOn && d.Note == "remote_ecn"
	})
	if len(bps) == 0 {
		t.Fatalf("no bp_on journaled with cause remote_ecn; got %+v",
			e.Decisions().Tail(10))
	}
	if e.RemoteStats()[0].ECNEchoes == 0 {
		t.Error("no ECN echoes counted")
	}

	// Peer recovers: echoes stop, the observer's quiet windows elapse, and
	// the throttle clears.
	congested.Store(false)
	remoteWait(t, 10*time.Second, func() bool { return !e.Throttled(ch) },
		"throttle never cleared after the peer stopped marking")
}

// TestRemoteCircuitOpenFailClosed points a link at a dead address: MaxDials
// failures open the circuit, the stage fails permanently, the fail-closed
// chain sheds at entry, buffered packets settle in RemoteDrops, and the
// journal answers ?kind=remote with the peer address and attempt count.
func TestRemoteCircuitOpenFailClosed(t *testing.T) {
	// A listener bound then closed: its port refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	e := dataplane.New(dataplane.Config{
		RingSize: 64, BatchSize: 4, WeightPeriod: 0,
		DrainTimeout: 50 * time.Millisecond,
	})
	up := e.AddRemoteStage("uplink", 1024, dataplane.RemoteConfig{
		Addr:       deadAddr,
		Window:     4,
		MaxDials:   3,
		BackoffMin: time.Millisecond,
		BackoffMax: 2 * time.Millisecond,
	})
	ch, err := e.AddChain(up)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(1, ch)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	h := e.ProducerHandle(0)
	go func() { e.Run(ctx); close(done) }()

	// Feed a few packets while the link is still dialing; they buffer in
	// the send path and must settle in RemoteDrops once the circuit opens.
	for i := 0; i < 8; i++ {
		p := e.GetPacket()
		p.FlowID = 1
		dataplane.Offer(h, p)
	}

	remoteWait(t, 10*time.Second, func() bool {
		return e.RemoteStats()[0].State == "circuit_open"
	}, "circuit never opened against a dead address")
	remoteWait(t, 10*time.Second, func() bool {
		return e.Stats()[up].Health == dataplane.Failed
	}, "stage not Failed after circuit open")

	// Fail-closed: the chain sheds at entry now.
	fed := e.FaultEntryDrops.Load()
	remoteWait(t, 10*time.Second, func() bool {
		p := e.GetPacket()
		p.FlowID = 1
		dataplane.Offer(h, p)
		return e.FaultEntryDrops.Load() > fed
	}, "fail-closed chain still accepting packets after circuit open")

	// The journal names the dead peer, queryable as ?kind=remote.
	req := httptest.NewRequest("GET", "/debug/decisions?kind=remote", nil)
	rec := httptest.NewRecorder()
	e.Decisions().ServeHTTP(rec, req)
	body := rec.Body.String()
	if !strings.Contains(body, "remote_circuit_open") {
		t.Errorf("?kind=remote missing remote_circuit_open: %s", body)
	}
	if !strings.Contains(body, deadAddr) {
		t.Errorf("?kind=remote missing peer address %s: %s", deadAddr, body)
	}
	circ := e.Decisions().Filter(0, func(d dataplane.Decision) bool {
		return d.Kind == dataplane.DecisionRemoteCircuitOpen
	})
	if len(circ) != 1 || circ[0].Peer != deadAddr || circ[0].Failures < 3 {
		t.Errorf("remote_circuit_open record wrong: %+v", circ)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}
	// Everything accepted was either refused by the dead link or
	// surrendered when the circuit opened — all of it in RemoteDrops.
	if inj, acc := remoteReconcile(e, map[string]bool{"uplink": true}); inj != acc {
		t.Errorf("conservation violated: injected=%d accounted=%d", inj, acc)
	}
}

// TestRemoteConfigValidate is the remote-knob validation table.
func TestRemoteConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  dataplane.RemoteConfig
		ok   bool
	}{
		{"default", dataplane.DefaultRemoteConfig("127.0.0.1:9000"), true},
		{"full", dataplane.RemoteConfig{Addr: "h:1", Window: 4, FrameBatch: 8,
			SendBuf: 64, BackoffMin: time.Millisecond, BackoffMax: time.Second,
			MaxDials: 3}, true},
		{"missing addr", dataplane.RemoteConfig{Window: 4}, false},
		{"zero window", dataplane.RemoteConfig{Addr: "h:1"}, false},
		{"negative window", dataplane.RemoteConfig{Addr: "h:1", Window: -1}, false},
		{"negative frame batch", dataplane.RemoteConfig{Addr: "h:1", Window: 4,
			FrameBatch: -1}, false},
		{"negative send buf", dataplane.RemoteConfig{Addr: "h:1", Window: 4,
			SendBuf: -8}, false},
		{"negative backoff", dataplane.RemoteConfig{Addr: "h:1", Window: 4,
			BackoffMin: -time.Millisecond}, false},
		{"backoff min > max", dataplane.RemoteConfig{Addr: "h:1", Window: 4,
			BackoffMin: time.Second, BackoffMax: time.Millisecond}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestAddRemoteStagePanicsOnInvalidConfig mirrors TestNewPanicsOnInvalidConfig.
func TestAddRemoteStagePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddRemoteStage accepted a config Validate rejects")
		}
	}()
	e := dataplane.New(dataplane.Config{})
	e.AddRemoteStage("uplink", 1024, dataplane.RemoteConfig{Window: 4}) // no Addr
}

// TestRemoteTelemetryAndHealthz exercises the cross-host observability
// surface end to end: the per-link counters and gauges appear on /metrics
// with stage+peer labels, the transport ledger totals are exported, and
// HealthSnapshot grows a remote/<stage> row that /healthz serves as healthy
// while the link is connected.
func TestRemoteTelemetryAndHealthz(t *testing.T) {
	srv, err := remote.Listen("127.0.0.1:0", remote.ServerConfig{
		OnBatch: func([]remote.Pkt) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	e := dataplane.New(dataplane.Config{
		RingSize: 256, WeightPeriod: 0, DrainTimeout: 100 * time.Millisecond,
	})
	e.AddRemoteStage("uplink", 1024, dataplane.DefaultRemoteConfig(srv.Addr()))
	ch, err := e.AddChain(0)
	if err != nil {
		t.Fatal(err)
	}
	e.MapFlow(1, ch)

	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg)
	mux := telemetry.NewMux(reg, telemetry.NewEventLog(0))
	telemetry.AddHealthz(mux, e.HealthSnapshot)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	h := e.ProducerHandle(0)
	go func() { e.Run(ctx); close(done) }()
	defer func() {
		cancel()
		<-done
	}()

	remoteWait(t, 10*time.Second, func() bool {
		return e.RemoteStats()[0].State == "connected"
	}, "link never connected")
	for i := 0; i < 100; i++ {
		p := e.GetPacket()
		p.FlowID = 1
		dataplane.Offer(h, p)
	}
	remoteWait(t, 10*time.Second, func() bool {
		return e.RemoteDelivered.Load() > 0
	}, "nothing delivered to the peer")

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`dataplane_remote_sent_total{stage="uplink",peer="` + srv.Addr() + `"}`,
		"dataplane_remote_acked_total",
		"dataplane_remote_reconnects_total",
		"dataplane_remote_window_stalls_total",
		"dataplane_remote_ecn_echoes_total",
		"dataplane_remote_queued",
		"dataplane_remote_inflight_frames",
		"dataplane_remote_link_state",
		"dataplane_remote_delivered_total",
		"dataplane_remote_drops_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("/healthz = %d with a connected link, want 200", rec.Code)
	}
	hb := rec.Body.String()
	if !strings.Contains(hb, "remote/uplink") {
		t.Errorf("/healthz missing remote/uplink row: %s", hb)
	}
	if !strings.Contains(hb, `"connected"`) {
		t.Errorf("/healthz remote row not connected: %s", hb)
	}
}

// TestRemoteDrainDeadLink is the shutdown-vs-outage regression: the remote
// peer dies permanently, packets pile up behind the reconnecting uplink, and
// the engine is asked to stop. The graceful drain cannot complete — the link
// never heals — so DrainTimeout must expire, Run must return (watchdogged
// here: a hang is the bug this test pins), and every stranded packet must be
// charged to an accounted class (RemoteDrops for what the link held,
// ShutdownDrops for what the sweep found) so the ledger still closes.
func TestRemoteDrainDeadLink(t *testing.T) {
	b := dataplane.New(dataplane.Config{
		RingSize: 1024, WeightPeriod: 0, DrainTimeout: 500 * time.Millisecond,
	})
	bs := b.AddStage("sink", 1024, func(p *dataplane.Packet) {})
	bch, err := b.AddChain(bs)
	if err != nil {
		t.Fatal(err)
	}
	b.MapFlow(1, bch)
	b.SetSink(b.PutPacketBatch)
	bctx, bcancel := context.WithCancel(context.Background())
	bdone := make(chan struct{})
	go func() { b.Run(bctx); close(bdone) }()

	srv, err := remote.Listen("127.0.0.1:0", remote.ServerConfig{
		OnBatch: b.RemoteIngress(),
		ECN:     b.CongestionSignal(),
	})
	if err != nil {
		t.Fatal(err)
	}

	a := dataplane.New(dataplane.Config{
		RingSize: 256, BatchSize: 16, Movers: 2, WeightPeriod: 0,
		DrainTimeout: 300 * time.Millisecond,
	})
	as := a.AddStage("stamp", 1024, func(p *dataplane.Packet) {})
	up := a.AddRemoteStage("uplink", 1024, dataplane.RemoteConfig{
		Addr:       srv.Addr(),
		Window:     4,
		FrameBatch: 16,
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
		MaxDials:   -1, // keep dialing a peer that will never come back
	})
	ach, err := a.AddChain(as, up)
	if err != nil {
		t.Fatal(err)
	}
	a.MapFlow(1, ach)
	actx, acancel := context.WithCancel(context.Background())
	adone := make(chan struct{})
	ha := a.ProducerHandle(0)
	go func() { a.Run(actx); close(adone) }()

	// paced tracks RemoteDelivered so the warm-up phase never outruns the
	// credit window into mid-ring overflow; the dead-link phase injects
	// unpaced on purpose — buildup behind the corpse is the scenario.
	inject := func(n int, paced bool) int {
		sent := 0
		deadline := time.Now().Add(5 * time.Second)
		for sent < n && time.Now().Before(deadline) {
			if paced && uint64(sent)-a.RemoteDelivered.Load() >= 64 {
				runtime.Gosched()
				continue
			}
			p := a.GetPacket()
			p.FlowID = 1
			p.Size = 64
			dataplane.Offer(ha, p)
			sent++
		}
		return sent
	}

	// Phase 1: a healthy paced burst proves the link up before we kill it.
	warm := inject(500, true)
	remoteWait(t, 10*time.Second, func() bool {
		return a.RemoteDelivered.Load() >= uint64(warm)
	}, "uplink never delivered the warm-up burst")

	// Phase 2: the peer dies for good. The uplink enters its reconnect loop
	// (every dial now refused) while fresh packets stack up behind it.
	srv.Close()
	bcancel()
	<-bdone
	inject(400, false)

	// Phase 3: stop the engine mid-reconnect. The drain can't finish; Run
	// must give up at DrainTimeout and still return. 20s is the watchdog —
	// orders of magnitude past the 300ms drain budget.
	acancel()
	select {
	case <-adone:
	case <-time.After(20 * time.Second):
		t.Fatal("Run hung draining a dead remote link (DrainTimeout not honored)")
	}

	l := a.LedgerSnapshot()
	if l.Residual() != 0 {
		t.Fatalf("ledger open after dead-link drain: residual=%d ledger=%+v", l.Residual(), l)
	}
	if l.RemoteDelivered < uint64(warm) {
		t.Errorf("warm-up burst lost: remoteDelivered=%d want>=%d", l.RemoteDelivered, warm)
	}
	if l.RemoteDrops+l.ShutdownDrops == 0 {
		t.Errorf("stranded packets uncharged: remoteDrops=%d shutdownDrops=%d ledger=%+v",
			l.RemoteDrops, l.ShutdownDrops, l)
	}
	if st := a.RemoteStats()[0]; st.Queued != 0 || st.Inflight != 0 {
		t.Errorf("link closed with unsettled frames: %+v", st)
	}
}

// Package nfvnice is a Go reproduction of "NFVnice: Dynamic Backpressure and
// Scheduling for NFV Service Chains" (SIGCOMM 2017): a user-space NF
// scheduling and service-chain management framework providing rate-cost
// proportional fair CPU allocation via cgroup weights and chain-aware
// backpressure, evaluated over faithful models of the Linux CFS, CFS-BATCH
// and round-robin schedulers inside a deterministic discrete-event
// simulation of an OpenNetVM-style platform.
//
// The entry point is Platform: declare cores with a scheduling policy, pin
// NFs with per-packet cost models, register service chains, map flows,
// attach workloads, and run. Metrics mirror what the paper reports:
// per-chain throughput, wasted work, context switches, scheduling latency,
// CPU utilization and fairness.
//
//	cfg := nfvnice.DefaultConfig(nfvnice.SchedBatch, nfvnice.ModeNFVnice)
//	p := nfvnice.NewPlatform(cfg)
//	core := p.AddCore()
//	nf1 := p.AddNF("light", nfvnice.FixedCost(120), core)
//	nf2 := p.AddNF("heavy", nfvnice.FixedCost(550), core)
//	ch := p.AddChain("fw-dpi", nf1, nf2)
//	p.MapFlow(nfvnice.UDPFlow(0, 64), ch)
//	p.AddCBR(nfvnice.UDPFlow(0, 64), nfvnice.LineRate10G(64))
//	p.Run(nfvnice.Seconds(1))
//	fmt.Println(p.ChainDeliveredRate(ch, nfvnice.Seconds(1)))
package nfvnice

import (
	"fmt"
	"math/rand"

	"nfvnice/internal/cgroups"
	"nfvnice/internal/chain"
	ctl "nfvnice/internal/core"
	"nfvnice/internal/cpusched"
	"nfvnice/internal/eventsim"
	"nfvnice/internal/flowtable"
	"nfvnice/internal/iosim"
	"nfvnice/internal/mgr"
	"nfvnice/internal/nf"
	"nfvnice/internal/obs"
	"nfvnice/internal/packet"
	"nfvnice/internal/pcap"
	"nfvnice/internal/simtime"
	"nfvnice/internal/traffic"
)

// Re-exported time and rate types: all public APIs speak cycles of the
// simulated 2.6 GHz clock and packets per second.
type (
	// Cycles is simulated time/duration in CPU cycles (2.6 GHz).
	Cycles = simtime.Cycles
	// Rate is packets (or events) per second.
	Rate = simtime.Rate
	// Flow identifies a generated traffic flow.
	Flow = traffic.Flow
	// CostModel prices one packet's processing at an NF.
	CostModel = nf.CostModel
	// DropPoint tells where a packet died.
	DropPoint = mgr.DropPoint
	// Sink observes a flow's delivered/dropped packets.
	Sink = mgr.Sink
	// Packet is the packet descriptor handed to sinks.
	Packet = packet.Packet
)

// Convenience duration constructors.
func Seconds(s float64) Cycles       { return Cycles(s * float64(simtime.Second)) }
func Milliseconds(ms float64) Cycles { return Cycles(ms * float64(simtime.Millisecond)) }

// Exposed simtime helpers.
var (
	// LineRate10G is the 10 GbE packet rate for a frame size.
	LineRate10G = simtime.LineRate10G
	// UDPFlow and TCPFlow construct distinct flows by index.
	UDPFlow = traffic.FlowN
	TCPFlow = traffic.TCPFlowN
)

// Cost model constructors re-exported from the NF layer.
func FixedCost(cycles Cycles) CostModel            { return nf.FixedCost(cycles) }
func ClassCost(classes ...Cycles) CostModel        { return nf.ClassCost(classes) }
func UniformCost(lo, hi Cycles) CostModel          { return nf.UniformCost{Lo: lo, Hi: hi} }
func ByteCost(base, perByte Cycles) CostModel      { return nf.ByteCost{Base: base, PerByte: perByte} }
func NewDynamicCost(cycles Cycles) *nf.DynamicCost { return nf.NewDynamicCost(cycles) }

// SchedPolicy selects the kernel scheduler model for a core.
type SchedPolicy int

// Scheduler policies from the paper's evaluation.
const (
	SchedNormal  SchedPolicy = iota // CFS SCHED_NORMAL
	SchedBatch                      // CFS SCHED_BATCH
	SchedRR1ms                      // SCHED_RR, 1 ms slice
	SchedRR100ms                    // SCHED_RR, 100 ms slice
)

func (s SchedPolicy) String() string {
	switch s {
	case SchedNormal:
		return "NORMAL"
	case SchedBatch:
		return "BATCH"
	case SchedRR1ms:
		return "RR(1ms)"
	case SchedRR100ms:
		return "RR(100ms)"
	default:
		return fmt.Sprintf("sched(%d)", int(s))
	}
}

// AllSchedPolicies lists the four evaluated schedulers.
func AllSchedPolicies() []SchedPolicy {
	return []SchedPolicy{SchedNormal, SchedBatch, SchedRR1ms, SchedRR100ms}
}

// Mode selects which NFVnice mechanisms run, matching the paper's ablation
// bars: Default, CGroup, Only BKPR, NFVnice.
type Mode int

// Feature modes.
const (
	ModeDefault Mode = iota
	ModeCgroupsOnly
	ModeBackpressureOnly
	ModeNFVnice
)

func (m Mode) String() string {
	switch m {
	case ModeDefault:
		return "Default"
	case ModeCgroupsOnly:
		return "CGroup"
	case ModeBackpressureOnly:
		return "OnlyBKPR"
	case ModeNFVnice:
		return "NFVnice"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Features returns the manager feature set the mode enables, for building
// FeatureOverride values in ablations.
func (m Mode) Features() mgr.Features { return m.features() }

func (m Mode) features() mgr.Features {
	switch m {
	case ModeCgroupsOnly:
		return mgr.FeatureCgroupsOnly()
	case ModeBackpressureOnly:
		return mgr.FeatureBackpressureOnly()
	case ModeNFVnice:
		return mgr.FeatureNFVnice()
	default:
		return mgr.FeatureDefault()
	}
}

// AllModes lists the four ablation configurations.
func AllModes() []Mode {
	return []Mode{ModeDefault, ModeCgroupsOnly, ModeBackpressureOnly, ModeNFVnice}
}

// Config assembles a platform. Zero values are filled by DefaultConfig.
type Config struct {
	Scheduler SchedPolicy
	Mode      Mode
	// PoolSize is the shared descriptor pool capacity.
	PoolSize int
	// NFParams configure libnf (batch size, rings, watermarks, sampling).
	NFParams nf.Params
	// MgrParams configure the manager threads and backpressure.
	MgrParams *mgr.Params
	// CtlParams configure the NFVnice controller (monitor and weight
	// update cadence).
	CtlParams ctl.Params
	// FeatureOverride, when non-nil, replaces the Mode-derived feature
	// set (for ablations such as hop-by-hop-only backpressure).
	FeatureOverride *mgr.Features
	// SchedulerFactory, when non-nil, overrides the Scheduler policy with
	// a custom per-core scheduler (e.g. the queue-length-aware kernel
	// scheduler ablation).
	SchedulerFactory func() cpusched.Scheduler
	// CoreParams, when non-nil, overrides the context-switch cost model
	// (e.g. to charge per-decision kernel-sync overhead).
	CoreParams *cpusched.CoreParams
	// Seed drives every RNG in the platform.
	Seed int64
}

func (c Config) features() mgr.Features {
	if c.FeatureOverride != nil {
		return *c.FeatureOverride
	}
	return c.Mode.features()
}

// DefaultConfig returns the calibrated configuration for a scheduler/mode
// combination.
func DefaultConfig(s SchedPolicy, m Mode) Config {
	return Config{
		Scheduler: s,
		Mode:      m,
		PoolSize:  65536,
		NFParams:  nf.DefaultParams(),
		CtlParams: ctl.DefaultParams(),
		Seed:      1,
	}
}

// Platform is an assembled NFV host: cores, NFs, chains, manager,
// controller, and workloads, all inside one deterministic simulation.
type Platform struct {
	cfg Config

	Eng    *eventsim.Engine
	Pool   *packet.Pool
	Chains *chain.Registry
	Mgr    *mgr.Manager
	FS     *cgroups.FS
	Ctl    *ctl.Controller

	cores    []*cpusched.Core
	nfs      []*nf.NF
	nic      *traffic.NIC
	gens     []*traffic.CBR
	poissons []*traffic.Poisson
	replays  []*traffic.Replay
	tcps     []*traffic.TCPFlow

	started bool
	seedSeq int64
}

// NewPlatform builds an empty platform from the config.
func NewPlatform(cfg Config) *Platform {
	return NewPlatformOn(cfg, eventsim.New())
}

// NewPlatformOn builds a platform on an existing engine, so several hosts
// can share one simulated timeline (cross-host chains, §3.3). Create host A
// with NewPlatform and host B with NewPlatformOn(cfg, hostA.Eng), then
// bridge them with a Link.
func NewPlatformOn(cfg Config, eng *eventsim.Engine) *Platform {
	if cfg.PoolSize == 0 {
		cfg = DefaultConfig(cfg.Scheduler, cfg.Mode)
	}
	pool := packet.NewPool(cfg.PoolSize)
	chains := chain.NewRegistry()
	mp := mgr.DefaultParams(cfg.features())
	if cfg.MgrParams != nil {
		mp = *cfg.MgrParams
		mp.Features = cfg.features()
	}
	m := mgr.New(eng, pool, chains, mp)
	fs := cgroups.NewFS()
	return &Platform{
		nic:    traffic.NewNIC(eng),
		cfg:    cfg,
		Eng:    eng,
		Pool:   pool,
		Chains: chains,
		Mgr:    m,
		FS:     fs,
		Ctl:    ctl.New(eng, fs, cfg.CtlParams),
	}
}

// Config returns the platform's configuration.
func (p *Platform) Config() Config { return p.cfg }

func (p *Platform) newScheduler() cpusched.Scheduler {
	if p.cfg.SchedulerFactory != nil {
		return p.cfg.SchedulerFactory()
	}
	switch p.cfg.Scheduler {
	case SchedBatch:
		return cpusched.NewCFSBatch()
	case SchedRR1ms:
		return cpusched.NewRR("rr-1ms", simtime.Millisecond)
	case SchedRR100ms:
		return cpusched.NewRR("rr-100ms", 100*simtime.Millisecond)
	default:
		return cpusched.NewCFS()
	}
}

// AddCore creates an NF core under the configured scheduler and returns its
// index.
func (p *Platform) AddCore() int {
	id := len(p.cores)
	cp := cpusched.DefaultCoreParams()
	if p.cfg.CoreParams != nil {
		cp = *p.cfg.CoreParams
	}
	c := cpusched.NewCore(id, p.Eng, p.newScheduler(), cp)
	p.cores = append(p.cores, c)
	return id
}

// Core exposes a core for metric collection.
func (p *Platform) Core(id int) *cpusched.Core { return p.cores[id] }

// Cores reports the number of NF cores.
func (p *Platform) Cores() int { return len(p.cores) }

// AddNF creates an NF with the given per-packet cost model, pins it to the
// core, and registers it with the manager and controller. It returns the NF
// id used in chain definitions.
func (p *Platform) AddNF(name string, cost CostModel, coreID int) int {
	if p.started {
		panic("nfvnice: AddNF after Run")
	}
	id := len(p.nfs)
	p.seedSeq++
	n := nf.New(id, name, cost, p.cfg.NFParams, p.cfg.Seed*1_000_003+p.seedSeq)
	p.cores[coreID].AddTask(n.Task)
	p.nfs = append(p.nfs, n)
	p.Mgr.AddNF(n)
	if p.cfg.features().CGroupShares {
		if err := p.Ctl.Manage(n); err != nil {
			panic(err)
		}
	}
	return id
}

// NF exposes the underlying NF for metric collection and advanced knobs
// (priority, loggers).
func (p *Platform) NF(id int) *nf.NF { return p.nfs[id] }

// NFCount reports the number of NFs.
func (p *Platform) NFCount() int { return len(p.nfs) }

// SetPriority sets the NFVnice priority multiplier for differentiated
// service.
func (p *Platform) SetPriority(nfID int, prio float64) { p.nfs[nfID].Priority = prio }

// AddChain registers a service chain over NF ids and returns the chain id.
func (p *Platform) AddChain(name string, nfIDs ...int) int {
	if p.started {
		panic("nfvnice: AddChain after Run")
	}
	c := p.Chains.MustAdd(name, nfIDs...)
	// The manager sized its per-chain meters at construction; re-grow.
	p.Mgr.GrowChains(p.Chains.Len())
	return c.ID
}

// MapFlow routes a flow's 5-tuple to a chain.
func (p *Platform) MapFlow(f Flow, chainID int) {
	p.Mgr.Table.InstallExact(f.Key, chainID)
}

// InstallRule adds a wildcard flow rule (zero fields match anything).
func (p *Platform) InstallRule(r flowtable.Rule) { p.Mgr.Table.Install(r) }

// AddCBR attaches a constant-rate UDP generator for the flow. Generators
// share a NIC that interleaves concurrent flows' packets on the wire.
func (p *Platform) AddCBR(f Flow, rate Rate) *traffic.CBR {
	p.seedSeq++
	g := traffic.NewCBR(p.nic, p.Mgr, f, rate, p.cfg.Seed*7_000_003+p.seedSeq)
	p.gens = append(p.gens, g)
	return g
}

// AddReplay attaches a pcap trace replayer. Flows discovered in the trace
// get dense ids starting at firstFlowID; map them to chains via Prescan +
// MapFlow or a wildcard InstallRule before running.
func (p *Platform) AddReplay(pkts []pcap.Packet, firstFlowID int) *traffic.Replay {
	r := traffic.NewReplay(p.Eng, p.Mgr, pkts, firstFlowID)
	p.replays = append(p.replays, r)
	return r
}

// AddPoisson attaches a Poisson-arrival UDP generator for the flow.
func (p *Platform) AddPoisson(f Flow, rate Rate) *traffic.Poisson {
	p.seedSeq++
	g := traffic.NewPoisson(p.Eng, p.Mgr, f, rate, p.cfg.Seed*11_000_003+p.seedSeq)
	p.poissons = append(p.poissons, g)
	return g
}

// AddTCP attaches a Reno TCP bulk sender for the flow.
func (p *Platform) AddTCP(f Flow, params traffic.TCPParams) *traffic.TCPFlow {
	t := traffic.NewTCPFlow(p.Eng, p.Mgr, f, params)
	p.tcps = append(p.tcps, t)
	return t
}

// AttachAsyncLogger gives the NF a double-buffered async disk writer
// (libnf_write_data); logFlows restricts logging to those FlowIDs (nil =
// all).
func (p *Platform) AttachAsyncLogger(nfID int, logFlows map[int]bool) *iosim.Writer {
	disk := iosim.NewDisk(p.Eng)
	w := iosim.NewWriter(p.Eng, disk)
	n := p.nfs[nfID]
	n.AttachLogger(w)
	n.LogFlows = logFlows
	return w
}

// AttachSyncLogger gives the NF the synchronous-write baseline.
func (p *Platform) AttachSyncLogger(nfID int, logFlows map[int]bool) {
	disk := iosim.NewDisk(p.Eng)
	n := p.nfs[nfID]
	n.SyncLogger = iosim.NewSyncWriter(disk)
	n.LogFlows = logFlows
}

// RegisterSink attaches a per-flow observer (UDP accounting and tests).
func (p *Platform) RegisterSink(flowID int, s Sink) { p.Mgr.RegisterSink(flowID, s) }

// Rand returns a deterministic RNG derived from the platform seed, for
// experiment-level randomness (workload construction).
func (p *Platform) Rand() *rand.Rand {
	p.seedSeq++
	return rand.New(rand.NewSource(p.cfg.Seed*13_000_001 + p.seedSeq))
}

// EnableTraceTo records a Chrome-trace (Perfetto-compatible) timeline of
// the run into an obs.Sink — in practice a streaming obs.ChromeWriter:
// per-core NF run spans, backpressure transitions, and cpu.shares counters.
// Call before Run and Close the writer after it. Hooks are chained, so
// tracing composes with EnableTelemetry and repeated calls.
func (p *Platform) EnableTraceTo(tr obs.Sink) {
	p.addRunSpanHook(tr)
	p.addThrottleHook(func(nfID int, state string, now Cycles) {
		tr.Instant("bp-"+state, now, map[string]any{"nf": p.nfs[nfID].Name})
	})
	p.addSharesHook(func(nfID, shares int, now Cycles) {
		tr.Counter("shares:"+p.nfs[nfID].Name, now, float64(shares))
	})
}

// Start arms the manager, controller and generators without advancing time.
// Run calls it implicitly.
func (p *Platform) Start() {
	if p.started {
		return
	}
	p.started = true
	p.Mgr.Start()
	if p.cfg.features().CGroupShares {
		p.Ctl.Start()
	}
	for _, g := range p.gens {
		g.Start()
	}
	for _, g := range p.poissons {
		g.Start()
	}
	for _, r := range p.replays {
		r.Start()
	}
}

// Run advances the simulation until the given absolute time.
func (p *Platform) Run(until Cycles) {
	p.Start()
	p.Eng.RunUntil(until)
}

// Now reports current simulated time.
func (p *Platform) Now() Cycles { return p.Eng.Now() }

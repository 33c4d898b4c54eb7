// Package core implements NFVnice's control loop: the monitor thread that
// estimates each NF's load every millisecond from its packet arrival rate
// and sampled median service time, and the weight assigner that converts
// loads into cgroup cpu.shares every 10 ms:
//
//	Shares_i = Priority_i * load(i) / TotalLoad(core),  load(i) = λ_i · s_i
//
// This is the paper's rate-cost proportional fairness. The controller never
// touches the data path; it reads shared meters and writes cpu.shares, the
// same separation of load estimation from CPU allocation the paper insists
// on (sysfs writes cost ~5 µs and must stay off the packet path).
//
// The allocation formula itself is the pure function Shares (shares.go). It
// has two callers: this package's weightTick, over the simulated NFs of each
// cpusched core, and the live engine's updateWeights (internal/dataplane),
// over the stages of each scheduler core.
package core

import (
	"fmt"

	"nfvnice/internal/cgroups"
	"nfvnice/internal/cpusched"
	"nfvnice/internal/eventsim"
	"nfvnice/internal/nf"
	"nfvnice/internal/simtime"
)

// Params tune the control loop.
type Params struct {
	// MonitorInterval is the load-estimation period (1 ms — the paper's
	// 1000 Hz monitoring).
	MonitorInterval simtime.Cycles
	// WeightInterval is the cpu.shares update period (10 ms).
	WeightInterval simtime.Cycles
	// ShareScale is the total cpu.shares distributed across the NFs of
	// one core.
	ShareScale int
	// LoadSmoothing is the EWMA weight folding each 1 ms load sample into
	// the estimate used at weight-update time.
	LoadSmoothing float64
	// MinShare floors every managed NF's cpu.shares: the paper's
	// requirement that "all competing NFs get a minimal CPU share
	// necessary to progress" (and the escape hatch from the bootstrap
	// deadlock where an NF with no CPU never produces service-time
	// samples).
	MinShare int
	// UseMeanEstimator switches the service-time estimator from the
	// median to the mean (the estimator ablation; the paper argues the
	// median resists context-switch outliers).
	UseMeanEstimator bool
}

// DefaultParams returns the paper's control-loop settings.
func DefaultParams() Params {
	return Params{
		MonitorInterval: simtime.Millisecond,
		WeightInterval:  10 * simtime.Millisecond,
		ShareScale:      10 * cgroups.DefaultShares,
		LoadSmoothing:   0.10,
		MinShare:        10 * cgroups.DefaultShares / 100, // 1% floor
	}
}

// nfEntry is the controller's per-NF state.
type nfEntry struct {
	nf    *nf.NF
	group *cgroups.Group
	core  *cpusched.Core
	load  float64 // smoothed λ·s, in fractional cores
}

// Controller drives rate-cost proportional CPU allocation.
type Controller struct {
	eng    *eventsim.Engine
	fs     *cgroups.FS
	params Params

	entries []*nfEntry
	byCore  map[*cpusched.Core][]*nfEntry
	// demands and shares are weightTick's per-core scratch.
	demands []Demand
	shares  []int

	// Loads exposes the latest smoothed load per NF id (for metrics).
	Loads []float64

	// OnShares, when set, observes every effective cpu.shares write
	// (tracing).
	OnShares func(nfID int, shares int, now simtime.Cycles)
}

// New returns a controller; register NFs with Manage, then Start.
func New(eng *eventsim.Engine, fs *cgroups.FS, params Params) *Controller {
	return &Controller{
		eng:    eng,
		fs:     fs,
		params: params,
		byCore: make(map[*cpusched.Core][]*nfEntry),
	}
}

// Manage places an NF under controller management. The NF's task must
// already be pinned to a core.
func (c *Controller) Manage(n *nf.NF) error {
	core := n.Task.Core()
	if core == nil {
		panic("core: Manage before the NF's task is pinned")
	}
	// Cgroup directories are per NF process: key by id so NFs may share
	// human-readable names.
	g, err := c.fs.Create(fmt.Sprintf("nf%d-%s", n.ID, n.Name), n.Task)
	if err != nil {
		return err
	}
	e := &nfEntry{nf: n, group: g, core: core}
	c.entries = append(c.entries, e)
	c.byCore[core] = append(c.byCore[core], e)
	for len(c.Loads) <= n.ID {
		c.Loads = append(c.Loads, 0)
	}
	return nil
}

// Start arms the monitor and weight-update timers.
func (c *Controller) Start() {
	c.eng.Every(c.params.MonitorInterval, c.params.MonitorInterval, c.monitorTick)
	c.eng.Every(c.params.WeightInterval, c.params.WeightInterval, c.weightTick)
}

// monitorTick estimates load(i) = λ_i · s_i for every NF.
func (c *Controller) monitorTick() {
	now := c.eng.Now()
	for _, e := range c.entries {
		lambda := float64(e.nf.ArrivalMeter.Snapshot(now)) // packets/s
		var svc simtime.Cycles
		if c.params.UseMeanEstimator {
			svc = e.nf.EstimatedServiceTimeMean(now)
		} else {
			svc = e.nf.EstimatedServiceTime(now)
		}
		if svc == 0 {
			// No samples yet (fresh NF or one starved of CPU): leave the
			// load estimate alone rather than driving it — and the NF's
			// weight — to zero.
			continue
		}
		sample := lambda * svc.Seconds() // fractional cores of demand
		a := c.params.LoadSmoothing
		e.load = a*sample + (1-a)*e.load
		c.Loads[e.nf.ID] = e.load
	}
}

// weightTick converts loads into cpu.shares per core.
func (c *Controller) weightTick() {
	for _, entries := range c.byCore {
		c.demands = c.demands[:0]
		for _, e := range entries {
			c.demands = append(c.demands, Demand{Load: e.load, Priority: e.nf.Priority})
		}
		c.shares = Shares(c.shares, c.demands, c.params.ShareScale, c.params.MinShare)
		for i, e := range entries {
			if c.shares[i] == KeepShares {
				continue
			}
			if c.fs.SetShares(e.group, c.shares[i]) > 0 && c.OnShares != nil {
				c.OnShares(e.nf.ID, c.shares[i], c.eng.Now())
			}
		}
	}
}

// ShareOf reports the NF's current cpu.shares (for metrics).
func (c *Controller) ShareOf(n *nf.NF) int {
	for _, e := range c.entries {
		if e.nf == n {
			return e.group.Shares()
		}
	}
	return 0
}

package bp

import (
	"slices"

	"nfvnice/internal/simtime"
)

// Observation is one stage's receive-queue condition as its caller sampled
// it: the simulated manager reads its rings' watermark flags and
// time-above-high, the live engine compares the deeper of rx.Len() and the
// depth a mover posted at enqueue time against its watermarks (and forces
// AboveHigh for a remote stage whose peer echoes ECN).
type Observation struct {
	AboveHigh, BelowLow bool
	// TimeAbove is how long the queue has been above the high watermark (0
	// for a caller that runs with no watch window).
	TimeAbove simtime.Cycles
	// Depth is the occupancy the flags were derived from. The controller
	// never reads it; a caller that journals an Edge finds the causing
	// depth at obs[Edge.Stage].
	Depth int
}

// Edge is one chain starting or stopping to shed at its entry in a Step.
type Edge struct {
	Chain int
	// Stage is the bottleneck whose state machine raised the chain's first
	// claim (On) or released its last one (off).
	Stage int
	On    bool
}

// Controller is the backpressure policy both substrates run: one Figure 4
// machine per stage, a per-chain count of the bottlenecks claiming it, and
// the upstream yield selection. It holds no clock, ring or atomic; callers
// feed it observations and apply the edges it reports. Not safe for
// concurrent use — own it from one control thread or goroutine.
type Controller struct {
	// Throttles counts, per chain, the stages currently in PacketThrottle
	// on it; the chain sheds at entry while the count is positive.
	Throttles *ChainThrottles
	// Observer, when set, sees every Figure 4 edge of every stage with its
	// cause, synchronously from Step.
	Observer func(stage int, tr Transition)

	params Params
	chains [][]int // chain id -> stage ids in hop order
	states []NFState
	yield  []bool
	edges  []Edge
}

// NewController returns a controller over a fixed topology: stages are
// numbered 0..stages-1 and chains[c] lists chain c's stages in hop order.
// Claims are counted in table, which the caller may share with its entry
// path.
func NewController(p Params, stages int, chains [][]int, table *ChainThrottles) *Controller {
	c := &Controller{
		Throttles: table,
		params:    p,
		chains:    chains,
		states:    make([]NFState, stages),
		yield:     make([]bool, stages),
	}
	for i := range c.states {
		stage := i
		c.states[i].Observer = func(tr Transition) {
			if c.Observer != nil {
				c.Observer(stage, tr)
			}
		}
	}
	return c
}

// State reports a stage's position in the Figure 4 machine.
func (c *Controller) State(stage int) State { return c.states[stage].State() }

// Yield reports whether the stage should relinquish the CPU, as of the last
// Step.
func (c *Controller) Yield(stage int) bool { return c.yield[stage] }

// Step advances every stage's machine by one observation (obs[i] is stage
// i's), moves the chain claims accordingly and reselects the yield set. It
// returns the chains whose shedding changed, in stage order; the slice is
// reused by the next Step.
func (c *Controller) Step(obs []Observation) []Edge {
	c.edges = c.edges[:0]
	for i := range c.states {
		o := obs[i]
		enable, disable := c.states[i].Update(c.params, o.AboveHigh, o.BelowLow, o.TimeAbove)
		if !enable && !disable {
			continue
		}
		for ch, chain := range c.chains {
			if !slices.Contains(chain, i) {
				continue
			}
			was := c.Throttles.Throttled(ch)
			if enable {
				c.Throttles.Enable(ch)
			} else {
				c.Throttles.Disable(ch)
			}
			if now := c.Throttles.Throttled(ch); now != was {
				c.edges = append(c.edges, Edge{Chain: ch, Stage: i, On: now})
			}
		}
	}
	c.selectYields()
	return c.edges
}

// selectYields marks the stages that should relinquish the CPU: a stage
// yields only when every chain it serves is throttled and it sits strictly
// upstream of a throttling bottleneck in each of them. Shared stages with
// un-throttled chains keep running (the paper's Fig 8: NF1 keeps serving
// chain 1 while chain 2 is back-pressured), and stages downstream of a
// bottleneck keep running to drain it.
func (c *Controller) selectYields() {
	clear(c.yield)
	for _, chain := range c.chains {
		for _, s := range chain {
			c.yield[s] = true
		}
	}
	for ci, chain := range c.chains {
		// Walk up from the chain's tail, remembering whether a throttling
		// stage has been passed: any visit that does not justify yielding
		// vetoes it for that stage.
		bottleneckBelow := false
		for hop := len(chain) - 1; hop >= 0; hop-- {
			if !(bottleneckBelow && c.Throttles.Throttled(ci)) {
				c.yield[chain[hop]] = false
			}
			bottleneckBelow = bottleneckBelow || c.states[chain[hop]].State() == PacketThrottle
		}
	}
}

package bp

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// fig8 is the paper's Figure 8 topology: two chains sharing their first and
// last stage, each with a private middle stage.
var fig8 = [][]int{{0, 1, 3}, {0, 2, 3}}

func TestControllerSelectiveYield(t *testing.T) {
	c := NewController(Params{}, 4, fig8, NewChainThrottles())
	obs := make([]Observation, 4)
	calm := Observation{BelowLow: true}
	hot := Observation{AboveHigh: true}
	for i := range obs {
		obs[i] = calm
	}
	// Stage 2 (chain 1 only) congests: chain 1 sheds, chain 0 does not, and
	// the shared stage 0 keeps running for chain 0.
	obs[2] = hot
	edges := c.Step(obs)
	if len(edges) != 1 || edges[0] != (Edge{Chain: 1, Stage: 2, On: true}) {
		t.Fatalf("edges = %+v, want chain 1 on by stage 2", edges)
	}
	if c.Yield(0) || c.Yield(2) || c.Yield(3) {
		t.Fatalf("yield set = %v %v %v %v, want none (stage 0 still serves chain 0)",
			c.Yield(0), c.Yield(1), c.Yield(2), c.Yield(3))
	}
	// Stage 1 congests too: now every chain through stage 0 is throttled
	// with a bottleneck downstream, so it yields; the bottlenecks and the
	// stage draining them do not.
	obs[1] = hot
	c.Step(obs)
	if !c.Yield(0) || c.Yield(1) || c.Yield(2) || c.Yield(3) {
		t.Fatalf("yield set = %v %v %v %v, want only stage 0",
			c.Yield(0), c.Yield(1), c.Yield(2), c.Yield(3))
	}
	// Between the watermarks nothing moves (hysteresis).
	obs[1], obs[2] = Observation{}, Observation{}
	if edges := c.Step(obs); len(edges) != 0 || !c.Yield(0) {
		t.Fatalf("between watermarks: edges %+v yield(0) %v", edges, c.Yield(0))
	}
	// Stage 1 drains: chain 0 is released by the stage that claimed it and
	// stage 0 runs again.
	obs[1] = calm
	edges = c.Step(obs)
	if len(edges) != 1 || edges[0] != (Edge{Chain: 0, Stage: 1}) {
		t.Fatalf("edges = %+v, want chain 0 off by stage 1", edges)
	}
	if c.Yield(0) {
		t.Fatal("shared stage still yields with chain 0 unthrottled")
	}
}

func TestControllerSharedBottleneckRefcounts(t *testing.T) {
	// Stages 2 and 3 both throttle chain 1; it clears only when the last of
	// them releases, and the off edge names that one.
	c := NewController(Params{}, 4, fig8, NewChainThrottles())
	obs := []Observation{{BelowLow: true}, {BelowLow: true}, {AboveHigh: true}, {AboveHigh: true}}
	if edges := c.Step(obs); len(edges) != 2 {
		t.Fatalf("edges = %+v, want chain 1 on by stage 2 and chain 0 on by stage 3", edges)
	}
	obs[3] = Observation{BelowLow: true}
	edges := c.Step(obs)
	if len(edges) != 1 || edges[0] != (Edge{Chain: 0, Stage: 3}) {
		t.Fatalf("edges = %+v, want only chain 0 off (stage 2 still claims chain 1)", edges)
	}
	obs[2] = Observation{BelowLow: true}
	edges = c.Step(obs)
	if len(edges) != 1 || edges[0] != (Edge{Chain: 1, Stage: 2}) {
		t.Fatalf("edges = %+v, want chain 1 off by stage 2", edges)
	}
}

// TestControllerInvariants drives random topologies with random observation
// sequences and checks, after every Step, the three properties the callers
// rely on.
func TestControllerInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stages := 1 + rng.Intn(6)
		chains := make([][]int, 1+rng.Intn(4))
		for ci := range chains {
			chains[ci] = rng.Perm(stages)[:1+rng.Intn(stages)]
		}
		table := NewChainThrottles()
		c := NewController(Params{QueueTimeThreshold: 2}, stages, chains, table)
		claimed := make([]bool, len(chains))
		obs := make([]Observation, stages)
		for step := 0; step < 200; step++ {
			for i := range obs {
				depth := rng.Intn(10)
				obs[i] = Observation{AboveHigh: depth >= 8, BelowLow: depth < 6, Depth: depth}
				if obs[i].AboveHigh && rng.Intn(2) == 0 {
					obs[i].TimeAbove = 5 // past the threshold: leaves the watch list
				}
			}
			for _, ed := range c.Step(obs) {
				if claimed[ed.Chain] == ed.On {
					t.Logf("seed %d step %d: repeated edge %+v", seed, step, ed)
					return false
				}
				claimed[ed.Chain] = ed.On
			}
			for ci, chain := range chains {
				n := 0
				for _, s := range chain {
					if c.State(s) == PacketThrottle {
						n++
					}
				}
				// The claim count is exactly the number of throttling
				// stages on the chain: never negative, and the chain is
				// throttled iff one exists.
				if table.counts[ci] != n || table.Throttled(ci) != (n > 0) || claimed[ci] != (n > 0) {
					t.Logf("seed %d step %d chain %d: count %d, %d stages throttling, edges say %v",
						seed, step, ci, table.counts[ci], n, claimed[ci])
					return false
				}
			}
			for s := 0; s < stages; s++ {
				if !c.Yield(s) {
					continue
				}
				served := 0
				for ci, chain := range chains {
					pos := slices.Index(chain, s)
					if pos < 0 {
						continue
					}
					served++
					downstream := false
					for _, b := range chain[pos+1:] {
						downstream = downstream || c.State(b) == PacketThrottle
					}
					if !table.Throttled(ci) || !downstream {
						t.Logf("seed %d step %d: stage %d yields on chain %d (throttled %v, bottleneck downstream %v)",
							seed, step, s, ci, table.Throttled(ci), downstream)
						return false
					}
				}
				if served == 0 {
					t.Logf("seed %d step %d: stage %d yields but serves no chain", seed, step, s)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

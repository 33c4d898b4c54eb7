// Package chain defines service chains: ordered sequences of network
// functions a packet traverses (RFC 7665 service function chaining). Chains
// are configured at platform startup from simple declarative specs — the
// simulator's stand-in for OpenNetVM's config files or an SDN controller's
// flow rule installer.
package chain

import (
	"fmt"
)

// Chain is an ordered list of NF identifiers. The same NF instance may
// appear in multiple chains (the paper's Fig 8 shares NF1 and NF4 across two
// chains); it may appear at most once within a single chain.
type Chain struct {
	ID   int
	Name string
	NFs  []int
}

// Len reports the number of hops.
func (c *Chain) Len() int { return len(c.NFs) }

// NFAt returns the NF id at the given hop.
func (c *Chain) NFAt(hop int) int { return c.NFs[hop] }

// Entry returns the first NF id — where cross-chain backpressure sheds load.
func (c *Chain) Entry() int { return c.NFs[0] }

func (c *Chain) String() string {
	return fmt.Sprintf("chain%d%v", c.ID, c.NFs)
}

// Registry holds all configured chains, indexed by id.
type Registry struct {
	chains []*Chain
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Add registers a chain and returns it. Chain IDs are assigned densely in
// registration order. An empty NF list or a repeated NF within the chain is
// rejected.
func (r *Registry) Add(name string, nfs ...int) (*Chain, error) {
	if len(nfs) == 0 {
		return nil, fmt.Errorf("chain: %q has no NFs", name)
	}
	seen := make(map[int]bool, len(nfs))
	for _, id := range nfs {
		if seen[id] {
			return nil, fmt.Errorf("chain: %q repeats NF %d", name, id)
		}
		seen[id] = true
	}
	c := &Chain{ID: len(r.chains), Name: name, NFs: append([]int(nil), nfs...)}
	r.chains = append(r.chains, c)
	return c, nil
}

// MustAdd is Add that panics on error, for experiment setup code.
func (r *Registry) MustAdd(name string, nfs ...int) *Chain {
	c, err := r.Add(name, nfs...)
	if err != nil {
		panic(err)
	}
	return c
}

// Get returns the chain with the given id, or nil.
func (r *Registry) Get(id int) *Chain {
	if id < 0 || id >= len(r.chains) {
		return nil
	}
	return r.chains[id]
}

// Len reports the number of chains.
func (r *Registry) Len() int { return len(r.chains) }

// All returns every chain in id order.
func (r *Registry) All() []*Chain { return r.chains }

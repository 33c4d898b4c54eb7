// Package flowtable implements the NF manager's flow table: the Rx thread
// looks up each arriving packet's 5-tuple to find the service chain it
// belongs to. Exact-match entries are populated on demand (flow-cache style)
// from installed rules, mirroring OpenNetVM's flow director with an SDN-fed
// rule installer. Map is the per-flow state table of the NFs themselves.
package flowtable

import (
	"fmt"

	"nfvnice/internal/packet"
)

// Rule maps a match to a service chain. Zero-valued fields are wildcards.
type Rule struct {
	// Match fields; zero means "any".
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            packet.Proto

	// ChainID is the service chain packets matching this rule follow.
	ChainID int

	// Priority breaks ties among overlapping rules: the highest priority
	// matching rule wins; among equals, the earliest installed wins.
	Priority int
}

func (r Rule) matches(k packet.FlowKey) bool {
	if r.SrcIP != 0 && r.SrcIP != k.SrcIP {
		return false
	}
	if r.DstIP != 0 && r.DstIP != k.DstIP {
		return false
	}
	if r.SrcPort != 0 && r.SrcPort != k.SrcPort {
		return false
	}
	if r.DstPort != 0 && r.DstPort != k.DstPort {
		return false
	}
	if r.Proto != 0 && r.Proto != k.Proto {
		return false
	}
	return true
}

// Table is the two-level flow table: an exact-match cache in front of an
// ordered rule list. Not safe for concurrent use (the simulation is
// single-threaded; the Rx thread owns lookups).
type Table struct {
	exact map[packet.FlowKey]int
	rules []Rule

	// Lookups, CacheHits and Misses count lookup outcomes. A "miss" is a
	// packet matching no rule (dropped by the platform).
	Lookups   uint64
	CacheHits uint64
	Misses    uint64
}

// New returns an empty table.
func New() *Table {
	return &Table{exact: make(map[packet.FlowKey]int)}
}

// Install adds a rule. Rules are consulted in priority order (stable for
// equal priorities). Installing a rule invalidates the exact-match cache,
// as a real flow director must.
func (t *Table) Install(r Rule) {
	// Insert keeping the slice sorted by descending priority, stable.
	pos := len(t.rules)
	for i, existing := range t.rules {
		if r.Priority > existing.Priority {
			pos = i
			break
		}
	}
	t.rules = append(t.rules, Rule{})
	copy(t.rules[pos+1:], t.rules[pos:])
	t.rules[pos] = r
	t.exact = make(map[packet.FlowKey]int)
}

// InstallExact adds an exact-match entry directly, bypassing the rule list.
// Used by tests and by per-flow chain assignment in workloads.
func (t *Table) InstallExact(k packet.FlowKey, chainID int) {
	t.exact[k] = chainID
}

// Lookup resolves the chain for a flow key. ok is false when no rule
// matches.
func (t *Table) Lookup(k packet.FlowKey) (chainID int, ok bool) {
	t.Lookups++
	if id, hit := t.exact[k]; hit {
		t.CacheHits++
		return id, true
	}
	for _, r := range t.rules {
		if r.matches(k) {
			t.exact[k] = r.ChainID
			return r.ChainID, true
		}
	}
	t.Misses++
	return 0, false
}

// Rules reports the number of installed rules; Entries the exact-cache size.
func (t *Table) Rules() int   { return len(t.rules) }
func (t *Table) Entries() int { return len(t.exact) }

// String summarizes the table for diagnostics.
func (t *Table) String() string {
	return fmt.Sprintf("flowtable{rules=%d cache=%d lookups=%d hits=%d misses=%d}",
		len(t.rules), len(t.exact), t.Lookups, t.CacheHits, t.Misses)
}

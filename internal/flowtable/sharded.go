package flowtable

// Sharded is the concurrent, bounded counterpart of Table for the live
// dataplane's ingress frontends: the Rx-thread flow director, but safe for
// any number of producer goroutines and with a hard cap on resident
// entries. Millions of distinct flows stream through it.
//
// A key's hash picks its shard from the low bits and, within the shard, an
// 8-way set from the high bits. Each shard is an independently locked array
// of sets scanned in place, so concurrent producers contend only when their
// flows collide on a shard. Inserting a new flow into a full set replaces a
// random way, drawn from a per-shard xorshift: the strategy hardware flow
// caches use when LRU metadata costs too much per lookup. Random, not
// round-robin: under short heavy-tailed flows, round-robin walks every way
// in turn and so keeps evicting the long flows that earn the hits.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"nfvnice/internal/packet"
	"nfvnice/internal/ring"
)

// maxWays is the set associativity; smaller only when a shard holds fewer
// entries.
const maxWays = 8

// set is one associative set. Ways fill in order and are only ever
// replaced, never freed, so ways [0, n) are resident.
type set struct {
	keys   [maxWays]packet.Key
	chains [maxWays]int
	n      int
}

// find returns k's way, or -1 when k is not resident.
func (st *set) find(k packet.Key) int {
	for i, rk := range st.keys[:st.n] {
		if rk == k {
			return i
		}
	}
	return -1
}

type shard struct {
	mu   sync.Mutex
	rng  uint64 // xorshift state for victim choice
	sets []set
	// The pad keeps one producer's hot shard lock off its neighbours'
	// cache lines (the ring.Pad layout contract).
	_ ring.Pad
}

// install makes k resident in st with chainID, replacing a random way when
// the set is full, and reports whether it evicted.
func (s *shard) install(st *set, ways int, k packet.Key, chainID int) bool {
	i, evict := st.n, st.n == ways
	if evict {
		s.rng ^= s.rng << 13
		s.rng ^= s.rng >> 7
		s.rng ^= s.rng << 17
		hi, _ := bits.Mul64(s.rng, uint64(ways))
		i = int(hi)
	} else {
		st.n++
	}
	st.keys[i], st.chains[i] = k, chainID
	return evict
}

// Sharded is a concurrency-safe bounded flow table. Create with NewSharded.
type Sharded struct {
	shards []shard
	mask   uint64
	nsets  uint64 // sets per shard
	ways   int

	// Hits/Misses count lookup outcomes; Evictions counts resident flows
	// displaced by inserts into a full set.
	Hits      atomic.Uint64
	Misses    atomic.Uint64
	Evictions atomic.Uint64
}

// NewSharded returns a table of the given shard count (rounded up to a
// power of two, minimum 1) holding at most capacity entries in total
// (minimum one per shard; see Capacity for the exact bound).
func NewSharded(shards, capacity int) *Sharded {
	n := 1
	for n < shards {
		n <<= 1
	}
	per := max(capacity/n, 1)
	ways := min(per, maxWays)
	t := &Sharded{shards: make([]shard, n), mask: uint64(n - 1), nsets: uint64(per / ways), ways: ways}
	for i := range t.shards {
		t.shards[i].sets = make([]set, t.nsets)
		t.shards[i].rng = uint64(i+1) * 0x9e3779b97f4a7c15 // xorshift needs a nonzero seed
	}
	return t
}

// locate packs and hashes k once: its shard from the low bits of the hash,
// its set from the high. k is read through a pointer, field by field, so
// the caller's argument is not copied whole.
func (t *Sharded) locate(k *packet.FlowKey) (packet.Key, *shard, *set) {
	key := packet.PackKey(k.SrcIP, k.DstIP, k.SrcPort, k.DstPort, uint8(k.Proto))
	h := key.Hash()
	s := &t.shards[h&t.mask]
	i, _ := bits.Mul64(h, t.nsets)
	return key, s, &s.sets[i]
}

// Lookup resolves the chain for a flow key; ok is false when the flow is
// not resident (never inserted, or evicted since).
func (t *Sharded) Lookup(k packet.FlowKey) (chainID int, ok bool) {
	key, s, st := t.locate(&k)
	s.mu.Lock()
	if i := st.find(key); i >= 0 {
		chainID, ok = st.chains[i], true
	}
	s.mu.Unlock()
	if ok {
		t.Hits.Add(1)
	} else {
		t.Misses.Add(1)
	}
	return chainID, ok
}

// Insert makes the flow resident, evicting a random entry from its set if
// the set is full (updates to a resident key never evict).
func (t *Sharded) Insert(k packet.FlowKey, chainID int) {
	key, s, st := t.locate(&k)
	s.mu.Lock()
	evicted := false
	if i := st.find(key); i >= 0 {
		st.chains[i] = chainID
	} else {
		evicted = s.install(st, t.ways, key, chainID)
	}
	s.mu.Unlock()
	if evicted {
		t.Evictions.Add(1)
	}
}

// LookupOrInsert resolves the flow, installing chainOf(k) on a miss under
// the shard lock — one locked section for the director's common miss path,
// so two producers racing the same new flow still converge on one entry.
// Reports the chain and whether the flow was already resident.
func (t *Sharded) LookupOrInsert(k packet.FlowKey, chainOf func(packet.FlowKey) int) (chainID int, hit bool) {
	key, s, st := t.locate(&k)
	s.mu.Lock()
	if i := st.find(key); i >= 0 {
		chainID = st.chains[i]
		s.mu.Unlock()
		t.Hits.Add(1)
		return chainID, true
	}
	chainID = chainOf(k)
	evicted := s.install(st, t.ways, key, chainID)
	s.mu.Unlock()
	t.Misses.Add(1)
	if evicted {
		t.Evictions.Add(1)
	}
	return chainID, false
}

// Lookups reports the lookups made so far: every call but Insert is one.
func (t *Sharded) Lookups() uint64 { return t.Hits.Load() + t.Misses.Load() }

// Len reports the resident entry count across all shards.
func (t *Sharded) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for j := range s.sets {
			n += s.sets[j].n
		}
		s.mu.Unlock()
	}
	return n
}

// Capacity reports the table's total entry bound: whole sets per shard,
// so it can fall short of the capacity asked of NewSharded by less than
// one set per shard.
func (t *Sharded) Capacity() int { return int(t.nsets) * t.ways * len(t.shards) }

package flowtable

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nfvnice/internal/packet"
)

func keyN(n uint64) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   uint32(0x0a000000 + n&0xffffff),
		DstIP:   0xc6336401,
		SrcPort: uint16(1024 + (n>>24)&0x7fff),
		DstPort: 53,
		Proto:   packet.UDP,
	}
}

// TestShardedConcurrent hammers lookup/insert/LookupOrInsert from many
// goroutines over an overlapping key space; run under -race it is the
// table's data-race gate, and the counters must reconcile afterwards.
func TestShardedConcurrent(t *testing.T) {
	tab := NewSharded(16, 1<<14)
	workers := 4 * runtime.GOMAXPROCS(0)
	const perWorker = 20000
	var lookups atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				k := keyN(uint64(rng.Intn(1 << 15)))
				switch rng.Intn(3) {
				case 0:
					tab.Insert(k, int(k.SrcIP)%7)
				case 1:
					lookups.Add(1)
					if id, ok := tab.Lookup(k); ok && id != int(k.SrcIP)%7 {
						panic("sharded: wrong chain for key")
					}
				default:
					lookups.Add(1)
					id, _ := tab.LookupOrInsert(k, func(packet.FlowKey) int { return int(k.SrcIP) % 7 })
					if id != int(k.SrcIP)%7 {
						panic("sharded: LookupOrInsert returned wrong chain")
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if tab.Len() > tab.Capacity() {
		t.Fatalf("resident %d exceeds capacity %d", tab.Len(), tab.Capacity())
	}
	if got := tab.Lookups(); got != lookups.Load() {
		t.Fatalf("lookup outcomes don't reconcile: hits+misses=%d, %d calls", got, lookups.Load())
	}
}

// TestShardedEvictionAtScale streams millions of distinct flows through a
// bounded table: residency must never exceed the cap, every displaced flow
// must be counted, and flows from the most recent window — which random
// replacement keeps resident with high probability in aggregate — must
// still resolve correctly when present.
func TestShardedEvictionAtScale(t *testing.T) {
	total := uint64(2_000_000)
	if testing.Short() {
		total = 200_000
	}
	capacity := 1 << 16
	tab := NewSharded(64, capacity)
	for n := uint64(0); n < total; n++ {
		tab.Insert(keyN(n), int(n%5))
	}
	if tab.Len() > tab.Capacity() {
		t.Fatalf("resident %d exceeds capacity %d", tab.Len(), tab.Capacity())
	}
	if got, want := uint64(tab.Len())+tab.Evictions.Load(), total; got != want {
		t.Fatalf("residency accounting: len+evictions=%d, inserted %d distinct flows", got, want)
	}
	// A bounded cache under a one-pass scan must have evicted almost
	// everything — and what survives must still map to the right chain.
	if tab.Evictions.Load() == 0 {
		t.Fatal("no evictions after overflowing the capacity")
	}
	resident := 0
	for n := total - uint64(capacity); n < total; n++ {
		if id, ok := tab.Lookup(keyN(n)); ok {
			resident++
			if id != int(n%5) {
				t.Fatalf("flow %d resolved to chain %d, want %d", n, id, n%5)
			}
		}
	}
	if resident == 0 {
		t.Fatal("random replacement evicted the entire trailing window; expected some residency")
	}
}

// TestShardedUpdateDoesNotEvict pins the update-in-place rule: re-inserting
// a resident key at capacity must not displace a neighbour.
func TestShardedUpdateDoesNotEvict(t *testing.T) {
	tab := NewSharded(1, 4)
	for n := uint64(0); n < 4; n++ {
		tab.Insert(keyN(n), 1)
	}
	tab.Insert(keyN(2), 9)
	if tab.Evictions.Load() != 0 {
		t.Fatalf("update of a resident key evicted: %d", tab.Evictions.Load())
	}
	if id, ok := tab.Lookup(keyN(2)); !ok || id != 9 {
		t.Fatalf("updated key lost: id=%d ok=%v", id, ok)
	}
}

// BenchmarkShardedLookupHit establishes the ns/lookup the batch adapter's
// amortization claim is measured against (resident key, uncontended).
func BenchmarkShardedLookupHit(b *testing.B) {
	tab := NewSharded(16, 1<<16)
	const flows = 1 << 14
	for n := uint64(0); n < flows; n++ {
		tab.Insert(keyN(n), int(n%5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(keyN(uint64(i) % flows))
	}
}

// BenchmarkShardedLookupParallel measures the contended path: every P
// hammers the same table, flows spread across shards.
func BenchmarkShardedLookupParallel(b *testing.B) {
	tab := NewSharded(64, 1<<16)
	const flows = 1 << 14
	for n := uint64(0); n < flows; n++ {
		tab.Insert(keyN(n), int(n%5))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := uint64(rand.Int63())
		for pb.Next() {
			tab.Lookup(keyN(n % flows))
			n++
		}
	})
}

// BenchmarkExactLookup is the single-threaded Table baseline (the
// simulator's Rx-thread cache hit).
func BenchmarkExactLookup(b *testing.B) {
	tab := New()
	const flows = 1 << 14
	for n := uint64(0); n < flows; n++ {
		tab.InstallExact(keyN(n), int(n%5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Lookup(keyN(uint64(i) % flows))
	}
}

// resident peeks at the table without touching its counters.
func (t *Sharded) resident(k packet.FlowKey) bool {
	key, s, st := t.locate(&k)
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.find(key) >= 0
}

// TestShardedModel checks seeded random Lookup/Insert/LookupOrInsert
// sequences against a reference map of the last chain installed per key:
// a hit returns that chain, residency never exceeds Capacity, every
// lookup is one hit or one miss, an update to a resident key never
// evicts, and every eviction is a new key that did not grow the table.
func TestShardedModel(t *testing.T) {
	for _, c := range []struct{ shards, capacity, keys int }{
		{1, 4, 16}, {1, 8, 64}, {4, 64, 400}, {16, 100, 500}, {64, 512, 4096}, {64, 16, 64},
	} {
		tab := NewSharded(c.shards, c.capacity)
		if got := tab.Capacity(); got > c.capacity && c.capacity >= c.shards {
			t.Fatalf("%+v: Capacity %d exceeds the %d asked for", c, got, c.capacity)
		}
		rng := rand.New(rand.NewSource(int64(c.capacity)))
		ref := make(map[packet.FlowKey]int)
		var calls, newKeys uint64
		for op := 0; op < 20000; op++ {
			k := keyN(uint64(rng.Intn(c.keys)))
			chain := rng.Intn(1000)
			was := tab.resident(k)
			ev0, inserted := tab.Evictions.Load(), false
			switch rng.Intn(3) {
			case 0:
				calls++
				id, ok := tab.Lookup(k)
				if ok != was || ok && id != ref[k] {
					t.Fatalf("%+v op %d: Lookup = (%d, %v), model (%d, %v)", c, op, id, ok, ref[k], was)
				}
			case 1:
				tab.Insert(k, chain)
				ref[k], inserted = chain, true
				if was && tab.Evictions.Load() != ev0 {
					t.Fatalf("%+v op %d: update to a resident key evicted", c, op)
				}
				if !was {
					newKeys++
				}
			default:
				calls++
				id, hit := tab.LookupOrInsert(k, func(packet.FlowKey) int { return chain })
				if hit != was || hit && id != ref[k] || !hit && id != chain {
					t.Fatalf("%+v op %d: LookupOrInsert = (%d, %v), model (%d, %v)", c, op, id, hit, ref[k], was)
				}
				if !hit {
					ref[k], inserted = chain, true
					newKeys++
				}
			}
			if tab.resident(k) != (was || inserted) {
				t.Fatalf("%+v op %d: residency %v after the call, model %v", c, op, !(was || inserted), was || inserted)
			}
			n := tab.Len()
			switch {
			case n > tab.Capacity():
				t.Fatalf("%+v op %d: resident %d exceeds capacity %d", c, op, n, tab.Capacity())
			case tab.Lookups() != calls:
				t.Fatalf("%+v op %d: hits+misses %d, %d lookups made", c, op, tab.Lookups(), calls)
			case tab.Evictions.Load() != newKeys-uint64(n):
				t.Fatalf("%+v op %d: %d evictions, %d new keys and %d resident", c, op, tab.Evictions.Load(), newKeys, n)
			}
		}
		if tab.Evictions.Load() == 0 {
			t.Fatalf("%+v: the key space overflowed the table without an eviction", c)
		}
	}
}

// TestShardedRandomReplacement pins the victim choice of a full set as
// random: round-robin would evict the way after the last victim every time.
func TestShardedRandomReplacement(t *testing.T) {
	tab := NewSharded(1, maxWays)
	st := &tab.shards[0].sets[0]
	for n := uint64(0); n < maxWays; n++ {
		tab.Insert(keyN(n), 0)
	}
	const inserts = 8000
	var perWay [maxWays]int
	next, last := 0, -1
	for n := uint64(maxWays); n < maxWays+inserts; n++ {
		k := keyN(n).Key()
		tab.Insert(keyN(n), 0)
		way := st.find(k)
		perWay[way]++
		if way == (last+1)%maxWays {
			next++
		}
		last = way
	}
	for w, got := range perWay {
		if got < inserts/maxWays/2 || got > 2*inserts/maxWays {
			t.Fatalf("way %d evicted %d times of %d; victims are not spread over the set: %v", w, got, inserts, perWay)
		}
	}
	if next > inserts/4 {
		t.Fatalf("%d of %d victims were the way after the previous one: round-robin, not random", next, inserts)
	}
}

// churnKeys is the flow-director stream of a churning workload: live
// flows emitted round-robin, each lasting a bounded-Pareto(1.2) number of
// packets in [1, 1024], their 5-tuples drawn in turn from a cycle of
// distinct keys. With 1024 live flows over 32 768 keys, a 512-entry table
// hits about one packet in seven.
func churnKeys(seed int64, live, keys, n int) []packet.FlowKey {
	rng := rand.New(rand.NewSource(seed))
	size := func() int {
		const a, l, h = 1.2, 1.0, 1024.0
		x := l / math.Pow(1-rng.Float64()*(1-math.Pow(l/h, a)), 1/a)
		return min(max(int(x), 1), 1024)
	}
	type slot struct{ key, remaining int }
	slots := make([]slot, live)
	next := 0
	for i := range slots {
		slots[i] = slot{next % keys, size()}
		next++
	}
	out := make([]packet.FlowKey, n)
	for i := range out {
		sl := &slots[i%live]
		if sl.remaining == 0 {
			*sl = slot{next % keys, size()}
			next++
		}
		sl.remaining--
		out[i] = keyN(uint64(sl.key) * 2654435761 % (1 << 24))
	}
	return out
}

// BenchmarkShardedChurn is the director's miss path as the churning
// workload drives it: a 512-entry table in 64 shards, at about an 86 %
// miss rate, so nearly every call also installs and evicts.
func BenchmarkShardedChurn(b *testing.B) {
	keys := churnKeys(1, 1024, 32768, 1<<18)
	tab := NewSharded(64, 512)
	chainOf := func(packet.FlowKey) int { return 0 }
	for _, k := range keys {
		tab.LookupOrInsert(k, chainOf)
	}
	h0, l0 := tab.Hits.Load(), tab.Lookups()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.LookupOrInsert(keys[i%len(keys)], chainOf)
	}
	b.ReportMetric(1-float64(tab.Hits.Load()-h0)/float64(tab.Lookups()-l0), "miss-ratio")
}

package flowtable

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"nfvnice/internal/packet"
)

// mapOracle replays a sequence of Upsert and Get calls against a Map and a
// Go map, failing on the first disagreement, then checks Len and that Range
// visits each key exactly once with its value.
type mapOracle struct {
	t    testing.TB
	m    *Map[uint64]
	want map[packet.Key]uint64
}

func newMapOracle(t testing.TB, hint int) *mapOracle {
	return &mapOracle{t: t, m: NewMap[uint64](hint), want: map[packet.Key]uint64{}}
}

// upsert bumps k's value by add in both tables.
func (o *mapOracle) upsert(k packet.Key, add uint64) {
	v, found := o.m.Upsert(k)
	w, ok := o.want[k]
	if found != ok || *v != w {
		o.t.Fatalf("Upsert(%v) = %d, %v; want %d, %v", k, *v, found, w, ok)
	}
	*v += add
	o.want[k] = w + add
}

func (o *mapOracle) get(k packet.Key) {
	v := o.m.Get(k)
	w, ok := o.want[k]
	if (v != nil) != ok || v != nil && *v != w {
		o.t.Fatalf("Get(%v) = %v; want %d, %v", k, v, w, ok)
	}
}

func (o *mapOracle) check() {
	if o.m.Len() != len(o.want) {
		o.t.Fatalf("Len = %d; want %d", o.m.Len(), len(o.want))
	}
	seen := make(map[packet.Key]bool, len(o.want))
	o.m.Range(func(k packet.Key, v *uint64) {
		if seen[k] {
			o.t.Fatalf("Range visits %v twice", k)
		}
		seen[k] = true
		if w, ok := o.want[k]; !ok || *v != w {
			o.t.Fatalf("Range gives %v = %d; want %d, %v", k, *v, w, ok)
		}
	})
	if len(seen) != len(o.want) {
		o.t.Fatalf("Range visits %d keys; want %d", len(seen), len(o.want))
	}
}

// TestMapDifferential drives random Upserts and Gets, the zero key among
// them, from an 8-slot table through repeated doublings, checking every
// answer against a Go map.
func TestMapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o := newMapOracle(t, 0)
	if len(o.m.slots) != 8 {
		t.Fatalf("NewMap(0) has %d slots; want 8", len(o.m.slots))
	}
	// Keys from a pool of 3 000 so that Gets and Upserts hit as often as
	// they miss, the zero key among them.
	pool := []packet.Key{{}}
	for len(pool) < 3000 {
		pool = append(pool, keyN(uint64(rng.Intn(1<<20))).Key())
	}
	for i := 0; i < 20000; i++ {
		k := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			o.upsert(k, uint64(rng.Intn(100)))
		} else {
			o.get(k)
		}
		if i%4096 == 0 {
			o.check()
		}
	}
	o.check()
	if len(o.m.slots) < 8<<3 {
		t.Fatalf("%d slots: fewer than three doublings", len(o.m.slots))
	}
	if o.m.n > o.m.limit || o.m.limit != len(o.m.slots)*3/4 {
		t.Fatalf("%d keys in %d slots (limit %d): over 3/4 load", o.m.n, len(o.m.slots), o.m.limit)
	}
	if _, ok := o.want[packet.Key{}]; !ok {
		t.Fatal("the zero key was never inserted")
	}
	t.Logf("%d keys in %d slots", o.m.Len(), len(o.m.slots))
}

// TestMapPresized checks NewMap's hint: that many keys go in without a
// doubling.
func TestMapPresized(t *testing.T) {
	for _, hint := range []int{0, 1, 6, 7, 45536} {
		m := NewMap[uint16](hint)
		size := len(m.slots)
		for i := 0; i < hint; i++ {
			m.Upsert(keyN(uint64(i)).Key())
		}
		if len(m.slots) != size || m.Len() != hint {
			t.Fatalf("hint %d: %d keys grew %d slots to %d", hint, m.Len(), size, len(m.slots))
		}
	}
}

// FuzzMap decodes the input as a sequence of 9-byte operations — an opcode
// byte, then a key drawn from a small space so that the operations meet —
// and holds the Map to a Go map over them.
func FuzzMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 0, 9*64)
	for i := 0; i < 64; i++ {
		seed = append(seed, byte(i%3))
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i*7919))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		o := newMapOracle(t, 0)
		for ; len(ops) >= 9; ops = ops[9:] {
			x := binary.LittleEndian.Uint64(ops[1:9])
			// Two words from 20 bits: a small key space, so keys repeat,
			// and the zero key whenever those bits are 0.
			k := packet.Key{Addrs: x & 0xfff, Ports: x >> 12 & 0xff}
			if ops[0]&1 == 0 {
				o.upsert(k, uint64(ops[0]))
			} else {
				o.get(k)
			}
		}
		o.check()
	})
}

// BenchmarkMapUpsert is the NF hit path: Upsert over a warm table of 32 768
// flows, the churn workload's key space, in a scattered order.
func BenchmarkMapUpsert(b *testing.B) {
	const flows = 1 << 15
	keys := make([]packet.Key, flows)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = keyN(uint64(rng.Intn(1 << 24))).Key()
	}
	m := NewMap[[2]uint64](0)
	for _, k := range keys {
		m.Upsert(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := m.Upsert(keys[i&(flows-1)])
		v[0]++
	}
}

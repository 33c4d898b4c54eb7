package flowtable

import "nfvnice/internal/packet"

// Map is the NFs' per-flow state table: a flat open-addressing hash map
// from packet.Key to V. Keys and values sit inline in one power-of-two slot
// array, indexed by Key.Hash and probed linearly, so a lookup usually reads
// one cache line and never calls into the runtime's map code. The zero Key
// marks an empty slot; the zero key itself, should a flow pack to it, lives
// in a side slot. The array doubles when an insert would take it past 3/4
// full. There is no delete: no NF expires a flow yet.
//
// Not safe for concurrent use: each NF instance owns its table. Create
// with NewMap.
type Map[V any] struct {
	slots []mapSlot[V]
	mask  uint64
	n     int // occupied slots, the zero key's side slot excluded
	limit int // n at which the next insert doubles the array

	zero    V
	hasZero bool
}

type mapSlot[V any] struct {
	k packet.Key
	v V
}

// NewMap returns a table that holds hint keys without doubling.
func NewMap[V any](hint int) *Map[V] {
	size := 8
	for size*3/4 < hint {
		size <<= 1
	}
	m := &Map[V]{}
	m.alloc(size)
	return m
}

func (m *Map[V]) alloc(size int) {
	m.slots = make([]mapSlot[V], size)
	m.mask = uint64(size - 1)
	m.limit = size * 3 / 4
}

// Get returns a pointer to k's value, or nil when k is absent. The pointer
// is valid until the next Upsert of a new key, which may move every value.
func (m *Map[V]) Get(k packet.Key) *V {
	if k == (packet.Key{}) {
		if m.hasZero {
			return &m.zero
		}
		return nil
	}
	for i := k.Hash() & m.mask; ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.k == k {
			return &s.v
		}
		if s.k == (packet.Key{}) {
			return nil
		}
	}
}

// Upsert returns a pointer to k's value, inserting k with the zero V when
// it is absent; found reports whether k was present. The pointer is valid
// until the next Upsert of a new key, which may move every value.
func (m *Map[V]) Upsert(k packet.Key) (v *V, found bool) {
	if k == (packet.Key{}) {
		found, m.hasZero = m.hasZero, true
		return &m.zero, found
	}
	for i := k.Hash() & m.mask; ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.k == k {
			return &s.v, true
		}
		if s.k == (packet.Key{}) {
			if m.n == m.limit {
				m.grow()
				return m.Upsert(k)
			}
			m.n++
			s.k = k
			return &s.v, false
		}
	}
}

// grow doubles the slot array and reinserts every key. Values move; no
// key is present twice, so each goes to the first empty slot of its probe.
func (m *Map[V]) grow() {
	old := m.slots
	m.alloc(2 * len(old))
	for _, s := range old {
		if s.k == (packet.Key{}) {
			continue
		}
		i := s.k.Hash() & m.mask
		for m.slots[i].k != (packet.Key{}) {
			i = (i + 1) & m.mask
		}
		m.slots[i] = s
	}
}

// Len reports the number of keys.
func (m *Map[V]) Len() int {
	if m.hasZero {
		return m.n + 1
	}
	return m.n
}

// Range calls f on every key and its value, in no particular order. f must
// not insert into the table.
func (m *Map[V]) Range(f func(k packet.Key, v *V)) {
	if m.hasZero {
		f(packet.Key{}, &m.zero)
	}
	for i := range m.slots {
		if s := &m.slots[i]; s.k != (packet.Key{}) {
			f(s.k, &s.v)
		}
	}
}

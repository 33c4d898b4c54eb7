package core

import (
	"testing"

	"nfvnice/internal/cgroups"
)

// TestSharesTable pins the share arithmetic on the pure function; the
// Controller-level tests in controller_test.go check that weightTick feeds
// it the right loads and writes its result to the cgroup filesystem.
func TestSharesTable(t *testing.T) {
	p := DefaultParams()
	scale, floor := p.ShareScale, p.MinShare
	cases := []struct {
		name    string
		demands []Demand
		want    []int
	}{
		{"rate-cost proportional: same rate, 1:3 cost",
			[]Demand{{0.125, 1}, {0.375, 1}}, []int{scale / 4, 3 * scale / 4}},
		{"scale-free: only the ratio of loads matters",
			[]Demand{{1.0 / 1024, 1}, {3.0 / 1024, 1}}, []int{scale / 4, 3 * scale / 4}},
		{"priority multiplies the share",
			[]Demand{{0.25, 1}, {0.25, 3}}, []int{scale / 4, 3 * scale / 4}},
		{"no estimate yet: keeps its weight and holds one default share of the sum",
			[]Demand{{0.9, 1}, {0, 1}},
			[]int{int(0.9 / (0.9 + float64(cgroups.DefaultShares)/float64(scale)) * float64(scale)), KeepShares}},
		{"negative load counts as no estimate",
			[]Demand{{-1, 1}, {0.5, 1}},
			[]int{KeepShares, int(0.5 / (0.5 + float64(cgroups.DefaultShares)/float64(scale)) * float64(scale))}},
		{"nobody warmed: nothing to write",
			[]Demand{{0, 1}, {0, 1}}, []int{KeepShares, KeepShares}},
		{"1 % floor",
			[]Demand{{0.00005, 1}, {0.05, 1}}, []int{floor, int(0.05 / 0.05005 * float64(scale))}},
		{"single NF takes the core",
			[]Demand{{0.4, 1}}, []int{scale}},
		{"zero priorities: no allocation rather than a division by zero",
			[]Demand{{0.4, 0}}, []int{KeepShares}},
		{"empty core", nil, nil},
	}
	for _, tc := range cases {
		got := Shares(nil, tc.demands, scale, floor)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d shares for %d demands", tc.name, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: shares = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

func TestSharesFloorNeverBelowKernelMinimum(t *testing.T) {
	// A warmed NF must never come out as KeepShares, even with no
	// configured floor: cpu.shares has a kernel minimum.
	got := Shares(nil, []Demand{{1e-9, 1}, {1, 1}}, 10*cgroups.DefaultShares, 0)
	if got[0] != cgroups.MinShares {
		t.Fatalf("tiny NF shares = %d, want the kernel minimum %d", got[0], cgroups.MinShares)
	}
}

func TestSharesReusesDst(t *testing.T) {
	buf := make([]int, 0, 8)
	got := Shares(buf, []Demand{{1, 1}, {1, 1}}, 1000, 10)
	if &got[0] != &buf[:1][0] {
		t.Fatal("Shares reallocated despite sufficient capacity")
	}
}

package core

import "nfvnice/internal/cgroups"

// Demand is one NF's input to the share computation.
type Demand struct {
	// Load is the NF's estimated CPU demand λ·s in fractional cores; a
	// value ≤ 0 means no estimate yet (the service-time estimator is still
	// warming, or the NF has seen no traffic).
	Load float64
	// Priority is the operator's differentiated-service multiplier.
	Priority float64
}

// KeepShares is the Shares result for an NF without a load estimate: leave
// whatever weight it has in place.
const KeepShares = 0

// Shares is the paper's rate-cost proportional allocation for the NFs
// sharing one core:
//
//	shares_i = scale · priority_i·load_i / Σ_j priority_j·load_j
//
// floored at minShare so every NF keeps the minimal CPU it needs to make
// progress (and never below the kernel's cgroups.MinShares). An NF without
// an estimate gets KeepShares and is counted in the sum as holding one
// default share of the core, so its untouched default weight is not
// squeezed by the others before it has produced a single sample.
//
// It is a pure function — the simulator's weightTick and the live engine's
// updateWeights both call it. The result is appended to dst[:0].
func Shares(dst []int, demands []Demand, scale, minShare int) []int {
	minShare = max(minShare, cgroups.MinShares)
	var total float64
	for _, d := range demands {
		if d.Load > 0 {
			total += d.Load * d.Priority
		} else {
			total += float64(cgroups.DefaultShares) / float64(scale)
		}
	}
	dst = dst[:0]
	for _, d := range demands {
		if d.Load <= 0 || total <= 0 {
			dst = append(dst, KeepShares)
			continue
		}
		dst = append(dst, max(minShare, int(d.Load*d.Priority/total*float64(scale))))
	}
	return dst
}

// Package metrics computes the paper's fairness measure: the Manhattan
// distance between an algorithm's utility vector and the reference fair
// vector, normalized by the executed unit parts of the reference
// schedule. Δψ/p_tot reads as "the average unjustified delay (or
// speed-up) of a job due to the unfairness of the algorithm"
// (Section 7.2).
package metrics

import "fmt"

// DeltaPsi returns ‖ψ−ψ*‖₁.
func DeltaPsi(psi, ref []int64) int64 {
	if len(psi) != len(ref) {
		panic(fmt.Sprintf("metrics: vector lengths differ: %d vs %d", len(psi), len(ref)))
	}
	var d int64
	for i := range psi {
		diff := psi[i] - ref[i]
		if diff < 0 {
			diff = -diff
		}
		d += diff
	}
	return d
}

// UnfairnessPerUnit returns Δψ/p_tot — the table metric. p_tot must be
// the executed unit parts of the reference schedule; 0 yields 0 (an
// empty experiment is perfectly fair).
func UnfairnessPerUnit(psi, ref []int64, ptot int64) float64 {
	if ptot <= 0 {
		return 0
	}
	return float64(DeltaPsi(psi, ref)) / float64(ptot)
}

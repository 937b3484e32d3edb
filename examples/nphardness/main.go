// Nphardness: the Theorem 5.1 reduction, executed. Computing an
// organization's exact Shapley contribution is NP-hard because a
// SUBSETSUM instance can be compiled into a scheduling instance whose
// job-less organization `a` has a contribution encoding the number of
// subsets of S summing below x. This example builds the reduction for a
// small set, runs the exact REF scheduler, decodes the count from φ(a),
// and compares with brute force.
//
// Run with:
//
//	go run ./examples/nphardness
package main

import "fmt"

func main() {
	S := []int64{2, 3}
	for _, x := range []int64{4, 5, 6} {
		red := NewSubsetSumReduction(S, x)
		fmt.Printf("=== S = %v, x = %d ===\n", S, x)
		fmt.Printf("reduction instance: %d organizations, %d jobs, largest job L = %d\n",
			len(red.Inst.Orgs), len(red.Inst.Jobs), red.L)
		recovered := red.RecoverCount()
		brute := CountOrderings(S, x)
		fmt.Printf("orderings with Σ < %d:  decoded from φ(a) = %d, brute force = %d\n",
			x, recovered, brute)
	}
	for _, x := range []int64{4, 5, 6} {
		fmt.Printf("subset of %v summing to exactly %d? %v\n", S, x, HasSubsetSum(S, x))
	}
	fmt.Println("\nBecause REF answers SUBSETSUM, no polynomial algorithm computes")
	fmt.Println("exact contributions unless P = NP — hence the paper's FPRAS (unit")
	fmt.Println("jobs) and the DIRECTCONTR heuristic (general jobs).")
}

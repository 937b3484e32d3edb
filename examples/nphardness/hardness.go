package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
)

// SubsetSumReduction is the Theorem 5.1 construction: an instance of the
// fair-scheduling contribution problem whose organization `a` has a
// Shapley contribution that encodes the number of subsets of S summing
// below x. Computing φ(a) therefore answers SUBSETSUM — the proof that
// computing contributions is NP-hard.
type SubsetSumReduction struct {
	// Inst has k+2 organizations: 0..k-1 mirror the elements of S, k is
	// the job-less organization `a`, k+1 is `b` with the dominating job.
	Inst *model.Instance
	A    int
	// L is the size of b's large job; Fact is (k+2)!.
	L    int64
	Fact int64
}

// NewSubsetSumReduction builds the reduction instance for set S and
// target x. Sizes grow as 4·k·xtot²·(k+2)!, so only small sets are
// practical — which is the point: the reduction certifies hardness, and
// here doubles as an executable verification on brute-force-checkable
// sizes.
func NewSubsetSumReduction(S []int64, x int64) *SubsetSumReduction {
	k := len(S)
	if k == 0 || k > 6 {
		panic(fmt.Sprintf("nphardness: reduction supports 1..6 elements, got %d", k))
	}
	var xtot int64 = 2
	for _, xi := range S {
		if xi <= 0 {
			panic("nphardness: SUBSETSUM elements must be positive")
		}
		xtot += xi
	}
	fact := int64(1)
	for i := int64(2); i <= int64(k+2); i++ {
		fact *= i
	}
	L := 4*int64(k)*xtot*xtot*fact + 1

	orgs := make([]model.Org, k+2)
	var jobs []model.Job
	for i := 0; i < k; i++ {
		orgs[i] = model.Org{Name: fmt.Sprintf("S%d", i), Machines: 1}
		jobs = append(jobs,
			model.Job{Org: i, Release: 0, Size: 1},
			model.Job{Org: i, Release: 0, Size: 1},
			model.Job{Org: i, Release: 3, Size: model.Time(2 * xtot)},
			model.Job{Org: i, Release: 4, Size: model.Time(2 * S[i])},
		)
	}
	a, b := k, k+1
	orgs[a] = model.Org{Name: "a", Machines: 1}
	orgs[b] = model.Org{Name: "b", Machines: 1}
	jobs = append(jobs,
		model.Job{Org: b, Release: 2, Size: model.Time(2*x + 2)},
		model.Job{Org: b, Release: model.Time(2*x + 3), Size: model.Time(L)},
	)
	return &SubsetSumReduction{Inst: model.MustNewInstance(orgs, jobs), A: a, L: L, Fact: fact}
}

// Horizon returns a time by which every job has completed in every
// coalition's schedule.
func (r *SubsetSumReduction) Horizon() model.Time { return r.Inst.Horizon() + 8 }

// CountOrderings returns n_<x(S): the number of orderings of S ∪ {a,b}
// in which a is immediately preceded by exactly {b} ∪ S′ for some
// S′ ⊆ S with ΣS′ < x — the quantity the proof extracts from φ(a),
// computed here by brute force as Σ_{S′∈S_<x} (‖S′‖+1)!·(‖S‖−‖S′‖)!.
func CountOrderings(S []int64, x int64) int64 {
	k := len(S)
	fact := make([]int64, k+2)
	fact[0] = 1
	for i := 1; i <= k+1; i++ {
		fact[i] = fact[i-1] * int64(i)
	}
	var total int64
	for mask := 0; mask < 1<<uint(k); mask++ {
		var sum int64
		size := 0
		for i := 0; i < k; i++ {
			if mask&(1<<uint(i)) != 0 {
				sum += S[i]
				size++
			}
		}
		if sum < x {
			total += fact[size+1] * fact[k-size]
		}
	}
	return total
}

// RecoverCount runs REF on the reduction instance and extracts
// ⌊(k+2)!·φ(a)/L⌋ — the proof's decoding of n_<x(S) from the exact
// contribution of organization a.
//
// The construction's schedule analysis (Figure 4) assumes the general
// Figure 1 Distance behaviour, under which simultaneous free machines
// are spread across organizations within a single instant; REF's
// rotation mode implements exactly that, and with it the decoding is
// exact (remainder R ∈ [0, L/(k+2)!) as the proof bounds). Under the
// plain Figure 3 rule, one organization may take several machines in
// the same instant and the delicate L-job start-time gadget shifts.
func (r *SubsetSumReduction) RecoverCount() int64 {
	res := core.Run(core.RefAlgorithm{Opts: core.RefOptions{Rotate: true}}, r.Inst, r.Horizon(), 0)
	v := float64(r.Fact) * res.Phi[r.A] / float64(r.L)
	if v < 0 {
		return 0
	}
	return int64(v)
}

// HasSubsetSum answers the original SUBSETSUM question by the proof's
// comparison: some S′ ⊆ S sums to exactly x iff n_<x(S) < n_<x+1(S),
// using Shapley contributions computed by REF on the two reduction
// instances.
func HasSubsetSum(S []int64, x int64) bool {
	below := NewSubsetSumReduction(S, x).RecoverCount()
	belowNext := NewSubsetSumReduction(S, x+1).RecoverCount()
	return belowNext > below
}

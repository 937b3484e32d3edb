// Package bargain implements the weighted Nash Bargaining Solution by
// deterministic water-filling — the alternative cooperative solution
// concept the ContribGame layer hosts alongside the Shapley value, in
// the manner of the MBCAS allocator.
//
// The problem solved is
//
//	max  Σ_i w_i · log(x_i − d_i)
//	s.t. Σ_i x_i ≤ C,   d_i ≤ x_i ≤ max_i,
//
// with d the disagreement points (what each agent gets on its own), w
// the bargaining weights and max_i per-agent caps. The KKT conditions
// give x_i = d_i + w_i/λ for uncapped agents, so the surplus C − Σd is
// split proportionally to weight, with capped agents pinned at max_i
// and their unused headroom redistributed to the rest — the classic
// weighted water-filling, solved exactly in at most n passes.
//
// The solution satisfies the Nash bargaining axioms (verified by the
// property battery in axioms_test.go): Pareto optimality, individual
// rationality, symmetry, and independence of irrelevant alternatives.
//
// Two integration points consume this package: core.Nbs (the in-cluster
// "nbs" allocation stepper, disagreement points from each
// organization's standalone schedule) and fed.NBSPolicy (the "fednbs"
// delegation policy, disagreement points from the federation game's
// singleton values).
package bargain

import (
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible reports a problem whose disagreement points already
// exceed the capacity (Σd > C beyond rounding tolerance): no allocation
// can give every agent at least its outside option. Callers on
// superadditive games never see it; callers on arbitrary inputs can
// errors.Is for it and fall back to the disagreement vector.
var ErrInfeasible = errors.New("bargain: disagreement points exceed capacity")

// feasTol is the relative slack allowed when Σd exceeds C: coalition
// values arrive as int64 sums converted to float64, so superadditive
// games can violate Σd ≤ C by a few ulps without being infeasible.
const feasTol = 1e-9

// Solver computes NBS allocations with reusable scratch space, so
// steady-state callers (the nbs stepper's dispatch path) allocate
// nothing per solve. The zero value is ready to use; a Solver is a
// single-goroutine object.
type Solver struct {
	active []bool
}

// SolveInto fills x with the weighted Nash bargaining allocation for
// weights w, disagreement points d, per-agent caps maxs (nil, or
// +Inf entries, mean uncapped) and total capacity C. All slices must
// have equal length; x must not alias the inputs.
//
// Agents with zero weight stay at their disagreement point — they have
// no bargaining power, so they claim nothing of the surplus. The
// surplus max(0, C − Σd) is split among positive-weight agents
// proportionally to weight; agents whose share exceeds their cap are
// pinned there and the passes repeat on the remainder. Iteration order
// is fixed (ascending index) and all cap violations within a pass are
// pinned simultaneously, so the result is deterministic and
// independent of agent ordering beyond the tie-free math itself.
func (s *Solver) SolveInto(x, w, d, maxs []float64, capacity float64) error {
	n := len(w)
	if len(d) != n || len(x) != n || (maxs != nil && len(maxs) != n) {
		return fmt.Errorf("bargain: mismatched columns (w %d, d %d, max %d, x %d)", n, len(d), len(maxs), len(x))
	}
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return fmt.Errorf("bargain: capacity %v is not finite", capacity)
	}
	sumD := 0.0
	for i := 0; i < n; i++ {
		if math.IsNaN(w[i]) || w[i] < 0 {
			return fmt.Errorf("bargain: agent %d has weight %v; weights must be >= 0", i, w[i])
		}
		if math.IsNaN(d[i]) || math.IsInf(d[i], 0) {
			return fmt.Errorf("bargain: agent %d has disagreement point %v", i, d[i])
		}
		if maxs != nil {
			if math.IsNaN(maxs[i]) {
				return fmt.Errorf("bargain: agent %d has cap NaN", i)
			}
			if maxs[i] < d[i] {
				return fmt.Errorf("bargain: agent %d has cap %v below disagreement point %v", i, maxs[i], d[i])
			}
		}
		sumD += d[i]
	}
	surplus := capacity - sumD
	if surplus < 0 {
		if -surplus > feasTol*math.Max(1, math.Abs(capacity)) {
			return fmt.Errorf("%w (Σd %v, capacity %v)", ErrInfeasible, sumD, capacity)
		}
		surplus = 0
	}

	if cap(s.active) < n {
		s.active = make([]bool, n)
	}
	active := s.active[:n]
	totalW := 0.0
	for i := 0; i < n; i++ {
		x[i] = d[i]
		active[i] = w[i] > 0 && (maxs == nil || maxs[i] > d[i])
		if active[i] {
			totalW += w[i]
		}
	}

	// Water-filling: split the surplus proportionally to weight; pin
	// every agent whose share overflows its cap and redistribute. Each
	// pass either pins at least one agent or terminates, so at most n
	// passes run. Pinning only ever raises the per-weight unit for the
	// agents that remain (the pinned agent's headroom is smaller than
	// its proportional share), so a pinned agent stays pinned in the
	// exact solution — the greedy pass order is sound.
	for pass := 0; pass < n && surplus > 0 && totalW > 0; pass++ {
		unit := surplus / totalW
		pinned := false
		for i := 0; i < n; i++ {
			if !active[i] || maxs == nil || math.IsInf(maxs[i], 1) {
				continue
			}
			if headroom := maxs[i] - d[i]; w[i]*unit >= headroom {
				x[i] = maxs[i]
				surplus -= headroom
				totalW -= w[i]
				active[i] = false
				pinned = true
			}
		}
		if !pinned {
			for i := 0; i < n; i++ {
				if active[i] {
					x[i] = d[i] + w[i]*unit
					active[i] = false
				}
			}
			surplus = 0
		}
	}
	return nil
}

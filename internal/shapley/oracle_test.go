package shapley

import (
	"math"
	"math/rand"

	"repro/internal/model"
)

// mapGame is an in-memory game backed by a dense table indexed by
// coalition mask: the tests' random and composed games.
type mapGame struct {
	N      int
	Values []float64 // length 1<<N, Values[0] must be 0
}

// newMapGame allocates a zero game over n players.
func newMapGame(n int) *mapGame {
	return &mapGame{N: n, Values: make([]float64, 1<<uint(n))}
}

// Players implements Game.
func (g *mapGame) Players() int { return g.N }

// Value implements Game.
func (g *mapGame) Value(c model.Coalition) float64 { return g.Values[c] }

// Set assigns the coalition's value.
func (g *mapGame) Set(c model.Coalition, v float64) { g.Values[c] = v }

// sampleSize returns the number of permutations N the FPRAS of Theorem
// 5.6 prescribes for k players, accuracy ε and confidence λ:
// N = ⌈k²/ε² · ln(k/(1−λ))⌉.
func sampleSize(k int, eps, lambda float64) int {
	if k <= 0 || eps <= 0 || lambda <= 0 || lambda >= 1 {
		panic("shapley: invalid FPRAS parameters")
	}
	n := float64(k) * float64(k) / (eps * eps) * math.Log(float64(k)/(1-lambda))
	if n < 1 {
		return 1
	}
	return int(n) + 1
}

// sampleStratified estimates the Shapley value with position-stratified
// permutation sampling: every round draws one uniform permutation and
// evaluates all k of its cyclic rotations, so within a round each
// player's marginal contribution is observed exactly once at every
// position. Each rotation of a uniform permutation is itself uniform,
// so the estimator stays unbiased (Equation 2), while the position
// strata are perfectly balanced — the between-position variance
// component that plain Sample leaves in is eliminated, which is the
// dominant term when marginals depend mostly on predecessor-set size
// (as the scheduling game's do: larger coalitions own more machines).
//
// It is the float-game form of the scheme core.RandOptions.Stratified
// runs on schedules. The budget is rounds·k permutations; compare
// against Sample at an equal permutation count. Like Marginals, every evaluated permutation
// telescopes to v(grand), so the efficiency axiom Σφ = v(N) holds for
// the estimate exactly, not just in expectation.
func sampleStratified(g Game, rounds int, r *rand.Rand) []float64 {
	k := g.Players()
	phi := make([]float64, k)
	if rounds <= 0 || k == 0 {
		return phi
	}
	base := make([]int, k)
	rot := make([]int, k)
	for i := range base {
		base[i] = i
	}
	for round := 0; round < rounds; round++ {
		r.Shuffle(k, func(i, j int) { base[i], base[j] = base[j], base[i] })
		for shift := 0; shift < k; shift++ {
			for i := range rot {
				rot[i] = base[(i+shift)%k]
			}
			m := Marginals(g, rot)
			for u := range phi {
				phi[u] += m[u]
			}
		}
	}
	inv := 1 / float64(rounds*k)
	for u := range phi {
		phi[u] *= inv
	}
	return phi
}

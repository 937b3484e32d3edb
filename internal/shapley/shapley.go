// Package shapley implements generic Shapley-value machinery over
// transferable-utility cooperative games: the exact subset formula
// (Equation 1 of the paper), the permutation formulation (Equation 2),
// and Monte-Carlo sampling over orderings (the basis of Algorithm RAND).
//
// Values are float64 because Shapley weights are fractional even when the
// characteristic function is integral.
package shapley

import (
	"math"
	"math/rand"

	"repro/internal/model"
)

// Game is a characteristic-function game over n players. Value must be
// defined for every coalition mask over players 0..n-1 with Value(∅) = 0.
type Game interface {
	Players() int
	Value(c model.Coalition) float64
}

// MapGame is an in-memory game backed by a dense table indexed by
// coalition mask. It implements Game.
type MapGame struct {
	N      int
	Values []float64 // length 1<<N, Values[0] must be 0
}

// NewMapGame allocates a zero game over n players.
func NewMapGame(n int) *MapGame {
	return &MapGame{N: n, Values: make([]float64, 1<<uint(n))}
}

// Players implements Game.
func (g *MapGame) Players() int { return g.N }

// Value implements Game.
func (g *MapGame) Value(c model.Coalition) float64 { return g.Values[c] }

// Set assigns the coalition's value.
func (g *MapGame) Set(c model.Coalition, v float64) { g.Values[c] = v }

// FuncGame adapts a plain function to the Game interface.
type FuncGame struct {
	N int
	F func(model.Coalition) float64
}

// Players implements Game.
func (g FuncGame) Players() int { return g.N }

// Value implements Game.
func (g FuncGame) Value(c model.Coalition) float64 { return g.F(c) }

// Weights returns the Shapley subset weights for an n-player game:
// w[s] = s!·(n−s−1)!/n! — the weight of a marginal contribution to a
// predecessor coalition of size s (Equation 1).
func Weights(n int) []float64 {
	w := make([]float64, n)
	// w[s] = s!(n-s-1)!/n!. Computed iteratively to avoid factorial
	// overflow: w[0] = (n-1)!/n! = 1/n; w[s+1] = w[s]·(s+1)/(n-s-1).
	w[0] = 1 / float64(n)
	for s := 0; s+1 < n; s++ {
		w[s+1] = w[s] * float64(s+1) / float64(n-s-1)
	}
	return w
}

// tabulate evaluates the game on every coalition once.
func tabulate(g Game) []float64 {
	n := g.Players()
	vals := make([]float64, 1<<uint(n))
	for mask := model.Coalition(1); int(mask) < len(vals); mask++ {
		vals[mask] = g.Value(mask)
	}
	return vals
}

// Exact computes the Shapley value of every player by the subset formula
// (Equation 1). Cost: O(n·2ⁿ) plus 2ⁿ Value evaluations.
func Exact(g Game) []float64 {
	n := g.Players()
	vals := tabulate(g)
	w := Weights(n)
	phi := make([]float64, n)
	for mask := 0; mask < len(vals); mask++ {
		c := model.Coalition(mask)
		s := c.Size()
		if s == n {
			continue
		}
		weight := w[s]
		for u := 0; u < n; u++ {
			if !c.Has(u) {
				phi[u] += weight * (vals[c.With(u)] - vals[c])
			}
		}
	}
	return phi
}

// Marginals returns the marginal-contribution vector of one ordering
// (the inner term of Equation 2): player perm[i] receives
// v(perm[0..i]) − v(perm[0..i−1]).
func Marginals(g Game, perm []int) []float64 {
	phi := make([]float64, g.Players())
	var c model.Coalition
	prev := 0.0
	for _, u := range perm {
		c = c.With(u)
		cur := g.Value(c)
		phi[u] = cur - prev
		prev = cur
	}
	return phi
}

// Sample estimates the Shapley value as the average marginal vector over
// n random orderings (the estimator of Liben-Nowell et al. adapted in
// Theorem 5.6). The estimate is unbiased for any game.
func Sample(g Game, samples int, r *rand.Rand) []float64 {
	k := g.Players()
	phi := make([]float64, k)
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	for s := 0; s < samples; s++ {
		r.Shuffle(k, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		m := Marginals(g, perm)
		for u := range phi {
			phi[u] += m[u]
		}
	}
	if samples > 0 {
		for u := range phi {
			phi[u] /= float64(samples)
		}
	}
	return phi
}

// SampleSize returns the number of permutations N the FPRAS of Theorem
// 5.6 prescribes for k players, accuracy ε and confidence λ:
// N = ⌈k²/ε² · ln(k/(1−λ))⌉.
func SampleSize(k int, eps, lambda float64) int {
	if k <= 0 || eps <= 0 || lambda <= 0 || lambda >= 1 {
		panic("shapley: invalid FPRAS parameters")
	}
	n := float64(k) * float64(k) / (eps * eps) * math.Log(float64(k)/(1-lambda))
	if n < 1 {
		return 1
	}
	return int(n) + 1
}

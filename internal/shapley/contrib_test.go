package shapley

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

// intGame is a deterministic integer-valued dynamic game for the
// contrib-engine tests: v(c, t) = t·Σ_{u∈c} base[u] + pair bonuses for
// every pair present — non-additive, monotone in t.
type intGame struct {
	base  []int64
	bonus int64
}

func (g intGame) Players() int { return len(g.base) }

func (g intGame) ValueAt(c model.Coalition, t model.Time) int64 {
	var v int64
	c.EachMember(func(u int) { v += int64(t) * g.base[u] })
	s := int64(c.Size())
	return v + g.bonus*s*(s-1)/2
}

func randomIntGame(r *rand.Rand, n int) intGame {
	g := intGame{base: make([]int64, n), bonus: int64(r.Intn(7))}
	for i := range g.base {
		g.base[i] = int64(r.Intn(50))
	}
	return g
}

// players is the engine's player count n: it holds 2^n values.
func (ct *Contrib) players() int { return bits.Len(uint(len(ct.vals) - 1)) }

// Phi is PhiInto into a fresh full-length vector.
func (ct *Contrib) Phi(mask model.Coalition) []float64 {
	phi := make([]float64, ct.players())
	ct.PhiInto(mask, phi)
	return phi
}

// PhiInto on a full snapshot must equal Exact on the frozen game.
func TestContribPhiMatchesExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(4000 + seed))
		n := 2 + r.Intn(5)
		g := randomIntGame(r, n)
		at := model.Time(1 + r.Intn(100))
		ct := NewContrib(n)
		ct.Refresh(g, at)
		got := ct.Phi(model.Grand(n))
		want := ExactAt(g, at)
		for u := range want {
			if math.Abs(got[u]-want[u]) > 1e-9 {
				t.Fatalf("seed %d: φ[%d] = %v from Contrib, %v from ExactAt", seed, u, got[u], want[u])
			}
		}
	}
}

// PhiInto on a strict subcoalition must equal Exact on the game
// restricted to that coalition's members.
func TestContribPhiSubcoalition(t *testing.T) {
	r := rand.New(rand.NewSource(4100))
	n := 5
	g := randomIntGame(r, n)
	at := model.Time(17)
	ct := NewContrib(n)
	ct.Refresh(g, at)
	mask := model.Coalition(0b10110) // players 1, 2, 4
	phi := make([]float64, n)
	ct.PhiInto(mask, phi)
	// Σ_{u∈mask} φ[u] = v(mask) (efficiency on the subgame); outsiders 0.
	var sum float64
	for u := 0; u < n; u++ {
		if !mask.Has(u) && phi[u] != 0 {
			t.Fatalf("non-member %d got φ=%v", u, phi[u])
		}
		sum += phi[u]
	}
	if want := float64(g.ValueAt(mask, at)); math.Abs(sum-want) > 1e-9 {
		t.Fatalf("Σφ over mask = %v, v(mask) = %v", sum, want)
	}
}

// The dynamic estimators agree with the static ones on the frozen game,
// and SampleAt is deterministic per seed.
func TestDynamicEstimatorsMatchStatic(t *testing.T) {
	r := rand.New(rand.NewSource(4200))
	g := randomIntGame(r, 6)
	at := model.Time(42)
	exact := ExactAt(g, at)
	static := Exact(Frozen(g, at))
	for u := range exact {
		if !almostEqual(exact[u], static[u]) {
			t.Fatalf("ExactAt and Exact∘Frozen differ at %d", u)
		}
	}
	a := SampleAt(g, at, 50, stats.NewRand(7))
	b := SampleAt(g, at, 50, stats.NewRand(7))
	for u := range a {
		if math.Float64bits(a[u]) != math.Float64bits(b[u]) {
			t.Fatalf("SampleAt not deterministic per seed at %d", u)
		}
	}
}

// subsetWeights returns w[c][s] = (s−1)!·(c−s)!/c! — the weight of the
// marginal term v(S) − v(S∖{u}) for |S| = s inside a coalition of size
// c (the UpdateVals weights of the paper's Figure 1), in floating point.
func subsetWeights(k int) [][]float64 {
	fact := make([]float64, k+1)
	fact[0] = 1
	for i := 1; i <= k; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	w := make([][]float64, k+1)
	for c := 1; c <= k; c++ {
		w[c] = make([]float64, c+1)
		for s := 1; s <= c; s++ {
			w[c][s] = fact[s-1] * fact[c-s] / fact[c]
		}
	}
	return w
}

// subsetSumPhi is the floating-point subset sum Contrib.PhiInto used to
// be: |C|·2^(|C|−1) weighted float marginals accumulated in subset
// order. It is kept as a tolerance oracle for the exact engine, and as
// the specimen whose result depends on how the players are labelled
// (TestContribRelabelling).
func subsetSumPhi(ct *Contrib, mask model.Coalition) []float64 {
	phi := make([]float64, ct.players())
	w := subsetWeights(ct.players())[mask.Size()]
	eachSubset(mask, func(sub model.Coalition) { // the empty one, last, adds nothing
		weight := w[sub.Size()]
		sub.EachMember(func(u int) {
			phi[u] += weight * float64(ct.vals[sub]-ct.vals[sub.Without(u)])
		})
	})
	return phi
}

// The exact engine agrees with the float subset sum to 1e-9 relative
// on every subcoalition of games whose values float64 holds exactly.
func TestContribMatchesSubsetSum(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(4300 + seed))
		n := 2 + r.Intn(7)
		ct := NewContrib(n)
		ct.Refresh(randomIntGame(r, n), model.Time(1+r.Intn(100000)))
		for mask := model.Coalition(1); mask <= model.Grand(n); mask++ {
			got, want := ct.Phi(mask), subsetSumPhi(ct, mask)
			for u := range want {
				if math.Abs(got[u]-want[u]) > 1e-9*math.Max(1, math.Abs(want[u])) {
					t.Fatalf("seed %d mask %v: φ[%d] = %v exact, %v by the float subset sum", seed, mask, u, got[u], want[u])
				}
			}
		}
	}
}

// subsetWeights agrees with the per-predecessor Weights table:
// w[c][s] (subset form, |S|=s including u) equals Weights(c)[s-1]
// (predecessor form, |S\{u}| = s−1).
func TestSubsetWeightsMatchWeights(t *testing.T) {
	for c := 1; c <= 10; c++ {
		sub := subsetWeights(c)[c]
		pred := Weights(c)
		for s := 1; s <= c; s++ {
			if !almostEqual(sub[s], pred[s-1]) {
				t.Fatalf("c=%d s=%d: subset weight %v, predecessor weight %v", c, s, sub[s], pred[s-1])
			}
		}
	}
}

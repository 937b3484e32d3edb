package shapley

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/stats"
)

func randomGame(r *rand.Rand, n int) *mapGame {
	g := newMapGame(n)
	for mask := 1; mask < 1<<uint(n); mask++ {
		g.Set(model.Coalition(mask), math.Floor(r.Float64()*100))
	}
	return g
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Unanimity game u_T: v(C) = 1 iff T ⊆ C. Its Shapley value is 1/|T| for
// members of T and 0 otherwise — the textbook closed form.
func unanimity(n int, T model.Coalition) FuncGame {
	return FuncGame{N: n, F: func(c model.Coalition) float64 {
		if T.SubsetOf(c) {
			return 1
		}
		return 0
	}}
}

func TestExactUnanimity(t *testing.T) {
	T := model.Coalition(0b1011) // players 0,1,3
	phi := Exact(unanimity(5, T))
	for u := 0; u < 5; u++ {
		want := 0.0
		if T.Has(u) {
			want = 1.0 / 3.0
		}
		if !almostEqual(phi[u], want) {
			t.Errorf("φ[%d] = %v, want %v", u, phi[u], want)
		}
	}
}

func TestExactMajorityGame(t *testing.T) {
	// Three-player majority: v = 1 iff |C| >= 2. By symmetry φ = 1/3 each.
	g := FuncGame{N: 3, F: func(c model.Coalition) float64 {
		if c.Size() >= 2 {
			return 1
		}
		return 0
	}}
	for _, phi := range Exact(g) {
		if !almostEqual(phi, 1.0/3.0) {
			t.Fatalf("majority game φ = %v", Exact(g))
		}
	}
}

// Axiom: efficiency — Σφ(u) = v(grand).
func TestEfficiency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		g := randomGame(r, n)
		phi := Exact(g)
		var sum float64
		for _, p := range phi {
			sum += p
		}
		return almostEqual(sum, g.Value(model.Grand(n)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Axiom: dummy — a player contributing nothing to any coalition gets 0.
func TestDummy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		dummy := r.Intn(n)
		g := newMapGame(n)
		// Value depends only on the non-dummy members, so the dummy's
		// marginal contribution is 0 to every coalition.
		base := make(map[model.Coalition]float64)
		for mask := 0; mask < 1<<uint(n); mask++ {
			c := model.Coalition(mask)
			if !c.Has(dummy) {
				base[c] = math.Floor(r.Float64() * 50)
			}
		}
		base[0] = 0
		for mask := 0; mask < 1<<uint(n); mask++ {
			c := model.Coalition(mask)
			g.Set(c, base[c.Without(dummy)])
		}
		return almostEqual(Exact(g)[dummy], 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Axiom: symmetry — interchangeable players receive equal shares.
func TestSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		// Value depends only on coalition size → all players symmetric.
		sizeVal := make([]float64, n+1)
		for i := 1; i <= n; i++ {
			sizeVal[i] = sizeVal[i-1] + math.Floor(r.Float64()*20)
		}
		g := FuncGame{N: n, F: func(c model.Coalition) float64 { return sizeVal[c.Size()] }}
		phi := Exact(g)
		for u := 1; u < n; u++ {
			if !almostEqual(phi[u], phi[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Axiom: additivity — φ(v+w) = φ(v) + φ(w).
func TestAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		v, w := randomGame(r, n), randomGame(r, n)
		sum := newMapGame(n)
		for mask := range sum.Values {
			sum.Values[mask] = v.Values[mask] + w.Values[mask]
		}
		pv, pw, ps := Exact(v), Exact(w), Exact(sum)
		for u := 0; u < n; u++ {
			if !almostEqual(ps[u], pv[u]+pw[u]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Equation 1 (subset formula) must equal Equation 2 (average over all
// permutations) — verified exhaustively for small games.
func TestSubsetFormulaEqualsPermutationAverage(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(4)
		g := randomGame(r, n)
		sum := make([]float64, n)
		count := 0
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var walk func(i int)
		walk = func(i int) {
			if i == n {
				m := Marginals(g, perm)
				for u := range sum {
					sum[u] += m[u]
				}
				count++
				return
			}
			for j := i; j < n; j++ {
				perm[i], perm[j] = perm[j], perm[i]
				walk(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
		}
		walk(0)
		exact := Exact(g)
		for u := 0; u < n; u++ {
			if !almostEqual(sum[u]/float64(count), exact[u]) {
				t.Fatalf("trial %d: permutation average %v != exact %v", trial, sum[u]/float64(count), exact[u])
			}
		}
	}
}

func TestSampleConverges(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	g := randomGame(r, 5)
	exact := Exact(g)
	est := Sample(g, 20000, stats.NewRand(3))
	for u := range exact {
		if math.Abs(est[u]-exact[u]) > 2.0 {
			t.Errorf("φ[%d]: sample %v vs exact %v", u, est[u], exact[u])
		}
	}
}

func TestSampleZero(t *testing.T) {
	g := newMapGame(3)
	phi := Sample(g, 0, stats.NewRand(1))
	for _, p := range phi {
		if p != 0 {
			t.Fatal("zero samples must yield zero estimate")
		}
	}
}

func TestWeightsSumOverSubsets(t *testing.T) {
	// Σ over subset sizes s of C(n-1, s)·w[s] must equal 1: every player's
	// marginal weights form a probability distribution.
	for n := 1; n <= 12; n++ {
		w := Weights(n)
		sum := 0.0
		choose := 1.0
		for s := 0; s < n; s++ {
			sum += choose * w[s]
			choose = choose * float64(n-1-s) / float64(s+1)
		}
		if !almostEqual(sum, 1) {
			t.Errorf("n=%d: Σ C(n-1,s)·w[s] = %v", n, sum)
		}
	}
}

func TestSampleSize(t *testing.T) {
	// Theorem 5.6: N = ⌈k²/ε²·ln(k/(1−λ))⌉.
	got := sampleSize(5, 0.1, 0.95)
	want := int(25.0/0.01*math.Log(5/0.05)) + 1
	if got != want {
		t.Errorf("sampleSize = %d, want %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("sampleSize with bad parameters must panic")
		}
	}()
	sampleSize(0, 0.1, 0.5)
}

// BenchmarkAblationShapley compares the generic Shapley evaluators on a
// 14-player random game: exact and the two Monte-Carlo
// samplers (plain and position-stratified) at the theorem's sample size.
func BenchmarkAblationShapley(b *testing.B) {
	const n = 14
	rng := stats.NewRand(9)
	g := newMapGame(n)
	for mask := 1; mask < 1<<n; mask++ {
		g.Set(model.Coalition(mask), float64(rng.Intn(1000)))
	}
	b.Run("Exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Exact(g)
		}
	})
	b.Run("Sample", func(b *testing.B) {
		n := sampleSize(n, 0.1, 0.95)
		r := stats.NewRand(11)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Sample(g, n, r)
		}
	})
	b.Run("SampleStratified", func(b *testing.B) {
		// Same permutation budget as Sample: rounds·k ≈ sampleSize.
		rounds := (sampleSize(n, 0.1, 0.95) + n - 1) / n
		r := stats.NewRand(11)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sampleStratified(g, rounds, r)
		}
	})
}

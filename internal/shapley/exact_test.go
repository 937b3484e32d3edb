package shapley

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// bigOf converts a two-word integer to math/big.
func bigOf(a wide) *big.Int {
	v := new(big.Int).SetUint64(a.hi)
	v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(a.lo))
	if a.negative() {
		v.Sub(v, new(big.Int).Lsh(big.NewInt(1), 128))
	}
	return v
}

// wideOf converts a math/big integer in [−2^127, 2^127) to two words.
func wideOf(v *big.Int) wide {
	u := new(big.Int).Set(v)
	if u.Sign() < 0 {
		u.Add(u, new(big.Int).Lsh(big.NewInt(1), 128))
	}
	lo := new(big.Int).And(u, new(big.Int).SetUint64(math.MaxUint64))
	return wide{hi: new(big.Int).Rsh(u, 64).Uint64(), lo: lo.Uint64()}
}

// withinOneUlp reports whether got is want or one of its two float64
// neighbours.
func withinOneUlp(got, want float64) bool {
	return got == want || got == math.Nextafter(want, math.Inf(1)) || got == math.Nextafter(want, math.Inf(-1))
}

// ratPhi is Equation 1 in exact rational arithmetic: the contribution
// of member u to coalition mask in the game vals,
// φ_u = Σ_{S ⊆ mask∖{u}} |S|!·(c−|S|−1)!/c! · (v(S∪{u}) − v(S)).
// The marginals are summed per subset size as integers and weighted
// once, so the oracle stays usable at n = 10.
func ratPhi(vals []int64, mask model.Coalition, u int) *big.Rat {
	c := mask.Size()
	bySize := make([]*big.Int, c)
	for s := range bySize {
		bySize[s] = new(big.Int)
	}
	eachSubset(mask.Without(u), func(sub model.Coalition) {
		m := new(big.Int).Sub(big.NewInt(vals[sub.With(u)]), big.NewInt(vals[sub]))
		bySize[sub.Size()].Add(bySize[sub.Size()], m)
	})
	fact := func(k int) *big.Int { return new(big.Int).MulRange(1, int64(k)) }
	phi := new(big.Rat)
	for s, sum := range bySize {
		w := new(big.Rat).SetFrac(new(big.Int).Mul(fact(s), fact(c-s-1)), fact(c))
		phi.Add(phi, w.Mul(w, new(big.Rat).SetInt(sum)))
	}
	return phi
}

// loaded returns an engine holding the game vals (indexed by mask).
func loaded(n int, vals []int64) *Contrib {
	ct := NewContrib(n)
	for mask := model.Coalition(1); mask <= model.Grand(n); mask++ {
		ct.SetValue(mask, vals[mask])
	}
	return ct
}

// checkExact holds a Contrib loaded with vals (indexed by mask, vals[0]
// = 0) to the rational oracle on every subcoalition: the integer
// numerators L·φ_u(C) to equality, the floats PhiInto reports to the
// correctly rounded quotient within 1 ulp, and efficiency as the
// integer identity Σ_u L·φ_u(C) = L·v(C).
func checkExact(t *testing.T, n int, vals []int64) {
	t.Helper()
	ct := loaded(n, vals)
	scale := new(big.Rat).SetInt64(ct.scale)
	phi := make([]float64, n)
	for mask := model.Coalition(1); mask <= model.Grand(n); mask++ {
		ct.PhiInto(mask, phi)
		sum := new(big.Int)
		for u := 0; u < n; u++ {
			if !mask.Has(u) {
				if phi[u] != 0 {
					t.Fatalf("n=%d mask %v: non-member %d got φ = %v", n, mask, u, phi[u])
				}
				continue
			}
			want := ratPhi(vals, mask, u)
			num := bigOf(ct.numerator(mask, u))
			if scaled := new(big.Rat).Mul(want, scale); !scaled.IsInt() || scaled.Num().Cmp(num) != 0 {
				t.Fatalf("n=%d mask %v: L·φ[%d] = %v, oracle %v", n, mask, u, num, scaled)
			}
			if f, _ := want.Float64(); !withinOneUlp(phi[u], f) {
				t.Fatalf("n=%d mask %v: φ[%d] = %v, oracle rounds to %v", n, mask, u, phi[u], f)
			}
			sum.Add(sum, num)
		}
		if want := new(big.Int).Mul(big.NewInt(ct.scale), big.NewInt(vals[mask])); sum.Cmp(want) != 0 {
			t.Fatalf("n=%d mask %v: Σ numerators = %v, L·v = %v", n, mask, sum, want)
		}
	}
}

// randomValues draws a game with values anywhere in ±2^bits.
func randomValues(r *rand.Rand, n int, bits uint) []int64 {
	vals := make([]int64, 1<<uint(n))
	for mask := 1; mask < len(vals); mask++ {
		vals[mask] = r.Int63()>>(63-bits) - r.Int63()>>(63-bits)
	}
	return vals
}

// The engine is exact: on random games up to n = 10 with values up to
// 2^62 in magnitude — far past what float64 holds — every numerator
// equals the rational subset formula's, every float is its correct
// rounding within 1 ulp, and efficiency holds as an integer identity.
func TestContribExactAgainstBigRat(t *testing.T) {
	r := rand.New(rand.NewSource(4400))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 10} {
		for _, bits := range []uint{8, 40, 62} {
			checkExact(t, n, randomValues(r, n, bits))
		}
	}
	// Every value at an int64 extreme.
	for _, ext := range [][2]int64{{math.MaxInt64, math.MaxInt64}, {math.MinInt64, math.MinInt64}, {math.MaxInt64, math.MinInt64}} {
		vals := make([]int64, 1<<6)
		for mask := 1; mask < len(vals); mask++ {
			vals[mask] = ext[mask%3%2]
		}
		checkExact(t, 6, vals)
	}
}

// relabel returns the game vals with player u renamed perm[u].
func relabel(vals []int64, perm []int) []int64 {
	out := make([]int64, len(vals))
	for mask := range vals {
		out[relabelMask(model.Coalition(mask), perm)] = vals[mask]
	}
	return out
}

func relabelMask(c model.Coalition, perm []int) model.Coalition {
	var out model.Coalition
	c.EachMember(func(u int) { out = out.With(perm[u]) })
	return out
}

// relabelMismatches counts, over every subcoalition and member, the φ
// entries that change bits when the players are renamed by perm.
func relabelMismatches(n int, vals []int64, perm []int, phiOf func(*Contrib, model.Coalition) []float64) int {
	a, b := loaded(n, vals), loaded(n, relabel(vals, perm))
	bad := 0
	for mask := model.Coalition(1); mask <= model.Grand(n); mask++ {
		pa, pb := phiOf(a, mask), phiOf(b, relabelMask(mask, perm))
		mask.EachMember(func(u int) {
			if math.Float64bits(pa[u]) != math.Float64bits(pb[perm[u]]) {
				bad++
			}
		})
	}
	return bad
}

// Renaming the players permutes φ bit for bit: a numerator is an
// integer function of the game, so it cannot depend on the order the
// labels make the engine visit coalitions in. The float subset sum the
// engine replaced does depend on it — its summation order follows the
// labels — and the test records how often (it is expected to, and the
// count is logged, not asserted: a platform with fused arithmetic may
// differ).
func TestContribRelabelling(t *testing.T) {
	r := rand.New(rand.NewSource(4500))
	floatBad, entries := 0, 0
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(6)
		vals := randomValues(r, n, 50)
		perm := r.Perm(n)
		if bad := relabelMismatches(n, vals, perm, (*Contrib).Phi); bad != 0 {
			t.Fatalf("trial %d (n=%d, perm %v): %d φ entries change bits under relabelling", trial, n, perm, bad)
		}
		floatBad += relabelMismatches(n, vals, perm, subsetSumPhi)
		entries += n << uint(n-1)
	}
	t.Logf("float subset sum: %d of %d φ entries change bits under relabelling; exact engine: 0", floatBad, entries)
}

// Values may be written in any order and rewritten between queries: the
// engine re-derives exactly the potentials a write can have staled, so
// every query answers as a freshly loaded engine would.
func TestContribWritesInAnyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(4550))
	const n = 6
	grand := model.Grand(n)
	vals := randomValues(r, n, 40)
	ct := NewContrib(n)
	for mask := grand; mask >= 1; mask-- {
		ct.SetValue(mask, vals[mask])
	}
	for step := 0; step < 200; step++ {
		c := model.Coalition(1 + r.Intn(int(grand)))
		vals[c] = r.Int63()>>20 - r.Int63()>>20
		ct.SetValue(c, vals[c])
		query := model.Coalition(1 + r.Intn(int(grand)))
		got, want := ct.Phi(query), loaded(n, vals).Phi(query)
		for u := range want {
			if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
				t.Fatalf("step %d: after rewriting %v, φ[%d] of %v = %v, a fresh engine gives %v", step, c, u, query, got[u], want[u])
			}
		}
	}
}

// Symmetric players tie exactly: in a game whose value depends only on
// coalition size, every member's φ is the same float64, whatever the
// values' magnitude.
func TestContribSymmetricPlayersTie(t *testing.T) {
	r := rand.New(rand.NewSource(4600))
	const n = 8
	bySize := make([]int64, n+1)
	for s := 1; s <= n; s++ {
		bySize[s] = r.Int63() >> 3
	}
	ct := NewContrib(n)
	for mask := model.Coalition(1); mask <= model.Grand(n); mask++ {
		ct.SetValue(mask, bySize[mask.Size()])
	}
	for mask := model.Coalition(1); mask <= model.Grand(n); mask++ {
		phi := ct.Phi(mask)
		first := -1
		mask.EachMember(func(u int) {
			if first < 0 {
				first = u
			}
			if math.Float64bits(phi[u]) != math.Float64bits(phi[first]) {
				t.Fatalf("mask %v: symmetric players %d and %d got %v and %v", mask, first, u, phi[first], phi[u])
			}
		})
	}
}

// The two-word helper against math/big, at the operands the potential
// recurrence can meet: the n = 30 scaling constant times the int64
// extremes, sums of 31 such terms, their exact quotients by every
// coalition size, and the float conversion around every
// rounding boundary.
func TestWideMatchesBig(t *testing.T) {
	scale30 := lcmUpTo(model.MaxOrgs)
	if scale30 != 2329089562800 {
		t.Fatalf("lcm(1..30) = %d, want 2329089562800", scale30)
	}
	extremes := []int64{math.MaxInt64, -math.MaxInt64, math.MinInt64, 1, -1, 0, 1 << 53, -(1<<53 + 1)}
	var terms []wide
	for _, v := range extremes {
		w := mulWide(v, scale30)
		if want := new(big.Int).Mul(big.NewInt(v), big.NewInt(scale30)); bigOf(w).Cmp(want) != 0 {
			t.Fatalf("mulWide(%d, %d) = %v, want %v", v, scale30, bigOf(w), want)
		}
		terms = append(terms, w)
	}
	r := rand.New(rand.NewSource(4700))
	for i := 0; i < 200; i++ {
		// A random value of up to 120 bits, either sign: 31 of them and
		// any difference of two still fit the two words.
		v := new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(1+r.Intn(120))))
		if r.Intn(2) == 0 {
			v.Neg(v)
		}
		terms = append(terms, wideOf(v))
	}
	for _, a := range terms {
		if back := wideOf(bigOf(a)); back != a {
			t.Fatalf("round trip of %v through math/big gave %v", a, back)
		}
		// 31 terms of the largest magnitude the recurrence sums.
		sum, want := wide{}, new(big.Int)
		for i := 0; i < 31; i++ {
			sum = sum.add(a)
			want.Add(want, bigOf(a))
		}
		if bigOf(sum).Cmp(want) != 0 {
			t.Fatalf("31·%v = %v, want %v", bigOf(a), bigOf(sum), want)
		}
		for _, b := range terms[:12] {
			if got, want := bigOf(a.sub(b)), new(big.Int).Sub(bigOf(a), bigOf(b)); got.Cmp(want) != 0 {
				t.Fatalf("%v − %v = %v, want %v", bigOf(a), bigOf(b), got, want)
			}
		}
		for d := int64(1); d <= model.MaxOrgs; d++ {
			// a·d for |a| < 2^120 and d ≤ 30 still fits.
			prod := wideOf(new(big.Int).Mul(bigOf(a), big.NewInt(d)))
			if got := prod.divExact(divisors[d]); got != a {
				t.Fatalf("(%v·%d) / %d = %v", bigOf(a), d, d, bigOf(got))
			}
		}
		if got, want := a.float64(), bigFloat64(bigOf(a)); got != want {
			t.Fatalf("float64(%v) = %v, want %v", bigOf(a), got, want)
		}
	}
	// Rounding boundaries: 2^e + half an ulp, a hair below and above.
	for e := uint(53); e < 120; e += 7 {
		half := new(big.Int).Lsh(big.NewInt(1), e-53)
		base := new(big.Int).Lsh(big.NewInt(1), e)
		for _, odd := range []int64{0, 1} { // tie to even from an even and an odd mantissa
			b := new(big.Int).Add(base, new(big.Int).Mul(big.NewInt(2*odd), half))
			for _, delta := range []int64{-1, 0, 1} {
				v := new(big.Int).Add(b, half)
				v.Add(v, big.NewInt(delta))
				for _, x := range []*big.Int{v, new(big.Int).Neg(v)} {
					if got, want := wideOf(x).float64(), bigFloat64(x); got != want {
						t.Fatalf("float64(%v) = %v, want %v", x, got, want)
					}
				}
			}
		}
	}
}

// bigFloat64 is the float64 nearest to v, ties to even.
func bigFloat64(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	return f
}

// FuzzContribExact feeds arbitrary (n, values) games through the same
// oracle checks as TestContribExactAgainstBigRat plus the relabelling
// property under the reversing permutation.
func FuzzContribExact(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(5), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(6), []byte("symmetric players tie exactly"))
	f.Fuzz(func(t *testing.T, players uint8, data []byte) {
		n := 1 + int(players)%6
		vals := make([]int64, 1<<uint(n))
		var word [8]byte
		for mask := 1; mask < len(vals) && len(data) > 0; mask++ {
			k := copy(word[:], data)
			clear(word[k:])
			data = data[k:]
			vals[mask] = int64(binary.LittleEndian.Uint64(word[:]))
		}
		checkExact(t, n, vals)
		perm := make([]int, n)
		for u := range perm {
			perm[u] = n - 1 - u
		}
		if bad := relabelMismatches(n, vals, perm, (*Contrib).Phi); bad != 0 {
			t.Fatalf("%d φ entries change bits under relabelling", bad)
		}
	})
}

// BenchmarkContribGrand is the cost of one coalition's φ from a fresh
// 8-player table (what bench's shapley.refresh_phi_us.k8 kernel asks
// for, minus the game's value reads): a full potential build plus eight
// conversions.
func BenchmarkContribGrand(b *testing.B) {
	const n = 8
	vals := randomValues(rand.New(rand.NewSource(4800)), n, 40)
	ct := NewContrib(n)
	phi := make([]float64, n)
	for i := 0; i < b.N; i++ {
		for mask := model.Coalition(1); mask <= model.Grand(n); mask++ {
			ct.SetValue(mask, vals[mask])
		}
		ct.PhiInto(model.Grand(n), phi)
	}
}

// eachSubset calls f for every subset of c, including the empty
// coalition and c itself, in decreasing mask order.
func eachSubset(c model.Coalition, f func(sub model.Coalition)) {
	for sub := c; ; sub = (sub - 1) & c {
		f(sub)
		if sub == 0 {
			return
		}
	}
}

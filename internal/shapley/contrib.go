package shapley

import (
	"math/bits"
	"math/rand"

	"repro/internal/model"
)

// ContribGame is a cooperative game whose coalition values evolve as an
// underlying system advances through time — the object at the heart of
// Algorithm REF. Where Game freezes a characteristic function, a
// ContribGame is queried at an instant: ValueAt(c, t) is coalition c's
// value when the system's clock stands at t.
//
// Implementations must satisfy ValueAt(∅, t) = 0 and be deterministic.
// They are encouraged to answer coalitions untouched since their last
// event in O(1) (internal/core's org-level game reads each schedule's
// running ψsp polynomial, sim.Cluster.ValueAt; internal/fed's federation-level game
// evaluates a closed form of the exchanged ledger columns). Both REF
// drivers and the estimators below consume this interface, so every new
// game variant plugs into the same contribution machinery.
type ContribGame interface {
	// Players returns the number of players n; coalitions are masks
	// over players 0..n-1.
	Players() int
	// ValueAt returns coalition c's value at time t.
	ValueAt(c model.Coalition, t model.Time) int64
}

// Frozen fixes a dynamic game at one instant, exposing the static Game
// interface every estimator in this package consumes.
func Frozen(g ContribGame, t model.Time) Game {
	return FuncGame{N: g.Players(), F: func(c model.Coalition) float64 {
		if c.Empty() {
			return 0
		}
		return float64(g.ValueAt(c, t))
	}}
}

// ExactAt computes the exact Shapley contributions of the dynamic game
// at time t: one Contrib loaded from the game, read at the grand
// coalition — the evaluator REF steps on, so symmetric players tie
// exactly. Cost: n·2^(n−1) integer additions plus 2ⁿ ValueAt
// evaluations.
func ExactAt(g ContribGame, t model.Time) []float64 {
	n := g.Players()
	ct := NewContrib(n)
	ct.Refresh(g, t)
	phi := make([]float64, n)
	ct.PhiInto(model.Grand(n), phi)
	return phi
}

// SampleAt estimates the Shapley contributions of the dynamic game at
// time t over `samples` random orderings (the Algorithm RAND estimator).
func SampleAt(g ContribGame, t model.Time, samples int, r *rand.Rand) []float64 {
	return Sample(Frozen(g, t), samples, r)
}

// Contrib is the contribution engine REF-style schedulers drive: a
// dense per-coalition value snapshot and, beside it, the coalition
// potentials that turn a Shapley contribution into one subtraction (the
// UpdateVals procedure of Figure 1, evaluated exactly).
//
// The Hart–Mas-Colell potential P(C) = Σ_{S⊆C} (|S|−1)!(|C|−|S|)!/|C|!·v(S)
// satisfies φ_u(C) = P(C) − P(C∖{u}) and |C|·P(C) = v(C) + Σ_{j∈C} P(C∖{j}).
// The engine keeps pot[C] = L·P(C) with L = lcm(1..n), which is an
// integer: the coefficient of v(S) is L/(s·binom(c,s)), and s·binom(c,s)
// divides lcm(1..c). So the recurrence
//
//	|C|·pot[C] = L·v(C) + Σ_{j∈C} pot[C∖{j}]
//
// divides exactly, a full table costs n·2^(n−1) integer additions, and
// φ_u(C) = (pot[C] − pot[C∖{u}])/L is one integer→float conversion and
// one division of a number that does not depend on summation order or
// on how the players are labelled. Two consequences the schedulers rely
// on: every driver sharing this engine computes bit-equal φ, and
// players symmetric in the game tie exactly, so the paper's argmax
// breaks the tie by index, not by rounding noise.
//
// Nothing here can wrap for a game the model admits (n ≤ model.MaxOrgs
// = 30, values any int64): L < 2^42, the weights of P(C) are positive
// and sum to the harmonic number H_|C| < 4, so |pot[C]| < 2^42·2^2·2^63
// = 2^107, and the recurrence's right-hand side, at most 31 such terms,
// stays under 2^112 — inside the two-word accumulators (wide) the
// table is kept in. An int64 table would wrap silently once L·v
// outgrows it, and v grows with t².
//
// The engine is game-agnostic: callers either pull the whole table from
// a ContribGame (Refresh — a driver that dispatches many coalitions at
// one time moment takes one snapshot and shares it) or write values
// directly (SetValue), in any order. Potentials are derived from the
// values in mask order — every subcoalition has a smaller mask — and
// only as far as a query reaches: built counts the masks whose
// potential is current, a write pulls it back to the coalition written,
// and PhiInto(mask) resumes the pass up to mask. An instant whose
// largest dispatching coalition has a small mask pays a short pass; one
// where the grand coalition dispatches pays the whole n·2^(n−1) once.
type Contrib struct {
	vals  []int64
	pot   []wide // pot[C] = L·P(C), current for C < built; pot[∅] = 0
	built model.Coalition
	scale int64 // L = lcm(1..n)
}

// NewContrib builds the engine for an n-player game. All values start
// at zero.
func NewContrib(n int) *Contrib {
	return &Contrib{
		vals:  make([]int64, 1<<uint(n)),
		pot:   make([]wide, 1<<uint(n)),
		built: 1,
		scale: lcmUpTo(n),
	}
}

// lcmUpTo returns lcm(1..n); lcm(1..30) = 2329089562800 < 2^42.
func lcmUpTo(n int) int64 {
	l := int64(1)
	for i := int64(2); i <= int64(n); i++ {
		a, b := l, i
		for b != 0 {
			a, b = b, a%b
		}
		l = l / a * i
	}
	return l
}

// SetValue writes coalition c's snapshot value. The empty coalition's
// value is 0 by definition and is not stored.
func (ct *Contrib) SetValue(c model.Coalition, v int64) {
	if c.Empty() {
		return
	}
	ct.vals[c] = v
	if c < ct.built {
		ct.built = c
	}
}

// Refresh snapshots every non-empty coalition's value from the game at
// time t.
func (ct *Contrib) Refresh(g ContribGame, t model.Time) {
	for mask := model.Coalition(1); int(mask) < len(ct.vals); mask++ {
		ct.vals[mask] = g.ValueAt(mask, t)
	}
	ct.built = 1
}

// build extends the potentials through mask by the recurrence
// |C|·pot[C] = L·v(C) + Σ_{j∈C} pot[C∖{j}].
func (ct *Contrib) build(mask model.Coalition) {
	for ; ct.built <= mask; ct.built++ {
		c := ct.built
		sum := mulWide(ct.vals[c], ct.scale)
		for rest := c; rest != 0; rest &= rest - 1 {
			sum = sum.add(ct.pot[c&^(rest&-rest)])
		}
		ct.pot[c] = sum.divExact(divisors[c.Size()])
	}
}

// numerator returns L·φ_u(mask) for a member u of mask — the exact
// integer PhiInto divides. The potentials must be built through mask.
func (ct *Contrib) numerator(mask model.Coalition, u int) wide {
	return ct.pot[mask].sub(ct.pot[mask.Without(u)])
}

// PhiInto fills phi with the exact Shapley contributions of mask's
// members in the game restricted to mask, from the current snapshot
// (non-members get 0). phi must have length ≥ the highest member index
// + 1; callers reuse one vector per coalition across dispatch instants.
func (ct *Contrib) PhiInto(mask model.Coalition, phi []float64) {
	clear(phi)
	ct.build(mask)
	div := float64(ct.scale)
	for rest := mask; rest != 0; rest &= rest - 1 {
		u := bits.TrailingZeros32(uint32(rest))
		phi[u] = ct.numerator(mask, u).float64() / div
	}
}

package shapley

import (
	"math/rand"
	"sync"

	"repro/internal/model"
)

// ContribGame is a cooperative game whose coalition values evolve as an
// underlying system advances through time — the object at the heart of
// Algorithm REF. Where Game freezes a characteristic function, a
// ContribGame is queried at an instant: ValueAt(c, t) is coalition c's
// value when the system's clock stands at t.
//
// Implementations must satisfy ValueAt(∅, t) = 0 and be deterministic.
// They are encouraged to serve cached values for coalitions untouched
// since their last event (internal/core's org-level game answers from
// sim.ValuePoly snapshots in O(1); internal/fed's federation-level game
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
// at time t by the subset formula (Equation 1). Cost: O(n·2ⁿ) plus 2ⁿ
// ValueAt evaluations.
func ExactAt(g ContribGame, t model.Time) []float64 {
	return Exact(Frozen(g, t))
}

// SampleAt estimates the Shapley contributions of the dynamic game at
// time t over `samples` random orderings (the Algorithm RAND estimator).
func SampleAt(g ContribGame, t model.Time, samples int, r *rand.Rand) []float64 {
	return Sample(Frozen(g, t), samples, r)
}

// subsetWeightTables memoizes SubsetWeights across callers: the
// experiment harness builds thousands of REF runs for the same handful
// of player counts, and the tables are immutable once built.
var subsetWeightTables sync.Map // int (k) -> [][]float64

// SubsetWeights returns w[c][s] = (s−1)!·(c−s)!/c! — the weight of the
// marginal term v(S) − v(S∖{u}) for |S| = s inside a coalition of size
// c (the UpdateVals weights of the paper's Figure 1). Tables are shared
// and must not be mutated.
func SubsetWeights(k int) [][]float64 {
	if w, ok := subsetWeightTables.Load(k); ok {
		return w.([][]float64)
	}
	w, _ := subsetWeightTables.LoadOrStore(k, buildSubsetWeights(k))
	return w.([][]float64)
}

func buildSubsetWeights(k int) [][]float64 {
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

// Contrib is the contribution engine REF-style schedulers drive: a
// dense per-coalition value snapshot and the memoized subset weight
// tables, with PhiInto computing a coalition's members' exact Shapley
// contributions from the snapshot (the UpdateVals procedure of
// Figure 1).
//
// The engine is game-agnostic: callers either write values directly
// (SetValue, for drivers that already hold every schedule at the
// current instant) or pull the whole table from a ContribGame (Refresh
// — a driver that dispatches many coalitions at one time moment takes
// one snapshot and shares it).
type Contrib struct {
	n       int
	vals    []int64
	weights [][]float64
}

// NewContrib builds the engine for an n-player game. All values start
// at zero.
func NewContrib(n int) *Contrib {
	return &Contrib{
		n:       n,
		vals:    make([]int64, 1<<uint(n)),
		weights: SubsetWeights(n),
	}
}

// Players returns the player count n.
func (ct *Contrib) Players() int { return ct.n }

// SetValue writes coalition c's snapshot value directly.
func (ct *Contrib) SetValue(c model.Coalition, v int64) { ct.vals[c] = v }

// Value reads coalition c's snapshot value.
func (ct *Contrib) Value(c model.Coalition) int64 { return ct.vals[c] }

// Refresh snapshots every non-empty coalition's value from the game at
// time t.
func (ct *Contrib) Refresh(g ContribGame, t model.Time) {
	ct.vals[0] = 0
	for mask := model.Coalition(1); int(mask) < len(ct.vals); mask++ {
		ct.vals[mask] = g.ValueAt(mask, t)
	}
}

// PhiInto fills phi with the exact Shapley contributions of mask's
// members, computed from the current value snapshot by the subset
// formula over mask's subsets (non-members get 0). phi must have length
// ≥ the highest member index + 1; callers reuse one vector per
// coalition across dispatch instants.
func (ct *Contrib) PhiInto(mask model.Coalition, phi []float64) {
	for i := range phi {
		phi[i] = 0
	}
	w := ct.weights[mask.Size()]
	mask.EachNonemptySubset(func(sub model.Coalition) {
		vsub := ct.vals[sub]
		weight := w[sub.Size()]
		sub.EachMember(func(u int) {
			phi[u] += weight * float64(vsub-ct.vals[sub.Without(u)])
		})
	})
}

// Phi returns a freshly allocated full-length contribution vector for
// the coalition (PhiInto for callers without a scratch vector).
func (ct *Contrib) Phi(mask model.Coalition) []float64 {
	phi := make([]float64, ct.n)
	ct.PhiInto(mask, phi)
	return phi
}

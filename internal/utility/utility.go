// Package utility implements the strategy-proof utility function ψsp of
// Skowron & Rzadca (Theorem 4.1, Equation 3) together with flow time,
// the classic metric the paper contrasts it with (Proposition 4.2).
//
// ψsp admits an exact integer formulation: a job (s, p) evaluated at time
// t corresponds to min(p, t−s) executed unit slots τ = s, s+1, …, and each
// executed slot τ is worth t − τ. The closed form of Equation 3 is the
// arithmetic-series sum of those unit values. All code in this module
// therefore works in int64 — there is no floating-point error anywhere in
// utility accounting.
package utility

import "repro/internal/model"

// Execution is one started job inside a schedule: the pair (s, p) of the
// paper. Release times are irrelevant to ψsp (only starts matter), so the
// type carries none; see Placed for metrics that need releases.
type Execution struct {
	Start model.Time
	Size  model.Time
}

// ExecutedUnits returns min(p, t−s) clamped at 0: the number of unit
// slots of a job (s, p) that finished executing strictly before t.
func ExecutedUnits(s, p, t model.Time) int64 {
	e := t - s
	if e <= 0 {
		return 0
	}
	if e > p {
		e = p
	}
	return int64(e)
}

// PsiJob returns the ψsp value at time t of a single job started at s
// with size p:
//
//	ψ = Σ_{τ=s}^{s+e−1} (t − τ)   where e = min(p, t−s)
//
// equal to Equation 3's min(p,t−s)·(t − (s+min(s+p−1,t−1))/2). The value
// is always a non-negative integer.
func PsiJob(s, p, t model.Time) int64 {
	e := ExecutedUnits(s, p, t)
	if e == 0 {
		return 0
	}
	// e·t − Σ τ = e·t − (2s+e−1)·e/2 = e·(2(t−s) − e + 1)/2.
	return e * (2*int64(t-s) - e + 1) / 2
}

// Psi returns ψsp of a whole schedule at time t: the sum of PsiJob over
// its executions. ψsp is additive across jobs by construction.
func Psi(execs []Execution, t model.Time) int64 {
	var total int64
	for _, e := range execs {
		total += PsiJob(e.Start, e.Size, t)
	}
	return total
}

// Account is an incremental ψsp accumulator. It stores
//
//	U = number of executed unit slots recorded so far
//	S = sum of their slot indices
//
// so that ψsp at any evaluation time t ≥ (all recorded slots)+1 is
// t·U − S. Simulators call AddWindow as jobs execute; PsiAt is O(1).
// The zero value is an empty account, ready to use.
type Account struct {
	U int64
	S int64
}

// AddWindow records execution of unit slots τ ∈ [from, to). A window with
// to ≤ from records nothing.
func (a *Account) AddWindow(from, to model.Time) {
	if to <= from {
		return
	}
	n := int64(to - from)
	a.U += n
	a.S += (int64(from) + int64(to) - 1) * n / 2
}

// AddScaledWindow records the work units a job executes during the
// wall-clock slots [from, to) on a speed-q machine (related-machines
// extension). The job started at s with p work units; it completes q
// units in each slot except possibly its last one, which carries the
// remainder. With q = 1 this is AddWindow over the clipped window.
// Callers must clip [from, to) to the job's occupancy
// [s, s+⌈p/q⌉).
func (a *Account) AddScaledWindow(s, p model.Time, q int, from, to model.Time) {
	if to <= from {
		return
	}
	if q <= 1 {
		a.AddWindow(from, to)
		return
	}
	dur := (p + model.Time(q) - 1) / model.Time(q)
	last := s + dur - 1
	hi := to
	if hi > last {
		hi = last
	}
	if hi > from {
		n := int64(hi - from)
		a.U += int64(q) * n
		a.S += int64(q) * (int64(from) + int64(hi) - 1) * n / 2
	}
	if to > last && from <= last {
		rem := int64(p) - int64(q)*int64(dur-1)
		a.U += rem
		a.S += rem * int64(last)
	}
}

// Add merges another account into a.
func (a *Account) Add(b Account) {
	a.U += b.U
	a.S += b.S
}

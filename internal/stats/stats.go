// Package stats provides the small statistical toolkit the experiments
// need: seeded random sources, the distributions used by the workload
// generator (Zipf machine splits, lognormal sizes, exponential gaps,
// geometric burst lengths) and streaming mean/stddev summaries for table
// aggregation.
package stats

import (
	"math"
	"math/rand"
)

// Source is a SplitMix64 random source (Steele, Lea & Flood): each draw
// advances an odd-gamma Weyl sequence and avalanches it. Unlike the
// math/rand built-in source, its entire state is one exported word, so
// a mid-stream position can be checkpointed with State and resumed
// byte-identically with SetState — the property the engine's
// Snapshot/Restore machinery needs for every RNG that influences
// scheduling decisions.
type Source struct{ state uint64 }

// NewSource returns a Source seeded deterministically from seed.
func NewSource(seed int64) *Source { return &Source{state: uint64(seed)} }

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// State returns the current stream position for checkpointing.
func (s *Source) State() uint64 { return s.state }

// SetState resumes the source at a position captured with State.
func (s *Source) SetState(state uint64) { s.state = state }

// NewRand returns a deterministic random source for the given seed.
// Every stochastic component of the module takes a *rand.Rand so that
// experiments are exactly reproducible. The underlying Source is
// checkpointable; callers that need to snapshot mid-stream keep their
// own *Source and wrap it with rand.New themselves.
func NewRand(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }

// NewStreamRand returns the stream-th deterministic substream of the
// seed: every stream is a pure function of (seed, stream) — independent
// of how many streams exist or which goroutine draws from them.
// Parallel samplers give each logical sample its own stream and stay
// byte-identical for any worker count. The seed is avalanched before
// the stream index is added, so colliding streams across two seeds
// would need the seeds' SplitMix64 images to differ by exactly the
// stream offset — unlike a linear seed+c·stream mix, where seeds a
// fixed constant apart share shifted stream sequences.
func NewStreamRand(seed, stream int64) *rand.Rand {
	return rand.New(NewSource(int64(splitmix64(splitmix64(uint64(seed)) + uint64(stream)))))
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood): a
// bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Summary accumulates a stream of observations with Welford's online
// algorithm. The zero value is an empty summary.
type Summary struct {
	N    int
	Mean float64
	m2   float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.N++
	delta := x - s.Mean
	s.Mean += delta / float64(s.N)
	s.m2 += delta * (x - s.Mean)
}

// Std returns the sample standard deviation (n−1 denominator), or 0 for
// fewer than two observations.
func (s *Summary) Std() float64 {
	if s.N < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.N-1))
}

// LogNormal draws exp(N(mu, sigma²)).
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64()*sigma + mu)
}

// Exponential draws an exponential variate with the given mean.
func Exponential(r *rand.Rand, mean float64) float64 {
	return r.ExpFloat64() * mean
}

// Geometric draws a geometric variate with the given mean, always >= 1
// (number of trials up to and including the first success).
func Geometric(r *rand.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for r.Float64() > p && n < 1<<20 {
		n++
	}
	return n
}

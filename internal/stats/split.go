package stats

import (
	"fmt"
	"math"
)

// ZipfWeights returns n weights proportional to 1/i^exp for i = 1..n,
// normalized to sum to 1. exp = 0 yields the uniform distribution.
func ZipfWeights(n int, exp float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), exp)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Apportion splits total indivisible items into len(weights) parts
// proportional to the weights using the largest-remainder method, giving
// every part with positive weight at least one item when total allows
// (total >= number of positive-weight parts). The result always sums to
// total.
func Apportion(total int, weights []float64) []int {
	n := len(weights)
	out := make([]int, n)
	if n == 0 || total <= 0 {
		return out
	}
	var wsum float64
	positive := 0
	for _, w := range weights {
		if w > 0 {
			wsum += w
			positive++
		}
	}
	if wsum == 0 {
		// Degenerate: spread uniformly.
		for i := range out {
			out[i] = total / n
			if i < total%n {
				out[i]++
			}
		}
		return out
	}
	// Reserve one item per positive-weight part if possible.
	reserve := 0
	if total >= positive {
		reserve = 1
	}
	remaining := total - reserve*positive
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, 0, n)
	assigned := 0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		exact := float64(remaining) * w / wsum
		fl := int(exact)
		out[i] = reserve + fl
		assigned += fl
		fracs = append(fracs, frac{i, exact - float64(fl)})
	}
	// Distribute the leftover to the largest remainders (stable on ties).
	left := remaining - assigned
	for left > 0 {
		best := -1
		for j, f := range fracs {
			if best == -1 || f.rem > fracs[best].rem {
				best = j
			}
		}
		out[fracs[best].idx]++
		fracs[best].rem = -1
		left--
	}
	return out
}

// ZipfSplit apportions total items across n parts with Zipf(exp) weights.
func ZipfSplit(total, n int, exp float64) []int {
	return Apportion(total, ZipfWeights(n, exp))
}

// UniformSplit apportions total items across n near-equal parts.
func UniformSplit(total, n int) []int {
	return Apportion(total, ZipfWeights(n, 0))
}

// SplitByName apportions total items across n parts by the named
// machine split: "zipf" (exponent 1) or "uniform".
func SplitByName(name string, total, n int) ([]int, error) {
	switch name {
	case "zipf":
		return ZipfSplit(total, n, 1), nil
	case "uniform":
		return UniformSplit(total, n), nil
	}
	return nil, fmt.Errorf("unknown machine split %q (want zipf or uniform)", name)
}

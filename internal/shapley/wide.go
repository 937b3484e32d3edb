package shapley

import (
	"math"
	"math/bits"

	"repro/internal/model"
)

// wide is a 128-bit two's-complement signed integer in two words — the
// accumulator Contrib keeps its scaled potentials in. It has exactly
// the operations the potential recurrence needs.
type wide struct {
	hi, lo uint64
}

// mulWide returns a·b for b > 0.
func mulWide(a, b int64) wide {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b) // uint64(a) read a as a + 2^64
	}
	return wide{hi, lo}
}

func (a wide) add(b wide) wide {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return wide{hi, lo}
}

func (a wide) sub(b wide) wide {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return wide{hi, lo}
}

func (a wide) neg() wide { return wide{}.sub(a) }

func (a wide) negative() bool { return int64(a.hi) < 0 }

// mulLow returns a·b mod 2^128.
func (a wide) mulLow(b wide) wide {
	hi, lo := bits.Mul64(a.lo, b.lo)
	return wide{hi + a.lo*b.hi + a.hi*b.lo, lo}
}

// divisor is d = odd·2^shift prepared for exact division: inv is odd's
// inverse mod 2^128.
type divisor struct {
	shift uint
	inv   wide
}

// divisors[d] serves d = 1..model.MaxOrgs, the coalition sizes.
var divisors = func() (tab [model.MaxOrgs + 1]divisor) {
	for d := 1; d < len(tab); d++ {
		shift := uint(bits.TrailingZeros(uint(d)))
		odd := wide{lo: uint64(d) >> shift}
		// Newton's iteration doubles the correct low bits; odd is its own
		// inverse mod 8.
		inv := odd
		for correct := 3; correct < 128; correct *= 2 {
			inv = inv.mulLow(wide{lo: 2}.sub(odd.mulLow(inv)))
		}
		tab[d] = divisor{shift, inv}
	}
	return tab
}()

// divExact returns a/d for a divisor d of a: shifting out d's factors
// of two and multiplying by its odd part's inverse mod 2^128 is the
// quotient when the division leaves no remainder, at the price of one
// widening multiply and no hardware division.
func (a wide) divExact(d divisor) wide {
	lo := a.lo>>d.shift | a.hi<<(64-d.shift)
	hi := uint64(int64(a.hi) >> d.shift)
	return wide{hi, lo}.mulLow(d.inv)
}

// float64 returns the float64 nearest to a (ties to even): the top 64
// significant bits, with everything shifted out folded into a sticky
// low bit, take the hardware's one correct rounding, and the scale by a
// power of two is exact.
func (a wide) float64() float64 {
	sign := 1.0
	if a.negative() {
		a, sign = a.neg(), -1
	}
	if a.hi == 0 {
		return sign * float64(a.lo)
	}
	up := uint(bits.LeadingZeros64(a.hi))
	top := a.hi<<up | a.lo>>(64-up)
	if a.lo<<up != 0 {
		top |= 1
	}
	return sign * float64(top) * math.Float64frombits(uint64(1023+64-up)<<52)
}

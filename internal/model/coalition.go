package model

import (
	"math/bits"
	"strconv"
	"strings"
)

// MaxOrgs bounds the number of organizations so that coalitions fit a
// 32-bit mask. The exponential algorithms are practical for far fewer
// organizations anyway (the paper evaluates 2–10).
const MaxOrgs = 30

// Coalition is a set of organizations encoded as a bitmask: bit i set
// means organization i participates. The zero value is the empty
// coalition.
type Coalition uint32

// Grand returns the coalition of organizations 0..k-1.
func Grand(k int) Coalition {
	if k < 0 || k > MaxOrgs {
		panic("model: organization count out of range")
	}
	return Coalition(1)<<uint(k) - 1
}

// Singleton returns the one-member coalition {i}.
func Singleton(i int) Coalition { return Coalition(1) << uint(i) }

// Has reports whether organization i is a member.
func (c Coalition) Has(i int) bool { return c&Singleton(i) != 0 }

// With returns c ∪ {i}.
func (c Coalition) With(i int) Coalition { return c | Singleton(i) }

// Without returns c \ {i}.
func (c Coalition) Without(i int) Coalition { return c &^ Singleton(i) }

// SubsetOf reports whether c ⊆ d.
func (c Coalition) SubsetOf(d Coalition) bool { return c&^d == 0 }

// Empty reports whether the coalition has no members.
func (c Coalition) Empty() bool { return c == 0 }

// Size returns the number of members ‖c‖.
func (c Coalition) Size() int { return bits.OnesCount32(uint32(c)) }

// Members returns the member indices in increasing order.
func (c Coalition) Members() []int {
	out := make([]int, 0, c.Size())
	for m := c; m != 0; {
		i := bits.TrailingZeros32(uint32(m))
		out = append(out, i)
		m &= m - 1
	}
	return out
}

// EachMember calls f for every member in increasing order.
func (c Coalition) EachMember(f func(i int)) {
	for m := c; m != 0; {
		f(bits.TrailingZeros32(uint32(m)))
		m &= m - 1
	}
}

// String renders the coalition as "{0,2,5}".
func (c Coalition) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	c.EachMember(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}

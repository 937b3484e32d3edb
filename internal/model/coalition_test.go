package model

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestGrand(t *testing.T) {
	for k := 0; k <= 10; k++ {
		g := Grand(k)
		if g.Size() != k {
			t.Errorf("Grand(%d).Size() = %d", k, g.Size())
		}
		for i := 0; i < k; i++ {
			if !g.Has(i) {
				t.Errorf("Grand(%d) missing member %d", k, i)
			}
		}
		if g.Has(k) {
			t.Errorf("Grand(%d) contains %d", k, k)
		}
	}
}

func TestGrandPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Grand(31) did not panic")
		}
	}()
	Grand(MaxOrgs + 1)
}

func TestWithWithout(t *testing.T) {
	var c Coalition
	c = c.With(3).With(5).With(3)
	if got := c.Members(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Members() = %v, want [3 5]", got)
	}
	c = c.Without(3)
	if c.Has(3) || !c.Has(5) {
		t.Fatalf("after Without(3): %v", c)
	}
	if c.Without(3) != c {
		t.Fatal("Without of absent member changed the coalition")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Singleton(0).With(2)
	b := Singleton(2).With(4)
	if both := a & b; !both.SubsetOf(a) || !both.SubsetOf(b) {
		t.Error("intersection not a subset of operands")
	}
	if a.SubsetOf(b) {
		t.Error("a should not be subset of b")
	}
	if !Coalition(0).SubsetOf(a) || !Coalition(0).Empty() {
		t.Error("empty coalition misbehaves")
	}
}

func TestEachSubsetCount(t *testing.T) {
	c := Grand(5)
	n := 0
	c.EachSubset(func(Coalition) { n++ })
	if n != 32 {
		t.Fatalf("EachSubset visited %d subsets, want 32", n)
	}
}

func TestEachSubsetIsSubset(t *testing.T) {
	f := func(raw uint32) bool {
		c := Coalition(raw & 0x3FF) // keep it small
		ok := true
		seen := map[Coalition]bool{}
		c.EachSubset(func(sub Coalition) {
			if !sub.SubsetOf(c) || seen[sub] {
				ok = false
			}
			seen[sub] = true
		})
		return ok && len(seen) == 1<<uint(c.Size())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMembersMatchesSize(t *testing.T) {
	f := func(raw uint32) bool {
		c := Coalition(raw) & Grand(MaxOrgs)
		members := c.Members()
		if len(members) != c.Size() || c.Size() != bits.OnesCount32(uint32(c)) {
			return false
		}
		rebuilt := Coalition(0)
		for _, i := range members {
			rebuilt = rebuilt.With(i)
		}
		return rebuilt == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if got := Coalition(0).String(); got != "{}" {
		t.Errorf("empty = %q", got)
	}
	if got := Singleton(7).String(); got != "{7}" {
		t.Errorf("singleton = %q", got)
	}
}

// EachSubset calls f for every subset of c, including the empty coalition
// and c itself. The enumeration order is decreasing as masks.
func (c Coalition) EachSubset(f func(sub Coalition)) {
	sub := c
	for {
		f(sub)
		if sub == 0 {
			return
		}
		sub = (sub - 1) & c
	}
}

package main

import "testing"

func bruteHasSubsetSum(S []int64, x int64) bool {
	for mask := 0; mask < 1<<uint(len(S)); mask++ {
		var sum int64
		for i := range S {
			if mask&(1<<uint(i)) != 0 {
				sum += S[i]
			}
		}
		if sum == x {
			return true
		}
	}
	return false
}

func TestCountOrderings(t *testing.T) {
	// S = {1,2}, k+2 = 4 players. Subsets with sum < 2: {} and {1} →
	// n = (0+1)!·2! + (1+1)!·1! = 2 + 2 = 4.
	if got := CountOrderings([]int64{1, 2}, 2); got != 4 {
		t.Errorf("CountOrderings({1,2},2) = %d, want 4", got)
	}
	// Sum < 1: only {} → 1!·2! = 2.
	if got := CountOrderings([]int64{1, 2}, 1); got != 2 {
		t.Errorf("CountOrderings({1,2},1) = %d, want 2", got)
	}
	// Sum < 4: all four subsets → 2 + 2 + 2 + 3!·0! = 12... check:
	// {}:1!2!=2, {1}:2!1!=2, {2}:2!1!=2, {1,2}:3!0!=6 → 12.
	if got := CountOrderings([]int64{1, 2}, 4); got != 12 {
		t.Errorf("CountOrderings({1,2},4) = %d, want 12", got)
	}
}

// The Theorem 5.1 decoding: REF's exact φ(a) on the reduction instance
// recovers the brute-force ordering count. This is the executable form
// of the NP-hardness argument.
func TestHardnessRecoverCount(t *testing.T) {
	if testing.Short() {
		t.Skip("reduction instances have L-sized jobs; skip in -short")
	}
	cases := []struct {
		S []int64
		x int64
	}{
		{[]int64{1, 2}, 2},
		{[]int64{1, 2}, 3},
		{[]int64{2, 3}, 4},
	}
	for _, c := range cases {
		red := NewSubsetSumReduction(c.S, c.x)
		want := CountOrderings(c.S, c.x)
		if got := red.RecoverCount(); got != want {
			t.Errorf("S=%v x=%d: recovered %d orderings, brute force %d", c.S, c.x, got, want)
		}
	}
}

func TestHardnessSubsetSumAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("reduction instances have L-sized jobs; skip in -short")
	}
	cases := []struct {
		S []int64
		x int64
	}{
		{[]int64{1, 2}, 3},    // yes: 1+2
		{[]int64{1, 2}, 4},    // no
		{[]int64{2, 3}, 5},    // yes
		{[]int64{2, 4}, 3},    // no
		{[]int64{1, 3, 4}, 8}, // yes: 1+3+4
	}
	for _, c := range cases {
		want := bruteHasSubsetSum(c.S, c.x)
		if got := HasSubsetSum(c.S, c.x); got != want {
			t.Errorf("HasSubsetSum(%v, %d) = %v, want %v", c.S, c.x, got, want)
		}
	}
}

package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// swapHeap is the completion heap as a textbook binary heap that sifts
// by swapping neighbours: the reference runHeap's hole sifts must leave
// the same array, entry for entry, since ClusterState.Running stores
// the heap in array order.
type swapHeap []runEntry

func (h swapHeap) less(i, j int) bool {
	if h[i].End != h[j].End {
		return h[i].End < h[j].End
	}
	return h[i].Machine < h[j].Machine
}

func (h *swapHeap) push(e runEntry) {
	*h = append(*h, e)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *swapHeap) pop() runEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// Random push/pop sequences on pools of 1 to 40 machines, every entry
// on a machine no other holds (as in a cluster) and ends drawn from a
// few values so that most comparisons are ties broken by machine: after
// every operation runHeap's array equals swapHeap's, and both pop the
// same entry.
func TestRunHeapMatchesSwapSift(t *testing.T) {
	r := rand.New(rand.NewSource(3800))
	for round := 0; round < 400; round++ {
		machines := 1 + r.Intn(40)
		ends := 1 + r.Intn(4)
		idle := make([]int32, machines)
		for m := range idle {
			idle[m] = int32(m)
		}
		var got runHeap
		var want swapHeap
		for op := 0; op < 300; op++ {
			if len(idle) > 0 && (len(got) == 0 || r.Intn(3) > 0) {
				i := r.Intn(len(idle))
				m := idle[i]
				idle = slices.Delete(idle, i, i+1)
				e := runEntry{End: model.Time(r.Intn(ends)), Start: model.Time(op), Job: int32(op), Machine: m}
				got.push(e)
				want.push(e)
			} else {
				g, w := got.pop(), want.pop()
				if g != w {
					t.Fatalf("round %d op %d: popped %+v, swap sift popped %+v", round, op, g, w)
				}
				idle = append(idle, g.Machine)
			}
			if !slices.Equal(got, runHeap(want)) {
				t.Fatalf("round %d op %d: heap array\n%v\nswap sift leaves\n%v", round, op, got, want)
			}
		}
	}
}

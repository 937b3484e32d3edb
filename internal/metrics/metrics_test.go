package metrics

import "testing"

func TestDeltaPsi(t *testing.T) {
	if got := DeltaPsi([]int64{5, 3, 7}, []int64{3, 3, 10}); got != 5 {
		t.Errorf("DeltaPsi = %d, want 5", got)
	}
	if got := DeltaPsi(nil, nil); got != 0 {
		t.Errorf("empty DeltaPsi = %d", got)
	}
}

func TestDeltaPsiPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths accepted")
		}
	}()
	DeltaPsi([]int64{1}, []int64{1, 2})
}

func TestUnfairnessPerUnit(t *testing.T) {
	if got := UnfairnessPerUnit([]int64{5, 3}, []int64{3, 3}, 4); got != 0.5 {
		t.Errorf("UnfairnessPerUnit = %v", got)
	}
	if got := UnfairnessPerUnit([]int64{5}, []int64{3}, 0); got != 0 {
		t.Errorf("ptot=0 should yield 0, got %v", got)
	}
}

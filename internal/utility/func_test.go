package utility

import (
	"testing"

	"repro/internal/model"
)

func TestAddScaledWindowEdges(t *testing.T) {
	// q=1 delegates to the plain window.
	var a, b Account
	a.AddScaledWindow(2, 5, 1, 2, 7)
	b.AddWindow(2, 7)
	if a != b {
		t.Fatalf("q=1 scaled window %+v != plain %+v", a, b)
	}
	// Empty window records nothing.
	var c Account
	c.AddScaledWindow(0, 10, 3, 4, 4)
	if c != (Account{}) {
		t.Fatalf("empty scaled window recorded %+v", c)
	}
	// Exactly divisible sizes: the last slot carries a full q units.
	var d Account
	d.AddScaledWindow(0, 6, 3, 0, 2)
	if d.U != 6 || d.S != 3*0+3*1 {
		t.Fatalf("divisible case = %+v", d)
	}
	// Remainder case: 7 units at speed 3 → slots carry 3, 3, 1.
	var e Account
	e.AddScaledWindow(0, 7, 3, 0, 3)
	if e.U != 7 || e.S != 0+3+2 {
		t.Fatalf("remainder case = %+v", e)
	}
	// Evaluation matches the per-unit definition.
	var eval model.Time = 10
	if got := e.PsiAt(eval); got != 3*10+3*9+1*8 {
		t.Fatalf("ψ = %d", got)
	}
}

package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

const sampleSWF = `; Version: 2.2
; Computer: Test Cluster
; MaxProcs: 8

1 0 5 100 1 -1 -1 1 -1 -1 1 10 1 -1 -1 -1 -1 -1
2 30 0 50 2 -1 -1 2 -1 -1 1 11 1 -1 -1 -1 -1 -1
3 60 0 -1 1 -1 -1 1 -1 -1 0 10 1 -1 -1 -1 -1 -1
4 10 0 70 -1 -1 -1 3 -1 -1 1 12 1 -1 -1 -1 -1 -1
`

func parseSample(t *testing.T) *Trace {
	t.Helper()
	tr, skipped, err := ParseSWF(strings.NewReader(sampleSWF))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the failed job)", skipped)
	}
	return tr
}

func TestParseSWF(t *testing.T) {
	tr := parseSample(t)
	if len(tr.Header) != 3 {
		t.Errorf("header lines = %d", len(tr.Header))
	}
	if len(tr.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(tr.Jobs))
	}
	// Jobs must come out sorted by submit: 1 (0), 4 (10), 2 (30).
	if tr.Jobs[0].ID != 1 || tr.Jobs[1].ID != 4 || tr.Jobs[2].ID != 2 {
		t.Fatalf("job order: %+v", tr.Jobs)
	}
	// Job 4 had allocated=-1: requested (3) must be used.
	if tr.Jobs[1].Procs != 3 {
		t.Errorf("job 4 procs = %d, want 3 (requested fallback)", tr.Jobs[1].Procs)
	}
	if tr.Jobs[2].Procs != 2 || tr.Jobs[2].User != 11 {
		t.Errorf("job 2 parsed wrong: %+v", tr.Jobs[2])
	}
}

func TestParseSWFErrors(t *testing.T) {
	if _, _, err := ParseSWF(strings.NewReader("1 2 3\n")); err == nil {
		t.Error("short line accepted")
	}
	if _, _, err := ParseSWF(strings.NewReader("a b c d e f g h i j k l\n")); err == nil {
		t.Error("non-numeric line accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := parseSample(t)
	var buf bytes.Buffer
	if err := tr.WriteSWF(&buf); err != nil {
		t.Fatal(err)
	}
	back, skipped, err := ParseSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("round-trip skipped %d jobs", skipped)
	}
	if len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("round-trip job count %d != %d", len(back.Jobs), len(tr.Jobs))
	}
	for i := range back.Jobs {
		a, b := tr.Jobs[i], back.Jobs[i]
		if a.Submit != b.Submit || a.Runtime != b.Runtime || a.Procs != b.Procs || a.User != b.User {
			t.Fatalf("job %d changed: %+v vs %+v", i, a, b)
		}
	}
}

func TestUsersAndAggregates(t *testing.T) {
	tr := parseSample(t)
	users := tr.Users()
	if len(users) != 3 || users[0] != 10 || users[1] != 11 || users[2] != 12 {
		t.Fatalf("users = %v", users)
	}
	if got := tr.TotalWork(); got != 100+50*2+70*3 {
		t.Errorf("TotalWork = %d", got)
	}
}

func TestSequentialize(t *testing.T) {
	tr := parseSample(t)
	seq := tr.Sequentialize()
	if len(seq.Jobs) != 1+3+2 {
		t.Fatalf("sequentialized jobs = %d, want 6", len(seq.Jobs))
	}
	for _, j := range seq.Jobs {
		if j.Procs != 1 {
			t.Fatalf("job still parallel: %+v", j)
		}
	}
	if seq.TotalWork() != tr.TotalWork() {
		t.Errorf("work changed: %d vs %d", seq.TotalWork(), tr.TotalWork())
	}
}

func TestWindow(t *testing.T) {
	tr := parseSample(t)
	w := tr.Window(5, 35)
	if len(w.Jobs) != 2 {
		t.Fatalf("window jobs = %d", len(w.Jobs))
	}
	if w.Jobs[0].Submit != 5 || w.Jobs[1].Submit != 25 {
		t.Fatalf("window not shifted: %+v", w.Jobs)
	}
}

func TestAssignUsersBalancedAndDeterministic(t *testing.T) {
	users := make([]int, 20)
	for i := range users {
		users[i] = 100 + i
	}
	a := AssignUsers(users, 4, stats.NewRand(1))
	b := AssignUsers(users, 4, stats.NewRand(1))
	counts := map[int]int{}
	for u, org := range a {
		if b[u] != org {
			t.Fatal("assignment not deterministic")
		}
		counts[org]++
	}
	for org := 0; org < 4; org++ {
		if counts[org] != 5 {
			t.Fatalf("org %d has %d users, want 5 (%v)", org, counts[org], counts)
		}
	}
}

func TestToInstance(t *testing.T) {
	tr := parseSample(t).Sequentialize()
	orgOf := map[int]int{10: 0, 11: 1, 12: 0}
	in, err := ToInstance(tr, []int{2, 1}, orgOf)
	if err != nil {
		t.Fatal(err)
	}
	if in.TotalMachines() != 3 || len(in.Jobs) != 6 {
		t.Fatalf("instance: %d machines, %d jobs", in.TotalMachines(), len(in.Jobs))
	}
	if int64(in.TotalWork()) != tr.TotalWork() {
		t.Errorf("work mismatch")
	}
	// Parallel trace must be rejected.
	if _, err := ToInstance(parseSample(t), []int{2, 1}, orgOf); err == nil {
		t.Error("parallel trace accepted")
	}
	// Unknown user must be rejected.
	if _, err := ToInstance(tr, []int{2, 1}, map[int]int{10: 0}); err == nil {
		t.Error("unknown user accepted")
	}
}

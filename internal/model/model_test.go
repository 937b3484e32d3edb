package model

import (
	"strings"
	"testing"
)

func twoOrgs() []Org {
	return []Org{{Name: "A", Machines: 2}, {Name: "B", Machines: 1}}
}

func TestNewInstanceSortsAndNumbers(t *testing.T) {
	in, err := NewInstance(twoOrgs(), []Job{
		{Org: 0, Release: 5, Size: 2},
		{Org: 1, Release: 0, Size: 3},
		{Org: 0, Release: 5, Size: 7}, // same release as first: must stay after it
		{Org: 0, Release: 1, Size: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rel []Time
	for _, j := range in.Jobs {
		rel = append(rel, j.Release)
	}
	want := []Time{0, 1, 5, 5}
	for i := range want {
		if rel[i] != want[i] {
			t.Fatalf("releases = %v, want %v", rel, want)
		}
	}
	// FIFO within org 0: sizes must appear 1, 2, 7.
	var sizes []Time
	for _, j := range in.Jobs {
		if j.Org == 0 {
			sizes = append(sizes, j.Size)
		}
	}
	if sizes[0] != 1 || sizes[1] != 2 || sizes[2] != 7 {
		t.Fatalf("org 0 FIFO order of sizes = %v", sizes)
	}
	for i, j := range in.Jobs {
		if j.ID != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		in   Instance
		want string
	}{
		{"no orgs", Instance{}, "no organizations"},
		{"no machines", Instance{Orgs: []Org{{Machines: 0}}}, "no machines"},
		{"negative machines", Instance{Orgs: []Org{{Machines: -1}}}, "negative machine"},
		{"bad org ref", Instance{
			Orgs: []Org{{Machines: 1}},
			Jobs: []Job{{ID: 0, Org: 3, Size: 1}},
		}, "unknown organization"},
		{"zero size", Instance{
			Orgs: []Org{{Machines: 1}},
			Jobs: []Job{{ID: 0, Org: 0, Size: 0}},
		}, "size"},
		{"negative release", Instance{
			Orgs: []Org{{Machines: 1}},
			Jobs: []Job{{ID: 0, Org: 0, Release: -1, Size: 1}},
		}, "negative release"},
		{"unsorted", Instance{
			Orgs: []Org{{Machines: 1}},
			Jobs: []Job{{ID: 0, Org: 0, Release: 5, Size: 1}, {ID: 1, Org: 0, Release: 2, Size: 1}},
		}, "not sorted"},
		{"bad ids", Instance{
			Orgs: []Org{{Machines: 1}},
			Jobs: []Job{{ID: 4, Org: 0, Size: 1}},
		}, "IDs must equal positions"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.in.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}
}

func TestAggregates(t *testing.T) {
	in := MustNewInstance(twoOrgs(), []Job{
		{Org: 0, Release: 0, Size: 4},
		{Org: 1, Release: 2, Size: 6},
		{Org: 0, Release: 9, Size: 1},
	})
	if got := in.TotalMachines(); got != 3 {
		t.Errorf("TotalMachines = %d", got)
	}
	if got := in.TotalWork(); got != 11 {
		t.Errorf("TotalWork = %d", got)
	}
	if got := in.MaxRelease(); got != 9 {
		t.Errorf("MaxRelease = %d", got)
	}
	if got := in.Horizon(); got != 20 {
		t.Errorf("Horizon = %d", got)
	}
	if got := in.Grand(); got != Grand(2) {
		t.Errorf("Grand = %v", got)
	}
}

func TestRestrict(t *testing.T) {
	in := MustNewInstance(twoOrgs(), []Job{
		{Org: 0, Release: 0, Size: 4},
		{Org: 1, Release: 2, Size: 6},
		{Org: 0, Release: 9, Size: 1},
	})
	sub := in.Restrict(Singleton(1))
	if sub.TotalMachines() != 1 {
		t.Errorf("restricted machines = %d", sub.TotalMachines())
	}
	if len(sub.Jobs) != 1 || sub.Jobs[0].Org != 1 {
		t.Errorf("restricted jobs = %+v", sub.Jobs)
	}
	if len(sub.Orgs) != 2 {
		t.Errorf("restriction must preserve org indexing, got %d orgs", len(sub.Orgs))
	}
	// Original untouched.
	if in.TotalMachines() != 3 || len(in.Jobs) != 3 {
		t.Error("Restrict mutated the source instance")
	}
}

func TestClone(t *testing.T) {
	in := MustNewInstance(twoOrgs(), []Job{{Org: 0, Release: 0, Size: 4}})
	cp := in.Clone()
	cp.Orgs[0].Machines = 99
	cp.Jobs[0].Size = 99
	if in.Orgs[0].Machines == 99 || in.Jobs[0].Size == 99 {
		t.Fatal("Clone shares memory with source")
	}
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Orgs: append([]Org(nil), in.Orgs...),
		Jobs: append([]Job(nil), in.Jobs...),
	}
	for i := range out.Orgs {
		out.Orgs[i].Speeds = append([]int(nil), in.Orgs[i].Speeds...)
	}
	return out
}

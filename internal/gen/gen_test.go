package gen

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

func TestGenerateLoadCalibration(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			horizon := model.Time(50000)
			var got float64
			const runs = 3
			for seed := int64(0); seed < runs; seed++ {
				tr := f.Generate(horizon, stats.NewRand(seed))
				got += float64(tr.TotalWork()) / (float64(f.Procs) * float64(horizon)) / runs
			}
			// Clipping and burst truncation push realized load a bit off
			// target; the regime (lightly loaded vs saturated) must hold.
			if got < f.Load*0.6 || got > f.Load*1.6 {
				t.Fatalf("realized load %.3f too far from target %.3f", got, f.Load)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	f := LPCEGEE()
	a := f.Generate(10000, stats.NewRand(5))
	b := f.Generate(10000, stats.NewRand(5))
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs", i)
		}
	}
}

func TestGenerateWithinHorizon(t *testing.T) {
	f := RICC()
	horizon := model.Time(20000)
	tr := f.Generate(horizon, stats.NewRand(9))
	for _, j := range tr.Jobs {
		if j.Submit < 0 || j.Submit >= horizon {
			t.Fatalf("job submitted at %d outside [0,%d)", j.Submit, horizon)
		}
		if j.Runtime < 1 {
			t.Fatalf("job runtime %d", j.Runtime)
		}
		if j.Procs != 1 {
			t.Fatalf("generator must emit sequential jobs")
		}
	}
	users := tr.Users()
	if len(users) < f.Users/2 {
		t.Fatalf("only %d of %d users submitted", len(users), f.Users)
	}
}

func TestSizeDistClipping(t *testing.T) {
	d := SizeDist{Mu: math.Log(100), Sigma: 2, Min: 5, Max: 500}
	rng := stats.NewRand(3)
	for i := 0; i < 5000; i++ {
		s := d.Draw(rng)
		if s < 5 || s > 500 {
			t.Fatalf("size %d outside clip range", s)
		}
	}
	if m := d.Mean(); math.Abs(m-100*math.Exp(2)) > 1e-9 {
		t.Errorf("Mean = %v", m)
	}
}

func TestInstancePipeline(t *testing.T) {
	f := LPCEGEE()
	k := 5
	machines := stats.ZipfSplit(f.Procs, k, 1)
	in, err := f.Instance(5000, k, machines, stats.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	if in.TotalMachines() != f.Procs {
		t.Fatalf("machines = %d", in.TotalMachines())
	}
	if len(in.Orgs) != k {
		t.Fatalf("orgs = %d", len(in.Orgs))
	}
	if len(in.Jobs) == 0 {
		t.Fatal("no jobs generated")
	}
	// Every org should own some jobs with 56 users over 5 orgs.
	perOrg := make([]int, k)
	for _, j := range in.Jobs {
		perOrg[j.Org]++
	}
	for org, n := range perOrg {
		if n == 0 {
			t.Fatalf("org %d has no jobs: %v", org, perOrg)
		}
	}
}

func TestScale(t *testing.T) {
	f := RICC()
	s := f.Scale(0.5)
	if s.Procs != 128 || s.Users != 88 {
		t.Fatalf("Scale(0.5): %d procs, %d users", s.Procs, s.Users)
	}
	if s.Load != f.Load || s.Size != f.Size {
		t.Fatal("Scale must preserve load and sizes")
	}
	tiny := f.Scale(0.0001)
	if tiny.Procs < 1 || tiny.Users < 1 {
		t.Fatal("Scale must keep at least one proc and user")
	}
}

func TestFullScaleFactor(t *testing.T) {
	for _, f := range Families() {
		full := f.Scale(FullScaleFactor(f))
		switch f.Name {
		case "LPC-EGEE":
			if full.Procs != 70 {
				t.Errorf("LPC full = %d", full.Procs)
			}
		case "PIK-IPLEX":
			if full.Procs != 2560 {
				t.Errorf("PIK full = %d", full.Procs)
			}
		case "SHARCNET-Whale":
			if full.Procs != 3072 {
				t.Errorf("SHARCNET full = %d", full.Procs)
			}
		case "RICC":
			if full.Procs != 8192 {
				t.Errorf("RICC full = %d", full.Procs)
			}
		}
	}
}

func TestFamilyByName(t *testing.T) {
	cases := map[string]string{
		"lpc-egee":       "LPC-EGEE",
		"LPC EGEE":       "LPC-EGEE",
		"lpc":            "LPC-EGEE",
		"pik_iplex":      "PIK-IPLEX",
		"pik":            "PIK-IPLEX",
		"sharcnet-whale": "SHARCNET-Whale",
		"whale":          "SHARCNET-Whale",
		"ricc":           "RICC",
	}
	for in, want := range cases {
		f, err := FamilyByName(in)
		if err != nil {
			t.Errorf("FamilyByName(%q): %v", in, err)
			continue
		}
		if f.Name != want {
			t.Errorf("FamilyByName(%q) = %s, want %s", in, f.Name, want)
		}
	}
	if _, err := FamilyByName("kraken"); err == nil {
		t.Error("unknown family accepted")
	}
}

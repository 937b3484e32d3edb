package exp

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestAlgorithmByName(t *testing.T) {
	_, unknown := AlgorithmByName("nope", 15, core.RefOptions{}, core.RandOptions{})
	if unknown == nil || !strings.Contains(unknown.Error(), "unknown algorithm") {
		t.Fatalf("unknown algorithm accepted: %v", unknown)
	}
	// One spelling per algorithm, matched case-insensitively, and the
	// error's "want" list is the whole table.
	for _, n := range []string{"ref", "rand", "directcontr", "nbs", "fairshare",
		"utfairshare", "currfairshare", "roundrobin", "fcfs"} {
		for _, spelled := range []string{n, strings.ToUpper(n)} {
			alg, err := AlgorithmByName(spelled, 15, core.RefOptions{}, core.RandOptions{})
			if err != nil {
				t.Errorf("AlgorithmByName(%q): %v", spelled, err)
			} else if !strings.EqualFold(strings.SplitN(alg.Name(), "(", 2)[0], n) {
				t.Errorf("%q resolved to %q", spelled, alg.Name())
			}
		}
		if !regexp.MustCompile(`[( ]` + n + `[,) ]`).MatchString(unknown.Error()) {
			t.Errorf("error does not offer %q: %v", n, unknown)
		}
	}
	for _, alias := range []string{"direct", "rr"} {
		if _, err := AlgorithmByName(alias, 15, core.RefOptions{}, core.RandOptions{}); err == nil {
			t.Errorf("retired alias %q still resolves", alias)
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
		f, err := gen.FamilyByName(in)
		if err != nil {
			t.Errorf("FamilyByName(%q): %v", in, err)
			continue
		}
		if f.Name != want {
			t.Errorf("FamilyByName(%q) = %s, want %s", in, f.Name, want)
		}
	}
	if _, err := gen.FamilyByName("kraken"); err == nil {
		t.Error("unknown family accepted")
	}
}

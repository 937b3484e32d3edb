package core

import (
	"regexp"
	"strings"
	"testing"
)

func TestAlgorithmByName(t *testing.T) {
	_, unknown := AlgorithmByName("nope", 15, RefOptions{}, RandOptions{})
	if unknown == nil || !strings.Contains(unknown.Error(), "unknown algorithm") {
		t.Fatalf("unknown algorithm accepted: %v", unknown)
	}
	// One spelling per algorithm, matched case-insensitively, and the
	// error's "want" list is the whole table.
	for _, n := range []string{"ref", "rand", "directcontr", "nbs", "fairshare",
		"utfairshare", "currfairshare", "roundrobin", "fcfs"} {
		mixed := strings.ToUpper(n[:1]) + n[1:len(n)-1] + strings.ToUpper(n[len(n)-1:])
		for _, spelled := range []string{n, strings.ToUpper(n), mixed} {
			alg, err := AlgorithmByName(spelled, 15, RefOptions{}, RandOptions{})
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
		if _, err := AlgorithmByName(alias, 15, RefOptions{}, RandOptions{}); err == nil {
			t.Errorf("retired alias %q still resolves", alias)
		}
	}
	// RAND without a sampled permutation is an error, not a panic at
	// construction; the other algorithms ignore the sample count.
	for _, samples := range []int{0, -3} {
		if _, err := AlgorithmByName("Rand", samples, RefOptions{}, RandOptions{}); err == nil || !strings.Contains(err.Error(), "at least one sampled permutation") {
			t.Errorf("rand with %d samples: err = %v", samples, err)
		}
		if _, err := AlgorithmByName("ref", samples, RefOptions{}, RandOptions{}); err != nil {
			t.Errorf("ref with %d rand samples: %v", samples, err)
		}
	}
}

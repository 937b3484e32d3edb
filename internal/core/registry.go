package core

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/sim"
)

// AlgorithmByName resolves an algorithm name (matched
// case-insensitively), as the command lines and the daemon's session
// configurations spell it. randSamples and randOpts parameterize
// "rand", which needs at least one sampled permutation; refOpts
// parameterizes "ref".
func AlgorithmByName(name string, randSamples int, refOpts RefOptions, randOpts RandOptions) (StepperAlgorithm, error) {
	switch strings.ToLower(name) {
	case "ref":
		return RefAlgorithm{Opts: refOpts}, nil
	case "rand":
		if randSamples < 1 {
			return nil, fmt.Errorf("rand needs at least one sampled permutation, got %d", randSamples)
		}
		return RandAlgorithm{Samples: randSamples, Opts: randOpts}, nil
	case "directcontr":
		return DirectContrAlgorithm(), nil
	case "nbs":
		return NbsAlgorithm{}, nil
	case "fairshare":
		return FromPolicy("FairShare", func() sim.Policy { return baseline.NewFairShare() }), nil
	case "utfairshare":
		return FromPolicy("UtFairShare", func() sim.Policy { return baseline.NewUtFairShare() }), nil
	case "currfairshare":
		return FromPolicy("CurrFairShare", func() sim.Policy { return baseline.NewCurrFairShare() }), nil
	case "roundrobin":
		return FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }), nil
	case "fcfs":
		return FromPolicy("FCFS", func() sim.Policy { return baseline.NewFCFS() }), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want ref, rand, directcontr, nbs, fairshare, utfairshare, currfairshare, roundrobin or fcfs)", name)
	}
}

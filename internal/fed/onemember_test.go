package fed_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fed"
	"repro/internal/model"
)

// oneMemberSeeds is the battery's workload count per algorithm.
const oneMemberSeeds = 200

// oneMemberAlgs is every algorithm name core.AlgorithmByName resolves.
var oneMemberAlgs = []string{"ref", "rand", "directcontr", "nbs", "fairshare", "utfairshare", "currfairshare", "roundrobin", "fcfs"}

// assertOneMemberMatchesSingleCluster runs seeds workloads of every
// algorithm through a 1-member federation under the given policy and
// staleness, and requires each to reproduce a standalone engine of the
// same algorithm on the member's seed, fed every job up front: the same
// decisions and the same Result bytes. With one member there is
// nowhere to route or migrate a job, so the federation must add nothing
// to the single-cluster algorithm.
func assertOneMemberMatchesSingleCluster(t *testing.T, policy fed.Policy, staleness model.Time, seeds int) {
	t.Helper()
	for _, name := range oneMemberAlgs {
		alg, err := core.AlgorithmByName(name, 5, core.RefOptions{}, core.RandOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < int64(seeds); seed++ {
			if err := oneMemberMatches(alg, policy, staleness, seed); err != nil {
				t.Fatalf("%s, staleness %d, %s, seed %d: %v", policy.Name(), staleness, name, seed, err)
			}
		}
	}
}

// oneMemberMatches is one workload of the battery: 2 to 4 organizations
// on up to 2 machines each (at least one in all), and 5 to 39 jobs
// released over [0, 150), sorted by release so that federation sequence
// numbers are the standalone engine's job IDs.
func oneMemberMatches(alg core.StepperAlgorithm, policy fed.Policy, staleness model.Time, seed int64) error {
	const horizon = 300
	r := rand.New(rand.NewSource(seed))
	orgs := make([]string, 2+r.Intn(3))
	machines := make([]int, len(orgs))
	for o := range orgs {
		orgs[o], machines[o] = fmt.Sprintf("o%d", o), r.Intn(3)
	}
	machines[r.Intn(len(machines))]++
	jobs := make([]model.Job, 5+r.Intn(35))
	for i := range jobs {
		jobs[i] = model.Job{Org: r.Intn(len(orgs)), Size: model.Time(1 + r.Intn(9)), Release: model.Time(r.Intn(150))}
	}
	slices.SortStableFunc(jobs, func(a, b model.Job) int { return int(a.Release - b.Release) })

	f, err := fed.New(orgs, []fed.ClusterSpec{{Name: "solo", Alg: alg, Machines: machines}}, policy, seed)
	if err != nil {
		return err
	}
	f.SetStaleness(staleness)
	for _, j := range jobs {
		if _, err := f.Submit(0, j.Org, j.Size, j.Release); err != nil {
			return err
		}
	}
	if _, err := f.Step(horizon); err != nil {
		return err
	}
	if err := f.CheckConservation(); err != nil {
		return err
	}
	if got := f.Ledger().Migrations; got != 0 {
		return fmt.Errorf("1-member federation migrated %d jobs", got)
	}

	orgList := make([]model.Org, len(orgs))
	for o := range orgs {
		orgList[o] = model.Org{Name: orgs[o], Machines: machines[o]}
	}
	inst, err := model.NewInstance(orgList, nil)
	if err != nil {
		return err
	}
	mem := f.Members()[0].Engine()
	eng := engine.New(alg, inst, mem.Seed())
	if _, err := eng.Feed(jobs); err != nil {
		return err
	}
	if _, err := eng.Step(horizon); err != nil {
		return err
	}
	fedDecs, engDecs := f.Decisions(), eng.Decisions()
	if len(fedDecs) != len(engDecs) {
		return fmt.Errorf("federation made %d decisions, the single cluster %d", len(fedDecs), len(engDecs))
	}
	for i, fd := range fedDecs {
		ed := engDecs[i]
		if fd.Cluster != 0 || fd.Seq != int64(ed.Job) || fd.Org != ed.Org || fd.Machine != ed.Machine || fd.At != ed.At {
			return fmt.Errorf("decision %d differs: federation %+v, single cluster %+v", i, fd, ed)
		}
	}
	a, err := json.Marshal(mem.Result())
	if err != nil {
		return err
	}
	b, err := json.Marshal(eng.Result())
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return fmt.Errorf("result diverged:\n%s\nvs\n%s", a, b)
	}
	return nil
}

// TestOneMemberLocalMatchesSingleCluster is the battery under local
// routing — the federation a gated single session runs as.
func TestOneMemberLocalMatchesSingleCluster(t *testing.T) {
	assertOneMemberMatchesSingleCluster(t, fed.LocalOnly{}, 0, oneMemberSeeds)
}

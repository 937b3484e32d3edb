package daemon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/daemon"
	"repro/internal/model"
)

// censusJobs is 32 rounds of 40 jobs, one round every 10 ticks, spread
// over the organizations (and, for a federation, the members) with
// sizes 1..8 — the shape of the benchmark's shapley-k8 sessions.
func censusJobs(orgs, clusters int) []daemon.JobSubmission {
	var jobs []daemon.JobSubmission
	for round := 0; round < 32; round++ {
		for i := 0; i < 40; i++ {
			n := round*40 + i
			jobs = append(jobs, daemon.JobSubmission{Cluster: n % clusters, Org: n % orgs, Size: model.Time(1 + n%8), Release: timePtr(model.Time(10 * round))})
		}
	}
	return jobs
}

// drainedAt returns the instant a session of cfg fed jobs stands at
// once every event is processed: advances with no until, to the next
// event, until none is left.
func drainedAt(t *testing.T, cfg daemon.SessionConfig, jobs []daemon.JobSubmission) model.Time {
	t.Helper()
	sess, err := daemon.NewManager().Create("drained", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	for sess.State().NextEvent != nil {
		if _, _, err := sess.Advance(nil); err != nil {
			t.Fatal(err)
		}
	}
	return sess.State().Now
}

// census adds the serialized size of every field of a checkpoint to
// out, keyed by its path with array positions dropped; the fields of a
// cluster state, the job list and the organization list are leaves.
func census(path string, raw json.RawMessage, out map[string]int) {
	var obj map[string]json.RawMessage
	var arr []json.RawMessage
	leaf := strings.HasSuffix(path, "jobs") || strings.HasSuffix(path, "orgs") || strings.Contains(path, "clusters.")
	switch {
	case !leaf && json.Unmarshal(raw, &obj) == nil && obj != nil:
		for k, v := range obj {
			census(path+"."+k, v, out)
		}
	case !leaf && bytes.HasPrefix(raw, []byte("[{")) && json.Unmarshal(raw, &arr) == nil:
		for _, v := range arr {
			census(path, v, out)
		}
	default:
		out[path] += len(raw)
	}
}

// TestCheckpointByteCensus prints where a checkpoint's bytes go, field
// by field, for one REF, one RAND, one NBS-federation (bare, and behind
// the benchmark's token bucket) and one policy session run through the
// same 1 280 jobs and stopped at the last round, and for the REF and
// RAND sessions again once drained (EXPERIMENTS.md "Checkpoint
// compatibility" holds the table; regenerate it with
// `go test -run TestCheckpointByteCensus -v ./internal/daemon`). At the
// last round every hypothetical schedule has a backlog — 40 jobs of mean
// size 4.5 every 10 ticks outrun 16 machines — so none is its members'
// release-start schedule; a drained one has nothing waiting or running,
// as the idle stretches of the benchmark's shapley-k8 sessions (about
// 40 % load) do, and the drained rows must write some schedules as
// their release-start schedule. It asserts the one-copy rule on the way: a cluster state carries the
// stored keys, a decision log only where one is kept, a withdrawn list
// only when a job was withdrawn; a hypothetical schedule is its
// coalition, clock, waiting counts, running entries and members'
// accounts, one count and one account per member; no job carries its
// ID, no start its Org; a federation has an order and no decisions,
// next_seq or orgs of its own, and its ledger exactly its three keys of
// history; a cached exchange summary is its five observations, a
// control block its queue as {at, job, attempt} with no class, push
// number or counter — nothing derivable.
func TestCheckpointByteCensus(t *testing.T) {
	members := make([]daemon.ClusterConfig, 8)
	for i := range members {
		members[i] = daemon.ClusterConfig{Name: fmt.Sprintf("m%d", i), Alg: "nbs", Machines: []int{1, 1, 1, 1, 0, 0}}
	}
	gated := daemon.SessionConfig{Kind: daemon.KindFederation, OrgNames: []string{"a", "b", "c", "d", "e", "f"},
		Clusters: members, Policy: "fednbs-migrate", Staleness: 25,
		Admission: &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 3, Period: 10, Burst: 6, MaxAttempts: 3}}
	ref := daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "ref", Orgs: 8, Machines: 16}
	rand := daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "rand", Orgs: 8, Machines: 16, RandSamples: 15}
	for _, c := range []struct {
		name          string
		cfg           daemon.SessionConfig
		orgs, members int
		logs          int  // cluster states that carry a decision log
		drained       bool // stepped past the last event, not stopped at the last round
	}{
		{"ref", ref, 8, 1, 1, false},
		{"rand", rand, 8, 1, 1, false},
		{"nbs-federation", daemon.SessionConfig{Kind: daemon.KindFederation, OrgNames: []string{"a", "b", "c", "d", "e", "f"},
			Clusters: members, Policy: "fednbs-migrate", Staleness: 25}, 6, 8, 8, false},
		{"nbs-federation, gated", gated, 6, 8, 8, false},
		{"directcontr", daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "directcontr", Orgs: 8, Machines: 16}, 8, 1, 1, false},
		{"ref, drained", ref, 8, 1, 1, true},
		{"rand, drained", rand, 8, 1, 1, true},
	} {
		until := model.Time(310)
		if c.drained {
			until = drainedAt(t, c.cfg, censusJobs(c.orgs, c.members))
		}
		snap := checkpointOf(t, c.cfg, censusJobs(c.orgs, c.members), until)
		sizes := map[string]int{}
		census("", snap, sizes)
		keys := make([]string, 0, len(sizes))
		for k := range sizes {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if sizes[keys[i]] != sizes[keys[j]] {
				return sizes[keys[i]] > sizes[keys[j]]
			}
			return keys[i] < keys[j]
		})
		t.Logf("%s: %d B at %d", c.name, len(snap), until)
		rest := len(snap)
		for _, k := range keys {
			if 200*sizes[k] >= len(snap) {
				t.Logf("  %-40s %9d B %5.1f %%", strings.TrimPrefix(k, "."), sizes[k], 100*float64(sizes[k])/float64(len(snap)))
				rest -= sizes[k]
			}
		}
		t.Logf("  %-40s %9d B %5.1f %%", "(fields under 0.5 %, keys, punctuation)", rest, 100*float64(rest)/float64(len(snap)))
		stored := map[string]bool{"coalition": true, "now": true, "at_release": true, "release_order": true, "queues": true, "waiting": true, "running": true, "org_acct": true, "starts": true, "withdrawn": true}
		for k := range sizes {
			if i := strings.Index(k, "clusters."); i >= 0 && !stored[k[i+len("clusters."):]] {
				t.Errorf("%s: a cluster state carries %q", c.name, k)
			}
		}
		if got := bytes.Count(snap, []byte(`"starts":`)); got != c.logs {
			t.Errorf("%s: %d cluster states carry a decision log, want %d", c.name, got, c.logs)
		}
		// A running entry is {job, machine, start}; a decision schedule
		// stores no running entry or account, its log says both, so only
		// hypothetical schedules written in full store running entries
		// (REF's and RAND's here while their sessions are saturated).
		entries := bytes.Count(snap, []byte(`"running":[{"job":`))
		if bytes.Contains(snap, []byte(`"end":`)) || bytes.Contains(snap, []byte(`"acc_from":`)) || entries != bytes.Count(snap, []byte(`"running":`)) ||
			c.name == "directcontr" && entries > 0 || (c.name == "ref" || c.name == "rand") && entries == 0 {
			t.Errorf("%s: a running entry stores its end or fold mark, or one is not {job, machine, start}, or there are none to look at", c.name)
		}
		var tree jsonTree
		if err := json.Unmarshal(snap, &tree); err != nil {
			t.Fatal(err)
		}
		hypothetical, compact := 0, 0
		for _, cp := range coreCheckpoints(tree) {
			for _, cl := range cp["clusters"].([]any) {
				cl := cl.(jsonTree)
				keys := "coalition now release_order queues starts withdrawn"
				switch members := bits.OnesCount(uint(cl["coalition"].(float64))); {
				case cl["starts"] != nil:
				case cl["at_release"] == true:
					// Its members' release-start schedule: the job list says
					// what runs, and the accounts are an offset to its finished
					// work, written only when one is not zero.
					keys = "coalition now at_release org_acct"
					hypothetical++
					compact++
					if acct, ok := cl["org_acct"].([]any); ok && len(acct) != members {
						t.Errorf("%s: a release-start schedule of %d members has %d offsets", c.name, members, len(acct))
					}
				default:
					keys = "coalition now waiting running org_acct"
					hypothetical++
					if waiting, _ := cl["waiting"].([]any); len(waiting) != members {
						t.Errorf("%s: a hypothetical schedule of %d members has waiting counts %v", c.name, members, cl["waiting"])
					}
					if acct, _ := cl["org_acct"].([]any); len(acct) != members {
						t.Errorf("%s: a hypothetical schedule of %d members has %d accounts", c.name, members, len(acct))
					}
				}
				for k := range cl {
					if !slices.Contains(strings.Fields(keys), k) {
						t.Errorf("%s: a schedule with decision log %v carries %q", c.name, cl["starts"] != nil, k)
					}
				}
			}
		}
		if hypothetical == 0 && c.name != "directcontr" {
			t.Errorf("%s: no hypothetical schedule to look at", c.name)
		}
		t.Logf("  %d of %d hypothetical schedules written as their release-start schedule", compact, hypothetical)
		if c.drained && compact == 0 {
			t.Errorf("%s: no hypothetical schedule written as its release-start schedule", c.name)
		}
		if bytes.Contains(snap, []byte(`"ID":`)) || bytes.Contains(snap, []byte(`"Org":0,"Machine":`)) || !bytes.Contains(snap, []byte(`{"Job":0,"Machine":`)) {
			t.Errorf("%s: a job carries its ID or a start its Org (or no log line was found to look at)", c.name)
		}
		if c.members == 1 {
			continue
		}
		var doc, ledger map[string]json.RawMessage
		if err := json.Unmarshal(snap, &doc); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(doc["ledger"], &ledger); err != nil {
			t.Fatal(err)
		}
		allowed := "version policy seed now pending order ledger members staleness ex_at ex_now ex_sums ex_routed admission ctrl"
		for k := range doc {
			if !slices.Contains(strings.Fields(allowed), k) {
				t.Errorf("%s: the federation checkpoint carries %q", c.name, k)
			}
		}
		if c.cfg.Admission != nil {
			t.Logf("  %d jobs parked on a retry in the control queue", bytes.Count(doc["ctrl"], []byte(`"attempt":`)))
		}
		observed := "waiting psi phi executed utilization"
		control := "version policy policy_state stats queue.events.at queue.events.attempt"
		for k := range sizes {
			if key, ok := strings.CutPrefix(k, ".ex_sums."); ok && !slices.Contains(strings.Fields(observed), key) {
				t.Errorf("%s: a cached exchange summary carries %q", c.name, key)
			}
			key, ok := strings.CutPrefix(k, ".ctrl.")
			if ok && !slices.Contains(strings.Fields(control), key) && !strings.HasPrefix(key, "queue.events.job.") && !strings.HasPrefix(key, "policy_state.") && !strings.HasPrefix(key, "stats.") {
				t.Errorf("%s: the control block carries %q", c.name, key)
			}
		}
		if sizes[".ex_sums.psi"] == 0 || (c.cfg.Admission != nil) != (sizes[".ctrl.queue.events.at"] > 0) {
			t.Errorf("%s: no cached exchange, or no queued control event in a gated run, to look at", c.name)
		}
		if doc["order"] == nil || len(ledger) != 3 || ledger["submitted"] == nil || ledger["migrated"] == nil || ledger["migrated_work"] == nil {
			t.Errorf("%s: order %s, ledger keys %v; want an order and a ledger of submitted, migrated, migrated_work", c.name, doc["order"], ledger)
		}
	}
}

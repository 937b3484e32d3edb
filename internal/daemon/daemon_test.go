package daemon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/daemon"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/model"
)

func singleCfg() daemon.SessionConfig {
	return daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "ref", Orgs: 2, Machines: 3, Seed: 7}
}

func fedCfg() daemon.SessionConfig {
	return daemon.SessionConfig{
		Kind:     daemon.KindFederation,
		OrgNames: []string{"alpha", "beta"},
		Policy:   "leastloaded",
		Clusters: []daemon.ClusterConfig{
			{Name: "east", Alg: "ref", Machines: []int{2, 0}},
			{Name: "west", Alg: "directcontr", Machines: []int{0, 2}},
		},
		Seed: 7,
	}
}

func wideCfg() daemon.SessionConfig {
	return daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "fairshare", Orgs: 5, Machines: 10}
}

// narrowCfg is wideCfg's algorithm on fewer organizations and machines.
func narrowCfg() daemon.SessionConfig {
	cfg := wideCfg()
	cfg.Orgs, cfg.Machines = 3, 3
	return cfg
}

// roomyFedCfg is fedCfg with more machines at both members.
func roomyFedCfg() daemon.SessionConfig {
	cfg := fedCfg()
	cfg.Clusters = []daemon.ClusterConfig{
		{Name: "east", Alg: "ref", Machines: []int{5, 0}},
		{Name: "west", Alg: "directcontr", Machines: []int{3, 4}},
	}
	return cfg
}

// staleFedCfg is fedCfg gossiping summaries every 500 ticks.
func staleFedCfg() daemon.SessionConfig {
	cfg := fedCfg()
	cfg.Staleness = 500
	return cfg
}

// staleLoadFedCfg is fedCfg gossiping every 15 ticks: under
// overloadJobs(0) — a saturated east next to an idle west, routed by
// load — a checkpoint at 30 caches the exchange of 16, and the next
// release reads it.
func staleLoadFedCfg() daemon.SessionConfig {
	cfg := fedCfg()
	cfg.Staleness = 15
	return cfg
}

// forgeMachineRows gives a federation checkpoint the per-member
// "machines" rows older builds wrote next to the engine snapshots,
// claiming cfg's grid.
func forgeMachineRows(t *testing.T, snap []byte, cfg daemon.SessionConfig) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(snap, &doc); err != nil {
		t.Fatal(err)
	}
	var members []map[string]json.RawMessage
	if err := json.Unmarshal(doc["members"], &members); err != nil {
		t.Fatal(err)
	}
	for c := range members {
		members[c]["machines"] = json.RawMessage(mustJSON(t, cfg.Clusters[c].Machines))
	}
	doc["members"] = json.RawMessage(mustJSON(t, members))
	return []byte(mustJSON(t, doc))
}

// tooManyOrgs rewrites a single-run checkpoint to declare one
// organization more than model.MaxOrgs.
func tooManyOrgs(t *testing.T, snap []byte) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(snap, &doc); err != nil {
		t.Fatal(err)
	}
	orgs := make([]model.Org, model.MaxOrgs+1)
	for i := range orgs {
		orgs[i] = model.Org{Name: fmt.Sprintf("org%d", i), Machines: 1}
	}
	doc["orgs"] = json.RawMessage(mustJSON(t, orgs))
	return []byte(mustJSON(t, doc))
}

// checkpointOf runs cfg through a job batch and an advance to `until`
// and returns the session's checkpoint.
func checkpointOf(t testing.TB, cfg daemon.SessionConfig, jobs []daemon.JobSubmission, until model.Time) []byte {
	t.Helper()
	sess, err := daemon.NewManager().Create("seed", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Advance(&until); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// bucketCfg is a three-organization fair-share session behind a slow
// token bucket, so a second same-instant job of an organization waits
// in the control-plane queue.
func bucketCfg() daemon.SessionConfig {
	return daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "fairshare", Orgs: 3, Machines: 3,
		Admission: &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 10, Burst: 1}}
}

// foreignQueueEvent is a bucketCfg checkpoint whose queued control
// event — the second of two same-instant jobs, deferred — belongs to an
// organization the session does not have.
func foreignQueueEvent(t testing.TB) []byte {
	t.Helper()
	at := timePtr(5)
	snap := checkpointOf(t, bucketCfg(), []daemon.JobSubmission{{Org: 1, Size: 2, Release: at}, {Org: 1, Size: 2, Release: at}}, 5)
	bad := bytes.Replace(snap, []byte(`"org":1`), []byte(`"org":99`), 1)
	if !bytes.Contains(snap, []byte(`"events":[{`)) || bytes.Equal(bad, snap) {
		t.Fatalf("checkpoint queues no organization-1 event: %s", snap)
	}
	return bad
}

// fairStaleFedCfg is fedCfg routed by per-organization deficits on
// gossip that outlives the test.
func fairStaleFedCfg() daemon.SessionConfig {
	cfg := fedCfg()
	cfg.Policy = "fairness"
	cfg.Staleness = 1000
	return cfg
}

// shortExchangeVectors is a fairStaleFedCfg checkpoint whose cached
// exchange summaries have lost their per-organization ψ and capacity
// entries.
func shortExchangeVectors(t testing.TB) []byte {
	t.Helper()
	snap := checkpointOf(t, fairStaleFedCfg(), []daemon.JobSubmission{{Org: 0, Size: 2}}, 3)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(snap, &doc); err != nil {
		t.Fatal(err)
	}
	var sums []map[string]json.RawMessage
	if err := json.Unmarshal(doc["ex_sums"], &sums); err != nil || len(sums) == 0 {
		t.Fatalf("checkpoint caches no exchange (%v): %s", err, snap)
	}
	for i := range sums {
		sums[i]["psi"], sums[i]["org_capacity"] = json.RawMessage(`[]`), json.RawMessage(`[]`)
	}
	doc["ex_sums"] = json.RawMessage(mustJSON(t, sums))
	return []byte(mustJSON(t, doc))
}

// api is a tiny JSON client against the handler under test.
type api struct {
	t  *testing.T
	ts *httptest.Server
}

func newAPI(t *testing.T) api {
	t.Helper()
	ts := httptest.NewServer(daemon.NewServer(daemon.NewManager()).Handler())
	t.Cleanup(ts.Close)
	return api{t: t, ts: ts}
}

func (a api) do(method, path, body string, wantStatus int) map[string]any {
	a.t.Helper()
	req, err := http.NewRequest(method, a.ts.URL+path, strings.NewReader(body))
	if err != nil {
		a.t.Fatal(err)
	}
	resp, err := a.ts.Client().Do(req)
	if err != nil {
		a.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		a.t.Fatalf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, wantStatus, raw)
	}
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			a.t.Fatalf("%s %s: %v in %q", method, path, err, raw)
		}
	}
	return out
}

func (a api) raw(path string) []byte {
	a.t.Helper()
	resp, err := a.ts.Client().Get(a.ts.URL + path)
	if err != nil {
		a.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		a.t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, raw)
	}
	return raw
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMultiSessionDaemon is the acceptance path: one daemon serves a
// single-run session and a federated session concurrently, driving
// both through submit → advance → checkpoint → restore, with the two
// sessions progressing independently.
func TestMultiSessionDaemon(t *testing.T) {
	a := newAPI(t)

	a.do("POST", "/v1/sessions", `{"id":"solo",`+mustJSON(t, singleCfg())[1:], http.StatusCreated)
	a.do("POST", "/v1/sessions", `{"id":"fleet",`+mustJSON(t, fedCfg())[1:], http.StatusCreated)

	list := a.do("GET", "/v1/sessions", "", http.StatusOK)
	if n := len(list["sessions"].([]any)); n != 2 {
		t.Fatalf("daemon lists %d sessions, want 2", n)
	}
	if h := a.do("GET", "/v1/healthz", "", http.StatusOK); h["status"] != "ok" || h["sessions"].(float64) != 2 {
		t.Fatalf("healthz: %v", h)
	}

	// Drive both sessions concurrently: different sessions must not
	// serialize against each other (and the race detector watches).
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a.do("POST", "/v1/sessions/solo/jobs",
			`{"jobs":[{"org":0,"size":3},{"org":1,"size":2},{"org":1,"size":4,"release":5}]}`, http.StatusOK)
		adv := a.do("POST", "/v1/sessions/solo/advance", `{"until":30}`, http.StatusOK)
		if n := len(adv["decisions"].([]any)); n != 3 {
			t.Errorf("solo session made %d decisions, want 3", n)
		}
	}()
	go func() {
		defer wg.Done()
		// Submissions arrive at the east cluster; beta's jobs should
		// spill west under least-loaded routing.
		a.do("POST", "/v1/sessions/fleet/jobs",
			`{"jobs":[{"cluster":0,"org":0,"size":4},{"cluster":0,"org":1,"size":4},{"cluster":0,"org":1,"size":4,"release":2}]}`,
			http.StatusOK)
		adv := a.do("POST", "/v1/sessions/fleet/advance", `{"until":40}`, http.StatusOK)
		if n := len(adv["decisions"].([]any)); n != 3 {
			t.Errorf("fleet session made %d decisions, want 3", n)
		}
	}()
	wg.Wait()

	soloState := a.do("GET", "/v1/sessions/solo/state", "", http.StatusOK)
	if soloState["kind"] != "single" || soloState["now"].(float64) != 30 {
		t.Fatalf("solo state: %v", soloState)
	}
	if phi, ok := soloState["phi"].([]any); !ok || len(phi) != 2 {
		t.Fatalf("REF state must report φ per organization: %v", soloState)
	}
	fleetState := a.do("GET", "/v1/sessions/fleet/state", "", http.StatusOK)
	if fleetState["kind"] != "federation" || fleetState["now"].(float64) != 40 {
		t.Fatalf("fleet state: %v", fleetState)
	}
	if len(fleetState["clusters"].([]any)) != 2 {
		t.Fatalf("fleet state has no per-cluster rows: %v", fleetState)
	}

	// The listing reports each session's clock and counts as /state does,
	// without evaluating the state.
	list = a.do("GET", "/v1/sessions", "", http.StatusOK)
	for i, st := range []map[string]any{soloState, fleetState} {
		row := list["sessions"].([]any)[i].(map[string]any)
		for _, k := range []string{"id", "kind", "now", "jobs", "decisions"} {
			if row[k] != st[k] || len(row) != 5 {
				t.Fatalf("list row %v disagrees with state %v on %q", row, st, k)
			}
		}
	}

	// A create body written for the retired parallel data plane or the
	// retired REF/RAND worker pool still carries "fed_workers" or
	// "workers": both are ignored, and the session it creates answers
	// exactly like one created without them.
	a.do("POST", "/v1/sessions", `{"id":"fleet-w","fed_workers":3,"workers":4,`+mustJSON(t, fedCfg())[1:], http.StatusCreated)
	a.do("POST", "/v1/sessions/fleet-w/jobs",
		`{"jobs":[{"cluster":0,"org":0,"size":4},{"cluster":0,"org":1,"size":4},{"cluster":0,"org":1,"size":4,"release":2}]}`,
		http.StatusOK)
	a.do("POST", "/v1/sessions/fleet-w/advance", `{"until":40}`, http.StatusOK)
	for _, doc := range []string{"state", "decisions"} {
		want := a.raw("/v1/sessions/fleet/" + doc)
		got := bytes.Replace(a.raw("/v1/sessions/fleet-w/"+doc), []byte(`"fleet-w"`), []byte(`"fleet"`), 1)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s of a session created with fed_workers and workers differs:\n got %s\nwant %s", doc, got, want)
		}
	}
	a.do("DELETE", "/v1/sessions/fleet-w", "", http.StatusOK)

	// Checkpoint both, keep advancing the originals, then roll both
	// back via restore: the clocks must rewind to the checkpoints.
	soloSnap := a.raw("/v1/sessions/solo/checkpoint")
	fleetSnap := a.raw("/v1/sessions/fleet/checkpoint")
	a.do("POST", "/v1/sessions/solo/advance", `{"until":100}`, http.StatusOK)
	a.do("POST", "/v1/sessions/fleet/advance", `{"until":100}`, http.StatusOK)
	res := a.do("POST", "/v1/sessions/solo/restore", string(soloSnap), http.StatusOK)
	if res["now"].(float64) != 30 {
		t.Fatalf("solo restore landed at %v, want 30", res["now"])
	}
	res = a.do("POST", "/v1/sessions/fleet/restore", string(fleetSnap), http.StatusOK)
	if res["now"].(float64) != 40 {
		t.Fatalf("fleet restore landed at %v, want 40", res["now"])
	}

	// Restored sessions keep serving: a submit-now job dispatches on the
	// next-event advance (same instant — a machine is free at t=40).
	a.do("POST", "/v1/sessions/fleet/jobs", `{"jobs":[{"cluster":1,"org":0,"size":1}]}`, http.StatusOK)
	adv := a.do("POST", "/v1/sessions/fleet/advance", `{}`, http.StatusOK)
	if n := len(adv["decisions"].([]any)); n != 1 {
		t.Fatalf("restored fleet did not schedule the new job: %v", adv)
	}

	// Decision logs are queryable with suffixes.
	decs := a.do("GET", "/v1/sessions/fleet/decisions?since=2", "", http.StatusOK)
	if total := decs["total"].(float64); total < 3 {
		t.Fatalf("fleet decision log too short: %v", decs)
	}

	// Delete one session; the other keeps running.
	a.do("DELETE", "/v1/sessions/solo", "", http.StatusOK)
	a.do("GET", "/v1/sessions/solo/state", "", http.StatusNotFound)
	a.do("GET", "/v1/sessions/fleet/state", "", http.StatusOK)
}

// A create body is outside input: a count no cluster could have is
// refused by name before a slice is sized from it. The first two bodies
// ended the process with "fatal error: out of memory" (ZipfSplit over
// 4·10⁸ organizations; 2^26 coalition schedules).
func TestCreateRefusesOversizedConfigs(t *testing.T) {
	member := func(alg string, orgs, perOrg int) daemon.SessionConfig {
		cfg := daemon.SessionConfig{Kind: daemon.KindFederation, Policy: "local"}
		machines := make([]int, orgs)
		for o := range machines {
			cfg.OrgNames = append(cfg.OrgNames, fmt.Sprintf("o%d", o))
			machines[o] = perOrg
		}
		cfg.Clusters = []daemon.ClusterConfig{{Name: "m", Alg: alg, Machines: machines}}
		return cfg
	}
	mgr := daemon.NewManager()
	if _, err := mgr.Create("kept", singleCfg()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		field string
		cfg   daemon.SessionConfig
	}{
		{"orgs", daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "fairshare", Orgs: 400000000}},
		{"orgs", daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "ref", Orgs: 26}},
		{"machines", daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "fcfs", Orgs: 2, Machines: 2000000000}},
		{"rand_samples", daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "rand", Orgs: 2, RandSamples: 2000000000}},
		{"clusters[0].machines", member("fcfs", 2, 1000000000)},
		{"org_names", member("ref", 17, 1)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := mgr.Create("", c.cfg)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.field+":") {
			t.Errorf("%+v: err = %v, want a refusal naming %s", c.cfg, err, c.field)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: refusing allocated %d bytes, want < 1 MB", c.field, got)
		}
	}
	if list := mgr.List(); len(list) != 1 || list[0].ID() != "kept" {
		t.Fatalf("session table changed by refused creates: %d sessions", len(list))
	}
}

// TestSessionAPIValidation covers the create/restore error surface.
func TestSessionAPIValidation(t *testing.T) {
	a := newAPI(t)
	a.do("POST", "/v1/sessions", `{"kind":"bogus"}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions", `{"kind":"single","alg":"nope"}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions", `{"kind":"single","orgs":-1}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions", `{"kind":"single","ref_driver":"bogus"}`, http.StatusBadRequest)
	// Both driver names still parse; they select the one event loop.
	a.do("POST", "/v1/sessions", `{"id":"scan","kind":"single","alg":"ref","ref_driver":"scan"}`, http.StatusCreated)
	a.do("DELETE", "/v1/sessions/scan", "", http.StatusOK)
	a.do("POST", "/v1/sessions", `{"kind":"single","split":"unifrom"}`, http.StatusBadRequest)
	// A machine pool no allocation can hold is a 400, not a makeslice
	// panic that drops the connection.
	a.do("POST", "/v1/sessions", `{"kind":"single","alg":"fcfs","orgs":1,"machines":4503599627370496}`, http.StatusBadRequest)
	// An oversized configuration is a 400 naming its field
	// (TestCreateRefusesOversizedConfigs: and allocates nothing).
	if msg := a.do("POST", "/v1/sessions", `{"kind":"single","alg":"ref","orgs":26}`, http.StatusBadRequest)["error"]; !strings.Contains(fmt.Sprint(msg), "orgs") {
		t.Fatalf("oversized ref session refused with %q, want the field named", msg)
	}
	a.do("POST", "/v1/sessions", `{"id":"strat","kind":"single","alg":"rand","rand_stratified":true}`, http.StatusCreated)
	if alg := a.do("GET", "/v1/sessions/strat/state", "", http.StatusOK)["algorithm"]; alg != "Rand(N=15,stratified)" {
		t.Fatalf("rand_stratified session runs %v, want the stratified sampler", alg)
	}
	a.do("DELETE", "/v1/sessions/strat", "", http.StatusOK)
	a.do("POST", "/v1/sessions", `{"kind":"federation","org_names":["a"],"policy":"bogus",
	  "clusters":[{"name":"x","alg":"ref","machines":[1]}]}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions", `{"kind":"federation","org_names":["a"],
	  "clusters":[{"name":"x","alg":"ref","machines":[0]}]}`, http.StatusBadRequest)
	// A federation's members are the players of its game: one past the
	// cap is a 400, not a panic at the first advance.
	wide := make([]string, model.MaxOrgs+1)
	for c := range wide {
		wide[c] = fmt.Sprintf(`{"name":"m%d","alg":"nbs","machines":[1]}`, c)
	}
	if msg := a.do("POST", "/v1/sessions", `{"kind":"federation","org_names":["a"],"policy":"fednbs","clusters":[`+strings.Join(wide, ",")+`]}`, http.StatusBadRequest)["error"]; !strings.Contains(fmt.Sprint(msg), "maximum") {
		t.Fatalf("a %d-member federation refused with %q, want the maximum named", len(wide), msg)
	}
	a.do("POST", "/v1/sessions", `{"id":"has space","kind":"single"}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions", `{"id":".tmp-x","kind":"single"}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions", `{"id":"dup","kind":"single"}`, http.StatusCreated)
	a.do("POST", "/v1/sessions", `{"id":"dup","kind":"single"}`, http.StatusConflict)
	a.do("GET", "/v1/sessions/ghost/state", "", http.StatusNotFound)
	a.do("DELETE", "/v1/sessions/ghost", "", http.StatusNotFound)
	a.do("POST", "/v1/sessions/dup/jobs", `{"jobs":[]}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions/dup/jobs", `{"jobs":[{"org":99,"size":1}]}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions/dup/jobs", `not json`, http.StatusBadRequest)
	// The mux answers a wrong method itself, in plain text.
	if resp, err := a.ts.Client().Get(a.ts.URL + "/v1/sessions/dup/jobs"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET .../jobs: status %d, want 405", resp.StatusCode)
	}
	a.do("POST", "/v1/sessions/dup/restore", `{"version":99}`, http.StatusBadRequest)
	// No route names a session implicitly: the single-run paths are not
	// mounted, whatever the sessions are called.
	a.do("POST", "/v1/sessions", `{"id":"default","kind":"single"}`, http.StatusCreated)
	for _, route := range [][2]string{
		{"POST", "/v1/jobs"}, {"POST", "/v1/advance"}, {"GET", "/v1/state"},
		{"GET", "/v1/decisions"}, {"GET", "/v1/checkpoint"}, {"POST", "/v1/restore"},
	} {
		req, err := http.NewRequest(route[0], a.ts.URL+route[1], strings.NewReader(`{"jobs":[{"org":0,"size":1}]}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := a.ts.Client().Do(req); err != nil {
			t.Fatal(err)
		} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", route[0], route[1], resp.StatusCode)
		}
	}
	a.do("DELETE", "/v1/sessions/default", "", http.StatusOK)

	// Delete + recreate under the same id must not duplicate the
	// listing (the creation-order index forgets deleted ids).
	a.do("DELETE", "/v1/sessions/dup", "", http.StatusOK)
	a.do("POST", "/v1/sessions", `{"id":"dup","kind":"single"}`, http.StatusCreated)
	list := a.do("GET", "/v1/sessions", "", http.StatusOK)
	if n := len(list["sessions"].([]any)); n != 1 {
		t.Fatalf("after delete+recreate the daemon lists %d sessions, want 1", n)
	}
	// Auto-generated ids skip over taken names instead of colliding.
	a.do("POST", "/v1/sessions", `{"id":"s1","kind":"single"}`, http.StatusCreated)
	created := a.do("POST", "/v1/sessions", `{"kind":"single"}`, http.StatusCreated)
	if id := created["id"].(string); id == "s1" {
		t.Fatalf("auto-generated id collided with the taken %q", id)
	}

	// A posted snapshot's free list, running counts, total account and
	// flush mark are not read — a doctored free list once indexed out of
	// range at the next dispatch, on a pipeline worker goroutine, taking
	// every session down with the process. Whatever an old document says
	// there, the session restores as from the clean one.
	a.do("POST", "/v1/sessions", `{"id":"tiny","kind":"single","alg":"fcfs","orgs":1,"machines":1}`, http.StatusCreated)
	a.do("POST", "/v1/sessions/tiny/jobs", `{"jobs":[{"org":0,"size":2},{"org":0,"size":2},{"org":0,"size":2}]}`, http.StatusOK)
	a.do("POST", "/v1/sessions/tiny/advance", `{"until":3}`, http.StatusOK)
	snap := a.raw("/v1/sessions/tiny/checkpoint")
	a.do("POST", "/v1/sessions/tiny/restore", string(snap), http.StatusOK)
	clean := a.raw("/v1/sessions/tiny/state")
	poisoned := bytes.Replace(snap, []byte(`"clusters":[{`), []byte(`"clusters":[{"free":[999],"running_per_org":[7,7],"total":{"U":99,"S":-1},"flushed_at":40,`), 1)
	if bytes.Equal(poisoned, snap) {
		t.Fatalf("checkpoint has no cluster object to poison: %s", snap)
	}
	a.do("POST", "/v1/sessions/tiny/restore", string(poisoned), http.StatusOK)
	if got := a.raw("/v1/sessions/tiny/state"); !bytes.Equal(got, clean) {
		t.Fatalf("derived fields of a posted snapshot were read:\n%s\nwant\n%s", got, clean)
	}

	// rejected posts a request the session must refuse with a 400 and
	// without a trace: /state reads byte for byte what it read before.
	rejected := func(id, op, body string) {
		t.Helper()
		before := a.raw("/v1/sessions/" + id + "/state")
		a.do("POST", "/v1/sessions/"+id+"/"+op, body, http.StatusBadRequest)
		if after := a.raw("/v1/sessions/" + id + "/state"); !bytes.Equal(before, after) {
			t.Fatalf("rejected %s on %q changed its state:\n%s\n%s", op, id, before, after)
		}
	}
	create := func(id string, cfg daemon.SessionConfig) {
		t.Helper()
		a.do("POST", "/v1/sessions", `{"id":"`+id+`",`+mustJSON(t, cfg)[1:], http.StatusCreated)
	}

	// The decision log is read — /state's backlog is jobs − starts −
	// withdrawn — so one that contradicts the queues is refused: cut
	// short, listing a job twice, or listing the job that still waits.
	// (Each restored before the partition check, reporting another
	// backlog.)
	log := regexp.MustCompile(`"starts":\[(\{[^]]*\}),(\{[^]]*\})\]`)
	if !log.Match(snap) {
		t.Fatalf("checkpoint has no two-entry decision log to doctor: %s", snap)
	}
	for _, doctored := range []string{`"starts":[$1]`, `"starts":[$1,$2,$1]`, `"starts":[$1,$2,{"Job":2,"Org":0,"Machine":0,"At":3}]`} {
		rejected("tiny", "restore", string(log.ReplaceAll(snap, []byte(doctored))))
	}
	// What a log line says is read as well — /decisions serves it, a
	// federation folds it into its own log — so a line on a machine the
	// pool does not have, at an instant that has not come, out of start
	// order, or at odds with the running entry it describes is refused.
	// (Each restored before, and /decisions served the numbers.)
	rejected("tiny", "restore", string(log.ReplaceAll(snap, []byte(`"starts":[$2,$1]`))))
	for _, edit := range [][2]string{
		{`{"Job":0,"Machine":0,"At":0}`, `{"Job":0,"Machine":-7,"At":0}`},
		{`{"Job":0,"Machine":0,"At":0}`, `{"Job":0,"Machine":1,"At":0}`},
		{`{"Job":0,"Machine":0,"At":0}`, `{"Job":0,"Machine":0,"At":123456}`},
		{`{"Job":1,"Machine":0,"At":2}`, `{"Job":1,"Machine":0,"At":1}`},
	} {
		doctored := bytes.Replace(snap, []byte(edit[0]), []byte(edit[1]), 1)
		if bytes.Equal(doctored, snap) {
			t.Fatalf("checkpoint has no log line %s: %s", edit[0], snap)
		}
		rejected("tiny", "restore", string(doctored))
	}
	a.do("POST", "/v1/sessions/tiny/advance", `{"until":9}`, http.StatusOK)
	a.do("GET", "/v1/healthz", "", http.StatusOK)

	// The configuration, not the posted snapshot, decides whether and how
	// a session is gated: a snapshot taken under another admission spec
	// — none, a different policy, or one where the session has none — is
	// refused, where it used to drop, swap or install the gate silently.
	alwaysSingle := gatedSingleCfg()
	alwaysSingle.Admission = &ctrl.PolicySpec{Policy: "always"}
	ungatedSingle := gatedSingleCfg()
	ungatedSingle.Admission = nil
	ungatedFed := gatedFedCfg()
	ungatedFed.Admission = nil
	create("fed-plain", ungatedFed)
	create("fed-gated", gatedFedCfg())
	create("one-plain", ungatedSingle)
	create("one-always", alwaysSingle)
	create("one-bucket", gatedSingleCfg())
	for _, id := range []string{"fed-plain", "fed-gated", "one-plain", "one-always", "one-bucket"} {
		a.do("POST", "/v1/sessions/"+id+"/jobs", mustJSON(t, map[string]any{"jobs": overloadJobs(0)}), http.StatusOK)
		a.do("POST", "/v1/sessions/"+id+"/advance", `{"until":30}`, http.StatusOK)
	}
	rejected("fed-gated", "restore", string(a.raw("/v1/sessions/fed-plain/checkpoint")))
	rejected("fed-plain", "restore", string(a.raw("/v1/sessions/fed-gated/checkpoint")))
	rejected("one-bucket", "restore", string(a.raw("/v1/sessions/one-always/checkpoint")))
	rejected("one-bucket", "restore", string(a.raw("/v1/sessions/one-plain/checkpoint")))
	rejected("one-plain", "restore", string(a.raw("/v1/sessions/one-bucket/checkpoint")))
	// Their own snapshots still restore.
	for _, id := range []string{"fed-plain", "fed-gated", "one-plain", "one-always", "one-bucket"} {
		a.do("POST", "/v1/sessions/"+id+"/restore", string(a.raw("/v1/sessions/"+id+"/checkpoint")), http.StatusOK)
	}

	// The configuration owns the organizations and the machine pool as
	// well: a 3-org/3-machine session refuses the snapshot of a
	// 5-org/10-machine one of the same algorithm, where it used to come
	// back reporting five ψ entries and accepting jobs for org 4.
	create("wide", wideCfg())
	create("narrow", narrowCfg())
	rejected("narrow", "restore", string(a.raw("/v1/sessions/wide/checkpoint")))
	// A snapshot with more organizations than a coalition mask can hold
	// is a 400 like any other bad snapshot, not a panic that drops the
	// connection.
	rejected("wide", "restore", string(tooManyOrgs(t, a.raw("/v1/sessions/wide/checkpoint"))))

	// And a federation's: its members' machine pools — the engine
	// snapshots are held to the configured grid, whatever a redundant
	// "machines" row claims or omits, where a {2,0}/{0,2} session used
	// to come back running {5,0}/{3,4} — and its gossip staleness, where
	// the session used to pace on the snapshot's Δt under a config, and
	// a next envelope, that said another.
	create("fed-tight", fedCfg())
	create("fed-roomy", roomyFedCfg())
	create("fed-stale", staleFedCfg())
	for _, id := range []string{"fed-tight", "fed-roomy", "fed-stale"} {
		a.do("POST", "/v1/sessions/"+id+"/jobs", mustJSON(t, map[string]any{"jobs": overloadJobs(0)}), http.StatusOK)
		a.do("POST", "/v1/sessions/"+id+"/advance", `{"until":30}`, http.StatusOK)
	}
	roomy := a.raw("/v1/sessions/fed-roomy/checkpoint")
	rejected("fed-tight", "restore", string(roomy))
	rejected("fed-tight", "restore", string(forgeMachineRows(t, roomy, fedCfg())))
	rejected("fed-tight", "restore", string(a.raw("/v1/sessions/fed-stale/checkpoint")))
	rejected("fed-stale", "restore", string(a.raw("/v1/sessions/fed-tight/checkpoint")))
	for _, id := range []string{"fed-tight", "fed-roomy", "fed-stale"} {
		a.do("POST", "/v1/sessions/"+id+"/restore", string(a.raw("/v1/sessions/"+id+"/checkpoint")), http.StatusOK)
	}

	// A snapshot's control-plane queue and cached exchange are outside
	// input too: an event for an organization the session does not have,
	// or summaries without their per-organization vectors, used to be
	// installed and to index out of range at the next advance.
	create("bucket", bucketCfg())
	rejected("bucket", "restore", string(foreignQueueEvent(t)))
	create("fed-fair", fairStaleFedCfg())
	rejected("fed-fair", "restore", string(shortExchangeVectors(t)))
	for _, id := range []string{"bucket", "fed-fair"} {
		a.do("POST", "/v1/sessions/"+id+"/jobs", `{"jobs":[{"org":1,"size":2}]}`, http.StatusOK)
		a.do("POST", "/v1/sessions/"+id+"/advance", `{"until":50}`, http.StatusOK)
	}

	// A queued instant lies after the clock: a control queue whose next
	// job is due before it (in a federation, where a release enters the
	// plane at its own instant, at it) is not this session's. It used to
	// restore: the federation then failed every advance with "step to 3
	// before engine time 30", the single session counted the job admitted
	// and lost it. A job a single session was handed at its clock does
	// wait at it, and restores.
	create("late-one", gatedSingleCfg())
	create("late-fed", gatedMigratingFedCfg())
	firstAt := regexp.MustCompile(`"at":\d+`)
	for id, at := range map[string]string{"late-one": `"at":3`, "late-fed": `"at":30`} {
		a.do("POST", "/v1/sessions/"+id+"/jobs", mustJSON(t, map[string]any{"jobs": overloadJobs(0)}), http.StatusOK)
		a.do("POST", "/v1/sessions/"+id+"/advance", `{"until":30}`, http.StatusOK)
		snap := a.raw("/v1/sessions/" + id + "/checkpoint")
		loc := firstAt.FindIndex(snap)
		if loc == nil || !bytes.HasSuffix(snap[:loc[0]], []byte(`"queue":{"events":[{`)) {
			t.Fatalf("%s queues no control event to move: %s", id, snap)
		}
		rejected(id, "restore", string(snap[:loc[0]])+at+string(snap[loc[1]:]))
		a.do("POST", "/v1/sessions/"+id+"/restore", string(snap), http.StatusOK)
	}
	a.do("POST", "/v1/sessions/late-one/jobs", `{"jobs":[{"org":0,"size":2}]}`, http.StatusOK)
	a.do("POST", "/v1/sessions/late-one/restore", string(a.raw("/v1/sessions/late-one/checkpoint")), http.StatusOK)
	a.do("POST", "/v1/sessions/late-one/advance", `{"until":60}`, http.StatusOK)

	// A pending release lies at or after the clock too. A single session
	// holding a job for 50 at clock 20, posted with the release edited to
	// 3, used to restore and start the job at 20; so did a federation
	// whose member had a job it queued moved back to its pending
	// releases.
	create("early-one", daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "directcontr", Orgs: 2, Machines: 2})
	a.do("POST", "/v1/sessions/early-one/jobs", `{"jobs":[{"org":0,"size":2,"release":50}]}`, http.StatusOK)
	a.do("POST", "/v1/sessions/early-one/advance", `{"until":20}`, http.StatusOK)
	snap = a.raw("/v1/sessions/early-one/checkpoint")
	early := bytes.Replace(snap, []byte(`"Release":50`), []byte(`"Release":3`), 1)
	if bytes.Equal(early, snap) || !bytes.Contains(snap, []byte(`"release_order":[0]`)) {
		t.Fatalf("early-one holds no pending release to move: %s", snap)
	}
	rejected("early-one", "restore", string(early))
	create("early-fed", fedCfg())
	var flood []daemon.JobSubmission
	for i := 0; i < 20; i++ {
		flood = append(flood, daemon.JobSubmission{Cluster: 1, Org: i % 2, Size: 10, Release: timePtr(0)})
	}
	a.do("POST", "/v1/sessions/early-fed/jobs", mustJSON(t, map[string]any{"jobs": flood}), http.StatusOK)
	a.do("POST", "/v1/sessions/early-fed/advance", `{"until":20}`, http.StatusOK)
	rejected("early-fed", "restore", string(unqueueFirst(t, a.raw("/v1/sessions/early-fed/checkpoint"))))
	a.do("POST", "/v1/sessions/early-fed/restore", string(a.raw("/v1/sessions/early-fed/checkpoint")), http.StatusOK)

	// A batch with one bad job is refused whole, for federations as for
	// single runs: a client that retries it must not duplicate the jobs
	// that came before the bad one.
	for _, id := range []string{"fed-plain", "fed-gated", "one-plain", "one-bucket"} {
		rejected(id, "jobs", `{"jobs":[{"org":0,"size":2},{"org":99,"size":2}]}`)
		rejected(id, "jobs", `{"jobs":[{"org":0,"size":2},{"org":1,"size":0}]}`)
	}
	rejected("fed-plain", "jobs", `{"jobs":[{"org":0,"size":2},{"cluster":9,"org":1,"size":2}]}`)
	rejected("fed-plain", "jobs", `{"jobs":[{"org":0,"size":2},{"org":1,"size":2,"release":3}]}`)
}

// unqueueFirst moves the first job a federation member's decision
// schedule queues back to that schedule's pending releases, asserting
// its release is before the clock.
func unqueueFirst(t *testing.T, snap []byte) []byte {
	t.Helper()
	var doc jsonTree
	dec := json.NewDecoder(bytes.NewReader(snap))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, cp := range coreCheckpoints(doc) {
		for _, c := range cp["clusters"].([]any) {
			c := c.(jsonTree)
			if c["starts"] == nil {
				continue
			}
			queues := c["queues"].([]any)
			for org := range queues {
				q, _ := queues[org].([]any)
				if len(q) < 2 {
					continue
				}
				id, _ := q[0].(json.Number).Int64()
				release, _ := cp["jobs"].([]any)[id].(jsonTree)["Release"].(json.Number).Int64()
				if now, _ := c["now"].(json.Number).Int64(); release >= now {
					t.Fatalf("queued job %d was released at %d, the clock is %d", id, release, now)
				}
				pending, _ := c["release_order"].([]any) // null when none is pending
				queues[org], c["release_order"] = q[1:], append([]any{q[0]}, pending...)
				return []byte(mustJSON(t, doc))
			}
		}
	}
	t.Fatalf("no member queues two jobs: %s", snap)
	return nil
}

// TestSubmitAllOrNothing is the Session-level half of the batch
// contract: a federated batch with an invalid job accepts nothing.
func TestSubmitAllOrNothing(t *testing.T) {
	sess, err := daemon.NewManager().Create("fleet", fedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := sess.Submit([]daemon.JobSubmission{{Org: 0, Size: 2}, {Org: 99, Size: 2}}); err == nil {
		t.Fatalf("a batch naming organization 99 was accepted: %v", ids)
	}
	if st := sess.State(); st.Jobs != 0 || st.Pending != 0 {
		t.Fatalf("a rejected batch left jobs=%d pending=%d behind", st.Jobs, st.Pending)
	}
	ids, err := sess.Submit([]daemon.JobSubmission{{Org: 0, Size: 2}, {Cluster: 1, Org: 1, Size: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("the retried batch got ids %v, want [0 1]", ids)
	}
}

// TestHTTPStatusCodes: advance and restore failures map onto distinct
// statuses — client mistakes stay 400, while stepping a session
// restored from a streaming checkpoint before its source is back is a
// repairable conflict (409). The old handler folded every failure into
// 400, so clients could not tell a bad request from a session that
// needed repair.
func TestHTTPStatusCodes(t *testing.T) {
	a := newAPI(t)
	a.do("POST", "/v1/sessions", `{"id":"fleet",`+mustJSON(t, fedCfg())[1:], http.StatusCreated)

	// Client errors keep their 400s.
	a.do("POST", "/v1/sessions/fleet/advance", `{"until":`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions/fleet/advance", `{"until":50}`, http.StatusOK)
	a.do("POST", "/v1/sessions/fleet/advance", `{"until":10}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions/fleet/restore", `{"version":99}`, http.StatusBadRequest)

	// Creating over a taken id conflicts with the session table; the
	// request itself is well-formed.
	a.do("POST", "/v1/sessions", `{"id":"fleet",`+mustJSON(t, fedCfg())[1:], http.StatusConflict)

	// A checkpoint that still carries the cursor of a job source pulled
	// by the federation itself is refused, not restored without the rest
	// of its stream.
	before := a.raw("/v1/sessions/fleet/state")
	snap := a.raw("/v1/sessions/fleet/checkpoint")
	streaming := bytes.Replace(snap, []byte(fmt.Sprintf(`{"version":%d,`, fed.CheckpointVersion)), []byte(`{"version":6,"source":{"cursor":2,"window":2},`), 1)
	if bytes.Equal(streaming, snap) {
		t.Fatalf("federation checkpoint does not open with its version: %.40s", snap)
	}
	reply := a.do("POST", "/v1/sessions/fleet/restore", string(streaming), http.StatusBadRequest)
	if msg, _ := reply["error"].(string); !strings.Contains(msg, "SubmitThrough") {
		t.Fatalf("refusal does not name SubmitThrough: %v", reply)
	}
	if after := a.raw("/v1/sessions/fleet/state"); !bytes.Equal(before, after) {
		t.Fatalf("refused restore changed the session:\n%s\n%s", before, after)
	}
	a.do("POST", "/v1/sessions/fleet/restore", string(snap), http.StatusOK)
}

// TestFlushAndLoadStoreRoundTrip round-trips a whole session table
// through a checkpoint directory — the graceful-shutdown persistence
// path.
func TestFlushAndLoadStoreRoundTrip(t *testing.T) {
	mgr := daemon.NewManager()
	solo, err := mgr.Create("solo", singleCfg())
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := mgr.Create("fleet", fedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Submit([]daemon.JobSubmission{{Org: 0, Size: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := solo.Advance(timePtr(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Submit([]daemon.JobSubmission{{Cluster: 0, Org: 1, Size: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fleet.Advance(timePtr(15)); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpts")
	flushed, err := mgr.FlushTo(daemon.NewDirStore(dir), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(flushed) != 2 {
		t.Fatalf("flushed %d envelopes, want 2", len(flushed))
	}
	for _, id := range flushed {
		if _, err := os.Stat(filepath.Join(dir, id+".session.json")); err != nil {
			t.Fatal(err)
		}
	}

	reborn := daemon.NewManager()
	ids, quarantined, err := reborn.LoadStore(daemon.NewDirStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 0 {
		t.Fatalf("healthy directory quarantined %v", quarantined)
	}
	if len(ids) != 2 {
		t.Fatalf("reloaded %d sessions, want 2", len(ids))
	}
	s2, ok := reborn.Get("solo")
	if !ok {
		t.Fatal("solo session not reloaded")
	}
	if got, want := s2.State(), solo.State(); !sameState(got, want) {
		t.Fatalf("reloaded solo state %+v, want %+v", got, want)
	}
	f2, ok := reborn.Get("fleet")
	if !ok {
		t.Fatal("fleet session not reloaded")
	}
	if got, want := f2.State(), fleet.State(); !sameState(got, want) {
		t.Fatalf("reloaded fleet state %+v, want %+v", got, want)
	}
	// The reloaded federation keeps scheduling deterministically.
	if _, _, err := f2.Advance(timePtr(50)); err != nil {
		t.Fatal(err)
	}

	// Envelopes written before the parallel data plane and the REF/RAND
	// worker pool were retired pin "fed_workers" and "workers" in their
	// config: they must load (no quarantine) and run exactly like the
	// envelope without the fields.
	fleetPath := filepath.Join(dir, "fleet.session.json")
	env, err := os.ReadFile(fleetPath)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(env, []byte(`"kind":"federation"`), []byte(`"kind":"federation","fed_workers":3,"workers":4`), 1)
	if bytes.Equal(old, env) {
		t.Fatal("could not plant fed_workers and workers in the fleet envelope")
	}
	if err := os.WriteFile(fleetPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := daemon.NewManager()
	if _, quarantined, err := legacy.LoadStore(daemon.NewDirStore(dir)); err != nil || len(quarantined) != 0 {
		t.Fatalf("envelope carrying fed_workers and workers: quarantined=%v err=%v", quarantined, err)
	}
	f3, ok := legacy.Get("fleet")
	if !ok {
		t.Fatal("fleet envelope carrying fed_workers not reloaded")
	}
	if _, _, err := f3.Advance(timePtr(50)); err != nil {
		t.Fatal(err)
	}
	if got, want := f3.State(), f2.State(); !sameState(got, want) {
		t.Fatalf("state after reload with fed_workers %+v, want %+v", got, want)
	}
	_, gotDecs := f3.Decisions(0)
	_, wantDecs := f2.Decisions(0)
	if fmt.Sprint(gotDecs) != fmt.Sprint(wantDecs) {
		t.Fatalf("decisions after reload with fed_workers %v, want %v", gotDecs, wantDecs)
	}

	// An empty/missing directory is not an error.
	if ids, _, err := daemon.NewManager().LoadStore(daemon.NewDirStore(filepath.Join(t.TempDir(), "nope"))); err != nil || len(ids) != 0 {
		t.Fatalf("missing dir: ids=%v err=%v", ids, err)
	}
}

// TestDecisionsNegativeSince: Session.Decisions is a library API, so a
// negative since must clamp to the full log instead of panicking (only
// the HTTP handler validates the query parameter).
func TestDecisionsNegativeSince(t *testing.T) {
	m := daemon.NewManager()
	for name, cfg := range map[string]daemon.SessionConfig{"single": singleCfg(), "fed": fedCfg()} {
		s, err := m.Create(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit([]daemon.JobSubmission{{Org: 0, Size: 3}, {Org: 1, Size: 2}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Advance(timePtr(20)); err != nil {
			t.Fatal(err)
		}
		total, decs := s.Decisions(-5)
		if total != 2 || len(decs) != 2 {
			t.Fatalf("%s: Decisions(-5) = (%d, %d decisions), want the full log of 2", name, total, len(decs))
		}
		if total, decs := s.Decisions(99); total != 2 || len(decs) != 0 {
			t.Fatalf("%s: Decisions(99) = (%d, %d decisions), want (2, 0)", name, total, len(decs))
		}
	}
}

// TestAdvanceEmptyBody: POST /advance with an empty body is the
// documented advance-to-next-event form, equivalent to {} — not a 400.
func TestAdvanceEmptyBody(t *testing.T) {
	a := newAPI(t)
	a.do("POST", "/v1/sessions", `{"id":"e",`+mustJSON(t, singleCfg())[1:], http.StatusCreated)
	a.do("POST", "/v1/sessions/e/jobs", `{"jobs":[{"org":0,"size":3,"release":5}]}`, http.StatusOK)
	adv := a.do("POST", "/v1/sessions/e/advance", "", http.StatusOK)
	if adv["now"].(float64) != 5 || len(adv["decisions"].([]any)) != 1 {
		t.Fatalf("empty-body advance: %v", adv)
	}
	if res := a.do("POST", "/v1/sessions/e/advance", `{}`, http.StatusOK); res["now"].(float64) != 8 {
		t.Fatalf("{} advance after empty-body advance: %v", res)
	}
	// A truncated JSON document is still a client error.
	a.do("POST", "/v1/sessions/e/advance", `{"until":`, http.StatusBadRequest)
}

// A body is one JSON value: whatever follows it but whitespace makes
// the request a 400 that changes nothing, on every route that takes a
// body, instead of being dropped unread.
func TestOneValuePerBody(t *testing.T) {
	a := newAPI(t)
	cfg := `{"id":"v",` + mustJSON(t, singleCfg())[1:]
	a.do("POST", "/v1/sessions", cfg+` {"id":"w"}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions", cfg+" \n", http.StatusCreated)
	a.do("POST", "/v1/sessions/v/jobs", `{"jobs":[{"org":0,"size":5,"release":3}]}`, http.StatusOK)
	before := a.raw("/v1/sessions/v/state")
	snap := string(a.raw("/v1/sessions/v/checkpoint"))
	for _, tc := range []struct{ path, body string }{
		{"/v1/sessions/v/advance", `{"until":7}{"until":9}`},
		{"/v1/sessions/v/jobs", `{"jobs":[{"org":0,"size":5}]} garbage`},
		{"/v1/sessions/v/restore", snap + "x"},
	} {
		reply := a.do("POST", tc.path, tc.body, http.StatusBadRequest)
		if msg, _ := reply["error"].(string); !strings.Contains(msg, "after top-level value") {
			t.Errorf("POST %s %q: the error does not name the trailing data: %v", tc.path, tc.body, reply)
		}
		if after := a.raw("/v1/sessions/v/state"); !bytes.Equal(after, before) {
			t.Fatalf("POST %s %q changed the session:\n%s\nwas\n%s", tc.path, tc.body, after, before)
		}
	}
	if list := a.raw("/v1/sessions"); bytes.Contains(list, []byte(`"w"`)) {
		t.Fatalf("a refused create made a session: %s", list)
	}
	a.do("POST", "/v1/sessions/v/advance", "{\"until\":7}\r\n\t ", http.StatusOK)
}

// A submit reply's now is the clock the batch's release-less jobs were
// stamped with, read under the submission's own lock: advances running
// beside the submits cannot slip in between.
func TestSubmitReplyNowIsStampedClock(t *testing.T) {
	h := daemon.NewServer(daemon.NewManager()).Handler()
	post := func(path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	if code, body := post("/v1/sessions", `{"id":"c","kind":"single","alg":"fcfs","orgs":2,"machines":2}`); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	const rounds = 300
	type reply struct {
		IDs []int64    `json:"ids"`
		Now model.Time `json:"now"`
	}
	replies := make([]reply, rounds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			if code, body := post("/v1/sessions/c/advance", fmt.Sprintf(`{"until":%d}`, i)); code != http.StatusOK {
				t.Errorf("advance to %d: %d %s", i, code, body)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := range replies {
			code, body := post("/v1/sessions/c/jobs", `{"jobs":[{"org":1,"size":1}]}`)
			if code != http.StatusOK || json.Unmarshal(body, &replies[i]) != nil || len(replies[i].IDs) != 1 {
				t.Errorf("submit %d: %d %s", i, code, body)
				return
			}
		}
	}()
	wg.Wait()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/c/checkpoint", nil))
	var ckpt struct{ Jobs []model.Job }
	if err := json.Unmarshal(rec.Body.Bytes(), &ckpt); err != nil {
		t.Fatal(err)
	}
	for _, r := range replies {
		if id := r.IDs[0]; ckpt.Jobs[id].Release != r.Now {
			t.Fatalf("job %d was released at %d, its submit reply says now %d", id, ckpt.Jobs[id].Release, r.Now)
		}
	}
}

// A checkpoint is a function of the request stream alone, not of the
// box that served it: the same 60 jobs and one advance on a 6-org REF
// and a 6-org RAND session (releases touch 32 REF schedules — the
// touched-set size at which a per-instant worker pool used to engage and
// flush accrual on the worker) must checkpoint to the same bytes
// whatever GOMAXPROCS says.
func TestCheckpointBytesIgnoreCoreCount(t *testing.T) {
	var jobs []daemon.JobSubmission
	for i := 0; i < 60; i++ {
		jobs = append(jobs, daemon.JobSubmission{Org: i % 6, Size: model.Time(3 + i%7), Release: timePtr(model.Time(i / 4))})
	}
	for _, alg := range []string{"ref", "rand"} {
		capture := func(procs int) []byte {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, err := daemon.NewManager().Create("s", daemon.SessionConfig{Kind: daemon.KindSingle, Alg: alg, Orgs: 6, Machines: 8, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Submit(jobs); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Advance(timePtr(12)); err != nil {
				t.Fatal(err)
			}
			snap, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}
		if one, four := capture(1), capture(4); !bytes.Equal(one, four) {
			t.Errorf("%s: checkpoints written under GOMAXPROCS=1 and 4 differ (%d and %d bytes)", alg, len(one), len(four))
		}
	}
}

func timePtr(v model.Time) *model.Time { return &v }

func sameState(a, b daemon.StateReply) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

// TestManagerConcurrentSessions hammers the session table from many
// goroutines at once — explicit-id and auto-id creation, submits,
// advances, deletes and listings interleaved — and then checks the
// table is consistent: every surviving session is retrievable, listed
// exactly once, and auto-assigned ids never collided. Run under -race
// in CI, this is the regression test for the Manager's locking.
func TestManagerConcurrentSessions(t *testing.T) {
	m := daemon.NewManager()
	const goroutines, perG = 8, 20
	var wg sync.WaitGroup
	var autoMu sync.Mutex
	autoIDs := make(map[string]int)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := ""
				if i%2 == 0 { // half explicit, half auto-assigned
					id = fmt.Sprintf("w%d-%d", g, i)
				}
				s, err := m.Create(id, singleCfg())
				if err != nil {
					t.Errorf("create %q: %v", id, err)
					return
				}
				if id == "" {
					autoMu.Lock()
					autoIDs[s.ID()]++
					autoMu.Unlock()
				}
				if _, err := s.Submit([]daemon.JobSubmission{{Org: 0, Size: 3}}); err != nil {
					t.Errorf("submit %q: %v", s.ID(), err)
					return
				}
				if _, _, err := s.Advance(timePtr(10)); err != nil {
					t.Errorf("advance %q: %v", s.ID(), err)
					return
				}
				if got, ok := m.Get(s.ID()); !ok || got != s {
					t.Errorf("created session %q not retrievable", s.ID())
					return
				}
				if i%3 == 0 {
					if !m.Delete(s.ID()) {
						t.Errorf("delete %q reported missing", s.ID())
						return
					}
				}
				m.List() // concurrent listings must not race
			}
		}(g)
	}
	wg.Wait()
	for id, n := range autoIDs {
		if n != 1 {
			t.Fatalf("auto id %q assigned %d times", id, n)
		}
	}
	// Consistency after the storm: the listing is duplicate-free and
	// every listed session resolves.
	seen := make(map[string]bool)
	for _, s := range m.List() {
		if seen[s.ID()] {
			t.Fatalf("session %q listed twice", s.ID())
		}
		seen[s.ID()] = true
		if _, ok := m.Get(s.ID()); !ok {
			t.Fatalf("listed session %q not retrievable", s.ID())
		}
	}
	// Deleting a deleted or unknown session reports false, once.
	if m.Delete("definitely-not-there") {
		t.Fatal("deleting an unknown session reported success")
	}
}

// TestListCreationOrderUnderChurn: Manager.List stays in creation order
// while goroutines create (auto and explicit ids), delete and re-create
// sessions concurrently. Creation order is observable from outside as
// happened-before: a session whose Create returned before another's
// began must list first — in the final table and in every listing taken
// mid-storm — and a re-created id lists at its new position.
func TestListCreationOrderUnderChurn(t *testing.T) {
	m := daemon.NewManager()
	const goroutines, perG = 8, 24
	type span struct{ begin, end int64 } // ticks around one Create call
	var (
		clock   atomic.Int64
		mu      sync.Mutex
		created = map[*daemon.Session]span{}
		lists   [][]*daemon.Session
		wg      sync.WaitGroup
	)
	create := func(id string) *daemon.Session {
		begin := clock.Add(1)
		s, err := m.Create(id, singleCfg())
		end := clock.Add(1)
		if err != nil {
			t.Errorf("create %q: %v", id, err)
			return nil
		}
		mu.Lock()
		created[s] = span{begin, end}
		mu.Unlock()
		return s
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := ""
				if i%2 == 0 {
					id = fmt.Sprintf("g%d-%d", g, i)
				}
				s := create(id)
				if s == nil {
					return
				}
				switch i % 4 {
				case 1:
					m.Delete(s.ID())
				case 2: // the same id again: a new creation, at the end
					m.Delete(s.ID())
					if create(id) == nil {
						return
					}
				}
				list := m.List()
				mu.Lock()
				lists = append(lists, list)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lists = append(lists, m.List())
	for _, list := range lists {
		for j, later := range list {
			end := created[later].end
			for _, earlier := range list[:j] {
				if end < created[earlier].begin {
					t.Fatalf("session %q (created in ticks %v) listed after %q (created in ticks %v)",
						later.ID(), created[later], earlier.ID(), created[earlier])
				}
			}
		}
	}
	// A quarter of each goroutine's sessions were deleted for good
	// (i%4 == 1); the rest survive (2 re-created).
	if got, want := len(lists[len(lists)-1]), goroutines*perG*3/4; got != want {
		t.Fatalf("final listing holds %d sessions, want %d", got, want)
	}
}

// TestFederationSessionStaleness: the staleness knob reaches federated
// sessions through the wire config and changes routing behavior
// deterministically.
func TestFederationSessionStaleness(t *testing.T) {
	run := func(staleness model.Time) daemon.StateReply {
		cfg := fedCfg()
		cfg.Staleness = staleness
		m := daemon.NewManager()
		s, err := m.Create("f", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []daemon.JobSubmission
		for i := 0; i < 30; i++ {
			jobs = append(jobs, daemon.JobSubmission{Cluster: 0, Org: i % 2, Size: 5, Release: timePtr(model.Time(2 * i))})
		}
		if _, err := s.Submit(jobs); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Advance(timePtr(300)); err != nil {
			t.Fatal(err)
		}
		return s.State()
	}
	fresh, stale := run(0), run(200)
	if sameState(fresh, stale) {
		t.Fatal("a 200-tick summary staleness routed identically to fresh gossip")
	}
	if again := run(200); !sameState(stale, again) {
		t.Fatal("stale-gossip session not deterministic")
	}
}

// gatedSingleCfg is singleCfg squeezed to one machine behind a token
// bucket: the overload serving configuration.
func gatedSingleCfg() daemon.SessionConfig {
	cfg := singleCfg()
	cfg.Orgs = 2
	cfg.Machines = 1
	cfg.Admission = &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 8, Burst: 1, MaxAttempts: 2, Staleness: 10}
	return cfg
}

// gatedFedCfg is fedCfg with a backpressure control plane in front of
// the federation's routing.
func gatedFedCfg() daemon.SessionConfig {
	cfg := fedCfg()
	cfg.Admission = &ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 3, RetryAfter: 5, MaxAttempts: 4}
	cfg.Staleness = 20
	return cfg
}

// overloadJobs is 40 size-4 submissions, alternating orgs, every 2
// ticks — 2× a single machine's service rate.
func overloadJobs(cluster int) []daemon.JobSubmission {
	var jobs []daemon.JobSubmission
	for i := 0; i < 40; i++ {
		jobs = append(jobs, daemon.JobSubmission{Cluster: cluster, Org: i % 2, Size: 4, Release: timePtr(model.Time(2 * i))})
	}
	return jobs
}

// checkAdmissionReply asserts a StateReply surfaces a conserved
// admission section for the expected policy.
func checkAdmissionReply(t *testing.T, reply daemon.StateReply, policy string) *daemon.AdmissionState {
	t.Helper()
	adm := reply.Admission
	if adm == nil {
		t.Fatalf("gated session state carries no admission section: %+v", reply)
	}
	if adm.Policy != policy {
		t.Fatalf("admission policy %q in state, want %q", adm.Policy, policy)
	}
	if err := adm.Stats.CheckConserved(); err != nil {
		t.Fatal(err)
	}
	return adm
}

// TestAdmissionSessions drives a token-bucket-gated single session and
// a backpressure-gated federated session through overload, asserting
// the per-org conservation law surfaces through StateReply, survives a
// mid-round flush/reload with deferred admissions pending, and that
// reloaded sessions continue deterministically.
func TestAdmissionSessions(t *testing.T) {
	mgr := daemon.NewManager()
	solo, err := mgr.Create("solo", gatedSingleCfg())
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := mgr.Create("fleet", gatedFedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Submit(overloadJobs(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Submit(overloadJobs(0)); err != nil {
		t.Fatal(err)
	}

	// Land mid-round: deferred admissions pending in the gated engine.
	if _, _, err := solo.Advance(timePtr(45)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fleet.Advance(timePtr(45)); err != nil {
		t.Fatal(err)
	}
	adm := checkAdmissionReply(t, solo.State(), "tokenbucket")
	if deferred(adm.Stats) == 0 {
		t.Fatal("flush instant carries no deferred admissions — the test is not exercising mid-round state")
	}
	checkAdmissionReply(t, fleet.State(), "backpressure")

	// Flush the live control planes and reload them elsewhere.
	dir := filepath.Join(t.TempDir(), "ckpts")
	if _, err := mgr.FlushTo(daemon.NewDirStore(dir), false); err != nil {
		t.Fatal(err)
	}
	reborn := daemon.NewManager()
	ids, quarantined, err := reborn.LoadStore(daemon.NewDirStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 0 || len(ids) != 2 {
		t.Fatalf("reload: ids=%v quarantined=%v", ids, quarantined)
	}

	// Both daemons drain the stream; the reloaded sessions must match
	// the originals state-for-state, admission counters included.
	for _, name := range []string{"solo", "fleet"} {
		orig, _ := mgr.Get(name)
		loaded, ok := reborn.Get(name)
		if !ok {
			t.Fatalf("session %q not reloaded", name)
		}
		if !sameState(orig.State(), loaded.State()) {
			t.Fatalf("%s: reloaded state differs:\n%s\n%s", name, mustJSON(t, orig.State()), mustJSON(t, loaded.State()))
		}
		if _, _, err := orig.Advance(timePtr(400)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loaded.Advance(timePtr(400)); err != nil {
			t.Fatal(err)
		}
		if !sameState(orig.State(), loaded.State()) {
			t.Fatalf("%s: post-reload run diverged:\n%s\n%s", name, mustJSON(t, orig.State()), mustJSON(t, loaded.State()))
		}
	}

	// After the full drain the overloaded single session shed load:
	// rejects happened, nothing is left deferred, and the law holds.
	adm = checkAdmissionReply(t, solo.State(), "tokenbucket")
	if adm.Stats.TotalReleased() != 40 {
		t.Fatalf("released %d, submitted 40", adm.Stats.TotalReleased())
	}
	if adm.Stats.TotalRejected() == 0 || adm.Stats.TotalAdmitted() == 0 {
		t.Fatalf("overload shed nothing or everything: %+v", adm.Stats)
	}
	if deferred(adm.Stats) != 0 {
		t.Fatalf("%d jobs still deferred after a full drain", deferred(adm.Stats))
	}
	fadm := checkAdmissionReply(t, fleet.State(), "backpressure")
	if fadm.Stats.TotalReleased() != 40 {
		t.Fatalf("federation released %d, submitted 40", fadm.Stats.TotalReleased())
	}

	// Ungated sessions carry no admission section.
	plain, err := mgr.Create("plain", singleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if plain.State().Admission != nil {
		t.Fatal("ungated session state carries an admission section")
	}
}

// TestAdmissionSessionHTTP: the admission section and its conservation
// law are visible through the HTTP state endpoint, and gated sessions
// are creatable over the wire.
func TestAdmissionSessionHTTP(t *testing.T) {
	a := newAPI(t)
	a.do("POST", "/v1/sessions", `{"id":"gated",`+mustJSON(t, gatedSingleCfg())[1:], http.StatusCreated)
	var subs []string
	for i := 0; i < 20; i++ {
		subs = append(subs, fmt.Sprintf(`{"org":%d,"size":4,"release":%d}`, i%2, 2*i))
	}
	a.do("POST", "/v1/sessions/gated/jobs", `{"jobs":[`+strings.Join(subs, ",")+`]}`, http.StatusOK)
	a.do("POST", "/v1/sessions/gated/advance", `{"until":300}`, http.StatusOK)
	state := a.do("GET", "/v1/sessions/gated/state", "", http.StatusOK)
	admAny, ok := state["admission"].(map[string]any)
	if !ok {
		t.Fatalf("state reply carries no admission object: %v", state)
	}
	if admAny["policy"] != "tokenbucket" {
		t.Fatalf("admission policy over the wire: %v", admAny["policy"])
	}
	stats := admAny["stats"].(map[string]any)
	sumOf := func(key string) float64 {
		var total float64
		for _, v := range stats[key].([]any) {
			total += v.(float64)
		}
		return total
	}
	released, admitted, rejected, deferred := sumOf("released"), sumOf("admitted"), sumOf("rejected"), sumOf("deferred")
	if released != 20 || admitted+rejected+deferred != released {
		t.Fatalf("wire counters violate conservation: released %v = %v admitted + %v rejected + %v deferred",
			released, admitted, rejected, deferred)
	}
	if rejected == 0 {
		t.Fatalf("token bucket rejected nothing under 2x overload: %v", stats)
	}

	// A bad admission spec fails session creation with a client error.
	a.do("POST", "/v1/sessions", `{"id":"bad","kind":"single","admission":{"policy":"tokenbucket","rate":0}}`, http.StatusBadRequest)
	a.do("POST", "/v1/sessions", `{"id":"worse","kind":"single","admission":{"policy":"nope"}}`, http.StatusBadRequest)
}

// TestGatedDecisionsNameSubmittedJobs: a gated single session's
// /decisions name each job by the ID its /jobs submit returned, also
// after the token bucket has rejected some. (When the engine carried
// the gate, /decisions named jobs by their position in the schedule,
// which runs apart from the submit IDs at the first rejection.)
func TestGatedDecisionsNameSubmittedJobs(t *testing.T) {
	a := newAPI(t)
	a.do("POST", "/v1/sessions", `{"id":"gated",`+mustJSON(t, gatedSingleCfg())[1:], http.StatusCreated)
	var subs []string
	orgOf := map[float64]float64{}
	for i := 0; i < 20; i++ {
		subs = append(subs, fmt.Sprintf(`{"org":%d,"size":4,"release":%d}`, i%2, 2*i))
	}
	reply := a.do("POST", "/v1/sessions/gated/jobs", `{"jobs":[`+strings.Join(subs, ",")+`]}`, http.StatusOK)
	for i, id := range reply["ids"].([]any) {
		orgOf[id.(float64)] = float64(i % 2)
	}
	a.do("POST", "/v1/sessions/gated/advance", `{"until":300}`, http.StatusOK)
	stats := a.do("GET", "/v1/sessions/gated/state", "", http.StatusOK)["admission"].(map[string]any)["stats"].(map[string]any)
	var admitted, rejected float64
	for o := range 2 {
		admitted += stats["admitted"].([]any)[o].(float64)
		rejected += stats["rejected"].([]any)[o].(float64)
	}
	if rejected == 0 {
		t.Fatal("the token bucket rejected nothing: the test does not exercise a rejection")
	}
	decs := a.do("GET", "/v1/sessions/gated/decisions", "", http.StatusOK)["decisions"].([]any)
	if float64(len(decs)) != admitted {
		t.Fatalf("%d decisions for %v admitted jobs", len(decs), admitted)
	}
	named := map[float64]bool{}
	positional := true
	for i, d := range decs {
		d := d.(map[string]any)
		job, org := d["job"].(float64), d["org"].(float64)
		if want, ok := orgOf[job]; !ok || want != org || named[job] {
			t.Fatalf("decision %d names job %v of organization %v: submitted %v (org %v), named before %v", i, job, org, ok, want, named[job])
		}
		named[job] = true
		positional = positional && job < admitted
	}
	if positional {
		t.Fatal("every decision names a job below the admitted count, as schedule positions would")
	}
}

// deferred is Σ Deferred: the jobs parked on an admission retry.
func deferred(st *metrics.AdmissionStats) int64 {
	var n int64
	for _, d := range st.Deferred {
		n += d
	}
	return n
}

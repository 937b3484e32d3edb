package daemon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/sim"
)

// v4FedFixture reads testdata/ckpt_v4_fed.json — written by 11e0d11,
// the last writer of federation version 4: 60 size-9 jobs handed in at
// east, one a tick, stopped at t=40 with 13 jobs offloaded, 2 migrated
// (tombstones in east's seq_of), 7 parked on a token-bucket retry, 4
// rejected and the exchange cached at 25 — and the session
// configuration that restores it. (internal/fed's own version-4
// fixtures route by a policy no session configuration can name.)
func v4FedFixture(t testing.TB) ([]byte, daemon.SessionConfig) {
	t.Helper()
	data, err := os.ReadFile("testdata/ckpt_v4_fed.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"version":4,`)) || !bytes.Contains(data, []byte(`"next_seq":60,`)) {
		t.Fatal("testdata/ckpt_v4_fed.json is not the version-4 document")
	}
	return data, daemon.SessionConfig{
		Kind:     daemon.KindFederation,
		OrgNames: []string{"alpha", "beta"},
		Policy:   "fednbs-migrate", Staleness: 25, MigrationBudget: 2, Seed: 7,
		Clusters: []daemon.ClusterConfig{
			{Name: "east", Alg: "ref", Machines: []int{1, 1}},
			{Name: "west", Alg: "directcontr", Machines: []int{2, 2}},
		},
		Admission: &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 3, Burst: 2, MaxAttempts: 3},
	}
}

// engineFixture reads internal/engine/testdata/ckpt_<name>_gated.json
// with its organizations renamed to a session's, and the session
// configuration that restores it.
func engineFixture(t testing.TB, name string) ([]byte, daemon.SessionConfig) {
	t.Helper()
	data, err := os.ReadFile("../engine/testdata/ckpt_" + name + "_gated.json")
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.ReplaceAll(bytes.ReplaceAll(data, []byte(`"Name":"A"`), []byte(`"Name":"org0"`)), []byte(`"Name":"B"`), []byte(`"Name":"org1"`))
	return data, daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "ref", Orgs: 2, Machines: 1, Seed: 7,
		Admission: &ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4, Staleness: 20}}
}

// served is everything a client can read off a session, and what its
// next flush would store.
type served struct{ state, decisions, checkpoint string }

// restoreAndServe posts doc at a fresh session of cfg; when it is
// accepted it reads the session, submits one more job, steps, and reads
// again.
func restoreAndServe(t testing.TB, cfg daemon.SessionConfig, doc []byte) (accepted bool, before, after served) {
	t.Helper()
	sess, err := daemon.NewManager().Create("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Restore(doc) != nil {
		return false, served{}, served{}
	}
	read := func() served {
		_, decs := sess.Decisions(0)
		ckpt, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return served{mustJSON(t, sess.State()), mustJSON(t, decs), string(ckpt)}
	}
	before = read()
	ids, err := sess.Submit([]daemon.JobSubmission{{Org: 1, Size: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Advance(timePtr(sess.State().Now + 40)); err != nil {
		t.Fatal(err)
	}
	after = read()
	after.state += mustJSON(t, ids)
	return true, before, after
}

type jsonTree = map[string]any

// coreCheckpoints returns every core checkpoint inside a decoded
// session snapshot: the document itself, a gate envelope's core, or a
// federation's member engines.
func coreCheckpoints(doc jsonTree) []jsonTree {
	if members, ok := doc["members"].([]any); ok {
		var out []jsonTree
		for _, m := range members {
			out = append(out, m.(jsonTree)["engine"].(jsonTree))
		}
		return out
	}
	if core, ok := doc["core"].(jsonTree); ok {
		return []jsonTree{core}
	}
	return []jsonTree{doc}
}

// TestRestoreIgnoresDerivedCopies: every key a checkpoint used to
// repeat from elsewhere in the document — a job's ID, a start's Org, a
// federation's sequence counter, organization names, the ledger's
// placement and accounting columns, all of a logged decision but its
// cluster, a queued control event's class and push number and the
// plane's two counters, a cached exchange summary's cluster, instant,
// capacities and Σ ψ, a running entry's end, a decision schedule's
// running entries and accounts (its log implies both) — can say
// anything, in a document of the current layout (which does not write
// them) as in the committed version-2 engine and version-4 federation
// fixtures and the version-3 core fixtures (which do): the restore
// answers the same, and /state, /decisions, the next checkpoint and the
// next submit's sequence number are byte for byte those of the clean
// document. (At 11e0d11 a posted "Org":99 was served by /decisions,
// next_seq 2 handed the next job a sequence number already routed,
// ledger.routed of 7s made /state report more offloaded jobs than
// exist, and a decision's org was served as written; at f912fcb a
// cached summary's "capacity":0 kept every later job at its origin.)
func TestRestoreIgnoresDerivedCopies(t *testing.T) {
	sevens := func(n int) []any {
		row := make([]any, n)
		for i := range row {
			row[i] = 7
		}
		return row
	}
	matrix := func(n int) []any {
		rows := make([]any, n)
		for i := range rows {
			rows[i] = sevens(n)
		}
		return rows
	}
	federation := func(doc jsonTree) bool { return doc["members"] != nil }
	ledgerKey := func(key string, junk func(n int) any) func(jsonTree) bool {
		return func(doc jsonTree) bool {
			if !federation(doc) {
				return false
			}
			doc["ledger"].(jsonTree)[key] = junk(len(doc["members"].([]any)))
			return true
		}
	}
	// ctrlBlock is the control plane's state inside a gated document.
	ctrlBlock := func(doc jsonTree) (block, queue jsonTree, events []any) {
		block, _ = doc["ctrl"].(jsonTree)
		if block != nil {
			queue = block["queue"].(jsonTree)
			events, _ = queue["events"].([]any)
		}
		return block, queue, events
	}
	eventKey := func(key string, junk any) func(jsonTree) bool {
		return func(doc jsonTree) bool {
			_, _, events := ctrlBlock(doc)
			for _, e := range events {
				e.(jsonTree)[key] = junk
			}
			return len(events) > 0
		}
	}
	summaryKey := func(key string, junk any) func(jsonTree) bool {
		return func(doc jsonTree) bool {
			sums, _ := doc["ex_sums"].([]any)
			if len(sums) < 2 {
				return false
			}
			sums[1].(jsonTree)[key] = junk
			return true
		}
	}
	// decisionKey overwrites key on every decision schedule — the cluster
	// state that carries a log — whatever it stored there.
	decisionKey := func(key string, junk any) func(jsonTree) bool {
		return func(doc jsonTree) bool {
			n := 0
			for _, cp := range coreCheckpoints(doc) {
				for _, c := range cp["clusters"].([]any) {
					if c := c.(jsonTree); c["starts"] != nil {
						c[key] = junk
						n++
					}
				}
			}
			return n > 0
		}
	}
	doctorings := map[string]func(jsonTree) bool{
		"ctrl.queue.events[].id":   eventKey("id", 424242),
		"ctrl.queue.events[].prio": eventKey("prio", 7),
		"ctrl.queue.next_id": func(doc jsonTree) bool {
			_, queue, _ := ctrlBlock(doc)
			if queue != nil {
				queue["next_id"] = -5
			}
			return queue != nil
		},
		"ctrl.next_seq": func(doc jsonTree) bool {
			block, _, _ := ctrlBlock(doc)
			if block != nil {
				block["next_seq"] = 2
			}
			return block != nil
		},
		"ex_sums[1].cluster":      summaryKey("cluster", 0),
		"ex_sums[1].now":          summaryKey("now", 123456),
		"ex_sums[1].capacity":     summaryKey("capacity", 0),
		"ex_sums[1].org_capacity": summaryKey("org_capacity", []any{9, 9, 9}),
		"ex_sums[1].value":        summaryKey("value", -77),
		"jobs[].ID": func(doc jsonTree) bool {
			for _, cp := range coreCheckpoints(doc) {
				jobs, _ := cp["jobs"].([]any) // null where nothing was fed
				for _, j := range jobs {
					j.(jsonTree)["ID"] = 424242
				}
			}
			return true
		},
		"starts[].Org": func(doc jsonTree) bool {
			for _, cp := range coreCheckpoints(doc) {
				for _, c := range cp["clusters"].([]any) {
					starts, _ := c.(jsonTree)["starts"].([]any)
					for _, s := range starts {
						s.(jsonTree)["Org"] = 99
					}
				}
			}
			return true
		},
		"running[].end": func(doc jsonTree) bool {
			n := 0
			for _, cp := range coreCheckpoints(doc) {
				for _, c := range cp["clusters"].([]any) {
					running, _ := c.(jsonTree)["running"].([]any)
					for _, r := range running {
						r.(jsonTree)["end"] = -424242
						n++
					}
				}
			}
			return n > 0
		},
		"decision schedule's running":  decisionKey("running", []any{jsonTree{"job": 0, "machine": 0, "start": 0, "end": 1}, jsonTree{"job": 99}}),
		"decision schedule's org_acct": decisionKey("org_acct", []any{jsonTree{"U": 7, "S": -7}}),
		"decision schedule's own_acct": decisionKey("own_acct", []any{}),
		"next_seq":                     func(doc jsonTree) bool { doc["next_seq"] = 2; return federation(doc) },
		"orgs":                         func(doc jsonTree) bool { doc["orgs"] = []any{"mallory", 7}; return federation(doc) },
		"decisions[].{seq,org,machine,at}": func(doc jsonTree) bool {
			if !federation(doc) {
				return false
			}
			if doc["decisions"] == nil { // the current layout: a log nobody asked for
				doc["decisions"] = []any{jsonTree{"cluster": 1}, jsonTree{"cluster": 0}}
			}
			for _, d := range doc["decisions"].([]any) {
				d := d.(jsonTree)
				d["seq"], d["org"], d["machine"], d["at"] = 42, 42, -7, 123456
			}
			return true
		},
		"ledger.clusters":    ledgerKey("clusters", func(int) any { return 9 }),
		"ledger.orgs":        ledgerKey("orgs", func(int) any { return 9 }),
		"ledger.routed":      ledgerKey("routed", func(n int) any { return matrix(n) }),
		"ledger.routed_work": ledgerKey("routed_work", func(n int) any { return matrix(n) }),
		"ledger.fed":         ledgerKey("fed", func(n int) any { return sevens(n) }),
		"ledger.migrations":  ledgerKey("migrations", func(int) any { return 77 }),
		"ledger.psi":         ledgerKey("psi", func(n int) any { return matrix(n) }),
		"ledger.value":       ledgerKey("value", func(n int) any { return sevens(n) }),
		"ledger.executed":    ledgerKey("executed", func(n int) any { return sevens(n + 1) }),
	}

	type document struct {
		name string
		cfg  daemon.SessionConfig
		data []byte
	}
	docs := []document{
		{"current single", gatedSingleCfg(), checkpointOf(t, gatedSingleCfg(), overloadJobs(0), 30)},
		{"current federation", gatedMigratingFedCfg(), checkpointOf(t, gatedMigratingFedCfg(), overloadJobs(0), 30)},
	}
	docs = append(docs, document{"current stale least-loaded federation", staleLoadFedCfg(), checkpointOf(t, staleLoadFedCfg(), overloadJobs(0), 30)})
	// Jobs of size 9 every 2 ticks outgrow each organization's own
	// machines, so its hypothetical schedules queue and are written in
	// full, running entries and all.
	var saturating []daemon.JobSubmission
	for _, j := range overloadJobs(0) {
		j.Size = 9
		saturating = append(saturating, j)
	}
	docs = append(docs, document{"current saturated single", singleCfg(), checkpointOf(t, singleCfg(), saturating, 30)})
	v2, v2Cfg := engineFixture(t, "v2")
	docs = append(docs, document{"engine version-2 fixture", v2Cfg, v2})
	v4, v4Cfg := v4FedFixture(t)
	docs = append(docs, document{"federation version-4 fixture", v4Cfg, v4})
	applied := map[string]int{}
	defer func() {
		// A decision schedule's keys meet the gated single session and both
		// current federations; a running entry's end the saturated single
		// session and both old fixtures (the other current documents'
		// hypothetical schedules are their release-start schedules at 30,
		// written without running entries, and the federations' schedules
		// run nothing unlogged).
		for key := range doctorings {
			want := 1
			switch {
			case strings.HasPrefix(key, "ctrl."):
				want = 4
			case strings.HasPrefix(key, "decision schedule's"):
				want = 3
			case key == "running[].end":
				want = 3
			}
			if applied[key] < want {
				t.Errorf("%s was doctored in %d documents, want at least %d", key, applied[key], want)
			}
		}
	}()
	for _, doc := range docs {
		ok, cleanBefore, cleanAfter := restoreAndServe(t, doc.cfg, doc.data)
		if !ok {
			t.Fatalf("%s: the clean document is refused", doc.name)
		}
		if len(cleanBefore.decisions) < len(`[{}]`) {
			t.Fatalf("%s: the document logs no decision: %s", doc.name, cleanBefore.decisions)
		}
		for key, doctor := range doctorings {
			var tree jsonTree
			dec := json.NewDecoder(bytes.NewReader(doc.data))
			dec.UseNumber() // keep int64s exact through the round trip
			if err := dec.Decode(&tree); err != nil {
				t.Fatal(err)
			}
			if !doctor(tree) {
				continue // a federation's key, a single session's document
			}
			applied[key]++
			ok, before, after := restoreAndServe(t, doc.cfg, []byte(mustJSON(t, tree)))
			switch {
			case !ok:
				t.Errorf("%s: refused over a doctored %s", doc.name, key)
			case before != cleanBefore:
				t.Errorf("%s: a doctored %s was read:\n%s\n%s\nwant\n%s\n%s", doc.name, key, before.state, before.decisions, cleanBefore.state, cleanBefore.decisions)
			case after != cleanAfter:
				t.Errorf("%s: a doctored %s surfaced after the next submit and advance:\n%s\nwant\n%s", doc.name, key, after.state, cleanAfter.state)
			}
		}
	}

	// The committed version-3 core checkpoints run related machines no
	// session configuration can build: restored as engines, with the same
	// rows for what a decision schedule and a running entry no longer
	// store, each serves, re-captures and continues as the clean one.
	for key, alg := range map[string]core.StepperAlgorithm{
		"ref":        core.RefAlgorithm{},
		"rand":       core.RandAlgorithm{Samples: 12},
		"nbs":        core.NbsAlgorithm{},
		"roundrobin": core.FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }),
	} {
		data, err := os.ReadFile("../core/testdata/ckpt_v3_" + key + ".json")
		if err != nil {
			t.Fatal(err)
		}
		serve := func(doc []byte) string {
			e, err := engine.Restore(alg, doc)
			if err != nil {
				t.Fatalf("v3 %s: %v", key, err)
			}
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Step(200); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%s\n%+v\n%+v", snap, e.Decisions(), e.Result())
		}
		clean := serve(data)
		for _, name := range []string{"running[].end", "decision schedule's running", "decision schedule's org_acct", "decision schedule's own_acct"} {
			var tree jsonTree
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.UseNumber()
			if err := dec.Decode(&tree); err != nil {
				t.Fatal(err)
			}
			if !doctorings[name](tree) {
				t.Fatalf("v3 %s: nothing to doctor for %s", key, name)
			}
			if got := serve([]byte(mustJSON(t, tree))); got != clean {
				t.Errorf("v3 %s: a doctored %s was read:\n%s\nwant\n%s", key, name, got, clean)
			}
		}
	}
}

// mustSession restores doc into a fresh session of cfg.
func mustSession(t testing.TB, cfg daemon.SessionConfig, doc []byte) *daemon.Session {
	t.Helper()
	sess, err := daemon.NewManager().Create("s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Restore(doc); err != nil {
		t.Fatal(err)
	}
	return sess
}

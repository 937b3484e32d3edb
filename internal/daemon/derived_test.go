package daemon_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/utility"
)

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
// them), and in the committed core checkpoints: the restore answers the
// same, and /state, /decisions, the next checkpoint and the next
// submit's sequence number are byte for byte those of the clean
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
	applied := map[string]int{}
	defer func() {
		// A control block's keys meet both gated documents; a decision
		// schedule's the gated single session and both federations; a
		// running entry's end the saturated single session alone (the other
		// documents' hypothetical schedules are their release-start
		// schedules at 30, written without running entries, and the
		// federations' schedules run nothing unlogged).
		for key := range doctorings {
			want := 1
			switch {
			case strings.HasPrefix(key, "ctrl."):
				want = 2
			case strings.HasPrefix(key, "decision schedule's"):
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

	// The committed core checkpoints run related machines no session
	// configuration can build: restored as engines, with the same rows for
	// what a decision schedule and a running entry do not store, each
	// serves, re-captures and continues as the clean one.
	for key, alg := range map[string]core.StepperAlgorithm{
		"ref":        core.RefAlgorithm{},
		"rand":       core.RandAlgorithm{Samples: 12},
		"nbs":        core.NbsAlgorithm{},
		"roundrobin": core.FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }),
	} {
		data, err := os.ReadFile(fmt.Sprintf("../core/testdata/ckpt_v%d_%s.json", core.CheckpointVersion, key))
		if err != nil {
			t.Fatal(err)
		}
		serve := func(doc []byte) string {
			e, err := engine.Restore(alg, doc)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
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
				continue // the round-robin set keeps no hypothetical schedule: nothing runs unlogged
			}
			applied[name]++
			if got := serve([]byte(mustJSON(t, tree))); got != clean {
				t.Errorf("%s: a doctored %s was read:\n%s\nwant\n%s", key, name, got, clean)
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

// retiredGateRun is the run the engine's retired admission-gate
// envelopes held, as a gated single session: a saturated REF cluster,
// org0 with its one machine and org1 with none, behind a backpressure
// gate that reads a load view up to 20 ticks old, handed 40 jobs, one
// every 2 ticks. At 33 six admissions wait on their retries and the
// cached view is 13 ticks old.
func retiredGateRun() (daemon.SessionConfig, []daemon.JobSubmission) {
	var jobs []daemon.JobSubmission
	for i := 0; i < 40; i++ {
		jobs = append(jobs, daemon.JobSubmission{Org: i % 2, Size: 4, Release: timePtr(model.Time(2 * i))})
	}
	return daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "ref", Orgs: 2, Machines: 1, Seed: 7,
		Admission: &ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4, Staleness: 20}}, jobs
}

// retiredFedRun is the run the retired version-4 federation document
// held: 60 size-9 jobs handed in at east, one a tick, under
// fednbs-migrate and a token bucket. By 40 jobs have been offloaded,
// migrated, parked on a retry and rejected, and the exchange is cached.
func retiredFedRun() (daemon.SessionConfig, []daemon.JobSubmission) {
	var jobs []daemon.JobSubmission
	for i := 0; i < 60; i++ {
		jobs = append(jobs, daemon.JobSubmission{Org: i % 2, Size: 9, Release: timePtr(model.Time(i))})
	}
	return daemon.SessionConfig{
		Kind:     daemon.KindFederation,
		OrgNames: []string{"alpha", "beta"},
		Policy:   "fednbs-migrate", Staleness: 25, MigrationBudget: 2, Seed: 7,
		Clusters: []daemon.ClusterConfig{
			{Name: "east", Alg: "ref", Machines: []int{1, 1}},
			{Name: "west", Alg: "directcontr", Machines: []int{2, 2}},
		},
		Admission: &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 3, Burst: 2, MaxAttempts: 3},
	}, jobs
}

// gateEnvelope wraps a gated single session's checkpoint the way the
// engine's retired admission gate stored one: its control block, the
// cached view and the member's core checkpoint under a gate version,
// with no version of the document's own.
func gateEnvelope(t testing.TB, snap []byte) []byte {
	t.Helper()
	var cp fed.Checkpoint
	if err := json.Unmarshal(snap, &cp); err != nil || len(cp.Members) != 1 || cp.Admission == nil {
		t.Fatalf("not a gated single session's checkpoint (err %v)", err)
	}
	return []byte(mustJSON(t, jsonTree{
		"gate_version": 1,
		"admission":    cp.Admission,
		"ctrl":         cp.Ctrl,
		"view":         jsonTree{"taken_at": cp.ExAt},
		"core":         cp.Members[0].Engine,
	}))
}

// fullForm returns a gated single session's checkpoint with the first
// hypothetical schedule written as its release-start schedule rewritten
// in full — its members' released jobs still running from their release
// on machines 0, 1, … by (end, job), nothing waiting, and as finished
// work the release-start schedule's plus the stored offset — and its
// first member's finished work then moved by du.
func fullForm(t testing.TB, snap []byte, du int64) []byte {
	t.Helper()
	var cp fed.Checkpoint
	if err := json.Unmarshal(snap, &cp); err != nil || len(cp.Members) != 1 {
		t.Fatalf("not a gated single session's checkpoint (err %v)", err)
	}
	eng := cp.Members[0].Engine
	for i := range eng.Clusters {
		st := &eng.Clusters[i]
		if !st.AtRelease {
			continue
		}
		members := st.Coalition.Members()
		acct := make([]utility.Account, len(members))
		var running []sim.RunEntryState
		for id, j := range eng.Jobs {
			at := slices.Index(members, j.Org)
			switch {
			case at < 0 || j.Release > st.Now:
			case j.Release+j.Size > st.Now:
				running = append(running, sim.RunEntryState{Job: id, Start: j.Release})
			default:
				acct[at].AddWindow(j.Release, j.Release+j.Size)
			}
		}
		end := func(r sim.RunEntryState) model.Time { return r.Start + eng.Jobs[r.Job].Size }
		slices.SortFunc(running, func(a, b sim.RunEntryState) int {
			return cmp.Or(cmp.Compare(end(a), end(b)), cmp.Compare(a.Job, b.Job))
		})
		for m := range running {
			running[m].Machine = m
		}
		for m, off := range st.OrgAcct {
			acct[m].U, acct[m].S = acct[m].U+off.U, acct[m].S+off.S
		}
		acct[0].U += du
		st.AtRelease, st.Waiting, st.Running, st.OrgAcct = false, make([]int, len(members)), running, acct
		return []byte(mustJSON(t, cp))
	}
	t.Fatal("no hypothetical schedule is written as its release-start schedule")
	return nil
}

// Session.Restore reads the layouts the daemon writes, and the
// federation layout before the current one, alone (DESIGN.md §7.1): a
// federation checkpoint with its version edited down by two, a single
// session's core checkpoint with its version edited down by one, and
// the envelope the engine's retired admission gate stored, are refused
// with an error naming the versions restore reads, and leave the
// session as it was.
func TestSessionRefusesRetiredLayouts(t *testing.T) {
	gateCfg, gateJobs := retiredGateRun()
	gated := checkpointOf(t, gateCfg, gateJobs, 33)
	single := checkpointOf(t, singleCfg(), overloadJobs(0), 30)
	down := func(snap []byte, version, by int) []byte {
		return bytes.Replace(snap, []byte(fmt.Sprintf(`{"version":%d,`, version)), []byte(fmt.Sprintf(`{"version":%d,`, version-by)), 1)
	}
	fedWant := func(v int) string {
		return fmt.Sprintf("fed: restore: checkpoint version %d, want %d or %d", v, fed.CheckpointVersion-1, fed.CheckpointVersion)
	}
	for _, tc := range []struct {
		name string
		cfg  daemon.SessionConfig
		doc  []byte
		want string
	}{
		{"federation version", gateCfg, down(gated, fed.CheckpointVersion, 2), fedWant(fed.CheckpointVersion - 2)},
		{"core version", singleCfg(), down(single, core.CheckpointVersion, 1), fmt.Sprintf("core: restore: checkpoint version %d, want %d", core.CheckpointVersion-1, core.CheckpointVersion)},
		{"gate envelope", gateCfg, gateEnvelope(t, gated), fedWant(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := daemon.NewManager().Create("s", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := mustJSON(t, sess.State())
			if err := sess.Restore(tc.doc); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore answered %v, want an error mentioning %q", err, tc.want)
			}
			if after := mustJSON(t, sess.State()); after != before {
				t.Fatalf("a refused restore changed the session:\n%s\n%s", before, after)
			}
		})
	}
}

// A hypothetical schedule's finished work is never negative in either
// form a capture writes: the gated single session's checkpoint with a
// release-start schedule rewritten in full restores, re-capturing the
// clean document, and with its first member's finished work below zero
// is refused. (It was accepted once, and the session's own re-capture,
// compacted, was then refused: restore was no fixed point.)
func TestSessionRefusesNegativeFinishedWork(t *testing.T) {
	clean := checkpointOf(t, gatedSingleCfg(), overloadJobs(0), 30)
	sess := mustSession(t, gatedSingleCfg(), fullForm(t, clean, 0))
	if got, err := sess.Checkpoint(); err != nil || !bytes.Equal(got, clean) {
		t.Fatalf("the full form re-captures as\n%s\nwant\n%s\n(err %v)", got, clean, err)
	}
	sess, err := daemon.NewManager().Create("s", gatedSingleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Restore(fullForm(t, clean, -1<<20)); err == nil || !strings.Contains(err.Error(), "finished work") {
		t.Fatalf("restore answered %v, want a refusal of negative finished work", err)
	}
}

package daemon_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/daemon"
	"repro/internal/model"
)

// gatedMigratingFedCfg is fedCfg with everything a federation
// checkpoint can carry switched on: stale gossip (a cached exchange), a
// migrating ledger policy (tombstones, the routed-work matrix) and a
// token-bucket control plane (queued events, bucket levels).
func gatedMigratingFedCfg() daemon.SessionConfig {
	cfg := fedCfg()
	cfg.Policy = "fednbs-migrate"
	cfg.Staleness = 25
	cfg.MigrationBudget = 4
	cfg.Admission = &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 8, Burst: 2, MaxAttempts: 3}
	return cfg
}

// editNode returns the decoded JSON tree v with its n-th value — in
// document order, object keys sorted — replaced by edit's result, and
// reports how many values it walked past on the way (so a first call
// with n past the end counts the tree).
func editNode(v any, n int, edit func(any) any) (any, int) {
	if n == 0 {
		return edit(v), 1
	}
	seen := 1
	walk := func(child any) any {
		child, m := editNode(child, n-seen, edit)
		seen += m
		return child
	}
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if seen > n {
				break
			}
			x[k] = walk(x[k])
		}
	case []any:
		for i := 0; i < len(x) && seen <= n; i++ {
			x[i] = walk(x[i])
		}
	}
	return v, seen
}

// benchShapes are the four session shapes the benchmark serves
// (bench/workloads.go), each with a workload that keeps its machines
// busy at the checkpoint.
func benchShapes() (cfgs []daemon.SessionConfig, jobs [][]daemon.JobSubmission) {
	fedGated := daemon.SessionConfig{Kind: daemon.KindFederation, Policy: "fednbs-migrate", Staleness: 25, Seed: 3,
		Admission: &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 3, Period: 10, Burst: 6, MaxAttempts: 3}}
	for o := 0; o < 6; o++ {
		fedGated.OrgNames = append(fedGated.OrgNames, fmt.Sprintf("org%d", o))
	}
	for c := 0; c < 8; c++ {
		machines := make([]int, 6)
		for o := range machines {
			if (o+c)%3 != 0 {
				machines[o] = 1
			}
		}
		fedGated.Clusters = append(fedGated.Clusters, daemon.ClusterConfig{Name: fmt.Sprintf("m%d", c), Alg: "nbs", Machines: machines})
	}
	cfgs = []daemon.SessionConfig{
		{Kind: daemon.KindSingle, Alg: "fairshare", Orgs: 3, Machines: 6, Seed: 3},
		{Kind: daemon.KindSingle, Alg: "ref", RefDriver: "heap", Orgs: 8, Machines: 16, Split: "zipf", Seed: 3},
		{Kind: daemon.KindSingle, Alg: "rand", RandSamples: 15, Orgs: 8, Machines: 16, Split: "zipf", Seed: 3},
		fedGated,
		{Kind: daemon.KindSingle, Alg: "directcontr", Orgs: 4, Machines: 8, Split: "uniform", Seed: 3},
	}
	for _, cfg := range cfgs {
		orgs, clusters := max(cfg.Orgs, len(cfg.OrgNames)), max(1, len(cfg.Clusters))
		var batch []daemon.JobSubmission
		for n := 0; n < 48; n++ {
			batch = append(batch, daemon.JobSubmission{Cluster: n % clusters, Org: n % orgs, Size: model.Time(5 + n%9), Release: timePtr(model.Time(n / 2))})
		}
		jobs = append(jobs, batch)
	}
	return cfgs, jobs
}

// FuzzSessionRestore posts doctored checkpoints at a session: numbers
// overwritten, booleans flipped, strings blanked, arrays cut short or
// stretched — of the four session shapes the benchmark serves, a gated
// single session (a one-member federation), a gated, stale, migrating
// federation, a round-robin single session, the runs the retired gate envelopes and version-4
// federation held (retiredGateRun, retiredFedRun) in the current
// layout, and the two documents f912fcb restored and then could not
// serve; and, refused undoctored, the gated documents with a control
// queue due before the clock, the gated single session with negative
// finished work in a full-form release-start schedule, and the retired
// gate envelope. A doctored document is refused, or it is a fixed
// point: the accepted session's checkpoint, posted to a fresh session
// of the same configuration, is accepted and both answer byte-equal
// /state and /decisions — a wrong-but-well-shaped number is believed
// only where it is the one record of its fact. What is accepted must
// then serve: a submit, an advance to the next event, an advance 64
// ticks on and a checkpoint all succeed.
func FuzzSessionRestore(f *testing.F) {
	cfgs, jobs := benchShapes()
	gatedOnes := []int{len(cfgs), len(cfgs) + 1} // the gated single session and federation appended next
	cfgs, jobs = append(cfgs, gatedSingleCfg(), gatedMigratingFedCfg()), append(jobs, overloadJobs(0), overloadJobs(0))
	// A round-robin single session, with both organizations waiting on
	// its one machine: its rotation cursor is the policy state a core
	// checkpoint carries.
	var contested []daemon.JobSubmission
	for n := 0; n < 8; n++ {
		contested = append(contested, daemon.JobSubmission{Org: n % 2, Size: 6})
	}
	roundRobin := len(cfgs)
	cfgs = append(cfgs, daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "roundrobin", Orgs: 2, Machines: 1, Seed: 3})
	jobs = append(jobs, contested)
	var seeds [][]byte
	for i, cfg := range cfgs {
		seeds = append(seeds, checkpointOf(f, cfg, jobs[i], 30))
	}
	// The runs the retired documents held stay fuzzed in the current
	// layout: retries parked and a view cached mid-period in a gated
	// single session; offloads, migrations, retries and rejections in a
	// two-member federation.
	gateCfg, gateJobs := retiredGateRun()
	fedRunCfg, fedRunJobs := retiredFedRun()
	gateSnap := checkpointOf(f, gateCfg, gateJobs, 33)
	cfgs = append(cfgs, gateCfg, fedRunCfg)
	seeds = append(seeds, gateSnap, checkpointOf(f, fedRunCfg, fedRunJobs, 40))
	// So do the two documents that restored at f912fcb and then did not
	// serve: a cached summary that says its cluster has no capacity (now
	// not read), and a control queue due before the clock (now refused;
	// an edit can move it back).
	noCapacity := regexp.MustCompile(`("ex_sums":\[\{[^}]*\},\{)`).ReplaceAll(checkpointOf(f, staleLoadFedCfg(), overloadJobs(0), 30), []byte(`${1}"capacity":0,`))
	if !bytes.Contains(noCapacity, []byte(`"capacity":0`)) {
		f.Fatal("the stale federation's checkpoint caches no second summary to doctor")
	}
	cfgs, seeds = append(cfgs, staleLoadFedCfg()), append(seeds, noCapacity)
	refused := len(cfgs)
	at := regexp.MustCompile(`("queue":\{"events":\[\{"at":)\d+`)
	for _, which := range gatedOnes {
		cfgs, seeds = append(cfgs, cfgs[which]), append(seeds, at.ReplaceAll(seeds[which], []byte("${1}3")))
	}
	// Refused too: negative finished work in a release-start schedule
	// written in full, and the retired gate envelope.
	negative := fullForm(f, checkpointOf(f, gatedSingleCfg(), overloadJobs(0), 30), -1<<20)
	cfgs, seeds = append(cfgs, gatedSingleCfg(), gateCfg), append(seeds, negative, gateEnvelope(f, gateSnap))
	for which := range cfgs {
		if which >= refused {
			if sess, _ := daemon.NewManager().Create("s", cfgs[which]); sess.Restore(seeds[which]) == nil {
				f.Fatalf("seed %d, refused undoctored, restores", which)
			}
		} else if _, err := readBack(mustSession(f, cfgs[which], seeds[which])); err != nil {
			f.Fatalf("seed %d is not a fixed point undoctored: %v", which, err)
		}
		f.Add(uint8(which), []byte{})
		f.Add(uint8(which), []byte{0, 40, 0, 0, 99, 1, 7, 2, 0, 0})
		f.Add(uint8(which), []byte{3, 200, 1, 255, 255, 0, 90, 0, 0, 1, 2, 2, 3, 0, 0})
	}
	// The edit that once restored and then panicked the next contested
	// dispatch: the rotation cursor set to −7.
	cursor := nodeOf(f, seeds[roundRobin], `"policy":{"next":-7}`)
	f.Add(uint8(roundRobin), []byte{byte(cursor >> 8), byte(cursor), 0, 0xff, 0xf9})
	f.Fuzz(func(t *testing.T, which uint8, edits []byte) {
		cfg, seed := cfgs[int(which)%len(cfgs)], seeds[int(which)%len(cfgs)]
		var doc any
		dec := json.NewDecoder(bytes.NewReader(seed))
		dec.UseNumber() // keep int64s exact through the round trip
		if err := dec.Decode(&doc); err != nil {
			t.Fatal(err)
		}
		// One edit is five bytes: which value, how, and a small operand.
		for ; len(edits) >= 5; edits = edits[5:] {
			how, operand := edits[2], int64(int16(binary.BigEndian.Uint16(edits[3:])))
			_, total := editNode(doc, math.MaxInt, nil)
			doc, _ = editNode(doc, int(binary.BigEndian.Uint16(edits))%total, func(v any) any {
				switch x := v.(type) {
				case json.Number:
					if how%2 == 1 {
						operand <<= 40
					}
					return json.Number(strconv.FormatInt(operand, 10))
				case bool:
					return !x
				case string:
					return ""
				case []any:
					n := int(uint16(operand)) % (len(x) + 3)
					for len(x) < n {
						if len(x) == 0 {
							x = append(x, json.Number("0"))
						} else {
							x = append(x, x[len(x)-1])
						}
					}
					return x[:n]
				}
				return v
			})
		}
		posted, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := daemon.NewManager().Create("fuzzed", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Restore(posted); err != nil {
			return
		}
		if _, err := readBack(sess); err != nil {
			t.Fatal(err)
		}
		// An accepted document is a session like any other: it takes the
		// next jobs and steps through them.
		if _, err := sess.Submit([]daemon.JobSubmission{{Org: 0, Size: 3}, {Cluster: 1, Org: 1, Size: 2}}); err != nil {
			t.Fatalf("an accepted session refuses a submit: %v\n%s", err, posted)
		}
		if _, _, err := sess.Advance(nil); err != nil {
			t.Fatalf("an accepted session fails its next event: %v\n%s", err, posted)
		}
		if _, _, err := sess.Advance(timePtr(sess.State().Now + 64)); err != nil {
			t.Fatalf("an accepted session fails an advance: %v\n%s", err, posted)
		}
		sess.State()
		if _, err := sess.Checkpoint(); err != nil {
			t.Fatalf("an accepted session does not checkpoint after serving: %v\n%s", err, posted)
		}
	})
}

// nodeOf returns the index, in editNode's order, of the value of doc
// that written as −7 makes doc hold want.
func nodeOf(t testing.TB, doc []byte, want string) int {
	t.Helper()
	for n := 0; ; n++ {
		var tree any
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.UseNumber()
		if err := dec.Decode(&tree); err != nil {
			t.Fatal(err)
		}
		edited, total := editNode(tree, n, func(any) any { return json.Number("-7") })
		if n >= total {
			t.Fatalf("no value of the document written as -7 makes it hold %s", want)
		}
		if out, _ := json.Marshal(edited); bytes.Contains(out, []byte(want)) {
			return n
		}
	}
}

// readBack posts sess's own checkpoint at a fresh session of its
// configuration and returns that session: it must be accepted, and must
// answer /state and /decisions byte for byte as sess does.
func readBack(sess *daemon.Session) (*daemon.Session, error) {
	ckpt, err := sess.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("an accepted session does not checkpoint: %w", err)
	}
	again, err := daemon.NewManager().Create(sess.ID(), sess.Config())
	if err != nil {
		return nil, err
	}
	if err := again.Restore(ckpt); err != nil {
		return nil, fmt.Errorf("an accepted session's own checkpoint is refused: %w\n%s", err, ckpt)
	}
	for name, read := range map[string]func(*daemon.Session) any{
		"/state":     func(s *daemon.Session) any { return s.State() },
		"/decisions": func(s *daemon.Session) any { _, decs := s.Decisions(0); return decs },
	} {
		a, _ := json.Marshal(read(sess))
		b, _ := json.Marshal(read(again))
		if !bytes.Equal(a, b) {
			return nil, fmt.Errorf("%s of an accepted session and of its checkpoint read back differ:\n%s\n%s", name, a, b)
		}
	}
	return again, nil
}

package daemon_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/daemon"
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

// FuzzSessionRestore posts doctored checkpoints at a session: numbers
// overwritten, booleans flipped, strings blanked, arrays cut short or
// stretched. A wrong-but-well-shaped number may be accepted; whatever
// is accepted must then serve a submit, two advances, a state read and
// a checkpoint without crashing the process.
func FuzzSessionRestore(f *testing.F) {
	cfgs := []daemon.SessionConfig{gatedSingleCfg(), gatedMigratingFedCfg()}
	var seeds [][]byte
	for _, cfg := range cfgs {
		seeds = append(seeds, checkpointOf(f, cfg, overloadJobs(0), 30))
	}
	// Old documents stay fuzzed: the committed version-1 gated engine
	// envelope, under the session configuration that restores it.
	v1, err := os.ReadFile("../engine/testdata/ckpt_parent_gated.json")
	if err != nil {
		f.Fatal(err)
	}
	v1 = bytes.ReplaceAll(bytes.ReplaceAll(v1, []byte(`"Name":"A"`), []byte(`"Name":"org0"`)), []byte(`"Name":"B"`), []byte(`"Name":"org1"`))
	v1Cfg := daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "ref", Orgs: 2, Machines: 1, Seed: 7,
		Admission: &ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4, Staleness: 20}}
	if sess, err := daemon.NewManager().Create("v1", v1Cfg); err != nil {
		f.Fatal(err)
	} else if err := sess.Restore(v1); err != nil {
		f.Fatalf("the version-1 seed no longer restores undoctored: %v", err)
	}
	cfgs, seeds = append(cfgs, v1Cfg), append(seeds, v1)
	for which := range cfgs {
		f.Add(uint8(which), []byte{})
		f.Add(uint8(which), []byte{0, 40, 0, 0, 99, 1, 7, 2, 0, 0})
		f.Add(uint8(which), []byte{3, 200, 1, 255, 255, 0, 90, 0, 0, 1, 2, 2, 3, 0, 0})
	}
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
		// Errors are fine from here on — a doctored run may refuse to go
		// on — but every call has to come back.
		_, _ = sess.Submit([]daemon.JobSubmission{{Org: 0, Size: 3}, {Cluster: 1, Org: 1, Size: 2}})
		_, _, _ = sess.Advance(nil)
		_, _, _ = sess.Advance(timePtr(sess.State().Now + 64))
		sess.State()
		_, _ = sess.Checkpoint()
	})
}

package daemon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/fed"
)

// TestDirStoreAtomicSave: a save lands as exactly one complete
// envelope — no temp files left behind, and the content round-trips.
func TestDirStoreAtomicSave(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st := daemon.NewDirStore(dir)
	env := daemon.Envelope{ID: "a", Config: singleCfg(), Snapshot: json.RawMessage(`{"v":1}`)}
	if err := st.Save(env); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(env); err != nil { // overwrite in place
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "a.session.json" {
		t.Fatalf("store directory holds %v, want exactly a.session.json", entries)
	}
	envs, quarantined, err := st.Load()
	if err != nil || len(quarantined) != 0 || len(envs) != 1 {
		t.Fatalf("load: envs=%d quarantined=%v err=%v", len(envs), quarantined, err)
	}
	if envs[0].ID != "a" || string(envs[0].Snapshot) != `{"v":1}` {
		t.Fatalf("loaded envelope %+v", envs[0])
	}
}

// TestLoadQuarantinesCorruptEnvelope is the crash-during-flush
// simulation: a truncated envelope on disk (the artifact a bare
// WriteFile crash leaves) no longer poisons the boot — every healthy
// session is restored, the corrupt file is renamed aside and reported.
func TestLoadQuarantinesCorruptEnvelope(t *testing.T) {
	mgr := daemon.NewManager()
	for _, id := range []string{"a-first", "m-corrupt", "z-last"} {
		s, err := mgr.Create(id, singleCfg())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit([]daemon.JobSubmission{{Org: 0, Size: 5}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Advance(timePtr(10)); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "ckpts")
	if _, err := mgr.FlushTo(daemon.NewDirStore(dir), false); err != nil {
		t.Fatal(err)
	}
	// Simulate the mid-write crash: truncate the middle envelope so
	// every alphabetically-later session used to be lost with it, and
	// leave a stale temp file from an interrupted atomic write.
	corrupt := filepath.Join(dir, "m-corrupt.session.json")
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-z-last-123"), []byte("partial"), 0o600); err != nil {
		t.Fatal(err)
	}

	reborn := daemon.NewManager()
	ids, quarantined, err := reborn.LoadStore(daemon.NewDirStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[a-first z-last]" {
		t.Fatalf("restored %v, want the two healthy sessions", ids)
	}
	if len(quarantined) != 1 || !strings.Contains(quarantined[0].ID, "m-corrupt") {
		t.Fatalf("quarantined %v, want the corrupt envelope", quarantined)
	}
	for _, id := range []string{"a-first", "z-last"} {
		got, ok := reborn.Get(id)
		if !ok {
			t.Fatalf("session %s not restored", id)
		}
		want, _ := mgr.Get(id)
		if !sameState(got.State(), want.State()) {
			t.Fatalf("session %s state drifted across the crash", id)
		}
	}
	// The corrupt envelope was renamed aside, the temp file swept, so
	// the next boot sees a clean directory.
	if _, err := os.Stat(corrupt + ".corrupt"); err != nil {
		t.Fatalf("corrupt envelope not renamed: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("stale temp file %s not swept", e.Name())
		}
	}
	if ids2, quarantined2, err := daemon.NewManager().LoadStore(daemon.NewDirStore(dir)); err != nil || len(ids2) != 2 || len(quarantined2) != 0 {
		t.Fatalf("second boot: ids=%v quarantined=%v err=%v", ids2, quarantined2, err)
	}
}

// TestLoadQuarantinesUnrestorableEnvelope: an envelope that parses but
// cannot be rebuilt (unknown algorithm, a snapshot its config does not
// describe) is quarantined the same way.
func TestLoadQuarantinesUnrestorableEnvelope(t *testing.T) {
	dir := t.TempDir()
	st := daemon.NewDirStore(dir)
	bad := singleCfg()
	bad.Alg = "no-such-algorithm"
	if err := st.Save(daemon.Envelope{ID: "bad", Config: bad, Snapshot: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(daemon.Envelope{ID: "noid", Config: singleCfg(), Snapshot: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	// Blank the second envelope's id: restoring it would auto-assign a
	// fresh session id, silently renaming the session.
	path := filepath.Join(dir, "noid.session.json")
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), `"id":"noid"`, `"id":""`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	// A federation checkpoint in the retired version-3 layout is not
	// loaded on a guess: it is set aside like any other unrestorable one.
	fleet, err := daemon.NewManager().Create("old", fedCfg())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := fleet.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	v3 := bytes.Replace(snap, []byte(fmt.Sprintf(`{"version":%d,`, fed.CheckpointVersion)), []byte(`{"version":3,`), 1)
	if bytes.Equal(v3, snap) {
		t.Fatalf("federation checkpoint does not open with its version: %.40s", snap)
	}
	if err := st.Save(daemon.Envelope{ID: "old", Config: fedCfg(), Snapshot: v3}); err != nil {
		t.Fatal(err)
	}
	// An envelope whose snapshot contradicts its config's organizations
	// and machines, or declares more organizations than model.MaxOrgs
	// (which used to panic the whole boot), is set aside as well.
	wide, err := daemon.NewManager().Create("wide", wideCfg())
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = wide.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(daemon.Envelope{ID: "swapped", Config: narrowCfg(), Snapshot: snap}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(daemon.Envelope{ID: "huge", Config: wideCfg(), Snapshot: tooManyOrgs(t, snap)}); err != nil {
		t.Fatal(err)
	}
	// So is a federation envelope whose member snapshots run another
	// machine grid than its config (behind "machines" rows that claim the
	// config's), or whose snapshot gossips at another staleness.
	for id, cfg := range map[string]daemon.SessionConfig{"pool": roomyFedCfg(), "pace": staleFedCfg()} {
		other, err := daemon.NewManager().Create(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if snap, err = other.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.Save(daemon.Envelope{ID: id, Config: fedCfg(), Snapshot: forgeMachineRows(t, snap, fedCfg())}); err != nil {
			t.Fatal(err)
		}
	}
	// And one whose control-plane queue or cached exchange would index
	// out of range at the first advance after the boot.
	if err := st.Save(daemon.Envelope{ID: "queue", Config: bucketCfg(), Snapshot: foreignQueueEvent(t)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(daemon.Envelope{ID: "gossip", Config: fairStaleFedCfg(), Snapshot: shortExchangeVectors(t)}); err != nil {
		t.Fatal(err)
	}
	mgr := daemon.NewManager()
	ids, quarantined, err := mgr.LoadStore(daemon.NewDirStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 || len(quarantined) != 9 {
		t.Fatalf("ids=%v quarantined=%v", ids, quarantined)
	}
	for _, q := range quarantined {
		if why := map[string]string{"pool": "machines", "pace": "staleness", "queue": "queued job", "gossip": "exchange summary"}[q.ID]; !strings.Contains(q.Err.Error(), why) {
			t.Fatalf("%s quarantined for another reason than its %s: %v", q.ID, why, q.Err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "old.session.json.corrupt")); err != nil {
		t.Fatalf("version-3 envelope not quarantined: %v", err)
	}
	if len(mgr.List()) != 0 {
		t.Fatal("quarantined envelopes still created sessions")
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.session.json.corrupt")); err != nil {
		t.Fatalf("unrestorable envelope not quarantined: %v", err)
	}
}

// TestLoadQuarantinesMisnamedEnvelope: an envelope's file name is its
// session id. b.session.json renamed to a.session.json used to boot as
// session b; b's next flush then wrote b.session.json beside it, and at
// the boot after that the stale a-file loaded first, the fresh b-file
// failed with ErrSessionExists and Quarantine("b") set the fresh one
// aside — the stale copy won. The misnamed file is set aside instead.
func TestLoadQuarantinesMisnamedEnvelope(t *testing.T) {
	dir := t.TempDir()
	st := daemon.NewDirStore(dir)
	mgr := daemon.NewManager()
	sess, err := mgr.Create("b", singleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit([]daemon.JobSubmission{{Org: 0, Size: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.FlushTo(st, false); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "a.session.json")
	if err := os.Rename(filepath.Join(dir, "b.session.json"), stale); err != nil {
		t.Fatal(err)
	}
	// The session moves on and is flushed under its own name.
	if _, _, err := sess.Advance(timePtr(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.FlushTo(st, false); err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, sess.State())
	// An envelope without an id is named after it too, and is still no
	// session: restoring it would auto-assign one.
	nameless := strings.Replace(mustJSON(t, daemon.Envelope{ID: "x", Config: singleCfg(), Snapshot: json.RawMessage(`{}`)}), `"id":"x"`, `"id":""`, 1)
	if err := os.WriteFile(filepath.Join(dir, ".session.json"), []byte(nameless), 0o644); err != nil {
		t.Fatal(err)
	}

	boot := daemon.NewManager()
	ids, quarantined, err := boot.LoadStore(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "b" || len(quarantined) != 2 || !strings.Contains(quarantined[1].Err.Error(), `holds session id "b"`) {
		t.Fatalf("booted %v, quarantined %v; want session b, and the nameless and the misnamed file set aside", ids, quarantined)
	}
	if _, err := os.Stat(stale + ".corrupt"); err != nil {
		t.Fatalf("the misnamed envelope was not renamed aside: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "b.session.json")); err != nil {
		t.Fatalf("the fresh envelope did not survive the boot: %v", err)
	}
	got, ok := boot.Get("b")
	if !ok {
		t.Fatal("session b is not in the booted table")
	}
	if state := mustJSON(t, got.State()); state != want {
		t.Fatalf("session b booted from the stale copy:\n%s\nwant\n%s", state, want)
	}
}

// failingStore fails Save for one session id and delegates the rest.
type failingStore struct {
	daemon.CheckpointStore
	failID string
}

func (f failingStore) Save(env daemon.Envelope) error {
	if env.ID == f.failID {
		return fmt.Errorf("injected write failure for %q", env.ID)
	}
	return f.CheckpointStore.Save(env)
}

// TestFlushToContinuesPastFailures: one session failing to flush no
// longer silently skips every remaining session — all are attempted
// and the failure is reported, with the failed session left dirty for
// the next pass.
func TestFlushToContinuesPastFailures(t *testing.T) {
	mgr := daemon.NewManager()
	for _, id := range []string{"a", "b", "c"} {
		if _, err := mgr.Create(id, singleCfg()); err != nil {
			t.Fatal(err)
		}
	}
	inner := daemon.NewDirStore(t.TempDir())
	st := failingStore{CheckpointStore: inner, failID: "b"}
	ids, err := mgr.FlushTo(st, false)
	if err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("flush error %v, want the injected failure for b", err)
	}
	if fmt.Sprint(ids) != "[a c]" {
		t.Fatalf("flushed %v, want the two healthy sessions", ids)
	}
	// The failed session stayed dirty: a dirty-only retry picks up
	// exactly it.
	ids, err = mgr.FlushTo(inner, true)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[b]" {
		t.Fatalf("retry flushed %v, want just b", ids)
	}
}

// TestDirtyFlushRestartByteIdentity reuses the PR 5 load-test session
// shape for the periodic-flush contract: advance, flush dirty, keep a
// reference of the flushed state; a clean dirty pass flushes nothing;
// after more traffic only the touched sessions re-flush; and a manager
// booted from the store is byte-identical to the last flushed states.
func TestDirtyFlushRestartByteIdentity(t *testing.T) {
	mgr := daemon.NewManager()
	st := daemon.NewDirStore(filepath.Join(t.TempDir(), "store"))
	const sessions = 8
	for i := 0; i < sessions; i++ {
		s, err := mgr.Create(fmt.Sprintf("s%d", i), loadFedCfg(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		var jobs []daemon.JobSubmission
		for j := 0; j < 12; j++ {
			jobs = append(jobs, daemon.JobSubmission{Cluster: 0, Org: j % 2, Size: 4})
		}
		if _, err := s.Submit(jobs); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Advance(timePtr(60)); err != nil {
			t.Fatal(err)
		}
	}
	if ids, err := mgr.FlushTo(st, true); err != nil || len(ids) != sessions {
		t.Fatalf("first dirty flush: ids=%v err=%v", ids, err)
	}
	if ids, err := mgr.FlushTo(st, true); err != nil || len(ids) != 0 {
		t.Fatalf("clean table still flushed %v (err=%v)", ids, err)
	}
	// Touch half the sessions; only they are dirty.
	for i := 0; i < sessions; i += 2 {
		s, _ := mgr.Get(fmt.Sprintf("s%d", i))
		if _, _, err := s.Advance(timePtr(200)); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := mgr.FlushTo(st, true)
	if err != nil || len(ids) != sessions/2 {
		t.Fatalf("incremental flush: ids=%v err=%v", ids, err)
	}
	// "Kill" the process here (no final flush) and boot from the store:
	// every session resumes exactly at its last flushed state.
	want := map[string]daemon.StateReply{}
	for _, s := range mgr.List() {
		want[s.ID()] = s.State()
	}
	reborn := daemon.NewManager()
	got, quarantined, err := reborn.LoadStore(st)
	if err != nil || len(quarantined) != 0 || len(got) != sessions {
		t.Fatalf("boot: ids=%v quarantined=%v err=%v", got, quarantined, err)
	}
	for id, wantState := range want {
		s, ok := reborn.Get(id)
		if !ok {
			t.Fatalf("session %s lost across restart", id)
		}
		if !sameState(s.State(), wantState) {
			t.Fatalf("session %s not byte-identical after restart", id)
		}
	}
	// Restored sessions boot clean: nothing to flush until new traffic.
	if ids, err := reborn.FlushTo(st, true); err != nil || len(ids) != 0 {
		t.Fatalf("freshly booted table flushed %v (err=%v)", ids, err)
	}
}

// TestDeletePropagatesToStore: deleting a session drops its envelope,
// so the next boot does not resurrect it.
func TestDeletePropagatesToStore(t *testing.T) {
	dir := t.TempDir()
	st := daemon.NewDirStore(dir)
	mgr := daemon.NewManager()
	mgr.SetStore(st)
	if _, err := mgr.Create("keep", singleCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create("drop", singleCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.FlushTo(st, false); err != nil {
		t.Fatal(err)
	}
	if !mgr.Delete("drop") {
		t.Fatal("delete failed")
	}
	if ids, _, err := daemon.NewManager().LoadStore(daemon.NewDirStore(dir)); err != nil || fmt.Sprint(ids) != "[keep]" {
		t.Fatalf("boot after delete restored %v (err=%v)", ids, err)
	}
}

// TestAcceptedIDsSurviveReboot: every id Create accepts comes back from
// a flushed store. DirStore names envelopes after the id, and its Load
// sweeps ".tmp-*" files as crashed writes — so a session called
// ".tmp-x", once accepted, silently vanished at the next boot. Ids with
// a leading dot are refused instead.
func TestAcceptedIDsSurviveReboot(t *testing.T) {
	st := daemon.NewDirStore(t.TempDir())
	mgr := daemon.NewManager()
	var accepted []string
	for _, id := range []string{".tmp-x", ".hidden", ".", "tmp-x", "a.b", "x.tmp-y"} {
		_, err := mgr.Create(id, singleCfg())
		if dotted := strings.HasPrefix(id, "."); dotted != (err != nil) {
			t.Fatalf("Create(%q): err=%v, want only leading-dot ids refused", id, err)
		}
		if err == nil {
			accepted = append(accepted, id)
		}
	}
	if _, err := mgr.FlushTo(st, false); err != nil {
		t.Fatal(err)
	}
	ids, quarantined, err := daemon.NewManager().LoadStore(st)
	if err != nil || len(quarantined) != 0 {
		t.Fatalf("reboot: quarantined=%v err=%v", quarantined, err)
	}
	slices.Sort(ids)
	slices.Sort(accepted)
	if !slices.Equal(ids, accepted) {
		t.Fatalf("reboot restored %v, want every accepted id %v", ids, accepted)
	}
}

// TestFlusherBackgroundFlush: the background flusher persists dirty
// sessions without any shutdown, and Stop halts it without a final
// write.
func TestFlusherBackgroundFlush(t *testing.T) {
	dir := t.TempDir()
	st := daemon.NewDirStore(dir)
	mgr := daemon.NewManager()
	s, err := mgr.Create("bg", singleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit([]daemon.JobSubmission{{Org: 0, Size: 5}}); err != nil {
		t.Fatal(err)
	}
	f := daemon.StartFlusher(mgr, st, time.Millisecond, nil)
	deadline := time.Now().Add(5 * time.Second)
	for f.Flushed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher wrote nothing within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	f.Stop()
	flushedAt := f.Flushed()
	// Post-Stop mutations stay unflushed (Stop takes no final write).
	if _, _, err := s.Advance(timePtr(10)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if f.Flushed() != flushedAt {
		t.Fatal("flusher kept writing after Stop")
	}
	if ids, _, err := daemon.NewManager().LoadStore(daemon.NewDirStore(dir)); err != nil || len(ids) != 1 {
		t.Fatalf("background-flushed envelope unreadable: ids=%v err=%v", ids, err)
	}
}

// TestServingTierLoadSmoke is the CI-sized run of the 10k-session load
// harness (the burst probe of `go run ./bench -trace 1` runs the full
// scale): small session count, full pipeline, race-detector friendly.
func TestServingTierLoadSmoke(t *testing.T) {
	sessions := 400
	if testing.Short() {
		sessions = 80
	}
	rep, err := daemon.RunLoad(daemon.LoadConfig{Sessions: sessions})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != sessions || rep.Advances != int64(3*sessions) {
		t.Fatalf("harness ran %d advances over %d sessions, want %d over %d", rep.Advances, rep.Sessions, 3*sessions, sessions)
	}
	if rep.Decisions == 0 || rep.ThroughputPerSec <= 0 {
		t.Fatalf("harness did no work: %+v", rep)
	}
	if rep.P50Ms > rep.P95Ms || rep.P95Ms > rep.P99Ms {
		t.Fatalf("latency percentiles out of order: %+v", rep)
	}
	if _, err := daemon.RunLoad(daemon.LoadConfig{}); err == nil {
		t.Fatal("zero sessions accepted")
	}
}

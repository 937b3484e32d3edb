package daemon

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// A restore that fails because the session's own stored configuration
// no longer rebuilds (a skewed deploy dropped the algorithm) must be
// tagged as the server's fault, distinguishable from a snapshot the
// session merely rejects.
func TestRestoreConfigFailureTagged(t *testing.T) {
	mgr := NewManager()
	sess, err := mgr.Create("s", SessionConfig{Kind: KindSingle, Alg: "ref", Orgs: 2, Machines: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: while the configuration still builds, the snapshot restores.
	if err := sess.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := sess.Restore([]byte(`{"version":99}`)); errors.Is(err, errRestoreConfig) {
		t.Fatalf("a rejected snapshot was blamed on the configuration: %v", err)
	}
	sess.cfg.Alg = "vanished-alg"
	err = sess.Restore(snap)
	if err == nil {
		t.Fatal("restore with an unbuildable configuration succeeded")
	}
	if !errors.Is(err, errRestoreConfig) {
		t.Fatalf("config-rebuild failure not tagged errRestoreConfig: %v", err)
	}
}

// A body one byte over the cap is cut off and answered 413, on the
// handler that takes the smallest bodies and on the one that takes the
// largest; at the cap the same bytes are merely malformed. The cap is
// lowered so the test need not stream 64 MiB through the JSON scanner.
func TestOversizedBodyRejected(t *testing.T) {
	mgr := NewManager()
	if _, err := mgr.Create("s", SessionConfig{Kind: KindSingle, Alg: "fcfs", Orgs: 2, Machines: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mgr)
	if srv.maxBody != 64<<20 {
		t.Fatalf("servers start with a %d-byte body cap, want 64 MiB", srv.maxBody)
	}
	srv.maxBody = 1 << 10
	h := srv.Handler()
	for _, path := range []string{"/v1/sessions/s/jobs", "/v1/sessions/s/restore"} {
		for _, tc := range []struct {
			size int64
			want int
		}{{srv.maxBody + 1, http.StatusRequestEntityTooLarge}, {srv.maxBody, http.StatusBadRequest}} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(strings.Repeat(" ", int(tc.size)))))
			if rec.Code != tc.want {
				t.Errorf("POST %s with %d blank bytes: status %d, want %d: %s", path, tc.size, rec.Code, tc.want, rec.Body)
			}
		}
	}
}

// A create beyond the session cap answers 503 and leaves the table as it
// was, the next auto id included; a delete makes room again. Sessions a
// store holds are restored whatever the cap. The cap is lowered to 2 so
// the test need not build 65 536 sessions.
func TestSessionCap(t *testing.T) {
	mgr := NewManager()
	if mgr.limit != maxSessions || maxSessions < 10_000 {
		t.Fatalf("managers start with a cap of %d sessions (maxSessions %d), want one above the 10 000 of a load run", mgr.limit, maxSessions)
	}
	mgr.limit = 2
	h := NewServer(mgr).Handler()
	do := func(method, path, body string, want int) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body)
		}
		return rec.Body.String()
	}
	const cfg = `"kind":"single","alg":"fcfs","orgs":2,"machines":2`
	do("POST", "/v1/sessions", `{"id":"a",`+cfg+`}`, http.StatusCreated)
	do("POST", "/v1/sessions", `{`+cfg+`}`, http.StatusCreated) // s1
	before := do("GET", "/v1/sessions", "", http.StatusOK)
	do("POST", "/v1/sessions", `{`+cfg+`}`, http.StatusServiceUnavailable)
	do("POST", "/v1/sessions", `{"id":"b",`+cfg+`}`, http.StatusServiceUnavailable)
	if after := do("GET", "/v1/sessions", "", http.StatusOK); after != before {
		t.Fatalf("a refused create changed the table:\n%s\nwas\n%s", after, before)
	}
	do("DELETE", "/v1/sessions/a", "", http.StatusOK)
	if body := do("POST", "/v1/sessions", `{`+cfg+`}`, http.StatusCreated); !strings.Contains(body, `"s2"`) {
		t.Fatalf("the create after a delete is not session s2: %s", body)
	}

	store := NewDirStore(t.TempDir())
	if _, err := mgr.FlushTo(store, false); err != nil {
		t.Fatal(err)
	}
	reboot := NewManager()
	reboot.limit = 1
	ids, quarantined, err := reboot.LoadStore(store)
	if err != nil || len(ids) != 2 || len(quarantined) != 0 {
		t.Fatalf("a store of 2 sessions under a cap of 1 loaded %v (quarantined %v, err %v)", ids, quarantined, err)
	}
}

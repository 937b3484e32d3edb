package daemon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/daemon"
	"repro/internal/model"
)

// A REF session's clock does not depend on its driver. Two sessions,
// "ref_driver":"heap" and "scan", fed the same stream, answer byte-equal
// /state — next_event included — after every request, and byte-equal
// replies to every advance with no until, which steps to next_event.
// The touched-set mode steps to fewer instants than the reference mode
// (a completion in a schedule where nothing waits is folded, not stepped
// to), so this is where a next_event that skipped one would show.
func TestRefDriversAnswerAlike(t *testing.T) {
	apis := [2]api{newAPI(t), newAPI(t)}
	for i, driver := range []string{"heap", "scan"} {
		apis[i].do("POST", "/v1/sessions", fmt.Sprintf(`{"id":"r","kind":"single","alg":"ref","orgs":4,"machines":7,"split":"zipf","ref_driver":%q,"seed":3}`, driver), http.StatusCreated)
	}
	both := func(method, path, body string) []byte {
		t.Helper()
		var replies [2][]byte
		for i, a := range apis {
			req, err := http.NewRequest(method, a.ts.URL+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := a.ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			replies[i], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: %d: %s", method, path, resp.StatusCode, replies[i])
			}
		}
		if !bytes.Equal(replies[0], replies[1]) {
			t.Fatalf("%s %s %s:\nheap: %s\nscan: %s", method, path, body, replies[0], replies[1])
		}
		return replies[0]
	}
	now := func() model.Time {
		t.Helper()
		var state daemon.StateReply
		if err := json.Unmarshal(both("GET", "/v1/sessions/r/state", ""), &state); err != nil {
			t.Fatal(err)
		}
		return state.Now
	}
	r := rand.New(rand.NewSource(11))
	bare := 0
	for round := 0; round < 25; round++ {
		jobs := make([]daemon.JobSubmission, 2+r.Intn(6))
		at := now()
		for j := range jobs {
			release := at + model.Time(r.Intn(12))
			jobs[j] = daemon.JobSubmission{Org: min(r.Intn(4), r.Intn(4)), Size: model.Time(1 + r.Intn(15)), Release: &release}
		}
		both("POST", "/v1/sessions/r/jobs", mustJSON(t, map[string]any{"jobs": jobs}))
		for i := 0; i < 1+r.Intn(6); i++ {
			now()
			both("POST", "/v1/sessions/r/advance", "")
			bare++
		}
		if round%3 == 2 {
			both("POST", "/v1/sessions/r/advance", fmt.Sprintf(`{"until":%d}`, now()+20))
		}
	}
	now()
	both("GET", "/v1/sessions/r/decisions", "")
	both("GET", "/v1/sessions/r/checkpoint", "")
	t.Logf("%d advances with no until", bare)
}

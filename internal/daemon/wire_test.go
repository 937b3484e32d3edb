package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
)

// The oracle of the wire codec is the server as it decoded and encoded
// these two routes before the codec: a json.Decoder into the handler's
// request struct, json.Marshal of a map for the reply, plus the
// one-value rule — a body with anything but whitespace after its value
// is refused with the error json.Unmarshal gives for it.

// oracleDecode is json.Decoder's Decode with the one-value rule.
func oracleDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return json.Unmarshal(body, new(any))
	}
	return nil
}

func oracleJobs(body []byte) ([]JobSubmission, error) {
	var req struct {
		Jobs []JobSubmission `json:"jobs"`
	}
	err := oracleDecode(body, &req)
	return req.Jobs, err
}

func oracleUntil(body []byte) (*model.Time, error) {
	var req struct {
		Until *model.Time `json:"until"`
	}
	if err := oracleDecode(body, &req); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return req.Until, nil
}

// oracleReply is the handler's reply before the codec: status and bytes.
func oracleReply(status int, v any) (int, []byte) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return status, append(data, '\n')
}

func oracleError(err error, format string) (int, []byte) {
	return oracleReply(http.StatusBadRequest, map[string]string{"error": fmt.Sprintf(format, err)})
}

// sameErr reports whether two errors are both nil or say the same.
func sameErr(a, b error) bool {
	return a == nil && b == nil || a != nil && b != nil && a.Error() == b.Error()
}

// sameJobs compares two decoded batches field by field, a nil batch and
// a nil Release apart from an empty or a set one.
func sameJobs(a, b []JobSubmission) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Cluster != y.Cluster || x.Org != y.Org || x.Size != y.Size || (x.Release == nil) != (y.Release == nil) {
			return false
		}
		if x.Release != nil && *x.Release != *y.Release {
			return false
		}
	}
	return true
}

func formatJobs(jobs []JobSubmission) string {
	if jobs == nil {
		return "nil"
	}
	parts := make([]string, len(jobs))
	for i, j := range jobs {
		rel := "nil"
		if j.Release != nil {
			rel = strconv.FormatInt(int64(*j.Release), 10)
		}
		parts[i] = fmt.Sprintf("{%d %d %d %s}", j.Cluster, j.Org, j.Size, rel)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// twinSessions returns a server on a session "w" and a second session
// of the same configuration and jobs, for the oracle to serve.
func twinSessions(t *testing.T) (http.Handler, *Session) {
	cfg := SessionConfig{Kind: KindSingle, Alg: "fcfs", Orgs: 2, Machines: 2}
	jobs := []JobSubmission{{Org: 0, Size: 3}, {Org: 1, Size: 5}, {Org: 0, Size: 2}}
	var sessions [2]*Session
	mgrs := [2]*Manager{NewManager(), NewManager()}
	for i, m := range mgrs {
		sess, err := m.Create("w", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Submit(jobs); err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
	}
	return NewServer(mgrs[0]).Handler(), sessions[1]
}

func post(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// wireSeeds are bodies of both routes: the accepted form, one per class
// encoding/json decodes alone, integers at and past the 2^63 and int32
// bounds, -0, 1e2 and 5.0.
var wireSeeds = []string{
	``, ` `, `{}`, "\t{ }\r\n", `null`, `[]`, `7`, `"jobs"`, `{`, `{"jobs":`, `{"until":`, `{"until":7`,
	`{"jobs":[{"org":0,"size":5}]}`,
	`{"jobs":[{"cluster":1,"org":1,"size":4,"release":10},{"org":0,"size":2}]}`,
	` { "jobs" : [ { "size" : 3 , "org" : 1 , "release" : 2 , "release" : 9 } ] } `,
	`{"jobs":[]}`, `{"jobs":[{}]}`, `{"jobs":null}`, `{"jobs":[null]}`, `{"jobs":[{"release":null}]}`,
	`{"Jobs":[{"org":1,"size":2}]}`, `{"jobs":[{"ORG":1,"size":2}]}`, `{"jobs":[{"org":1}]}`,
	`{"jobs":[{"org":1,"size":2,"prio":3}]}`, `{"extra":1,"jobs":[{"org":1,"size":2}]}`,
	`{"jobs":[{"org":"1","size":2}]}`, `{"jobs":[{"org":1,"size":5.0}]}`, `{"jobs":[{"org":1,"size":1e2}]}`,
	`{"jobs":[{"org":{},"size":2}]}`, `{"jobs":[[1]]}`, `{"jobs":{"org":1}}`,
	`{"jobs":[{"org":1,"size":2,"release":3}],"jobs":[{"org":0,"size":4}]}`,
	`{"jobs":[{"org":-0,"size":-0,"release":-0}]}`, `{"jobs":[{"org":01,"size":2}]}`,
	`{"jobs":[{"org":0,"size":9223372036854775807,"release":-9223372036854775808}]}`,
	`{"jobs":[{"org":0,"size":9223372036854775808}]}`, `{"jobs":[{"org":0,"release":-9223372036854775809}]}`,
	`{"jobs":[{"org":2147483647,"cluster":-2147483648}]}`, `{"jobs":[{"org":2147483648,"cluster":-2147483649}]}`,
	`{"jobs":[{"org":0,"size":5}]} garbage`, `{"jobs":[{"org":0,"size":5}]}{}`, `{"jobs":[{"org":0,"size":5},]}`,
	`{"until":7}`, `{"until":7}{"until":9}`, `{"until":7,"until":3}`, `{"until":null}`, `{"Until":4}`,
	`{"until":"4"}`, `{"until":5.0}`, `{"until":1e2}`, `{"until":-0}`, `{"until":-1}`, `{"until":01}`,
	`{"until":9223372036854775807}`, `{"until":9223372036854775808}`, `{"until":-9223372036854775808}`,
	`{"until":2147483648}`, `{"until":18446744073709551617}`, `{"jobs":[{"org":0,"size":18446744073709551617}]}`,
	`{"until ":7}`, `{"jobs ":[{"org":0}]}`, `{"jobs":[{"org" :0,"size ":1}]}`,
	`{"until":7,"jobs":[]}`, `{"until":7} x`, `{"until":7}` + "\n\n",
	`{"jobs":[{"release":1{{{{`, `{"jobs":[{"org":0,"release":1},{"org":1,"size":2}],"x":1}`,
}

// FuzzSubmitBody holds the submit route to its oracle on arbitrary
// bytes: the decoded batch (nil and set releases apart) and its error
// text, and the status and reply bytes the route serves.
func FuzzSubmitBody(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		jobs, err := decodeJobs(body)
		want, wantErr := oracleJobs(body)
		if !sameErr(err, wantErr) || err == nil && !sameJobs(jobs, want) {
			t.Fatalf("%q decodes to %s, %v; want %s, %v", body, formatJobs(jobs), err, formatJobs(want), wantErr)
		}
		h, twin := twinSessions(t)
		code, reply := post(h, "/v1/sessions/w/jobs", body)
		var wantCode int
		var wantReply []byte
		if wantErr != nil {
			wantCode, wantReply = oracleError(wantErr, "bad request body: %v")
		} else if ids, err := twin.Submit(want); err != nil {
			wantCode, wantReply = oracleError(err, "%v")
		} else {
			wantCode, wantReply = oracleReply(http.StatusOK, map[string]any{"ids": ids, "now": twin.summary().Now})
		}
		if code != wantCode || !bytes.Equal(reply, wantReply) {
			t.Fatalf("POST jobs %q: %d %s, want %d %s", body, code, reply, wantCode, wantReply)
		}
	})
}

// FuzzAdvanceBody is FuzzSubmitBody for the advance route.
func FuzzAdvanceBody(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		until, err := decodeUntil(body)
		want, wantErr := oracleUntil(body)
		if !sameErr(err, wantErr) || err == nil && ((until == nil) != (want == nil) || until != nil && *until != *want) {
			t.Fatalf("%q decodes to %v, %v; want %v, %v", body, until, err, want, wantErr)
		}
		h, twin := twinSessions(t)
		code, reply := post(h, "/v1/sessions/w/advance", body)
		var wantCode int
		var wantReply []byte
		if wantErr != nil {
			wantCode, wantReply = oracleError(wantErr, "bad request body: %v")
		} else if now, decs, err := twin.Advance(want); err != nil {
			wantCode, wantReply = oracleError(err, "%v")
		} else {
			wantCode, wantReply = oracleReply(http.StatusOK, map[string]any{"now": now, "decisions": decs})
		}
		if code != wantCode || !bytes.Equal(reply, wantReply) {
			t.Fatalf("POST advance %q: %d %s, want %d %s", body, code, reply, wantCode, wantReply)
		}
	})
}

// The two reply appenders write json.Marshal's bytes of the maps the
// handlers used to marshal, and a newline: nil and empty lists, negative
// IDs and the int64 extremes included.
func TestReplyBytesMatchMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extremes := []int64{0, -1, 1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	draw := func() int64 {
		if rng.Intn(3) == 0 {
			return extremes[rng.Intn(len(extremes))]
		}
		return rng.Int63n(1<<40) - 1<<39
	}
	for i := 0; i < 500; i++ {
		n := rng.Intn(40)
		var ids []int64
		var decs []Decision
		switch i % 5 {
		case 0: // nil lists
		case 1:
			ids, decs = []int64{}, []Decision{}
		default:
			ids, decs = make([]int64, n), make([]Decision, n)
			for k := range ids {
				ids[k] = draw()
				decs[k] = Decision{Job: draw(), Org: int(draw()), Cluster: int(draw()), Machine: int(draw()), At: model.Time(draw())}
			}
		}
		now := model.Time(draw())
		prefix := []byte("kept")
		if _, want := oracleReply(http.StatusOK, map[string]any{"ids": ids, "now": now}); !bytes.Equal(appendIDsReply(prefix, ids, now), append(prefix, want...)) {
			t.Fatalf("ids %v now %d: %s, want %s", ids, now, appendIDsReply(nil, ids, now), want)
		}
		if _, want := oracleReply(http.StatusOK, map[string]any{"now": now, "decisions": decs}); !bytes.Equal(appendAdvanceReply(prefix, decs, now), append(prefix, want...)) {
			t.Fatalf("decisions %v now %d: %s, want %s", decs, now, appendAdvanceReply(nil, decs, now), want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/work.golden")

// allocated is the heap bytes run allocates.
func allocated(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Neither the scanner nor readBody sizes memory from bytes it has not
// read and checked: a submit body that seems to open a million jobs but
// breaks at the second brace, and a request that declares 64 MiB and
// sends a few bytes, each cost a few KiB. The bound, 1 MiB, leaves room
// for whatever else the process allocates meanwhile.
func TestBodiesAllocateWhatTheyHold(t *testing.T) {
	const bound = 1 << 20
	body := append([]byte(`{"jobs":[{"release":1`), bytes.Repeat([]byte{'{'}, 1<<20)...)
	if n := allocated(func() {
		if _, err := decodeJobs(body); err == nil {
			t.Error("a broken body decoded")
		}
	}); n > bound {
		t.Errorf("refusing a %d-byte body allocated %d bytes", len(body), n)
	}

	s := NewServer(nil)
	r := httptest.NewRequest("POST", "/v1/sessions/w/advance", strings.NewReader(`{"until":7}`))
	r.ContentLength = maxBodyBytes - 1
	if n := allocated(func() {
		if b, err := s.readBody(httptest.NewRecorder(), r); err != nil || string(b) != `{"until":7}` {
			t.Errorf("read %q, %v", b, err)
		}
	}); n > bound {
		t.Errorf("reading an 11-byte body that declared %d allocated %d bytes", r.ContentLength, n)
	}
}

// replySink keeps TestWireWork's encoded replies live.
var replySink []byte

// wireBatch is n jobs and n decisions in the form the benchmark's
// client writes and a federated advance answers: every field set.
func wireBatch(n int) (body []byte, decs []Decision, ids []int64) {
	body = []byte(`{"jobs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"cluster":%d,"org":%d,"size":%d,"release":%d}`, i%8, i%6, 1+i%13, 4000+i)
		decs = append(decs, Decision{Job: int64(100000 + i), Org: i % 6, Cluster: i % 8, Machine: i % 4, At: model.Time(4000 + i)})
		ids = append(ids, int64(100000+i))
	}
	return append(body, "]}"...), decs, ids
}

// The codec's allocations, exact, held to testdata/work.golden (go test
// ./internal/daemon -run TestWireWork -update rewrites it): decoding a
// 32-job submit body costs the batch and one array of releases,
// an advance body the one until, and each reply one buffer.
func TestWireWork(t *testing.T) {
	const n = 32
	body, decs, ids := wireBatch(n)
	until := []byte(`{"until":4032}`)
	rows := []struct {
		name string
		run  func()
	}{
		{fmt.Sprintf("decode submit body (%d jobs, %d bytes)", n, len(body)), func() {
			if jobs, err := decodeJobs(body); err != nil || len(jobs) != n || jobs[n-1].Release == nil {
				t.Fatalf("%d jobs, %v", len(jobs), err)
			}
		}},
		{fmt.Sprintf("decode advance body (%d bytes)", len(until)), func() {
			if u, err := decodeUntil(until); err != nil || u == nil {
				t.Fatalf("%v, %v", u, err)
			}
		}},
		{fmt.Sprintf("encode advance reply (%d decisions)", n), func() { replySink = appendAdvanceReply(nil, decs, 4032) }},
		{fmt.Sprintf("encode submit reply (%d ids)", n), func() { replySink = appendIDsReply(nil, ids, 4032) }},
	}
	lines := []string{"# Allocations per call (testing.AllocsPerRun) of the wire codec, on the bodies and replies of one federated round."}
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("%s allocs=%d", r.name, int(testing.AllocsPerRun(100, r.run))))
	}
	got := strings.Join(lines, "\n") + "\n"
	t.Log("\n" + got)
	const golden = "testdata/work.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the wire codec's work moved (rewrite with -update if that is meant):\ngot:\n%swant:\n%s", got, want)
	}
}

package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"repro/internal/model"
)

// The wire codec of the two routes every client round calls, POST
// …/jobs and POST …/advance. encoding/json defines the format: a body
// is decoded as a json.Decoder decodes it into jobsRequest or
// advanceRequest, and the replies are json.Marshal's bytes of
// {"ids":…,"now":…} and {"decisions":…,"now":…} plus a newline. The
// scanner below reads the form clients write without reflection —
// JSON whitespace, the exact lowercase field names in any order, a
// repeated key's last value, integer literals that fit their field —
// and hands every other body (case-folded, escaped or unknown keys,
// null, strings, fractions, exponents, a repeated "jobs" array, any
// malformed input) to encoding/json, so which path decodes a body
// changes neither the decoded value nor the status nor the error text.
//
// Every body the server decodes is one JSON value: anything but
// whitespace after it is a 400 (decodeJSON).

// firstRead caps the buffer readBody allocates before any body byte
// has arrived. A round's bodies are a few KiB.
const firstRead = 64 << 10

// jobsRequest and advanceRequest are the two bodies. They are aliases
// of unnamed struct types because encoding/json's error texts name
// the type a body failed to decode into.
type (
	jobsRequest = struct {
		Jobs []JobSubmission `json:"jobs"`
	}
	advanceRequest = struct {
		Until *model.Time `json:"until"`
	}
)

// readBody reads the whole request body, capped at s.maxBody: a longer
// one is a *http.MaxBytesError. A declared length up to firstRead sizes
// the buffer once; past that the buffer grows with the bytes that
// arrive, so a client that declares a large body and sends little holds
// little.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	size := int64(512)
	if r.ContentLength > 0 {
		size = min(r.ContentLength+1, firstRead) // room for the read that sees EOF
	}
	b := make([]byte, 0, size)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// decodeJSON decodes body into v as a json.Decoder does, and refuses
// what follows the first value unless it is whitespace: the error is
// the one json.Unmarshal gives for the whole body, which is valid up to
// there.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(body) > skipSpace(body, int(dec.InputOffset())) {
		return json.Unmarshal(body, new(json.RawMessage))
	}
	return nil
}

// decodeJobs decodes a submit body. A job's Release, when set, points
// into one array shared by the batch.
func decodeJobs(body []byte) ([]JobSubmission, error) {
	if jobs, ok := scanJobs(body); ok {
		return jobs, nil
	}
	var req jobsRequest
	err := decodeJSON(body, &req)
	return req.Jobs, err
}

// decodeUntil decodes an advance body; an empty or blank body, like
// {}, names no instant (the scanner takes it: json.Decoder would say
// io.EOF).
func decodeUntil(body []byte) (*model.Time, error) {
	if until, ok := scanUntil(body); ok {
		return until, nil
	}
	var req advanceRequest
	err := decodeJSON(body, &req)
	return req.Until, err
}

// skipSpace returns the index of the first byte of b at or after i that
// is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// scanner reads the accepted form of a body. Each method skips leading
// whitespace; a false result sends the body to encoding/json.
type scanner struct {
	b []byte
	i int
}

// eat consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	s.i = skipSpace(s.b, s.i)
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool { return skipSpace(s.b, s.i) == len(s.b) }

// key reads an object key of lowercase letters and its colon. It is
// a []byte: a string conversion compared in place does not allocate.
func (s *scanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && 'a' <= s.b[s.i] && s.b[s.i] <= 'z' {
		s.i++
	}
	k := s.b[start:s.i]
	if s.i == len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	s.i++
	return k, s.eat(':')
}

// more ends an object's or an array's member: a comma (more follow) or
// the closing byte.
func (s *scanner) more(closing byte) (more, ok bool) {
	if s.eat(',') {
		return true, true
	}
	return false, s.eat(closing)
}

// integer reads an integer literal, -?(0|[1-9][0-9]*), whose value fits in
// a signed integer of the given bits: what encoding/json stores in an
// int of that size without an error.
func (s *scanner) integer(bits int) (int64, bool) {
	s.i = skipSpace(s.b, s.i)
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var u uint64
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		u = 10*u + uint64(s.b[s.i]-'0')
		s.i++
	}
	// At most 19 digits cannot wrap a uint64.
	digits := s.i - start
	if digits == 0 || digits > 19 || digits > 1 && s.b[start] == '0' {
		return 0, false
	}
	limit := uint64(1) << (bits - 1)
	if neg {
		return -int64(u), u <= limit
	}
	return int64(u), u < limit
}

// scanJobs reads {"jobs":[{"cluster":c,"org":o,"size":n,"release":r},…]}
// in two passes over the array: the first checks the whole body and
// counts its jobs, so a body the scanner does not take allocates
// nothing, and the second fills one batch and one array of releases
// sized to the count.
func scanJobs(b []byte) ([]JobSubmission, bool) {
	s := scanner{b: b}
	if !s.eat('{') {
		return nil, false
	}
	if s.eat('}') {
		return nil, s.end()
	}
	// One key only: encoding/json decodes a repeated "jobs" array into
	// the first one's elements, merging their fields, so that body
	// takes its path.
	if k, ok := s.key(); !ok || string(k) != "jobs" || !s.eat('[') {
		return nil, false
	}
	start := s.i
	n, released, ok := s.jobs(nil, nil)
	if !ok || !s.eat('}') || !s.end() {
		return nil, false
	}
	jobs := make([]JobSubmission, n)
	var releases []model.Time
	if released {
		releases = make([]model.Time, n)
	}
	s.i = start
	s.jobs(jobs, releases)
	return jobs, true
}

// jobs reads a job array's members and its closing bracket, and
// reports how many jobs it holds and whether any names a release. A
// nil batch only counts them; otherwise the k-th job goes to batch[k],
// its Release, when set, pointing at releases[k].
func (s *scanner) jobs(batch []JobSubmission, releases []model.Time) (n int, released, ok bool) {
	for more := !s.eat(']'); more; n++ {
		if !s.eat('{') {
			return n, released, false
		}
		var j JobSubmission
		for fields := !s.eat('}'); fields; {
			k, ok := s.key()
			if !ok {
				return n, released, false
			}
			var v int64
			switch string(k) {
			case "cluster":
				v, ok = s.integer(strconv.IntSize)
				j.Cluster = int(v)
			case "org":
				v, ok = s.integer(strconv.IntSize)
				j.Org = int(v)
			case "size":
				v, ok = s.integer(64)
				j.Size = model.Time(v)
			case "release":
				v, ok = s.integer(64)
				released = true
				if releases != nil {
					releases[n] = model.Time(v)
					j.Release = &releases[n]
				}
			default:
				ok = false
			}
			if !ok {
				return n, released, false
			}
			if fields, ok = s.more('}'); !ok {
				return n, released, false
			}
		}
		if batch != nil {
			batch[n] = j
		}
		if more, ok = s.more(']'); !ok {
			return n, released, false
		}
	}
	return n, released, true
}

// scanUntil reads {"until":t}, {} or a blank body.
func scanUntil(b []byte) (*model.Time, bool) {
	s := scanner{b: b}
	if s.end() {
		return nil, true
	}
	if !s.eat('{') {
		return nil, false
	}
	var until *model.Time
	for fields := !s.eat('}'); fields; {
		k, ok := s.key()
		if !ok || string(k) != "until" {
			return nil, false
		}
		v, ok := s.integer(64)
		if !ok {
			return nil, false
		}
		if until == nil {
			until = new(model.Time)
		}
		*until = model.Time(v)
		if fields, ok = s.more('}'); !ok {
			return nil, false
		}
	}
	return until, s.end()
}

// appendIDsReply appends a submit reply: json.Marshal of
// map[string]any{"ids": ids, "now": now} and a newline. Like
// appendAdvanceReply, it grows dst once, for the usual lengths.
func appendIDsReply(dst []byte, ids []int64, now model.Time) []byte {
	dst = grow(dst, 32+20*len(ids))
	dst = append(dst, `{"ids":`...)
	if ids == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, id := range ids {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, id, 10)
		}
		dst = append(dst, ']')
	}
	return appendNow(dst, now)
}

// appendAdvanceReply appends an advance reply: json.Marshal of
// map[string]any{"now": now, "decisions": decs} and a newline.
func appendAdvanceReply(dst []byte, decs []Decision, now model.Time) []byte {
	dst = grow(dst, 32+64*len(decs))
	dst = append(dst, `{"decisions":`...)
	if decs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, d := range decs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"job":`...)
			dst = strconv.AppendInt(dst, d.Job, 10)
			dst = append(dst, `,"org":`...)
			dst = strconv.AppendInt(dst, int64(d.Org), 10)
			dst = append(dst, `,"cluster":`...)
			dst = strconv.AppendInt(dst, int64(d.Cluster), 10)
			dst = append(dst, `,"machine":`...)
			dst = strconv.AppendInt(dst, int64(d.Machine), 10)
			dst = append(dst, `,"at":`...)
			dst = strconv.AppendInt(dst, int64(d.At), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return appendNow(dst, now)
}

// grow returns dst with room for n more bytes, in one allocation
// (slices.Grow takes two under the race detector).
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// appendNow closes a reply with its "now" key, the last in key order.
func appendNow(dst []byte, now model.Time) []byte {
	dst = append(dst, `,"now":`...)
	dst = strconv.AppendInt(dst, int64(now), 10)
	return append(dst, "}\n"...)
}

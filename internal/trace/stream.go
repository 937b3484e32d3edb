package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Reader is a streaming SWF record reader: it yields one job at a time
// in file order and holds O(1) state, so arbitrarily long archive
// traces can feed the incremental engine without ever materializing in
// memory. Unlike the previous Scanner-based parser, lines have no
// length cap — multi-megabyte header or comment lines are fine.
//
// Usage:
//
//	r := trace.NewReader(f)
//	for {
//		j, err := r.Next()
//		if err == io.EOF {
//			break
//		}
//		...
//	}
//
// Records that the archive marks unusable (non-positive runtime or
// processor count, negative submit time) are skipped and counted in
// Skipped; malformed lines (too few fields, non-numeric mandatory
// fields) are errors.
type Reader struct {
	br      *bufio.Reader
	header  []string
	lineNo  int
	skipped int
	done    bool
}

// NewReader wraps an SWF stream.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64*1024)}
}

// Header returns the comment lines seen so far, without the leading
// ';'. The full header is available once Next has returned the first
// job (SWF headers precede all records).
func (r *Reader) Header() []string { return r.header }

// Skipped returns the number of unusable records skipped so far.
func (r *Reader) Skipped() int { return r.skipped }

// MaxLineBytes bounds a single SWF line. It is far beyond any real
// archive header (the old parser capped at 1 MiB) while still failing
// fast on pathological input — a multi-gigabyte file with no newline
// would otherwise buffer whole into memory before the first record.
const MaxLineBytes = 64 * 1024 * 1024

// readLine returns the next line without its terminator. Lines up to
// MaxLineBytes are supported. io.EOF is returned only for a truly
// empty final read; a last line without a newline is delivered first.
func (r *Reader) readLine() (string, error) {
	var b strings.Builder
	for {
		chunk, err := r.br.ReadString('\n')
		b.WriteString(chunk)
		if b.Len() > MaxLineBytes {
			return "", fmt.Errorf("line %d exceeds %d bytes", r.lineNo+1, MaxLineBytes)
		}
		if err == nil {
			break
		}
		if err == io.EOF {
			if b.Len() == 0 {
				return "", io.EOF
			}
			break
		}
		return "", err
	}
	return strings.TrimRight(b.String(), "\r\n"), nil
}

// Next returns the next usable job record, or io.EOF when the trace is
// exhausted.
func (r *Reader) Next() (Job, error) {
	if r.done {
		return Job{}, io.EOF
	}
	for {
		line, err := r.readLine()
		if err == io.EOF {
			r.done = true
			return Job{}, io.EOF
		}
		if err != nil {
			return Job{}, fmt.Errorf("trace: %w", err)
		}
		r.lineNo++
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, ";"):
			r.header = append(r.header, strings.TrimSpace(strings.TrimPrefix(line, ";")))
			continue
		}
		j, ok, err := parseRecord(line, r.lineNo)
		if err != nil {
			return Job{}, err
		}
		if !ok {
			r.skipped++
			continue
		}
		return j, nil
	}
}

// parseRecord parses one SWF data line. ok is false for records the
// archive marks unusable (these are skipped, not errors).
func parseRecord(line string, lineNo int) (Job, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 12 {
		return Job{}, false, fmt.Errorf("trace: line %d has %d fields, want >= 12", lineNo, len(fields))
	}
	// Stack array, not a slice: one SWF trace is millions of records and
	// a per-record heap allocation here dominated the reader's profile.
	var nums [12]int64
	for i := 0; i < 12; i++ {
		v, perr := strconv.ParseInt(fields[i], 10, 64)
		if perr != nil {
			return Job{}, false, fmt.Errorf("trace: line %d has non-numeric fields", lineNo)
		}
		nums[i] = v
	}
	j := Job{
		ID:      int(nums[0]),
		Submit:  model.Time(nums[1]),
		Runtime: model.Time(nums[3]),
		Procs:   int(nums[4]),
		User:    int(nums[11]),
		Status:  int(nums[10]),
	}
	if j.Procs <= 0 {
		if req, perr := strconv.ParseInt(fields[7], 10, 64); perr == nil && req > 0 {
			j.Procs = int(req)
		}
	}
	if j.Runtime <= 0 || j.Procs <= 0 || j.Submit < 0 {
		return Job{}, false, nil
	}
	return j, true, nil
}

package trace

import (
	"bytes"
	"testing"

	"repro/internal/model"
)

// FuzzParseSWF asserts the SWF reader is total: any byte stream either
// parses or returns an error — malformed headers, truncated records,
// non-numeric fields, negative and non-monotonic submit times must never
// panic. Successfully parsed traces must survive the standard
// post-processing pipeline (round-trip, windowing, sequentialization)
// without panicking either.
//
// Run continuously with:
//
//	go test -run='^$' -fuzz=FuzzParseSWF ./internal/trace
func FuzzParseSWF(f *testing.F) {
	seeds := []string{
		// Well-formed: header plus two records.
		"; Computer: fuzzbox\n; MaxJobs: 2\n1 0 -1 10 1 -1 -1 1 -1 -1 1 3 -1 -1 -1 -1 -1 -1\n2 5 -1 4 2 -1 -1 2 -1 -1 1 4 -1 -1 -1 -1 -1 -1\n",
		// Non-monotonic submit times (record 2 released before record 1).
		"1 50 -1 10 1 -1 -1 1 -1 -1 1 3 -1 -1 -1 -1 -1 -1\n2 5 -1 4 1 -1 -1 1 -1 -1 1 4 -1 -1 -1 -1 -1 -1\n",
		// Malformed header marker inside a record line.
		"1 0 -1 10 ; 1 -1 -1 1 -1 -1 1 3\n",
		// Truncated record (too few fields).
		"1 0 -1 10 1\n",
		// Non-numeric fields.
		"a b c d e f g h i j k l\n",
		// Failed/invalid jobs the archive marks with -1.
		"1 -3 -1 -1 -1 -1 -1 -1 -1 -1 0 7 -1 -1 -1 -1 -1 -1\n",
		// Empty and whitespace-only input.
		"",
		"\n\n  \n;\n",
		// Huge numbers (overflow paths).
		"1 9223372036854775807 -1 9223372036854775807 1 -1 -1 1 -1 -1 1 3 -1 -1 -1 -1 -1 -1\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, _, err := ParseSWF(bytes.NewReader(data))
		if err != nil {
			return // rejecting malformed input is the correct outcome
		}
		if tr == nil {
			t.Fatal("nil trace with nil error")
		}
		for i := 1; i < len(tr.Jobs); i++ {
			if tr.Jobs[i].Submit < tr.Jobs[i-1].Submit {
				t.Fatalf("jobs not sorted by submit time at %d", i)
			}
		}
		for _, j := range tr.Jobs {
			if j.Runtime <= 0 || j.Procs <= 0 || j.Submit < 0 {
				t.Fatalf("unusable record survived parsing: %+v", j)
			}
		}
		// Round-trip: writing and re-reading must preserve every record.
		var buf bytes.Buffer
		if err := tr.WriteSWF(&buf); err != nil {
			t.Fatalf("WriteSWF: %v", err)
		}
		tr2, skipped, err := ParseSWF(&buf)
		if err != nil {
			t.Fatalf("round-trip re-parse: %v", err)
		}
		if skipped != 0 || len(tr2.Jobs) != len(tr.Jobs) {
			t.Fatalf("round-trip lost records: %d skipped, %d of %d jobs", skipped, len(tr2.Jobs), len(tr.Jobs))
		}
		_ = tr.Users()
		var last model.Time
		for _, j := range tr.Jobs {
			last = max(last, j.Submit)
		}
		_ = tr.Window(0, last)
		// Sequentialize duplicates each record Procs times; cap the
		// expansion so the fuzzer cannot request gigabytes.
		var expanded int64
		for _, j := range tr.Jobs {
			expanded += int64(j.Procs)
		}
		if expanded > 0 && expanded < 1<<16 {
			seq := tr.Sequentialize()
			if int64(len(seq.Jobs)) != expanded {
				t.Fatalf("Sequentialize produced %d jobs, want %d", len(seq.Jobs), expanded)
			}
			_ = seq.TotalWork()
			for _, j := range seq.Jobs {
				if j.Procs != 1 {
					t.Fatalf("sequentialized job still needs %d processors", j.Procs)
				}
			}
		}
	})
}

// The fuzz corpus cases double as regression tests in normal -run mode;
// this guards the specific ISSUE cases even when fuzzing never runs.
func TestParseSWFHostileInputs(t *testing.T) {
	cases := map[string]string{
		"truncated":     "1 0 -1 10 1\n",
		"non-numeric":   "x y z 1 2 3 4 5 6 7 8 9\n",
		"bad-header":    ";;; ;; ;\n1 0 -1\n",
		"negative-time": "1 -1 -1 5 1 -1 -1 1 -1 -1 1 3 -1 -1 -1 -1 -1 -1\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseSWF panicked: %v", r)
				}
			}()
			_, _, _ = ParseSWF(bytes.NewReader([]byte(in)))
		})
	}
	// Non-monotonic submit times parse fine and come out sorted.
	tr, _, err := ParseSWF(bytes.NewReader([]byte(
		"1 50 -1 10 1 -1 -1 1 -1 -1 1 3 -1 -1 -1 -1 -1 -1\n" +
			"2 5 -1 4 1 -1 -1 1 -1 -1 1 4 -1 -1 -1 -1 -1 -1\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 2 || tr.Jobs[0].Submit != model.Time(5) {
		t.Fatalf("non-monotonic trace not sorted: %+v", tr.Jobs)
	}
}

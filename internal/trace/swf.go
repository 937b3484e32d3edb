// Package trace reads and writes workloads in the Standard Workload
// Format (SWF) used by the Parallel Workload Archive — the source of the
// paper's evaluation traces (LPC-EGEE, PIK-IPLEX, SHARCNET-Whale, RICC)
// — and converts them into model instances: parallel jobs are expanded
// into sequential copies and users are distributed among organizations,
// exactly as described in Section 7.2.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/model"
)

// Job is one SWF record, reduced to the fields the experiments use.
type Job struct {
	ID      int        // SWF job number
	Submit  model.Time // SWF field 2
	Runtime model.Time // SWF field 4
	Procs   int        // SWF field 5 (allocated), falling back to field 8 (requested)
	User    int        // SWF field 12
	Status  int        // SWF field 11; 1 = completed
}

// Trace is a parsed workload: header comment lines (without the leading
// ';') plus job records in submission order.
type Trace struct {
	Header []string
	Jobs   []Job
}

// ParseSWF reads a whole SWF stream into memory. Comment lines (';')
// become the header; records with non-positive runtime or unparsable
// fields are skipped (the archive marks failed jobs with -1), counting
// them in skipped. It is the batch form of the streaming Reader — same
// grammar, no line-length cap — for workloads that fit in memory; the
// incremental engine feeds from a Reader directly instead.
func ParseSWF(r io.Reader) (t *Trace, skipped int, err error) {
	t = &Trace{}
	sr := NewReader(r)
	for {
		j, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, sr.Skipped(), err
		}
		t.Jobs = append(t.Jobs, j)
	}
	t.Header = append(t.Header, sr.Header()...)
	sort.SliceStable(t.Jobs, func(a, b int) bool { return t.Jobs[a].Submit < t.Jobs[b].Submit })
	return t, sr.Skipped(), nil
}

// WriteSWF emits the trace in SWF: 18 fields per record, unknown fields
// as -1. The output round-trips through ParseSWF.
func (t *Trace) WriteSWF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, h := range t.Header {
		if _, err := fmt.Fprintf(bw, "; %s\n", h); err != nil {
			return err
		}
	}
	for _, j := range t.Jobs {
		if _, err := fmt.Fprintf(bw, "%d %d -1 %d %d -1 -1 %d -1 -1 %d %d -1 -1 -1 -1 -1 -1\n",
			j.ID, j.Submit, j.Runtime, j.Procs, j.Procs, j.Status, j.User); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Users returns the distinct user IDs in ascending order.
func (t *Trace) Users() []int {
	seen := map[int]bool{}
	for _, j := range t.Jobs {
		seen[j.User] = true
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Sequentialize expands every job requiring q > 1 processors into q
// sequential copies with the same submit time, runtime and user — the
// paper's preprocessing of the archive traces (Section 7.2).
func (t *Trace) Sequentialize() *Trace {
	out := &Trace{Header: append([]string(nil), t.Header...)}
	for _, j := range t.Jobs {
		for q := 0; q < j.Procs; q++ {
			c := j
			c.Procs = 1
			out.Jobs = append(out.Jobs, c)
		}
	}
	return out
}

// Window keeps the jobs submitted in [start, end) and shifts their
// submit times so the window begins at 0 — the paper's random sub-trace
// extraction.
func (t *Trace) Window(start, end model.Time) *Trace {
	out := &Trace{Header: append([]string(nil), t.Header...)}
	for _, j := range t.Jobs {
		if j.Submit >= start && j.Submit < end {
			c := j
			c.Submit -= start
			out.Jobs = append(out.Jobs, c)
		}
	}
	return out
}

// TotalWork returns Σ runtime·procs.
func (t *Trace) TotalWork() int64 {
	var w int64
	for _, j := range t.Jobs {
		w += int64(j.Runtime) * int64(j.Procs)
	}
	return w
}

// AssignUsers maps each user ID to one of k organizations: the user list
// is shuffled and dealt round-robin, the paper's uniform distribution of
// user identifiers over organizations.
func AssignUsers(users []int, k int, rng *rand.Rand) map[int]int {
	shuffled := append([]int(nil), users...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	out := make(map[int]int, len(shuffled))
	for i, u := range shuffled {
		out[u] = i % k
	}
	return out
}

// ToInstance builds a model instance from a sequentialized trace:
// machines[i] processors go to organization i and each job goes to its
// user's organization. Jobs of unknown users are rejected.
func ToInstance(t *Trace, machines []int, orgOfUser map[int]int) (*model.Instance, error) {
	orgs := make([]model.Org, len(machines))
	for i, m := range machines {
		orgs[i] = model.Org{Name: fmt.Sprintf("org%d", i), Machines: m}
	}
	jobs := make([]model.Job, 0, len(t.Jobs))
	for _, j := range t.Jobs {
		if j.Procs != 1 {
			return nil, fmt.Errorf("trace: job %d needs %d processors; Sequentialize first", j.ID, j.Procs)
		}
		org, ok := orgOfUser[j.User]
		if !ok {
			return nil, fmt.Errorf("trace: job %d has unassigned user %d", j.ID, j.User)
		}
		jobs = append(jobs, model.Job{Org: org, Release: j.Submit, Size: j.Runtime})
	}
	return model.NewInstance(orgs, jobs)
}

package metrics

import "fmt"

// AdmissionStats is the per-organization admission accounting of a
// control plane (internal/ctrl): how many released jobs were admitted,
// rejected or are currently deferred, plus decision-latency aggregates.
// The counters obey a conservation law the control plane checks after
// every advance —
//
//	Admitted + Rejected + Deferred == Released
//
// per organization at every quiescent instant (no control event is
// mid-flight). Deferred is a gauge (jobs pending an admission retry),
// not a cumulative count; Defers counts the retry events themselves —
// one job bouncing off a drained token bucket three times is one
// Deferred at most but three Defers.
//
// The struct is plain data with JSON tags: it rides inside control-
// plane checkpoints and daemon StateReply payloads unchanged.
type AdmissionStats struct {
	Released []int64 `json:"released"`
	Admitted []int64 `json:"admitted"`
	Rejected []int64 `json:"rejected"`
	Deferred []int64 `json:"deferred"`
	Defers   []int64 `json:"defers"`

	// Decision latency: the event-time span from a job's arrival at the
	// control plane to its terminal verdict (admit or reject). Deferred
	// jobs accrue latency until they resolve. Count/Sum/Max are in the
	// simulation's time units.
	LatencyCount int64 `json:"latency_count"`
	LatencySum   int64 `json:"latency_sum"`
	LatencyMax   int64 `json:"latency_max"`
}

// NewAdmissionStats returns zeroed counters for the given organization
// universe.
func NewAdmissionStats(orgs int) *AdmissionStats {
	return &AdmissionStats{
		Released: make([]int64, orgs),
		Admitted: make([]int64, orgs),
		Rejected: make([]int64, orgs),
		Deferred: make([]int64, orgs),
		Defers:   make([]int64, orgs),
	}
}

// Orgs returns the organization-universe size the stats are shaped for.
func (s *AdmissionStats) Orgs() int { return len(s.Released) }

// Release counts one job arriving at the control plane.
func (s *AdmissionStats) Release(org int) { s.Released[org]++ }

// Admit counts a terminal admit verdict with the given decision latency.
func (s *AdmissionStats) Admit(org int, latency int64) {
	s.Admitted[org]++
	s.latency(latency)
}

// Reject counts a terminal reject verdict with the given decision
// latency.
func (s *AdmissionStats) Reject(org int, latency int64) {
	s.Rejected[org]++
	s.latency(latency)
}

// Defer counts one defer event and marks the job as pending retry.
func (s *AdmissionStats) Defer(org int) {
	s.Deferred[org]++
	s.Defers[org]++
}

// Resume clears a job's pending-retry mark when its deferred admission
// event is picked back up.
func (s *AdmissionStats) Resume(org int) { s.Deferred[org]-- }

func (s *AdmissionStats) latency(l int64) {
	s.LatencyCount++
	s.LatencySum += l
	if l > s.LatencyMax {
		s.LatencyMax = l
	}
}

// MeanLatency returns the mean decision latency over terminal verdicts
// (0 before the first one).
func (s *AdmissionStats) MeanLatency() float64 {
	if s.LatencyCount == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.LatencyCount)
}

// TotalReleased returns Σ Released.
func (s *AdmissionStats) TotalReleased() int64 { return sum(s.Released) }

// TotalAdmitted returns Σ Admitted.
func (s *AdmissionStats) TotalAdmitted() int64 { return sum(s.Admitted) }

// TotalRejected returns Σ Rejected.
func (s *AdmissionStats) TotalRejected() int64 { return sum(s.Rejected) }

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// CheckConserved verifies the admission conservation law per
// organization: admitted + rejected + deferred == released, with every
// counter non-negative. The control plane calls it after each advance;
// a violation means a job was dropped or double-counted.
func (s *AdmissionStats) CheckConserved() error {
	n := len(s.Released)
	if len(s.Admitted) != n || len(s.Rejected) != n || len(s.Deferred) != n || len(s.Defers) != n {
		return fmt.Errorf("metrics: admission counters have mismatched organization counts")
	}
	for o := 0; o < n; o++ {
		if s.Released[o] < 0 || s.Admitted[o] < 0 || s.Rejected[o] < 0 || s.Deferred[o] < 0 || s.Defers[o] < 0 {
			return fmt.Errorf("metrics: negative admission counter for organization %d", o)
		}
		if got := s.Admitted[o] + s.Rejected[o] + s.Deferred[o]; got != s.Released[o] {
			return fmt.Errorf("metrics: organization %d: admitted %d + rejected %d + deferred %d != released %d",
				o, s.Admitted[o], s.Rejected[o], s.Deferred[o], s.Released[o])
		}
	}
	return nil
}

// Clone returns an independent copy (StateReply hands stats across the
// session lock boundary).
func (s *AdmissionStats) Clone() *AdmissionStats {
	if s == nil {
		return nil
	}
	c := *s
	c.Released = append([]int64(nil), s.Released...)
	c.Admitted = append([]int64(nil), s.Admitted...)
	c.Rejected = append([]int64(nil), s.Rejected...)
	c.Deferred = append([]int64(nil), s.Deferred...)
	c.Defers = append([]int64(nil), s.Defers...)
	return &c
}

package daemon

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/fed"
)

// gateEnvelope is the layout gated single sessions were stored in while
// the engine carried an admission gate of its own: the control plane's
// state and cached load view wrapped around the engine's checkpoint.
type gateEnvelope struct {
	GateVersion int              `json:"gate_version"`
	Admission   *ctrl.PolicySpec `json:"admission"`
	Ctrl        json.RawMessage  `json:"ctrl"`
	View        *ctrl.View       `json:"view"`
	Core        json.RawMessage  `json:"core"`
}

// upgradeGateEnvelope converts a gate envelope into the checkpoint of
// the one-member federation a gated single session now runs as, and
// returns any other document as it is. Jobs the gate had queued for a
// release still to come become pending jobs; deferred ones stay on the
// retry queue. The cached load view becomes a one-member exchange (ψ
// zeros: no policy of a gated single session reads them). The member
// keeps the seed its engine ran with. The envelope never recorded which
// arrival an admitted job was, so the member's jobs take, in job order,
// the released sequence numbers nothing queued holds.
func upgradeGateEnvelope(data []byte, alg core.StepperAlgorithm, seed int64) ([]byte, error) {
	var env gateEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("daemon: restore: %w", err)
	}
	if env.GateVersion == 0 && env.Core == nil {
		return data, nil
	}
	var plane ctrl.Checkpoint
	if env.GateVersion != 1 || env.Admission == nil || json.Unmarshal(env.Ctrl, &plane) != nil || plane.Stats == nil {
		return nil, fmt.Errorf("daemon: restore: not a version-1 gate envelope with an admission spec and control-plane state")
	}
	eng, err := engine.Restore(alg, env.Core)
	if err != nil {
		return nil, fmt.Errorf("daemon: restore: gate envelope core: %w", err)
	}
	cp := fed.Checkpoint{
		Version:   fed.CheckpointVersion,
		Policy:    fed.LocalOnly{}.Name(),
		Seed:      seed,
		Now:       eng.Now(),
		Order:     make([]int, len(eng.Decisions())),
		Staleness: env.Admission.Staleness,
		Admission: env.Admission,
	}
	queued := map[int64]bool{}
	retries := plane.Queue.Events[:0]
	for _, e := range plane.Queue.Events {
		if queued[e.Job.Seq] {
			return nil, fmt.Errorf("daemon: restore: gate envelope queues job %d twice", e.Job.Seq)
		}
		queued[e.Job.Seq] = true
		if e.Attempt > 0 {
			retries = append(retries, e)
		} else {
			cp.Pending = append(cp.Pending, fed.Pending{Seq: e.Job.Seq, Org: e.Job.Org, Size: e.Job.Size, Release: e.At})
		}
	}
	plane.Queue.Events = retries
	slices.SortFunc(cp.Pending, func(a, b fed.Pending) int {
		return cmp.Or(cmp.Compare(a.Release, b.Release), cmp.Compare(a.Seq, b.Seq))
	})
	// The gate numbered arrivals from 0: each released one and each
	// still queued had a number.
	submitted := plane.Stats.TotalReleased() + int64(len(cp.Pending))
	for seq := range queued {
		if seq < 0 || seq >= submitted {
			return nil, fmt.Errorf("daemon: restore: gate envelope queues job %d of the %d it numbered", seq, submitted)
		}
	}
	jobs := len(eng.Instance().Jobs)
	member := fed.MemberCheckpoint{Name: gatedMember, OriginOf: make([]int, jobs), Engine: env.Core}
	for seq := int64(0); seq < submitted && len(member.SeqOf) < jobs; seq++ {
		if !queued[seq] {
			member.SeqOf = append(member.SeqOf, seq)
		}
	}
	if len(member.SeqOf) != jobs {
		return nil, fmt.Errorf("daemon: restore: gate envelope holds %d jobs for %d released ones", jobs, len(member.SeqOf))
	}
	cp.Members = []fed.MemberCheckpoint{member}
	cp.Ledger = &fed.Ledger{Submitted: submitted, Migrated: [][]int64{{0}}, MigratedWork: [][]int64{{0}}}
	if cp.Ctrl, err = json.Marshal(plane); err != nil {
		return nil, err
	}
	if v := env.View; v != nil {
		// The gate read the load it cached, never the instant, so the
		// exchange observes the one it was taken at.
		cp.ExAt, cp.ExNow = v.TakenAt, &v.TakenAt
		cp.ExSums = []fed.Summary{{Waiting: v.Load.Waiting, Psi: make([]int64, len(eng.Instance().Orgs))}}
	}
	return json.Marshal(cp)
}

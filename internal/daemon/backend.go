package daemon

import (
	"slices"

	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

// backend is the run behind a Session: one engine or one federation,
// in the session's wire vocabulary. SessionConfig.open builds it; the
// Session serializes access and never asks which kind it holds. Engines
// and federations share the clock and snapshot methods by name, so each
// backend embeds its run and adds the rest.
type backend interface {
	Now() model.Time
	NextEventTime() model.Time
	Snapshot() ([]byte, error)
	// Admission and AdmissionStats are nil when the run is ungated.
	Admission() *ctrl.PolicySpec
	AdmissionStats() *metrics.AdmissionStats

	// submit accepts the whole batch or none of it, releasing a job
	// that names no release at now, the run's clock.
	submit(now model.Time, jobs []JobSubmission) ([]int64, error)
	// step advances to until and returns the fresh decisions.
	step(until model.Time) ([]Decision, error)
	// counts returns the jobs accepted and the decisions logged so far.
	counts() (jobs, decisions int)
	// state returns a state reply with the kind-specific fields filled
	// (by value: a pointer through the interface would escape).
	state() StateReply
	// decisions returns the log's length and its suffix from since >= 0.
	decisions(since int) (int, []Decision)
}

// releaseAt is the job's release instant: its own, or now.
func (j JobSubmission) releaseAt(now model.Time) model.Time {
	if j.Release != nil {
		return *j.Release
	}
	return now
}

// singleRun is an ungated single-cluster session's backend.
type singleRun struct{ *engine.Engine }

func (singleRun) Admission() *ctrl.PolicySpec { return nil }

func (singleRun) AdmissionStats() *metrics.AdmissionStats { return nil }

func fromStarts(starts []sim.Start) []Decision {
	out := make([]Decision, len(starts))
	for i, st := range starts {
		out[i] = Decision{Job: int64(st.Job), Org: st.Org, Machine: st.Machine, At: st.At}
	}
	return out
}

func (r singleRun) submit(now model.Time, jobs []JobSubmission) ([]int64, error) {
	batch := make([]model.Job, len(jobs))
	for i, j := range jobs {
		batch[i] = model.Job{Org: j.Org, Size: j.Size, Release: j.releaseAt(now)}
	}
	ids, err := r.Feed(batch)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out, nil
}

func (r singleRun) step(until model.Time) ([]Decision, error) {
	starts, err := r.Step(until)
	return fromStarts(starts), err
}

func (r singleRun) counts() (jobs, decisions int) {
	return len(r.Instance().Jobs), len(r.Decisions())
}

func (r singleRun) state() StateReply {
	res := r.Result()
	return StateReply{
		Algorithm:   res.Algorithm,
		Psi:         res.Psi,
		Phi:         res.Phi,
		Value:       res.Value,
		Utilization: res.Utilization,
	}
}

func (r singleRun) decisions(since int) (int, []Decision) {
	all := r.Decisions()
	return len(all), fromStarts(all[min(since, len(all)):])
}

// fedRun is a federated session's backend. batch is submit's scratch,
// reused under the session lock.
type fedRun struct {
	*fed.Federation
	batch []fed.SourceJob
}

func fromFedDecisions(decs []fed.Decision) []Decision {
	out := make([]Decision, len(decs))
	for i, d := range decs {
		out[i] = Decision{Job: d.Seq, Org: d.Org, Cluster: d.Cluster, Machine: d.Machine, At: d.At}
	}
	return out
}

func (r *fedRun) submit(now model.Time, jobs []JobSubmission) ([]int64, error) {
	r.batch = slices.Grow(r.batch[:0], len(jobs))
	for _, j := range jobs {
		r.batch = append(r.batch, fed.SourceJob{Cluster: j.Cluster, Org: j.Org, Size: j.Size, Release: j.releaseAt(now)})
	}
	return r.SubmitJobs(r.batch)
}

func (r *fedRun) step(until model.Time) ([]Decision, error) {
	decs, err := r.Step(until)
	return fromFedDecisions(decs), err
}

func (r *fedRun) counts() (jobs, decisions int) {
	return int(r.Submitted()), len(r.Decisions())
}

func (r *fedRun) state() StateReply {
	l := r.Ledger()
	reply := StateReply{
		Policy:     r.Policy().Name(),
		Pending:    r.PendingCount(),
		Psi:        l.FederationPsi(),
		Value:      l.FederationValue(),
		Offloaded:  l.Offloaded(),
		Migrations: l.Migrations,
	}
	for c, m := range r.Members() {
		eng := m.Engine()
		reply.Clusters = append(reply.Clusters, ClusterState{
			Name:      m.Name(),
			Now:       eng.Now(),
			Jobs:      len(eng.Instance().Jobs),
			Waiting:   eng.Waiting(),
			Decisions: len(eng.Decisions()),
			Psi:       l.Psi[c],
			Value:     l.Value[c],
			Executed:  l.Executed[c],
		})
	}
	return reply
}

func (r *fedRun) decisions(since int) (int, []Decision) {
	all := r.Decisions()
	return len(all), fromFedDecisions(all[min(since, len(all)):])
}

// gatedRun is a gated single session's backend: a one-member federation
// under local routing behind the session's admission control plane,
// whose member answers for the session's counts and state. Its
// decisions name jobs by the sequence numbers submit returned.
type gatedRun struct {
	fedRun
	member singleRun
}

// submit hands every job in at the one member: a single run ignores
// JobSubmission.Cluster.
func (r *gatedRun) submit(now model.Time, jobs []JobSubmission) ([]int64, error) {
	r.batch = slices.Grow(r.batch[:0], len(jobs))
	for _, j := range jobs {
		r.batch = append(r.batch, fed.SourceJob{Org: j.Org, Size: j.Size, Release: j.releaseAt(now)})
	}
	return r.SubmitJobs(r.batch)
}

func (r *gatedRun) counts() (jobs, decisions int) { return r.member.counts() }

func (r *gatedRun) state() StateReply { return r.member.state() }

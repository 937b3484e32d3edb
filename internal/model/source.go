package model

// SourceJob is one job yielded by a streaming JobSource: which cluster
// it was handed in at, who owns it, how big it is and when it becomes
// available — the arguments of one federated Submit call. The type
// lives here — in the shared vocabulary package — so producers
// (internal/gen scenario samplers) and the consumer
// (fed.Federation.SubmitThrough) need not import one another.
type SourceJob struct {
	Cluster int
	Org     int
	Size    Time
	Release Time
}

// JobSource is the pull-based ingestion contract: a producer hands out
// one job at a time, so a replay driver (fed.Federation.SubmitThrough)
// submits a step's releases ahead of each step instead of materializing
// the whole trace in the pending queue.
//
// Next returns the next job, ok=false when the stream is exhausted, or
// an error. Sources must yield jobs in nondecreasing Release order and
// must be deterministic and replayable: a checkpoint holds no cursor,
// and a restored run resumes by re-opening the source and skipping the
// jobs the federation had already accepted (Federation.Submitted).
type JobSource interface {
	Next() (SourceJob, bool, error)
}

package model

// SourceJob is one job handed to a federation (an element of
// fed.SubmitJobs, and what the SWF and scenario streams yield): which
// cluster it was handed in at, who owns it, how big it is and when it
// becomes available — the arguments of one federated Submit call.
type SourceJob struct {
	Cluster int
	Org     int
	Size    Time
	Release Time
}

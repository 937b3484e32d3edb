// Package repro is a production-quality Go reproduction of
// "Non-monetary fair scheduling — a cooperative game theory approach"
// (Skowron & Rzadca, SPAA 2013).
//
// The module implements the paper's Shapley-value based fair schedulers
// (REF, RAND, DIRECTCONTR), the strategy-proof utility function ψsp, the
// distributive-fairness baselines it is evaluated against, an event-driven
// multi-organization cluster simulator, synthetic workload generators
// modeled after the Parallel Workload Archive traces used in the paper,
// and an experiment harness that regenerates every table and figure of
// the evaluation section.
//
// Layout:
//
//	internal/model    — organizations, jobs, coalitions, instances
//	internal/utility  — ψsp and the flow-time metric it is compared with
//	internal/stats    — seeded random sources, workload distributions,
//	                    streaming mean/stddev
//	internal/metrics  — Δψ / Δψ/p_tot unfairness measures and the
//	                    admission conservation counters
//	internal/shapley  — the dynamic-game layer (ContribGame, and Contrib,
//	                    the one exact evaluator under REF and FedREF),
//	                    the sampled estimators, and the float subset
//	                    formula kept as the tests' independent oracle
//	internal/sim      — event-driven cluster simulator with greedy dispatch,
//	                    online job injection/withdrawal and state
//	                    capture/restore
//	internal/core     — the paper's contribution: REF, RAND, DIRECTCONTR
//	                    and the NBS allocator, each a plug on one
//	                    schedule-set event loop (schedSet: touched-set
//	                    stepping, inject/withdraw, checkpoints),
//	                    runnable incrementally as a core.Stepper and
//	                    always on the caller's goroutine; AlgorithmByName
//	                    resolves every algorithm name
//	internal/bargain  — deterministic weighted Nash Bargaining Solution
//	                    solver (water-filling with disagreement points
//	                    and per-agent caps, zero-alloc SolveInto)
//	internal/baseline — RoundRobin, FairShare, UtFairShare, CurrFairShare, FCFS
//	internal/engine   — incremental run engine, a pure library:
//	                    Feed/Step/Snapshot/Restore
//	internal/ctrl     — cluster control plane: one queue of jobs
//	                    awaiting a verdict, pluggable admission
//	                    policies (always-admit, per-org token bucket,
//	                    queue-depth backpressure) and the
//	                    bounded-staleness SnapshotProvider contract;
//	                    gates federation submission (a gated single
//	                    cluster is a one-member federation)
//	internal/fed      — federated multi-cluster scheduling: 1 to 30
//	                    member clusters, pluggable delegation policies
//	                    (local, least-loaded, fairness-aware + pricing
//	                    ablations, federation-level Shapley routing via
//	                    fed.Game and RefPolicy, Nash-bargaining routing
//	                    via NBSPolicy) resolved once into one routing
//	                    path (a Scorer's per-exchange argmax, else one
//	                    policy call per job), summary-gossip staleness,
//	                    migration of the jobs members hold queued at
//	                    gossip refreshes (Migrating), federation-wide
//	                    contribution ledger,
//	                    lockstep checkpoints, and replayable job
//	                    sources (JobSource, SWF adapter) fed one step
//	                    ahead of the clock by SubmitThrough
//	internal/daemon   — the HTTP serving layer: many concurrent
//	                    runs (single or federated) over HTTP in one
//	                    session table, persisted through a
//	                    crash-safe CheckpointStore (atomic writes,
//	                    corrupt-envelope quarantine, periodic dirty
//	                    flusher) and served by an async advance
//	                    pipeline with per-session round-robin
//	internal/trace    — Standard Workload Format (SWF) reader/writer and
//	                    the O(1)-memory streaming Reader
//	internal/gen      — synthetic workload families and federated
//	                    scenario generation (arrival skew, diurnal
//	                    phase offsets, heterogeneous sites), both eager
//	                    and as a replayable streaming fed.JobSource
//	internal/exp      — Table 1/2, Figure 7/10, federated delegation
//	                    (policy × metric) and admission-control
//	                    (variant × load) experiment runners
//	internal/vis      — ASCII Gantt charts (Figures 2 and 7)
//	cmd/...           — fairsched, fairschedd (multi-session daemon),
//	                    paperexp, tracegen executables
//	bench/            — the committed request-path benchmark
//	                    (go run ./bench, BENCHMARK.json)
//	examples/...      — runnable scenarios built on the public API
//	                    (nphardness carries the Theorem 5.1 gadget)
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package repro

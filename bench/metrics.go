package main

// metricDef names one reported metric. BENCHMARK.json carries the same
// names with their regression bounds; TestBenchmarkJSON holds the two
// lists to each other.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are what a client of the daemon sees, measured with
// tracing off. Every workload reports every one of them. The list is
// the metrics steady enough on the reference box to carry a regression
// bound; throughput, the latency tail, read latency and recovery time
// are measured too but spread past any allowed bound there, so they are
// client.* rows of the ledger instead.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"advance_p50_ms", "ms", "lower"},
	{"submit_p50_ms", "ms", "lower"},
	{"cpu_s_per_kreq", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"ckpt_kb_per_session", "KB", "lower"},
}

// layerMetrics are the per-layer ledger of the traced run. A row whose
// layer is not on a workload's path reads 0 there (a workload without
// a store has no store time), never a stale or borrowed value.
var layerMetrics = []metricDef{
	{"client.request_us", "us", "lower"},
	{"client.req_per_s", "1/s", "higher"},
	{"client.advance_p95_ms", "ms", "lower"},
	{"client.advance_p99_ms", "ms", "lower"},
	{"client.read_p50_ms", "ms", "lower"},
	{"client.recover_s", "s", "lower"},
	{"net.self_us", "us", "lower"},

	{"daemon.http.self_us", "us", "lower"},
	{"daemon.http.allocs_per_req", "count", "lower"},
	{"daemon.json.decode_us", "us", "lower"},
	{"daemon.json.encode_us", "us", "lower"},
	{"daemon.json.bytes_in", "B", "lower"},
	{"daemon.json.bytes_out", "B", "lower"},

	{"daemon.pipeline.self_us", "us", "lower"},
	{"daemon.pipeline.coalesced_ratio", "ratio", "higher"},
	{"daemon.pipeline.wakeups_per_adv", "ratio", "lower"},
	{"daemon.pipeline.burst_p99_ms", "ms", "lower"},

	{"daemon.session.self_us", "us", "lower"},
	{"daemon.session.allocs_per_op", "count", "lower"},
	{"daemon.create_us", "us", "lower"},
	{"daemon.state_us", "us", "lower"},

	{"daemon.checkpoint.encode_us", "us", "lower"},
	{"daemon.store.save_us", "us", "lower"},
	{"daemon.store.save_bytes", "B", "lower"},
	{"daemon.store.saves_per_s", "1/s", "higher"},
	{"daemon.store.busy_ratio", "ratio", "lower"},
	{"daemon.store.load_us_per_session", "us", "lower"},
	{"daemon.session.restore_us", "us", "lower"},

	{"engine.self_us", "us", "lower"},
	{"engine.allocs_per_op", "count", "lower"},
	{"engine.snapshot_us", "us", "lower"},
	{"engine.snapshot_bytes", "B", "lower"},
	{"engine.restore_us", "us", "lower"},

	{"ctrl.plane.arrive_us", "us", "lower"},
	{"ctrl.plane.advance_us_per_job", "us", "lower"},
	{"ctrl.tokenbucket.decide_ns", "ns", "lower"},
	{"ctrl.plane.allocs_per_job", "count", "lower"},
	{"ctrl.admitted_ratio", "ratio", "higher"},
	{"ctrl.deferred_per_kjob", "count", "lower"},

	{"fed.self_us", "us", "lower"},
	{"fed.route_us_per_job", "us", "lower"},
	{"fed.route_calls_per_job", "ratio", "lower"},
	{"fed.allocs_per_step", "count", "lower"},
	{"fed.offload_ratio", "ratio", "higher"},
	{"fed.migrations_per_kjob", "count", "higher"},
	{"fed.snapshot_us", "us", "lower"},
	{"fed.snapshot_bytes", "B", "lower"},
	{"fed.route.fedref_us", "us", "lower"},

	{"core.self_us", "us", "lower"},
	{"core.ref.step_us", "us", "lower"},
	{"core.ref.allocs_per_step", "count", "lower"},
	{"core.ref.inject_us", "us", "lower"},
	{"core.rand.step_us", "us", "lower"},
	{"core.rand.allocs_per_step", "count", "lower"},
	{"core.nbs.step_us", "us", "lower"},
	{"core.nbs.allocs_per_step", "count", "lower"},
	{"core.directcontr.step_us", "us", "lower"},
	{"core.directcontr.allocs_per_step", "count", "lower"},
	{"core.policy.step_us", "us", "lower"},
	{"core.policy.allocs_per_step", "count", "lower"},
	{"client.ref.advance_p50_ms", "ms", "lower"},
	{"client.rand.advance_p50_ms", "ms", "lower"},

	{"shapley.refresh_phi_us.k8", "us", "lower"},
	{"shapley.sample_us.k8.n15", "us", "lower"},

	{"bargain.solve_us.k6", "us", "lower"},
	{"bargain.solve_us.k8", "us", "lower"},
	{"bargain.solve_allocs", "count", "lower"},

	{"sim.cluster.step_ns", "ns", "lower"},
	{"sim.cluster.inject_ns", "ns", "lower"},

	{"trace.swf.parse_ns_per_job", "ns", "lower"},
	{"fed.swfsource.pull_ns_per_job", "ns", "lower"},
	{"gen.fedsource.next_ns_per_job", "ns", "lower"},
	{"exp.table1_small_s", "s", "lower"},

	{"trace.overhead_ratio", "ratio", "lower"},
}

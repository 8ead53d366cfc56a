package main

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units (TestMetricNamesMatchBenchmarkJSON keeps them equal).
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run. Every workload must measure all of them; what a unit is
// depends on the workload (see README.md): a regenerated experiment table
// on sim_sweep, a completed session on direct_churn, a delivered data
// message on the other three.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_us_per_unit", "us", "lower"},
	{"units_per_s", "1/s", "higher"},
	{"on_time_frac", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, printed by a traced run. The
// prefix is the package the number belongs to; proc is the process. A
// workload that does not exercise a layer prints 0 for it.
var perLayer = []metricDef{
	// Spans round the experiment runners (sim_sweep).
	{name: "experiment.fig2_ms", unit: "ms", better: "lower"},
	{name: "experiment.fig3_ms", unit: "ms", better: "lower"},
	{name: "experiment.fig4_ms", unit: "ms", better: "lower"},
	{name: "experiment.fig5_ms", unit: "ms", better: "lower"},
	{name: "experiment.fig6_ms", unit: "ms", better: "lower"},
	{name: "experiment.robust_ms", unit: "ms", better: "lower"},
	{name: "experiment.brd_ms", unit: "ms", better: "lower"},
	{name: "experiment.onlinelb_ms", unit: "ms", better: "lower"},
	{name: "experiment.rest_ms", unit: "ms", better: "lower"},
	{name: "experiment.sweep_s", unit: "s", better: "lower"},
	{name: "experiment.seq_sweep_s", unit: "s", better: "lower"},
	{name: "experiment.par_speedup", unit: "ratio", better: "higher"},

	// Micro-drivers over exported calls (every workload).
	{name: "core.sim_ns_per_slice.greedy", unit: "ns", better: "lower"},
	{name: "core.sim_ns_per_slice.taildrop", unit: "ns", better: "lower"},
	{name: "core.recvwindow_ns_per_msg", unit: "ns", better: "lower"},
	{name: "offline.unit_ms", unit: "ms", better: "lower"},
	{name: "offline.frames_ms", unit: "ms", better: "lower"},
	{name: "trace.generate_ms", unit: "ms", better: "lower"},
	{name: "stream.build_ms", unit: "ms", better: "lower"},
	{name: "netstream.encode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "netstream.decode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "netstream.sender_tick_ns", unit: "ns", better: "lower"},
	{name: "serve.sink_cpu_us_per_msg", unit: "us", better: "lower"},
	{name: "loadgen.replay_cpu_us_per_msg", unit: "us", better: "lower"},
	{name: "admission.try_admit_ns", unit: "ns", better: "lower"},
	{name: "admission.gate_build_ms", unit: "ms", better: "lower"},
	{name: "obs.record_ns", unit: "ns", better: "lower"},
	{name: "obs.publish_ns", unit: "ns", better: "lower"},
	{name: "stats.loghist_add_ns", unit: "ns", better: "lower"},

	// Spans and exported registries of the serving engine (network workloads).
	{name: "serve.new_ms", unit: "ms", better: "lower"},
	{name: "serve.handle_p50_us", unit: "us", better: "lower"},
	{name: "serve.handle_p99_us", unit: "us", better: "lower"},
	{name: "serve.handle_max_us", unit: "us", better: "lower"},
	{name: "serve.step_p50_us", unit: "us", better: "lower"},
	{name: "serve.step_p99_us", unit: "us", better: "lower"},
	{name: "serve.step_max_us", unit: "us", better: "lower"},
	{name: "serve.ticks", unit: "count", better: "higher"},
	{name: "serve.busy_frac", unit: "ratio", better: "lower"},
	{name: "serve.stretch", unit: "ratio", better: "lower"},
	{name: "serve.cohort_hits", unit: "count", better: "higher"},
	{name: "serve.cohort_misses", unit: "count", better: "lower"},
	{name: "serve.deadline_expiries", unit: "count", better: "lower"},
	{name: "serve.sessions_failed", unit: "count", better: "lower"},

	// The client engine's wave reports (network workloads).
	{name: "loadgen.dial_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.dial_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.handshake_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.handshake_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.step_lag_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.step_lag_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.step_lag_p9999_us", unit: "us", better: "lower"},
	{name: "loadgen.step_lag_mean_us", unit: "us", better: "lower"},
	{name: "loadgen.msgs", unit: "count", better: "higher"},
	{name: "loadgen.payload_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "loadgen.incomplete_slices", unit: "count", better: "lower"},
	{name: "loadgen.late_bytes", unit: "count", better: "lower"},
	{name: "loadgen.failed_sessions", unit: "count", better: "lower"},

	// Spans and the exported registry of the front tier (tier_paced).
	{name: "lb.new_ms", unit: "ms", better: "lower"},
	{name: "lb.handle_p50_us", unit: "us", better: "lower"},
	{name: "lb.handle_p99_us", unit: "us", better: "lower"},
	{name: "lb.admit_wait_p99_us", unit: "us", better: "lower"},
	{name: "lb.relay_stalls", unit: "count", better: "lower"},
	{name: "lb.splice_fallbacks", unit: "count", better: "lower"},
	{name: "lb.replacements", unit: "count", better: "lower"},
	{name: "lb.placement_failures", unit: "count", better: "lower"},
	{name: "lb.backend_skew", unit: "ratio", better: "lower"},

	// The process, over the timed waves or sweeps.
	{name: "proc.cpu_user_s", unit: "s", better: "lower"},
	{name: "proc.cpu_sys_s", unit: "s", better: "lower"},
	{name: "proc.sys_frac", unit: "ratio", better: "lower"},
	{name: "proc.cores_busy", unit: "ratio", better: "lower"},
	{name: "proc.mallocs_per_session", unit: "count", better: "lower"},
	{name: "proc.alloc_kb_per_session", unit: "KB", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.vol_ctxsw_per_s", unit: "1/s", better: "lower"},
	{name: "proc.invol_ctxsw_per_s", unit: "1/s", better: "lower"},
	{name: "proc.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
}

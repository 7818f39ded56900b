package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; TestCatalogMatchesBenchmarkJSON keeps them in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports: what a user of the
// simulator waits for and pays in host memory. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"cpu_s", "s"},        // process user+sys CPU in the measured phase
	{"setup_s", "s"},      // process CPU of binary synthesis, provisioning, cluster build and deploy
	{"peak_rss_mb", "MB"}, // getrusage max RSS of the whole run
	{"alloc_mb", "MB"},    // heap bytes allocated in the measured phase
}

// perLayer are the metrics a traced run reports. A workload that never
// calls a layer reports that layer's metrics as 0. Host times are self
// times of the spans around each layer's public calls, summed over one
// iteration; counts are simulator statistics and repeat exactly at a seed.
var perLayer = []metricDef{
	// Host wall time of the measured phase (untraced median), and the
	// tracing cost: traced minus untraced median wall time.
	{"bench.wall_s", "s"},
	{"bench.trace_overhead_s", "s"},
	// Go runtime, per measured phase.
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},

	// node runtime (node-sweep, trace-accuracy).
	{"node.provision_ms", "ms"},
	{"node.attach_ms", "ms"},
	{"node.harvest_ms", "ms"},
	{"node.run.oracle_ms", "ms"},
	{"node.run.exist_ms", "ms"},
	{"node.run.stasam_ms", "ms"},
	{"node.run.ebpf_ms", "ms"},
	{"node.run.nht_ms", "ms"},
	{"node.run_p50_ms", "ms"},
	{"node.run_p90_ms", "ms"},
	{"sched.switches", "count"},
	{"sched.host_ns_per_switch", "ns"},
	{"sched.insns_m", "M"},
	{"sched.branches_m", "M"},
	{"sched.host_ns_per_branch", "ns"},
	{"core.msr_ops", "count"},
	{"ipt.bytes_mb", "MB"},
	{"ipt.dropped_mb", "MB"},
	{"ipt.accepted_frac", "fraction"},

	// binary synthesis, wire format, decoder, scoring (trace-accuracy).
	{"binary.synthesize_ms", "ms"},
	{"trace.marshal_ms", "ms"},
	{"trace.unmarshal_ms", "ms"},
	{"trace.wire_mb", "MB"},
	{"trace.v1_mb", "MB"},
	{"decode.decode_ms", "ms"},
	{"decode.mb_per_s", "MB/s"},
	{"decode.events_m", "M"},
	{"decode.resyncs", "count"},
	{"decode.errors", "count"},
	{"metrics.weightmatch_ms", "ms"},

	// cluster control plane (fleet-ctrl).
	{"cluster.new_ms", "ms"},
	{"cluster.deploy_ms", "ms"},
	{"cluster.request_ms", "ms"},
	{"cluster.run_ms", "ms"},
	{"cluster.step_p50_ms", "ms"},
	{"cluster.step_p90_ms", "ms"},
	{"cluster.syncs", "count"},
	{"cluster.syncs_per_request", "ratio"},
	{"cluster.requeues", "count"},
	{"cluster.conflicts", "count"},
	{"cluster.fenced_ops", "count"},
	{"cluster.relists", "count"},
	{"cluster.elections", "count"},
	{"cluster.rebalances", "count"},
	{"cluster.queue_max", "count"},
	{"cluster.oss_puts", "count"},
	{"cluster.host_us_per_sync", "us"},
	{"faults.leaves", "count"},
	{"faults.joins", "count"},

	// Simulated results. They repeat exactly at a seed, so a change meant
	// only to speed up the simulator must leave them identical.
	{"sim.exist_overhead_pct", "%"},
	{"sim.accuracy", "fraction"},
	{"sim.wire_ratio", "x"},
	{"sim.ctrl_p50_ms", "sim_ms"},
	{"sim.ctrl_p99_ms", "sim_ms"},
	{"sim.mgmt_cpu_us_per_req", "sim_us"},
}

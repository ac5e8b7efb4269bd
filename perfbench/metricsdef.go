package main

// metricDef mirrors one metric entry of BENCHMARK.json; a test keeps the
// two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are printed with -trace 0, measured with tracing off. Times
// are process CPU time: on the shared host wall-clock figures drift too
// far between runs to gate on (README.md), so they are printed above
// the result line instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"requests_per_cpu_s", "1/s", "higher", 0.25},
	{"peak_heap_mib", "MiB", "lower", 0.25},
}

// perLayer are printed with -trace 1. Counts are per pass on the
// pass-based workloads and totals over the traced phase on web_loopback;
// a layer a workload leaves idle reads 0.
var perLayer = []metricDef{
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "count/op", better: "lower"},
	{name: "runtime.alloc_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "trace.cpu_share", unit: "ratio", better: "lower"},
	{name: "trace.decode_ns_per_record", unit: "ns", better: "lower"},
	{name: "trace.bytes_per_record", unit: "B", better: "lower"},
	{name: "tracesim.cpu_share", unit: "ratio", better: "lower"},
	{name: "tracesim.replay_s", unit: "s", better: "lower"},
	{name: "tracesim.sim_elapsed_ms", unit: "ms", better: "lower"},
	{name: "tracesim.sim_digests", unit: "count", better: "lower"},
	{name: "fsim.cpu_share", unit: "ratio", better: "lower"},
	{name: "fsim.ops", unit: "count", better: "lower"},
	{name: "fsim.retried", unit: "count", better: "lower"},
	{name: "fsim.failed", unit: "count", better: "lower"},
	{name: "buffercache.cpu_share", unit: "ratio", better: "lower"},
	{name: "buffercache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffercache.prefetch_hit_ratio", unit: "ratio", better: "higher"},
	{name: "buffercache.evictions", unit: "count", better: "lower"},
	{name: "buffercache.writeback_pages", unit: "count", better: "lower"},
	{name: "buffercache.writeback_batches", unit: "count", better: "lower"},
	{name: "buffercache.writeback_throttles", unit: "count", better: "lower"},
	{name: "simdisk.cpu_share", unit: "ratio", better: "lower"},
	{name: "simdisk.ops", unit: "count", better: "lower"},
	{name: "simdisk.busy_ms", unit: "ms", better: "lower"},
	{name: "sharedq.cpu_share", unit: "ratio", better: "lower"},
	{name: "sharedq.dispatches", unit: "count", better: "lower"},
	{name: "sharedq.async_dispatches", unit: "count", better: "lower"},
	{name: "sharedq.queue_delay_ms", unit: "ms", better: "lower"},
	{name: "sharedq.max_pending", unit: "count", better: "lower"},
	{name: "webserver.cpu_share", unit: "ratio", better: "lower"},
	{name: "webserver.server_io_us_p50", unit: "us", better: "lower"},
	{name: "webserver.shed", unit: "count", better: "lower"},
	{name: "vm.cpu_share", unit: "ratio", better: "lower"},
	{name: "syscall.cpu_share", unit: "ratio", better: "lower"},
	{name: "netsim.cpu_share", unit: "ratio", better: "lower"},
	{name: "netsim.dropped", unit: "count", better: "lower"},
	{name: "netsim.busy_ms", unit: "ms", better: "lower"},
	{name: "distbench.cpu_share", unit: "ratio", better: "lower"},
	{name: "distbench.fast_s", unit: "s", better: "lower"},
	{name: "distbench.failover_s", unit: "s", better: "lower"},
	{name: "distbench.timed_out", unit: "count", better: "lower"},
	{name: "distbench.retried", unit: "count", better: "lower"},
	{name: "distbench.recovered", unit: "count", better: "higher"},
	{name: "distbench.lost", unit: "count", better: "lower"},
	{name: "distbench.worst_time_to_steady_ms", unit: "ms", better: "lower"},
	{name: "unattributed.cpu_share", unit: "ratio", better: "lower"},
	{name: "profile.samples", unit: "count", better: "higher"},
	{name: "tracing.overhead_ratio", unit: "ratio", better: "lower"},
}

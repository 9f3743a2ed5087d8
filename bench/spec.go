package main

import (
	"fmt"
	"slices"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (bench_test.go holds the two
// together); README.md says what each one should move and where.
type metricDef struct {
	Name, Unit string
	Better     string // "higher" or "lower"
	// Bound is how far the median may worsen, as a share of the baseline
	// median, before it counts as a regression. Exact metrics are
	// virtual-clock results or counts: under one seed they must repeat
	// bit for bit, and -compare treats any difference as a failure; their
	// Bound, where set, is only what BENCHMARK.json carries for runs that
	// differ in seed.
	Bound float64
	Exact bool
	// On lists the workloads the metric is defined on; nil means all.
	On []string
	// Contract marks the end-to-end metrics every workload emits and
	// that are never 0 — the ones BENCHMARK.json's end_to_end carries.
	Contract bool
}

func (d metricDef) definedOn(workload string) bool {
	return d.On == nil || slices.Contains(d.On, workload)
}

// endToEnd are the metrics a user of the system would see. The model_*
// latency metrics are the issue's (capture-due → verdict) on the online
// workloads and plain capture → verdict residence on the offline ones,
// so that every workload reports them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "host_fps", Unit: "1/s", Better: "higher", Bound: 0.25, Contract: true},
	{Name: "host_cpu_us_per_frame", Unit: "us", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "host_allocs_per_frame", Unit: "count", Better: "lower", Bound: 0.03, Contract: true},
	{Name: "host_bytes_per_frame", Unit: "B", Better: "lower", Bound: 0.02, Contract: true},
	{Name: "host_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, Contract: true},
	{Name: "model_fps", Unit: "1/s", Better: "higher", Bound: 0.05, Exact: true, Contract: true},
	{Name: "model_p50_latency_ms", Unit: "ms", Better: "lower", Exact: true},
	{Name: "model_p99_latency_ms", Unit: "ms", Better: "lower", Exact: true},
	{Name: "model_streams_sustained", Unit: "count", Better: "higher", Exact: true, On: []string{wlKnee}},
	{Name: "scene_loss_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "frame_error_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "failed_share", Unit: "share", Better: "lower", Exact: true},
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// perLayer are the single-layer metrics, all from outside the program:
// layer benches, the traced run's spans, and counters the reports
// already expose. A metric that is undefined on a workload (a ladder
// level off the ladder, a cluster counter without a cluster) reads 0
// there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("s", "lower", "lab.train_s")
	add("us", "lower", "lab.mint_us_per_stream", "vidgen.new_us", "detect.set_background_us", "pipeline.new_us_per_stream")
	add("ns", "lower", "vidgen.next_ns",
		"imgproc.resize_100_ns", "imgproc.resize_50_ns", "imgproc.resize_mse_ns", "imgproc.mse_ns", "filters.sdd_ns",
		"imgproc.blur3_ns", "detect.tinygrid_ns", "filters.tyolo_ns",
		"nn.infer_b1_ns", "nn.infer_b10_ns_per_sample", "filters.snm_ns_per_frame", "detect.oracle_ns")
	add("count", "higher", "filters.snm_batch_mean")
	add("share", "lower", "filters.sdd_pass_share", "filters.snm_pass_share", "filters.tyolo_pass_share")
	for _, s := range stageNames {
		add("count", "lower", "pipeline.stage_in."+s)
	}
	add("count", "lower", "pipeline.ref_canvases")
	add("share", "lower", "pipeline.model_util.cpu", "pipeline.model_util.gpu0", "pipeline.model_util.gpu1")
	add("share", "lower", "pipeline.model_wait_share.sdd", "pipeline.model_wait_share.snm",
		"pipeline.model_wait_share.tyolo", "pipeline.model_wait_share.ref")
	add("count", "lower", "pipeline.gpu0_switches", "pipeline.blocked_puts")
	for _, n := range defaultSizes().Ladder {
		add("ms", "lower", fmt.Sprintf("pipeline.p99_ms_at_%d", n), fmt.Sprintf("pipeline.worst_lag_ms_at_%d", n))
	}
	add("ns", "lower", "pipeline.glue_ns_per_frame", "queue.handoff_ns",
		"vclock.sleep_ns_at_1", "vclock.sleep_ns_at_128", "vclock.sleep_ns_at_4096")
	add("us", "lower", "vclock.go_us")
	add("ns", "lower", "device.use_ns", "frame.pool_ns")
	add("us", "lower", "pipeline.snapshot_us_at_1000")
	add("count", "lower", "pipeline.snapshot_allocs_at_1000")
	add("us", "lower", "sched.view_us_at_1000")
	add("count", "lower", "cluster.ticks", "cluster.events", "cluster.reforwards")
	add("ns", "lower", "trace.frame_ns")
	add("ms", "lower", "trace.export_ms_per_kframe")
	add("B", "lower", "trace.bytes_per_frame")
	add("us", "lower", "timeline.observe_us_at_1000", "timeline.attribute_us", "metrics.export_us", "obs.scrape_metrics_us")
	add("ns", "lower", "par.for_overhead_ns")
	add("x", "higher", "par.resize_speedup", "par.e2e_speedup_lowtor")
	add("ns", "lower", "video.decode_ns")
	for _, l := range frameLayers {
		add("share", "lower", "bench.frame_share."+l)
	}
	add("%", "lower", "bench.trace_overhead_pct")
	add("ms", "lower", "bench.calib_ms")
	add("count", "higher", "model.streams_sustained")
	add("%", "lower", "model.scene_loss_pct", "model.frame_error_pct")
	add("share", "lower", "model.failed_share")
	return defs
}

// frameLayers are the parts the traced run splits a frame's host time
// into; the shares sum to 1 by construction (glue is the remainder).
var frameLayers = []string{"source", "sdd", "snm", "tyolo", "ref", "mint", "glue"}

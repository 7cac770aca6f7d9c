package main

// metricDef names one reported number. BENCHMARK.json lists the same
// names; TestBenchmarkJSONMatchesRegistry keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // end-to-end only: tolerated worsening as a share of the base
}

// endToEnd is what a user of the service sees. error_rate is reported in
// the result line's failed/attempted pair (and as client.error_rate), not
// here: a metric that is 0 on every healthy run has no share to bound.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"qps", "1/s", true, 0.25},
	{"p50_ms", "ms", false, 0.25},
	{"p95_ms", "ms", false, 0.25},
	{"ttfe_p50_ms", "ms", false, 0.25},
	{"cpu_ms_per_query", "ms", false, 0.25},
	{"rss_peak_mib", "MiB", false, 0.15},
	{"sum_depths_per_query", "count", false, 0.15},
}

// perLayer builds the per-layer ledger's metric list. A layer that is off
// the path of a workload reads 0 there.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit string, higher bool) {
		defs = append(defs, metricDef{name: name, unit: unit, higher: higher})
	}
	for _, c := range classNames {
		add("client."+c+".p50_ms", "ms", false)
		add("client."+c+".n", "count", true)
	}
	add("client.batch.p50_ms", "ms", false)
	add("client.stream.p50_ms", "ms", false)
	add("client.error_rate", "ratio", false)

	add("api.decode_us", "us", false)
	add("api.normalize_us", "us", false)
	add("api.canonical_us", "us", false)
	add("facade.options_us", "us", false)
	add("service.resolve_us", "us", false)
	add("service.execute_miss_us", "us", false)
	add("service.execute_hit_us", "us", false)
	add("service.stream_ttfe_us", "us", false)
	add("service.self_us", "us", false)
	add("service.cache_hit_ratio", "ratio", true)
	add("service.coalesced", "count", true)
	add("service.engine_runs", "count", false)
	add("service.replace_ms", "ms", false)
	for _, p := range phaseNames {
		add("service.phase."+p+"_us", "us", false)
	}
	add("encode.response_us", "us", false)
	add("encode.response_bytes", "B", false)
	add("broker.publish_drain_ns_per_event.sub1", "ns", false)
	add("broker.publish_drain_ns_per_event.sub4", "ns", false)

	add("relation.open_us", "us", false)
	add("relation.next_us_per_pull", "us", false)
	add("relation.pulls", "count", false)
	add("relation.merged_pop_ns", "ns", false)
	add("rtree.nn_step_ns", "ns", false)
	add("rtree.bulkload_ms", "ms", false)

	add("core.new_us", "us", false)
	add("core.run_us", "us", false)
	add("core.self_us", "us", false)
	add("core.bound_us", "us", false)
	add("core.sum_depths", "count", false)
	add("core.combinations_formed", "count", false)
	add("core.combinations_pruned", "count", true)
	add("core.prune_ratio", "ratio", true)
	add("core.bound_updates", "count", false)
	add("core.qp_solves", "count", false)
	add("core.peak_buffered", "count", false)
	add("core.spill_bytes_per_query", "B", false)
	add("core.spilled_combinations", "count", false)
	add("core.spill_vs_prune_us", "us", false)

	add("vec.dist2into_ns.d4", "ns", false)
	add("vec.dist2into_ns.d8", "ns", false)
	add("agg.scoreblock_ns.d4", "ns", false)
	add("agg.scoreblock_ns.d8", "ns", false)
	add("qp.eval_ns", "ns", false)

	add("shardrpc.pull_rtt_us", "us", false)
	add("shardrpc.us_per_row", "us", false)
	add("shardrpc.bytes_per_row", "B", false)
	add("shardrpc.streams_opened_per_query", "count", false)
	add("shardrpc.shards_pruned_ratio", "ratio", true)
	add("shardrpc.shards_pruned_ratio.center", "ratio", true)
	add("shardrpc.shards_pruned_ratio.edge", "ratio", true)
	add("shardrpc.retries", "count", false)
	add("shardrpc.hedges", "count", false)

	add("relfile.write_ms", "ms", false)
	add("relfile.open_us", "us", false)
	add("relfile.load_us", "us", false)
	add("relfile.bytes_per_tuple", "B", false)
	add("relfile.first_touch_ms", "ms", false)
	add("datagen.generate_ms", "ms", false)
	add("trace.overhead_pct", "%", false)
	return defs
}

// phaseNames are the api.Trace phases the traced run folds into
// service.phase.*_us, in causal order.
var phaseNames = []string{"validate", "cache", "flight", "engine", "drain"}

package main

// The metric tables are the program's side of BENCHMARK.json: every
// name the file declares is listed here with the same unit, and
// bench_test.go fails when the two drift apart.

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the first pass (-trace 0): what a user of
// the system sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"first_row_p50_ms", "ms"},
	{"ingest_events_per_s", "1/s"},
	{"ingest_ack_p50_ms", "ms"},
	{"watch_lag_p50_ms", "ms"},
	{"reopen_p50_ms", "ms"},
	{"disk_bytes_per_event", "bytes"},
}

// perLayer are the metrics of the traced pass (-trace 1), named
// <module>.<metric> after the repository's packages.
var perLayer = []metricDef{
	{"aiql.parse_us", "us"},

	{"engine.prepare_us", "us"},
	{"engine.plan_us", "us"},
	{"engine.exec_us", "us"},
	{"engine.scan_us", "us"},
	{"engine.join_us", "us"},
	{"engine.aggregate_us", "us"},
	{"engine.pool_wait_us", "us"},
	{"engine.scanned_events_per_row", "ratio"},
	{"engine.bindings_per_row", "ratio"},
	{"engine.scan_cache_hit_ratio", "ratio"},
	{"engine.scan_cache_bytes", "bytes"},

	{"eventstore.append_us_per_event", "us"},
	{"eventstore.block_cache_hit_ratio", "ratio"},
	{"eventstore.block_cache_evictions", "count"},
	{"eventstore.blocks_decompressed_per_query", "ratio"},
	{"eventstore.segments", "count"},
	{"eventstore.memtable_events", "count"},
	{"eventstore.heap_bytes", "bytes"},
	{"eventstore.mapped_bytes", "bytes"},
	{"eventstore.compact_ms", "ms"},
	{"eventstore.compact_events_merged", "count"},
	{"eventstore.open_ms", "ms"},

	{"durable.wal_syncs_per_batch", "ratio"},
	{"durable.flush_ms", "ms"},
	{"durable.segment_file_bytes_per_event", "bytes"},
	{"durable.segment_files", "count"},
	{"durable.manifest_edition", "count"},

	{"service.query_self_us", "us"},
	{"service.result_cache_hit_ratio", "ratio"},
	{"service.prepared_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"service.throttled", "count"},
	{"service.timeouts", "count"},
	{"service.ingest_self_us_per_batch", "us"},
	{"service.ingest_ack_p95_ms", "ms"},
	{"service.watch_lag_p95_ms", "ms"},
	{"service.watch_evals", "count"},
	{"service.watch_matches", "count"},
	{"service.watch_dropped", "count"},

	{"catalog.http_self_us", "us"},
	{"catalog.response_bytes_per_row", "bytes"},
	{"catalog.ingest_decode_us_per_event", "us"},

	{"shard.coord_self_us", "us"},
	{"shard.member_us_max", "us"},
	{"shard.member_us_sum", "us"},
	{"shard.fanouts_per_query", "ratio"},
	{"shard.pruned_ratio", "ratio"},
	{"shard.rows_shipped_per_row_returned", "ratio"},
	{"shard.partial", "count"},
	{"shard.errors", "count"},
	{"shard.retries", "count"},

	{"workpool.tasks_per_query", "ratio"},
	{"workpool.saturated_ratio", "ratio"},

	{"obs.trace_overhead_ratio", "ratio"},

	{"process.alloc_bytes_per_op", "bytes"},
	{"process.gc_pause_ms", "ms"},
	{"process.peak_heap_mb", "MB"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

package main

// metric is one named number the benchmark prints.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric: BENCHMARK.json carries the same names and
// units (schema_test.go keeps the two in step).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of promipsd would see. Every workload
// prints every one of them on an untraced run, and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "ops/s"},
	{"p50_ms", "ms"},
	{"recall_at_10", "ratio"},
	{"overall_ratio", "ratio"},
	{"index_bytes_per_data_byte", "ratio"},
	{"server_rss_mb", "MB"},
}

// perLayer are the single-layer metrics of a traced run, named
// <module>.<metric>. A workload that does not exercise one prints 0.
var perLayer = []metricDef{
	{"client.codec_search_us", "us"},
	{"client.codec_batch_us", "us"},
	{"client.req_bytes", "bytes"},
	{"client.resp_bytes", "bytes"},

	{"promipsd.search_self_ms", "ms"},
	{"promipsd.batch_self_ms", "ms"},
	{"promipsd.insert_self_ms", "ms"},
	{"promipsd.cpu_ms_per_op", "ms"},
	{"promipsd.refused_429", "count"},
	{"promipsd.deadline_504", "count"},
	{"promipsd.fail_ratio", "ratio"},
	{"promipsd.rss_peak_mb", "MB"},

	{"shard.search_ms", "ms"},
	{"shard.fanout_self_ms", "ms"},
	{"shard.straggler_ratio", "ratio"},

	{"promips.search_ms", "ms"},
	{"promips.search_easy_ms", "ms"},
	{"promips.search_hard_ms", "ms"},
	{"promips.batch_speedup", "ratio"},
	{"promips.exact_ms", "ms"},
	{"promips.exact_ns_per_vector", "ns"},
	{"promips.candidates", "count"},
	{"promips.pages", "count"},
	{"promips.preranked", "count"},
	{"promips.norm_pruned", "count"},
	{"promips.groups_probed", "count"},
	{"promips.terminated_A_ratio", "ratio"},
	{"promips.verify_yield", "ratio"},
	{"promips.uncompacted_entries", "count"},
	{"promips.memscan_ms", "ms"},
	{"promips.search_after_compact_ms", "ms"},

	{"pager.hit_ratio", "ratio"},
	{"pager.misses_per_query", "count"},
	{"pager.evictions_per_query", "count"},

	{"wal.insert_ms", "ms"},
	{"wal.insert_ack_p50_ms", "ms"},
	{"wal.insert_ack_p99_ms", "ms"},
	{"wal.preload_inserts_per_s", "1/s"},
	{"wal.journal_len_end", "count"},

	{"segments.freezes", "count"},
	{"segments.flushes", "count"},
	{"segments.flush_failures", "count"},
	{"compactor.compact_s", "s"},

	{"build.generate_s", "s"},
	{"build.build_s", "s"},
	{"build.save_s", "s"},
	{"build.ready_s", "s"},
	{"build.index_bytes", "bytes"},

	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.inflight_max", "count"},
	{"loadgen.cpu_share", "ratio"},
	{"loadgen.open_samples", "count"},
	{"loadgen.tail_ms", "ms"},
	{"loadgen.tail_percentile", "%"},
	{"loadgen.pace", "ratio"},
	{"loadgen.traced_p50_ms", "ms"},
}

// metricSet collects values against a declared list, so a run can print
// neither an undeclared name nor miss a declared one.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.Name == name {
			s.vals[name] = v
			return
		}
	}
	panic("e2ebench: undeclared metric " + name)
}

// out returns every declared metric; one never set reads 0.
func (s *metricSet) out() map[string]metric {
	m := make(map[string]metric, len(s.defs))
	for _, d := range s.defs {
		m[d.Name] = metric{Value: s.vals[d.Name], Unit: d.Unit}
	}
	return m
}

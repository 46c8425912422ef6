package main

// Metric catalogue. BENCHMARK.json at the repository root names the
// same metrics; the test in this package checks that every name it
// lists is emitted with the unit given here.

// metricDef describes one reported metric.
type metricDef struct {
	name string
	unit string
	// layer is the part of the system the metric measures (per-layer
	// metrics only).
	layer string
	// moves names the end-to-end metric and workload a change to the
	// layer should move (per-layer metrics only).
	moves string
}

// endToEnd are the metrics a run with tracing off reports in its JSON
// line, on every workload; README.md defines them per workload. All
// are measured with tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "ops/s"},
	{name: "p50_ms", unit: "ms"},
	{name: "mem_mb", unit: "MiB"},
}

// reportOnly are end-to-end figures printed in the run report with
// their unit and sample count but kept out of the JSON line. p99_ms is
// defined on every workload, but on kv-open its run-to-run spread on a
// shared two-core machine exceeds any bound the JSON line may carry;
// the others are defined on one workload only.
var reportOnly = map[string][]metricDef{
	msgClosed: {
		{name: "p99_ms", unit: "ms"},
		{name: "p50_ms.all", unit: "ms"},
		{name: "p99_ms.all", unit: "ms"},
	},
	kvOpen: {
		{name: "p99_ms", unit: "ms"},
		{name: "p50_ms.all", unit: "ms"},
		{name: "p99_ms.all", unit: "ms"},
		{name: "p50_ms.hi", unit: "ms"},
		{name: "p99_ms.hi", unit: "ms"},
		{name: "p50_ms.hi.all", unit: "ms"},
		{name: "p99_ms.hi.all", unit: "ms"},
		{name: "sustained_rps", unit: "req/s"},
		{name: "peak_rps", unit: "req/s"},
	},
	kvDurable: {
		{name: "p99_ms", unit: "ms"},
		{name: "p50_ms.all", unit: "ms"},
		{name: "p99_ms.all", unit: "ms"},
		{name: "recover_s", unit: "s"},
	},
}

const (
	msgClosed = "msg-closed"
	kvOpen    = "kv-open"
	kvDurable = "kv-durable"
)

var workloads = []string{msgClosed, kvOpen, kvDurable}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload does not exercise reports 0 (named "n/a" in the
// report).
var perLayer = []metricDef{
	{"stm.load_ns.space", "ns", "internal/mem", "ops_per_s on msg-closed; no change on kv-durable"},
	{"stm.load_ns.static", "ns", "internal/stm engine", "ops_per_s on msg-closed; no change on kv-durable"},
	{"stm.load_ns.stack", "ns", "internal/stm engine", "ops_per_s on msg-closed; no change on kv-durable"},
	{"stm.load_ns.heap", "ns", "internal/stm engine", "ops_per_s on msg-closed; no change on kv-durable"},
	{"stm.load_ns.full_bare", "ns", "internal/stm engine", "ops_per_s on msg-closed; no change on kv-durable"},
	{"stm.load_ns.full", "ns", "internal/stm engine", "ops_per_s on msg-closed; no change on kv-durable"},
	{"stm.store_ns.static", "ns", "internal/stm engine", "ops_per_s on msg-closed; no change on kv-durable"},
	{"stm.store_ns.heap", "ns", "internal/stm engine", "ops_per_s on msg-closed; no change on kv-durable"},
	{"stm.store_ns.full", "ns", "internal/stm engine", "ops_per_s on msg-closed; no change on kv-durable"},
	{"capture.read_elided_frac", "ratio", "internal/capture", "ops_per_s on msg-closed"},
	{"capture.write_elided_frac", "ratio", "internal/capture", "ops_per_s on msg-closed"},
	{"capture.full_barriers_per_op", "count", "internal/capture", "ops_per_s on msg-closed"},
	{"stm.aborts_per_commit", "ratio", "internal/stm lifecycle/cm", "ops_per_s, p99_ms on kv-durable and msg-closed"},
	{"stm.cm_wait_ms", "ms", "internal/stm lifecycle/cm", "ops_per_s, p99_ms on kv-durable and msg-closed"},
	{"stm.commit_us.p50", "us", "internal/stm + internal/wal", "p50_ms, ops_per_s on kv-durable"},
	{"stm.commit_us.p99", "us", "internal/stm + internal/wal", "p50_ms, ops_per_s on kv-durable"},
	{"wal.slowdown", "ratio", "internal/wal", "ops_per_s on kv-durable"},
	{"wal.commits_per_batch", "count", "internal/wal", "ops_per_s, recover_s, setup_s on kv-durable"},
	{"wal.bytes_per_commit", "B", "internal/wal", "ops_per_s, recover_s, setup_s on kv-durable"},
	{"wal.tail_mb", "MiB", "internal/wal", "ops_per_s, recover_s, setup_s on kv-durable"},
	{"wal.checkpoint_s", "s", "internal/wal", "ops_per_s, recover_s, setup_s on kv-durable"},
	{"wal.dedup_frac", "ratio", "internal/wal", "ops_per_s, recover_s, setup_s on kv-durable"},
	{"kv.apply_us.read", "us", "tmkv, internal/txlib", "p50_ms on kv-open and kv-durable"},
	{"kv.apply_us.upsert", "us", "tmkv, internal/txlib", "p50_ms on kv-open and kv-durable"},
	{"kv.apply_us.insert", "us", "tmkv, internal/txlib", "p50_ms on kv-open and kv-durable"},
	{"kv.apply_us.delete", "us", "tmkv, internal/txlib", "p50_ms on kv-open and kv-durable"},
	{"kv.apply_us.scan", "us", "tmkv, internal/txlib", "p50_ms on kv-open and kv-durable"},
	{"serve.queue_us.p50", "us", "tm/serve", "p99_ms.hi, sustained_rps on kv-open"},
	{"serve.queue_us.p99", "us", "tm/serve", "p99_ms.hi, sustained_rps on kv-open"},
	{"serve.post_us.p50", "us", "tm/serve", "p99_ms.hi, sustained_rps on kv-open"},
	{"serve.submit_block_us.p99", "us", "tm/serve", "p99_ms.hi, sustained_rps on kv-open"},
	{"batch.merge_ratio", "ratio", "tm.Batcher", "peak_rps (ops_per_s) on kv-open; n/a elsewhere"},
	{"batch.fallback_frac", "ratio", "tm.Batcher", "peak_rps (ops_per_s) on kv-open; n/a elsewhere"},
	{"gen.late_us.p50", "us", "benchmark generator", "nothing: validity check of the open loop"},
	{"gen.late_us.p99", "us", "benchmark generator", "nothing: validity check of the open loop"},
	{"go.alloc_b_per_op", "B", "Go runtime", "p99_ms on kv-open, ops_per_s everywhere"},
	{"go.gc_pause_ms", "ms", "Go runtime", "p99_ms on kv-open, ops_per_s everywhere"},
	{"go.gc_cycles", "count", "Go runtime", "p99_ms on kv-open, ops_per_s everywhere"},
	{"trace.overhead", "ratio", "benchmark tracer", "nothing: untraced ÷ traced ops_per_s"},
}

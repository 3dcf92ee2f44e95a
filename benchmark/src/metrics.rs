//! The metric vocabulary: every name the benchmark reports, with its unit
//! and better direction. `BENCHMARK.json` declares the same lists (a test
//! keeps the two in step); `METRICS.md` defines each metric per workload.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[Spec] = &[
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    lower("failed_share", "ratio"),
    lower("peak_rss_mb", "MB"),
    lower("job_p99_ms", "ms"),
    higher("jobs_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload in the traced run (zero
/// where a workload does not reach the layer).
pub const PER_LAYER: &[Spec] = &[
    // core: the word-level ATPG search.
    lower("core.decisions", "count"),
    lower("core.backtracks", "count"),
    lower("core.conflicts", "count"),
    lower("core.gate_evals", "count"),
    lower("core.justify_rechecks", "count"),
    lower("core.frames", "count"),
    lower("core.implication_s", "s"),
    lower("core.justification_s", "s"),
    lower("core.decision_s", "s"),
    lower("core.backtrack_s", "s"),
    lower("core.other_s", "s"),
    lower("core.check_s", "s"),
    lower("core.other_share", "ratio"),
    // modsolve: the modular solver behind core's datapath leaf.
    lower("modsolve.arith_calls", "count"),
    lower("modsolve.ns_per_arith_call", "ns"),
    higher("modsolve.island_cache_hit_rate", "ratio"),
    higher("modsolve.fact_hits", "count"),
    lower("modsolve.cancelled_checks", "count"),
    lower("core.datapath_s", "s"),
    lower("core.sat_leaf_s", "s"),
    // frontend: Verilog compile, reached through `register_design`.
    lower("frontend.register_ms_p50", "ms"),
    // server: TCP/JSON ops.
    lower("server.submit_rtt_ms_p50", "ms"),
    lower("server.op_register_design_ns_p50", "ns"),
    lower("server.op_submit_batch_ns_p50", "ns"),
    lower("server.subscribe_pushes", "count"),
    lower("server.errors", "count"),
    lower("server.restart_s", "s"),
    // service: queue, verdict cache, workers.
    lower("service.queue_wait_ms_p50", "ms"),
    lower("service.queue_wait_ms_p99", "ms"),
    lower("service.run_ms_p50", "ms"),
    higher("service.cache_hit_rate", "ratio"),
    lower("service.job_wall_ns_p99", "ns"),
    lower("service.hit_p50_ms", "ms"),
    // portfolio: the engine race.
    lower("portfolio.races", "count"),
    lower("portfolio.race_wall_ns_p50", "ns"),
    lower("portfolio.race_wall_ns_p99", "ns"),
    lower("portfolio.cancelled_runs", "count"),
    higher("portfolio.useful_share", "ratio"),
    // persist: write-ahead journal and snapshots.
    lower("persist.journal_appends", "count"),
    lower("persist.journal_bytes", "bytes"),
    lower("persist.fsync_ns_p50", "ns"),
    lower("persist.fsync_ns_p99", "ns"),
    lower("persist.boot_replayed_records", "count"),
    lower("persist.compactions", "count"),
    // Attribution and the cost of tracing.
    lower("serve.unattributed_share", "ratio"),
    lower("trace_overhead_ratio", "ratio"),
    // Sample counts behind the percentiles of the traced run.
    higher("samples.check", "count"),
    higher("samples.job", "count"),
    higher("samples.hit", "count"),
    higher("samples.miss", "count"),
    higher("samples.queue_wait", "count"),
];

/// The declaration of metric `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

//! The closed loop shared by the two ATPG workloads: one caller checks a
//! fixed list of jobs one at a time with `AssertionChecker::check`, pass
//! after pass, until the budget is spent.

use crate::metrics::PER_LAYER;
use crate::report::{median, ms, peak_rss_mb, quantile, sample_note, Outcome};
use crate::spans::SpanLog;
use std::time::{Duration, Instant};
use wlac_atpg::{
    AssertionChecker, CancelToken, CheckReport, CheckResult, CheckStats, CheckerOptions,
};

/// How a verdict compares with the job's oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Judgement {
    /// The verdict is the expected answer and its trace, if any, checks.
    Expected,
    /// No contradiction, but not the expected answer either: unknown,
    /// cancelled, or no witness within the bound where one exists.
    Failed(String),
    /// The verdict contradicts the oracle.
    Wrong(String),
}

/// One property check of an ATPG workload.
pub struct Job {
    /// Display name.
    pub name: String,
    /// The design and property.
    pub verification: wlac_atpg::Verification,
    /// Checker options (the per-check deadline token is added per check).
    pub options: CheckerOptions,
    /// The per-check deadline, set as a `CancelToken` next to `time_limit`.
    pub deadline: Duration,
    /// The oracle judging a report.
    pub oracle: Box<dyn Fn(&CheckReport) -> Judgement + Send + Sync>,
}

/// One finished check.
#[derive(Debug, Clone)]
pub(crate) struct CheckRecord {
    /// Index of the job in the list.
    pub job: usize,
    /// Caller-side time: options, checker construction and `check`.
    pub job_ms: f64,
    /// Verdict against the oracle.
    pub judgement: Judgement,
    /// `true` when the check ended `unknown` through cancellation.
    pub cancelled: bool,
    /// Effort statistics.
    pub stats: CheckStats,
}

/// One pass over the job list.
#[derive(Debug, Clone)]
pub(crate) struct Pass {
    /// Wall time of the pass.
    pub wall: Duration,
    /// Every check, in the order run.
    pub checks: Vec<CheckRecord>,
}

/// Most checks of one job in a row (see [`check_one`]).
const MAX_REPEATS: usize = 20;

/// Checks one job once. With `trace`, the checker records phase times
/// (`CheckerOptions::trace`) and the span log gets a `core.check` span.
fn check_once(job_index: usize, job: &Job, trace: bool, spans: &SpanLog) -> CheckRecord {
    let start = Instant::now();
    let mut options = job.options.clone();
    options.time_limit = job.deadline;
    options.cancel = CancelToken::deadline_in(job.deadline);
    options.trace = trace;
    let report = AssertionChecker::new(options).check(&job.verification);
    let end = Instant::now();
    spans.record(job_index as u64, "core.check", None, start, end);
    let cancelled =
        matches!(&report.result, CheckResult::Unknown { reason } if reason.contains("cancel"));
    CheckRecord {
        job: job_index,
        job_ms: ms(end - start),
        judgement: (job.oracle)(&report),
        cancelled,
        stats: report.stats,
    }
}

/// Checks one job, repeating the check back to back until the repetitions
/// have taken `repeat_for` (at most [`MAX_REPEATS`] times), and keeps the
/// fastest time. A short check is timed warm this way, free of whatever the
/// check before it left in the caches. Every repetition must give the same
/// verdict and the same effort counts.
pub(crate) fn check_one(
    job_index: usize,
    job: &Job,
    repeat_for: Duration,
    trace: bool,
    spans: &SpanLog,
) -> CheckRecord {
    let mut record = check_once(job_index, job, trace, spans);
    let reference = Fingerprint::of_checks(std::slice::from_ref(&record));
    let mut spent = record.job_ms;
    for _ in 1..MAX_REPEATS {
        if spent >= ms(repeat_for) {
            break;
        }
        let again = check_once(job_index, job, trace, spans);
        spent += again.job_ms;
        if again.judgement != record.judgement
            || Fingerprint::of_checks(std::slice::from_ref(&again)) != reference
        {
            record.judgement =
                Judgement::Wrong("a repeated check changed its verdict or its effort".into());
        }
        record.job_ms = record.job_ms.min(again.job_ms);
    }
    record
}

/// Runs passes over `order` (indices into `jobs`) until `budget` is spent:
/// another pass starts while the last one would still fit in the budget, or,
/// while fewer than `min_passes` ran, in one and a half budgets. A run on a
/// slow host thus ends within 1.5 budgets with a single pass. `between`
/// runs after every pass, outside the pass's time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn measure(
    jobs: &[Job],
    order: &[usize],
    repeat_for: Duration,
    budget: Duration,
    min_passes: usize,
    trace: bool,
    spans: &SpanLog,
    between: &mut dyn FnMut(),
) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass_start = Instant::now();
        let checks = order
            .iter()
            .map(|&i| check_one(i, &jobs[i], repeat_for, trace, spans))
            .collect();
        let wall = pass_start.elapsed();
        passes.push(Pass { wall, checks });
        between();
        let limit = if passes.len() < min_passes {
            budget.mul_f64(1.5)
        } else {
            budget
        };
        if started.elapsed() + wall > limit {
            return passes;
        }
    }
}

/// The exact effort counters of one pass, summed over its checks in job
/// order. Cancelled checks stop wherever the clock stopped them, so they are
/// left out; the fingerprint counts them instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    /// Checks left out because they were cancelled.
    pub cancelled: u64,
    /// `CheckStats::decisions`.
    pub decisions: u64,
    /// `CheckStats::backtracks`.
    pub backtracks: u64,
    /// `CheckStats::conflicts`.
    pub conflicts: u64,
    /// `ImplicationStats::gate_evaluations`.
    pub gate_evals: u64,
    /// `CheckStats::justify_gates_rechecked`.
    pub justify_rechecks: u64,
    /// Sum of `CheckStats::frames_explored`.
    pub frames: u64,
    /// `CheckStats::arithmetic_calls`.
    pub arith_calls: u64,
    /// `CheckStats::island_cache_hits`.
    pub island_hits: u64,
    /// `CheckStats::island_cache_misses`.
    pub island_misses: u64,
    /// `CheckStats::datapath_fact_hits`.
    pub fact_hits: u64,
}

impl Fingerprint {
    /// The fingerprint of `pass`.
    pub fn of(pass: &Pass) -> Self {
        Fingerprint::of_checks(&pass.checks)
    }

    /// The fingerprint of `checks`.
    pub fn of_checks(checks: &[CheckRecord]) -> Self {
        let mut f = Fingerprint::default();
        for check in checks {
            if check.cancelled {
                f.cancelled += 1;
                continue;
            }
            let s = &check.stats;
            f.decisions += s.decisions;
            f.backtracks += s.backtracks;
            f.conflicts += s.conflicts;
            f.gate_evals += s.implication.gate_evaluations;
            f.justify_rechecks += s.justify_gates_rechecked;
            f.frames += s.frames_explored as u64;
            f.arith_calls += s.arithmetic_calls;
            f.island_hits += s.island_cache_hits;
            f.island_misses += s.island_cache_misses;
            f.fact_hits += s.datapath_fact_hits;
        }
        f
    }

    /// One note line.
    pub fn line(&self) -> String {
        format!(
            "fingerprint per pass: core.decisions={} core.backtracks={} core.conflicts={} core.gate_evals={} \
             core.justify_rechecks={} core.frames={} modsolve.arith_calls={} modsolve.island_hits={} \
             modsolve.island_misses={} modsolve.fact_hits={} (cancelled checks left out: {})",
            self.decisions,
            self.backtracks,
            self.conflicts,
            self.gate_evals,
            self.justify_rechecks,
            self.frames,
            self.arith_calls,
            self.island_hits,
            self.island_misses,
            self.fact_hits,
            self.cancelled
        )
    }
}

/// Checks the oracle verdicts and the effort fingerprint of every pass; the
/// first pass's fingerprint is the reference. Returns `(attempted, failed)`
/// and marks the outcome incorrect on any contradiction.
pub(crate) fn judge(
    out: &mut Outcome,
    jobs: &[Job],
    passes: &[Pass],
    reference: &Fingerprint,
) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for (p, pass) in passes.iter().enumerate() {
        for check in &pass.checks {
            attempted += 1;
            match &check.judgement {
                Judgement::Expected => {}
                Judgement::Failed(why) => {
                    failed += 1;
                    if p == 0 {
                        out.note(format!("failed {}: {why}", jobs[check.job].name));
                    }
                }
                Judgement::Wrong(why) => {
                    failed += 1;
                    out.correct = false;
                    out.note(format!("WRONG {}: {why}", jobs[check.job].name));
                }
            }
        }
        let fingerprint = Fingerprint::of(pass);
        if fingerprint != *reference {
            out.correct = false;
            out.note(format!(
                "effort fingerprint of pass {p} differs: {}",
                fingerprint.line()
            ));
        }
    }
    (attempted, failed)
}

/// The fastest time of each job over `passes` (min-of-N: every pass repeats
/// the same work, and the host's noise only ever adds time).
fn per_job_min(passes: &[Pass]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; passes[0].checks.len()];
    for pass in passes {
        for (slot, check) in pass.checks.iter().enumerate() {
            best[slot] = best[slot].min(check.job_ms);
        }
    }
    best
}

/// The end-to-end metrics of an ATPG workload. Times are min-of-N over the
/// passes, per job: every pass repeats the same checks, so each job's
/// fastest check is its time, `wall_s` is the pass those times add up to,
/// and the latency percentiles are taken over them.
pub(crate) fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    jobs: &[Job],
    passes: &[Pass],
    attempted: u64,
    failed: u64,
) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let job_ms = per_job_min(passes);
    let fastest = job_ms.iter().sum::<f64>() / 1e3;
    out.push("setup_s", setup_s);
    out.push("wall_s", fastest);
    out.push("failed_share", failed as f64 / attempted as f64);
    out.push("peak_rss_mb", peak_rss_mb());
    out.push("job_p99_ms", quantile(&job_ms, 0.99));
    out.push("jobs_per_s", job_ms.len() as f64 / fastest);
    out.note(format!(
        "median job (fastest of each job): {:.4} ms",
        median(&job_ms)
    ));
    out.note(format!(
        "passes: {} of {} checks; pass wall min {:.4} s, median {:.4} s, max {:.4} s",
        passes.len(),
        job_ms.len(),
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 1.0)
    ));
    if jobs.len() <= 20 {
        let mut rows: Vec<(usize, f64)> = passes[0]
            .checks
            .iter()
            .map(|c| c.job)
            .zip(job_ms.iter().copied())
            .collect();
        rows.sort_by_key(|r| r.0);
        let rows: Vec<String> = rows
            .iter()
            .map(|(job, ms)| format!("{} {ms:.1}", jobs[*job].name))
            .collect();
        out.note(format!("fastest check per job, ms: {}", rows.join(", ")));
    }
    out.note(sample_note("job (fastest of each job)", job_ms.len(), 0.99));
}

/// The per-layer metrics of an ATPG workload's traced run: exact counts of
/// one pass, phase times averaged over the traced passes.
pub(crate) fn per_layer(out: &mut Outcome, traced: &[Pass], untraced: &[Pass]) {
    let f = Fingerprint::of(&traced[0]);
    let n = traced.len() as f64;
    let mut phases = wlac_atpg::PhaseNanos::default();
    let mut check_s = 0.0;
    let mut cancelled = 0u64;
    for check in traced.iter().flat_map(|p| &p.checks) {
        phases.absorb(&check.stats.phases);
        check_s += check.job_ms / 1e3;
        cancelled += u64::from(check.cancelled);
    }
    // Cancelled checks stop inside the solver at the deadline: their time is
    // the deadline's, not a call's, so the per-call average leaves them out.
    let decided = || {
        traced
            .iter()
            .flat_map(|p| &p.checks)
            .filter(|c| !c.cancelled)
    };
    let arith_calls: u64 = decided().map(|c| c.stats.arithmetic_calls).sum();
    let decided_datapath_nanos: u64 = decided().map(|c| c.stats.datapath_nanos).sum();
    let secs = |nanos: u64| nanos as f64 / 1e9 / n;
    let checks = traced.iter().map(|p| p.checks.len()).sum::<usize>();
    out.push("core.decisions", f.decisions as f64);
    out.push("core.backtracks", f.backtracks as f64);
    out.push("core.conflicts", f.conflicts as f64);
    out.push("core.gate_evals", f.gate_evals as f64);
    out.push("core.justify_rechecks", f.justify_rechecks as f64);
    out.push("core.frames", f.frames as f64);
    out.push("core.implication_s", secs(phases.implication));
    out.push("core.justification_s", secs(phases.justification));
    out.push("core.decision_s", secs(phases.decision));
    out.push("core.backtrack_s", secs(phases.backtrack));
    out.push("core.other_s", secs(phases.other));
    out.push("core.check_s", check_s / n);
    out.push("core.other_share", secs(phases.other) / (check_s / n));
    out.push("modsolve.arith_calls", f.arith_calls as f64);
    out.push(
        "modsolve.ns_per_arith_call",
        if arith_calls == 0 {
            0.0
        } else {
            decided_datapath_nanos as f64 / arith_calls as f64
        },
    );
    let island_total = f.island_hits + f.island_misses;
    out.push(
        "modsolve.island_cache_hit_rate",
        if island_total == 0 {
            0.0
        } else {
            f.island_hits as f64 / island_total as f64
        },
    );
    out.push("modsolve.fact_hits", f.fact_hits as f64);
    out.push("modsolve.cancelled_checks", cancelled as f64 / n);
    out.push("core.datapath_s", secs(phases.datapath));
    out.push("core.sat_leaf_s", secs(phases.sat_leaf));
    let median_wall = |passes: &[Pass]| {
        median(
            &passes
                .iter()
                .map(|p| p.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    out.push(
        "trace_overhead_ratio",
        median_wall(traced) / median_wall(untraced),
    );
    out.push("samples.check", checks as f64);
    out.push("samples.job", checks as f64);
    out.push("samples.miss", checks as f64);
    out.note(format!(
        "traced passes: {}, untraced passes: {}; per-pass phase times are means over the traced passes",
        traced.len(),
        untraced.len()
    ));
}

/// How an ATPG workload is set up and timed.
pub(crate) struct Plan {
    /// How many times set-up is repeated before the measured passes. One
    /// more set-up follows every pass of an untraced run, and the median of
    /// them all is reported: set-up takes milliseconds, and set-ups spread
    /// over the run are not all caught by one slow spell of the host.
    pub setups: usize,
    /// Each check is repeated back to back until its repetitions take this
    /// long (see [`check_one`]); zero checks each job once per pass.
    pub repeat_for: Duration,
}

/// Untraced runs aim at this many passes at least: min-of-N needs two.
const MIN_PASSES: usize = 2;

/// Runs an ATPG workload: `setup` builds the job list (timed `plan.setups`
/// times, median reported), then the measured passes; a traced run spends
/// half the budget untraced and half traced.
pub(crate) fn run_workload(
    cfg: &crate::RunConfig,
    plan: &Plan,
    mut setup: impl FnMut() -> (Vec<Job>, Vec<usize>),
) -> Outcome {
    let mut setup_times = Vec::new();
    let mut timed_setup = || {
        let start = Instant::now();
        let built = setup();
        setup_times.push(start.elapsed().as_secs_f64());
        built
    };
    let mut built = None;
    for _ in 0..plan.setups {
        built = Some(timed_setup());
    }
    let (jobs, order) = built.expect("at least one setup");
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let untraced_log = SpanLog::new(false);
    if !cfg.trace {
        let passes = measure(
            &jobs,
            &order,
            plan.repeat_for,
            cfg.seconds,
            MIN_PASSES,
            false,
            &untraced_log,
            &mut || {
                timed_setup();
            },
        );
        let setup_s = median(&setup_times);
        let reference = Fingerprint::of(&passes[0]);
        let (attempted, failed) = judge(&mut out, &jobs, &passes, &reference);
        out.attempted = attempted;
        out.failed = failed;
        end_to_end(&mut out, setup_s, &jobs, &passes, attempted, failed);
        out.note(reference.line());
        return out;
    }
    // The traced run checks each job once a pass in both halves, so that its
    // per-pass counts and phase times cover exactly one check per job.
    let spans = SpanLog::new(true);
    let half = cfg.seconds / 2;
    let untraced = measure(
        &jobs,
        &order,
        Duration::ZERO,
        half,
        1,
        false,
        &untraced_log,
        &mut || {},
    );
    let traced = measure(
        &jobs,
        &order,
        Duration::ZERO,
        half,
        1,
        true,
        &spans,
        &mut || {},
    );
    let reference = Fingerprint::of(&untraced[0]);
    let all: Vec<Pass> = untraced.iter().chain(&traced).cloned().collect();
    let (attempted, failed) = judge(&mut out, &jobs, &all, &reference);
    out.attempted = attempted;
    out.failed = failed;
    per_layer(&mut out, &traced, &untraced);
    out.fill_zeros(PER_LAYER);
    out.note(reference.line());
    out.note("traced and untraced passes share this fingerprint (checked per pass)");
    match spans.write_out(&cfg.workload, cfg.seed) {
        Ok(Some(path)) => out.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Ok(None) => {}
        Err(e) => out.note(format!("spans not written: {e}")),
    }
    out
}

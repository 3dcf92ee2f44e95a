//! # wlac-portfolio — concurrent multi-strategy verification
//!
//! The paper's core observation is that word-level ATPG + modular arithmetic
//! and bit-blasted SAT shine on *different* workload shapes. This crate turns
//! that observation into an engine: a [`Portfolio`] races the ATPG checker
//! ([`wlac_atpg::AssertionChecker`]), SAT bounded model checking
//! ([`wlac_baselines::bounded_model_check`]) and random simulation on each
//! property, takes the first definitive answer, and cooperatively cancels the
//! losers through [`wlac_atpg::CancelToken`]. The engine thread whose
//! validated definitive verdict comes first claims the win and cancels the
//! losers itself, so they stop while the supervisor is still waiting to be
//! scheduled; every engine polls the token within microseconds.
//!
//! Beyond single-property racing, [`Portfolio::check_batch`] shards a whole
//! suite of properties across a worker-thread pool, and every trace-backed
//! verdict is re-simulated against the design before it is trusted —
//! disagreements between engines are detected and flagged rather than
//! silently resolved.
//!
//! # Examples
//!
//! ```
//! use wlac_portfolio::{Portfolio, Verdict};
//! use wlac_atpg::{Property, Verification};
//! use wlac_bv::Bv;
//! use wlac_netlist::Netlist;
//!
//! // An 8-bit register that saturates at 10 must stay below 11.
//! let mut nl = Netlist::new("sat_counter");
//! let (q, ff) = nl.dff_deferred(8, Some(Bv::zero(8)));
//! let one = nl.constant(&Bv::from_u64(8, 1));
//! let plus = nl.add(q, one);
//! let ten = nl.constant(&Bv::from_u64(8, 10));
//! let at_ten = nl.eq(q, ten);
//! let next = nl.mux(at_ten, ten, plus);
//! nl.connect_dff_data(ff, next);
//! let eleven = nl.constant(&Bv::from_u64(8, 11));
//! let ok = nl.lt(q, eleven);
//!
//! let property = Property::always(&nl, "below_11", ok);
//! let report = Portfolio::with_defaults().race(&Verification::new(nl, property));
//! assert!(report.verdict.is_pass());
//! assert!(report.winner.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engines;
mod predictor;
mod progress;
mod verdict;
mod warm;

pub use config::PortfolioConfig;
pub use engines::{run_engine, Engine, EngineHarvest, EngineRun, EngineStats};
pub use predictor::{predict_engines, EngineHistory, NetlistFeatures};
pub use progress::RaceProgress;
pub use verdict::Verdict;
pub use warm::{Harvest, WarmStart};

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use wlac_atpg::{CancelToken, Verification};
use wlac_telemetry::{MetricsRegistry, RecorderHandle, RecorderKind, RecorderLayer};

/// The result of checking one property with the portfolio.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Property name (e.g. `p7`).
    pub property: String,
    /// The combined verdict: the winner's in racing mode, the first
    /// definitive one in cross-validation mode.
    pub verdict: Verdict,
    /// The engine that produced [`PortfolioReport::verdict`], when any
    /// engine was definitive.
    pub winner: Option<Engine>,
    /// Wall-clock time from dispatch to the last engine finishing.
    pub wall_clock: Duration,
    /// Every engine's run, in finish order, with per-engine attribution.
    pub runs: Vec<EngineRun>,
    /// Human-readable descriptions of cross-engine contradictions. Empty
    /// when all definitive verdicts agree.
    pub disagreements: Vec<String>,
}

impl PortfolioReport {
    /// `true` when every pair of definitive verdicts is consistent.
    pub fn agreed(&self) -> bool {
        self.disagreements.is_empty()
    }

    /// The run of a particular engine, if it participated.
    pub fn run_of(&self, engine: Engine) -> Option<&EngineRun> {
        self.runs.iter().find(|r| r.engine == engine)
    }
}

impl fmt::Display for PortfolioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} in {:.3}s",
            self.property,
            self.verdict.label(),
            self.wall_clock.as_secs_f64()
        )?;
        if let Some(winner) = self.winner {
            write!(f, " (won by {winner})")?;
        }
        for run in &self.runs {
            write!(
                f,
                "\n    {:<11} {:<13} {:.3}s{}",
                run.engine.to_string(),
                run.verdict.label(),
                run.elapsed.as_secs_f64(),
                if run.cancelled { " [cancelled]" } else { "" },
            )?;
        }
        for d in &self.disagreements {
            write!(f, "\n    DISAGREEMENT: {d}")?;
        }
        Ok(())
    }
}

/// A concurrent multi-strategy verification engine.
///
/// See the crate-level docs for an example; [`Portfolio::race`] checks one
/// property with first-definitive-answer-wins semantics,
/// [`Portfolio::check_all`] runs every engine to completion for maximum
/// cross-validation, and [`Portfolio::check_batch`] shards many properties
/// over a worker pool.
#[derive(Debug, Clone, Default)]
pub struct Portfolio {
    config: PortfolioConfig,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Portfolio {
    /// Creates a portfolio with the given configuration.
    pub fn new(config: PortfolioConfig) -> Self {
        Portfolio {
            config,
            metrics: None,
        }
    }

    /// Publishes race telemetry (win counters, per-engine wall-clock
    /// histograms, win-margin distribution) into `registry`. Purely
    /// observational: metrics never influence scheduling or verdicts, which
    /// is why the registry lives on the portfolio, not on
    /// [`PortfolioConfig`].
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Creates a portfolio with the default configuration (all engines).
    pub fn with_defaults() -> Self {
        Portfolio::new(PortfolioConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// Races every configured engine on one property; the first definitive
    /// verdict wins, and its engine thread cancels the losing engines
    /// cooperatively.
    pub fn race(&self, verification: &Verification) -> PortfolioReport {
        self.run_portfolio(verification, true, None, &RecorderHandle::disabled(), None)
            .0
    }

    /// Runs every configured engine to completion (no cancellation) and
    /// cross-validates all verdicts against each other.
    pub fn check_all(&self, verification: &Verification) -> PortfolioReport {
        self.run_portfolio(verification, false, None, &RecorderHandle::disabled(), None)
            .0
    }

    /// Like [`Portfolio::race`], but warm-started from a knowledge base and
    /// observed:
    ///
    /// * `warm` seeds the engines (replayed CDCL clauses into BMC, conflict
    ///   cubes and datapath facts into ATPG) and may narrow the engine list
    ///   to the scheduling predictor's choice. The returned [`Harvest`]
    ///   carries everything this race learned, for merging back into the
    ///   base. Seeds must come from runs on a structurally identical netlist
    ///   — the knowledge-base owner enforces that by keying on a design hash.
    /// * Every flight-recorder event this race (and the core searches under
    ///   it) emits goes through `recorder` — the per-job handle the
    ///   verification service derives, so a remote `events` tail can be
    ///   filtered down to one job: race start, one spawn per engine, one
    ///   answer per engine, the cancel of the losers (recorded by the
    ///   winning engine's thread, before its answer), race end.
    /// * The race publishes live progress into `progress`: the ATPG engine
    ///   streams bound advances and effort counters from inside its search,
    ///   and the supervisor stores every engine's final statistics the
    ///   moment it answers.
    ///
    /// Observation is lock-free, alloc-free and never influences scheduling
    /// or verdicts.
    pub fn race_warm(
        &self,
        verification: &Verification,
        warm: &WarmStart,
        recorder: &RecorderHandle,
        progress: &RaceProgress,
    ) -> (PortfolioReport, Harvest) {
        self.run_portfolio(verification, true, Some(warm), recorder, Some(progress))
    }

    /// Checks a batch of properties, sharding them across
    /// [`PortfolioConfig::workers`] worker threads. Each job is checked with
    /// [`Portfolio::race`] (or [`Portfolio::check_all`] when
    /// [`PortfolioConfig::cross_validate`] is set); results come back in job
    /// order.
    pub fn check_batch(&self, jobs: &[Verification]) -> Vec<PortfolioReport> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<PortfolioReport>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.config.workers.clamp(1, jobs.len());
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(index) else { break };
                    let report = if self.config.cross_validate {
                        self.check_all(job)
                    } else {
                        self.race(job)
                    };
                    *slots[index].lock().expect("result slot") = Some(report);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every job produced a report")
            })
            .collect()
    }

    fn run_portfolio(
        &self,
        verification: &Verification,
        cancel_losers: bool,
        warm: Option<&WarmStart>,
        recorder: &RecorderHandle,
        progress: Option<&RaceProgress>,
    ) -> (PortfolioReport, Harvest) {
        let start = Instant::now();
        // A job budget turns the race token into a deadline token: every
        // engine polls it cooperatively, so even one stuck in a pathological
        // search (or an injected hang) releases its thread once the budget
        // is gone — the supervisor then reports a structured timeout below.
        let token = match self.config.job_budget {
            Some(budget) => CancelToken::with_deadline(start + budget),
            None => CancelToken::new(),
        };
        let engines: &[Engine] = warm
            .and_then(|w| w.engines.as_deref())
            .unwrap_or(&self.config.engines);
        let (tx, rx) = mpsc::channel::<(EngineRun, EngineHarvest, bool)>();
        // Set by the one engine thread whose validated definitive verdict
        // comes first: that thread cancels the losers itself instead of
        // waiting for the supervisor to be scheduled.
        let claimed = AtomicBool::new(false);
        let mut runs: Vec<EngineRun> = Vec::with_capacity(engines.len());
        let mut harvest = Harvest::default();
        let mut winner: Option<usize> = None;
        let mut first_definitive_at: Option<Duration> = None;
        let mut win_margin: Option<Duration> = None;
        recorder.record(
            RecorderLayer::Portfolio,
            RecorderKind::Start,
            engines.len() as u64,
            self.config
                .job_budget
                .map(|b| b.as_millis() as u64)
                .unwrap_or(0),
        );
        thread::scope(|scope| {
            for &engine in engines {
                let tx = tx.clone();
                let token = token.clone();
                let config = &self.config;
                let claimed = &claimed;
                recorder.record(
                    RecorderLayer::Portfolio,
                    RecorderKind::Spawn,
                    engine_code(engine),
                    0,
                );
                let progress_handle = progress
                    .map(|p| p.handle(engine))
                    .unwrap_or_else(wlac_telemetry::ProgressHandle::disabled);
                scope.spawn(move || {
                    let (run, engine_harvest) = engines::run_engine_probed(
                        engine,
                        verification,
                        config,
                        &token,
                        warm,
                        recorder,
                        &progress_handle,
                    );
                    // The verdict is already validated, so a rejected trace
                    // never cancels anyone.
                    let won = cancel_losers
                        && run.verdict.is_definitive()
                        && !claimed.swap(true, Ordering::AcqRel);
                    if won {
                        token.cancel();
                        recorder.record(
                            RecorderLayer::Portfolio,
                            RecorderKind::Cancel,
                            engine_code(engine),
                            0,
                        );
                    }
                    // The receiver outlives the scope; a send only fails if
                    // the supervisor panicked, in which case the scope
                    // propagates that panic anyway.
                    let _ = tx.send((run, engine_harvest, won));
                });
            }
            drop(tx);
            // Collect results in finish order; in racing mode the claimant
            // is the winner (it has already cancelled everyone else).
            while let Ok((run, engine_harvest, won)) = rx.recv() {
                let at = start.elapsed();
                let definitive = run.verdict.is_definitive();
                if let Some(progress) = progress {
                    progress.record_final(&run);
                }
                recorder.record(
                    RecorderLayer::Portfolio,
                    RecorderKind::Answer,
                    engine_code(run.engine),
                    u64::from(definitive),
                );
                match first_definitive_at {
                    None if definitive => first_definitive_at = Some(at),
                    Some(won_at) if win_margin.is_none() => {
                        win_margin = Some(at.saturating_sub(won_at));
                    }
                    _ => {}
                }
                if won {
                    winner = Some(runs.len());
                }
                harvest.clauses.extend(engine_harvest.clauses);
                if engine_harvest.knowledge.is_some() {
                    harvest.knowledge = engine_harvest.knowledge;
                }
                harvest.ran.push(run.engine);
                runs.push(run);
            }
        });
        let disagreements = cross_validate(&runs);
        if !cancel_losers {
            // Cross-validation mode: every engine ran to completion, so pick
            // the most informative verdict instead of the earliest one — a
            // validated trace from a deep engine (e.g. a random-simulation
            // hit beyond the unrolling bound) beats a bounded hold.
            winner = runs
                .iter()
                .enumerate()
                .filter(|(_, run)| run.verdict.is_definitive())
                .max_by_key(|(index, run)| (run.verdict.rank(), usize::MAX - index))
                .map(|(index, _)| index);
        }
        let verdict = match winner {
            Some(index) => runs[index].verdict.clone(),
            None => match self.config.job_budget {
                // No engine answered and the budget ran out: the structured
                // timeout outcome, not a free-form Unknown.
                Some(budget) if token.deadline_expired() => Verdict::Timeout { budget },
                _ => Verdict::Unknown {
                    reason: runs
                        .iter()
                        .map(|r| {
                            let reason = match &r.verdict {
                                Verdict::Unknown { reason } => reason.as_str(),
                                _ => "?",
                            };
                            format!("{}: {}", r.engine, reason)
                        })
                        .collect::<Vec<_>>()
                        .join("; "),
                },
            },
        };
        harvest.winner = winner.map(|index| runs[index].engine);
        let report = PortfolioReport {
            property: verification.property.name.clone(),
            verdict,
            winner: harvest.winner,
            wall_clock: start.elapsed(),
            runs,
            disagreements,
        };
        if let Some(registry) = &self.metrics {
            record_race_metrics(registry, &report, win_margin);
        }
        recorder.record(
            RecorderLayer::Portfolio,
            RecorderKind::End,
            report.winner.map(engine_code).unwrap_or(u64::MAX),
            report.wall_clock.as_nanos() as u64,
        );
        (report, harvest)
    }
}

/// Engine as a stable small integer for flight-recorder payload words
/// (0 = atpg, 1 = sat_bmc, 2 = random_sim).
fn engine_code(engine: Engine) -> u64 {
    match engine {
        Engine::Atpg => 0,
        Engine::SatBmc => 1,
        Engine::RandomSim => 2,
    }
}

/// Engine name as a metric-name component (Prometheus forbids `-`).
fn metric_suffix(engine: Engine) -> &'static str {
    match engine {
        Engine::Atpg => "atpg",
        Engine::SatBmc => "sat_bmc",
        Engine::RandomSim => "random_sim",
    }
}

/// Publishes one race's attribution into the shared registry: race and
/// per-engine win counters, per-engine wall-clock and race wall-clock
/// histograms, the race overhead (race wall clock minus the winning run's
/// own elapsed time — what the losers and the supervisor cost on top of
/// the answer), cancelled-run and disagreement counters, and the win margin
/// (first definitive answer to the next engine's answer — how much racing
/// actually bought).
fn record_race_metrics(
    registry: &MetricsRegistry,
    report: &PortfolioReport,
    win_margin: Option<Duration>,
) {
    registry.counter("portfolio_races_total").inc();
    registry
        .histogram("portfolio_race_wall_ns")
        .record(report.wall_clock.as_nanos() as u64);
    if let Some(winner) = report.winner {
        registry
            .counter(&format!("portfolio_wins_{}_total", metric_suffix(winner)))
            .inc();
        if let Some(run) = report.run_of(winner) {
            registry
                .histogram("portfolio_race_overhead_ns")
                .record(report.wall_clock.saturating_sub(run.elapsed).as_nanos() as u64);
        }
    } else {
        registry.counter("portfolio_no_winner_total").inc();
    }
    if matches!(report.verdict, Verdict::Timeout { .. }) {
        registry.counter("portfolio_timeouts_total").inc();
    }
    for run in &report.runs {
        registry
            .histogram(&format!(
                "portfolio_engine_{}_wall_ns",
                metric_suffix(run.engine)
            ))
            .record(run.elapsed.as_nanos() as u64);
        if run.cancelled {
            registry.counter("portfolio_cancelled_runs_total").inc();
        }
    }
    if !report.disagreements.is_empty() {
        registry
            .counter("portfolio_disagreements_total")
            .add(report.disagreements.len() as u64);
    }
    if let Some(margin) = win_margin {
        registry
            .histogram("portfolio_win_margin_ns")
            .record(margin.as_nanos() as u64);
    }
}

/// Pairwise consistency check over all definitive verdicts.
fn cross_validate(runs: &[EngineRun]) -> Vec<String> {
    let mut disagreements = Vec::new();
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            if a.verdict.conflicts_with(&b.verdict) {
                disagreements.push(format!(
                    "{} says {} but {} says {}",
                    a.engine,
                    a.verdict.label(),
                    b.engine,
                    b.verdict.label(),
                ));
            }
        }
    }
    disagreements
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_atpg::Property;
    use wlac_bv::Bv;
    use wlac_netlist::Netlist;

    fn counter(limit: u64, wrap: u64, name: &str) -> Verification {
        let mut nl = Netlist::new("counter");
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let one = nl.constant(&Bv::from_u64(4, 1));
        let plus = nl.add(q, one);
        let wrap_net = nl.constant(&Bv::from_u64(4, wrap));
        let at_wrap = nl.eq(q, wrap_net);
        let zero = nl.constant(&Bv::zero(4));
        let next = nl.mux(at_wrap, zero, plus);
        nl.connect_dff_data(ff, next);
        let limit_net = nl.constant(&Bv::from_u64(4, limit));
        let ok = nl.lt(q, limit_net);
        nl.mark_output("ok", ok);
        let property = Property::always(&nl, name, ok);
        Verification::new(nl, property)
    }

    #[test]
    fn race_produces_a_winner_and_attribution() {
        let report = Portfolio::with_defaults().race(&counter(12, 5, "holds"));
        assert!(report.verdict.is_pass(), "{:?}", report.verdict);
        assert!(report.winner.is_some());
        assert!(report.agreed(), "{:?}", report.disagreements);
        assert_eq!(report.runs.len(), 3);
        assert_eq!(report.property, "holds");
        let text = report.to_string();
        assert!(text.contains("won by"), "{text}");
    }

    #[test]
    fn race_on_a_violation_returns_a_validated_trace() {
        let report = Portfolio::with_defaults().race(&counter(5, 12, "fails"));
        match &report.verdict {
            Verdict::Violated { trace } => assert!(trace.len() >= 5),
            other => panic!("expected violation, got {other:?}"),
        }
        assert!(report.agreed(), "{:?}", report.disagreements);
    }

    #[test]
    fn check_all_runs_every_engine_to_completion() {
        let portfolio = Portfolio::new(PortfolioConfig::default().with_cross_validation());
        let report = portfolio.check_all(&counter(12, 5, "holds"));
        // Racing cancels losers; check_all must not.
        assert!(report.runs.iter().all(|r| !r.cancelled));
        // ATPG and BMC both reach a definitive pass verdict.
        for engine in [Engine::Atpg, Engine::SatBmc] {
            let run = report.run_of(engine).expect("engine ran");
            assert!(run.verdict.is_pass(), "{engine}: {:?}", run.verdict);
        }
        assert!(report.agreed());
    }

    #[test]
    fn batch_returns_reports_in_job_order() {
        let jobs = vec![
            counter(12, 5, "j0"),
            counter(5, 12, "j1"),
            counter(3, 12, "j2"),
            counter(9, 4, "j3"),
        ];
        let reports = Portfolio::with_defaults().check_batch(&jobs);
        assert_eq!(reports.len(), 4);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.property, format!("j{i}"));
            assert!(
                report.agreed(),
                "{}: {:?}",
                report.property,
                report.disagreements
            );
        }
        assert!(reports[0].verdict.is_pass());
        assert!(matches!(reports[1].verdict, Verdict::Violated { .. }));
        assert!(matches!(reports[2].verdict, Verdict::Violated { .. }));
        assert!(reports[3].verdict.is_pass());
    }

    #[test]
    fn deep_violation_beyond_the_bound_wins_cross_validation() {
        // The counter wraps at 9, so q = 8 violates "q < 8" — but only at
        // cycle 8, beyond an 8-frame unrolling (the violation needs 9
        // frames). The bounded engines correctly report holds-up-to-bound;
        // the 64-cycle random simulation finds the real violation, which is
        // not a disagreement (the trace is longer than the bound) and must
        // win the combined verdict.
        let portfolio = Portfolio::new(PortfolioConfig::default().with_cross_validation());
        let report = portfolio.check_all(&counter(8, 9, "deep"));
        assert!(report.agreed(), "{:?}", report.disagreements);
        assert_eq!(report.winner, Some(Engine::RandomSim));
        match &report.verdict {
            Verdict::Violated { trace } => assert!(trace.len() > 8),
            other => panic!("expected the deep violation, got {other:?}"),
        }
        let bounded = report.run_of(Engine::Atpg).expect("atpg ran");
        assert!(bounded.verdict.is_pass(), "{:?}", bounded.verdict);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(Portfolio::with_defaults().check_batch(&[]).is_empty());
    }

    #[test]
    fn race_events_order_spawns_before_answers() {
        use wlac_telemetry::FlightRecorder;
        let recorder = Arc::new(FlightRecorder::new(4096));
        let (report, _) = Portfolio::with_defaults().race_warm(
            &counter(12, 5, "timed"),
            &WarmStart::new(),
            &RecorderHandle::to(Arc::clone(&recorder)).with_job(9),
            &RaceProgress::new(),
        );
        assert!(report.winner.is_some());
        let events: Vec<_> = recorder
            .snapshot()
            .into_iter()
            .filter(|e| e.layer == RecorderLayer::Portfolio)
            .collect();
        let kinds: Vec<RecorderKind> = events.iter().map(|e| e.kind).collect();
        let count = |kind: RecorderKind| kinds.iter().filter(|k| **k == kind).count();
        assert_eq!(count(RecorderKind::Spawn), 3, "{kinds:?}");
        assert_eq!(count(RecorderKind::Answer), 3, "{kinds:?}");
        // Racing mode cancels once, as soon as someone is definitive.
        assert_eq!(count(RecorderKind::Cancel), 1, "{kinds:?}");
        // The supervisor dispatches every engine before it hears an answer,
        // and the race ends after all of them.
        let last_spawn = kinds.iter().rposition(|k| *k == RecorderKind::Spawn);
        let first_answer = kinds.iter().position(|k| *k == RecorderKind::Answer);
        assert!(last_spawn < first_answer, "{kinds:?}");
        assert_eq!(kinds.first(), Some(&RecorderKind::Start));
        assert_eq!(kinds.last(), Some(&RecorderKind::End));
        // Sequence numbers order the events; every one carries the job id.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.iter().all(|e| e.job == 9));
    }

    #[test]
    fn the_winner_records_the_one_cancel_before_its_answer() {
        use wlac_telemetry::FlightRecorder;
        let recorder = Arc::new(FlightRecorder::new(1 << 14));
        let race = |portfolio: &Portfolio, job: u64, verification: &Verification| {
            let (report, _) = portfolio.race_warm(
                verification,
                &WarmStart::new(),
                &RecorderHandle::to(Arc::clone(&recorder)).with_job(job),
                &RaceProgress::new(),
            );
            let events: Vec<_> = recorder
                .snapshot()
                .into_iter()
                .filter(|e| e.layer == RecorderLayer::Portfolio && e.job == job)
                .collect();
            (report, events)
        };
        let decided = [
            counter(12, 5, "holds"),
            counter(5, 12, "fails"),
            counter(2, 12, "fails_early"),
            counter(8, 9, "holds_in_bound"),
        ];
        for (job, verification) in (1..).zip(&decided) {
            let (report, events) = race(&Portfolio::with_defaults(), job, verification);
            let winner = engine_code(report.winner.expect("a decided race"));
            let cancels: Vec<usize> = (0..events.len())
                .filter(|&i| events[i].kind == RecorderKind::Cancel)
                .collect();
            assert_eq!(cancels.len(), 1, "job {job}: {events:?}");
            assert_eq!(events[cancels[0]].payload[0], winner, "job {job}");
            let answer = events
                .iter()
                .position(|e| e.kind == RecorderKind::Answer && e.payload[0] == winner)
                .expect("the winner answers");
            assert!(cancels[0] < answer, "job {job}: {events:?}");
        }
        // An undecided race has no winner, so nobody cancels.
        let sim_only =
            Portfolio::new(PortfolioConfig::default().with_engines(vec![Engine::RandomSim]));
        let (report, events) = race(&sim_only, 99, &counter(12, 5, "undecided"));
        assert!(report.winner.is_none(), "{:?}", report.verdict);
        assert!(events.iter().all(|e| e.kind != RecorderKind::Cancel));
    }

    #[test]
    fn metrics_registry_sees_races_and_wins() {
        let registry = Arc::new(MetricsRegistry::new());
        let portfolio = Portfolio::with_defaults().with_metrics(registry.clone());
        let won = portfolio.race(&counter(12, 5, "m0"));
        let winner = won.winner.expect("definitive race");
        portfolio.race(&counter(5, 12, "m1"));
        assert_eq!(registry.counter("portfolio_races_total").get(), 2);
        let wins = registry
            .counter(&format!("portfolio_wins_{}_total", metric_suffix(winner)))
            .get();
        assert!(wins >= 1, "winner {winner} should be counted");
        assert_eq!(registry.histogram("portfolio_race_wall_ns").count(), 2);
        // Both races are decided, so each records its overhead.
        assert_eq!(registry.histogram("portfolio_race_overhead_ns").count(), 2);
        // Each race runs all three engines; every run's wall clock lands in
        // its per-engine histogram.
        let per_engine: u64 = Engine::ALL
            .iter()
            .map(|&e| {
                registry
                    .histogram(&format!("portfolio_engine_{}_wall_ns", metric_suffix(e)))
                    .count()
            })
            .sum();
        assert_eq!(per_engine, 6);
    }

    #[test]
    fn job_budget_times_out_a_hung_engine_within_twice_the_budget() {
        use wlac_atpg::{FaultPlan, FaultSite};
        // One engine, hung from its first search step: without a budget this
        // race would never return. With one, the deadline token releases the
        // hang and the supervisor reports a structured timeout.
        let mut config = PortfolioConfig::default().with_engines(vec![Engine::Atpg]);
        config.job_budget = Some(Duration::from_millis(250));
        config.checker.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
        let registry = Arc::new(MetricsRegistry::new());
        let started = Instant::now();
        let report = Portfolio::new(config)
            .with_metrics(registry.clone())
            .race(&counter(12, 5, "hung"));
        let elapsed = started.elapsed();
        assert!(
            matches!(report.verdict, Verdict::Timeout { .. }),
            "{:?}",
            report.verdict
        );
        assert_eq!(report.verdict.label(), "timeout");
        assert!(!report.verdict.is_definitive());
        assert!(report.winner.is_none());
        assert!(
            elapsed < Duration::from_millis(500),
            "worker freed within 2x budget, took {elapsed:?}"
        );
        assert_eq!(registry.counter("portfolio_timeouts_total").get(), 1);
    }

    #[test]
    fn job_budget_leaves_fast_races_untouched() {
        let config = PortfolioConfig::default().with_job_budget(Duration::from_secs(60));
        let report = Portfolio::new(config).race(&counter(12, 5, "fast"));
        assert!(report.verdict.is_pass(), "{:?}", report.verdict);
        assert!(report.winner.is_some());
    }

    #[test]
    fn single_engine_portfolio_works() {
        let config = PortfolioConfig::default().with_engines(vec![Engine::Atpg]);
        let report = Portfolio::new(config).race(&counter(12, 5, "solo"));
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.winner, Some(Engine::Atpg));
    }
}

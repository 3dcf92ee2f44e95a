//! `table2-paper`: the paper's Table 2 at `Scale::Paper`, ATPG alone.
//!
//! The fourteen properties of `paper_suite(Scale::Paper)` are checked one at
//! a time under `harness_options()`, in an order fixed by the seed. Each
//! verdict is judged against the case's `Expectation`; a witness or
//! counter-example is replayed on the design before it counts.

use crate::atpg::{run_workload, Job, Judgement, Plan};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::RunConfig;
use std::time::Duration;
use wlac_atpg::{CheckReport, CheckResult, Trace, Verification};
use wlac_circuits::{paper_suite, Expectation, Scale};

/// Per-check deadline: the harness's own `time_limit`. The slowest decided
/// case (p2) takes about 5 s and the two cases that stop at the backtrack
/// limit (p10, p11) about 3 s and 8 s.
pub const DEADLINE: Duration = Duration::from_secs(30);

/// Set-up is repeated 9 times before the passes and once after each. A
/// check shorter than 250 ms is repeated back to back until its
/// repetitions take 250 ms: the eleven short checks then cost about a
/// second a pass, and the median check (p4, a few milliseconds) is timed
/// warm instead of after whichever long check the seed put before it.
const PLAN: Plan = Plan {
    setups: 9,
    repeat_for: Duration::from_millis(250),
};

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    run_workload(cfg, &PLAN, || setup(cfg.seed))
}

/// Builds the fourteen jobs and the seeded check order.
pub fn setup(seed: u64) -> (Vec<Job>, Vec<usize>) {
    let options = wlac_bench::harness_options();
    let jobs: Vec<Job> = paper_suite(Scale::Paper)
        .into_iter()
        .map(|case| {
            let verification = case.verification.clone();
            let expectation = case.expectation;
            Job {
                name: format!("{} ({})", case.property, case.circuit),
                options: options.clone(),
                deadline: DEADLINE,
                oracle: Box::new(move |report| judge(&verification, expectation, report)),
                verification: case.verification,
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    Rng::new(seed, 0x7AB1E2).shuffle(&mut order);
    (jobs, order)
}

/// Judges one report against the case's expectation.
pub fn judge(
    verification: &Verification,
    expectation: Expectation,
    report: &CheckReport,
) -> Judgement {
    match (&report.result, expectation) {
        (result, Expectation::Pass) if result.is_pass() => Judgement::Expected,
        (CheckResult::WitnessFound { trace }, Expectation::Witness) => {
            match replays(verification, trace) {
                Ok(()) => Judgement::Expected,
                Err(why) => Judgement::Wrong(format!("witness does not replay: {why}")),
            }
        }
        (CheckResult::CounterExample { trace }, Expectation::Pass) => {
            match replays(verification, trace) {
                Ok(()) => Judgement::Wrong("counter-example to a property the paper proves".into()),
                Err(why) => Judgement::Wrong(format!("counter-example does not replay: {why}")),
            }
        }
        (CheckResult::WitnessNotFound { frames }, Expectation::Witness) => {
            Judgement::Failed(format!("no witness within {frames} frames"))
        }
        (CheckResult::Unknown { reason }, _) => Judgement::Failed(format!("unknown: {reason}")),
        (result, expectation) => {
            Judgement::Wrong(format!("{result:?} where {expectation:?} was expected"))
        }
    }
}

/// Replays `trace`: the environment holds in every cycle and the property's
/// monitor takes the value the trace claims in some cycle (1 for a
/// witness, 0 for a counter-example).
fn replays(verification: &Verification, trace: &Trace) -> Result<(), String> {
    let netlist = &verification.netlist;
    let monitor = trace
        .replay_monitor(netlist, verification.property.monitor)
        .map_err(|e| format!("{e:?}"))?;
    for env in &verification.environment {
        let held = trace
            .replay_monitor(netlist, *env)
            .map_err(|e| format!("{e:?}"))?;
        if held.iter().any(|v| !v) {
            return Err("environment violated".into());
        }
    }
    let want = matches!(
        verification.property.kind,
        wlac_atpg::PropertyKind::Eventually
    );
    if monitor.contains(&want) {
        Ok(())
    } else {
        Err(format!("monitor trace {monitor:?}"))
    }
}

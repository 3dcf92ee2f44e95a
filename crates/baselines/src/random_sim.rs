//! Random simulation baseline.
//!
//! The paper's introduction motivates deterministic techniques by the
//! weakness of random test-benches on corner-case bugs. This baseline
//! implements that straw man: drive the design with uniformly random inputs
//! for a number of runs and report whether the monitor was ever violated
//! (for `Always` properties) or satisfied (for `Eventually` witnesses).

use std::time::{Duration, Instant};
use wlac_atpg::{CancelToken, PropertyKind, Trace, Verification};
use wlac_bv::Bv;
use wlac_netlist::NetId;
use wlac_rng::Rng64;
use wlac_sim::Simulator;

/// Result of a random-simulation campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomSimReport {
    /// `true` when the target event (violation or witness) was observed.
    pub target_hit: bool,
    /// Cycle of the first hit, if any.
    pub first_hit_cycle: Option<usize>,
    /// Number of runs simulated.
    pub runs: usize,
    /// Cycles simulated per run.
    pub cycles_per_run: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// The hitting input sequence, truncated at the hit cycle, when the
    /// target was observed. Replayable with [`Trace::replay_monitor`] for
    /// cross-engine validation.
    pub trace: Option<Trace>,
}

/// Simulates `runs` random input sequences of `cycles` cycles each.
pub fn random_simulation(
    verification: &Verification,
    runs: usize,
    cycles: usize,
    seed: u64,
) -> RandomSimReport {
    random_simulation_cancellable(verification, runs, cycles, seed, &CancelToken::new())
}

/// Like [`random_simulation`], but polls `cancel` every simulated cycle so
/// a portfolio race can stop a losing campaign within microseconds.
///
/// Each run steps one [`Simulator`] a cycle at a time and stops at its first
/// hit cycle. The input draws are those of whole `cycles`-long runs (a run
/// abandoned early still consumes its remaining draws), so the hit, its
/// cycle and its trace do not depend on where a run stops.
pub fn random_simulation_cancellable(
    verification: &Verification,
    runs: usize,
    cycles: usize,
    seed: u64,
    cancel: &CancelToken,
) -> RandomSimReport {
    let start = Instant::now();
    let netlist = &verification.netlist;
    let mut rng = Rng64::seed_from_u64(seed);
    let mut report = RandomSimReport {
        target_hit: false,
        first_hit_cycle: None,
        runs,
        cycles_per_run: cycles,
        elapsed: Duration::ZERO,
        trace: None,
    };
    let Ok(mut sim) = Simulator::new(netlist) else {
        report.elapsed = start.elapsed();
        return report;
    };
    let words_per_cycle: usize = netlist
        .inputs()
        .iter()
        .map(|pi| netlist.net_width(*pi).div_ceil(64))
        .sum();
    let mut frames: Vec<Vec<(NetId, Bv)>> = Vec::with_capacity(cycles);
    'runs: for _ in 0..runs {
        sim.reset();
        frames.clear();
        for cycle in 0..cycles {
            if cancel.is_cancelled() {
                break 'runs;
            }
            let frame: Vec<(NetId, Bv)> = netlist
                .inputs()
                .iter()
                .map(|pi| {
                    let width = netlist.net_width(*pi);
                    let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| rng.next_u64()).collect();
                    (*pi, Bv::from_words(width, &words))
                })
                .collect();
            if sim.settle(&frame).is_err() {
                break 'runs;
            }
            frames.push(frame);
            let env_ok = verification
                .environment
                .iter()
                .all(|e| !sim.net_value(*e).is_zero());
            if !env_ok {
                // The environment must hold in *every* cycle; once violated,
                // the design state is polluted and any later hit would yield
                // a trace the checkers rightly reject. Abandon the run, but
                // draw its remaining inputs so later runs see the same ones.
                for _ in 0..(cycles - cycle - 1) * words_per_cycle {
                    rng.next_u64();
                }
                continue 'runs;
            }
            let monitor = sim.net_value(verification.property.monitor);
            let hit = match verification.property.kind {
                PropertyKind::Always => monitor.is_zero(),
                PropertyKind::Eventually => !monitor.is_zero(),
            };
            if hit {
                report.target_hit = true;
                report.first_hit_cycle = Some(cycle);
                // The replayed simulation starts from the same reset state
                // as this run, so an empty initial state reproduces it.
                report.trace = Some(Trace {
                    initial_state: Vec::new(),
                    inputs: frames,
                });
                break 'runs;
            }
            sim.clock();
        }
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_atpg::Property;
    use wlac_netlist::Netlist;

    #[test]
    fn random_simulation_finds_an_easy_witness_but_not_a_corner_case() {
        // Easy: some input bit is eventually 1. Corner case: a 16-bit input
        // must equal a specific constant.
        let mut nl = Netlist::new("rand");
        let wide = nl.input("wide", 16);
        let magic = nl.constant(&Bv::from_u64(16, 0xBEEF));
        let corner = nl.eq(wide, magic);
        let easy = nl.reduce_or(wide);
        nl.mark_output("corner", corner);

        let easy_property = Property::eventually(&nl, "easy", easy);
        let easy_verification = Verification::new(nl.clone(), easy_property);
        let report = random_simulation(&easy_verification, 4, 8, 7);
        assert!(report.target_hit);
        assert_eq!(report.runs, 4);
        // The recorded trace replays to a real hit.
        let trace = report.trace.expect("hit comes with a trace");
        let replay = trace
            .replay_monitor(
                &easy_verification.netlist,
                easy_verification.property.monitor,
            )
            .expect("replay succeeds");
        assert_eq!(replay.last(), Some(&true));

        let corner_property = Property::eventually(&nl, "corner", corner);
        let report = random_simulation(&Verification::new(nl, corner_property), 4, 8, 7);
        assert!(
            !report.target_hit,
            "2^-16 chance per cycle should not hit in 32 cycles"
        );
        assert!(report.first_hit_cycle.is_none());
        assert!(report.trace.is_none());
    }

    #[test]
    fn cancelled_campaign_stops_without_a_hit() {
        let mut nl = Netlist::new("rand");
        let wide = nl.input("wide", 8);
        let easy = nl.reduce_or(wide);
        nl.mark_output("easy", easy);
        let property = Property::eventually(&nl, "easy", easy);
        let verification = Verification::new(nl, property);
        let cancel = CancelToken::new();
        cancel.cancel();
        let report = random_simulation_cancellable(&verification, 1000, 1000, 3, &cancel);
        assert!(!report.target_hit, "cancelled before the first run");
    }
}

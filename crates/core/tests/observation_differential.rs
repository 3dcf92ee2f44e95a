//! Differential proof that observation is pure: running the exact same check
//! bare, and with `CheckerOptions::trace` set, a private flight recorder and
//! a live-progress cell all attached, must produce byte-identical verdicts
//! and the same decision sequence (every search counter equal at every level
//! of aggregation). The observed run must additionally produce a phase
//! breakdown that partitions `elapsed`, recorder events describing the
//! decisions taken, and closing counters in the progress cell that match
//! the report.

use std::sync::Arc;
use wlac_atpg::{AssertionChecker, CheckerOptions, Property, Verification};
use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};
use wlac_telemetry::{
    FlightRecorder, ProgressCell, ProgressHandle, RecorderHandle, RecorderKind, RecorderLayer,
};

/// A 4-bit counter wrapping at `wrap_at`, monitored by `q < limit`.
fn bounded_counter(limit: u64, wrap_at: u64) -> (Netlist, NetId) {
    let mut nl = Netlist::new("bounded_counter");
    let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
    let one = nl.constant(&Bv::from_u64(4, 1));
    let plus = nl.add(q, one);
    let wrap = nl.constant(&Bv::from_u64(4, wrap_at));
    let at_wrap = nl.eq(q, wrap);
    let zero = nl.constant(&Bv::zero(4));
    let next = nl.mux(at_wrap, zero, plus);
    nl.connect_dff_data(ff, next);
    let limit_net = nl.constant(&Bv::from_u64(4, limit));
    let ok = nl.lt(q, limit_net);
    nl.mark_output("ok", ok);
    (nl, ok)
}

/// An adder pipeline whose output forced odd is unsatisfiable — exercises
/// the modular datapath leaf, not just Boolean search.
fn datapath_design() -> Verification {
    let mut nl = Netlist::new("doubled");
    let a = nl.input("a", 8);
    let (q, ff) = nl.dff_deferred(8, Some(Bv::zero(8)));
    let doubled = nl.add(a, a);
    nl.connect_dff_data(ff, doubled);
    let one = nl.constant(&Bv::from_u64(1, 1));
    let low = nl.slice(q, 0, 1);
    let is_odd = nl.eq(low, one);
    let ok = nl.not(is_odd);
    nl.mark_output("ok", ok);
    let property = Property::always(&nl, "never_odd", ok);
    Verification::new(nl, property)
}

/// `mux(c, x + x, x + y) == 5` behind two guard pairs `(p ∨ q)`: the
/// control inputs must be decided before the datapath leaf can answer, so
/// unlike the designs above this search takes decisions.
fn guarded_datapath_design() -> Verification {
    let mut nl = Netlist::new("guarded");
    let c = nl.input("c", 1);
    let x = nl.input("x", 4);
    let y = nl.input("y", 4);
    let doubled = nl.add(x, x);
    let summed = nl.add(x, y);
    let value = nl.mux(c, doubled, summed);
    let five = nl.constant(&Bv::from_u64(4, 5));
    let mut objective = nl.eq(value, five);
    for i in 0..2 {
        let p = nl.input(format!("p{i}"), 1);
        let q = nl.input(format!("q{i}"), 1);
        let either = nl.or2(p, q);
        objective = nl.and2(objective, either);
    }
    let ok = nl.not(objective);
    nl.mark_output("ok", ok);
    let property = Property::always(&nl, "never_five", ok);
    Verification::new(nl, property)
}

/// Checks `verification` bare and observed, asserts the two runs agree and
/// the observations are complete, and returns the observed decision count.
fn check_both_ways(verification: &Verification, max_frames: usize) -> u64 {
    let base = CheckerOptions {
        max_frames,
        ..CheckerOptions::default()
    };
    let bare = AssertionChecker::new(base.clone()).check(verification);

    let recorder = Arc::new(FlightRecorder::new(65_536));
    let cell = Arc::new(ProgressCell::new());
    let observed_options = CheckerOptions {
        trace: true,
        ..base
    }
    .with_recorder(RecorderHandle::to(Arc::clone(&recorder)))
    .with_progress(ProgressHandle::to(Arc::clone(&cell)));
    let observed = AssertionChecker::new(observed_options).check(verification);

    // Verdicts (including any counter-example trace, byte for byte).
    assert_eq!(bare.result, observed.result);
    assert_eq!(bare.property, observed.property);

    // Decision sequence: the searches are deterministic, so equality of
    // every effort counter at every level pins the two runs to the same
    // decisions in the same order.
    assert_eq!(bare.stats.decisions, observed.stats.decisions);
    assert_eq!(bare.stats.conflicts, observed.stats.conflicts);
    assert_eq!(bare.stats.backtracks, observed.stats.backtracks);
    assert_eq!(bare.stats.implication, observed.stats.implication);
    assert_eq!(bare.stats.arithmetic_calls, observed.stats.arithmetic_calls);
    assert_eq!(
        bare.stats.island_cache_hits,
        observed.stats.island_cache_hits
    );
    assert_eq!(
        bare.stats.island_cache_misses,
        observed.stats.island_cache_misses
    );
    assert_eq!(
        bare.stats.datapath_fact_hits,
        observed.stats.datapath_fact_hits
    );
    assert_eq!(
        bare.stats.justify_gates_rechecked,
        observed.stats.justify_gates_rechecked
    );
    assert_eq!(bare.stats.frames_explored, observed.stats.frames_explored);

    // trace=false leaves the phase breakdown untouched.
    assert_eq!(bare.stats.phases.total(), 0);

    // trace=true partitions elapsed into phases: the sum must track the
    // wall clock to within 10% (the acceptance bound of the `trace_check`
    // exposition built on this data).
    let elapsed = observed.stats.elapsed.as_nanos() as u64;
    let total = observed.stats.phases.total();
    assert!(total > 0, "traced run must attribute time");
    let bound = elapsed / 10;
    assert!(
        total.abs_diff(elapsed) <= bound.max(1_000),
        "phase sum {total} vs elapsed {elapsed} diverges by more than 10%"
    );

    // Recorder events describe the run: core search starts and bound
    // advances, and one decision event per decision (the ring is sized so
    // nothing is overwritten).
    assert_eq!(recorder.overwrites(), 0);
    let events = recorder.snapshot();
    assert!(events.iter().all(|e| e.layer == RecorderLayer::Core));
    let count = |kind: RecorderKind| events.iter().filter(|e| e.kind == kind).count() as u64;
    assert!(count(RecorderKind::Start) > 0);
    assert!(count(RecorderKind::Bound) > 0);
    assert_eq!(count(RecorderKind::Decision), observed.stats.decisions);

    // The cell ends the run holding the search's closing counters: the
    // final publish of the last search pass wrote the cumulative stats the
    // report carries, and every bound advance registered as a restart.
    assert!(cell.has_published(), "probed run must publish");
    let snapshot = cell.snapshot();
    assert!(snapshot.probes >= 1);
    assert!(snapshot.bound >= 1, "at least one frame bound was searched");
    assert_eq!(snapshot.decisions, observed.stats.decisions);
    assert_eq!(snapshot.conflicts, observed.stats.conflicts);
    assert_eq!(snapshot.backtracks, observed.stats.backtracks);
    assert_eq!(
        snapshot.implications,
        observed.stats.implication.gate_evaluations
    );
    assert_eq!(snapshot.restarts as usize, observed.stats.frames_explored);
    observed.stats.decisions
}

#[test]
fn observation_is_invisible_to_a_proved_invariant() {
    // Wraps at 5, monitor q < 9: holds (bounded or induction-proved).
    let (nl, ok) = bounded_counter(9, 5);
    let property = Property::always(&nl, "below_9", ok);
    let verification = Verification::new(nl, property);
    check_both_ways(&verification, 8);
}

#[test]
fn observation_is_invisible_to_a_counterexample() {
    // Wraps at 12, monitor q < 5: fails after 5 cycles; the concrete
    // counter-example trace must be byte-identical when observed.
    let (nl, ok) = bounded_counter(5, 12);
    let property = Property::always(&nl, "below_5", ok);
    let verification = Verification::new(nl, property);
    check_both_ways(&verification, 8);
}

#[test]
fn observation_is_invisible_to_the_datapath_solver() {
    check_both_ways(&datapath_design(), 6);
}

#[test]
fn observation_is_invisible_to_a_witness_search() {
    // The monitor is reachable, so the witness search answers quickly; the
    // point is covering `check_eventually`'s emission sites.
    let (nl, ok) = bounded_counter(9, 5);
    let property = Property::eventually(&nl, "sees_ok", ok);
    let verification = Verification::new(nl, property);
    check_both_ways(&verification, 8);
}

#[test]
fn observation_is_invisible_to_a_search_that_decides() {
    let decisions = check_both_ways(&guarded_datapath_design(), 2);
    assert!(decisions > 0, "the guards must be decided");
}

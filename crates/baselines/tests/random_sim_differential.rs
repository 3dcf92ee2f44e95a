//! The cycle-stepped random simulation against a whole-run reference: the
//! campaign as it was first written, drawing every run's inputs up front and
//! simulating the whole run with [`wlac_sim::simulate`] before looking for a
//! hit. Stepping one cycle at a time (and stopping at the first hit) must not
//! change what a campaign finds: the same hit, hit cycle and trace, on the
//! circuits suite, on serve-style counter designs and on a design whose
//! environment abandons runs part-way.

use std::collections::HashMap;
use wlac_atpg::{Property, PropertyKind, Trace, Verification};
use wlac_baselines::random_simulation;
use wlac_bv::Bv;
use wlac_circuits::{paper_suite, Scale};
use wlac_netlist::{NetId, Netlist};
use wlac_rng::Rng64;
use wlac_sim::simulate;

/// `(target_hit, first_hit_cycle, trace)` of the whole-run reference.
fn reference(
    verification: &Verification,
    runs: usize,
    cycles: usize,
    seed: u64,
) -> (bool, Option<usize>, Option<Trace>) {
    let netlist = &verification.netlist;
    let mut rng = Rng64::seed_from_u64(seed);
    for _ in 0..runs {
        let frames: Vec<Vec<(NetId, Bv)>> = (0..cycles)
            .map(|_| {
                netlist
                    .inputs()
                    .iter()
                    .map(|pi| {
                        let width = netlist.net_width(*pi);
                        let words: Vec<u64> =
                            (0..width.div_ceil(64)).map(|_| rng.next_u64()).collect();
                        (*pi, Bv::from_words(width, &words))
                    })
                    .collect()
            })
            .collect();
        let maps: Vec<HashMap<NetId, Bv>> = frames
            .iter()
            .map(|frame| frame.iter().cloned().collect())
            .collect();
        let run = simulate(netlist, &[], &maps).expect("acyclic design");
        for cycle in 0..cycles {
            let env_ok = verification
                .environment
                .iter()
                .all(|e| !run.value(cycle, *e).is_zero());
            if !env_ok {
                break;
            }
            let monitor = run.value(cycle, verification.property.monitor);
            let hit = match verification.property.kind {
                PropertyKind::Always => monitor.is_zero(),
                PropertyKind::Eventually => !monitor.is_zero(),
            };
            if hit {
                let trace = Trace {
                    initial_state: Vec::new(),
                    inputs: frames[..=cycle].to_vec(),
                };
                return (true, Some(cycle), Some(trace));
            }
        }
    }
    (false, None, None)
}

/// Runs both campaigns under three seeds; returns how many seeds hit.
fn assert_same(name: &str, verification: &Verification, runs: usize, cycles: usize) -> usize {
    let mut hits = 0;
    for seed in [1, 7, 0xC0FFEE] {
        let stepped = random_simulation(verification, runs, cycles, seed);
        let expected = reference(verification, runs, cycles, seed);
        hits += usize::from(expected.0);
        assert_eq!(
            (stepped.target_hit, stepped.first_hit_cycle, stepped.trace),
            expected,
            "{name}, seed {seed}"
        );
        assert_eq!((stepped.runs, stepped.cycles_per_run), (runs, cycles));
    }
    hits
}

#[test]
fn circuits_suite_campaigns_match_the_whole_run_reference() {
    let mut hits = 0;
    for case in paper_suite(Scale::Small) {
        hits += assert_same(&case.property, &case.verification, 16, 64);
    }
    assert!(
        hits > 0,
        "some campaign must hit for the traces to be compared"
    );
}

/// A serve-style design: an enabled counter wrapping at `m` and an
/// accumulator that only ever adds even values, with nine properties
/// (holding, shallow and deep witnesses, violations).
fn serve_style(width: usize, m: u64, j: u64, v: u64) -> Vec<(&'static str, Verification)> {
    let hi = width - 1;
    let source = format!(
        "module gen(input clk, input en, input [{hi}:0] din, output ok_range, output ok_never,
                    output reach, output ok_bad, output deep, output acc_even, output acc_reach,
                    output acc_bad, output en_seen);
           reg [{hi}:0] cnt;
           reg [{hi}:0] acc;
           always @(posedge clk) begin
             if (en) begin
               if (cnt == {m}) cnt <= 0;
               else cnt <= cnt + 1;
             end
             acc <= acc + {{din[{lo}:0], 1'b0}};
           end
           assign ok_range = cnt <= {m};
           assign ok_never = cnt != {k};
           assign reach = cnt == {j};
           assign ok_bad = cnt != {j};
           assign deep = cnt == {d};
           assign acc_even = acc[0] == 0;
           assign acc_reach = acc == {a};
           assign acc_bad = acc != {a};
           assign en_seen = en;
         endmodule",
        lo = width - 2,
        k = m + 1,
        d = m - 1,
        a = 2 * v,
    );
    let netlist = wlac_frontend::compile(&source).expect("generated design compiles");
    let props = [
        ("ok_range", PropertyKind::Always),
        ("ok_never", PropertyKind::Always),
        ("reach", PropertyKind::Eventually),
        ("ok_bad", PropertyKind::Always),
        ("deep", PropertyKind::Eventually),
        ("acc_even", PropertyKind::Always),
        ("acc_reach", PropertyKind::Eventually),
        ("acc_bad", PropertyKind::Always),
        ("en_seen", PropertyKind::Eventually),
    ];
    props
        .iter()
        .map(|&(monitor, kind)| {
            let net = netlist
                .outputs()
                .iter()
                .find(|(name, _)| name == monitor)
                .map(|(_, net)| *net)
                .expect("monitor output");
            let property = Property {
                name: monitor.into(),
                kind,
                monitor: net,
            };
            (monitor, Verification::new(netlist.clone(), property))
        })
        .collect()
}

#[test]
fn serve_style_campaigns_match_the_whole_run_reference() {
    let mut hits = 0;
    for (width, m, j, v) in [(8, 200, 3, 5), (12, 1000, 1, 2), (16, 150, 5, 1)] {
        for (name, verification) in serve_style(width, m, j, v) {
            hits += assert_same(&format!("{width}-bit {name}"), &verification, 16, 64);
        }
    }
    assert!(
        hits > 0,
        "some campaign must hit for the traces to be compared"
    );
}

#[test]
fn runs_abandoned_by_the_environment_keep_later_runs_identical() {
    // A 4-bit counter; the environment requires `x != 0` every cycle (it
    // fails a quarter of the time), and the witness needs `x == 3` at cycle
    // 5 of a run the environment has not yet abandoned. Most runs stop
    // early, so every later run depends on the abandoned runs' draws.
    let mut nl = Netlist::new("env_abandon");
    let x = nl.input("x", 2);
    let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
    let one = nl.constant(&Bv::from_u64(4, 1));
    let next = nl.add(q, one);
    nl.connect_dff_data(ff, next);
    let zero = nl.constant(&Bv::zero(2));
    let env = nl.ne(x, zero);
    let five = nl.constant(&Bv::from_u64(4, 5));
    let three = nl.constant(&Bv::from_u64(2, 3));
    let at_five = nl.eq(q, five);
    let x_three = nl.eq(x, three);
    let target = nl.and2(at_five, x_three);
    let property = Property::eventually(&nl, "late_three", target);
    let verification = Verification::new(nl, property).with_environment(env);
    let hits = assert_same("env_abandon", &verification, 32, 8);
    assert!(
        hits > 0,
        "the design must be hittable for the check to bite"
    );
}

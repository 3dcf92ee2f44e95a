//! Soundness and effort of the datapath backjump.
//!
//! When the modular solver refutes an island, the search skips every
//! decision taken after the newest refinement of an island net: neither of
//! its branches can change the island's values. These tests pin the effort
//! that buys on guarded datapath objectives (a return to chronological
//! backtracking multiplies the solver calls by 2^guards and fails them),
//! and check the verdicts against exhaustive enumeration — including the
//! case where an island is refuted only under an earlier island's
//! speculative solution, which must not count as a proof.

use wlac_atpg::{
    AssertionChecker, CheckReport, CheckResult, CheckerOptions, Property, Verification,
};
use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};
use wlac_rng::Rng64;
use wlac_sim::Simulator;

/// One combinational frame, no induction: a pure justification search.
fn options() -> CheckerOptions {
    CheckerOptions {
        max_frames: 1,
        use_induction: false,
        ..CheckerOptions::default()
    }
}

/// `condition ∧ (p₀ ∨ q₀) ∧ … ∧ (pₖ₋₁ ∨ qₖ₋₁)` over `pairs` fresh control
/// inputs: an infeasible condition walks one datapath leaf per guard
/// combination under chronological backtracking.
fn guarded(nl: &mut Netlist, condition: NetId, pairs: usize) -> NetId {
    let mut objective = condition;
    for i in 0..pairs {
        let p = nl.input(format!("p{i}"), 1);
        let q = nl.input(format!("q{i}"), 1);
        let either = nl.or2(p, q);
        objective = nl.and2(objective, either);
    }
    objective
}

fn witness_check(mut nl: Netlist, objective: NetId) -> (Verification, CheckReport) {
    nl.mark_output("objective", objective);
    let property = Property::eventually(&nl, "objective", objective);
    let verification = Verification::new(nl, property);
    let report = AssertionChecker::new(options()).check(&verification);
    (verification, report)
}

/// `true` when some assignment of the primary inputs sets `objective`.
fn satisfiable_by_enumeration(nl: &Netlist, objective: NetId) -> bool {
    let inputs = nl.inputs().to_vec();
    let bits: usize = inputs.iter().map(|n| nl.net_width(*n)).sum();
    assert!(
        bits <= 20,
        "enumeration over {bits} input bits is too large"
    );
    let mut sim = Simulator::new(nl).expect("combinational design");
    (0u64..1 << bits).any(|word| {
        let mut shift = 0;
        let assignment: Vec<(NetId, Bv)> = inputs
            .iter()
            .map(|&net| {
                let width = nl.net_width(net);
                let value = (word >> shift) & ((1 << width) - 1);
                shift += width;
                (net, Bv::from_u64(width, value))
            })
            .collect();
        // One combinational step: the design has no flip-flops.
        sim.step(&assignment).expect("evaluate");
        !sim.net_value(objective).is_zero()
    })
}

/// Replays a witness on the design and checks that it sets the objective.
fn assert_valid_witness(verification: &Verification, report: &CheckReport) {
    let CheckResult::WitnessFound { trace } = &report.result else {
        panic!("expected a witness, got {:?}", report.result);
    };
    let monitor = verification.property.monitor;
    let replay = trace
        .replay_monitor(&verification.netlist, monitor)
        .expect("replay");
    assert_eq!(replay, vec![true], "the witness must set the objective");
}

/// A checker answer, for tallies.
#[derive(Debug, Clone, Copy)]
enum Answer {
    Found,
    Refuted,
    Unknown,
}

/// Checks the witness objective and compares a definitive answer with
/// exhaustive enumeration; `unknown` is allowed (it claims nothing).
fn check_against_enumeration(label: &str, nl: Netlist, objective: NetId) -> Answer {
    let expected = satisfiable_by_enumeration(&nl, objective);
    let (verification, report) = witness_check(nl, objective);
    match &report.result {
        CheckResult::WitnessFound { .. } => {
            assert!(expected, "{label}: spurious witness");
            assert_valid_witness(&verification, &report);
            Answer::Found
        }
        CheckResult::WitnessNotFound { .. } => {
            assert!(!expected, "{label}: missed witness");
            Answer::Refuted
        }
        CheckResult::Unknown { .. } => Answer::Unknown,
        other => panic!("{label}: unexpected {other:?}"),
    }
}

/// `mux(c, x+x, x+y) = 5` behind 8 guard pairs, with the select `c` in a
/// ninth pair `(c ∨ q)` so that the search decides it before the guards;
/// `doubled_first` swaps the mux arms. In one of the two builds the search
/// tries the infeasible `x + x = 5` arm first. That refutation depends on
/// `c` alone, so the search jumps straight back over the 8 guard decisions
/// to `c` instead of walking 2^8 guard combinations (257 solver calls).
fn mux_of_islands(doubled_first: bool) -> (Verification, CheckReport) {
    let mut nl = Netlist::new("mux_of_islands");
    let x = nl.input("x", 8);
    let y = nl.input("y", 8);
    let c = nl.input("c", 1);
    let doubled = nl.add(x, x);
    let summed = nl.add(x, y);
    let out = if doubled_first {
        nl.mux(c, doubled, summed)
    } else {
        nl.mux(c, summed, doubled)
    };
    let five = nl.constant(&Bv::from_u64(8, 5));
    let hit = nl.eq(out, five);
    let q = nl.input("q", 1);
    let select_pair = nl.or2(c, q);
    let condition = nl.and2(hit, select_pair);
    let objective = guarded(&mut nl, condition, 8);
    witness_check(nl, objective)
}

#[test]
fn refuted_mux_arm_backjumps_to_its_select() {
    let mut refutations = 0;
    for doubled_first in [true, false] {
        let (verification, report) = mux_of_islands(doubled_first);
        assert_valid_witness(&verification, &report);
        let stats = &report.stats;
        assert!(
            stats.arithmetic_calls <= 2,
            "doubled_first={doubled_first}: {} arith calls",
            stats.arithmetic_calls
        );
        // At most one pass over the 9 pairs per arm.
        assert!(
            stats.decisions <= 2 * 9,
            "doubled_first={doubled_first}: {} decisions",
            stats.decisions
        );
        refutations += stats.conflicts;
    }
    assert!(
        refutations >= 1,
        "one build must try the infeasible arm first"
    );
}

/// `2·(x₀ + x₁ − x₂) = 13`: even never equals odd.
fn doubling_parity(pairs: usize) -> (Netlist, NetId) {
    let mut nl = Netlist::new("doubling_parity");
    let x0 = nl.input("x0", 8);
    let x1 = nl.input("x1", 8);
    let x2 = nl.input("x2", 8);
    let partial = nl.add(x0, x1);
    let sum = nl.sub(partial, x2);
    let doubled = nl.add(sum, sum);
    let odd = nl.constant(&Bv::from_u64(8, 13));
    let hit = nl.eq(doubled, odd);
    let objective = guarded(&mut nl, hit, pairs);
    (nl, objective)
}

/// `(x + x)·y = 77`: an even factor never gives an odd product.
fn odd_product(pairs: usize) -> (Netlist, NetId) {
    let mut nl = Netlist::new("odd_product");
    let x = nl.input("x", 8);
    let y = nl.input("y", 8);
    let doubled = nl.add(x, x);
    let product = nl.mul(doubled, y);
    let odd = nl.constant(&Bv::from_u64(8, 77));
    let hit = nl.eq(product, odd);
    let objective = guarded(&mut nl, hit, pairs);
    (nl, objective)
}

#[test]
fn requirement_only_refutations_end_the_search_after_one_solver_call() {
    // The island's values come from the property alone, before any
    // decision, so one refutation covers all 2^10 guard combinations.
    for (name, (nl, objective)) in [
        ("doubling parity", doubling_parity(10)),
        ("odd product", odd_product(10)),
    ] {
        let (_, report) = witness_check(nl, objective);
        assert!(
            matches!(report.result, CheckResult::WitnessNotFound { .. }),
            "{name}: {:?}",
            report.result
        );
        assert_eq!(report.stats.arithmetic_calls, 1, "{name}");
        assert!(
            report.stats.decisions <= 11,
            "{name}: {} decisions",
            report.stats.decisions
        );
    }
}

/// Two islands: `s = a + b`, and `e = z + w`, `f = w + w`, where
/// `z = {u, a[1:0]}` takes its low bits from `a` (all 4 bits wide; only
/// slice and concat gates link the two). Together the second island's
/// equations fix `w[0] = f[1]` and so `a[0] = z[0] = e[0] ⊕ f[1]`, which
/// implication alone cannot see (`w + w` hides `w[0]` from a bit-wise view).
/// The first island is solved first and its free choice of `a` is merged
/// speculatively, so whether the second survives depends on that
/// speculative choice, not on any decision.
fn linked_islands(sum: u64, e: u64, f: u64) -> (Netlist, NetId) {
    let mut nl = Netlist::new("linked_islands");
    let a = nl.input("a", 4);
    let b = nl.input("b", 4);
    let u = nl.input("u", 2);
    let w = nl.input("w", 4);
    let s = nl.add(a, b);
    let a_low = nl.slice(a, 0, 2);
    let z = nl.concat(u, a_low);
    let e_net = nl.add(z, w);
    let f_net = nl.add(w, w);
    let mut hit = None;
    for (net, value) in [(s, sum), (e_net, e), (f_net, f)] {
        let constant = nl.constant(&Bv::from_u64(4, value));
        let eq = nl.eq(net, constant);
        hit = Some(match hit {
            None => eq,
            Some(h) => nl.and2(h, eq),
        });
    }
    let objective = guarded(&mut nl, hit.expect("three equations"), 1);
    (nl, objective)
}

#[test]
fn speculative_merge_refutations_match_enumeration() {
    for sum in [0, 1, 6] {
        for (e, f) in [(0, 2), (1, 2), (0, 4), (1, 4), (7, 6), (8, 3), (9, 10)] {
            let (nl, objective) = linked_islands(sum, e, f);
            check_against_enumeration(&format!("s={sum} e={e} f={f}"), nl, objective);
        }
    }
}

/// Random guarded datapath objectives over 4–6-bit words.
struct Campaign {
    rng: Rng64,
}

impl Campaign {
    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.rng.next_below(items.len() as u64) as usize]
    }

    fn constant(&mut self, nl: &mut Netlist, width: usize) -> NetId {
        let value = self.rng.next_below(1 << width);
        nl.constant(&Bv::from_u64(width, value))
    }

    /// A random arithmetic expression of the given depth over `leaves`, with
    /// control-selected muxes between sub-expressions.
    fn expression(
        &mut self,
        nl: &mut Netlist,
        leaves: &[NetId],
        controls: &[NetId],
        depth: usize,
    ) -> NetId {
        let width = nl.net_width(leaves[0]);
        if depth == 0 {
            return match self.rng.next_below(5) {
                0 => self.constant(nl, width),
                _ => self.pick(leaves),
            };
        }
        let a = self.expression(nl, leaves, controls, depth - 1);
        let b = self.expression(nl, leaves, controls, depth - 1);
        match self.rng.next_below(5) {
            0 => nl.add(a, b),
            1 => nl.sub(a, b),
            2 => nl.add(a, a),
            3 => nl.mul(a, b),
            _ => {
                let select = self.pick(controls);
                nl.mux(select, a, b)
            }
        }
    }

    /// One design: a comparison over one or two linked datapath widths,
    /// behind 1–2 guard pairs. Returns the netlist and its objective.
    fn design(&mut self) -> (Netlist, NetId) {
        let mut nl = Netlist::new("campaign");
        let width = self.rng.next_range(4, 6) as usize;
        let leaves = [nl.input("x", width), nl.input("y", width)];
        let controls = [nl.input("c0", 1), nl.input("c1", 1)];
        let depth = self.rng.next_range(1, 2) as usize;
        let lhs = self.expression(&mut nl, &leaves, &controls, depth);
        let rhs = match self.rng.next_below(3) {
            0 => self.expression(&mut nl, &leaves, &controls, 1),
            _ => self.constant(&mut nl, width),
        };
        let mut condition = match self.rng.next_below(4) {
            0 => nl.lt(lhs, rhs),
            1 => nl.ne(lhs, rhs),
            _ => nl.eq(lhs, rhs),
        };
        if self.rng.next_bool() {
            // A second, wider island linked to the first through `x`.
            let wide = nl.zext(leaves[0], width + 2);
            let doubled = nl.add(wide, wide);
            let target = self.constant(&mut nl, width + 2);
            let wide_hit = nl.eq(doubled, target);
            condition = nl.and2(condition, wide_hit);
        }
        // Keeps the enumeration within 16 input bits.
        let pairs = if width == 6 {
            1
        } else {
            self.rng.next_range(1, 2) as usize
        };
        let objective = guarded(&mut nl, condition, pairs);
        (nl, objective)
    }
}

#[test]
fn seeded_campaign_matches_exhaustive_enumeration() {
    let mut campaign = Campaign {
        rng: Rng64::seed_from_u64(0x0bac_c5ee_d0f5_eed5),
    };
    let mut answers = [0; 3];
    for case in 0..150 {
        let (nl, objective) = campaign.design();
        answers[check_against_enumeration(&format!("case {case}"), nl, objective) as usize] += 1;
    }
    // The campaign must exercise both definitive answers.
    let [found, refuted, unknown] = answers;
    assert!(
        found > 0 && refuted > 0,
        "found {found} refuted {refuted} unknown {unknown}"
    );
}

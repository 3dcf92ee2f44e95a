//! `modular-datapath`: generated word-level datapath designs whose answers
//! follow from elementary number theory mod 2^w, checked by the ATPG alone.
//!
//! Four families, each behind OR-pair control guards (every pair needs one
//! of its two control inputs set, so an infeasible check walks one datapath
//! leaf per guard combination):
//!
//! * [`Family::Doubling`] — `2·(±x₁ ± … ± xₖ) = c` with `c` odd: never, since
//!   the left side is even;
//! * [`Family::Linear`] — `Σ aᵢ·xᵢ = c` with constant multipliers: a witness
//!   exists exactly when `2^t` divides `c`, `t = min tz(aᵢ)`, because the
//!   reachable sums are the multiples of `gcd(a₁, …, aₖ, 2^w) = 2^t`;
//! * [`Family::OddProduct`] — `(x + x)·y = c` with `c` odd: never;
//! * [`Family::Wrap`] — `a + b < a` (unsigned wraparound): a witness exists
//!   exactly when `b` may be nonzero.
//!
//! A witness is checked with this module's own `u128` arithmetic on the
//! trace's input values ([`Case::holds`]), never with the simulator; a
//! "no witness" verdict is checked against the claim the case was built
//! from.

use crate::atpg::{run_workload, Job, Judgement, Plan};
use crate::report::Outcome;
use crate::rng::{mask, Rng};
use crate::RunConfig;
use std::collections::HashMap;
use std::time::Duration;
use wlac_atpg::{CheckReport, CheckResult, CheckerOptions, Property, Trace, Verification};
use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};

/// Per-check deadline, set both as `time_limit` and as a `CancelToken`.
/// The slowest decided check of a pass takes about 16 ms, twenty times
/// less. The wide constant-multiplier witness checks never return on their
/// own: the modular solver does not poll `time_limit`, and only the token
/// stops them.
pub const DEADLINE: Duration = Duration::from_millis(300);

/// Set-up is repeated 9 times before the passes and once after each; each
/// check runs once a pass (a pass holds 1000 of them, and each job's time
/// is its fastest over the passes).
const PLAN: Plan = Plan {
    setups: 9,
    repeat_for: Duration::ZERO,
};

/// A case family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `2·(±x₁ ± … ± xₖ) = c`, `c` odd.
    Doubling,
    /// `Σ aᵢ·xᵢ = c`, constant `aᵢ`.
    Linear,
    /// `(x + x)·y = c`, `c` odd.
    OddProduct,
    /// `a + b < a`, optionally with `b = 0` forced.
    Wrap,
}

impl Family {
    /// Every family.
    pub const ALL: [Family; 4] = [
        Family::Doubling,
        Family::Linear,
        Family::OddProduct,
        Family::Wrap,
    ];

    fn tag(self) -> &'static str {
        match self {
            Family::Doubling => "doubling",
            Family::Linear => "linear",
            Family::OddProduct => "odd-product",
            Family::Wrap => "wrap",
        }
    }
}

/// The datapath condition of a case, with the nets the oracle reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// `2·Σ (±xᵢ) = target`; `true` marks a subtracted term.
    Doubling {
        /// Terms and their signs.
        terms: Vec<(NetId, bool)>,
        /// Right-hand side.
        target: u128,
    },
    /// `Σ aᵢ·xᵢ = target`.
    Linear {
        /// Inputs and their constant multipliers.
        terms: Vec<(NetId, u128)>,
        /// Right-hand side.
        target: u128,
    },
    /// `(x + x)·y = target`.
    OddProduct {
        /// First factor's input (doubled in the design).
        x: NetId,
        /// Second factor.
        y: NetId,
        /// Right-hand side.
        target: u128,
    },
    /// `a + b < a`, with `b = 0` forced when `b_zero`.
    Wrap {
        /// First addend.
        a: NetId,
        /// Second addend.
        b: NetId,
        /// Whether `b = 0` is part of the condition.
        b_zero: bool,
    },
}

/// One generated case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Family.
    pub family: Family,
    /// Datapath width in bits.
    pub width: usize,
    /// The OR-pair control guards.
    pub guards: Vec<(NetId, NetId)>,
    /// The datapath condition.
    pub shape: Shape,
    /// The answer the case was built to have: does a witness exist?
    pub witness_exists: bool,
    /// Design and witness objective (`Eventually(guards ∧ condition)`).
    pub verification: Verification,
}

impl Case {
    /// Name used in notes.
    pub fn name(&self) -> String {
        format!(
            "{}-w{}-g{}",
            self.family.tag(),
            self.width,
            self.guards.len()
        )
    }

    /// Evaluates the objective on concrete input values (`value` returns the
    /// value of an input net), in `u128` arithmetic mod 2^w.
    pub fn holds(&self, value: &dyn Fn(NetId) -> u128) -> bool {
        let m = mask(self.width);
        let guards = self
            .guards
            .iter()
            .all(|&(p, q)| value(p) & 1 == 1 || value(q) & 1 == 1);
        let condition = match &self.shape {
            Shape::Doubling { terms, target } => {
                let sum = terms.iter().fold(0u128, |acc, &(x, negated)| {
                    if negated {
                        acc.wrapping_sub(value(x)) & m
                    } else {
                        (acc + value(x)) & m
                    }
                });
                (sum + sum) & m == *target
            }
            Shape::Linear { terms, target } => {
                let sum = terms
                    .iter()
                    .fold(0u128, |acc, &(x, a)| (acc + ((a * value(x)) & m)) & m);
                sum == *target
            }
            Shape::OddProduct { x, y, target } => {
                let doubled = (value(*x) + value(*x)) & m;
                (doubled * value(*y)) & m == *target
            }
            Shape::Wrap { a, b, b_zero } => {
                let (a, b) = (value(*a), value(*b));
                ((a + b) & m) < a && (!b_zero || b == 0)
            }
        };
        guards && condition
    }

    /// The datapath inputs (guards excluded), for enumeration.
    pub fn data_inputs(&self) -> Vec<NetId> {
        match &self.shape {
            Shape::Doubling { terms, .. } => terms.iter().map(|t| t.0).collect(),
            Shape::Linear { terms, .. } => terms.iter().map(|t| t.0).collect(),
            Shape::OddProduct { x, y, .. } => vec![*x, *y],
            Shape::Wrap { a, b, .. } => vec![*a, *b],
        }
    }

    /// Checks a witness trace with [`Case::holds`] on its cycle-0 inputs.
    pub fn check_witness(&self, trace: &Trace) -> Result<(), String> {
        let mut values: HashMap<NetId, u128> = HashMap::new();
        for net in self
            .data_inputs()
            .into_iter()
            .chain(self.guards.iter().flat_map(|&(p, q)| [p, q]))
        {
            let bv = trace
                .input_value(0, net)
                .ok_or_else(|| format!("trace gives no value for input {net:?}"))?;
            values.insert(net, bv_value(bv));
        }
        if self.holds(&|net| values[&net]) {
            Ok(())
        } else {
            Err(format!("objective false on the trace's inputs {values:?}"))
        }
    }

    /// Judges a report against the oracle.
    pub fn judge(&self, report: &CheckReport) -> Judgement {
        match (&report.result, self.witness_exists) {
            (CheckResult::WitnessFound { trace }, true) => match self.check_witness(trace) {
                Ok(()) => Judgement::Expected,
                Err(why) => Judgement::Wrong(format!("bad witness: {why}")),
            },
            (CheckResult::WitnessFound { .. }, false) => {
                Judgement::Wrong("witness for an objective that has none".into())
            }
            (CheckResult::WitnessNotFound { .. }, false) => Judgement::Expected,
            (CheckResult::WitnessNotFound { .. }, true) => {
                Judgement::Wrong("no witness for an objective that has one".into())
            }
            (CheckResult::Unknown { reason }, _) => Judgement::Failed(format!("unknown: {reason}")),
            (result, _) => Judgement::Wrong(format!("unexpected verdict {result:?}")),
        }
    }
}

/// The value of a bit-vector of at most 64 bits.
fn bv_value(bv: &Bv) -> u128 {
    bv.to_u64().expect("datapath inputs are at most 64 bits") as u128
}

/// Generates one case of `family` at `width` bits with `guards` OR pairs.
/// `feasible` picks the variant for the families that have both (`Linear`,
/// `Wrap`); the other two never have a witness.
pub fn generate(
    family: Family,
    width: usize,
    guards: usize,
    feasible: bool,
    rng: &mut Rng,
) -> Case {
    let m = mask(width);
    let mut nl = Netlist::new(format!("{}_{width}", family.tag()));
    let constant = |nl: &mut Netlist, v: u128| nl.constant(&Bv::from_u64(width, v as u64));
    let (shape, condition, witness_exists) = match family {
        Family::Doubling => {
            let k = rng.range(3, 6) as usize;
            let terms: Vec<(NetId, bool)> = (0..k)
                .map(|i| (nl.input(format!("x{i}"), width), i > 0 && rng.below(2) == 1))
                .collect();
            let mut sum = terms[0].0;
            for &(x, negated) in &terms[1..] {
                sum = if negated {
                    nl.sub(sum, x)
                } else {
                    nl.add(sum, x)
                };
            }
            let doubled = nl.add(sum, sum);
            let target = rng.bits(width) | 1;
            let t = constant(&mut nl, target);
            let hit = nl.eq(doubled, t);
            (Shape::Doubling { terms, target }, hit, false)
        }
        Family::Linear => {
            let k = 3;
            // Every multiplier keeps at least one trailing zero in the
            // infeasible variant, so that a target with fewer exists.
            let min_tz = u64::from(!feasible);
            let max_tz = (width as u64 - 1).min(4);
            let terms: Vec<(NetId, u128)> = (0..k)
                .map(|i| {
                    let tz = rng.range(min_tz, max_tz);
                    let a = ((rng.bits(width) | 1) << tz) & m;
                    (nl.input(format!("x{i}"), width), a)
                })
                .collect();
            let t = terms
                .iter()
                .map(|&(_, a)| a.trailing_zeros())
                .min()
                .expect("terms");
            let target = if feasible {
                (rng.bits(width) << t) & m
            } else {
                let below = rng.below(u64::from(t)) as u32;
                ((rng.bits(width) | 1) << below) & m
            };
            let mut sum = None;
            for &(x, a) in &terms {
                let coefficient = constant(&mut nl, a);
                let product = nl.mul(x, coefficient);
                sum = Some(match sum {
                    None => product,
                    Some(s) => nl.add(s, product),
                });
            }
            let rhs = constant(&mut nl, target);
            let hit = nl.eq(sum.expect("terms"), rhs);
            (Shape::Linear { terms, target }, hit, feasible)
        }
        Family::OddProduct => {
            let x = nl.input("x", width);
            let y = nl.input("y", width);
            let doubled = nl.add(x, x);
            let product = nl.mul(doubled, y);
            let target = rng.bits(width) | 1;
            let rhs = constant(&mut nl, target);
            let hit = nl.eq(product, rhs);
            (Shape::OddProduct { x, y, target }, hit, false)
        }
        Family::Wrap => {
            let a = nl.input("a", width);
            let b = nl.input("b", width);
            let sum = nl.add(a, b);
            let wraps = nl.lt(sum, a);
            let hit = if feasible {
                wraps
            } else {
                let zero = constant(&mut nl, 0);
                let b_zero = nl.eq(b, zero);
                nl.and2(wraps, b_zero)
            };
            (
                Shape::Wrap {
                    a,
                    b,
                    b_zero: !feasible,
                },
                hit,
                feasible,
            )
        }
    };
    let pairs: Vec<(NetId, NetId)> = (0..guards)
        .map(|i| {
            (
                nl.input(format!("c{}", 2 * i), 1),
                nl.input(format!("c{}", 2 * i + 1), 1),
            )
        })
        .collect();
    let mut objective = condition;
    for &(p, q) in &pairs {
        let either = nl.or2(p, q);
        objective = nl.and2(objective, either);
    }
    nl.mark_output("objective", objective);
    let property = Property::eventually(&nl, format!("{}_w{width}", family.tag()), objective);
    Case {
        family,
        width,
        guards: pairs,
        shape,
        witness_exists,
        verification: Verification::new(nl, property),
    }
}

/// Decides by enumerating every datapath input value whether the objective
/// has a witness (guards set). Only for small widths.
pub fn witness_by_enumeration(case: &Case) -> bool {
    let inputs = case.data_inputs();
    let bits = case.width * inputs.len();
    assert!(bits <= 24, "enumeration of {bits} bits is too large");
    let m = mask(case.width);
    (0u128..(1u128 << bits)).any(|code| {
        let value = |net: NetId| {
            if case.guards.iter().any(|&(p, q)| p == net || q == net) {
                return 1;
            }
            let slot = inputs.iter().position(|&n| n == net).expect("data input");
            (code >> (slot * case.width)) & m
        };
        case.holds(&value)
    })
}

/// One slot of a pass: which family, the width range and guard count, and
/// whether the variant has a witness.
#[derive(Debug, Clone, Copy)]
struct Slot {
    family: Family,
    widths: &'static [usize],
    guards: usize,
    feasible: bool,
    count: usize,
}

const NARROW: &[usize] = &[8];
const WIDE: &[usize] = &[24, 32, 40, 48, 56, 64];
const ANY: &[usize] = &[8, 12, 16, 24, 32, 40, 48, 56, 64];

/// The fixed composition of one pass: 1000 cases. The seed draws
/// constants, signs, which case gets which width, and the order; never how
/// many cases of each kind and width a pass holds, so the effort of a pass
/// varies little from seed to seed. The counts put the median check in the
/// 8-guard doubling and odd-product cases, p90 in the 10-guard doubling
/// cases and p99 in the 12-guard ones, each group a few hundred or tens of
/// cases wide.
///
/// Constant-multiplier witnesses are drawn at 8 bits, where they take well
/// under 2 ms, and at 24–64 bits, where the modular solver never returns
/// and the deadline cancels the check. The 12–16-bit window between them is
/// left out: there a check takes anywhere from 1 ms to past any deadline,
/// which would make the pass time a draw of the seed.
const PASS: &[Slot] = &[
    Slot {
        family: Family::Linear,
        widths: NARROW,
        guards: 6,
        feasible: false,
        count: 100,
    },
    Slot {
        family: Family::Wrap,
        widths: ANY,
        guards: 6,
        feasible: true,
        count: 99,
    },
    Slot {
        family: Family::Linear,
        widths: NARROW,
        guards: 6,
        feasible: true,
        count: 98,
    },
    Slot {
        family: Family::Doubling,
        widths: ANY,
        guards: 8,
        feasible: false,
        count: 252,
    },
    Slot {
        family: Family::OddProduct,
        widths: ANY,
        guards: 8,
        feasible: false,
        count: 198,
    },
    Slot {
        family: Family::OddProduct,
        widths: ANY,
        guards: 10,
        feasible: false,
        count: 81,
    },
    Slot {
        family: Family::Doubling,
        widths: ANY,
        guards: 10,
        feasible: false,
        count: 144,
    },
    Slot {
        family: Family::Doubling,
        widths: ANY,
        guards: 12,
        feasible: false,
        count: 27,
    },
    Slot {
        family: Family::Linear,
        widths: WIDE,
        guards: 2,
        feasible: true,
        count: 1,
    },
];

/// Generates the cases of one pass for `seed`, in a seeded order. Each slot
/// deals its widths round-robin from a seeded start, so every pass holds the
/// same number of cases of each width.
pub fn generate_pass(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed, 0xDA7A_9A7E);
    let mut cases = Vec::new();
    for slot in PASS {
        let start = rng.below(slot.widths.len() as u64) as usize;
        for k in 0..slot.count {
            let width = slot.widths[(start + k) % slot.widths.len()];
            cases.push(generate(
                slot.family,
                width,
                slot.guards,
                slot.feasible,
                &mut rng,
            ));
        }
    }
    rng.shuffle(&mut cases);
    cases
}

/// Checker options: one combinational frame, no induction.
pub fn options() -> CheckerOptions {
    CheckerOptions {
        max_frames: 1,
        use_induction: false,
        ..CheckerOptions::default()
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    run_workload(cfg, &PLAN, || setup(cfg.seed))
}

/// Builds the jobs of one pass.
pub fn setup(seed: u64) -> (Vec<Job>, Vec<usize>) {
    let jobs: Vec<Job> = generate_pass(seed)
        .into_iter()
        .map(|case| Job {
            name: case.name(),
            verification: case.verification.clone(),
            options: options(),
            deadline: DEADLINE,
            oracle: Box::new(move |report| case.judge(report)),
        })
        .collect();
    let order = (0..jobs.len()).collect();
    (jobs, order)
}

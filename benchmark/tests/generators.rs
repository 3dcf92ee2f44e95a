//! Tests of the benchmark's generators and oracles.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use wlac_atpg::{AssertionChecker, CheckResult, CheckerOptions, Property, Trace, Verification};
use wlac_benchmark::atpg::Judgement;
use wlac_benchmark::metrics::{END_TO_END, PER_LAYER};
use wlac_benchmark::modular::{self, generate, witness_by_enumeration, Family};
use wlac_benchmark::rng::Rng;
use wlac_benchmark::serve::{self, Expect};
use wlac_bv::Bv;
use wlac_server::Json;

#[test]
fn modular_generator_is_deterministic_for_a_seed() {
    let render = |seed| {
        modular::generate_pass(seed)
            .iter()
            .map(|c| format!("{} {:?} {}", c.name(), c.shape, c.witness_exists))
            .collect::<Vec<_>>()
    };
    assert_eq!(render(7), render(7));
    assert_ne!(render(7), render(8));
}

#[test]
fn serve_generator_is_deterministic_for_a_seed() {
    let render = |seed| {
        serve::generate_pool(seed, 20)
            .iter()
            .map(|d| d.source.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(render(3), render(3));
    assert_ne!(render(3), render(4));
}

#[test]
fn table2_order_is_deterministic_for_a_seed() {
    let order = |seed| wlac_benchmark::table2::setup(seed).1;
    assert_eq!(order(5), order(5));
    let mut sorted = order(5);
    sorted.sort_unstable();
    assert_eq!(sorted, (0..14).collect::<Vec<_>>());
}

#[test]
fn every_family_claim_holds_by_exhaustive_enumeration() {
    let mut rng = Rng::new(11, 0);
    for width in 4..=6 {
        for family in Family::ALL {
            for feasible in [true, false] {
                // Four cases each, among those small enough to enumerate
                // (at most 24 input bits).
                let mut checked = 0;
                while checked < 4 {
                    let case = generate(family, width, 2, feasible, &mut rng);
                    if case.data_inputs().len() * width > 24 {
                        continue;
                    }
                    assert_eq!(
                        witness_by_enumeration(&case),
                        case.witness_exists,
                        "{} {:?}",
                        case.name(),
                        case.shape
                    );
                    checked += 1;
                }
            }
        }
    }
}

/// Checks a small case with the ATPG and returns its witness trace.
fn witness_trace(case: &modular::Case) -> Trace {
    let report = AssertionChecker::new(modular::options()).check(&case.verification);
    assert_eq!(
        case.judge(&report),
        Judgement::Expected,
        "{:?}",
        report.result
    );
    match report.result {
        CheckResult::WitnessFound { trace } => trace,
        other => panic!("expected a witness, got {other:?}"),
    }
}

#[test]
fn oracle_accepts_witnesses_and_rejects_tampered_traces() {
    let mut rng = Rng::new(5, 1);
    for family in [Family::Linear, Family::Wrap] {
        let case = generate(family, 8, 2, true, &mut rng);
        let mut trace = witness_trace(&case);
        assert_eq!(case.check_witness(&trace), Ok(()));
        // Tamper with the datapath input whose change the objective sees:
        // bit 0 of the input with the smallest multiplier's trailing zeros
        // (any input of `a + b < a` moves the comparison at its extremes).
        let target = case.data_inputs()[match &case.shape {
            modular::Shape::Linear { terms, .. } => terms
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.1.trailing_zeros())
                .map(|(i, _)| i)
                .expect("terms"),
            _ => 1,
        }];
        let tampered = trace.inputs[0]
            .iter_mut()
            .find(|(net, _)| *net == target)
            .expect("input in trace");
        let value = tampered.1.to_u64().expect("narrow");
        let flipped = match case.shape {
            modular::Shape::Wrap { .. } => 0, // b = 0 never wraps
            _ => value ^ 1,
        };
        tampered.1 = Bv::from_u64(tampered.1.width(), flipped);
        assert!(
            case.check_witness(&trace).is_err(),
            "{} accepted a tampered trace",
            case.name()
        );
    }
}

#[test]
fn oracle_flags_a_witness_for_an_infeasible_case() {
    let mut rng = Rng::new(9, 2);
    let feasible = generate(Family::Linear, 8, 1, true, &mut rng);
    let trace = witness_trace(&feasible);
    let infeasible = modular::Case {
        witness_exists: false,
        ..feasible
    };
    let report = wlac_atpg::CheckReport {
        property: "p".into(),
        result: CheckResult::WitnessFound { trace },
        stats: Default::default(),
    };
    assert!(matches!(infeasible.judge(&report), Judgement::Wrong(_)));
}

#[test]
fn serve_judge_separates_failures_from_contradictions() {
    let verdict = |text: &str| Json::parse(text).expect("json");
    let no_witness = verdict(r#"{"label":"no witness","frames":8}"#);
    assert!(matches!(
        serve::judge(Expect::DeepWitness(120), &no_witness),
        Judgement::Failed(_)
    ));
    assert!(matches!(
        serve::judge(Expect::Witness(3), &no_witness),
        Judgement::Wrong(_)
    ));
    let holds = verdict(r#"{"label":"holds(bound)","proved":false,"frames":8}"#);
    assert_eq!(serve::judge(Expect::Holds, &holds), Judgement::Expected);
    assert!(matches!(
        serve::judge(Expect::Violated(2), &holds),
        Judgement::Wrong(_)
    ));
    let violated = verdict(r#"{"label":"violated","trace_cycles":2}"#);
    assert!(matches!(
        serve::judge(Expect::Holds, &violated),
        Judgement::Wrong(_)
    ));
    let unknown = verdict(r#"{"label":"unknown","reason":"x"}"#);
    assert!(matches!(
        serve::judge(Expect::Holds, &unknown),
        Judgement::Failed(_)
    ));
}

#[test]
fn serve_designs_compile_and_answer_as_constructed() {
    for design in serve::generate_pool(21, 2) {
        let netlist = wlac_frontend::compile(&design.source).expect("generated source compiles");
        for prop in &design.props {
            let monitor = netlist.find_net(prop.monitor).expect("monitor port");
            let property = match prop.kind {
                "always" => Property::always(&netlist, prop.monitor, monitor),
                _ => Property::eventually(&netlist, prop.monitor, monitor),
            };
            let options = CheckerOptions {
                max_frames: 8,
                ..CheckerOptions::default()
            };
            let report =
                AssertionChecker::new(options).check(&Verification::new(netlist.clone(), property));
            let ok = match (prop.expect, &report.result) {
                (Expect::Holds, result) => result.is_pass(),
                (Expect::Violated(depth), CheckResult::CounterExample { trace })
                | (Expect::Witness(depth), CheckResult::WitnessFound { trace }) => {
                    trace.len() <= depth
                }
                (Expect::DeepWitness(_), CheckResult::WitnessNotFound { frames }) => *frames == 8,
                _ => false,
            };
            assert!(
                ok,
                "{}: {:?} gave {:?}",
                prop.monitor, prop.expect, report.result
            );
        }
    }
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("valid JSON");
    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String, String)> = json
            .get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let reported: Vec<(String, String, String)> = specs
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string(), s.better.to_string()))
            .collect();
        assert_eq!(declared, reported, "{key}");
    }
}

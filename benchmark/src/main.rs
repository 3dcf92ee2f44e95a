//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <table2-paper|modular-datapath|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the metrics as a table (name, value, unit, better direction),
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when any verdict contradicts its oracle
//! and 2 on a usage error.

use std::process::ExitCode;
use std::time::Duration;
use wlac_benchmark::metrics::{END_TO_END, PER_LAYER};
use wlac_benchmark::{modular, serve, table2, RunConfig};

const USAGE: &str =
    "usage: wlac-benchmark --workload <table2-paper|modular-datapath|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("wlac-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cfg.workload.as_str() {
        "table2-paper" => table2::run(&cfg),
        "modular-datapath" => modular::run(&cfg),
        "serve-mixed" => serve::run(&cfg),
        other => {
            eprintln!("wlac-benchmark: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let declared = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let mut expected: Vec<&str> = declared.iter().map(|s| s.name).collect();
    reported.sort_unstable();
    expected.sort_unstable();
    assert_eq!(
        reported, expected,
        "the run must report exactly the declared metrics"
    );
    println!(
        "== {} seed {} ({} run, {:.0} s budget) ==",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        cfg.seconds.as_secs_f64()
    );
    for line in &outcome.notes {
        println!("{line}");
    }
    print!("{}", outcome.table());
    println!(
        "attempted {}, failed {}, verdicts {}",
        outcome.attempted,
        outcome.failed,
        if outcome.correct {
            "all consistent with their oracles"
        } else {
            "CONTRADICT their oracles"
        }
    );
    println!("{}", outcome.json_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

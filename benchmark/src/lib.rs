//! # wlac-benchmark — the repository benchmark
//!
//! One command, three seeded workloads, each driving WLAC only through its
//! public API:
//!
//! * `table2-paper` — the paper's fourteen Table 2 properties at
//!   `Scale::Paper`, checked one at a time by the word-level ATPG
//!   ([`table2`]);
//! * `modular-datapath` — generated word-level datapath designs with known
//!   answers, checked by the ATPG so that the time goes into the datapath
//!   leaf and the modular solver ([`modular`]);
//! * `serve-mixed` — an in-process `wlac-server` on loopback driven by a
//!   closed loop of clients uploading generated Verilog designs and
//!   resubmitting earlier ones ([`serve`]).
//!
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` runs one workload and
//! prints, as its last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! `benchmark/METRICS.md` defines every metric.

#![forbid(unsafe_code)]

pub mod atpg;
pub mod metrics;
pub mod modular;
pub mod report;
pub mod rng;
pub mod serve;
mod spans;
pub mod table2;

use std::time::Duration;

/// Settings of one benchmark run, parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input is derived from.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

//! # wlac-telemetry — the observability core of the workspace
//!
//! Every layer of the checker — the word-level ATPG decision loop, the
//! engine portfolio, the verification service and the network server —
//! reports into the three primitives defined here:
//!
//! * [`MetricsRegistry`] — a name-keyed registry of atomic [`Counter`]s,
//!   [`Gauge`]s and log-bucketed latency [`Histogram`]s. Handles are
//!   registered once (allocating) and recorded through forever after with
//!   plain relaxed atomics: the hot path takes no locks and performs no heap
//!   allocation, so the zero-alloc steady-state guarantee of the core search
//!   (`crates/core/tests/alloc_free.rs`) survives instrumentation. The
//!   registry renders itself as Prometheus-style text and as a flat JSON
//!   object; `perf_json` and the server's `metrics` op share that code, so
//!   BENCH numbers and live telemetry cannot diverge in format.
//! * [`FlightRecorder`] — the one event path: a lock-free, alloc-free ring
//!   of compact structured events (layer, kind, job id, monotonic nanos, two
//!   payload words) every layer emits into via a shared [`RecorderHandle`],
//!   so the last N events of system behavior are always reconstructable for
//!   a post-mortem dump or a remote `events` tail. A traced check records
//!   its per-decision events into a private one.
//! * [`ProgressCell`] — a per-engine seqlock cell the core search publishes
//!   live effort counters into through a [`ProgressHandle`]; observers
//!   snapshot it at any moment (the `progress`/`subscribe` ops) without
//!   locks, allocations or any effect on the search.
//!
//! The crate is std-only and dependency-free by design: it sits below every
//! other crate in the workspace and must never pull the build online.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use wlac_telemetry::{
//!     FlightRecorder, MetricsRegistry, RecorderHandle, RecorderKind, RecorderLayer,
//! };
//!
//! let registry = MetricsRegistry::new();
//! let decisions = registry.counter("core_decisions_total");
//! let latency = registry.histogram("request_wall_ns");
//! decisions.inc();
//! latency.record(1_500);
//! assert!(registry.render_prometheus().contains("core_decisions_total 1"));
//!
//! let recorder = Arc::new(FlightRecorder::new(64));
//! let handle = RecorderHandle::to(Arc::clone(&recorder)).with_job(3);
//! handle.record(RecorderLayer::Core, RecorderKind::Start, 1, 0);
//! handle.record(RecorderLayer::Core, RecorderKind::Decision, 7, 1);
//! handle.record(RecorderLayer::Core, RecorderKind::End, 1, 0);
//! let events = recorder.snapshot();
//! assert_eq!(events.len(), 3);
//! assert_eq!(events[1].kind.as_str(), "decision");
//! assert!(events.iter().all(|e| e.job == 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod progress;
mod recorder;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsRegistry};
pub use progress::{ProgressCell, ProgressHandle, ProgressProbe};
pub use recorder::{FlightEvent, FlightRecorder, RecorderHandle, RecorderKind, RecorderLayer};

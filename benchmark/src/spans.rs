//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Only the traced run records spans. They are kept in memory and written
//! out as JSON lines when the run ends, one file per workload and seed under
//! `benchmark/out/`. Spans of one job share its id.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    /// The job the span belongs to.
    pub job: u64,
    /// Span name, `<layer>.<step>`.
    pub name: &'static str,
    /// The enclosing span's name, if any.
    pub parent: Option<&'static str>,
    /// Start, in nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's origin.
    pub end_ns: u64,
}

/// An in-memory span log; a disabled log records nothing.
#[derive(Debug)]
pub(crate) struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// A log that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records the span `name` of `job` from `start` to `end`.
    pub fn record(
        &self,
        job: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            job,
            name,
            parent,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Writes every span as one JSON line to
    /// `benchmark/out/spans-<workload>-<seed>.jsonl`; returns the path, or
    /// `None` when the log is disabled.
    pub fn write_out(&self, workload: &str, seed: u64) -> std::io::Result<Option<PathBuf>> {
        if !self.enabled {
            return Ok(None);
        }
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
        let mut text = String::new();
        for span in self.spans.lock().expect("span log poisoned").iter() {
            let parent = span
                .parent
                .map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                text,
                "{{\"job\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.job, span.name, span.start_ns, span.end_ns
            );
        }
        std::fs::write(&path, text)?;
        Ok(Some(path))
    }
}

/// The benchmark's scratch directory, `benchmark/out/` in the checkout.
pub(crate) fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

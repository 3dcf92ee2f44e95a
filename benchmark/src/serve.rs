//! `serve-mixed`: an in-process `wlac-server` on loopback, with a data
//! directory and the default (journal) durability, driven by a closed loop
//! of client threads, one connection each.
//!
//! Each iteration uploads a generated Verilog module with `register_design`,
//! submits its nine properties as one `submit_batch` and reads the batch's
//! `subscribe` stream until `batch_done`. Half of the iterations, at seeded
//! positions, resubmit a design that an earlier iteration completed: those
//! are verdict-cache reads, beside the new designs that race the portfolio
//! and append to the journal. After the measured phase the server is shut
//! down and booted again on the same data directory, and a sample of earlier
//! designs is resubmitted: every job must come back `from_cache` with a
//! verdict identical to the one first served.
//!
//! Only the ops `register_design`, `submit_batch`, `subscribe`, `metrics`,
//! `ping` and `shutdown` are used.

use crate::atpg::Judgement;
use crate::metrics::PER_LAYER;
use crate::report::{median, ms, peak_rss_mb, quantile, sample_note, Outcome};
use crate::rng::Rng;
use crate::spans::{out_dir, SpanLog};
use crate::RunConfig;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wlac_server::{Json, Server, ServerConfig};

/// Client threads, each with one connection (a closed loop: a client sends
/// its next request only after the previous reply).
pub const CLIENTS: usize = 2;
/// Designs generated per run. A 50 s run registers about 2800 new designs
/// on a 2-core host. Once a run has used them all, every iteration
/// resubmits and the mix is all cache hits, so the pool is sized for a
/// host or a server several times faster than that.
const POOL: usize = 16384;
/// `peak_rss_mb` is read when this many new designs have completed: a point
/// every run reaches, with the same designs registered at any speed. At the
/// end of the run the peak would grow with the designs a faster server
/// registers in the same time.
const RSS_MARK: usize = 1024;
/// Iterations per timed block: 1152 jobs, so that a block's p99 rests on
/// eleven samples beyond it.
const BLOCK: usize = 128;
/// Resubmissions pick among this many most recently completed designs:
/// 2304 verdicts, a working set inside the default 4096-entry verdict
/// cache, so that a resubmission is a cache read rather than a new race.
const RECENT: usize = 256;
/// Designs resubmitted after the restart (the most recent ones).
const RESTART_SAMPLE: usize = 16;
/// How many times set-up is repeated, before and again after the measured
/// phase (the median of both is reported).
const SETUPS: usize = 9;
/// Tick of the `subscribe` stream.
const SUBSCRIBE_INTERVAL_MS: u64 = 50;

/// The answer a property has by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The assertion holds in every reachable state.
    Holds,
    /// A counter-example exists at this depth (within the engines' bound).
    Violated(usize),
    /// A witness exists at this depth (within the engines' bound).
    Witness(usize),
    /// A witness exists only at this depth, beyond every engine's reach
    /// (bounded search: 8 frames; random simulation: 64 cycles). The stack
    /// answers "no witness" within its bound: the serving analogue of
    /// Table 2's p4, counted as failed.
    DeepWitness(usize),
}

/// One property of a generated design.
#[derive(Debug, Clone)]
pub struct Prop {
    /// Output port the property monitors.
    pub monitor: &'static str,
    /// `always` or `eventually`.
    pub kind: &'static str,
    /// Its answer by construction.
    pub expect: Expect,
}

/// A generated design: Verilog source and its properties.
#[derive(Debug, Clone)]
pub struct Design {
    /// Verilog-subset source.
    pub source: String,
    /// Properties, in submission order.
    pub props: Vec<Prop>,
}

/// Generates design `id`: an enabled counter that wraps at `m` and an
/// accumulator that only ever adds even values.
///
/// * `ok_range`: `cnt <= m` — holds (inductive);
/// * `ok_never`: `cnt != k`, `k > m` — holds (never reached);
/// * `reach`, `reach2`: `cnt == j`, `1 <= j <= 5` — witness at depth
///   `j + 1`;
/// * `ok_bad`: `cnt != j2` — counter-example at depth `j2 + 1`;
/// * `deep`: `cnt == d`, `d >= 100` — witness only at depth `d + 1`;
/// * `acc_even`: `acc[0] == 0` — holds (sum of even values);
/// * `acc_reach`: `acc == 2·v` — witness at depth 2;
/// * `acc_bad`: `acc != 2·v2` — counter-example at depth 2.
pub fn generate_design(id: usize, rng: &mut Rng) -> Design {
    let w = rng.range(8, 16) as usize;
    let top = (1u64 << w) - 1;
    let m = rng.range(120, top - 1);
    let k = rng.range(m + 1, top);
    let j = rng.range(1, 5);
    let j2 = rng.range(1, 5);
    let j3 = rng.range(1, 5);
    let d = rng.range(100, m);
    let v = rng.range(1, (top >> 1).min(1000));
    let v2 = rng.range(1, (top >> 1).min(1000));
    let source = format!(
        "module gen{id}(input clk, input en, input [{hi}:0] din, output ok_range, output ok_never, \
         output reach, output reach2, output ok_bad, output deep, output acc_even, output acc_reach, output acc_bad);\n\
         \x20 reg [{hi}:0] cnt;\n\
         \x20 reg [{hi}:0] acc;\n\
         \x20 always @(posedge clk) begin\n\
         \x20   if (en) begin\n\
         \x20     if (cnt == {m}) cnt <= 0;\n\
         \x20     else cnt <= cnt + 1;\n\
         \x20   end\n\
         \x20   acc <= acc + {{din[{lo}:0], 1'b0}};\n\
         \x20 end\n\
         \x20 assign ok_range = cnt <= {m};\n\
         \x20 assign ok_never = cnt != {k};\n\
         \x20 assign reach = cnt == {j};\n\
         \x20 assign reach2 = cnt == {j3};\n\
         \x20 assign ok_bad = cnt != {j2};\n\
         \x20 assign deep = cnt == {d};\n\
         \x20 assign acc_even = acc[0] == 0;\n\
         \x20 assign acc_reach = acc == {a};\n\
         \x20 assign acc_bad = acc != {a2};\n\
         endmodule\n",
        hi = w - 1,
        lo = w - 2,
        a = 2 * v,
        a2 = 2 * v2,
    );
    let prop = |monitor, kind, expect| Prop {
        monitor,
        kind,
        expect,
    };
    let props = vec![
        prop("ok_range", "always", Expect::Holds),
        prop("ok_never", "always", Expect::Holds),
        prop("reach", "eventually", Expect::Witness(j as usize + 1)),
        prop("reach2", "eventually", Expect::Witness(j3 as usize + 1)),
        prop("ok_bad", "always", Expect::Violated(j2 as usize + 1)),
        prop("deep", "eventually", Expect::DeepWitness(d as usize + 1)),
        prop("acc_even", "always", Expect::Holds),
        prop("acc_reach", "eventually", Expect::Witness(2)),
        prop("acc_bad", "always", Expect::Violated(2)),
    ];
    Design { source, props }
}

/// The pool of designs of a run, generated from its seed.
pub fn generate_pool(seed: u64, count: usize) -> Vec<Design> {
    let mut rng = Rng::new(seed, 0x5E77E);
    (0..count).map(|id| generate_design(id, &mut rng)).collect()
}

/// Judges a wire verdict (`{label, …}`) against the answer by construction.
pub fn judge(expect: Expect, verdict: &Json) -> Judgement {
    let label = verdict.get("label").and_then(Json::as_str).unwrap_or("?");
    let frames = verdict.get("frames").and_then(Json::as_u64).unwrap_or(0) as usize;
    let cycles = verdict
        .get("trace_cycles")
        .and_then(Json::as_u64)
        .unwrap_or(0) as usize;
    match (expect, label) {
        (_, "unknown" | "timeout") => Judgement::Failed(label.to_string()),
        (Expect::Holds, "proved" | "holds(bound)") => Judgement::Expected,
        (Expect::Violated(_), "violated") | (Expect::Witness(_), "witness") => Judgement::Expected,
        (Expect::DeepWitness(depth), "witness") if cycles >= depth => Judgement::Expected,
        (Expect::Violated(depth), "holds(bound)") if frames < depth => {
            Judgement::Failed(format!("holds within {frames} frames"))
        }
        (Expect::Witness(depth) | Expect::DeepWitness(depth), "no witness") if frames < depth => {
            Judgement::Failed(format!("no witness within {frames} frames"))
        }
        (expect, _) => {
            Judgement::Wrong(format!("{verdict} where {expect:?} holds by construction"))
        }
    }
}

/// A line-delimited JSON connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    fn send(&mut self, request: &Json) -> std::io::Result<()> {
        self.writer.write_all(format!("{request}\n").as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Json::parse(line.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
    }

    /// Sends `request` and returns its reply, or the error reply as `Err`.
    fn call(&mut self, request: &Json) -> Result<Json, String> {
        self.send(request).map_err(|e| e.to_string())?;
        let reply = self.recv().map_err(|e| e.to_string())?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(reply)
        } else {
            Err(format!("{reply}"))
        }
    }
}

fn op(name: &str) -> Json {
    Json::obj(vec![("op", Json::str(name))])
}

/// A running in-process server.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<()>,
}

fn config(data_dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: Some(data_dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Boots a server on `data_dir` and waits for its first `ping` reply.
fn boot(data_dir: &Path) -> Result<Running, String> {
    let server = Server::bind(config(data_dir)).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || server.run());
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    conn.call(&op("ping"))?;
    Ok(Running { addr, thread })
}

/// Sends `shutdown` and waits for the server thread to end.
fn shutdown(server: Running) -> Result<(), String> {
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    conn.call(&op("shutdown"))?;
    server
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_string())
}

/// The flat JSON `metrics` object.
fn read_metrics(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let reply = conn.call(&op("metrics"))?;
    let mut out = HashMap::new();
    if let Some(Json::Obj(pairs)) = reply.get("metrics") {
        for (key, value) in pairs {
            let number = value
                .as_f64()
                .or_else(|| value.as_str().and_then(|s| s.parse().ok()));
            if let Some(n) = number {
                out.insert(key.clone(), n);
            }
        }
    }
    Ok(out)
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
struct JobRecord {
    latency_ms: f64,
    submit_rtt_ms: f64,
    queue_wait_ms: Option<f64>,
    started_to_verdict_ms: Option<f64>,
    service_ms: f64,
    from_cache: bool,
    engines: u64,
    judgement: Judgement,
    verdict: String,
}

/// One iteration: a design upload plus its batch.
#[derive(Debug, Clone)]
struct IterRecord {
    register_ms: f64,
    jobs: Vec<JobRecord>,
    done: Instant,
}

/// State shared by the client threads of one measured phase.
struct Loop<'a> {
    pool: &'a [Design],
    /// `true` at the iterations that resubmit an earlier design.
    resubmit: Vec<bool>,
    next_iteration: AtomicUsize,
    next_new: AtomicUsize,
    /// Completed new designs and the verdicts they were first served.
    completed: Mutex<Vec<(usize, Vec<String>)>>,
    /// The process's peak RSS when [`RSS_MARK`] new designs had completed.
    rss_mark: OnceLock<f64>,
    records: Mutex<Vec<IterRecord>>,
    errors: Mutex<Vec<String>>,
    spans: &'a SpanLog,
    seed: u64,
}

/// Runs one iteration for design `design` of `pool` on `conn`. Span ids are
/// `iteration << 8 | job index`; `0xFE` and `0xFF` in the low byte mark the
/// iteration's submit and register spans.
fn iterate(
    pool: &[Design],
    spans: &SpanLog,
    conn: &mut Conn,
    iteration: usize,
    design: usize,
) -> Result<IterRecord, String> {
    let spec = &pool[design];
    let span_id = (iteration as u64) << 8;
    let t0 = Instant::now();
    let reply = conn.call(&Json::obj(vec![
        ("op", Json::str("register_design")),
        ("source", Json::str(spec.source.clone())),
    ]))?;
    let t1 = Instant::now();
    spans.record(span_id | 0xFF, "frontend.register", None, t0, t1);
    let hash = reply
        .get("design")
        .and_then(Json::as_str)
        .ok_or("no design hash")?
        .to_string();
    let jobs: Vec<Json> = spec
        .props
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("design", Json::str(hash.clone())),
                (
                    "property",
                    Json::obj(vec![
                        ("kind", Json::str(p.kind)),
                        ("monitor", Json::str(p.monitor)),
                        ("name", Json::str(p.monitor)),
                    ]),
                ),
            ])
        })
        .collect();
    let sent = Instant::now();
    let ack = conn.call(&Json::obj(vec![
        ("op", Json::str("submit_batch")),
        ("jobs", Json::Arr(jobs)),
    ]))?;
    let acked = Instant::now();
    let batch = ack
        .get("batch")
        .and_then(Json::as_u64)
        .ok_or("no batch id")?;
    conn.send(&Json::obj(vec![
        ("op", Json::str("subscribe")),
        ("batch", Json::num(batch)),
        ("interval_ms", Json::num(SUBSCRIBE_INTERVAL_MS)),
    ]))
    .map_err(|e| e.to_string())?;
    let n = spec.props.len();
    let mut started: Vec<Option<Instant>> = vec![None; n];
    let mut results: Vec<Option<(Instant, Json)>> = vec![None; n];
    loop {
        let frame = conn.recv().map_err(|e| e.to_string())?;
        if frame.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("subscribe: {frame}"));
        }
        let index = frame
            .get("index")
            .and_then(Json::as_u64)
            .map(|i| i as usize);
        match frame.get("event").and_then(Json::as_str) {
            Some("job_started") => {
                if let Some(i) = index.filter(|&i| i < n) {
                    started[i].get_or_insert(Instant::now());
                }
            }
            Some("verdict") => {
                let now = Instant::now();
                let i = index.filter(|&i| i < n).ok_or("verdict without index")?;
                let result = frame
                    .get("result")
                    .cloned()
                    .ok_or("verdict without result")?;
                results[i] = Some((now, result));
            }
            Some("batch_done") => break,
            _ => {}
        }
    }
    spans.record(span_id | 0xFE, "server.submit", None, sent, acked);
    let mut records = Vec::with_capacity(n);
    for (i, (slot, prop)) in results.into_iter().zip(&spec.props).enumerate() {
        let (at, result) = slot.ok_or("batch_done before every verdict")?;
        let verdict = result.get("verdict").cloned().unwrap_or(Json::Null);
        let job_id = span_id | i as u64;
        spans.record(job_id, "client.job", None, sent, at);
        if let Some(s) = started[i] {
            spans.record(job_id, "service.queue", Some("client.job"), acked, s);
            spans.record(job_id, "service.run", Some("client.job"), s, at);
        }
        records.push(JobRecord {
            latency_ms: ms(at - sent),
            submit_rtt_ms: ms(acked - sent),
            queue_wait_ms: started[i].map(|s| ms(s.saturating_duration_since(acked))),
            started_to_verdict_ms: started[i].map(|s| ms(at - s)),
            service_ms: result.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
            from_cache: result.get("from_cache").and_then(Json::as_bool) == Some(true),
            engines: result
                .get("engines_spawned")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            judgement: judge(prop.expect, &verdict),
            verdict: format!("{verdict}"),
        });
    }
    Ok(IterRecord {
        register_ms: ms(t1 - t0),
        jobs: records,
        done: Instant::now(),
    })
}

/// One client thread of the closed loop.
fn client(lp: &Loop<'_>, addr: SocketAddr, index: usize, until: Instant) {
    let mut rng = Rng::new(lp.seed, 0xC11E47 + index as u64);
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            lp.errors
                .lock()
                .expect("errors")
                .push(format!("connect: {e}"));
            return;
        }
    };
    while Instant::now() < until {
        let iteration = lp.next_iteration.fetch_add(1, Ordering::Relaxed);
        let earlier = {
            let completed = lp.completed.lock().expect("completed");
            let wants = lp.resubmit[iteration % lp.resubmit.len()]
                || lp.next_new.load(Ordering::Relaxed) >= lp.pool.len();
            let window = completed.len().min(RECENT);
            (wants && window > 0)
                .then(|| completed[completed.len() - 1 - rng.below(window as u64) as usize].clone())
        };
        let design = match &earlier {
            Some((design, _)) => *design,
            None => {
                let next = lp.next_new.fetch_add(1, Ordering::Relaxed);
                if next >= lp.pool.len() {
                    continue;
                }
                next
            }
        };
        match iterate(lp.pool, lp.spans, &mut conn, iteration, design) {
            Ok(mut record) => {
                match &earlier {
                    // A resubmission must be served the verdicts first served.
                    Some((_, first)) => {
                        for (job, first) in record.jobs.iter_mut().zip(first) {
                            if job.verdict != *first {
                                job.judgement = Judgement::Wrong(format!(
                                    "design {design} resubmitted: verdict {} differs from the first served, {first}",
                                    job.verdict
                                ));
                            }
                        }
                    }
                    None => {
                        let verdicts = record.jobs.iter().map(|j| j.verdict.clone()).collect();
                        let mut completed = lp.completed.lock().expect("completed");
                        completed.push((design, verdicts));
                        if completed.len() == RSS_MARK {
                            lp.rss_mark.get_or_init(peak_rss_mb);
                        }
                    }
                }
                lp.records.lock().expect("records").push(record);
            }
            Err(e) => {
                lp.errors
                    .lock()
                    .expect("errors")
                    .push(format!("iteration {iteration}: {e}"));
                // The connection may be out of step; start a fresh one.
                match Conn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => return,
                }
            }
        }
    }
}

/// One block of `BLOCK` consecutive iterations: its wall time and the
/// latency of each of its jobs.
struct Block {
    wall: f64,
    latency: Vec<f64>,
}

/// The fastest block's value of a block statistic (min-of-N: every block
/// does the same mix of work, and the host's noise only ever adds time).
fn best(blocks: &[Block], stat: impl Fn(&Block) -> f64) -> f64 {
    blocks.iter().map(stat).fold(f64::INFINITY, f64::min)
}

/// What one measured phase produced.
struct Phase {
    records: Vec<IterRecord>,
    errors: Vec<String>,
    completed: Vec<(usize, Vec<String>)>,
    /// See [`Loop::rss_mark`]; `None` when the run completed fewer designs.
    rss_mark: Option<f64>,
    /// `true` when the run used up the pool of new designs.
    exhausted: bool,
    started: Instant,
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
}

impl Phase {
    fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().flat_map(|r| &r.jobs)
    }

    /// The measured phase cut into blocks of `BLOCK` iterations, in order
    /// of completion; a trailing partial block is dropped.
    fn blocks(&self) -> Vec<Block> {
        let mut records: Vec<&IterRecord> = self.records.iter().collect();
        records.sort_by_key(|r| r.done);
        let mut blocks = Vec::new();
        let mut from = self.started;
        for chunk in records.chunks_exact(BLOCK) {
            let to = chunk[BLOCK - 1].done;
            blocks.push(Block {
                wall: (to - from).as_secs_f64(),
                latency: chunk
                    .iter()
                    .flat_map(|r| &r.jobs)
                    .map(|j| j.latency_ms)
                    .collect(),
            });
            from = to;
        }
        blocks
    }

    fn delta(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0.0) - self.before.get(name).copied().unwrap_or(0.0)
    }

    fn gauge(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0.0)
    }
}

/// Runs the closed loop against `server` until `budget` is spent.
fn measure(
    server: &Running,
    pool: &[Design],
    seed: u64,
    budget: Duration,
    spans: &SpanLog,
) -> Result<Phase, String> {
    // Half of every four iterations resubmit, at seeded positions.
    let mut rng = Rng::new(seed, 0x2E5B);
    let mut resubmit = Vec::new();
    for _ in 0..256 {
        let mut block = [false, false, true, true];
        rng.shuffle(&mut block);
        resubmit.extend(block);
    }
    let lp = Loop {
        pool,
        resubmit,
        next_iteration: AtomicUsize::new(0),
        next_new: AtomicUsize::new(0),
        completed: Mutex::new(Vec::new()),
        rss_mark: OnceLock::new(),
        records: Mutex::new(Vec::new()),
        errors: Mutex::new(Vec::new()),
        spans,
        seed,
    };
    let before = read_metrics(server.addr)?;
    let started = Instant::now();
    let until = started + budget;
    std::thread::scope(|scope| {
        for index in 0..CLIENTS {
            let lp = &lp;
            scope.spawn(move || client(lp, server.addr, index, until));
        }
    });
    let after = read_metrics(server.addr)?;
    Ok(Phase {
        records: lp.records.into_inner().expect("records"),
        errors: lp.errors.into_inner().expect("errors"),
        exhausted: lp.next_new.load(Ordering::Relaxed) >= pool.len(),
        completed: lp.completed.into_inner().expect("completed"),
        rss_mark: lp.rss_mark.into_inner(),
        started,
        before,
        after,
    })
}

/// A fresh data directory under `benchmark/out/`.
fn data_dir(tag: &str) -> PathBuf {
    out_dir().join(format!("serve-{}-{tag}", std::process::id()))
}

/// Generates the inputs and boots a server on a fresh data directory; the
/// timed set-up of the workload.
fn setup(seed: u64, tag: &str) -> Result<(Vec<Design>, PathBuf, Running), String> {
    let pool = generate_pool(seed, POOL);
    let dir = data_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = boot(&dir)?;
    Ok((pool, dir, server))
}

/// Sets up `SETUPS` times (all but the last server are shut down again) and
/// returns the set-up times with the last set-up.
fn timed_setup(
    seed: u64,
    phase: &str,
) -> Result<(Vec<f64>, Vec<Design>, PathBuf, Running), String> {
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let (pool, dir, server) = setup(seed, &format!("{phase}{}", times.len()))?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() == SETUPS {
            return Ok((times, pool, dir, server));
        }
        shutdown(server)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Shuts the server down, boots it again on the same data directory and
/// resubmits a sample of completed designs. Returns the restart time
/// (bind to first `ping` reply) and the records replayed at boot.
fn restart_check(
    out: &mut Outcome,
    server: Running,
    dir: &Path,
    pool: &[Design],
    phase: &Phase,
) -> Result<(f64, f64), String> {
    shutdown(server)?;
    let start = Instant::now();
    let rebooted = Server::bind(config(dir)).map_err(|e| format!("rebind: {e}"))?;
    let replayed = rebooted.boot_replayed_records() as f64;
    let addr = rebooted.local_addr().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || rebooted.run());
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    conn.call(&op("ping"))?;
    let restart_s = start.elapsed().as_secs_f64();
    let server = Running { addr, thread };
    let quiet = SpanLog::new(false);
    let mut checked = 0;
    for (design, first) in phase.completed.iter().rev().take(RESTART_SAMPLE) {
        let record = iterate(pool, &quiet, &mut conn, 0, *design)?;
        for (job, first) in record.jobs.iter().zip(first) {
            checked += 1;
            if !job.from_cache || job.verdict != *first {
                out.correct = false;
                out.note(format!(
                    "WRONG after restart, design {design}: from_cache={} verdict {} (first served {first})",
                    job.from_cache, job.verdict
                ));
            }
        }
    }
    out.note(format!(
        "restart: {checked} resubmitted jobs checked for from_cache and identical verdicts; {replayed} journal records replayed at boot"
    ));
    drop(conn);
    shutdown(server)?;
    Ok((restart_s, replayed))
}

/// Judges every job of a phase; returns `(attempted, failed)`.
fn judge_phase(out: &mut Outcome, phase: &Phase) -> (u64, u64) {
    let mut failures: HashMap<&str, usize> = HashMap::new();
    for job in phase.jobs() {
        match &job.judgement {
            Judgement::Expected => {}
            Judgement::Failed(why) => *failures.entry(why).or_default() += 1,
            Judgement::Wrong(why) => {
                out.correct = false;
                out.note(format!("WRONG {why}"));
            }
        }
    }
    let mut failures: Vec<_> = failures.into_iter().collect();
    failures.sort();
    for (why, count) in &failures {
        out.note(format!("failed jobs: {count} x {why}"));
    }
    // An error reply (or a broken connection) costs its iteration; it
    // counts as one failed attempt.
    for error in &phase.errors {
        out.note(format!("error: {error}"));
    }
    let wrong = phase
        .jobs()
        .filter(|j| matches!(j.judgement, Judgement::Wrong(_)))
        .count();
    let failed = failures.iter().map(|(_, n)| n).sum::<usize>() + wrong + phase.errors.len();
    let attempted = phase.jobs().count() + phase.errors.len();
    (attempted as u64, failed as u64)
}

/// The end-to-end metrics. Each time is min-of-N over blocks: the block
/// statistic (its wall time, a latency percentile over its jobs) of the
/// block where it is lowest.
fn end_to_end(out: &mut Outcome, setup_s: f64, phase: &Phase, attempted: u64, failed: u64) {
    let blocks = phase.blocks();
    out.push("setup_s", setup_s);
    out.push("wall_s", best(&blocks, |b| b.wall));
    out.push("failed_share", failed as f64 / attempted.max(1) as f64);
    let rss = phase.rss_mark.unwrap_or_else(|| {
        out.note(format!(
            "peak_rss_mb read at the end: only {} of {RSS_MARK} new designs completed",
            phase.completed.len()
        ));
        peak_rss_mb()
    });
    out.push("peak_rss_mb", rss);
    if phase.exhausted {
        out.note(format!(
            "all {POOL} new designs used: the rest of the run only resubmitted"
        ));
    }
    out.push("job_p99_ms", best(&blocks, |b| quantile(&b.latency, 0.99)));
    out.push(
        "jobs_per_s",
        -best(&blocks, |b| -(b.latency.len() as f64 / b.wall)),
    );
    let latency = |hit: Option<bool>| -> Vec<f64> {
        phase
            .jobs()
            .filter(|j| hit.is_none_or(|h| j.from_cache == h))
            .map(|j| j.latency_ms)
            .collect()
    };
    let (all, hits, misses) = (latency(None), latency(Some(true)), latency(Some(false)));
    out.note(format!(
        "iterations: {} ({} blocks of {BLOCK}), jobs: {} ({} cache hits, {} misses), clients: {CLIENTS}",
        phase.records.len(),
        blocks.len(),
        all.len(),
        hits.len(),
        misses.len()
    ));
    out.note(format!(
        "median job latency over the phase: {:.3} ms (cache hits {:.3} ms, misses {:.3} ms)",
        median(&all),
        median(&hits),
        median(&misses)
    ));
    let smallest = blocks.iter().map(|b| b.latency.len()).min().unwrap_or(0);
    out.note(sample_note(
        "job (per block, smallest block)",
        smallest,
        0.99,
    ));
    let walls: Vec<f64> = blocks.iter().map(|b| b.wall).collect();
    out.note(format!(
        "block wall min {:.4} s, median {:.4} s, max {:.4} s",
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 1.0)
    ));
}

fn per_layer(out: &mut Outcome, phase: &Phase, untraced: &Phase, restart_s: f64, replayed: f64) {
    let jobs: Vec<&JobRecord> = phase.jobs().collect();
    let register: Vec<f64> = phase.records.iter().map(|r| r.register_ms).collect();
    let rtt: Vec<f64> = jobs.iter().map(|j| j.submit_rtt_ms).collect();
    let waits: Vec<f64> = jobs.iter().filter_map(|j| j.queue_wait_ms).collect();
    let runs: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.started_to_verdict_ms)
        .collect();
    let hits: Vec<f64> = jobs
        .iter()
        .filter(|j| j.from_cache)
        .map(|j| j.latency_ms)
        .collect();
    let misses = jobs.len() - hits.len();
    let engines: u64 = jobs.iter().map(|j| j.engines).sum();
    let errors: f64 = phase
        .after
        .keys()
        .filter(|k| k.starts_with("server_errors_") && k.ends_with("_total"))
        .map(|k| phase.delta(k))
        .fold(0.0, |a, b| a + b);
    let races = phase.delta("portfolio_races_total");
    let hit_total = phase.delta("service_cache_hits_total");
    let miss_total = phase.delta("service_cache_misses_total");
    // Attribution: what the client can time of each job, against its latency.
    let latency: f64 = jobs.iter().map(|j| j.latency_ms).sum();
    let attributed: f64 = jobs
        .iter()
        .map(|j| j.submit_rtt_ms + j.queue_wait_ms.unwrap_or(0.0) + j.service_ms)
        .sum();
    out.push("core.decisions", phase.delta("core_decisions_total"));
    out.push("core.backtracks", phase.delta("core_backtracks_total"));
    out.push(
        "core.gate_evals",
        phase.delta("core_gate_evaluations_total"),
    );
    out.push(
        "core.justify_rechecks",
        phase.delta("core_justify_gates_rechecked_total"),
    );
    out.push(
        "modsolve.arith_calls",
        phase.delta("core_arithmetic_calls_total"),
    );
    out.push(
        "modsolve.fact_hits",
        phase.delta("core_datapath_fact_hits_total"),
    );
    out.push("frontend.register_ms_p50", median(&register));
    out.push("server.submit_rtt_ms_p50", median(&rtt));
    out.push(
        "server.op_register_design_ns_p50",
        phase.gauge("server_op_register_design_wall_ns_p50"),
    );
    out.push(
        "server.op_submit_batch_ns_p50",
        phase.gauge("server_op_submit_batch_wall_ns_p50"),
    );
    out.push(
        "server.subscribe_pushes",
        phase.delta("server_subscribe_pushes_total"),
    );
    out.push("server.errors", errors);
    out.push("server.restart_s", restart_s);
    out.push("service.queue_wait_ms_p50", median(&waits));
    out.push("service.queue_wait_ms_p99", quantile(&waits, 0.99));
    out.push("service.run_ms_p50", median(&runs));
    out.push(
        "service.cache_hit_rate",
        hit_total / (hit_total + miss_total).max(1.0),
    );
    out.push(
        "service.job_wall_ns_p99",
        phase.gauge("service_job_wall_ns_p99"),
    );
    out.push("service.hit_p50_ms", median(&hits));
    out.push("portfolio.races", races);
    out.push(
        "portfolio.race_wall_ns_p50",
        phase.gauge("portfolio_race_wall_ns_p50"),
    );
    out.push(
        "portfolio.race_wall_ns_p99",
        phase.gauge("portfolio_race_wall_ns_p99"),
    );
    out.push(
        "portfolio.cancelled_runs",
        phase.delta("portfolio_cancelled_runs_total"),
    );
    out.push("portfolio.useful_share", races / (engines as f64).max(1.0));
    out.push(
        "persist.journal_appends",
        phase.delta("persist_journal_appends_total"),
    );
    out.push(
        "persist.journal_bytes",
        phase.delta("persist_journal_bytes_written_total"),
    );
    out.push(
        "persist.fsync_ns_p50",
        phase.gauge("persist_journal_fsync_ns_p50"),
    );
    out.push(
        "persist.fsync_ns_p99",
        phase.gauge("persist_journal_fsync_ns_p99"),
    );
    out.push("persist.boot_replayed_records", replayed);
    out.push(
        "persist.compactions",
        phase.delta("server_journal_compactions_total"),
    );
    out.push(
        "serve.unattributed_share",
        1.0 - attributed / latency.max(f64::MIN_POSITIVE),
    );
    out.push(
        "trace_overhead_ratio",
        best(&phase.blocks(), |b| b.wall) / best(&untraced.blocks(), |b| b.wall),
    );
    out.push("samples.job", jobs.len() as f64);
    out.push("samples.hit", hits.len() as f64);
    out.push("samples.miss", misses as f64);
    out.push("samples.queue_wait", waits.len() as f64);
    out.note(format!(
        "traced phase: {} iterations, {} jobs; untraced phase: {} iterations",
        phase.records.len(),
        jobs.len(),
        untraced.records.len()
    ));
    out.note(sample_note(
        "queue wait (jobs seen in job_started)",
        waits.len(),
        0.99,
    ));
    out.note(
        "core.conflicts and the core phase times are not exported by the server: 0 here; \
         serve.unattributed_share holds verdict delivery and job_started tick granularity",
    );
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    match run_inner(cfg, &mut out) {
        Ok(()) => out,
        Err(e) => {
            // Every operation of this workload is expected to succeed.
            out.correct = false;
            out.note(format!("WRONG: serve-mixed aborted: {e}"));
            out.attempted = out.attempted.max(1);
            out.failed = out.attempted;
            out
        }
    }
}

fn run_inner(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let quiet = SpanLog::new(false);
    if !cfg.trace {
        let (mut setup_times, pool, dir, server) = timed_setup(cfg.seed, "m")?;
        let phase = measure(&server, &pool, cfg.seed, cfg.seconds, &quiet)?;
        let (attempted, failed) = judge_phase(out, &phase);
        out.attempted = attempted;
        out.failed = failed;
        restart_check(out, server, &dir, &pool, &phase)?;
        let _ = std::fs::remove_dir_all(&dir);
        // Set up as often again after the measured phase: set-up takes
        // milliseconds, and set-ups at both ends of the run are not all
        // caught by one slow spell of the host.
        let (later, _, dir, server) = timed_setup(cfg.seed, "e")?;
        shutdown(server)?;
        let _ = std::fs::remove_dir_all(&dir);
        setup_times.extend(later);
        end_to_end(out, median(&setup_times), &phase, attempted, failed);
        return Ok(());
    }
    // Traced run: half the budget untraced, then a fresh server for the
    // traced half, so that both halves start from the same state.
    let (_, pool, dir, server) = timed_setup(cfg.seed, "u")?;
    let untraced = measure(&server, &pool, cfg.seed, cfg.seconds / 2, &quiet)?;
    shutdown(server)?;
    let _ = std::fs::remove_dir_all(&dir);
    let spans = SpanLog::new(true);
    let (_, pool, dir, server) = timed_setup(cfg.seed, "t")?;
    let phase = measure(&server, &pool, cfg.seed, cfg.seconds / 2, &spans)?;
    let (attempted_u, failed_u) = judge_phase(out, &untraced);
    let (attempted, failed) = judge_phase(out, &phase);
    out.attempted = attempted + attempted_u;
    out.failed = failed + failed_u;
    let (restart_s, replayed) = restart_check(out, server, &dir, &pool, &phase)?;
    let _ = std::fs::remove_dir_all(&dir);
    per_layer(out, &phase, &untraced, restart_s, replayed);
    out.fill_zeros(PER_LAYER);
    match spans.write_out(&cfg.workload, cfg.seed) {
        Ok(Some(path)) => out.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Ok(None) => {}
        Err(e) => out.note(format!("spans not written: {e}")),
    }
    Ok(())
}

//! Source-to-verdict benchmark of the Termite analyser.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of the repository (it reads `expected_verdicts.json`
//! there). The untraced run (`--trace 0`) prints the end-to-end metrics; the
//! traced run (`--trace 1`) prints the per-layer metrics and writes the
//! spans to `perfbench/out/`. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! 1 when a nonterminating control was proved (a soundness failure) and 2
//! on a usage or set-up error. See `NOTES.md` for the workloads and metrics.

mod measure;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::panic::AssertUnwindSafe;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use termite_core::{AnalysisOptions, CancelToken, TerminationReport, UnknownReason, Verdict};
use termite_driver::json::Json;
use termite_driver::{
    parse_selection, run_selection, serve, verdict_rank, AnalysisJob, EngineSelection,
    PortfolioOutcome, ResultCache, ServeConfig,
};
use termite_invariants::{location_invariants, InvariantOptions};
use termite_ir::{optimize, parse_named_program};
use termite_obs::Recorder;

use measure::{median, peak_rss_mb, process_cpu, quantile};
use trace::{total, Ev, Origin, Tracer};
use workload::{BatchPlan, Item, ServeRequest, Workload};

/// Per-job deadline of every analysis, racing or solo: a guard against a
/// hung job, far above the slowest job of any workload.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// DNF size guard of the solo-engine pass (`max_eager_disjuncts`). Alone,
/// the DNF-expanding engines ignore their deadline while they expand: one
/// Complete-LRF run on `multipath_loop(8)` allocates 9 GB before it
/// notices. With the guard they refuse `2^t > 64` paths as
/// `resource-budget`, which in the race they never win anyway.
const SOLO_DNF_GUARD: usize = 64;

/// The seven engines, spelled as `termite_driver::parse_selection` reads
/// them, in the portfolio's preference order.
const ENGINES: [&str; 7] = [
    "complete-lrf",
    "lasso",
    "termite",
    "eager",
    "pr",
    "heuristic",
    "piecewise",
];

/// `serve_replay`'s latency percentiles are the median over this many equal
/// stretches of the session (100 requests each at 20 s) of each stretch's
/// percentile.
const SERVE_WINDOWS: usize = 4;

/// Where the traced run writes its spans, relative to the repository root.
const TRACE_DIR: &str = "perfbench/out";

#[derive(Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The runs the command line asks for: one per workload (`all` is every
/// workload in turn).
fn parse_args() -> Result<Vec<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(&flag[2..], value.as_str());
            }
            _ => return Err(format!("malformed arguments: {argv:?}")),
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?;
    let workloads = match workload {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?],
    };
    let args = Args {
        workload: workloads[0],
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    };
    if flags.len() != 4 {
        return Err(format!("unexpected arguments: {argv:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(workloads
        .into_iter()
        .map(|workload| Args { workload, ..args })
        .collect())
}

fn main() -> ExitCode {
    let runs = match parse_args() {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for args in &runs {
        match run(args) {
            Ok(result) => {
                result.print();
                if !result.tally.unsound.is_empty() {
                    eprintln!(
                        "perfbench: SOUNDNESS FAILURE: nonterminating control(s) proved: {}",
                        result.tally.unsound.join(", ")
                    );
                    code = ExitCode::from(1);
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    code
}

// ---------------------------------------------------------------------------
// Checking answers.

/// How one answer compares with the known answer.
#[derive(Default)]
struct Tally {
    attempted: usize,
    /// Answers ranked below the known answer, errors, panics and deadline
    /// hits: the numerator of `verdict_miss_ratio`.
    missed: usize,
    /// Proofs among the programs known to terminate.
    proved: usize,
    terminating: usize,
    /// Nonterminating controls that were proved.
    unsound: Vec<String>,
}

impl Tally {
    /// Records one answer — its verdict rank, and whether the run failed
    /// (cancelled by the deadline, or an engine failure) — or `None` when
    /// the program errored or panicked.
    fn record(&mut self, item: &Item, answer: Option<(u8, bool)>) {
        self.attempted += 1;
        if !item.control {
            self.terminating += 1;
        }
        let Some((rank, failed)) = answer else {
            self.missed += 1;
            return;
        };
        if item.control && rank > 0 {
            self.unsound.push(item.name.clone());
        }
        if !item.control && rank > 0 {
            self.proved += 1;
        }
        if failed || rank < item.expected {
            self.missed += 1;
        }
    }
}

fn run_failed(verdict: &Verdict) -> bool {
    matches!(
        verdict,
        Verdict::Unknown {
            reason: UnknownReason::Cancelled | UnknownReason::EngineFailure
        }
    )
}

// ---------------------------------------------------------------------------
// The closed-loop path: source text → parse → optimize → invariants → race.

/// Parses, optimizes and prepares invariants exactly as the driver's
/// `AnalysisJob::from_program_with` does, one timed call per layer.
fn prepare(item: &Item, tracer: &Tracer) -> Result<AnalysisJob, String> {
    let program = tracer
        .span("ir.parse", || parse_named_program(&item.source, &item.name))
        .map_err(|e| format!("{}: {e}", item.name))?;
    let (optimized, ts) = tracer.span("ir.opt", || {
        let optimized = optimize(&program);
        let ts = optimized.program.transition_system();
        (optimized, ts)
    });
    let invariants = tracer.span("invariants.prepare", || {
        location_invariants(&optimized.program, &InvariantOptions::default())
    });
    Ok(AnalysisJob {
        name: item.name.clone(),
        ts,
        invariants,
        expected_terminating: None,
        program: Some(optimized.program),
        provenance: Some(optimized.provenance),
        opt_stats: Some(optimized.stats),
    })
}

/// Runs one prepared job under `selection` with a fresh per-job deadline;
/// `Err` carries a panic message.
fn race(
    job: &AnalysisJob,
    selection: &EngineSelection,
    options: &AnalysisOptions,
) -> Result<PortfolioOutcome, String> {
    let options = options
        .clone()
        .with_cancel(CancelToken::with_deadline(JOB_DEADLINE));
    std::panic::catch_unwind(AssertUnwindSafe(|| run_selection(job, selection, &options))).map_err(
        |payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string())
        },
    )
}

/// Adds a job's node and variable counts, before and after the IR
/// optimizer, to `sizes`.
fn add_ir_sizes(sizes: &mut [usize; 4], job: &AnalysisJob) {
    if let Some(s) = &job.opt_stats {
        let counts = [s.nodes_before, s.nodes_after, s.vars_before, s.vars_after];
        for (acc, v) in sizes.iter_mut().zip(counts) {
            *acc += v;
        }
    }
}

/// One closed-loop pass over `items`.
#[derive(Default)]
struct Pass {
    wall: Duration,
    tally: Tally,
    /// Source-to-verdict time of each program (ms).
    verdict_ms: Vec<f64>,
    /// Time inside `run_selection` of each program (ms).
    selection_ms: Vec<f64>,
    /// Σ nodes before/after and vars before/after the IR optimizer.
    ir_sizes: [usize; 4],
    unproved_losers: usize,
}

fn run_pass(items: &[Item], selection: &EngineSelection, tracer: &Tracer) -> Pass {
    let options = AnalysisOptions::default();
    let mut pass = Pass::default();
    let start = Instant::now();
    for item in items {
        let t0 = Instant::now();
        let outcome = prepare(item, tracer).and_then(|job| {
            add_ir_sizes(&mut pass.ir_sizes, &job);
            let t1 = Instant::now();
            let outcome = tracer.span("driver.run_selection", || race(&job, selection, &options));
            pass.selection_ms.push(t1.elapsed().as_secs_f64() * 1000.0);
            outcome
        });
        pass.verdict_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
        match outcome {
            Ok(out) => {
                pass.unproved_losers += out.unproved_losers;
                let verdict = &out.report.verdict;
                pass.tally
                    .record(item, Some((verdict.rank(), run_failed(verdict))));
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", item.name);
                pass.tally.record(item, None);
            }
        }
    }
    pass.wall = start.elapsed();
    pass
}

// ---------------------------------------------------------------------------
// The open-loop path: NDJSON through `termite_driver::serve`.

/// The request side of the open loop: hands `serve`'s intake one line at a
/// time, each no earlier than it is due, and notes when it was handed over.
struct OpenLoopIntake {
    start: Instant,
    lines: Vec<(Duration, Vec<u8>)>,
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    sent: Arc<Mutex<Vec<Duration>>>,
}

impl Read for OpenLoopIntake {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for OpenLoopIntake {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() && self.next < self.lines.len() {
            let (due, line) = std::mem::take(&mut self.lines[self.next]);
            if let Some(wait) = due.checked_sub(self.start.elapsed()) {
                std::thread::sleep(wait);
            }
            self.sent
                .lock()
                .expect("the send log is never poisoned")
                .push(self.start.elapsed());
            self.buf = line;
            self.pos = 0;
            self.next += 1;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The response side: timestamps every complete response line.
struct ResponseLog {
    start: Instant,
    partial: Vec<u8>,
    lines: Vec<(Duration, String)>,
}

impl Write for ResponseLog {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.partial.extend_from_slice(data);
        while let Some(end) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line).trim().to_string();
            self.lines.push((self.start.elapsed(), text));
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One answered request of a `serve` session.
struct Response {
    due_ms: f64,
    sent_ms: f64,
    answered_ms: f64,
    wall_millis: f64,
    from_cache: bool,
}

/// A whole `serve` session over a request stream.
struct Session {
    tally: Tally,
    responses: Vec<Response>,
    events: Vec<Ev>,
    elapsed: Duration,
}

fn serve_session(stream: &[ServeRequest], traced: bool) -> Result<Session, String> {
    let config = ServeConfig {
        workers: 1,
        selection: Workload::ServeReplay.selection(),
        job_timeout: Some(JOB_DEADLINE),
        // Open loop: the window never throttles the generator.
        max_inflight: stream.len().max(1),
        ..ServeConfig::default()
    };
    let cache = ResultCache::new();
    let start = Instant::now();
    let sent = Arc::new(Mutex::new(Vec::with_capacity(stream.len())));
    let intake = OpenLoopIntake {
        start,
        lines: stream
            .iter()
            .map(|r| {
                let due = Duration::from_secs_f64(r.due_ms / 1000.0);
                (due, r.line(traced).into_bytes())
            })
            .collect(),
        next: 0,
        buf: Vec::new(),
        pos: 0,
        sent: Arc::clone(&sent),
    };
    let mut log = ResponseLog {
        start,
        partial: Vec::new(),
        lines: Vec::new(),
    };
    let summary = serve(intake, &mut log, &config, Some(&cache))?;
    let elapsed = start.elapsed();
    let sent = sent.lock().expect("the send log is never poisoned").clone();
    if summary.ok != stream.len() || sent.len() != stream.len() {
        return Err(format!(
            "serve answered {} of {} requests ok ({summary:?})",
            summary.ok,
            stream.len()
        ));
    }

    let mut session = Session {
        tally: Tally::default(),
        responses: Vec::with_capacity(stream.len()),
        events: Vec::new(),
        elapsed,
    };
    let mut answered = vec![false; stream.len()];
    for (at, line) in &log.lines {
        let doc = Json::parse(line).map_err(|e| format!("response `{line}`: {e}"))?;
        let index = doc
            .get("id")
            .and_then(Json::as_str)
            .and_then(|id| id.strip_prefix('r'))
            .and_then(|i| i.parse::<usize>().ok())
            .filter(|&i| i < stream.len() && !answered[i])
            .ok_or_else(|| format!("response with an unknown or repeated id: {line}"))?;
        answered[index] = true;
        let request = &stream[index];
        let field = |name: &str| doc.get(name).ok_or_else(|| format!("no `{name}`: {line}"));
        let verdict = field("verdict")?.as_str().unwrap_or("");
        let failed = matches!(
            doc.get("report")
                .and_then(|r| r.get("unknown_reason"))
                .and_then(Json::as_str),
            Some("cancelled" | "engine-failure")
        );
        session
            .tally
            .record(&request.item, Some((verdict_rank(verdict), failed)));
        if let Some(Json::Array(events)) = doc.get("trace").and_then(|t| t.get("traceEvents")) {
            session
                .events
                .extend(events.iter().filter_map(Ev::from_wire));
        }
        session.responses.push(Response {
            due_ms: request.due_ms,
            sent_ms: sent[index].as_secs_f64() * 1000.0,
            answered_ms: at.as_secs_f64() * 1000.0,
            wall_millis: field("wall_millis")?.as_f64().unwrap_or(0.0),
            from_cache: field("from_cache")?.as_bool().unwrap_or(false),
        });
    }
    Ok(session)
}

// ---------------------------------------------------------------------------
// Set-up.

enum Plan {
    Batch(BatchPlan),
    Serve(Vec<ServeRequest>),
}

/// Loads the expectations, generates the workload from the seed and warms
/// the analyser up on one program of each corpus suite; returns the plan
/// and its time.
fn set_up(args: &Args) -> Result<(Plan, f64), String> {
    let start = Instant::now();
    let expectations = workload::load_expectations("expected_verdicts.json")?;
    let plan = match args.workload {
        Workload::ServeReplay => Plan::Serve(workload::serve_stream(
            args.seed,
            &expectations,
            args.seconds,
        )?),
        w => Plan::Batch(BatchPlan::new(w, args.seed, &expectations)?),
    };
    let warm_up = workload::warm_up(args.workload, &expectations)?;
    let pass = run_pass(&warm_up, &args.workload.selection(), &Tracer::new(false));
    if pass.tally.missed != 0 {
        return Err("a warm-up program missed its known answer".to_string());
    }
    Ok((plan, start.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

struct RunResult {
    workload: Workload,
    traced: bool,
    tally: Tally,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn print(&self) {
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!("# {} — {kind} metrics", self.workload.name());
        println!(
            "  verdict_miss_ratio = {} ({} of {} programs; reported as failed/attempted)",
            self.tally.missed as f64 / self.tally.attempted.max(1) as f64,
            self.tally.missed,
            self.tally.attempted
        );
        for m in &self.metrics {
            println!(
                "  {:<34} {:>14.4} {:<10} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let metrics = Json::Object(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::object([
                            ("value", Json::Number(m.value)),
                            ("unit", Json::String(m.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        );
        let line = Json::object([
            ("correct", Json::Bool(self.tally.unsound.is_empty())),
            ("attempted", Json::Number(self.tally.attempted as f64)),
            ("failed", Json::Number(self.tally.missed as f64)),
            ("metrics", metrics),
        ]);
        println!("{line}");
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        // A layer that never ran reports 0, never NaN (JSON has no NaN).
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

fn merge(into: &mut Tally, from: Tally) {
    into.attempted += from.attempted;
    into.missed += from.missed;
    into.proved += from.proved;
    into.terminating += from.terminating;
    into.unsound.extend(from.unsound);
}

fn run(args: &Args) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut plan = None;
    for _ in 0..SETUP_REPS {
        let (p, secs) = set_up(args)?;
        setups.push(secs);
        plan = Some(p);
    }
    let plan = plan.expect("set-up ran at least once");
    if args.trace {
        return traced_run(args, plan);
    }
    let (tally, mut metrics) = match plan {
        Plan::Batch(plan) => untraced_batch(args, plan),
        Plan::Serve(stream) => untraced_serve(&stream)?,
    };
    metrics.insert(0, metric("setup_s", median(&setups), "s", setups.len()));
    Ok(RunResult {
        workload: args.workload,
        traced: false,
        tally,
        metrics,
    })
}

/// The `q`-quantile of `samples` (in due order) as the median over
/// `windows` equal consecutive stretches of each stretch's quantile: one
/// stretch is the plain quantile; several keep one burst of host
/// interference from moving the figure.
fn windowed_quantile(samples: &[f64], q: f64, windows: usize) -> f64 {
    let size = samples.len().div_ceil(windows.max(1)).max(1);
    let per_window: Vec<f64> = samples.chunks(size).map(|w| quantile(w, q)).collect();
    median(&per_window)
}

/// The end-to-end metrics shared by both loops; the latency percentiles
/// are [`windowed_quantile`]s over `windows` stretches.
fn end_to_end(
    tally: &Tally,
    rate: (f64, usize),
    cpu: Duration,
    (verdict_ms, serve_ms): (&[f64], &[f64]),
    windows: usize,
) -> Vec<Metric> {
    let n = tally.attempted;
    let pct = |samples: &[f64], q: f64| windowed_quantile(samples, q, windows);
    vec![
        metric("programs_per_s", rate.0, "1/s", rate.1),
        metric(
            "cpu_ms_per_program",
            cpu.as_secs_f64() * 1000.0 / n as f64,
            "ms",
            n,
        ),
        metric("verdict_ms_p50", pct(verdict_ms, 0.5), "ms", n),
        metric("verdict_ms_p90", pct(verdict_ms, 0.9), "ms", n),
        metric("serve_ms_p50", pct(serve_ms, 0.5), "ms", n),
        metric("serve_ms_p90", pct(serve_ms, 0.9), "ms", n),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
        metric(
            "proved_ratio",
            tally.proved as f64 / tally.terminating as f64,
            "ratio",
            tally.terminating,
        ),
    ]
}

/// [`Workload::passes`] whole passes, sized to take about `--seconds`: a
/// fixed number of samples keeps the percentiles at the same rank from run
/// to run. In a closed loop a request is due when it is sent, so
/// `serve_ms` equals `verdict_ms`.
fn untraced_batch(args: &Args, mut plan: BatchPlan) -> (Tally, Vec<Metric>) {
    let selection = args.workload.selection();
    let tracer = Tracer::new(false);
    let cpu0 = process_cpu();
    let mut tally = Tally::default();
    let mut verdict_ms = Vec::new();
    let mut rates = Vec::new();
    for _ in 0..args.workload.passes(args.seconds) {
        let items = plan.next_pass();
        let pass = run_pass(&items, &selection, &tracer);
        rates.push(items.len() as f64 / pass.wall.as_secs_f64());
        verdict_ms.extend(pass.verdict_ms);
        merge(&mut tally, pass.tally);
    }
    let cpu = process_cpu() - cpu0;
    let metrics = end_to_end(
        &tally,
        (median(&rates), rates.len()),
        cpu,
        (&verdict_ms, &verdict_ms),
        1,
    );
    (tally, metrics)
}

fn untraced_serve(stream: &[ServeRequest]) -> Result<(Tally, Vec<Metric>), String> {
    let cpu0 = process_cpu();
    let session = serve_session(stream, false)?;
    let cpu = process_cpu() - cpu0;
    let mut responses: Vec<&Response> = session.responses.iter().collect();
    responses.sort_by(|a, b| a.due_ms.total_cmp(&b.due_ms));
    let verdict_ms: Vec<f64> = responses
        .iter()
        .map(|r| r.answered_ms - r.sent_ms)
        .collect();
    let serve_ms: Vec<f64> = responses.iter().map(|r| r.answered_ms - r.due_ms).collect();
    let rate = responses.len() as f64 / session.elapsed.as_secs_f64();
    let metrics = end_to_end(
        &session.tally,
        (rate, 1),
        cpu,
        (&verdict_ms, &serve_ms),
        SERVE_WINDOWS,
    );
    Ok((session.tally, metrics))
}

// ---------------------------------------------------------------------------
// The traced run.

/// Each engine alone over the distinct programs, under the same per-job
/// deadline (plus [`SOLO_DNF_GUARD`]).
struct Solo {
    /// `[engine][job]`: (verdict rank, wall ms of `run_selection`).
    runs: Vec<Vec<(u8, f64)>>,
    /// Σ counterexamples of the Termite engine's runs.
    termite_counterexamples: usize,
    /// Harness spans of the one preparation of each job.
    prep_events: Vec<Ev>,
    ir_sizes: [usize; 4],
}

fn solo_pass(items: &[Item]) -> Result<Solo, String> {
    let tracer = Tracer::new(true);
    let options = AnalysisOptions {
        max_eager_disjuncts: SOLO_DNF_GUARD,
        ..AnalysisOptions::default()
    };
    let mut solo = Solo {
        runs: vec![Vec::with_capacity(items.len()); ENGINES.len()],
        termite_counterexamples: 0,
        prep_events: Vec::new(),
        ir_sizes: [0; 4],
    };
    for item in items {
        let job = prepare(item, &tracer)?;
        add_ir_sizes(&mut solo.ir_sizes, &job);
        for (e, name) in ENGINES.iter().enumerate() {
            let selection = parse_selection(name)?;
            let t0 = Instant::now();
            let report: Option<TerminationReport> =
                race(&job, &selection, &options).ok().map(|out| out.report);
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            let rank = report.as_ref().map_or(0, |r| r.verdict.rank());
            if *name == "termite" {
                solo.termite_counterexamples += report.map_or(0, |r| r.stats.counterexamples);
            }
            solo.runs[e].push((rank, ms));
        }
    }
    solo.prep_events = tracer.take();
    Ok(solo)
}

/// What the traced pass measured, whichever loop ran it.
struct Traced {
    /// Jobs that ran an engine selection (cache hits excluded).
    engine_jobs: usize,
    events: Vec<Ev>,
    ir_sizes: [usize; 4],
    unproved_losers: f64,
    /// Σ wall of the selection calls on the distinct programs (ms).
    selection_ms: f64,
    /// Traced over untraced wall of the same work.
    overhead_ratio: f64,
    queue_wait_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    gen_lag_ms: Vec<f64>,
}

fn traced_run(args: &Args, plan: Plan) -> Result<RunResult, String> {
    let selection = args.workload.selection();
    let (tally, traced, distinct, solo) = match plan {
        Plan::Batch(mut plan) => {
            let items = plan.next_pass();
            let reference = run_pass(&items, &selection, &Tracer::new(false));
            let recorder = Arc::new(Recorder::new(termite_obs::SUITE_RING_CAPACITY));
            let tracer = Tracer::new(true);
            let pass = {
                let _guard = termite_obs::install(Arc::clone(&recorder));
                run_pass(&items, &selection, &tracer)
            };
            if recorder.dropped() > 0 {
                eprintln!(
                    "perfbench: the trace ring dropped {} events",
                    recorder.dropped()
                );
            }
            let mut events = tracer.take();
            events.extend(recorder.drain().iter().map(Ev::from_obs));
            let solo = solo_pass(&items)?;
            let traced = Traced {
                engine_jobs: items.len(),
                events,
                ir_sizes: pass.ir_sizes,
                unproved_losers: pass.unproved_losers as f64,
                selection_ms: reference.selection_ms.iter().sum(),
                overhead_ratio: pass.wall.as_secs_f64() / reference.wall.as_secs_f64(),
                queue_wait_ms: Vec::new(),
                hit_ms: Vec::new(),
                miss_ms: Vec::new(),
                gen_lag_ms: Vec::new(),
            };
            let mut tally = reference.tally;
            merge(&mut tally, pass.tally);
            (tally, traced, items, solo)
        }
        Plan::Serve(stream) => {
            let reference = serve_session(&stream, false)?;
            let session = serve_session(&stream, true)?;
            let mut distinct: Vec<Item> = Vec::new();
            for r in &stream {
                if !distinct.iter().any(|d| d.name == r.item.name) {
                    distinct.push(r.item.clone());
                }
            }
            let solo = solo_pass(&distinct)?;
            let mean_latency = |s: &Session| {
                s.responses
                    .iter()
                    .map(|r| r.answered_ms - r.due_ms)
                    .sum::<f64>()
                    / s.responses.len() as f64
            };
            let rs = &session.responses;
            let misses: Vec<&Response> = rs.iter().filter(|r| !r.from_cache).collect();
            let traced = Traced {
                engine_jobs: misses.len(),
                events: session.events.clone(),
                ir_sizes: solo.ir_sizes,
                unproved_losers: solo_unproved_losers(&solo),
                selection_ms: misses.iter().map(|r| r.wall_millis).sum(),
                overhead_ratio: mean_latency(&session) / mean_latency(&reference),
                queue_wait_ms: rs
                    .iter()
                    .map(|r| r.answered_ms - r.sent_ms - r.wall_millis)
                    .collect(),
                hit_ms: rs
                    .iter()
                    .filter(|r| r.from_cache)
                    .map(|r| r.answered_ms - r.sent_ms)
                    .collect(),
                miss_ms: misses.iter().map(|r| r.answered_ms - r.sent_ms).collect(),
                gen_lag_ms: rs.iter().map(|r| r.sent_ms - r.due_ms).collect(),
            };
            let mut tally = reference.tally;
            merge(&mut tally, session.tally);
            (tally, traced, distinct, solo)
        }
    };
    let metrics = per_layer(&traced, &distinct, &solo);
    write_trace(args, &traced.events, &solo.prep_events)?;
    Ok(RunResult {
        workload: args.workload,
        traced: true,
        tally,
        metrics,
    })
}

/// For `serve`, whose wire format does not report race losers: the engines
/// that ended without a proof on programs some engine proved outright, as
/// measured by the solo pass.
fn solo_unproved_losers(solo: &Solo) -> f64 {
    let jobs = solo.runs.first().map_or(0, Vec::len);
    (0..jobs)
        .filter(|&j| solo.runs.iter().any(|runs| runs[j].0 == 2))
        .map(|j| solo.runs.iter().filter(|runs| runs[j].0 == 0).count())
        .sum::<usize>() as f64
}

fn per_layer(traced: &Traced, distinct: &[Item], solo: &Solo) -> Vec<Metric> {
    let jobs = traced.engine_jobs.max(1) as f64;
    let n = traced.engine_jobs;
    let events = &traced.events;
    // Serve prepares programs inside its intake, out of the harness's
    // reach: there the solo pass's one preparation per program stands in.
    let harness: &[Ev] = if events.iter().any(|e| e.origin == Origin::Harness) {
        events
    } else {
        &solo.prep_events
    };
    let mean_ms = |name: &str| {
        let (ms, count) = total(harness, &[name]);
        (ms / count.max(1) as f64, count)
    };
    let [nodes_before, nodes_after, vars_before, vars_after] = traced.ir_sizes.map(|v| v as f64);

    let mut m = Vec::new();
    let (parse_ms, parses) = mean_ms("ir.parse");
    m.push(metric("ir.parse_ms", parse_ms, "ms", parses));
    let (opt_ms, opts) = mean_ms("ir.opt");
    m.push(metric("ir.opt_ms", opt_ms, "ms", opts));
    m.push(metric(
        "ir.nodes_ratio",
        nodes_after / nodes_before,
        "ratio",
        parses,
    ));
    m.push(metric(
        "ir.vars_ratio",
        vars_after / vars_before,
        "ratio",
        parses,
    ));

    let (prep_ms, preps) = mean_ms("invariants.prepare");
    m.push(metric("invariants.prepare_ms", prep_ms, "ms", preps));
    let (init_ms, inits) = total(events, &["invariant_init"]);
    let (refine_ms, refines) = total(events, &["invariant_refine"]);
    m.push(metric(
        "invariants.lane_ms",
        (init_ms + refine_ms) / jobs,
        "ms",
        n,
    ));
    m.push(metric(
        "invariants.computations_per_job",
        inits as f64 / jobs,
        "count",
        n,
    ));
    m.push(metric(
        "invariants.refinements",
        refines as f64 / jobs,
        "count",
        n,
    ));

    // Solo engines: wall, proofs and unique proofs over the distinct jobs.
    let best_rank: Vec<u8> = (0..distinct.len())
        .map(|j| solo.runs.iter().map(|r| r[j].0).max().unwrap_or(0))
        .collect();
    for (e, name) in ENGINES.iter().enumerate() {
        let runs = &solo.runs[e];
        let wall: f64 = runs.iter().map(|r| r.1).sum();
        let proved = runs.iter().filter(|r| r.0 > 0).count();
        let unique = (0..distinct.len())
            .filter(|&j| {
                runs[j].0 > 0
                    && runs[j].0 == best_rank[j]
                    && solo
                        .runs
                        .iter()
                        .enumerate()
                        .all(|(o, other)| o == e || other[j].0 < best_rank[j])
            })
            .count();
        m.push(metric(
            format!("core.{name}.solo_ms"),
            wall,
            "ms",
            runs.len(),
        ));
        m.push(metric(
            format!("core.{name}.proved"),
            proved as f64,
            "count",
            runs.len(),
        ));
        m.push(metric(
            format!("core.{name}.unique"),
            unique as f64,
            "count",
            runs.len(),
        ));
    }
    // Virtual best: per program, the fastest engine reaching the best rank
    // any engine reached.
    let virtual_best: f64 = (0..distinct.len())
        .map(|j| {
            solo.runs
                .iter()
                .filter(|r| r[j].0 == best_rank[j])
                .map(|r| r[j].1)
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    m.push(metric(
        "core.virtual_best_ms",
        virtual_best,
        "ms",
        distinct.len(),
    ));
    let iterations = events.iter().filter(|e| e.name == "cegis_iter").count();
    m.push(metric(
        "core.cegis_iterations",
        iterations as f64 / jobs,
        "count",
        n,
    ));
    m.push(metric(
        "core.counterexamples",
        solo.termite_counterexamples as f64 / distinct.len().max(1) as f64,
        "count",
        distinct.len(),
    ));

    let (smt_ms, queries) = total(events, &["smt_check", "smt_minimize"]);
    m.push(metric("smt.queries", queries as f64 / jobs, "count", n));
    m.push(metric("smt.ms", smt_ms / jobs, "ms", n));
    m.push(metric(
        "smt.ms_per_query",
        smt_ms / queries as f64,
        "ms",
        queries,
    ));

    let lp: Vec<&Ev> = events.iter().filter(|e| e.name == "lp_solve").collect();
    let pivots: f64 = lp.iter().filter_map(|e| e.arg("pivots")).sum();
    let warm = lp.iter().filter(|e| e.arg("warm") == Some(1.0)).count();
    let max_cols = lp.iter().filter_map(|e| e.arg("cols")).fold(0.0, f64::max);
    let (lp_ms, instances) = total(events, &["lp_solve"]);
    m.push(metric("lp.pivots", pivots / jobs, "count", n));
    m.push(metric("lp.instances", instances as f64 / jobs, "count", n));
    m.push(metric(
        "lp.warm_ratio",
        warm as f64 / instances as f64,
        "ratio",
        instances,
    ));
    m.push(metric("lp.max_cols", max_cols, "count", instances));
    m.push(metric("lp.solve_ms", lp_ms / jobs, "ms", n));

    m.push(metric(
        "driver.race_overhead_ratio",
        traced.selection_ms / virtual_best,
        "ratio",
        distinct.len(),
    ));
    m.push(metric(
        "driver.unproved_losers",
        traced.unproved_losers / jobs,
        "count",
        n,
    ));
    let waits = &traced.queue_wait_ms;
    m.push(metric(
        "driver.queue_wait_ms_p50",
        median(waits),
        "ms",
        waits.len(),
    ));

    let (hits, misses) = (traced.hit_ms.len(), traced.miss_ms.len());
    m.push(metric(
        "cache.hit_ratio",
        hits as f64 / (hits + misses) as f64,
        "ratio",
        hits + misses,
    ));
    m.push(metric(
        "cache.hit_ms_p50",
        median(&traced.hit_ms),
        "ms",
        hits,
    ));
    m.push(metric(
        "cache.miss_ms_p50",
        median(&traced.miss_ms),
        "ms",
        misses,
    ));
    m.push(metric(
        "obs.overhead_ratio",
        traced.overhead_ratio,
        "ratio",
        2,
    ));
    let lag = &traced.gen_lag_ms;
    m.push(metric(
        "bench.gen_lag_ms_p90",
        quantile(lag, 0.9),
        "ms",
        lag.len(),
    ));
    m
}

/// Writes the traced pass's spans (and the solo pass's preparation spans)
/// as one Chrome trace under [`TRACE_DIR`].
fn write_trace(args: &Args, events: &[Ev], prep: &[Ev]) -> Result<(), String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("creating {TRACE_DIR}: {e}"))?;
    let path = format!(
        "{TRACE_DIR}/{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    );
    let mut all = events.to_vec();
    if !events.iter().any(|e| e.origin == Origin::Harness) {
        all.extend_from_slice(prep);
    }
    std::fs::write(&path, trace::chrome_trace(&all)).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("perfbench: wrote {} events to {path}", all.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(expected: u8, control: bool) -> Item {
        Item {
            name: "p".to_string(),
            source: String::new(),
            expected,
            control,
        }
    }

    #[test]
    fn windowed_quantile_is_the_median_of_per_window_quantiles() {
        let xs = [1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 4.0, 5.0, 6.0];
        assert_eq!(windowed_quantile(&xs, 0.5, 1), 5.0);
        assert_eq!(windowed_quantile(&xs, 0.5, 3), 5.0);
        assert_eq!(windowed_quantile(&xs, 1.0, 3), 6.0);
    }

    #[test]
    fn answers_are_checked_against_the_known_answer() {
        let mut tally = Tally::default();
        tally.record(&item(2, false), Some((2, false)));
        tally.record(&item(1, false), Some((2, false)));
        assert_eq!((tally.missed, tally.proved), (0, 2), "at or above: no miss");
        tally.record(&item(2, false), Some((1, false)));
        tally.record(&item(0, true), Some((0, true)));
        tally.record(&item(2, false), None);
        assert_eq!(tally.missed, 3, "below, deadline hit and error all miss");
        assert!(tally.unsound.is_empty());
        tally.record(&item(0, true), Some((1, false)));
        assert_eq!(tally.unsound, ["p"], "a proved control is unsound");
        assert_eq!((tally.attempted, tally.terminating), (6, 4));
    }
}

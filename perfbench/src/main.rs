//! perfbench: end-to-end and per-layer benchmark of the fence-scoping
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload apps-stall|lockfree-busy|fuzz-sim|dist-campaigns|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop: one fixed batch submitted at once,
//! repeated for `--seconds`, with the median over batches reported.
//! `--trace 0` prints the end-to-end metrics (tracing off); `--trace 1`
//! runs one untraced batch, then traced batches, checks that both
//! produce the same outputs and prints the per-layer metrics. Every
//! output is checked against digests pinned in `pins.json`
//! (regenerate with `--pin`); a failed check counts the cell as failed
//! and never stops the run. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.
//!
//! Only `fuzz-sim` consumes the seed; the other workloads run the
//! registry's fixed Table IV inputs. See `README.md` for what each
//! workload is for and which layer metric should move which
//! end-to-end metric.

mod dist;
mod fuzz;
mod host;
mod model;
mod sweep;
mod trace;

use model::Model;
use sfence_harness::Json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use trace::{aggregate, median, tail, valid_metric_name, Span, Tracer};

pub const WORKLOADS: [&str; 4] = ["apps-stall", "lockfree-busy", "fuzz-sim", "dist-campaigns"];

/// Set-up is repeated up to this many times per run, and at least
/// three times, stopping once it has taken [`SETUP_BUDGET`]; the
/// median is reported.
const SETUP_REPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Fuzz seeds whose report digests are pinned.
pub const PINNED_SEEDS: std::ops::RangeInclusive<u64> = 0..=99;

/// A seed kept out of tuning: a later performance claim must also
/// hold with `--seed 7919`.
pub const HELD_OUT_SEED: u64 = 7919;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("cells_per_s", "1/s"),
    ("sim_mcycles_per_s", "Mcycle/s"),
    ("first_result_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Layers timed from outside, one span name per public call.
pub const SPAN_LAYERS: [&str; 11] = [
    "workloads.build",
    "workloads.check",
    "sim.new",
    "sim.run",
    "harness.job_key",
    "harness.cache_insert",
    "harness.report_json",
    "harness.enumerate",
    "harness.functional",
    "dist.submit",
    "dist.poll",
];

/// Per-span figures: `(suffix, unit)`.
const SPAN_FIGURES: [(&str, &str); 5] = [
    ("share", "ratio"),
    ("us_p50", "us"),
    ("us_tail", "us"),
    ("tail_pct", "pct"),
    ("calls", "count"),
];

/// Per-layer figures that are not span statistics, with units.
const OTHER_LAYER_METRICS: [(&str, &str); 23] = [
    ("sim.ns_per_cycle", "ns"),
    ("cpu.ipc", "instr/cycle"),
    ("cpu.fence_stall_share", "ratio"),
    ("cpu.rob_full_share", "ratio"),
    ("cpu.sb_full_share", "ratio"),
    ("mem.accesses", "count"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.l2_hit_ratio", "ratio"),
    ("mem.mem_miss_ratio", "ratio"),
    ("core.scoped_fences", "count"),
    ("core.degraded_share", "ratio"),
    ("core.fss_overflows", "count"),
    ("harness.enumerate.states", "count"),
    ("harness.idle_share", "ratio"),
    ("fuzz.skipped", "count"),
    ("fuzz.corpus_per_case", "ratio"),
    ("dist.lease_grant_ms_p50", "ms"),
    ("dist.lease_grant_ms_p99", "ms"),
    ("dist.tax_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.batches", "count"),
    ("host.slowdown", "ratio"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for span in SPAN_LAYERS {
        for (suffix, unit) in SPAN_FIGURES {
            out.push((format!("{span}.{suffix}"), unit));
        }
    }
    for (name, unit) in OTHER_LAYER_METRICS {
        out.push((name.to_string(), unit));
    }
    out
}

/// Digests pinned at the commit that defined the benchmark.
pub struct Pins(Json);

impl Pins {
    fn load() -> Pins {
        Pins(sfence_harness::json::parse(include_str!("../pins.json")).unwrap_or(Json::obj()))
    }

    /// Per-cell `RunReport` digests of a sweep workload, in job order.
    pub fn cells(&self, workload: &str) -> Vec<String> {
        self.0
            .get(workload)
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Merged-result digests of the daemon campaigns, by name.
    pub fn merges(&self, names: &[&str]) -> Vec<String> {
        let merges = self.0.get("dist-campaigns");
        names
            .iter()
            .map(|n| {
                merges
                    .and_then(|m| m.get(n))
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            })
            .collect()
    }

    /// The fuzz batch digest of `seed`, if pinned for this batch shape.
    pub fn fuzz(&self, seed: u64) -> Option<String> {
        let f = self.0.get("fuzz-sim")?;
        let shape = ["campaigns", "budget", "max_states"].map(|k| f.get(k).and_then(Json::as_u64));
        if shape
            != [
                fuzz::CAMPAIGNS,
                fuzz::BUDGET as u64,
                fuzz::MAX_STATES as u64,
            ]
            .map(Some)
        {
            return None;
        }
        Some(
            f.get("seeds")?
                .get(&seed.to_string())?
                .as_str()?
                .to_string(),
        )
    }
}

pub struct Ctx {
    pub threads: usize,
    pub seed: u64,
    pub pins: Pins,
    /// `tests/golden/sim_digests.json` at Eval scale, by
    /// `(workload, fence label)`.
    pub golden: HashMap<(String, &'static str), String>,
    work: PathBuf,
    dirs: AtomicUsize,
}

impl Ctx {
    /// A fresh, empty directory under this run's scratch space. The
    /// caller removes it once the batch that used it is checked.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = self.dirs.fetch_add(1, Ordering::Relaxed);
        let dir = self.work.join(format!("{tag}-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perfbench: creating {}: {e}", dir.display());
        }
        dir
    }
}

/// What one batch did and produced.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pub cells: usize,
    pub failed: usize,
    /// Simulated machine cycles in the batch's result rows.
    pub cycles: u64,
    /// Host seconds from submitting the batch to its last result.
    pub wall: f64,
    /// Host seconds until the first merged result was in hand.
    pub first_result: f64,
    /// Host seconds of each part, when a batch is the same parts run
    /// one after another every time; empty otherwise.
    pub parts: Vec<f64>,
    /// Reference kernel runs the workload made between its parts.
    pub host_runs: Vec<f64>,
    /// How much slower than nominal the host ran during the batch
    /// (see [`host`]); 0 when not measured.
    pub slowdown: f64,
    pub model: Model,
    /// Digest per checked output, compared between traced and
    /// untraced batches.
    pub outputs: Vec<Option<String>>,
    pub enum_states: u64,
    pub skipped: usize,
    pub corpus: usize,
    pub lease_grant_ms: (f64, f64),
    pub tax_share: f64,
}

pub trait Workload {
    /// Prepare the inputs; returns the seconds it took.
    fn setup(&mut self, ctx: &Ctx) -> Result<f64, String>;
    /// One batch; traced when `tracer` is enabled.
    fn batch(&mut self, ctx: &Ctx, tracer: &Tracer) -> Batch;
    /// Untimed work after the untraced batches: simulated cycles per
    /// batch when the batch could not count them, and failed cells.
    fn verify(&mut self, _ctx: &Ctx) -> (Option<u64>, usize) {
        (None, 0)
    }
    /// The digests to pin, computed from scratch.
    fn pin(&mut self, ctx: &Ctx) -> Result<Json, String>;
    /// Do the spans cover the worker threads (true) or only the
    /// client thread (false)?
    fn observes_threads(&self) -> bool {
        true
    }
    /// Threads the workload runs its cells on.
    fn threads(&self, ctx: &Ctx) -> usize {
        ctx.threads
    }
    /// Does the batch's wall time follow the host's speed? Its times
    /// are scaled to the nominal speed only if so.
    fn host_bound(&self) -> bool {
        true
    }
}

fn make(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "apps-stall" => Box::new(sweep::Sweep::new("apps-stall")),
        "lockfree-busy" => Box::new(sweep::Sweep::new("lockfree-busy")),
        "fuzz-sim" => Box::new(fuzz::Fuzz::new()),
        "dist-campaigns" => Box::new(dist::Dist::new()),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--pin" => args.pin = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.pin && args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Run git in the directory the benchmark runs from, if that is a git
/// checkout; a plain source tree reports `unknown`.
fn git(args: &[&str]) -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let cwd = std::env::current_dir().ok()?;
    let out = std::process::Command::new("git")
        .args(args)
        // Never describe a repository above the directory we run in.
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn stamp(args: &Args, threads: usize) -> String {
    let rev = git(&["rev-parse", "--short=12", "HEAD"]);
    let dirty = match &rev {
        Some(_) => git(&["status", "--porcelain", "--untracked-files=no"])
            .map_or("unknown".to_string(), |s| (!s.is_empty()).to_string()),
        None => "unknown".to_string(),
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "# perfbench workload={} seed={} held_out_seed={HELD_OUT_SEED} git={} dirty={dirty} \
         available_parallelism={parallelism} threads={threads} client_poll_ms={} \
         fuzz_campaigns={}x{} seconds={} trace={}",
        args.workload,
        args.seed,
        rev.as_deref().unwrap_or("unknown"),
        dist::CLIENT_POLL_MS,
        fuzz::CAMPAIGNS,
        fuzz::BUDGET,
        args.seconds,
        u8::from(args.trace),
    )
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeat batches until the next one would likely overrun `seconds`,
/// sampling the host's speed during each when `host_bound`; `threads`
/// is how many the batches run on.
fn measure(
    seconds: u64,
    threads: usize,
    host_bound: bool,
    mut batch: impl FnMut() -> Batch,
) -> Vec<Batch> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        // A single-threaded batch leaves a core to the kernel: sample
        // the calling thread's core around the batch, plus any runs the
        // workload made between its parts. Otherwise sample throughout.
        let (mut b, mut runs) = if !host_bound {
            (batch(), Vec::new())
        } else if threads <= 1 {
            let mut runs = host::sample();
            let b = batch();
            runs.extend(host::sample());
            (b, runs)
        } else {
            let sampler = host::Sampler::start();
            let b = batch();
            (b, sampler.finish())
        };
        runs.extend(&b.host_runs);
        if !runs.is_empty() {
            b.slowdown = host::slowdown(&runs);
        }
        eprintln!(
            "perfbench: batch {} cells {} failed {} wall_s {:.6} first_result_s {:.6} slowdown {:.6}",
            out.len(),
            b.cells,
            b.failed,
            b.wall,
            b.first_result,
            b.slowdown
        );
        out.push(b);
        let elapsed = start.elapsed();
        if elapsed + elapsed / out.len() as u32 > budget {
            return out;
        }
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// The batch that stands for a part-timed workload: the first batch,
/// with its wall (and first result) the sum of each part's median over
/// the batches. A host slow-down shorter than a batch then moves only
/// the parts it overlapped, and their medians filter it out. `None`
/// when the batches were not timed part by part.
fn typical_batch(batches: &[Batch]) -> Option<Batch> {
    let parts = batches.first()?.parts.len();
    if parts == 0 || batches.iter().any(|b| b.parts.len() != parts) {
        return None;
    }
    let wall: f64 = (0..parts)
        .map(|j| median(&batches.iter().map(|b| b.parts[j]).collect::<Vec<_>>()))
        .sum();
    Some(Batch {
        wall,
        first_result: wall,
        ..batches[0].clone()
    })
}

/// `b` with its times scaled to the nominal host speed.
fn at_nominal_speed(b: &Batch) -> Batch {
    let scale = if b.slowdown > 0.0 { b.slowdown } else { 1.0 };
    Batch {
        wall: b.wall / scale,
        first_result: b.first_result / scale,
        parts: b.parts.iter().map(|t| t / scale).collect(),
        ..b.clone()
    }
}

/// The end-to-end figures, from batch times scaled to the nominal
/// host speed.
fn end_to_end(batches: &[Batch], setups: &[f64], cycles_per_batch: Option<u64>) -> Vec<Metric> {
    let n = batches.len();
    let scaled: Vec<Batch> = batches.iter().map(at_nominal_speed).collect();
    let typical = typical_batch(&scaled);
    let timed = typical.as_ref().map_or(&scaled[..], std::slice::from_ref);
    let per = |f: &dyn Fn(&Batch) -> f64| median(&timed.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("cells_per_s", per(&|b| b.cells as f64 / b.wall), "1/s", n),
        metric(
            "sim_mcycles_per_s",
            per(&|b| cycles_per_batch.unwrap_or(b.cycles) as f64 / b.wall / 1e6),
            "Mcycle/s",
            n,
        ),
        metric("first_result_s", per(&|b| b.first_result), "s", n),
        metric("setup_s", median(setups), "s", setups.len()),
        metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ]
}

fn layer_metrics(
    spans: &[Span],
    batches: &[Batch],
    reference: &Batch,
    threads: usize,
    observes_threads: bool,
) -> Vec<Metric> {
    let n = batches.len();
    let wall: f64 = batches.iter().map(|b| b.wall).sum();
    // Thread-time the spans can cover: the sweep threads, or only the
    // client thread on the daemon workload.
    let lanes = if observes_threads { threads } else { 1 };
    let thread_ns = wall * 1e9 * lanes as f64;
    let stats = aggregate(spans);
    let mut out = Vec::new();
    for name in SPAN_LAYERS {
        let st = stats.get(name).cloned().unwrap_or_default();
        let (pct, tail_us) = tail(&st.durations_us).unwrap_or((0.0, 0.0));
        let calls = st.calls;
        out.push(metric(
            format!("{name}.share"),
            st.self_ns as f64 / thread_ns,
            "ratio",
            calls,
        ));
        out.push(metric(
            format!("{name}.us_p50"),
            median(&st.durations_us),
            "us",
            calls,
        ));
        out.push(metric(format!("{name}.us_tail"), tail_us, "us", calls));
        out.push(metric(format!("{name}.tail_pct"), pct, "pct", calls));
        out.push(metric(
            format!("{name}.calls"),
            calls as f64,
            "count",
            calls,
        ));
    }
    let run_ns: f64 = stats
        .get("sim.run")
        .map_or(0.0, |s| s.durations_us.iter().sum::<f64>() * 1000.0);
    let cycles: u64 = batches.iter().map(|b| b.model.cycles).sum();
    out.push(metric("sim.ns_per_cycle", run_ns / cycles as f64, "ns", n));
    let first = &batches[0];
    for ((name, value), (_, unit)) in first
        .model
        .metrics()
        .into_iter()
        .zip(&OTHER_LAYER_METRICS[1..])
    {
        out.push(metric(name, value, unit, 1));
    }
    out.push(metric(
        "harness.enumerate.states",
        first.enum_states as f64,
        "count",
        1,
    ));
    // Busy thread-time: cells and the serial steps directly under a
    // batch; the rest of the lanes' time waited on the slowest cell.
    let roots: Vec<bool> = spans.iter().map(|s| s.name == "batch").collect();
    let busy_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| roots[p]))
        .map(Span::dur)
        .sum();
    let selfs = trace::self_times(spans);
    let structural = |name: &str| {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum::<u64>() as f64
    };
    let idle = if observes_threads {
        1.0 - busy_ns as f64 / thread_ns
    } else {
        0.0
    };
    out.push(metric("harness.idle_share", idle, "ratio", n));
    out.push(metric("fuzz.skipped", first.skipped as f64, "count", 1));
    out.push(metric(
        "fuzz.corpus_per_case",
        first.corpus as f64 / first.cells.max(1) as f64,
        "ratio",
        1,
    ));
    let grant: Vec<(f64, f64)> = batches.iter().map(|b| b.lease_grant_ms).collect();
    out.push(metric(
        "dist.lease_grant_ms_p50",
        median(&grant.iter().map(|g| g.0).collect::<Vec<_>>()),
        "ms",
        n,
    ));
    out.push(metric(
        "dist.lease_grant_ms_p99",
        median(&grant.iter().map(|g| g.1).collect::<Vec<_>>()),
        "ms",
        n,
    ));
    out.push(metric(
        "dist.tax_share",
        median(&batches.iter().map(|b| b.tax_share).collect::<Vec<_>>()),
        "ratio",
        n,
    ));
    let traced_wall = median(&batches.iter().map(|b| b.wall).collect::<Vec<_>>());
    out.push(metric(
        "trace.overhead_share",
        (traced_wall - reference.wall) / reference.wall,
        "ratio",
        n + 1,
    ));
    // Time inside the workload's own structure that no layer call
    // covers: cell bodies on the sweeps, the client's waits between
    // calls on the daemon workload.
    let unattributed = if observes_threads {
        structural("cell")
    } else {
        structural("batch")
    };
    out.push(metric(
        "trace.unattributed_share",
        unattributed / thread_ns,
        "ratio",
        n,
    ));
    out.push(metric("trace.batches", n as f64, "count", n));
    out.push(metric(
        "host.slowdown",
        median(&batches.iter().map(|b| b.slowdown).collect::<Vec<_>>()),
        "ratio",
        n,
    ));
    out
}

fn run_one(args: &Args, ctx: &Ctx, mut w: Box<dyn Workload>) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < 3 || (setups.len() < SETUP_REPS && started.elapsed() < SETUP_BUDGET) {
        setups.push(w.setup(ctx)?);
    }
    let off = Tracer::new(false);
    let threads = w.threads(ctx);
    let host_bound = w.host_bound();
    if !args.trace {
        let batches = measure(args.seconds, threads, host_bound, || w.batch(ctx, &off));
        let (cycles, verify_failed) = w.verify(ctx);
        return Ok(Outcome {
            attempted: batches.iter().map(|b| b.cells).sum(),
            failed: batches.iter().map(|b| b.failed).sum::<usize>() + verify_failed,
            metrics: end_to_end(&batches, &setups, cycles),
        });
    }
    let reference = w.batch(ctx, &off);
    let tracer = Tracer::new(true);
    let batches = measure(args.seconds, threads, host_bound, || w.batch(ctx, &tracer));
    let spans = tracer.take();
    let dir = Path::new(".perfbench");
    let path = dir.join(format!("spans-{}.jsonl", args.workload));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, trace::spans_jsonl(&spans)))
    {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    // Traced outputs must equal the untraced ones.
    let mut failed = reference.failed;
    for b in &batches {
        failed += b.failed;
        let per_output = b.cells / b.outputs.len().max(1);
        let differing = b
            .outputs
            .iter()
            .zip(&reference.outputs)
            .filter(|(t, u)| t != u)
            .count();
        failed += (differing * per_output).min(b.cells - b.failed.min(b.cells));
    }
    Ok(Outcome {
        attempted: reference.cells + batches.iter().map(|b| b.cells).sum::<usize>(),
        failed,
        metrics: layer_metrics(&spans, &batches, &reference, threads, w.observes_threads()),
    })
}

fn print_outcome(o: &Outcome) {
    println!(
        "{:<34} {:>16} {:<12} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &o.metrics {
        println!(
            "{:<34} {:>16.6} {:<12} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("cells_failed {} of {} cells", o.failed, o.attempted);
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

/// `--workload all`: each workload in its own process, so peak memory
/// stays per workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn load_golden() -> Result<HashMap<(String, &'static str), String>, String> {
    let doc = sfence_harness::json::parse(include_str!("../../tests/golden/sim_digests.json"))?;
    Ok(sfence_bench::digests::parse_digests(&doc)?
        .into_iter()
        .filter(|r| r.scale == "eval")
        .map(|r| ((r.workload, r.fence), r.sha256))
        .collect())
}

fn pin_all(ctx: &Ctx) -> Result<Json, String> {
    let mut out = Json::obj();
    for name in WORKLOADS {
        let mut w = make(name).expect("registered workload");
        w.setup(ctx)?;
        eprintln!("perfbench: pinning {name}");
        out = out.field(name, w.pin(ctx)?);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let golden = match load_golden() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("perfbench: sim_digests.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        threads,
        seed: args.seed,
        pins: Pins::load(),
        golden,
        work: PathBuf::from(".perfbench").join(format!("work-{}", std::process::id())),
        dirs: AtomicUsize::new(0),
    };
    let result = if args.pin {
        pin_all(&ctx).map(|pins| {
            println!("{}", pins.to_string_pretty());
            None
        })
    } else {
        let w = make(&args.workload).expect("workload checked by parse_args");
        println!("{}", stamp(&args, w.threads(&ctx)));
        run_one(&args, &ctx, w).map(Some)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(Some(outcome)) => {
            debug_assert!(outcome.metrics.iter().all(|m| valid_metric_name(&m.name)));
            print_outcome(&outcome);
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists this binary prints are the ones BENCHMARK.json
    /// declares, and every name is valid.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let doc = sfence_harness::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        for (name, _) in e2e.iter().chain(&layers) {
            assert!(valid_metric_name(name), "{name}");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn part_timed_batches_sum_part_medians_at_nominal_speed() {
        let batch = |parts: &[f64], slowdown: f64| Batch {
            cells: 4,
            wall: parts.iter().sum(),
            parts: parts.to_vec(),
            slowdown,
            ..Batch::default()
        };
        // The parts' medians are 2 and 3, whichever batch each is from.
        let batches = [
            batch(&[1.0, 3.0], 1.0),
            batch(&[2.0, 9.0], 1.0),
            batch(&[3.0, 2.0], 1.0),
        ];
        let typical = typical_batch(&batches).unwrap();
        assert_eq!((typical.wall, typical.first_result), (5.0, 5.0));
        // A batch run while the host was twice as slow counts half.
        let slow = at_nominal_speed(&batch(&[4.0, 6.0], 2.0));
        assert_eq!((slow.wall, slow.parts), (5.0, vec![2.0, 3.0]));
        // Unmeasured host speed leaves the times as they are.
        assert_eq!(at_nominal_speed(&batch(&[4.0], 0.0)).wall, 4.0);
        // Batches not timed by parts, or with parts missing, have none.
        assert!(typical_batch(&[batch(&[], 1.0)]).is_none());
        assert!(typical_batch(&[batch(&[1.0], 1.0), batch(&[1.0, 2.0], 1.0)]).is_none());
    }

    #[test]
    fn model_metric_units_line_up() {
        let names: Vec<&str> = Model::default().metrics().iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = OTHER_LAYER_METRICS[1..=names.len()]
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names, declared);
    }
}

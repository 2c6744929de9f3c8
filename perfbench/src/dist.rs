//! `dist-campaigns`: one process hosts the sweep daemon (`run_server`
//! on a loopback ephemeral port, default options plus checkpointing),
//! one `worker::work` with a fresh cache directory, and one client
//! that submits seven campaigns at once and polls until every merge
//! is in. Each batch gets a fresh daemon and worker, so no campaign
//! state or cached cell carries over between batches.

use crate::trace::{cell_failures, Tracer};
use crate::{Batch, Ctx, Workload};
use sfence_bench::experiment_by_name;
use sfence_dist::{
    fetch_status, poll, run_server, submit, work, ClientOpts, ExperimentSpec, Poll, ServerOpts,
    ServerOutcome, WorkerOpts, WorkerSummary,
};
use sfence_harness::hash::sha256_hex;
use sfence_harness::{Json, RunOptions, SweepResult};
use sfence_obs::{HistogramSnapshot, MetricValue, MetricsReport};
use sfence_workloads::Scale;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The six hardware-sensitivity sweeps (ms-scale cells at Small
/// scale) and the sim-vs-functional litmus cross-section (µs-scale).
pub const CAMPAIGNS: [&str; 7] = [
    "hwsweep-rob",
    "hwsweep-sb",
    "hwsweep-fsb",
    "hwsweep-fss",
    "hwsweep-width",
    "hwsweep-l2",
    "backends",
];

/// The load generator's delay between poll rounds. Each poll is its
/// own connection, so the daemon's accept loop, not this delay,
/// dominates how soon a finished merge is seen.
pub const CLIENT_POLL_MS: u64 = 5;

/// A batch that has not merged everything by then is failed.
const BATCH_DEADLINE: Duration = Duration::from_secs(120);

fn spec(name: &str) -> ExperimentSpec {
    let scale = name.starts_with("hwsweep").then_some(Scale::Small);
    ExperimentSpec::new(name).scale(scale)
}

fn merge_digest(
    name: &str,
    job_count: usize,
    rows: Vec<sfence_harness::IndexedRow>,
) -> Option<String> {
    let merged = SweepResult::from_indexed(name, job_count, rows).ok()?;
    Some(sha256_hex(merged.to_json_string().as_bytes()))
}

struct Service {
    dir: std::path::PathBuf,
    addr: String,
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<Result<ServerOutcome, String>>,
    worker: JoinHandle<Result<WorkerSummary, String>>,
}

impl Service {
    /// Start the daemon and its worker, returning once the daemon has
    /// counted the worker's handshake.
    fn start(ctx: &Ctx) -> Result<Service, String> {
        let dir = ctx.fresh_dir("dist");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server_opts = ServerOpts {
            quiet: true,
            checkpoint: Some(dir.join("checkpoint.jsonl")),
            shutdown: Some(Arc::clone(&shutdown)),
            ..ServerOpts::default()
        };
        let server = std::thread::spawn(move || {
            run_server(
                &listener,
                Some(experiment_by_name),
                Vec::new(),
                &server_opts,
            )
        });
        let worker_opts = WorkerOpts {
            cache_dir: Some(dir.join("cache")),
            threads: ctx.threads,
            quiet: true,
            ..WorkerOpts::default()
        };
        let worker_addr = addr.clone();
        let worker =
            std::thread::spawn(move || work(&worker_addr, experiment_by_name, &worker_opts));
        let svc = Service {
            dir,
            addr,
            shutdown,
            server,
            worker,
        };
        let t0 = Instant::now();
        loop {
            let connected = fetch_status(&svc.addr, Duration::from_secs(5), None)
                .ok()
                .and_then(
                    |r| match r.get("workers_connected", &[]).map(|m| &m.value) {
                        Some(MetricValue::Counter(n)) => Some(*n),
                        _ => None,
                    },
                )
                .unwrap_or(0);
            if connected >= 1 {
                return Ok(svc);
            }
            if t0.elapsed() > Duration::from_secs(30) {
                svc.stop();
                return Err("worker never connected".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn status(&self) -> Option<MetricsReport> {
        fetch_status(&self.addr, Duration::from_secs(5), None).ok()
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Ok(Err(e)) = self.server.join() {
            eprintln!("perfbench: daemon: {e}");
        }
        // The worker's exit status is not a result: a worker that sees
        // the daemon close under it reports an error by design.
        let _ = self.worker.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Lease-grant latency (ms, p50 and p99) and worker busy time (ms)
/// from the daemon's status frame.
fn service_figures(status: &MetricsReport) -> (f64, f64, f64) {
    let mut grant = HistogramSnapshot::default();
    let mut busy_ms = 0.0;
    for m in &status.metrics {
        let MetricValue::Histogram(h) = &m.value else {
            continue;
        };
        let label = |k: &str| m.labels.iter().any(|(key, _)| key == k);
        if m.name == "lease_grant_ms" && label("campaign") {
            grant.merge(h);
        }
        if m.name == "cell_wall_ms" && label("worker") {
            busy_ms += h.sum;
        }
    }
    (grant.p50(), grant.p99(), busy_ms)
}

pub struct Dist {
    specs: Vec<(ExperimentSpec, usize)>,
    pins: Vec<String>,
}

impl Dist {
    pub fn new() -> Dist {
        Dist {
            specs: Vec::new(),
            pins: Vec::new(),
        }
    }

    fn cells(&self) -> usize {
        self.specs.iter().map(|(_, n)| n).sum()
    }
}

impl Workload for Dist {
    fn setup(&mut self, ctx: &Ctx) -> Result<f64, String> {
        self.specs = CAMPAIGNS
            .iter()
            .map(|name| {
                let s = spec(name);
                let jobs = s.resolve(experiment_by_name)?.job_count();
                Ok((s, jobs))
            })
            .collect::<Result<_, String>>()?;
        self.pins = ctx.pins.merges(&CAMPAIGNS);
        let t0 = Instant::now();
        let svc = Service::start(ctx)?;
        let setup = t0.elapsed().as_secs_f64();
        svc.stop();
        Ok(setup)
    }

    fn batch(&mut self, ctx: &Ctx, tracer: &Tracer) -> Batch {
        let starting = Instant::now();
        let svc = match Service::start(ctx) {
            Ok(svc) => svc,
            Err(e) => {
                eprintln!("perfbench: {e}");
                let wall = starting.elapsed().as_secs_f64();
                return Batch {
                    cells: self.cells(),
                    failed: self.cells(),
                    wall,
                    first_result: wall,
                    outputs: vec![None; self.specs.len()],
                    ..Batch::default()
                };
            }
        };
        let client = ClientOpts::default();
        let t0 = Instant::now();
        let root = tracer.open("batch", None, None);
        let mut tickets = Vec::new();
        for (i, (s, _)) in self.specs.iter().enumerate() {
            let ticket = tracer.time("dist.submit", root, Some(i), || {
                submit(&svc.addr, s, 1, &client)
            });
            tickets.push(
                ticket
                    .map_err(|e| eprintln!("perfbench: submit {}: {e}", s.experiment))
                    .ok(),
            );
        }
        let mut merged: Vec<Option<String>> = vec![None; self.specs.len()];
        let mut open: Vec<bool> = tickets.iter().map(Option::is_some).collect();
        let mut first_result = None;
        let mut cycles = 0;
        while open.contains(&true) && t0.elapsed() < BATCH_DEADLINE {
            for (i, (s, jobs)) in self.specs.iter().enumerate() {
                let Some(ticket) = tickets[i].as_ref().filter(|_| open[i]) else {
                    continue;
                };
                let answer = tracer.time("dist.poll", root, Some(i), || {
                    poll(&svc.addr, &ticket.campaign, &client)
                });
                match answer {
                    Ok(Poll::Running { .. }) => {}
                    Ok(Poll::Complete { rows, .. }) => {
                        open[i] = false;
                        first_result.get_or_insert(t0.elapsed().as_secs_f64());
                        cycles += rows.iter().filter_map(|r| r.row.cycles).sum::<u64>();
                        merged[i] = merge_digest(&s.experiment, *jobs, rows);
                    }
                    Err(e) => {
                        eprintln!("perfbench: poll {}: {e}", s.experiment);
                        open[i] = false;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(CLIENT_POLL_MS));
        }
        tracer.close(root);
        let wall = t0.elapsed().as_secs_f64();
        let figures = tracer
            .enabled()
            .then(|| svc.status())
            .flatten()
            .map(|s| service_figures(&s));
        svc.stop();
        let failed: usize = cell_failures(&self.pins, &merged)
            .iter()
            .zip(&self.specs)
            .filter(|(f, _)| **f)
            .map(|(_, (_, jobs))| jobs)
            .sum();
        let mut batch = Batch {
            cells: self.cells(),
            failed,
            cycles,
            wall,
            first_result: first_result.unwrap_or(wall),
            outputs: merged,
            ..Batch::default()
        };
        if let Some((p50, p99, busy_ms)) = figures {
            batch.lease_grant_ms = (p50, p99);
            batch.tax_share = 1.0 - busy_ms / (wall * 1000.0);
        }
        batch
    }

    fn pin(&mut self, ctx: &Ctx) -> Result<Json, String> {
        // The in-process result every daemon merge must equal.
        let mut out = Json::obj();
        for (s, jobs) in &self.specs {
            let e = s.resolve(experiment_by_name)?;
            let outcome = e.run_with(RunOptions::new(ctx.threads));
            let digest = merge_digest(&e.name, *jobs, outcome.rows)
                .ok_or_else(|| format!("{}: incomplete in-process run", e.name))?;
            out = out.field(&s.experiment, digest);
        }
        let b = self.batch(ctx, &Tracer::new(false));
        for (i, (s, _)) in self.specs.iter().enumerate() {
            if b.outputs[i].as_deref() != out.get(&s.experiment).and_then(Json::as_str) {
                return Err(format!(
                    "{}: daemon merge differs from in-process",
                    s.experiment
                ));
            }
        }
        Ok(out)
    }

    fn observes_threads(&self) -> bool {
        false
    }

    /// A batch mostly waits on the daemon's accept-loop and the
    /// client's poll timers, which a slower host does not lengthen:
    /// its wall time read within 3% across runs while the host's speed
    /// moved by a third.
    fn host_bound(&self) -> bool {
        false
    }
}

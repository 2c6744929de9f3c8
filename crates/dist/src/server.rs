//! The long-lived sweep service: one daemon, many concurrent
//! campaigns, many clients.
//!
//! The server keeps a *campaign table*: every `submit` registers a new
//! campaign (spec + priority weight + its own [`JobQueue`]), workers
//! lease cells across all running campaigns through the
//! [`crate::scheduler::FairShare`] scheduler, and `fetch` clients
//! poll campaigns by id and stream the merged rows once complete.
//! Three invariants hold throughout:
//!
//! - **Byte-identical merges.** Each campaign's rows are completed
//!   into its own queue and merged with
//!   `SweepResult::from_indexed`, exactly like a single-process
//!   `run_parallel()` — interleaving with other campaigns cannot
//!   perturb the output.
//! - **Kill-safe.** With `--checkpoint`, the campaign table (specs,
//!   priorities, fair-share accounting, done rows) is snapshotted to
//!   an atomic-rename JSONL file ([`crate::checkpoint`]); a restarted
//!   daemon resumes every in-flight campaign under the *same ids*.
//!   A checkpoint is forced before `submitted` is acked — and a
//!   submit whose forced snapshot cannot be written is rolled back
//!   and rejected — so a campaign the client knows about is never
//!   lost. Completed campaigns are retained until `retain_fetched_ms`
//!   after their rows were first fetched (never-fetched campaigns
//!   are kept), bounding a persistent daemon's memory and checkpoint
//!   growth.
//! - **Authenticated.** With a shared token configured, every
//!   opening message (`hello`, `submit`, `fetch`, `status_request`)
//!   must carry it; the comparison is constant-time
//!   ([`token_matches`]) so the token can't be guessed byte by byte
//!   from timing.

use crate::checkpoint::{self, CampaignSnapshot, Snapshot};
use crate::protocol::{
    write_msg, CampaignState, FrameError, FrameReader, Msg, PROTOCOL_VERSION, RESULT_CHUNK_ROWS,
};
use crate::scheduler::FairShare;
use crate::spec::{ExperimentSpec, Registry};
use sfence_harness::experiment::SweepRow;
use sfence_harness::json::Json;
use sfence_harness::{Experiment, IndexedRow, JobQueue, SCHEMA_VERSION};
use sfence_obs::log::{
    EventLog, LogLevel, RotatingWriter, DEFAULT_LOG_MAX_BYTES, DEFAULT_LOG_MAX_FILES,
};
use sfence_obs::MetricsReport;
use std::collections::BTreeMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A worker whose per-cell p99 exceeds this multiple of the fleet's
/// median per-cell latency is flagged as a straggler in the `status`
/// frame (`worker_straggler` gauge).
pub const STRAGGLER_FACTOR: f64 = 4.0;

/// Minimum per-worker sample count before straggler flagging kicks
/// in — a worker's first lease or two is warmup, not evidence.
pub const STRAGGLER_MIN_SAMPLES: u64 = 8;

/// Tunables of one [`run_server`] call.
#[derive(Debug, Clone)]
pub struct ServerOpts {
    /// Cells per lease when the worker doesn't ask for a batch size
    /// (`request.batch == 0`).
    pub default_lease: usize,
    /// Upper bound on `--lease-batch`: a worker may ask for at most
    /// this many cells per frame.
    pub max_lease: usize,
    /// How long a silent (non-heartbeating) worker keeps its leases.
    pub lease_ttl_ms: u64,
    /// Accept-loop poll / connection read-timeout granularity.
    pub poll_ms: u64,
    /// Back-off we tell a worker when everything is leased elsewhere.
    pub wait_ms: u64,
    /// Suppress per-connection progress lines on stderr.
    pub quiet: bool,
    /// Shared auth token. `None` = open daemon (loopback testing);
    /// `Some` = every opening message must present the same token.
    pub token: Option<String>,
    /// Snapshot file for kill/restart resume. `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Minimum interval between periodic snapshots. 0 = checkpoint
    /// after every mutation (slow, but the CI kill-test wants zero
    /// replay).
    pub checkpoint_every_ms: u64,
    /// Deadline for a connection's *opening* message. A peer that
    /// connects and says nothing (port scanner, half-open TCP) is
    /// dropped after this long instead of pinning a handler thread
    /// for the daemon's lifetime. 0 = wait forever.
    pub handshake_timeout_ms: u64,
    /// Retention for completed campaigns: evict a campaign (rows and
    /// all) this long after its merged rows were first successfully
    /// fetched, so a persistent daemon's memory and checkpoint don't
    /// grow without bound. Never-fetched campaigns are kept — a
    /// client that knows the id can always come back for it. 0 =
    /// keep everything forever.
    pub retain_fetched_ms: u64,
    /// Externally-set kill switch (tests, and `sfence-sweep
    /// --workers` once its campaign completes or every worker died).
    pub shutdown: Option<Arc<AtomicBool>>,
    /// Event logger for lifecycle events (stderr + optional JSONL
    /// file + flight recorder). `None` = the server builds a
    /// stderr-only logger whose verbosity follows `quiet`.
    pub log: Option<Arc<EventLog>>,
    /// Append a `MetricsReport` snapshot to this rotated JSONL file
    /// every `metrics_interval_ms`. `None` disables the history.
    pub metrics_log: Option<PathBuf>,
    /// Interval between metrics-history snapshots.
    pub metrics_interval_ms: u64,
    /// Rotation threshold for the metrics history file.
    pub metrics_max_bytes: u64,
}

impl Default for ServerOpts {
    fn default() -> ServerOpts {
        ServerOpts {
            default_lease: 4,
            max_lease: 1024,
            lease_ttl_ms: 30_000,
            poll_ms: 100,
            wait_ms: 200,
            quiet: false,
            token: None,
            checkpoint: None,
            checkpoint_every_ms: 1000,
            handshake_timeout_ms: 10_000,
            retain_fetched_ms: 600_000,
            shutdown: None,
            log: None,
            metrics_log: None,
            metrics_interval_ms: 10_000,
            metrics_max_bytes: DEFAULT_LOG_MAX_BYTES,
        }
    }
}

/// One completed-or-not campaign in the [`ServerOutcome`].
#[derive(Debug)]
pub struct FinishedCampaign {
    pub id: u64,
    pub experiment: String,
    pub job_count: usize,
    pub done: usize,
    pub complete: bool,
    /// Present only when complete: every job's row, index-tagged.
    pub rows: Vec<IndexedRow>,
}

/// What the server did over its lifetime, for `sfence-sweep
/// --workers` and tests.
#[derive(Debug)]
pub struct ServerOutcome {
    pub workers: u64,
    pub executed: u64,
    pub cache_hits: u64,
    pub released: u64,
    pub rejected: u64,
    pub campaigns: Vec<FinishedCampaign>,
    /// True when the table was empty or held an incomplete campaign
    /// at shutdown.
    pub aborted: bool,
}

/// Constant-time token check. The fold touches every byte of the
/// longer input regardless of where the first mismatch sits, so
/// response timing leaks nothing about the prefix a guess got right.
pub fn token_matches(expected: &str, presented: Option<&str>) -> bool {
    let presented = presented.unwrap_or("");
    let a = expected.as_bytes();
    let b = presented.as_bytes();
    let len = a.len().max(b.len());
    let mut diff = (a.len() ^ b.len()) as u8;
    for i in 0..len {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= x ^ y;
    }
    diff == 0
}

/// One live campaign: the resolved experiment's identity plus its
/// job queue. The [`Experiment`] itself is *not* stored — workers
/// resolve specs themselves; the server only needs job counts and
/// fingerprints.
struct Campaign {
    id: u64,
    spec: ExperimentSpec,
    /// `spec.to_json()`, pre-rendered once for lease frames.
    spec_json: sfence_harness::json::Json,
    priority: u64,
    fingerprint: String,
    job_count: usize,
    queue: JobQueue<SweepRow>,
    /// Server-clock ms when the campaign was registered (or restored).
    started_ms: u64,
    completed: bool,
    /// Server-clock ms of the first successful *complete* fetch —
    /// the retention clock. Not persisted: a restarted daemon starts
    /// the clock afresh, which only ever keeps campaigns longer.
    fetched_at_ms: Option<u64>,
}

impl Campaign {
    fn state(&self) -> CampaignState {
        if self.queue.is_complete() {
            CampaignState::Complete
        } else {
            CampaignState::Running
        }
    }

    fn public_id(&self) -> String {
        format!("c{}", self.id)
    }
}

/// Per-worker accounting behind the `status` frame.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStat {
    jobs: u64,
    executed: u64,
    cache_hits: u64,
}

/// Shared mutable state between the accept loop and the
/// per-connection handler threads.
struct Shared {
    next_campaign: u64,
    campaigns: BTreeMap<u64, Campaign>,
    scheduler: FairShare,
    workers: u64,
    executed: u64,
    cache_hits: u64,
    released: u64,
    rejected: u64,
    worker_stats: BTreeMap<String, WorkerStat>,
    /// Long-lived latency histograms (lease grant, per-cell wall
    /// time, frame handling, checkpoint saves), spliced into every
    /// `status` snapshot via [`sfence_obs::Registry::absorb`].
    hist: sfence_obs::Registry,
    /// Set on any mutation the checkpoint must capture; cleared on
    /// snapshot.
    dirty: bool,
    last_checkpoint_ms: u64,
}

impl Shared {
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            next_campaign: self.next_campaign,
            campaigns: self
                .campaigns
                .values()
                .map(|c| CampaignSnapshot {
                    id: c.id,
                    spec: c.spec.clone(),
                    priority: c.priority,
                    served: self.scheduler.served(c.id),
                    fingerprint: c.fingerprint.clone(),
                    job_count: c.job_count as u64,
                    queue: c.queue.to_json(SweepRow::to_json),
                })
                .collect(),
        }
    }

    /// Expire stale leases across every campaign's queue.
    fn expire_all(&mut self, now_ms: u64) -> usize {
        let mut expired = 0;
        for c in self.campaigns.values_mut() {
            expired += c.queue.expire(now_ms);
        }
        self.released += expired as u64;
        if expired > 0 {
            self.dirty = true;
        }
        expired
    }

    /// Release every lease `worker_key` holds, across all campaigns.
    fn release_worker(&mut self, worker_key: &str) -> usize {
        let mut released = 0;
        for c in self.campaigns.values_mut() {
            released += c.queue.release(worker_key);
        }
        self.released += released as u64;
        if released > 0 {
            self.dirty = true;
        }
        released
    }

    fn all_complete(&self) -> bool {
        !self.campaigns.is_empty() && self.campaigns.values().all(|c| c.queue.is_complete())
    }

    /// Evict completed campaigns whose rows were first fetched more
    /// than `retain_ms` ago (0 = never evict), returning their ids.
    /// Eviction marks the state dirty so the next snapshot drops
    /// them from the checkpoint too.
    fn evict_fetched(&mut self, now_ms: u64, retain_ms: u64) -> Vec<u64> {
        if retain_ms == 0 {
            return Vec::new();
        }
        let expired: Vec<u64> = self
            .campaigns
            .values()
            .filter(|c| c.queue.is_complete() && c.queue.leased() == 0)
            .filter(|c| {
                c.fetched_at_ms
                    .is_some_and(|t| now_ms.saturating_sub(t) >= retain_ms)
            })
            .map(|c| c.id)
            .collect();
        for &id in &expired {
            self.campaigns.remove(&id);
            self.scheduler.remove(id);
            self.dirty = true;
        }
        expired
    }
}

/// Build the live service snapshot a `status_request` probe gets
/// back. The aggregate series keep their v2 names (dashboards and CI
/// grep them); v3 adds per-campaign series labeled by campaign id,
/// latency histograms (`*_ms` series with p50/p95/p99 buckets), and
/// `worker_straggler` flags.
fn status_metrics(s: &Shared, elapsed_ms: u64) -> MetricsReport {
    let mut reg = sfence_obs::Registry::new();
    let totals = s.campaigns.values().fold((0, 0, 0, 0), |acc, c| {
        (
            acc.0 + c.queue.len(),
            acc.1 + c.queue.done(),
            acc.2 + c.queue.pending(),
            acc.3 + c.queue.leased(),
        )
    });
    reg.gauge("queue_jobs_total", &[], totals.0 as f64);
    reg.gauge("queue_done", &[], totals.1 as f64);
    reg.gauge("queue_pending", &[], totals.2 as f64);
    reg.gauge("queue_active_leases", &[], totals.3 as f64);
    reg.gauge("uptime_ms", &[], elapsed_ms as f64);
    let rate = |cells: u64, ms: u64| {
        let secs = ms as f64 / 1000.0;
        if secs > 0.0 {
            cells as f64 / secs
        } else {
            0.0
        }
    };
    reg.gauge("cells_per_sec", &[], rate(totals.1 as u64, elapsed_ms));
    reg.gauge(
        "campaigns_active",
        &[],
        s.campaigns
            .values()
            .filter(|c| !c.queue.is_complete())
            .count() as f64,
    );
    reg.gauge(
        "campaigns_completed",
        &[],
        s.campaigns
            .values()
            .filter(|c| c.queue.is_complete())
            .count() as f64,
    );
    reg.counter("workers_connected", &[], s.workers);
    reg.counter("cells_executed", &[], s.executed);
    reg.counter("cache_hits", &[], s.cache_hits);
    reg.counter("leases_released", &[], s.released);
    reg.counter("connections_rejected", &[], s.rejected);
    for c in s.campaigns.values() {
        let id = c.public_id();
        let labels = [("campaign", id.as_str())];
        let info_labels = [
            ("campaign", id.as_str()),
            ("experiment", c.spec.experiment.as_str()),
        ];
        reg.gauge("campaign_info", &info_labels, 1.0);
        reg.gauge("campaign_priority", &labels, c.priority as f64);
        reg.gauge("campaign_total", &labels, c.queue.len() as f64);
        reg.gauge("campaign_done", &labels, c.queue.done() as f64);
        reg.gauge("campaign_pending", &labels, c.queue.pending() as f64);
        reg.gauge("campaign_leased", &labels, c.queue.leased() as f64);
        reg.gauge(
            "campaign_complete",
            &labels,
            if c.queue.is_complete() { 1.0 } else { 0.0 },
        );
        let age_ms = elapsed_ms.saturating_sub(c.started_ms);
        reg.gauge(
            "campaign_cells_per_sec",
            &labels,
            rate(c.queue.done() as u64, age_ms),
        );
    }
    reg.gauge("campaigns_known", &[], s.campaigns.len() as f64);
    for (key, stat) in &s.worker_stats {
        let labels = [("worker", key.as_str())];
        reg.counter("worker_jobs", &labels, stat.jobs);
        reg.counter("worker_executed", &labels, stat.executed);
        reg.counter("worker_cache_hits", &labels, stat.cache_hits);
        reg.gauge("worker_cells_per_sec", &labels, rate(stat.jobs, elapsed_ms));
    }
    // Latency histograms accumulated since startup, plus straggler
    // flags derived from them: a worker whose per-cell p99 exceeds
    // STRAGGLER_FACTOR × the fleet's median per-cell p50 is flagged.
    reg.absorb(&s.hist);
    let mut fleet_p50s: Vec<f64> = s
        .worker_stats
        .keys()
        .filter_map(|key| s.hist.histogram_value("cell_wall_ms", &[("worker", key)]))
        .filter(|h| h.count > 0)
        .map(|h| h.p50())
        .collect();
    fleet_p50s.sort_by(|a, b| a.total_cmp(b));
    let fleet_median = if fleet_p50s.is_empty() {
        0.0
    } else {
        fleet_p50s[fleet_p50s.len() / 2]
    };
    for key in s.worker_stats.keys() {
        let Some(h) = s.hist.histogram_value("cell_wall_ms", &[("worker", key)]) else {
            continue;
        };
        let straggler = h.count >= STRAGGLER_MIN_SAMPLES
            && fleet_median > 0.0
            && h.p99() > STRAGGLER_FACTOR * fleet_median;
        reg.gauge(
            "worker_straggler",
            &[("worker", key.as_str())],
            if straggler { 1.0 } else { 0.0 },
        );
    }
    reg.snapshot("coordinator")
}

/// Snapshot to disk unconditionally (no-op when checkpointing is
/// off) and report failure to the caller. The caller decides what a
/// failure means: the submit ack path rolls back and rejects (the
/// client must never hold an id a restart would forget), periodic
/// callers log and let the next interval retry. Must be called with
/// the lock *held by the caller* — takes `&mut Shared` to make that
/// structural.
fn checkpoint_now(s: &mut Shared, opts: &ServerOpts, now_ms: u64) -> Result<(), String> {
    let Some(path) = &opts.checkpoint else {
        return Ok(());
    };
    let t0 = Instant::now();
    checkpoint::save(path, &s.snapshot())?;
    s.hist.observe(
        "checkpoint_save_ms",
        &[],
        t0.elapsed().as_secs_f64() * 1000.0,
    );
    s.dirty = false;
    s.last_checkpoint_ms = now_ms;
    Ok(())
}

/// Periodic snapshot: only when the state is dirty and the interval
/// elapsed. A failed periodic snapshot must not kill live campaigns;
/// the operator sees the complaint and the next interval retries.
fn maybe_checkpoint(s: &mut Shared, opts: &ServerOpts, now_ms: u64, log: &EventLog) {
    if opts.checkpoint.is_none() || !s.dirty {
        return;
    }
    if now_ms.saturating_sub(s.last_checkpoint_ms) < opts.checkpoint_every_ms {
        return;
    }
    match checkpoint_now(s, opts, now_ms) {
        Ok(()) => log.debug("checkpoint", &[]),
        Err(e) => log.error("checkpoint_fail", &[("err", &e)]),
    }
}

/// Run the service on `listener` until the shutdown flag flips.
///
/// `registry` resolves remotely-submitted experiment names; `None`
/// rejects `submit`. `initial` seeds the campaign table
/// (pre-registered campaigns in tests); campaigns restored from the
/// checkpoint come first and keep their original ids.
pub fn run_server(
    listener: &TcpListener,
    registry: Option<Registry>,
    initial: Vec<(ExperimentSpec, Experiment, u64)>,
    opts: &ServerOpts,
) -> Result<ServerOutcome, String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let start = Instant::now();
    let now_ms = || start.elapsed().as_millis() as u64;

    // Telemetry: the caller's logger, or a stderr-only one whose
    // verbosity follows `quiet` (preserving the pre-logger behavior
    // of the ad-hoc eprintln sites this replaced).
    let log: Arc<EventLog> = opts.log.clone().unwrap_or_else(|| {
        Arc::new(EventLog::to_stderr(
            "dist",
            if opts.quiet {
                None
            } else {
                Some(LogLevel::Info)
            },
        ))
    });
    let log = log.as_ref();

    let mut shared = Shared {
        next_campaign: 1,
        campaigns: BTreeMap::new(),
        scheduler: FairShare::new(),
        workers: 0,
        executed: 0,
        cache_hits: 0,
        released: 0,
        rejected: 0,
        worker_stats: BTreeMap::new(),
        hist: sfence_obs::Registry::new(),
        dirty: false,
        last_checkpoint_ms: 0,
    };

    // --- Restore from checkpoint ---------------------------------
    if let Some(path) = &opts.checkpoint {
        if let Some(loaded) = checkpoint::load(path)? {
            if loaded.fallback {
                log.warn(
                    "checkpoint_torn_fallback",
                    &[("prev", &format!("{}.prev", path.display()))],
                );
            }
            let snap = loaded.snapshot;
            if snap.schema_version != SCHEMA_VERSION {
                return Err(format!(
                    "checkpoint was written at schema {} but this binary speaks {SCHEMA_VERSION}",
                    snap.schema_version
                ));
            }
            shared.next_campaign = snap.next_campaign;
            for c in snap.campaigns {
                // Re-resolve the spec and insist the fingerprint
                // matches: done rows from a drifted binary cannot be
                // merged with rows this one would produce.
                if let Some(registry) = registry {
                    let experiment = c
                        .spec
                        .resolve(registry)
                        .map_err(|e| format!("checkpoint campaign c{}: {e}", c.id))?;
                    let fp = experiment.fingerprint();
                    if fp != c.fingerprint || experiment.job_count() as u64 != c.job_count {
                        return Err(format!(
                            "checkpoint campaign c{} ({:?}) was fingerprint {} but this \
                             binary resolves it to {fp}: refusing to merge drifted rows",
                            c.id, c.spec.experiment, c.fingerprint
                        ));
                    }
                }
                let queue = JobQueue::from_json(&c.queue, SweepRow::from_json)
                    .map_err(|e| format!("checkpoint campaign c{}: {e}", c.id))?;
                if queue.len() as u64 != c.job_count {
                    return Err(format!(
                        "checkpoint campaign c{}: queue has {} jobs, campaign says {}",
                        c.id,
                        queue.len(),
                        c.job_count
                    ));
                }
                log.info(
                    "resume",
                    &[
                        ("campaign", &format!("c{}", c.id)),
                        ("experiment", &c.spec.experiment),
                        ("done", &queue.done().to_string()),
                        ("total", &queue.len().to_string()),
                    ],
                );
                shared.scheduler.restore(c.id, c.priority.max(1), c.served);
                shared.campaigns.insert(
                    c.id,
                    Campaign {
                        id: c.id,
                        spec_json: c.spec.to_json(),
                        spec: c.spec,
                        priority: c.priority.max(1),
                        fingerprint: c.fingerprint,
                        job_count: c.job_count as usize,
                        queue,
                        started_ms: now_ms(),
                        completed: false,
                        fetched_at_ms: None,
                    },
                );
            }
        }
    }

    // --- Seed initial campaigns ----------------------------------
    for (spec, experiment, priority) in initial {
        let id = shared.next_campaign;
        shared.next_campaign += 1;
        let priority = priority.max(1);
        shared.scheduler.add(id, priority);
        shared.campaigns.insert(
            id,
            Campaign {
                id,
                spec_json: spec.to_json(),
                spec,
                priority,
                fingerprint: experiment.fingerprint(),
                job_count: experiment.job_count(),
                queue: JobQueue::new(experiment.job_count()),
                started_ms: now_ms(),
                completed: false,
                fetched_at_ms: None,
            },
        );
        shared.dirty = true;
    }
    // Campaigns the daemon starts with are part of the resume
    // contract from second zero: a daemon told to checkpoint but
    // unable to write its file fails fast instead of running with an
    // unsatisfiable resume promise.
    if shared.dirty {
        checkpoint_now(&mut shared, opts, now_ms())
            .map_err(|e| format!("initial checkpoint: {e}"))?;
    }

    // Metrics history: a rotated JSONL time-series of status
    // snapshots. Like the initial checkpoint, a daemon told to record
    // history but unable to open the file fails fast.
    let mut metrics_writer = match &opts.metrics_log {
        Some(path) => Some(
            RotatingWriter::open(path, opts.metrics_max_bytes, DEFAULT_LOG_MAX_FILES)
                .map_err(|e| format!("metrics log {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let mut last_metrics_ms: Option<u64> = None;

    let shared = Mutex::new(shared);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let mut conn_id: u64 = 0;
        loop {
            let mut metrics_line: Option<String> = None;
            {
                let mut s = shared.lock().unwrap();
                let expired = s.expire_all(now_ms());
                if expired > 0 {
                    log.info("re_lease", &[("count", &expired.to_string())]);
                }
                for id in s.evict_fetched(now_ms(), opts.retain_fetched_ms) {
                    log.info("evict", &[("campaign", &format!("c{id}"))]);
                }
                maybe_checkpoint(&mut s, opts, now_ms(), log);
                if metrics_writer.is_some()
                    && last_metrics_ms.is_none_or(|at| {
                        now_ms().saturating_sub(at) >= opts.metrics_interval_ms.max(1)
                    })
                {
                    metrics_line = Some(status_metrics(&s, now_ms()).to_json().to_string_compact());
                    last_metrics_ms = Some(now_ms());
                }
            }
            if let (Some(w), Some(line)) = (metrics_writer.as_mut(), metrics_line) {
                if let Err(e) = w.append_line(&line) {
                    log.error("metrics_log_fail", &[("err", &e.to_string())]);
                    metrics_writer = None;
                }
            }
            if matches!(&opts.shutdown, Some(flag) if flag.load(Ordering::SeqCst)) {
                stop.store(true, Ordering::SeqCst);
                break;
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    conn_id += 1;
                    let id = conn_id;
                    log.debug(
                        "conn_open",
                        &[("conn", &id.to_string()), ("peer", &peer.to_string())],
                    );
                    let shared = &shared;
                    let stop = &stop;
                    scope.spawn(move || {
                        handle_conn(stream, id, shared, stop, registry, opts, &now_ms, log);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(opts.poll_ms));
                }
                // Transient accept failures (e.g. a connection reset
                // while queued) must not kill the service.
                Err(_) => std::thread::sleep(Duration::from_millis(opts.poll_ms)),
            }
        }
        // Scope exit joins every handler thread; each notices the
        // stop flag within one read-timeout tick.
    });

    // Final snapshot: a clean shutdown resumes with zero replay.
    {
        let mut s = shared.lock().unwrap();
        if s.dirty {
            if let Err(e) = checkpoint_now(&mut s, opts, now_ms()) {
                log.error("checkpoint_fail", &[("phase", "final"), ("err", &e)]);
            }
        }
    }

    // Clients that raced the shutdown sit un-accepted in the listen
    // backlog; hand each a `done` so they exit cleanly. The drain
    // reads until the peer closes: dropping a socket with its unread
    // `hello` still buffered makes the kernel send RST, which can
    // discard the `done` before the peer reads it.
    while let Ok((mut stream, _)) = listener.accept() {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        if write_msg(&mut stream, &Msg::Done).is_ok() {
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let mut sink = [0u8; 1024];
            let deadline = Instant::now() + Duration::from_secs(1);
            while Instant::now() < deadline {
                match std::io::Read::read(&mut stream, &mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        }
    }

    let s = shared.into_inner().unwrap();
    let aborted = !s.all_complete();
    let campaigns = s
        .campaigns
        .into_values()
        .map(|c| {
            let done = c.queue.done();
            let complete = c.queue.is_complete();
            let rows = if complete {
                c.queue
                    .into_payloads()
                    .map(|payloads| {
                        payloads
                            .into_iter()
                            .enumerate()
                            .map(|(index, row)| IndexedRow { index, row })
                            .collect()
                    })
                    .unwrap_or_default()
            } else {
                Vec::new()
            };
            FinishedCampaign {
                id: c.id,
                experiment: c.spec.experiment,
                job_count: c.job_count,
                done,
                complete,
                rows,
            }
        })
        .collect();
    Ok(ServerOutcome {
        workers: s.workers,
        executed: s.executed,
        cache_hits: s.cache_hits,
        released: s.released,
        rejected: s.rejected,
        campaigns,
        aborted,
    })
}

/// Half-close after a final frame and linger until the peer closes.
/// A plain drop with unread peer bytes in the receive buffer (a late
/// heartbeat, say) sends RST, which can discard the buffered reply
/// before the peer reads it.
fn close_gracefully(writer: &TcpStream, reader: &mut FrameReader<TcpStream>, max_wait: Duration) {
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + max_wait;
    while Instant::now() < deadline {
        match reader.next_msg() {
            Ok(_) => {}
            Err(_) => break,
        }
    }
}

fn send_done(writer: &mut TcpStream, reader: &mut FrameReader<TcpStream>) {
    if write_msg(writer, &Msg::Done).is_ok() {
        close_gracefully(writer, reader, Duration::from_secs(1));
    }
}

fn disconnect_reason(e: FrameError) -> Option<String> {
    match e {
        FrameError::Eof => None,
        other => Some(other.to_string()),
    }
}

enum ReadStop {
    Shutdown,
    Dead(FrameError),
    /// The idle-window budget ran out with no frame received (only
    /// possible through [`read_msg_within`] with a nonzero budget).
    TimedOut,
}

/// Wait for a frame, tolerating at most `max_idle` read-timeout
/// windows of silence (0 = wait forever, i.e. until a frame, EOF, or
/// shutdown).
fn read_msg_within(
    reader: &mut FrameReader<TcpStream>,
    stop: &AtomicBool,
    max_idle: u64,
) -> Result<Msg, ReadStop> {
    let mut idle: u64 = 0;
    loop {
        match reader.next_msg() {
            Ok(Some(msg)) => return Ok(msg),
            Ok(None) => {
                if stop.load(Ordering::SeqCst) {
                    return Err(ReadStop::Shutdown);
                }
                idle += 1;
                if max_idle > 0 && idle >= max_idle {
                    return Err(ReadStop::TimedOut);
                }
            }
            Err(e) => return Err(ReadStop::Dead(e)),
        }
    }
}

fn read_msg(reader: &mut FrameReader<TcpStream>, stop: &AtomicBool) -> Result<Msg, ReadStop> {
    read_msg_within(reader, stop, 0)
}

#[allow(clippy::too_many_arguments)]
fn handle_conn(
    stream: TcpStream,
    conn_id: u64,
    shared: &Mutex<Shared>,
    stop: &AtomicBool,
    registry: Option<Registry>,
    opts: &ServerOpts,
    now_ms: &dyn Fn() -> u64,
    log: &EventLog,
) {
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(Duration::from_millis(opts.poll_ms.max(10))))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(stream);

    // Reject a connection at its opening message: count it, tell the
    // peer why, close. `event` distinguishes auth failures
    // ("auth_reject") from every other refusal ("reject") in the
    // structured log; the peer sees only the reason string we choose
    // to send, so a probing client can't learn more from the wire.
    let reject = |writer: &mut TcpStream,
                  reader: &mut FrameReader<TcpStream>,
                  reason: String,
                  event: &str,
                  why: &str| {
        let mut s = shared.lock().unwrap();
        s.rejected += 1;
        drop(s);
        log.warn(event, &[("conn", &conn_id.to_string()), ("why", why)]);
        if write_msg(writer, &Msg::Reject { reason }).is_ok() {
            close_gracefully(writer, reader, Duration::from_secs(1));
        }
    };
    let auth_ok = |token: &Option<String>| match &opts.token {
        None => true,
        Some(expected) => token_matches(expected, token.as_deref()),
    };

    // The opening message must arrive promptly: a peer that connects
    // and sends nothing (port scanner, half-open TCP) must not pin
    // this handler thread for the daemon's lifetime.
    let handshake_windows = if opts.handshake_timeout_ms == 0 {
        0
    } else {
        (opts.handshake_timeout_ms / opts.poll_ms.max(10)).max(1)
    };
    let first = match read_msg_within(&mut reader, stop, handshake_windows) {
        Ok(msg) => msg,
        Err(ReadStop::Shutdown) => {
            send_done(&mut writer, &mut reader);
            return;
        }
        Err(ReadStop::TimedOut) => {
            let mut s = shared.lock().unwrap();
            s.rejected += 1;
            drop(s);
            log.warn(
                "handshake_drop",
                &[
                    ("conn", &conn_id.to_string()),
                    ("timeout_ms", &opts.handshake_timeout_ms.to_string()),
                ],
            );
            return;
        }
        Err(ReadStop::Dead(e)) => {
            if let Some(why) = disconnect_reason(e) {
                let mut s = shared.lock().unwrap();
                s.rejected += 1;
                drop(s);
                log.warn(
                    "conn_drop",
                    &[("conn", &conn_id.to_string()), ("why", &why)],
                );
            }
            return;
        }
    };

    match first {
        // --- Worker flow -----------------------------------------
        Msg::Hello {
            schema_version,
            protocol_version,
            worker,
            token,
        } => {
            if !auth_ok(&token) {
                reject(
                    &mut writer,
                    &mut reader,
                    "bad token".into(),
                    "auth_reject",
                    "bad token",
                );
                return;
            }
            if schema_version != SCHEMA_VERSION || protocol_version != PROTOCOL_VERSION {
                reject(
                    &mut writer,
                    &mut reader,
                    format!(
                        "version mismatch: worker speaks schema {schema_version} / protocol \
                         {protocol_version}, coordinator speaks schema {SCHEMA_VERSION} / \
                         protocol {PROTOCOL_VERSION}"
                    ),
                    "reject",
                    "version mismatch",
                );
                return;
            }
            let worker_key = format!("{worker}#{conn_id}");
            if write_msg(
                &mut writer,
                &Msg::Welcome {
                    lease_ttl_ms: opts.lease_ttl_ms,
                },
            )
            .is_err()
            {
                return;
            }
            {
                let mut s = shared.lock().unwrap();
                s.workers += 1;
            }
            log.info("worker_ready", &[("worker", &worker_key)]);
            worker_loop(
                &worker_key,
                &mut writer,
                &mut reader,
                shared,
                stop,
                opts,
                now_ms,
                log,
            );
        }

        // --- Submit flow -----------------------------------------
        Msg::Submit {
            token,
            spec,
            priority,
        } => {
            if !auth_ok(&token) {
                reject(
                    &mut writer,
                    &mut reader,
                    "bad token".into(),
                    "auth_reject",
                    "bad token",
                );
                return;
            }
            let Some(registry) = registry else {
                reject(
                    &mut writer,
                    &mut reader,
                    "this coordinator has no experiment registry and does not accept \
                     submissions"
                        .into(),
                    "reject",
                    "submit without a registry",
                );
                return;
            };
            let spec = match ExperimentSpec::from_json(&spec) {
                Ok(spec) => spec,
                Err(e) => {
                    reject(&mut writer, &mut reader, e.clone(), "reject", &e);
                    return;
                }
            };
            let experiment = match spec.resolve(registry) {
                Ok(e) => e,
                Err(e) => {
                    reject(&mut writer, &mut reader, e.clone(), "reject", &e);
                    return;
                }
            };
            let fingerprint = experiment.fingerprint();
            let job_count = experiment.job_count();
            let priority = priority.max(1);
            let reply = {
                let mut s = shared.lock().unwrap();
                let id = s.next_campaign;
                let was_dirty = s.dirty;
                s.next_campaign += 1;
                s.scheduler.add(id, priority);
                s.campaigns.insert(
                    id,
                    Campaign {
                        id,
                        spec_json: spec.to_json(),
                        spec,
                        priority,
                        fingerprint: fingerprint.clone(),
                        job_count,
                        queue: JobQueue::new(job_count),
                        started_ms: now_ms(),
                        completed: false,
                        fetched_at_ms: None,
                    },
                );
                s.dirty = true;
                // Force the snapshot *before* acking: once the client
                // holds the campaign id, a daemon restart must not
                // have forgotten it. If the save fails that invariant
                // is unsatisfiable, so roll the campaign back and
                // reject — never ack an id a restart would forget.
                match checkpoint_now(&mut s, opts, now_ms()) {
                    Ok(()) => {
                        log.info(
                            "submit",
                            &[
                                ("campaign", &format!("c{id}")),
                                ("experiment", &s.campaigns[&id].spec.experiment),
                                ("jobs", &job_count.to_string()),
                                ("priority", &priority.to_string()),
                            ],
                        );
                        Msg::Submitted {
                            campaign: format!("c{id}"),
                            job_count: job_count as u64,
                            fingerprint,
                        }
                    }
                    Err(e) => {
                        s.campaigns.remove(&id);
                        s.scheduler.remove(id);
                        s.next_campaign = id;
                        s.dirty = was_dirty;
                        s.rejected += 1;
                        log.error(
                            "submit_reject",
                            &[("conn", &conn_id.to_string()), ("err", &e)],
                        );
                        Msg::Reject {
                            reason: format!("coordinator cannot persist the campaign: {e}"),
                        }
                    }
                }
            };
            if write_msg(&mut writer, &reply).is_ok() {
                close_gracefully(&writer, &mut reader, Duration::from_secs(1));
            }
        }

        // --- Fetch flow ------------------------------------------
        Msg::Fetch { token, campaign } => {
            if !auth_ok(&token) {
                reject(
                    &mut writer,
                    &mut reader,
                    "bad token".into(),
                    "auth_reject",
                    "bad token",
                );
                return;
            }
            let parsed_id = campaign
                .strip_prefix('c')
                .and_then(|rest| rest.parse::<u64>().ok());
            // Collect everything under the lock, send outside it:
            // result chunks for a big campaign are many frames and
            // must not stall the lease path.
            enum Fetched {
                Unknown,
                Running { done: u64, total: u64 },
                Complete { rows: Vec<IndexedRow>, total: u64 },
            }
            let fetched = {
                let s = shared.lock().unwrap();
                match parsed_id.and_then(|id| s.campaigns.get(&id)) {
                    None => Fetched::Unknown,
                    Some(c) if c.state() == CampaignState::Running => Fetched::Running {
                        done: c.queue.done() as u64,
                        total: c.queue.len() as u64,
                    },
                    Some(c) => Fetched::Complete {
                        rows: c
                            .queue
                            .done_payloads()
                            .map(|(index, row)| IndexedRow {
                                index,
                                row: row.clone(),
                            })
                            .collect(),
                        total: c.queue.len() as u64,
                    },
                }
            };
            let was_complete = matches!(fetched, Fetched::Complete { .. });
            let ok = match fetched {
                Fetched::Unknown => {
                    reject(
                        &mut writer,
                        &mut reader,
                        format!("unknown campaign {campaign:?}"),
                        "reject",
                        "unknown campaign",
                    );
                    return;
                }
                Fetched::Running { done, total } => write_msg(
                    &mut writer,
                    &Msg::CampaignStatus {
                        campaign,
                        state: CampaignState::Running,
                        done,
                        total,
                    },
                )
                .is_ok(),
                Fetched::Complete { rows, total } => {
                    let mut ok = true;
                    for chunk in rows.chunks(RESULT_CHUNK_ROWS) {
                        ok = write_msg(
                            &mut writer,
                            &Msg::Result {
                                campaign: campaign.clone(),
                                rows: chunk.to_vec(),
                                executed: 0,
                                cache_hits: 0,
                                wall_ms: 0.0,
                            },
                        )
                        .is_ok();
                        if !ok {
                            break;
                        }
                    }
                    ok && write_msg(
                        &mut writer,
                        &Msg::CampaignStatus {
                            campaign,
                            state: CampaignState::Complete,
                            done: total,
                            total,
                        },
                    )
                    .is_ok()
                }
            };
            if ok {
                // The rows were delivered: start the retention clock
                // (first successful fetch only).
                if was_complete {
                    let mut s = shared.lock().unwrap();
                    if let Some(c) = parsed_id.and_then(|id| s.campaigns.get_mut(&id)) {
                        c.fetched_at_ms.get_or_insert(now_ms());
                    }
                }
                close_gracefully(&writer, &mut reader, Duration::from_secs(1));
            }
        }

        // --- Probe flow ------------------------------------------
        Msg::StatusRequest { token } => {
            if !auth_ok(&token) {
                reject(
                    &mut writer,
                    &mut reader,
                    "bad token".into(),
                    "auth_reject",
                    "bad token",
                );
                return;
            }
            let report = {
                let s = shared.lock().unwrap();
                status_metrics(&s, now_ms())
            };
            log.debug("status_probe", &[("conn", &conn_id.to_string())]);
            if write_msg(
                &mut writer,
                &Msg::Status {
                    metrics: report.to_json(),
                },
            )
            .is_ok()
            {
                close_gracefully(&writer, &mut reader, Duration::from_secs(1));
            }
        }

        // --- Flight-recorder dump --------------------------------
        Msg::DumpRequest { token } => {
            if !auth_ok(&token) {
                reject(
                    &mut writer,
                    &mut reader,
                    "bad token".into(),
                    "auth_reject",
                    "bad token",
                );
                return;
            }
            let (events, dropped) = log.recent_with_dropped();
            log.debug(
                "dump_probe",
                &[
                    ("conn", &conn_id.to_string()),
                    ("events", &events.len().to_string()),
                ],
            );
            let reply = Msg::DumpReply {
                events: Json::Arr(events.iter().map(|e| e.to_json()).collect()),
                dropped,
            };
            if write_msg(&mut writer, &reply).is_ok() {
                close_gracefully(&writer, &mut reader, Duration::from_secs(1));
            }
        }

        other => {
            reject(
                &mut writer,
                &mut reader,
                format!("expected hello/submit/fetch/status_request/debug_dump, got {other:?}"),
                "reject",
                "bad opening message",
            );
        }
    }
}

/// The post-handshake worker conversation: requests become leases
/// picked by the fair-share scheduler, results land in their
/// campaign's queue, heartbeats extend leases across every campaign.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    worker_key: &str,
    writer: &mut TcpStream,
    reader: &mut FrameReader<TcpStream>,
    shared: &Mutex<Shared>,
    stop: &AtomicBool,
    opts: &ServerOpts,
    now_ms: &dyn Fn() -> u64,
    log: &EventLog,
) {
    // Per-connection cleanup: drop the worker's leases back into the
    // pool (no-op if it held none) and account the disconnect.
    let finish = |torn: Option<String>| {
        let mut s = shared.lock().unwrap();
        let released = s.release_worker(worker_key);
        if torn.is_some() {
            s.rejected += 1;
        }
        drop(s);
        match torn {
            Some(why) => log.warn(
                "worker_drop",
                &[
                    ("worker", worker_key),
                    ("why", &why),
                    ("released", &released.to_string()),
                ],
            ),
            None if released > 0 => log.info(
                "worker_drop",
                &[("worker", worker_key), ("released", &released.to_string())],
            ),
            None => {}
        }
    };

    loop {
        let msg = match read_msg(reader, stop) {
            Ok(msg) => msg,
            Err(ReadStop::Shutdown) => {
                send_done(writer, reader);
                finish(None);
                return;
            }
            // Unreachable with an unbounded read; drop defensively.
            Err(ReadStop::TimedOut) => {
                finish(None);
                return;
            }
            Err(ReadStop::Dead(e)) => {
                finish(disconnect_reason(e));
                return;
            }
        };
        let frame_t0 = Instant::now();
        let mut frame_kind: Option<&'static str> = None;
        let reply = match msg {
            // A stopping server answers `done` instead of a lease. The
            // read-timeout path below can't be the only stop check: a
            // worker cycling request/wait keeps the socket warm, so an
            // idle window may never open.
            Msg::Request { .. } if stop.load(Ordering::SeqCst) => Some(Msg::Done),
            Msg::Request { batch } => {
                frame_kind = Some("request");
                let want = if batch == 0 {
                    opts.default_lease
                } else {
                    (batch as usize).min(opts.max_lease)
                }
                .max(1);
                let mut s = shared.lock().unwrap();
                // Fair-share pick among campaigns with pending cells;
                // the whole batch comes from one campaign so the
                // lease frame carries one spec.
                let now = now_ms();
                let picked = {
                    let campaigns = &s.campaigns;
                    s.scheduler
                        .pick(|id| campaigns.get(&id).is_some_and(|c| c.queue.pending() > 0))
                };
                match picked {
                    None => Some(Msg::Wait { ms: opts.wait_ms }),
                    Some(id) => {
                        let lease_ttl = opts.lease_ttl_ms;
                        let c = s.campaigns.get_mut(&id).expect("picked campaign exists");
                        let jobs = c.queue.lease(worker_key, want, now, lease_ttl);
                        let msg = Msg::Lease {
                            campaign: c.public_id(),
                            spec: c.spec_json.clone(),
                            fingerprint: c.fingerprint.clone(),
                            job_count: c.job_count as u64,
                            jobs: jobs.clone(),
                        };
                        let cid = c.public_id();
                        s.scheduler.charge(id, jobs.len() as u64);
                        s.dirty = true;
                        // Grant latency: how long the scheduler + queue
                        // held this request frame.
                        let grant_ms = frame_t0.elapsed().as_secs_f64() * 1000.0;
                        s.hist
                            .observe("lease_grant_ms", &[("campaign", &cid)], grant_ms);
                        s.hist
                            .observe("lease_grant_ms", &[("worker", worker_key)], grant_ms);
                        drop(s);
                        log.debug("lease", &[("worker", worker_key), ("campaign", &cid)]);
                        Some(msg)
                    }
                }
            }
            Msg::Result {
                campaign,
                rows,
                executed,
                cache_hits,
                wall_ms,
            } => {
                frame_kind = Some("result");
                let parsed_id = campaign
                    .strip_prefix('c')
                    .and_then(|rest| rest.parse::<u64>().ok());
                let mut s = shared.lock().unwrap();
                let Some(id) = parsed_id.filter(|id| s.campaigns.contains_key(id)) else {
                    drop(s);
                    finish(Some(format!("result for unknown campaign {campaign:?}")));
                    return;
                };
                let rows_n = rows.len();
                let stat = s.worker_stats.entry(worker_key.to_string()).or_default();
                stat.jobs += rows_n as u64;
                stat.executed += executed;
                stat.cache_hits += cache_hits;
                let c = s.campaigns.get_mut(&id).expect("checked above");
                for row in rows {
                    match c.queue.complete(row.index, row.row) {
                        // Ok(false): a re-leased job came back twice —
                        // deterministic engines make the copies
                        // identical, so the duplicate is just dropped.
                        Ok(_) => {}
                        Err(e) => {
                            drop(s);
                            finish(Some(e));
                            return;
                        }
                    }
                }
                let newly_complete = c.queue.is_complete() && !c.completed;
                if newly_complete {
                    c.completed = true;
                }
                let (id_str, done, total) = (c.public_id(), c.queue.done(), c.queue.len());
                s.executed += executed;
                s.cache_hits += cache_hits;
                s.dirty = true;
                // Per-cell wall time, worker-measured: spread the
                // batch's wall clock evenly over its cells so the
                // histograms weight by cell, not by batch.
                if wall_ms > 0.0 && rows_n > 0 {
                    let per_cell = wall_ms / rows_n as f64;
                    for _ in 0..rows_n {
                        s.hist
                            .observe("cell_wall_ms", &[("campaign", &id_str)], per_cell);
                        s.hist
                            .observe("cell_wall_ms", &[("worker", worker_key)], per_cell);
                    }
                }
                maybe_checkpoint(&mut s, opts, now_ms(), log);
                drop(s);
                if newly_complete {
                    log.info(
                        "complete",
                        &[
                            ("campaign", &id_str),
                            ("done", &done.to_string()),
                            ("total", &total.to_string()),
                        ],
                    );
                }
                None
            }
            Msg::Heartbeat => {
                let mut s = shared.lock().unwrap();
                let now = now_ms();
                let ttl = opts.lease_ttl_ms;
                for c in s.campaigns.values_mut() {
                    c.queue.heartbeat(worker_key, now, ttl);
                }
                None
            }
            // A worker that cannot run a leased campaign (unknown
            // experiment, drifted fingerprint) bows out; its leases
            // re-queue for a worker that can.
            Msg::Abort { reason } => {
                finish(Some(format!("worker aborted: {reason}")));
                return;
            }
            other => {
                finish(Some(format!("unexpected message in lease loop: {other:?}")));
                return;
            }
        };
        // Coordinator-side handling cost of the frame (lock waits,
        // queue mutation, checkpoint), labeled by frame kind.
        if let Some(kind) = frame_kind {
            let mut s = shared.lock().unwrap();
            s.hist.observe(
                "frame_handle_ms",
                &[("frame", kind)],
                frame_t0.elapsed().as_secs_f64() * 1000.0,
            );
        }
        if let Some(reply) = reply {
            let done = reply == Msg::Done;
            if write_msg(writer, &reply).is_err() {
                finish(None);
                return;
            }
            if done {
                close_gracefully(writer, reader, Duration::from_secs(1));
                finish(None);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_comparison_accepts_only_the_exact_token() {
        assert!(token_matches("secret", Some("secret")));
        assert!(!token_matches("secret", Some("secret2")));
        assert!(!token_matches("secret", Some("secre")));
        assert!(!token_matches("secret", Some("")));
        assert!(!token_matches("secret", None));
        assert!(token_matches("", Some("")));
        assert!(
            token_matches("", None),
            "no token presented matches the empty token"
        );
    }
}

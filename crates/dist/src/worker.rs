//! The worker: connects to a coordinator, leases cells across any
//! number of concurrent campaigns, and executes them through the
//! ordinary [`Experiment::run_with`](sfence_harness::Experiment::run_with)
//! machinery — with an optional worker-local result cache, so a
//! re-run (or a checkpoint-resumed replay) of a campaign executes
//! zero cells on every worker that has seen them before.
//!
//! Since protocol v3 each `lease` frame carries its campaign's spec
//! and fingerprint; the worker resolves each campaign the first time
//! it sees its id and keeps the resolved [`Experiment`] for later
//! leases — re-checking the frame's fingerprint against the cached
//! one on every lease, because the id→experiment binding is only
//! stable while one daemon's state lives (a daemon restarted without
//! its checkpoint reissues ids from `c1` for whatever is submitted
//! next). A heartbeat thread keeps leases alive while cells execute,
//! and a reconnect loop with capped exponential backoff + jitter
//! (`--reconnect`) rides out coordinator restarts, so checkpoint
//! resume is hands-off end to end.

use crate::protocol::{
    write_msg, FrameError, FrameReader, Msg, PROTOCOL_VERSION, RESULT_CHUNK_ROWS,
};
use crate::spec::{ExperimentSpec, Registry};
use sfence_harness::{host_token, Experiment, ResultCache, RunOptions, SCHEMA_VERSION};
use sfence_obs::log::{EventLog, LogLevel};
use sfence_workloads::support::Prng;
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables of one [`work`] call.
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    /// Worker-local content-addressed result cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Threads for executing a lease's cells (0 = one per CPU, capped
    /// by the lease size).
    pub threads: usize,
    /// Heartbeat interval; must be well under the coordinator's lease
    /// TTL.
    pub heartbeat_ms: u64,
    /// Worker name sent in the handshake (default: host token + pid).
    pub name: Option<String>,
    /// Consecutive read-timeout windows tolerated before concluding
    /// the coordinator is gone. Each window is `read_timeout_ms` long.
    pub max_idle_windows: u32,
    /// Read timeout granularity.
    pub read_timeout_ms: u64,
    /// Suppress per-lease progress lines on stderr.
    pub quiet: bool,
    /// Emit a throttled progress line on stderr.
    pub progress: bool,
    /// Shared auth token presented in the handshake.
    pub token: Option<String>,
    /// Cells requested per lease (`--lease-batch`); 0 = let the
    /// coordinator pick its default.
    pub lease_batch: u64,
    /// Connection attempts after a lost coordinator before giving up
    /// (`--reconnect`); 0 = exit on the first loss (the v2 behavior).
    /// The counter resets on every completed handshake, so a worker
    /// that outlives many coordinator restarts never exhausts it.
    pub reconnect_attempts: u32,
    /// First reconnect delay; doubles per consecutive failure.
    pub reconnect_base_ms: u64,
    /// Reconnect delay ceiling.
    pub reconnect_cap_ms: u64,
    /// Exit cleanly once this long has passed since the session began
    /// or the last lease finished, with only `wait` replies since; 0 =
    /// keep asking forever. Lets a daemon-attached worker drain away
    /// once its campaigns finish.
    pub idle_exit_ms: u64,
    /// Event logger for worker lifecycle events. `None` = the worker
    /// builds a stderr-only logger whose verbosity follows `quiet` /
    /// `progress`.
    pub log: Option<Arc<EventLog>>,
}

impl Default for WorkerOpts {
    fn default() -> WorkerOpts {
        WorkerOpts {
            cache_dir: None,
            threads: 0,
            heartbeat_ms: 1000,
            name: None,
            max_idle_windows: 120,
            read_timeout_ms: 1000,
            quiet: false,
            progress: false,
            token: None,
            lease_batch: 0,
            reconnect_attempts: 0,
            reconnect_base_ms: 250,
            reconnect_cap_ms: 5000,
            idle_exit_ms: 0,
            log: None,
        }
    }
}

/// Per-worker accounting across every campaign and session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Jobs this worker returned rows for.
    pub jobs: u64,
    /// Cells it actually executed (cache misses).
    pub executed: u64,
    /// Cells answered from its local cache.
    pub cache_hits: u64,
}

/// How one connected session ended.
enum SessionEnd {
    /// The coordinator said `done` (it is shutting down).
    Done,
    /// The idle-exit budget ran out with no work on offer.
    Idle,
}

/// Why one session failed.
struct SessionError {
    /// Worth reconnecting: connection refused/reset, silence, EOF —
    /// the shapes a coordinator restart produces. Rejections and
    /// fingerprint mismatches are not: retrying cannot fix them.
    retryable: bool,
    msg: String,
}

impl SessionError {
    fn fatal(msg: impl Into<String>) -> SessionError {
        SessionError {
            retryable: false,
            msg: msg.into(),
        }
    }

    fn retryable(msg: impl Into<String>) -> SessionError {
        SessionError {
            retryable: true,
            msg: msg.into(),
        }
    }
}

/// Connect to the coordinator at `addr`, serve leases until the
/// service says `done` (or the worker idles out), and return this
/// worker's accounting. With `reconnect_attempts > 0`, a lost
/// coordinator triggers capped-exponential-backoff retries instead of
/// an error.
pub fn work(addr: &str, registry: Registry, opts: &WorkerOpts) -> Result<WorkerSummary, String> {
    let name = opts
        .name
        .clone()
        .unwrap_or_else(|| format!("{}-{}", host_token(), std::process::id()));
    let mut cache = match &opts.cache_dir {
        // Unique writer name: any number of workers on any number of
        // hosts may share one cache directory.
        Some(dir) => Some(
            ResultCache::open_unique(dir, "worker")
                .map_err(|e| format!("open cache {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    // The caller's logger, or a stderr-only one. `progress` keeps its
    // pre-logger meaning of forcing lease lines through `quiet`.
    let log: Arc<EventLog> = opts.log.clone().unwrap_or_else(|| {
        Arc::new(EventLog::to_stderr(
            "worker",
            if opts.quiet && !opts.progress {
                None
            } else {
                Some(LogLevel::Info)
            },
        ))
    });
    let log = log.as_ref();
    let mut summary = WorkerSummary::default();
    // Campaigns survive sessions: a worker that reconnects after a
    // coordinator restart already holds the resolved experiments,
    // keyed by campaign id and guarded by the fingerprint each entry
    // resolved to (see the re-verification in the lease loop).
    let mut campaigns: HashMap<String, (String, Experiment)> = HashMap::new();
    // Deterministic per-worker jitter stream; seeding off the name
    // decorrelates a fleet launched in the same instant.
    let mut rng = Prng::seed_from_u64(name.bytes().fold(0xfe5ce5u64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(b as u64)
    }));

    let mut attempt: u32 = 0;
    loop {
        match session(
            addr,
            &name,
            registry,
            opts,
            &mut summary,
            &mut campaigns,
            &mut cache,
            &mut attempt,
            log,
        ) {
            Ok(end) => {
                match end {
                    SessionEnd::Done => log.info(
                        "worker_done",
                        &[
                            ("worker", &name),
                            ("jobs", &summary.jobs.to_string()),
                            ("executed", &summary.executed.to_string()),
                            ("cache_hits", &summary.cache_hits.to_string()),
                        ],
                    ),
                    SessionEnd::Idle => log.info(
                        "idle_exit",
                        &[
                            ("worker", &name),
                            ("idle_ms", &opts.idle_exit_ms.to_string()),
                            ("jobs", &summary.jobs.to_string()),
                        ],
                    ),
                }
                return Ok(summary);
            }
            Err(e) if e.retryable && attempt < opts.reconnect_attempts => {
                attempt += 1;
                // Capped exponential backoff: base * 2^(attempt-1) up
                // to the cap, plus up to 25% jitter so a worker fleet
                // doesn't stampede a restarting coordinator.
                let base = opts
                    .reconnect_base_ms
                    .max(1)
                    .saturating_mul(1u64 << (attempt - 1).min(20))
                    .min(opts.reconnect_cap_ms.max(1));
                let jitter = rng.next_u64() % (base / 4 + 1);
                let delay = base + jitter;
                log.warn(
                    "reconnect",
                    &[
                        ("worker", &name),
                        ("why", &e.msg),
                        ("attempt", &format!("{attempt}/{}", opts.reconnect_attempts)),
                        ("delay_ms", &delay.to_string()),
                    ],
                );
                std::thread::sleep(Duration::from_millis(delay));
            }
            Err(e) => return Err(e.msg),
        }
    }
}

/// One connected session: handshake, then the lease loop, until the
/// coordinator closes, says `done`, or the connection dies.
#[allow(clippy::too_many_arguments)]
fn session(
    addr: &str,
    name: &str,
    registry: Registry,
    opts: &WorkerOpts,
    summary: &mut WorkerSummary,
    campaigns: &mut HashMap<String, (String, Experiment)>,
    cache: &mut Option<ResultCache>,
    attempt: &mut u32,
    log: &EventLog,
) -> Result<SessionEnd, SessionError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| SessionError::retryable(format!("connect {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_millis(opts.read_timeout_ms.max(10))))
        .map_err(|e| SessionError::fatal(format!("set_read_timeout: {e}")))?;

    // All writes go through one mutex so heartbeat frames (side
    // thread) and protocol frames (this thread) never interleave
    // bytes within a frame.
    let writer =
        Arc::new(Mutex::new(stream.try_clone().map_err(|e| {
            SessionError::fatal(format!("clone stream: {e}"))
        })?));
    let mut reader = FrameReader::new(stream);
    let send = |msg: &Msg| -> Result<(), SessionError> {
        write_msg(&mut *writer.lock().unwrap(), msg)
            .map_err(|e| SessionError::retryable(format!("send: {e}")))
    };
    let recv = |reader: &mut FrameReader<TcpStream>| -> Result<Msg, SessionError> {
        let mut idle: u32 = 0;
        loop {
            match reader.next_msg() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => {
                    idle += 1;
                    if idle >= opts.max_idle_windows {
                        return Err(SessionError::retryable(format!(
                            "coordinator silent for {} windows of {}ms",
                            idle, opts.read_timeout_ms
                        )));
                    }
                }
                Err(FrameError::Eof) => {
                    return Err(SessionError::retryable("coordinator closed the connection"))
                }
                Err(e) => return Err(SessionError::retryable(e.to_string())),
            }
        }
    };

    // --- Handshake ------------------------------------------------
    send(&Msg::Hello {
        schema_version: SCHEMA_VERSION,
        protocol_version: PROTOCOL_VERSION,
        worker: name.to_string(),
        token: opts.token.clone(),
    })?;
    let lease_ttl_ms = match recv(&mut reader)? {
        Msg::Welcome { lease_ttl_ms } => lease_ttl_ms,
        Msg::Reject { reason } => {
            return Err(SessionError::fatal(format!(
                "coordinator rejected us: {reason}"
            )))
        }
        // The service finished while we were connecting; nothing to
        // do is a clean exit, not a protocol error.
        Msg::Done => {
            log.info("service_finished", &[("worker", name)]);
            return Ok(SessionEnd::Done);
        }
        other => {
            return Err(SessionError::fatal(format!(
                "expected welcome, got {other:?}"
            )))
        }
    };
    // A completed handshake proves the coordinator is back: refill
    // the reconnect budget for the *next* loss.
    *attempt = 0;

    // --- Heartbeats -----------------------------------------------
    // Leases only exist while a batch of cells executes, so that is
    // the only time keep-alives matter — and *not* beating outside it
    // means no heartbeat is in flight around the final
    // request/`done` exchange, where it could race the coordinator
    // closing the connection.
    let stop = Arc::new(AtomicBool::new(false));
    let executing = Arc::new(AtomicBool::new(false));
    let hb_writer = Arc::clone(&writer);
    let hb_stop = Arc::clone(&stop);
    let hb_executing = Arc::clone(&executing);
    // Beat well inside the coordinator's lease TTL (shipped in
    // `welcome` for exactly this): a configured interval at or above
    // the TTL would lose the renewal race and spuriously expire a
    // live worker's leases.
    let hb_interval = Duration::from_millis(opts.heartbeat_ms.min(lease_ttl_ms / 3).max(10));
    let heartbeat = std::thread::spawn(move || {
        while !hb_stop.load(Ordering::SeqCst) {
            std::thread::sleep(hb_interval);
            if hb_stop.load(Ordering::SeqCst) {
                break;
            }
            if !hb_executing.load(Ordering::SeqCst) {
                continue;
            }
            if write_msg(&mut *hb_writer.lock().unwrap(), &Msg::Heartbeat).is_err() {
                // Coordinator gone; the main loop will notice on its
                // next read.
                break;
            }
        }
    });
    let stop_heartbeat = |result: Result<SessionEnd, SessionError>| {
        stop.store(true, Ordering::SeqCst);
        let _ = heartbeat.join();
        result
    };

    // --- Lease loop -----------------------------------------------
    let mut idle_since = Instant::now();
    loop {
        if let Err(e) = send(&Msg::Request {
            batch: opts.lease_batch,
        }) {
            return stop_heartbeat(Err(e));
        }
        let msg = match recv(&mut reader) {
            Ok(msg) => msg,
            Err(e) => return stop_heartbeat(Err(e)),
        };
        match msg {
            Msg::Lease {
                campaign,
                spec,
                fingerprint: coord_fp,
                job_count,
                jobs,
            } => {
                // A cached id→experiment binding is only valid while
                // the daemon state that issued it lives: a daemon
                // restarted without its checkpoint reissues ids from
                // c1 for whatever is submitted next. Every lease
                // frame carries the campaign's fingerprint, so check
                // it on cache hits too — on mismatch the entry is
                // stale; drop it and re-resolve below.
                if campaigns
                    .get(&campaign)
                    .is_some_and(|(fp, _)| *fp != coord_fp)
                {
                    log.warn(
                        "campaign_rebound",
                        &[("worker", name), ("campaign", &campaign)],
                    );
                    campaigns.remove(&campaign);
                }
                // Resolve-and-verify once per campaign; later leases
                // reuse the cached experiment.
                if !campaigns.contains_key(&campaign) {
                    let spec = match ExperimentSpec::from_json(&spec) {
                        Ok(spec) => spec,
                        Err(e) => return stop_heartbeat(Err(SessionError::fatal(e))),
                    };
                    let experiment = match spec.resolve(registry) {
                        Ok(e) => e,
                        Err(why) => {
                            let _ = send(&Msg::Abort {
                                reason: why.clone(),
                            });
                            return stop_heartbeat(Err(SessionError::fatal(format!(
                                "cannot run campaign {campaign}: {why}"
                            ))));
                        }
                    };
                    let fp = experiment.fingerprint();
                    if fp != coord_fp || experiment.job_count() as u64 != job_count {
                        let why = format!(
                            "fingerprint mismatch for {:?} (campaign {campaign}): coordinator \
                             {coord_fp} ({job_count} jobs), this binary {fp} ({} jobs)",
                            spec.experiment,
                            experiment.job_count()
                        );
                        let _ = send(&Msg::Abort {
                            reason: why.clone(),
                        });
                        return stop_heartbeat(Err(SessionError::fatal(why)));
                    }
                    log.info(
                        "campaign_resolve",
                        &[
                            ("worker", name),
                            ("campaign", &campaign),
                            ("experiment", &spec.experiment),
                            ("jobs", &job_count.to_string()),
                        ],
                    );
                    campaigns.insert(campaign.clone(), (fp, experiment));
                }
                let (_, experiment) = campaigns.get(&campaign).expect("inserted above");
                if jobs.iter().any(|&j| j >= experiment.job_count()) {
                    let why = format!(
                        "lease for campaign {campaign} contains out-of-range indices: {jobs:?}"
                    );
                    let _ = send(&Msg::Abort {
                        reason: why.clone(),
                    });
                    return stop_heartbeat(Err(SessionError::fatal(why)));
                }
                let threads = if opts.threads == 0 {
                    sfence_harness::default_threads(jobs.len())
                } else {
                    opts.threads
                };
                let mut run_opts = RunOptions::new(threads).jobs(jobs.clone());
                if let Some(cache) = cache.as_mut() {
                    run_opts = run_opts.cache(cache);
                }
                executing.store(true, Ordering::SeqCst);
                let t0 = Instant::now();
                let outcome = experiment.run_with(run_opts);
                let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
                summary.jobs += outcome.rows.len() as u64;
                summary.executed += outcome.stats.executed as u64;
                summary.cache_hits += outcome.stats.cache_hits as u64;
                log.info(
                    "lease_done",
                    &[
                        ("worker", name),
                        ("campaign", &campaign),
                        ("jobs", &jobs.len().to_string()),
                        ("executed", &outcome.stats.executed.to_string()),
                        ("cache_hits", &outcome.stats.cache_hits.to_string()),
                        ("total_jobs", &summary.jobs.to_string()),
                        ("wall_ms", &format!("{wall_ms:.1}")),
                    ],
                );
                // A huge lease's rows could exceed the frame limit as
                // one message; results are independent, so ship them
                // in bounded chunks (the accounting rides the first;
                // the measured wall clock is split pro-rata so the
                // coordinator's per-cell spread stays exact).
                let mut first = true;
                let mut rows = outcome.rows;
                let lease_rows = rows.len();
                while !rows.is_empty() || first {
                    let rest = rows.split_off(rows.len().min(RESULT_CHUNK_ROWS));
                    let chunk = std::mem::replace(&mut rows, rest);
                    let chunk_wall = if lease_rows > 0 {
                        wall_ms * chunk.len() as f64 / lease_rows as f64
                    } else {
                        0.0
                    };
                    let msg = Msg::Result {
                        campaign: campaign.clone(),
                        rows: chunk,
                        executed: if first {
                            outcome.stats.executed as u64
                        } else {
                            0
                        },
                        cache_hits: if first {
                            outcome.stats.cache_hits as u64
                        } else {
                            0
                        },
                        wall_ms: chunk_wall,
                    };
                    first = false;
                    if let Err(e) = send(&msg) {
                        return stop_heartbeat(Err(e));
                    }
                }
                executing.store(false, Ordering::SeqCst);
                idle_since = Instant::now();
            }
            // A current daemon has already held the request and says
            // `ms: 0`; the nap honours daemons that still ask for one.
            Msg::Wait { ms } => {
                std::thread::sleep(Duration::from_millis(ms.min(5000)));
                if opts.idle_exit_ms > 0
                    && idle_since.elapsed() >= Duration::from_millis(opts.idle_exit_ms)
                {
                    return stop_heartbeat(Ok(SessionEnd::Idle));
                }
            }
            Msg::Done => return stop_heartbeat(Ok(SessionEnd::Done)),
            Msg::Reject { reason } => {
                return stop_heartbeat(Err(SessionError::fatal(format!(
                    "coordinator rejected us: {reason}"
                ))))
            }
            other => {
                return stop_heartbeat(Err(SessionError::fatal(format!(
                    "unexpected message {other:?}"
                ))));
            }
        }
    }
}

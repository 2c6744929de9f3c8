//! The worker: connects to a coordinator, leases cells across any
//! number of concurrent campaigns, and executes them through the
//! ordinary [`Experiment::run_with`](sfence_harness::Experiment::run_with)
//! machinery — with an optional worker-local result cache, so a
//! re-run (or a checkpoint-resumed replay) of a campaign executes
//! zero cells on every worker that has seen them before.
//!
//! A worker runs `threads` independent *lease loops*, one per
//! executing thread. Each loop is a session of its own — connection,
//! heartbeat thread, reconnect backoff — that requests a lease, runs
//! its cells one after another on its own thread, appends their cache
//! lines to its own writer file and sends the rows back in one
//! `result` frame (a lease holds at most
//! [`MAX_LEASE`] cells). So no thread waits
//! for a lease's slowest cell on another thread, behind another
//! thread's cache writes, or on another loop's round trip. The cache
//! directory is read once per process and those entries are shared by
//! every loop without a lock. The first loop error (a rejection, a
//! fingerprint mismatch, a coordinator lost for good) stops every
//! loop, and [`work`] returns it.
//!
//! Since protocol v3 each `lease` frame carries its campaign's spec
//! and fingerprint; a loop resolves each campaign the first time it
//! sees its id and keeps the resolved [`Experiment`] for later
//! leases — re-checking the frame's fingerprint against the cached
//! one on every lease, because the id→experiment binding is only
//! stable while one daemon's state lives (a daemon restarted without
//! its checkpoint reissues ids from `c1` for whatever is submitted
//! next). A heartbeat thread keeps leases alive while cells execute,
//! and a reconnect loop with capped exponential backoff + jitter
//! (`--reconnect`) rides out coordinator restarts, so checkpoint
//! resume is hands-off end to end.

use crate::protocol::{
    backoff_ms, write_msg, FrameError, FrameReader, Msg, ReadStop, MAX_LEASE, PROTOCOL_VERSION,
};
use crate::spec::{ExperimentSpec, Registry};
use sfence_harness::{host_token, Experiment, ResultCache, RunOptions, SCHEMA_VERSION};
use sfence_obs::log::{EventLog, LogLevel};
use sfence_workloads::support::Prng;
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// First reconnect delay; doubles per consecutive failure.
const RECONNECT_BASE_MS: u64 = 250;
/// Reconnect delay ceiling.
const RECONNECT_CAP_MS: u64 = 5000;

/// Tunables of one [`work`] call.
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    /// Worker-local content-addressed result cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Executing threads, one lease loop each (0 = one per CPU). Every
    /// loop is its own coordinator session and runs its leases' cells
    /// one after another.
    pub threads: usize,
    /// Heartbeat interval; must be well under the coordinator's lease
    /// TTL.
    pub heartbeat_ms: u64,
    /// Worker name sent in the handshake (default: host token + pid).
    pub name: Option<String>,
    /// Longest silence from the coordinator before concluding it is
    /// gone (0 = no limit).
    pub silence_ms: u64,
    /// Suppress per-lease progress lines on stderr.
    pub quiet: bool,
    /// Emit a throttled progress line on stderr.
    pub progress: bool,
    /// Shared auth token presented in the handshake.
    pub token: Option<String>,
    /// Cells requested per lease (`--lease-batch`); 0 = let the
    /// coordinator pick its default. Grants are capped at
    /// [`MAX_LEASE`].
    pub lease_batch: u64,
    /// Connection attempts after a lost coordinator before giving up
    /// (`--reconnect`), counted per lease loop; 0 = exit on the first
    /// loss (the v2 behavior). The counter resets on every completed
    /// handshake, so a worker that outlives many coordinator restarts
    /// never exhausts it.
    pub reconnect_attempts: u32,
    /// End a lease loop cleanly once this long has passed since its
    /// session began or its last lease finished, with only `wait`
    /// replies since; the worker exits when every loop has. 0 = keep
    /// asking forever. Lets a daemon-attached worker drain away once
    /// its campaigns finish.
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
            silence_ms: 120_000,
            quiet: false,
            progress: false,
            token: None,
            lease_batch: 0,
            reconnect_attempts: 0,
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

/// What a worker's lease loops share. The first loop to fail records
/// its error and stops the rest at once: shutting down every live
/// connection wakes a loop blocked in a read (or fails its next
/// send), and the condvar ends its naps and reconnect backoff.
struct Fleet {
    state: Mutex<FleetState>,
    wake: Condvar,
}

struct FleetState {
    /// The first loop error; set = every loop stops.
    error: Option<String>,
    /// Each loop's live connection, by loop index.
    conns: Vec<Option<TcpStream>>,
}

impl Fleet {
    fn new(loops: usize) -> Fleet {
        Fleet {
            state: Mutex::new(FleetState {
                error: None,
                conns: (0..loops).map(|_| None).collect(),
            }),
            wake: Condvar::new(),
        }
    }

    fn stopped(&self) -> bool {
        self.state.lock().unwrap().error.is_some()
    }

    /// Record `error` unless another loop already failed, and stop
    /// every loop.
    fn fail(&self, error: String) {
        let mut state = self.state.lock().unwrap();
        state.error.get_or_insert(error);
        for conn in state.conns.iter().flatten() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        self.wake.notify_all();
    }

    /// Sleep up to `d`; true when the fleet stopped meanwhile.
    fn nap(&self, d: Duration) -> bool {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .wake
            .wait_timeout_while(state, d, |s| s.error.is_none())
            .unwrap();
        state.error.is_some()
    }

    /// Register loop `slot`'s connection so a failing loop can shut it
    /// down; refused once the fleet has stopped.
    fn attach(&self, slot: usize, stream: &TcpStream) -> Result<(), SessionError> {
        let mut state = self.state.lock().unwrap();
        if state.error.is_some() {
            return Err(SessionError::retryable("worker stopping"));
        }
        let conn = stream
            .try_clone()
            .map_err(|e| SessionError::fatal(format!("clone stream: {e}")))?;
        state.conns[slot] = Some(conn);
        Ok(())
    }

    fn detach(&self, slot: usize) {
        self.state.lock().unwrap().conns[slot] = None;
    }
}

/// Unregisters a session's connection from the fleet when it ends.
struct Detach<'a>(&'a Fleet, usize);

impl Drop for Detach<'_> {
    fn drop(&mut self) {
        self.0.detach(self.1);
    }
}

/// Stops the fleet when its lease loop unwinds, so a panicking cell
/// (a workload invariant violation) ends the other loops too instead
/// of leaving them serving leases while `work` waits to re-raise it.
struct StopOnPanic<'a>(&'a Fleet);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fail("a lease loop panicked".into());
        }
    }
}

/// Connect to the coordinator at `addr`, serve leases until the
/// service says `done` (or the worker idles out), and return this
/// worker's accounting. `opts.threads` lease loops run side by side,
/// each its own session; the first loop error stops them all and is
/// returned. With `reconnect_attempts > 0`, a lost coordinator
/// triggers capped-exponential-backoff retries instead of an error.
pub fn work(addr: &str, registry: Registry, opts: &WorkerOpts) -> Result<WorkerSummary, String> {
    let name = opts
        .name
        .clone()
        .unwrap_or_else(|| format!("{}-{}", host_token(), std::process::id()));
    let loops = match opts.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
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
    // The directory is read once; every loop shares those entries and
    // appends its own results to its own writer file (a unique name:
    // any number of workers on any number of hosts may share one
    // cache directory).
    let caches: Vec<Option<ResultCache>> = match &opts.cache_dir {
        Some(dir) => {
            let cache = ResultCache::open_unique(dir, "worker")
                .map_err(|e| format!("open cache {}: {e}", dir.display()))?;
            log.info(
                "cache_load",
                &[
                    ("worker", &name),
                    ("entries", &cache.len().to_string()),
                    ("skipped", &cache.skipped_lines().to_string()),
                ],
            );
            let forks: Vec<_> = (1..loops)
                .map(|_| Some(cache.fork_unique("worker")))
                .collect();
            std::iter::once(Some(cache)).chain(forks).collect()
        }
        None => (0..loops).map(|_| None).collect(),
    };
    let fleet = Fleet::new(loops);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = caches
            .into_iter()
            .enumerate()
            .map(|(slot, cache)| {
                let name = if loops == 1 {
                    name.clone()
                } else {
                    format!("{name}.{slot}")
                };
                let fleet = &fleet;
                scope.spawn(move || {
                    let _stop = StopOnPanic(fleet);
                    let lp = Loop {
                        addr,
                        name: &name,
                        slot,
                        registry,
                        opts,
                        fleet,
                        log,
                    };
                    lease_loop(&lp, cache)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let mut total = WorkerSummary::default();
    for outcome in outcomes {
        match outcome {
            Ok(summary) => {
                total.jobs += summary.jobs;
                total.executed += summary.executed;
                total.cache_hits += summary.cache_hits;
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    match fleet.state.into_inner().unwrap().error {
        Some(error) => Err(error),
        None => Ok(total),
    }
}

/// What one lease loop and each of its sessions run with.
struct Loop<'a> {
    addr: &'a str,
    /// The worker name, suffixed `.<slot>` when the worker runs more
    /// than one loop; sent in the handshake and on every log line.
    name: &'a str,
    slot: usize,
    registry: Registry,
    opts: &'a WorkerOpts,
    fleet: &'a Fleet,
    log: &'a EventLog,
}

/// One lease loop: sessions (reconnecting after a lost coordinator as
/// `opts` allows) until the coordinator says `done`, the loop idles
/// out, or the fleet stops. A loop error is handed to the fleet; the
/// loop's accounting is returned either way.
fn lease_loop(lp: &Loop, mut cache: Option<ResultCache>) -> WorkerSummary {
    let (name, opts, fleet, log) = (lp.name, lp.opts, lp.fleet, lp.log);
    let mut summary = WorkerSummary::default();
    // Campaigns survive sessions: a loop that reconnects after a
    // coordinator restart already holds the resolved experiments,
    // keyed by campaign id and guarded by the fingerprint each entry
    // resolved to (see the re-verification in the session).
    let mut campaigns: HashMap<String, (String, Experiment)> = HashMap::new();
    // Deterministic per-loop jitter stream; seeding off the name
    // decorrelates a fleet launched in the same instant.
    let mut rng = Prng::seed_from_u64(name.bytes().fold(0xfe5ce5u64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(b as u64)
    }));

    let mut attempt: u32 = 0;
    loop {
        match session(lp, &mut summary, &mut campaigns, &mut cache, &mut attempt) {
            Ok(end) => {
                match end {
                    SessionEnd::Done => log.info(
                        "worker_done",
                        &[
                            ("worker", name),
                            ("jobs", &summary.jobs.to_string()),
                            ("executed", &summary.executed.to_string()),
                            ("cache_hits", &summary.cache_hits.to_string()),
                        ],
                    ),
                    SessionEnd::Idle => log.info(
                        "idle_exit",
                        &[
                            ("worker", name),
                            ("idle_ms", &opts.idle_exit_ms.to_string()),
                            ("jobs", &summary.jobs.to_string()),
                        ],
                    ),
                }
                return summary;
            }
            // Another loop failed and cut this one's connection.
            Err(_) if fleet.stopped() => return summary,
            Err(e) if e.retryable && attempt < opts.reconnect_attempts => {
                attempt += 1;
                // Capped exponential backoff plus up to 25% jitter, so
                // a worker fleet doesn't stampede a restarting
                // coordinator.
                let base = backoff_ms(attempt, RECONNECT_BASE_MS, RECONNECT_CAP_MS);
                let jitter = rng.next_u64() % (base / 4 + 1);
                let delay = base + jitter;
                log.warn(
                    "reconnect",
                    &[
                        ("worker", name),
                        ("why", &e.msg),
                        ("attempt", &format!("{attempt}/{}", opts.reconnect_attempts)),
                        ("delay_ms", &delay.to_string()),
                    ],
                );
                if fleet.nap(Duration::from_millis(delay)) {
                    return summary;
                }
            }
            Err(e) => {
                fleet.fail(e.msg);
                return summary;
            }
        }
    }
}

/// One connected session: handshake, then the lease loop, until the
/// coordinator closes, says `done`, or the connection dies.
fn session(
    lp: &Loop,
    summary: &mut WorkerSummary,
    campaigns: &mut HashMap<String, (String, Experiment)>,
    cache: &mut Option<ResultCache>,
    attempt: &mut u32,
) -> Result<SessionEnd, SessionError> {
    let (addr, name, registry, opts, log) = (lp.addr, lp.name, lp.registry, lp.opts, lp.log);
    let stream = TcpStream::connect(addr)
        .map_err(|e| SessionError::retryable(format!("connect {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    // No timeout (0) blocks until the coordinator speaks or closes.
    let silence = (opts.silence_ms > 0).then(|| Duration::from_millis(opts.silence_ms));
    stream
        .set_read_timeout(silence)
        .map_err(|e| SessionError::fatal(format!("set_read_timeout: {e}")))?;
    lp.fleet.attach(lp.slot, &stream)?;
    let _detach = Detach(lp.fleet, lp.slot);

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
        reader.next_msg_within(1, None).map_err(|stop| {
            SessionError::retryable(match stop {
                ReadStop::Dead(FrameError::Eof) => "coordinator closed the connection".into(),
                ReadStop::Dead(e) => e.to_string(),
                ReadStop::TimedOut | ReadStop::Shutdown => {
                    format!("coordinator silent for {}ms", opts.silence_ms)
                }
            })
        })
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
    let (stop, stopped) = mpsc::channel::<()>();
    let executing = Arc::new(AtomicBool::new(false));
    let hb_writer = Arc::clone(&writer);
    let hb_executing = Arc::clone(&executing);
    // Beat well inside the coordinator's lease TTL (shipped in
    // `welcome` for exactly this): a configured interval at or above
    // the TTL would lose the renewal race and spuriously expire a
    // live worker's leases.
    let hb_interval = Duration::from_millis(opts.heartbeat_ms.min(lease_ttl_ms / 3).max(10));
    // The wait between beats ends as soon as the session does
    // (dropping `stop` disconnects it), so a finished session is not
    // held for the rest of an interval.
    let heartbeat = std::thread::spawn(move || {
        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(hb_interval) {
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
        drop(stop);
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
                    let experiment = match spec.resolve_as(registry, &coord_fp, job_count) {
                        Ok(e) => e,
                        Err(why) => {
                            let why = format!("cannot run campaign {campaign}: {why}");
                            let _ = send(&Msg::Abort {
                                reason: why.clone(),
                            });
                            return stop_heartbeat(Err(SessionError::fatal(why)));
                        }
                    };
                    log.info(
                        "campaign_resolve",
                        &[
                            ("worker", name),
                            ("campaign", &campaign),
                            ("experiment", &spec.experiment),
                            ("jobs", &job_count.to_string()),
                        ],
                    );
                    campaigns.insert(campaign.clone(), (coord_fp, experiment));
                }
                let (_, experiment) = campaigns.get(&campaign).expect("inserted above");
                if jobs.len() > MAX_LEASE || jobs.iter().any(|&j| j >= experiment.job_count()) {
                    let why = format!(
                        "lease for campaign {campaign} is over the {MAX_LEASE}-cell cap or \
                         contains out-of-range indices: {jobs:?}"
                    );
                    let _ = send(&Msg::Abort {
                        reason: why.clone(),
                    });
                    return stop_heartbeat(Err(SessionError::fatal(why)));
                }
                // One thread: the worker's parallelism is its loops.
                let mut run_opts = RunOptions::new(1).jobs(jobs.clone());
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
                // A lease holds at most `MAX_LEASE` cells, so its rows
                // fit one frame.
                let msg = Msg::Result {
                    campaign,
                    rows: outcome.rows,
                    executed: outcome.stats.executed as u64,
                    cache_hits: outcome.stats.cache_hits as u64,
                    wall_ms,
                };
                if let Err(e) = send(&msg) {
                    return stop_heartbeat(Err(e));
                }
                executing.store(false, Ordering::SeqCst);
                idle_since = Instant::now();
            }
            // A current daemon has already held the request and says
            // `ms: 0`; the nap honours daemons that still ask for one.
            Msg::Wait { ms } => {
                if lp.fleet.nap(Duration::from_millis(ms.min(5000))) {
                    return stop_heartbeat(Err(SessionError::retryable("worker stopping")));
                }
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

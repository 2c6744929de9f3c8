//! `sfence-dist`: the distributed sweep service CLI — a coordinator
//! daemon that schedules any number of concurrent campaigns across
//! TCP workers, the worker that serves them, the submitting client,
//! and a status probe.
//!
//! ```text
//! sfence-dist serve ADDR                       # daemon: accept campaigns until killed
//!     [--token-file FILE]                      shared-secret auth for every client flow
//!     [--checkpoint FILE]                      atomic-rename JSONL snapshot for kill/resume
//!     [--checkpoint-every SECS]                snapshot interval (0 = every mutation)
//!     [--lease N]                              default jobs per lease (default 4, at most 1024)
//!     [--lease-ttl SECS]                       silent-worker lease expiry (default 30)
//!     [--retain-fetched SECS]                  evict a completed campaign this long after
//!                                              its rows were first fetched (default 600;
//!                                              0 = keep forever)
//!     [--handshake-timeout SECS]               drop connections with no opening message
//!                                              after this long (default 10; 0 = never)
//!     [--log FILE]                             structured JSONL event log (rotated)
//!     [--log-level error|warn|info|debug]      verbosity for stderr and the event log
//!     [--log-max-bytes N] [--log-max-files N]  event-log rotation policy
//!     [--metrics-log FILE]                     periodic MetricsReport JSONL history
//!     [--metrics-interval SECS]                history snapshot interval (default 10)
//!     [--quiet]
//!
//! sfence-dist submit ADDR --experiment NAME    # register a campaign with a daemon
//!     [--scale small|eval] [--backend B]
//!     [--priority N]                           fair-share weight (default 1)
//!     [--token-file FILE]
//!     [--no-wait]                              print the campaign id and exit
//!     [--poll-ms MS]                           progress poll interval (default 500)
//!     [--retry N]                              polls surviving a daemon outage (default 60)
//!     [--store FILE] [--git STR] [--timestamp SECS]
//!     [--diff] [--diff-run K] [--json | --rows] [--quiet]
//!
//! sfence-dist work ADDR                        # connect and serve leases
//!     [--cache-dir DIR]                        worker-local result cache
//!     [--threads N]                            lease loops, one thread and session each (default: CPUs)
//!     [--name STR]                             worker name (default host-pid)
//!     [--token-file FILE]
//!     [--lease-batch N]                        cells requested per lease (0 = server default)
//!     [--reconnect N]                          retries after a lost coordinator (default 0)
//!     [--idle-exit SECS]                       exit after this long with no work (0 = never)
//!     [--log-level error|warn|info|debug]      stderr verbosity (overrides --quiet)
//!     [--progress] [--quiet]
//!
//! sfence-dist status ADDR                      # probe a live coordinator
//!     [--token-file FILE]
//!     [--json]                                 raw MetricsReport JSON instead of tables
//!     [--timeout SECS]                         connect/read bound (default 5)
//!
//! sfence-dist metrics ADDR                     # Prometheus-style text exposition
//!     [--token-file FILE] [--timeout SECS]
//!
//! sfence-dist dump ADDR                        # flight recorder as JSONL on stdout
//!     [--token-file FILE] [--timeout SECS]
//! ```
//!
//! Every campaign's merged stdout/store output is byte-identical to
//! `sfence-sweep --experiment NAME` run single-process — even
//! interleaved with other campaigns and across a daemon kill/restart
//! (with `--checkpoint`). Mismatched binaries (schema, protocol, or
//! experiment fingerprint) are rejected at the handshake. Exit codes:
//! 0 ok, 1 runtime error, 2 usage error.

use sfence_bench::cli::{self, OutputArgs};
use sfence_dist::{
    client, fetch_dump, fetch_status, render_campaign_table, run_server, work, ExperimentSpec,
    ServerOpts, WorkerOpts, MAX_LEASE,
};
use sfence_harness::{BackendId, SweepResult};
use sfence_obs::log::{
    install_panic_dump, EventLog, LogLevel, DEFAULT_LOG_MAX_BYTES, DEFAULT_LOG_MAX_FILES,
};
use sfence_obs::prometheus_text;
use sfence_workloads::Scale;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut args = std::env::args().skip(1);
    let verb = args.next().unwrap_or_default();
    let result = match verb.as_str() {
        "serve" => cmd_serve(args),
        "submit" => cmd_submit(args),
        "work" => cmd_work(args),
        "status" => cmd_status(args),
        "metrics" => cmd_metrics(args),
        "dump" => cmd_dump(args),
        "" | "--help" | "-h" => {
            eprintln!("usage: sfence-dist serve ADDR [options]");
            eprintln!("       sfence-dist submit ADDR --experiment NAME [options]");
            eprintln!("       sfence-dist work ADDR [options]");
            eprintln!("       sfence-dist status ADDR [--json] [--timeout SECS]");
            eprintln!("       sfence-dist metrics ADDR [--timeout SECS]");
            eprintln!("       sfence-dist dump ADDR [--timeout SECS]");
            std::process::exit(2);
        }
        other => {
            eprintln!(
                "error: unknown subcommand {other:?} (expected \
                 serve|submit|work|status|metrics|dump)"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage(e: String) -> ! {
    eprintln!("error: {e}");
    eprintln!(
        "usage: sfence-dist serve ADDR [options] | submit ADDR \
         --experiment NAME [options] | work ADDR [options] | status ADDR [--json]"
    );
    std::process::exit(2);
}

/// Read a `--token-file`: the first line, trimmed, non-empty.
fn read_token(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read token file {path}: {e}"))?;
    let token = text.trim();
    if token.is_empty() {
        return Err(format!("token file {path} is empty"));
    }
    Ok(token.to_string())
}

fn parse_flag<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    check: impl Fn(&T) -> bool,
    expects: &str,
) -> T {
    cli::take(it, flag)
        .unwrap_or_else(|e| usage(e))
        .parse()
        .ok()
        .filter(check)
        .unwrap_or_else(|| usage(format!("{flag} expects {expects}")))
}

/// Parse a flag given in seconds, as milliseconds.
fn ms_flag(it: &mut impl Iterator<Item = String>, flag: &str, check: impl Fn(&u64) -> bool) -> u64 {
    parse_flag(it, flag, check, "seconds") * 1000
}

fn cmd_serve(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut opts = ServerOpts::default();
    let mut log_path: Option<PathBuf> = None;
    let mut log_level = LogLevel::Info;
    let mut log_max_bytes: u64 = DEFAULT_LOG_MAX_BYTES;
    let mut log_max_files: usize = DEFAULT_LOG_MAX_FILES;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--lease" => {
                opts.default_lease = parse_flag(
                    &mut it,
                    "--lease",
                    |&n: &usize| (1..=MAX_LEASE).contains(&n),
                    &format!("a cell count from 1 to {MAX_LEASE}"),
                )
            }
            "--lease-ttl" => opts.lease_ttl_ms = ms_flag(&mut it, "--lease-ttl", |&n| n > 0),
            "--token-file" => {
                opts.token = Some(read_token(
                    &cli::take(&mut it, "--token-file").unwrap_or_else(|e| usage(e)),
                )?)
            }
            "--checkpoint" => {
                opts.checkpoint = Some(PathBuf::from(
                    cli::take(&mut it, "--checkpoint").unwrap_or_else(|e| usage(e)),
                ))
            }
            "--checkpoint-every" => {
                opts.checkpoint_every_ms = ms_flag(&mut it, "--checkpoint-every", |_| true)
            }
            "--retain-fetched" => {
                opts.retain_fetched_ms = ms_flag(&mut it, "--retain-fetched", |_| true)
            }
            "--handshake-timeout" => {
                opts.handshake_timeout_ms = ms_flag(&mut it, "--handshake-timeout", |_| true)
            }
            "--log" => {
                log_path = Some(PathBuf::from(
                    cli::take(&mut it, "--log").unwrap_or_else(|e| usage(e)),
                ))
            }
            "--log-level" => log_level = parse_log_level(&mut it),
            "--log-max-bytes" => {
                log_max_bytes =
                    parse_flag(&mut it, "--log-max-bytes", |&n: &u64| n > 0, "a byte count")
            }
            "--log-max-files" => {
                log_max_files = parse_flag(
                    &mut it,
                    "--log-max-files",
                    |&n: &usize| n > 0,
                    "a file count",
                )
            }
            "--metrics-log" => {
                opts.metrics_log = Some(PathBuf::from(
                    cli::take(&mut it, "--metrics-log").unwrap_or_else(|e| usage(e)),
                ))
            }
            "--metrics-interval" => {
                opts.metrics_interval_ms = ms_flag(&mut it, "--metrics-interval", |&n| n > 0)
            }
            "--quiet" => opts.quiet = true,
            other if !other.starts_with('-') && addr.is_none() => addr = Some(other.to_string()),
            other => usage(format!("unknown flag {other:?}")),
        }
    }
    let addr =
        addr.unwrap_or_else(|| usage("serve needs a bind address (e.g. 0.0.0.0:7077)".into()));
    let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or(addr.clone());

    eprintln!(
        "dist: daemon on {local} (auth {}, checkpoint {})",
        if opts.token.is_some() { "on" } else { "off" },
        opts.checkpoint
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "off".into()),
    );
    let stderr_level = if opts.quiet { None } else { Some(log_level) };
    let log = match &log_path {
        Some(path) => Arc::new(
            EventLog::with_file(
                "dist",
                stderr_level,
                log_level,
                path,
                log_max_bytes,
                log_max_files,
            )
            .map_err(|e| format!("open event log {}: {e}", path.display()))?,
        ),
        None => Arc::new(EventLog::to_stderr("dist", stderr_level)),
    };
    // A panicking daemon leaves its flight recorder behind: beside the
    // event log when one is configured, else on stderr.
    let panic_path = log_path.as_ref().map(|p| {
        let mut s = p.as_os_str().to_os_string();
        s.push(".panic");
        PathBuf::from(s)
    });
    install_panic_dump(Arc::clone(&log), panic_path);
    opts.log = Some(log);
    // Runs until the process is killed; the periodic checkpoint is the
    // shutdown story.
    run_server(
        &listener,
        Some(sfence_bench::experiment_by_name),
        Vec::new(),
        &opts,
    )
    .map(|_| ())
}

/// Parse a `--log-level` value.
fn parse_log_level(it: &mut impl Iterator<Item = String>) -> LogLevel {
    let raw = cli::take(it, "--log-level").unwrap_or_else(|e| usage(e));
    LogLevel::parse(&raw).unwrap_or_else(|| {
        usage(format!(
            "--log-level expects error|warn|info|debug, got {raw:?}"
        ))
    })
}

fn cmd_submit(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut experiment_name: Option<String> = None;
    let mut scale = None;
    let mut backend: Option<BackendId> = None;
    let mut output = OutputArgs::default();
    let mut json = false;
    let mut quiet = false;
    let mut priority: u64 = 1;
    let mut token: Option<String> = None;
    let mut no_wait = false;
    let mut wait = client::WaitOpts {
        retries: 60,
        ..Default::default()
    };
    while let Some(arg) = it.next() {
        let parsed = output.accept(&arg, &mut it).unwrap_or_else(|e| usage(e));
        if parsed {
            continue;
        }
        match arg.as_str() {
            "--experiment" => {
                experiment_name =
                    Some(cli::take(&mut it, "--experiment").unwrap_or_else(|e| usage(e)))
            }
            "--scale" => {
                scale = Some(
                    Scale::parse(&cli::take(&mut it, "--scale").unwrap_or_else(|e| usage(e)))
                        .unwrap_or_else(|e| usage(e)),
                )
            }
            "--backend" => {
                backend = Some(
                    BackendId::parse(&cli::take(&mut it, "--backend").unwrap_or_else(|e| usage(e)))
                        .unwrap_or_else(|e| usage(e)),
                )
            }
            "--priority" => {
                priority = parse_flag(
                    &mut it,
                    "--priority",
                    |&n: &u64| n > 0,
                    "a positive integer",
                )
            }
            "--token-file" => {
                token = Some(read_token(
                    &cli::take(&mut it, "--token-file").unwrap_or_else(|e| usage(e)),
                )?)
            }
            "--no-wait" => no_wait = true,
            "--poll-ms" => {
                wait.poll_ms = parse_flag(&mut it, "--poll-ms", |&n: &u64| n > 0, "milliseconds")
            }
            "--retry" => wait.retries = parse_flag(&mut it, "--retry", |_| true, "a retry count"),
            "--json" => json = true,
            "--rows" => json = false,
            "--quiet" => quiet = true,
            other if !other.starts_with('-') && addr.is_none() => addr = Some(other.to_string()),
            other => usage(format!("unknown flag {other:?}")),
        }
    }
    let addr = addr.unwrap_or_else(|| usage("submit needs the daemon address (host:port)".into()));
    let name = experiment_name
        .unwrap_or_else(|| usage("--experiment is required (see sfence-sweep --list)".into()));
    let spec = ExperimentSpec::new(&name).scale(scale).backend(backend);
    // Resolve locally first: the merge below needs the experiment,
    // and a local resolution error beats a round-trip to find out.
    let experiment = spec
        .resolve(sfence_bench::experiment_by_name)
        .unwrap_or_else(|e| usage(e));
    wait.client.token = token;

    let ticket = client::submit(&addr, &spec, priority, &wait.client)?;
    // The daemon schedules what *its* binary resolves the spec to; if
    // that drifts from ours, the rows we'd fetch aren't the rows this
    // binary's merge expects.
    if ticket.fingerprint != experiment.fingerprint()
        || ticket.job_count != experiment.job_count() as u64
    {
        return Err(format!(
            "daemon resolves {name:?} to fingerprint {} ({} jobs) but this binary gets {} \
             ({} jobs): mismatched builds",
            ticket.fingerprint,
            ticket.job_count,
            experiment.fingerprint(),
            experiment.job_count()
        ));
    }
    if !quiet || no_wait {
        eprintln!(
            "dist: campaign {} submitted ({} jobs, priority {priority})",
            ticket.campaign, ticket.job_count
        );
    }
    if no_wait {
        // The id on stdout is the machine-readable product: scripts
        // capture it and poll later.
        println!("{}", ticket.campaign);
        return Ok(());
    }

    let mut last_done = u64::MAX;
    let rows = client::wait_for_campaign(&addr, &ticket.campaign, &wait, |done, total| {
        if !quiet && done != last_done {
            eprintln!("dist: campaign {}: {done}/{total} jobs", ticket.campaign);
            last_done = done;
        }
    })?;
    let result = SweepResult::from_indexed(&experiment.name, experiment.job_count(), rows)?;
    cli::finish_run(&experiment, &result, &output, json)
}

fn cmd_work(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut opts = WorkerOpts::default();
    let mut log_level: Option<LogLevel> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--log-level" => log_level = Some(parse_log_level(&mut it)),
            "--cache-dir" => {
                opts.cache_dir = Some(PathBuf::from(
                    cli::take(&mut it, "--cache-dir").unwrap_or_else(|e| usage(e)),
                ))
            }
            "--threads" => {
                opts.threads = parse_flag(
                    &mut it,
                    "--threads",
                    |&n: &usize| n > 0,
                    "a positive integer",
                )
            }
            "--name" => opts.name = Some(cli::take(&mut it, "--name").unwrap_or_else(|e| usage(e))),
            "--token-file" => {
                opts.token = Some(read_token(
                    &cli::take(&mut it, "--token-file").unwrap_or_else(|e| usage(e)),
                )?)
            }
            "--lease-batch" => {
                opts.lease_batch = parse_flag(&mut it, "--lease-batch", |_| true, "a cell count")
            }
            "--reconnect" => {
                opts.reconnect_attempts =
                    parse_flag(&mut it, "--reconnect", |_| true, "an attempt count")
            }
            "--idle-exit" => opts.idle_exit_ms = ms_flag(&mut it, "--idle-exit", |_| true),
            "--progress" => opts.progress = true,
            "--quiet" => opts.quiet = true,
            other if !other.starts_with('-') && addr.is_none() => addr = Some(other.to_string()),
            other => usage(format!("unknown flag {other:?}")),
        }
    }
    let addr =
        addr.unwrap_or_else(|| usage("work needs the coordinator address (host:port)".into()));
    // An explicit `--log-level` overrides `--quiet` / `--progress`:
    // one knob governs all worker stderr output.
    if let Some(level) = log_level {
        opts.log = Some(Arc::new(EventLog::to_stderr("worker", Some(level))));
    }
    work(&addr, sfence_bench::experiment_by_name, &opts).map(|_| ())
}

/// What every probe subcommand (`status`, `metrics`, `dump`) needs:
/// the coordinator ADDR, `--timeout SECS` and `--token-file`.
struct Probe {
    addr: String,
    timeout: Duration,
    token: Option<String>,
}

impl Probe {
    /// Parse a probe's arguments. `extra` consumes a
    /// subcommand-specific switch and says whether it did.
    fn parse(
        verb: &str,
        mut it: impl Iterator<Item = String>,
        mut extra: impl FnMut(&str) -> bool,
    ) -> Result<Probe, String> {
        let mut addr: Option<String> = None;
        let mut timeout = Duration::from_secs(5);
        let mut token: Option<String> = None;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--timeout" => {
                    let secs: u64 = parse_flag(&mut it, "--timeout", |&n| n > 0, "seconds");
                    timeout = Duration::from_secs(secs);
                }
                "--token-file" => {
                    token = Some(read_token(
                        &cli::take(&mut it, "--token-file").unwrap_or_else(|e| usage(e)),
                    )?)
                }
                other if extra(other) => {}
                other if !other.starts_with('-') && addr.is_none() => {
                    addr = Some(other.to_string())
                }
                other => usage(format!("unknown flag {other:?}")),
            }
        }
        let addr = addr
            .unwrap_or_else(|| usage(format!("{verb} needs the coordinator address (host:port)")));
        Ok(Probe {
            addr,
            timeout,
            token,
        })
    }
}

/// `status ADDR`: probe a live coordinator for its service snapshot
/// and print a per-campaign table plus the full metric listing
/// (default), or the raw `MetricsReport` JSON (`--json`).
fn cmd_status(it: impl Iterator<Item = String>) -> Result<(), String> {
    let mut json = false;
    let probe = Probe::parse("status", it, |arg| {
        json |= arg == "--json";
        arg == "--json"
    })?;
    let report = fetch_status(&probe.addr, probe.timeout, probe.token.as_deref())?;
    if json {
        print!("{}", report.to_json().to_string_pretty());
    } else {
        print!("{}", render_campaign_table(&report));
        print!("{}", report.render());
    }
    Ok(())
}

/// `metrics ADDR`: probe a live coordinator and print its service
/// snapshot as Prometheus-style text exposition, for scraping into
/// ordinary monitoring tooling (`curl`-shaped, hand-rolled, no
/// external crates).
fn cmd_metrics(it: impl Iterator<Item = String>) -> Result<(), String> {
    let probe = Probe::parse("metrics", it, |_| false)?;
    let report = fetch_status(&probe.addr, probe.timeout, probe.token.as_deref())?;
    print!("{}", prometheus_text(&report, "sfence"));
    Ok(())
}

/// `dump ADDR`: fetch the daemon's flight recorder and print it as
/// JSONL on stdout (one event per line, same schema as `--log`
/// files), plus a summary line on stderr.
fn cmd_dump(it: impl Iterator<Item = String>) -> Result<(), String> {
    let probe = Probe::parse("dump", it, |_| false)?;
    let (events, dropped) = fetch_dump(&probe.addr, probe.timeout, probe.token.as_deref())?;
    for ev in &events {
        println!("{}", ev.to_json().to_string_compact());
    }
    eprintln!(
        "dist: dumped {} event(s) ({dropped} older event(s) aged out of the ring)",
        events.len()
    );
    Ok(())
}

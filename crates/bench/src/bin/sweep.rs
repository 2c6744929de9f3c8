//! `sfence-sweep`: the production sweep runner. Runs any registered
//! experiment (fig12..fig16, smoke) with content-addressed result
//! caching, process-level sharding, resume after interruption, an
//! append-only JSONL results store with history diffing, and a
//! loopback mode that runs the `sfence-dist` daemon in-process and
//! fans the sweep out to local `sfence-dist work` processes.
//!
//! ```text
//! sfence-sweep --experiment fig13 [--scale small|eval]
//!     [--backend B]            execution engine: sim (default) | functional | enumerative
//!     [--threads N]            worker threads per process
//!     [--cache-dir DIR]        content-addressed RunReport cache
//!     [--resume]               documents resume intent (needs --cache-dir)
//!     [--shard I/N]            run one shard; emit indexed rows as JSONL
//!     [--workers N]            spawn N sfence-dist workers over loopback and merge
//!     [--max-cells N]          execute at most N uncached cells, then stop
//!     [--progress]             throttled done/total + ETA line on stderr
//!     [--trace PATH]           write a Chrome trace_event JSON pipeline trace
//!     [--store FILE]           append the completed run to a JSONL store
//!     [--git STR]              provenance string (default: git describe)
//!     [--timestamp SECS]       unix time stamped on the store meta line
//!     [--diff]                 diff against the latest stored run
//!     [--diff-run K]           diff against the K-th most recent stored run
//!     [--json | --rows]        machine-readable / raw-table output
//!     [--list]                 print the experiment names and exit (--json for machine-readable)
//! ```
//!
//! Exit codes: 0 complete, 1 runtime error, 2 usage error,
//! 3 incomplete (the `--max-cells` budget ran out — rerun with the
//! same `--cache-dir` to resume). The store is only appended for
//! complete runs, so an interrupted-then-resumed sweep produces a
//! store byte-identical to an uninterrupted one.

use sfence_bench::cli::{self, FigureArgs, OutputArgs};
use sfence_dist::{client, run_server, ExperimentSpec, Poll, ServerOpts};
use sfence_harness::{Experiment, IndexedRow, SweepResult};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct SweepArgs {
    common: FigureArgs,
    output: OutputArgs,
    experiment: Option<String>,
    workers: Option<usize>,
    max_cells: Option<usize>,
    list: bool,
}

fn parse_args() -> Result<SweepArgs, String> {
    let mut args = SweepArgs {
        common: FigureArgs::default(),
        output: OutputArgs::default(),
        experiment: None,
        workers: None,
        max_cells: None,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if args.output.accept(&arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--experiment" => args.experiment = Some(cli::take(&mut it, "--experiment")?),
            "--workers" => {
                let n: usize = cli::take(&mut it, "--workers")?
                    .parse()
                    .map_err(|_| "--workers expects a positive integer".to_string())?;
                if n == 0 {
                    return Err("--workers expects a positive integer".into());
                }
                args.workers = Some(n);
            }
            "--max-cells" => {
                args.max_cells = Some(
                    cli::take(&mut it, "--max-cells")?
                        .parse()
                        .map_err(|_| "--max-cells expects an integer".to_string())?,
                );
            }
            "--list" => args.list = true,
            other if !other.starts_with('-') && args.experiment.is_none() => {
                args.experiment = Some(other.to_string());
            }
            other => args.common.accept(other, &mut it)?,
        }
    }
    args.common.validate()?;
    if args.workers.is_some() && args.common.shard.is_some() {
        return Err("--workers and --shard are mutually exclusive".into());
    }
    if args.workers.is_some() && args.max_cells.is_some() {
        return Err("--max-cells applies to in-process runs, not spawned workers".into());
    }
    if args.workers.is_some() && args.common.trace.is_some() {
        // Rows come back over a socket as serialized reports, which
        // deliberately carry no pipe events.
        return Err("--trace applies to in-process runs, not spawned workers".into());
    }
    if args.common.shard.is_some() && args.output.wants_store_or_diff() {
        // A shard worker emits partial rows for a parent to merge;
        // silently skipping the store/diff would look like data loss.
        return Err("--store/--diff apply to merged runs, not --shard workers".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: sfence-sweep --experiment <name> [options]; --list for names");
        std::process::exit(2);
    });
    if args.list {
        if args.common.json {
            print!("{}", sfence_bench::list_json().to_string_pretty());
        } else {
            print_list();
        }
        return;
    }
    let name = args.experiment.clone().unwrap_or_else(|| {
        eprintln!("error: --experiment is required (--list for names)");
        std::process::exit(2);
    });
    let experiment = sfence_bench::experiment_by_name(&name).unwrap_or_else(|| {
        eprintln!("error: unknown experiment {name:?} (--list for names)");
        std::process::exit(2);
    });
    let experiment = args.common.configure(experiment).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Err(e) = run(&name, &experiment, &args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(name: &str, experiment: &Experiment, args: &SweepArgs) -> Result<(), String> {
    let rows = if let Some(workers) = args.workers {
        run_distributed(name, experiment, args, workers)?
    } else {
        match run_local(experiment, args)? {
            Some(rows) => rows,
            // Shard mode already emitted its rows.
            None => return Ok(()),
        }
    };
    let result = SweepResult::from_indexed(&experiment.name, experiment.job_count(), rows)?;
    cli::finish_run(experiment, &result, &args.output, args.common.json)
}

/// Run (a shard of) the experiment in this process via the shared
/// `cli::run_local`. Returns `None` after emitting indexed JSONL in
/// shard mode; exits with code 3 if the `--max-cells` budget left
/// cells unrun.
fn run_local(experiment: &Experiment, args: &SweepArgs) -> Result<Option<Vec<IndexedRow>>, String> {
    let local = cli::run_local(experiment, &args.common, args.max_cells)?;
    if !local.complete {
        eprintln!("sweep: incomplete (budget ran out) — rerun with the same --cache-dir to resume");
        std::process::exit(3);
    }
    Ok(local.rows)
}

/// Split the machine across worker processes so N of them don't each
/// start a per-CPU thread pool (N-fold oversubscription).
fn threads_per_worker(requested: Option<usize>, workers: usize) -> usize {
    requested.unwrap_or_else(|| {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (cpus / workers).max(1)
    })
}

/// `--workers N`: the dist daemon on a loopback port, N spawned
/// `sfence-dist work` processes, and this process as the submitting
/// client — merged exactly like a remote campaign would be.
fn run_distributed(
    name: &str,
    experiment: &Experiment,
    args: &SweepArgs,
    workers: usize,
) -> Result<Vec<IndexedRow>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dist = exe
        .parent()
        .map(|dir| dir.join("sfence-dist"))
        .filter(|p| p.exists())
        .ok_or("sfence-dist binary not found next to sfence-sweep (build sfence-bench)")?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let spec = ExperimentSpec::new(name)
        .scale(args.common.scale)
        .backend(args.common.backend);
    let threads = threads_per_worker(args.common.threads, workers);

    let mut children = Vec::new();
    for index in 0..workers {
        let mut cmd = Command::new(&dist);
        cmd.arg("work")
            .arg(&addr)
            .arg("--threads")
            .arg(threads.to_string())
            .arg("--name")
            .arg(format!("local-{index}"))
            .stdout(Stdio::null());
        if let Some(dir) = &args.common.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        if args.common.progress {
            cmd.arg("--progress");
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn worker {index}: {e}"))?;
        children.push(child);
    }

    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        shutdown: Some(Arc::clone(&shutdown)),
        ..ServerOpts::default()
    };
    let (collected, outcome) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            run_server(
                &listener,
                Some(sfence_bench::experiment_by_name),
                Vec::new(),
                &opts,
            )
        });
        let collected = collect(&addr, experiment, &spec, &mut children);
        // Workers idling on `wait` are told `done` once the daemon
        // notices the flag.
        shutdown.store(true, Ordering::SeqCst);
        (collected, server.join().expect("dist server thread"))
    });
    // Close the listen socket before waiting: a worker that tries to
    // connect from here on gets an immediate reset instead of a
    // connection nobody will ever serve.
    drop(listener);
    for (index, mut child) in children.into_iter().enumerate() {
        let status = child
            .wait()
            .map_err(|e| format!("wait for worker {index}: {e}"))?;
        if !status.success() && collected.is_ok() {
            eprintln!("warning: worker {index} exited with {status}");
        }
    }
    let outcome = outcome?;
    let rows = collected?;
    eprintln!(
        "dist: workers={} cache_hits={} executed={} released={} rejected={}",
        outcome.workers, outcome.cache_hits, outcome.executed, outcome.released, outcome.rejected
    );
    Ok(rows)
}

/// Submit the experiment to the loopback daemon and poll until its
/// merged rows come back. Errors out as soon as every worker process
/// has exited with the campaign still running — nobody is left to run
/// its cells.
fn collect(
    addr: &str,
    experiment: &Experiment,
    spec: &ExperimentSpec,
    children: &mut [Child],
) -> Result<Vec<IndexedRow>, String> {
    let client_opts = client::ClientOpts::default();
    let ticket = client::submit(addr, spec, 1, &client_opts)?;
    if ticket.fingerprint != experiment.fingerprint() {
        return Err(format!(
            "daemon resolves {:?} to fingerprint {} but this run expects {}",
            spec.experiment,
            ticket.fingerprint,
            experiment.fingerprint()
        ));
    }
    loop {
        if let Poll::Complete { rows, .. } = client::poll(addr, &ticket.campaign, &client_opts)? {
            return Ok(rows);
        }
        if children
            .iter_mut()
            .all(|c| matches!(c.try_wait(), Ok(Some(_))))
        {
            return Err(format!(
                "every worker exited before campaign {} completed",
                ticket.campaign
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// `--list`: enumerate every registered experiment (axis, fence
/// configs, job count, workloads) plus the litmus scenario families,
/// so discovery never requires reading `catalog.rs`. `--list --json`
/// emits the same inventory machine-readably ([`sfence_bench::list_json`]) —
/// coordinators and tooling validate requests against it.
fn print_list() {
    println!("experiments (sfence-sweep --experiment <name>):");
    for name in sfence_bench::experiment_names() {
        let e = sfence_bench::experiment_by_name(name).expect("registered name");
        let axis = if e.axis_name().is_empty() {
            "-"
        } else {
            e.axis_name()
        };
        println!(
            "  {:<12} axis={:<12} jobs={:<4} workloads: {}",
            name,
            axis,
            e.job_count(),
            e.workload_names().join(", ")
        );
    }
    println!();
    println!("backends (--backend): sim (default, cycle-accurate), functional (fast SC");
    println!("  interpreter, no timing fields), enumerative (rows carry the SC allowed-state");
    println!("  set size; full sets live in the cached reports)");
    println!();
    println!(
        "litmus families (workload names litmus/<family>/<seed>; campaigns via sfence-litmus):"
    );
    print!(
        "{}",
        sfence_workloads::litmus::family_listing(|f| format!("litmus/{}/<seed>", f.name()))
    );
}

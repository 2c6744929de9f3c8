//! Shared command-line switches of the figure binaries and
//! `sfence-sweep`. Hand-rolled (the container carries no external
//! crates); unknown flags are errors so typos fail loudly instead of
//! silently running the default sweep.

use sfence_dist::ExperimentSpec;
use sfence_harness::{
    default_threads, diff_rows, BackendId, Experiment, ResultCache, ResultStore, RunMeta,
    RunOptions, RunOutcome, SweepResult,
};
use sfence_workloads::Scale;
use std::path::PathBuf;

/// Switches every figure binary understands.
#[derive(Debug, Clone, Default)]
pub struct FigureArgs {
    /// Emit the structured sweep rows as JSON.
    pub json: bool,
    /// Emit the raw row table.
    pub rows: bool,
    /// Override every workload's problem scale.
    pub scale: Option<Scale>,
    /// Execution engine override (`sim`, `functional`,
    /// `enumerative`); default: the experiment's own backend (sim).
    pub backend: Option<BackendId>,
    /// Content-addressed result cache directory; an interrupted
    /// sweep resumes by rerunning with the same directory.
    pub cache_dir: Option<PathBuf>,
    /// Worker thread count (default: one per CPU, capped by jobs).
    pub threads: Option<usize>,
    /// Write a Chrome `trace_event` pipeline trace of every executed
    /// cell to this path. Mutually exclusive with `--cache-dir`
    /// (cached reports carry no pipe events).
    pub trace: Option<PathBuf>,
    /// Print a throttled progress line (done/total, cells/s, ETA) to
    /// stderr while the sweep runs.
    pub progress: bool,
}

impl FigureArgs {
    /// Parse `std::env::args`, rejecting unknown flags.
    pub fn parse() -> Result<FigureArgs, String> {
        let mut args = FigureArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            args.accept(&arg, &mut it)?;
        }
        args.validate()?;
        Ok(args)
    }

    /// Try to consume one flag (pulling values from `it`); the sweep
    /// binary reuses this for the flags it shares with the figures.
    pub fn accept(
        &mut self,
        arg: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<(), String> {
        match arg {
            "--json" => self.json = true,
            "--rows" => self.rows = true,
            "--scale" => {
                self.scale = Some(Scale::parse(&take(it, "--scale")?)?);
            }
            "--backend" => {
                self.backend = Some(BackendId::parse(&take(it, "--backend")?)?);
            }
            "--cache-dir" => {
                self.cache_dir = Some(PathBuf::from(take(it, "--cache-dir")?));
            }
            "--threads" => {
                let n: usize = take(it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads expects a positive integer".to_string())?;
                if n == 0 {
                    return Err("--threads expects a positive integer".into());
                }
                self.threads = Some(n);
            }
            "--trace" => {
                self.trace = Some(PathBuf::from(take(it, "--trace")?));
            }
            "--progress" => self.progress = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        Ok(())
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.trace.is_some() && self.cache_dir.is_some() {
            return Err(
                "--trace is incompatible with --cache-dir: cached reports carry no \
                 pipe events, so a cache hit would leave a hole in the trace"
                    .into(),
            );
        }
        Ok(())
    }

    /// The experiment-shaping overrides (`--scale`, `--backend`) as
    /// the spec of experiment `name`; [`ExperimentSpec::apply`]
    /// shapes a registered experiment with them.
    pub fn spec(&self, name: &str) -> ExperimentSpec {
        ExperimentSpec::new(name)
            .scale(self.scale)
            .backend(self.backend)
    }
}

/// The one implementation of "run an experiment in this process under
/// the shared CLI switches", used by both `figure_main` and
/// `sfence-sweep` so cache-writer naming and stats reporting can
/// never drift apart.
pub fn run_local(
    experiment: &Experiment,
    args: &FigureArgs,
    max_cells: Option<usize>,
) -> Result<RunOutcome, String> {
    let threads = args
        .threads
        .unwrap_or_else(|| default_threads(experiment.job_count()));
    let mut cache = match &args.cache_dir {
        Some(dir) => {
            // Writers sharing one cache directory — dist workers,
            // concurrent sweeps, or whole other hosts on a network
            // filesystem — each append to their own file (host token +
            // pid + nonce), so writes can never collide.
            Some(
                ResultCache::open_unique(dir, "cache")
                    .map_err(|e| format!("open cache {}: {e}", dir.display()))?,
            )
        }
        None => None,
    };
    let mut opts = RunOptions::new(threads);
    if let Some(cache) = cache.as_mut() {
        opts = opts.cache(cache);
    }
    if let Some(max) = max_cells {
        opts = opts.max_cells(max);
    }
    if args.trace.is_some() {
        opts = opts.pipe_trace();
    }
    let meter = args
        .progress
        .then(|| sfence_obs::ProgressMeter::new(&experiment.name, experiment.job_count()));
    let on_cell = |done: usize, _total: usize| {
        if let Some(m) = &meter {
            m.update(done);
        }
    };
    if args.progress {
        opts = opts.on_cell(&on_cell);
    }
    let outcome = experiment.run_with(opts);
    if let Some(path) = &args.trace {
        sfence_obs::write_chrome_trace(path, &outcome.traces)
            .map_err(|e| format!("write trace {}: {e}", path.display()))?;
        eprintln!(
            "trace: {} job(s), {} event(s) -> {}",
            outcome.traces.len(),
            outcome.traces.iter().map(|(_, t)| t.len()).sum::<usize>(),
            path.display()
        );
    }
    if cache.is_some() {
        eprintln!(
            "cache: {} hits, {} executed, {} skipped",
            outcome.stats.cache_hits, outcome.stats.executed, outcome.stats.skipped
        );
    }
    if outcome.stats.cache_write_errors > 0 {
        eprintln!(
            "warning: {} cache appends failed (results kept, cells not cached)",
            outcome.stats.cache_write_errors
        );
    }
    Ok(outcome)
}

/// The store/diff/output switches shared by `sfence-sweep` and
/// `sfence-dist submit`, so a distributed campaign lands in — and
/// diffs against — exactly the same history a local one would.
#[derive(Debug, Clone, Default)]
pub struct OutputArgs {
    /// Append the completed run to this JSONL store.
    pub store: Option<PathBuf>,
    /// Provenance string (default: `git describe`).
    pub git: Option<String>,
    /// Unix seconds stamped on the store meta line.
    pub timestamp: Option<u64>,
    /// Diff against the K-th most recent comparable stored run
    /// (1 = latest; `--diff` is shorthand for `--diff-run 1`).
    pub diff_run: Option<usize>,
}

impl OutputArgs {
    /// Try to consume one store/diff flag.
    pub fn accept(
        &mut self,
        arg: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--store" => self.store = Some(PathBuf::from(take(it, "--store")?)),
            "--git" => self.git = Some(take(it, "--git")?),
            "--timestamp" => {
                self.timestamp = Some(
                    take(it, "--timestamp")?
                        .parse()
                        .map_err(|_| "--timestamp expects unix seconds".to_string())?,
                );
            }
            "--diff" => self.diff_run = Some(self.diff_run.unwrap_or(1)),
            "--diff-run" => {
                let k: usize = take(it, "--diff-run")?
                    .parse()
                    .map_err(|_| "--diff-run expects a positive integer".to_string())?;
                if k == 0 {
                    return Err("--diff-run counts back from 1 = latest".into());
                }
                self.diff_run = Some(k);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Post-run handling of one merged result: history diff, store
/// append, and stdout rendering — the one implementation behind
/// `sfence-sweep` and `sfence-dist submit`.
pub fn finish_run(
    experiment: &Experiment,
    result: &SweepResult,
    out: &OutputArgs,
    json: bool,
) -> Result<(), String> {
    // Stamped into the store meta and matched on diff: cycle counts
    // across problem scales are incomparable. Derived from the
    // experiment's resolved parameters (not the --scale flag), so a
    // run without the flag and one naming the same scale explicitly
    // land in — and diff against — the same history.
    let scale = experiment.uniform_scale().map_or("mixed", Scale::name);
    // Same idea for the execution engine: sim and functional runs of
    // one experiment are separate histories ("mixed" = Axis::Backend).
    let backend = match experiment.uniform_backend() {
        Some(b) => b.name(),
        None => "mixed",
    };

    if let Some(k) = out.diff_run {
        let store = out
            .store
            .as_ref()
            .ok_or("--diff/--diff-run require --store (the history to diff against)")?;
        let history = ResultStore::new(store).history_at(&result.experiment, scale, backend)?;
        match history.get(k - 1) {
            None => eprintln!(
                "diff: only {} stored run(s) of {} at scale {scale} on the {backend} \
                 backend (wanted the {k}th most recent)",
                history.len(),
                result.experiment
            ),
            Some(prev) => {
                let diff = diff_rows(&prev.rows, &result.rows);
                if diff.is_empty() {
                    eprintln!(
                        "diff: identical to stored run {k} back, from {} ({})",
                        prev.meta.git, prev.meta.timestamp
                    );
                } else {
                    eprintln!(
                        "diff: against stored run {k} back, from {} ({}):",
                        prev.meta.git, prev.meta.timestamp
                    );
                    eprint!("{}", diff.to_report());
                }
            }
        }
    }
    if let Some(store) = &out.store {
        let git = match &out.git {
            Some(git) => git.clone(),
            None => git_describe(),
        };
        let timestamp = match out.timestamp {
            Some(t) => t,
            None => std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        };
        let meta = RunMeta::new(
            &result.experiment,
            experiment.axis_name(),
            scale,
            backend,
            git,
            timestamp,
        );
        ResultStore::new(store)
            .append(&meta, result)
            .map_err(|e| format!("append to {}: {e}", store.display()))?;
    }

    if json {
        print!("{}", result.to_json_string());
    } else {
        print!("{}", result.to_ascii_table());
    }
    Ok(())
}

pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn take(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} expects a value"))
}

//! Layer 2 of the harness: declarative sweeps.
//!
//! An [`Experiment`] is a named cross product of
//! `workloads × machine/workload axis × fence configs`, built from
//! the workload registry. Running one yields a [`SweepResult`] of
//! structured [`SweepRow`]s in a stable order, regardless of how many
//! worker threads executed the jobs — the simulator is deterministic,
//! so parallel and serial runs are byte-identical once rows are
//! placed by job index.

use crate::backend::BackendId;
use crate::cache::{job_key, ResultCache};
use crate::json::{FromJson, Json};
use crate::runner::run_indexed;
use crate::session::{exit_name, RunReport, Session, SCHEMA_VERSION};
use sfence_core::PipeEvent;
use sfence_sim::{FenceConfig, MachineConfig};
use sfence_workloads::catalog;
use sfence_workloads::{Scale, ScopeMode, WorkloadParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The swept parameter, orthogonal to the fence-config dimension.
/// `Level` and `Scope` vary how the workload is *built*; `Backend`
/// varies the execution engine; the rest vary the machine.
#[derive(Debug, Clone, Default)]
pub enum Axis {
    #[default]
    None,
    /// Fig. 12 workload knob.
    Level(Vec<u32>),
    /// Fig. 14 class scope vs set scope.
    Scope(Vec<ScopeMode>),
    /// Fig. 15 memory latency sweep.
    MemLatency(Vec<u64>),
    /// Fig. 16 ROB size sweep.
    RobSize(Vec<usize>),
    /// Store-buffer size sweep (§VI-D sensitivity, `hwsweep`).
    SbSize(Vec<usize>),
    /// Scope-hardware sizing sweeps (§VI-E).
    FsbEntries(Vec<usize>),
    FssEntries(Vec<usize>),
    /// Issue/retire width sweep (both widths move together — the
    /// machine's front/back-end width).
    IssueWidth(Vec<usize>),
    /// Shared L2 capacity sweep (bytes).
    L2Size(Vec<usize>),
    /// Execution-engine sweep: the same cells side by side under
    /// different backends (sim vs functional differential rows).
    Backend(Vec<BackendId>),
}

/// One concrete point of an [`Axis`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisPoint {
    None,
    Level(u32),
    Scope(ScopeMode),
    MemLatency(u64),
    RobSize(usize),
    SbSize(usize),
    FsbEntries(usize),
    FssEntries(usize),
    IssueWidth(usize),
    L2Size(usize),
    Backend(BackendId),
}

impl Axis {
    pub fn name(&self) -> &'static str {
        match self {
            Axis::None => "",
            Axis::Level(_) => "level",
            Axis::Scope(_) => "scope",
            Axis::MemLatency(_) => "mem_latency",
            Axis::RobSize(_) => "rob_size",
            Axis::SbSize(_) => "sb_size",
            Axis::FsbEntries(_) => "fsb_entries",
            Axis::FssEntries(_) => "fss_entries",
            Axis::IssueWidth(_) => "issue_width",
            Axis::L2Size(_) => "l2_size",
            Axis::Backend(_) => "backend",
        }
    }

    fn points(&self) -> Vec<AxisPoint> {
        match self {
            Axis::None => vec![AxisPoint::None],
            Axis::Level(v) => v.iter().map(|&x| AxisPoint::Level(x)).collect(),
            Axis::Scope(v) => v.iter().map(|&x| AxisPoint::Scope(x)).collect(),
            Axis::MemLatency(v) => v.iter().map(|&x| AxisPoint::MemLatency(x)).collect(),
            Axis::RobSize(v) => v.iter().map(|&x| AxisPoint::RobSize(x)).collect(),
            Axis::SbSize(v) => v.iter().map(|&x| AxisPoint::SbSize(x)).collect(),
            Axis::FsbEntries(v) => v.iter().map(|&x| AxisPoint::FsbEntries(x)).collect(),
            Axis::FssEntries(v) => v.iter().map(|&x| AxisPoint::FssEntries(x)).collect(),
            Axis::IssueWidth(v) => v.iter().map(|&x| AxisPoint::IssueWidth(x)).collect(),
            Axis::L2Size(v) => v.iter().map(|&x| AxisPoint::L2Size(x)).collect(),
            Axis::Backend(v) => v.iter().map(|&x| AxisPoint::Backend(x)).collect(),
        }
    }
}

impl AxisPoint {
    /// The row's `value` column.
    pub fn value_string(&self) -> String {
        match *self {
            AxisPoint::None => String::new(),
            AxisPoint::Level(x) => x.to_string(),
            AxisPoint::Scope(ScopeMode::Class) => "class".into(),
            AxisPoint::Scope(ScopeMode::Set) => "set".into(),
            AxisPoint::MemLatency(x) => x.to_string(),
            AxisPoint::RobSize(x)
            | AxisPoint::SbSize(x)
            | AxisPoint::FsbEntries(x)
            | AxisPoint::FssEntries(x)
            | AxisPoint::IssueWidth(x)
            | AxisPoint::L2Size(x) => x.to_string(),
            AxisPoint::Backend(b) => b.name().into(),
        }
    }

    fn apply_to_params(&self, params: &mut WorkloadParams) {
        match *self {
            AxisPoint::Level(level) => params.level = level,
            AxisPoint::Scope(scope) => params.scope = scope,
            _ => {}
        }
    }

    fn apply_to_machine(&self, cfg: &mut MachineConfig) {
        match *self {
            AxisPoint::MemLatency(lat) => cfg.mem.mem_latency = lat,
            AxisPoint::RobSize(rob) => cfg.core.rob_size = rob,
            AxisPoint::SbSize(n) => cfg.core.sb_size = n,
            AxisPoint::FsbEntries(n) => cfg.core.scope.fsb_entries = n,
            AxisPoint::FssEntries(n) => cfg.core.scope.fss_entries = n,
            AxisPoint::IssueWidth(n) => cfg.core.width = n,
            AxisPoint::L2Size(n) => cfg.mem.l2_size = n,
            _ => {}
        }
    }

    /// The engine this point selects, if it is a backend point.
    fn backend(&self) -> Option<BackendId> {
        match *self {
            AxisPoint::Backend(b) => Some(b),
            _ => None,
        }
    }
}

/// A declarative sweep specification.
#[derive(Debug, Clone)]
pub struct Experiment {
    pub name: String,
    base: MachineConfig,
    workloads: Vec<(String, WorkloadParams)>,
    fences: Vec<FenceConfig>,
    axis: Axis,
    backend: BackendId,
}

/// One fully-resolved unit of work.
#[derive(Debug, Clone)]
struct Job {
    workload: String,
    params: WorkloadParams,
    fence: FenceConfig,
    point: AxisPoint,
    cfg: MachineConfig,
    backend: BackendId,
}

impl Experiment {
    pub fn new(name: impl Into<String>) -> Self {
        Experiment {
            name: name.into(),
            base: MachineConfig::paper_default(),
            workloads: Vec::new(),
            fences: vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE],
            axis: Axis::None,
            backend: BackendId::Sim,
        }
    }

    /// Base machine configuration every job starts from.
    pub fn base(mut self, cfg: MachineConfig) -> Self {
        self.base = cfg;
        self
    }

    /// Rename the experiment (derived experiments that reuse another
    /// spec under their own registry name).
    pub fn rename(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Execution engine every job runs on (default: the
    /// cycle-accurate simulator). An [`Axis::Backend`] point
    /// overrides this per cell.
    pub fn backend(mut self, backend: BackendId) -> Self {
        self.backend = backend;
        self
    }

    /// Add one registry workload with explicit build parameters. The
    /// name is a Table IV benchmark, a generated litmus scenario
    /// (`litmus/<family>/<seed>`, including the minimized fuzzer
    /// regressions under `litmus/regression/<id>`), or an encoded
    /// fuzzer candidate (`fuzz/<encoded>`) — which is how corpus
    /// entries fan out as `ExperimentSpec` jobs over `sfence-dist`.
    pub fn workload(mut self, name: impl Into<String>, params: WorkloadParams) -> Self {
        let name = name.into();
        assert!(
            catalog::exists(&name),
            "unknown workload {name:?} (not in the registry)"
        );
        self.workloads.push((name, params));
        self
    }

    /// The workload names of this experiment, in spec order
    /// (discovery surface for `sfence-sweep --list`).
    pub fn workload_names(&self) -> Vec<&str> {
        self.workloads.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Add several registry workloads sharing one parameter set.
    pub fn workloads<I, S>(mut self, names: I, params: WorkloadParams) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for name in names {
            self = self.workload(name, params);
        }
        self
    }

    /// Fence configurations to cross with (defaults to `[T, S]`).
    pub fn fences(mut self, fences: impl Into<Vec<FenceConfig>>) -> Self {
        self.fences = fences.into();
        self
    }

    /// Sweep axis (defaults to a single unlabelled point).
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axis = axis;
        self
    }

    /// Override the problem scale of every workload added *so far*
    /// (the figure binaries' `--scale small` switch).
    pub fn scale(mut self, scale: Scale) -> Self {
        for (_, params) in &mut self.workloads {
            params.scale = scale;
        }
        self
    }

    fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (workload, params) in &self.workloads {
            for point in self.axis.points() {
                for &fence in &self.fences {
                    let mut params = *params;
                    point.apply_to_params(&mut params);
                    let mut cfg = self.base.clone().with_fence(fence);
                    point.apply_to_machine(&mut cfg);
                    jobs.push(Job {
                        workload: workload.clone(),
                        params,
                        fence,
                        point,
                        cfg,
                        backend: point.backend().unwrap_or(self.backend),
                    });
                }
            }
        }
        jobs
    }

    /// Name of the swept axis (empty when there is none).
    pub fn axis_name(&self) -> &'static str {
        self.axis.name()
    }

    /// The problem scale shared by every workload of this experiment
    /// — `None` when it has no workloads or mixes scales. This is the
    /// value result-store metadata records, so history diffs only
    /// compare runs of the same problem size.
    pub fn uniform_scale(&self) -> Option<Scale> {
        let mut scales = self.workloads.iter().map(|(_, p)| p.scale);
        let first = scales.next()?;
        scales.all(|s| s == first).then_some(first)
    }

    /// The execution backend shared by every job of this experiment —
    /// `None` when an [`Axis::Backend`] sweep mixes engines. Result
    ///-store metadata records this, so history diffs only compare
    /// runs of the same engine.
    pub fn uniform_backend(&self) -> Option<BackendId> {
        let mut backends = self
            .axis
            .points()
            .into_iter()
            .map(|p| p.backend().unwrap_or(self.backend));
        let first = backends.next()?;
        backends.all(|b| b == first).then_some(first)
    }

    /// Total number of runs this experiment performs.
    pub fn job_count(&self) -> usize {
        self.workloads.len() * self.axis.points().len() * self.fences.len()
    }

    /// Run with `threads` OS worker threads. Row order is identical
    /// to the serial order no matter the thread count or scheduling:
    /// results are placed by job index.
    pub fn run(&self, threads: usize) -> SweepResult {
        let outcome = self.run_with(RunOptions::new(threads));
        SweepResult::from_indexed(&self.name, self.job_count(), outcome.rows)
            .expect("an unrestricted, unbudgeted run covers every job")
    }

    /// Content-hash cache keys of every job, in job order. A key
    /// commits to the executing backend, the workload name, its build
    /// parameters and the complete machine configuration (fence
    /// config included), so a key collision across distinct cells
    /// needs a SHA-256 collision.
    pub fn job_keys(&self) -> Vec<String> {
        self.jobs()
            .iter()
            .map(|job| job_key(&job.workload, &job.params, &job.cfg, job.backend))
            .collect()
    }

    /// Content hash of the *whole resolved experiment*: the schema
    /// version, name, axis and the cache key of every job in job
    /// order. Two processes agree on this fingerprint exactly when
    /// their job lists are interchangeable — same cells, same indices,
    /// same serialization generation — so the distributed runner's
    /// handshake compares fingerprints and rejects mismatched binaries
    /// instead of corrupting a merge.
    pub fn fingerprint(&self) -> String {
        let doc = Json::obj()
            .field("schema_version", SCHEMA_VERSION)
            .field("experiment", self.name.as_str())
            .field("axis", self.axis.name())
            .field("job_keys", self.job_keys());
        crate::hash::sha256_hex(doc.canonicalize().to_string_compact().as_bytes())
    }

    /// The configurable execution engine behind [`Experiment::run`]:
    /// optionally restricted to an explicit job set (a distributed
    /// lease), optionally backed by a content-addressed result cache
    /// (hits skip the simulator, misses execute and are inserted),
    /// optionally budgeted to at most `max_cells` executed cells (the
    /// remainder is reported as skipped — an interrupted sweep
    /// resumes by re-running with the same cache). Rows come back
    /// sorted by job index, so leased subsets merged with
    /// [`SweepResult::from_indexed`] are byte-identical to a
    /// single-process run.
    pub fn run_with(&self, opts: RunOptions) -> RunOutcome {
        let jobs = self.jobs();
        let axis_name = self.axis.name().to_string();
        // Pipe traces never round-trip through serialized reports (see
        // `RunReport::pipe`), so a cache could silently answer a traced
        // job with an event-less report. Static configuration: misuse
        // is a programming error, not a recoverable condition.
        assert!(
            !(opts.pipe_trace && opts.cache.is_some()),
            "pipe tracing and the result cache are mutually exclusive \
             (cached reports carry no pipe events)"
        );
        let selected: Vec<usize> = match opts.jobs {
            Some(mut explicit) => {
                explicit.sort_unstable();
                explicit.dedup();
                for &i in &explicit {
                    assert!(
                        i < jobs.len(),
                        "job index {i} out of range ({} jobs)",
                        jobs.len()
                    );
                }
                explicit
            }
            None => (0..jobs.len()).collect(),
        };

        let cache = opts.cache;
        let mut rows = Vec::with_capacity(selected.len());
        let mut misses: Vec<(usize, Option<String>)> = Vec::new();
        let mut cache_hits = 0;
        for &i in &selected {
            let job = &jobs[i];
            match cache.as_ref() {
                Some(c) => {
                    let key = job_key(&job.workload, &job.params, &job.cfg, job.backend);
                    match c.get(&key) {
                        Some(report) => {
                            cache_hits += 1;
                            rows.push(IndexedRow {
                                index: i,
                                row: row_from_report(job, &axis_name, report),
                            });
                        }
                        None => misses.push((i, Some(key))),
                    }
                }
                None => misses.push((i, None)),
            }
        }

        // Budget applies to *executed* cells only, in job order, so
        // which cells an interrupted run completed is deterministic.
        let budget = opts.max_cells.unwrap_or(misses.len()).min(misses.len());
        let skipped = misses.len() - budget;
        let to_run = &misses[..budget];
        // Progress counts completed cells over every selected cell;
        // cache hits are already done before execution starts.
        let done = AtomicUsize::new(cache_hits);
        let total = selected.len();
        if let (Some(cb), true) = (opts.on_cell, cache_hits > 0) {
            cb(cache_hits, total);
        }
        // Each executed cell is cached and reduced to its row on the
        // thread that ran it, so its report (the memory image alone is
        // up to a megabyte) is freed at once instead of waiting for
        // the whole set. The mutex orders the cache appends.
        let cache = Mutex::new(cache);
        let cache_write_errors = AtomicUsize::new(0);
        let executed = run_indexed(to_run.len(), opts.threads, |k| {
            let (i, key) = &to_run[k];
            let job = &jobs[*i];
            let built = catalog::build(&job.workload, &job.params);
            let backend = job.backend.instantiate();
            let mut cfg = job.cfg.clone();
            cfg.core.pipe_trace |= opts.pipe_trace;
            let report = Session::for_workload(&built)
                .config(cfg)
                .backend(backend.as_ref())
                .run();
            if let (Some(c), Some(key)) = (cache.lock().unwrap().as_deref_mut(), key.as_deref()) {
                // A failed append (disk full, permissions) must not
                // discard the simulated result already in hand: the
                // cell just won't be cached. Callers surface the count.
                if c.insert(key, &report).is_err() {
                    cache_write_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            if let Some(cb) = opts.on_cell {
                cb(done.fetch_add(1, Ordering::Relaxed) + 1, total);
            }
            let row = IndexedRow {
                index: *i,
                row: row_from_report(job, &axis_name, &report),
            };
            (row, opts.pipe_trace.then(|| (job_label(job), report.pipe)))
        });
        let mut traces = Vec::new();
        for (row, trace) in executed {
            rows.push(row);
            traces.extend(trace);
        }
        rows.sort_by_key(|r| r.index);
        RunOutcome {
            rows,
            traces,
            stats: RunStats {
                cache_hits,
                executed: budget,
                skipped,
                cache_write_errors: cache_write_errors.into_inner(),
            },
            complete: skipped == 0,
        }
    }

    /// Run with one worker per available CPU (capped by job count).
    pub fn run_parallel(&self) -> SweepResult {
        self.run(default_threads(self.job_count()))
    }
}

/// One worker per available CPU, capped by the job count.
pub fn default_threads(job_count: usize) -> usize {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cpus.min(job_count.max(1))
}

/// Options for [`Experiment::run_with`].
pub struct RunOptions<'c> {
    pub threads: usize,
    /// Look jobs up here before executing; insert fresh results.
    pub cache: Option<&'c mut ResultCache>,
    /// Restrict to an explicit set of job indices (a distributed
    /// lease); indices are deduplicated, sorted, and must be in
    /// range.
    pub jobs: Option<Vec<usize>>,
    /// Execute at most this many uncached cells (`None` = no limit).
    pub max_cells: Option<usize>,
    /// Record pipeline event traces on every executed cell
    /// ([`RunOutcome::traces`]). Mutually exclusive with `cache`:
    /// cached reports carry no pipe events.
    pub pipe_trace: bool,
    /// Completion callback `(done, total)` — invoked once per
    /// finished cell (from worker threads, hence `Sync`) and once up
    /// front for the cache-hit batch. Drives `--progress` meters.
    pub on_cell: Option<&'c (dyn Fn(usize, usize) + Sync)>,
}

impl<'c> RunOptions<'c> {
    pub fn new(threads: usize) -> Self {
        RunOptions {
            threads,
            cache: None,
            jobs: None,
            max_cells: None,
            pipe_trace: false,
            on_cell: None,
        }
    }

    pub fn cache(mut self, cache: &'c mut ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Run exactly these job indices — the worker half of a
    /// distributed lease.
    pub fn jobs(mut self, jobs: Vec<usize>) -> Self {
        self.jobs = Some(jobs);
        self
    }

    pub fn max_cells(mut self, max: usize) -> Self {
        self.max_cells = Some(max);
        self
    }

    /// Record pipeline traces on every executed cell.
    pub fn pipe_trace(mut self) -> Self {
        self.pipe_trace = true;
        self
    }

    /// Report per-cell completion (progress meters).
    pub fn on_cell(mut self, cb: &'c (dyn Fn(usize, usize) + Sync)) -> Self {
        self.on_cell = Some(cb);
        self
    }
}

/// Cache/execution accounting of one [`Experiment::run_with`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Cells answered from the cache without touching the simulator.
    pub cache_hits: usize,
    /// Cells actually simulated this run.
    pub executed: usize,
    /// Cells left unrun because the `max_cells` budget ran out.
    pub skipped: usize,
    /// Executed cells whose cache append failed (disk full etc.); the
    /// rows are still returned, the cells just aren't cached.
    pub cache_write_errors: usize,
}

/// Rows (tagged with their global job index) plus accounting.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Completed rows, sorted by job index.
    pub rows: Vec<IndexedRow>,
    /// Per executed cell (in job-index order, when
    /// [`RunOptions::pipe_trace`] was set): a human-readable job
    /// label and the cell's merged pipeline event stream.
    pub traces: Vec<(String, Vec<PipeEvent>)>,
    pub stats: RunStats,
    /// Every selected job produced a row (nothing was skipped).
    pub complete: bool,
}

/// A [`SweepRow`] tagged with its global job index — the unit
/// distributed workers return so the coordinator can merge rows in
/// stable order.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedRow {
    pub index: usize,
    pub row: SweepRow,
}

impl IndexedRow {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("job", self.index)
            .field("row", self.row.to_json())
    }
}

impl FromJson<'_> for IndexedRow {
    fn from_json(json: &Json) -> Result<IndexedRow, String> {
        Ok(IndexedRow {
            index: json.req("job")?,
            row: SweepRow::from_json(json.req("row")?)?,
        })
    }
}

/// Stable human-readable label for one job — names a traced job's
/// process in the Chrome trace viewer.
fn job_label(job: &Job) -> String {
    let mut label = format!("{}/{}", job.workload, job.fence.label());
    let value = job.point.value_string();
    if !value.is_empty() {
        label.push('/');
        label.push_str(&value);
    }
    label
}

fn row_from_report(job: &Job, axis_name: &str, report: &RunReport) -> SweepRow {
    let timed = report.cycles.is_some();
    SweepRow {
        workload: job.workload.clone(),
        fence: job.fence.label().to_string(),
        axis: axis_name.to_string(),
        value: job.point.value_string(),
        backend: report.backend.name().to_string(),
        cycles: report.cycles,
        instrs_retired: report.total_retired(),
        fence_stalls: timed.then(|| report.total_fence_stalls()),
        fence_stall_fraction: timed.then(|| report.fence_stall_fraction()),
        sc_states: report.sc_states.as_ref().map(|s| s.len() as u64),
        exit: exit_name(report.exit).to_string(),
    }
}

/// One structured result row. Timing columns (`cycles`,
/// `fence_stalls`, `fence_stall_fraction`) are absent on rows from
/// engines without a clock — the JSON omits them rather than
/// fabricating zeros.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    pub workload: String,
    /// Fence-config label (`T`, `S`, `T+`, `S+`).
    pub fence: String,
    /// Axis name (empty when the experiment has no axis).
    pub axis: String,
    /// Axis value rendered as a string (empty when no axis).
    pub value: String,
    /// Name of the engine that executed this cell.
    pub backend: String,
    pub cycles: Option<u64>,
    pub instrs_retired: u64,
    pub fence_stalls: Option<u64>,
    pub fence_stall_fraction: Option<f64>,
    /// Size of the SC-allowed final-state set (enumerative rows
    /// only; the full sets live in the cached `RunReport`s).
    pub sc_states: Option<u64>,
    pub exit: String,
}

impl SweepRow {
    /// Cycle count of a cycle-accurate row; panics on rows from
    /// engines without a clock.
    pub fn timed_cycles(&self) -> u64 {
        self.cycles.unwrap_or_else(|| {
            panic!(
                "row ({}, {}, {:?}) from the {} backend has no cycle count",
                self.workload, self.fence, self.value, self.backend
            )
        })
    }

    /// Fence-stall fraction of a cycle-accurate row; panics on rows
    /// from engines without a clock — like [`SweepRow::timed_cycles`],
    /// a missing value is never silently rendered as zero.
    pub fn timed_stall_fraction(&self) -> f64 {
        self.fence_stall_fraction.unwrap_or_else(|| {
            panic!(
                "row ({}, {}, {:?}) from the {} backend has no fence-stall fraction",
                self.workload, self.fence, self.value, self.backend
            )
        })
    }

    pub fn to_json(&self) -> Json {
        let mut row = Json::obj()
            .field("workload", self.workload.as_str())
            .field("fence", self.fence.as_str());
        if !self.axis.is_empty() {
            row = row
                .field("axis", self.axis.as_str())
                .field("value", self.value.as_str());
        }
        row = row.field("backend", self.backend.as_str());
        if let Some(cycles) = self.cycles {
            row = row.field("cycles", cycles);
        }
        row = row.field("instrs_retired", self.instrs_retired);
        if let Some(stalls) = self.fence_stalls {
            row = row.field("fence_stalls", stalls);
        }
        if let Some(fraction) = self.fence_stall_fraction {
            row = row.field("fence_stall_fraction", fraction);
        }
        if let Some(states) = self.sc_states {
            row = row.field("sc_states", states);
        }
        row.field("exit", self.exit.as_str())
    }

    pub fn from_json(json: &Json) -> Result<SweepRow, String> {
        Ok(SweepRow {
            workload: json.req("workload")?,
            fence: json.req("fence")?,
            // Axis fields are omitted on axis-less experiments.
            axis: json.opt("axis")?.unwrap_or_default(),
            value: json.opt("value")?.unwrap_or_default(),
            backend: json.req("backend")?,
            cycles: json.opt("cycles")?,
            instrs_retired: json.req("instrs_retired")?,
            fence_stalls: json.opt("fence_stalls")?,
            fence_stall_fraction: json.opt("fence_stall_fraction")?,
            sc_states: json.opt("sc_states")?,
            exit: json.req("exit")?,
        })
    }
}

/// All rows of one experiment, in spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    pub experiment: String,
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// Reassemble a full result from indexed rows (one or many
    /// leases' worth). Rows are sorted by job index; the merge fails
    /// if any job is missing or duplicated, so a partial or
    /// double-counted row set cannot masquerade as a complete run.
    pub fn from_indexed(
        experiment: &str,
        job_count: usize,
        mut rows: Vec<IndexedRow>,
    ) -> Result<SweepResult, String> {
        rows.sort_by_key(|r| r.index);
        if rows.len() != job_count {
            return Err(format!(
                "{}: {} rows for {} jobs",
                experiment,
                rows.len(),
                job_count
            ));
        }
        for (expect, row) in rows.iter().enumerate() {
            if row.index != expect {
                return Err(format!(
                    "{}: job {} missing or duplicated (found index {})",
                    experiment, expect, row.index
                ));
            }
        }
        Ok(SweepResult {
            experiment: experiment.to_string(),
            rows: rows.into_iter().map(|r| r.row).collect(),
        })
    }

    /// Find a row by workload / fence label / axis value.
    pub fn row(&self, workload: &str, fence: &str, value: &str) -> &SweepRow {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.fence == fence && r.value == value)
            .unwrap_or_else(|| {
                panic!(
                    "no row for ({workload}, {fence}, {value:?}) in {}",
                    self.experiment
                )
            })
    }

    /// Cycle count of one row (the common lookup); panics when the
    /// row came from an engine without a clock.
    pub fn cycles(&self, workload: &str, fence: &str, value: &str) -> u64 {
        self.row(workload, fence, value).timed_cycles()
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema_version", SCHEMA_VERSION)
            .field("experiment", self.experiment.as_str())
            .field(
                "rows",
                Json::Arr(self.rows.iter().map(SweepRow::to_json).collect()),
            )
    }

    /// The machine-readable artifact the binaries emit with `--json`.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// A plain ASCII table of the raw rows.
    pub fn to_ascii_table(&self) -> String {
        let mut out = String::new();
        let has_axis = self.rows.iter().any(|r| !r.axis.is_empty());
        let axis_header = self
            .rows
            .first()
            .map(|r| r.axis.as_str())
            .filter(|a| !a.is_empty())
            .unwrap_or("value");
        out += &format!("{}: {} rows\n", self.experiment, self.rows.len());
        if has_axis {
            out += &format!(
                "{:<10} {:<5} {:>12} {:>12} {:>14} {:>8}\n",
                "workload", "fence", axis_header, "cycles", "fence stalls", "stall%"
            );
        } else {
            out += &format!(
                "{:<10} {:<5} {:>12} {:>14} {:>8}\n",
                "workload", "fence", "cycles", "fence stalls", "stall%"
            );
        }
        for r in &self.rows {
            // Timing columns print "-" for rows from engines without
            // a clock (functional/enumerative cells).
            let cycles = r.cycles.map_or("-".into(), |c| c.to_string());
            let stalls = r.fence_stalls.map_or("-".into(), |s| s.to_string());
            let fraction = r
                .fence_stall_fraction
                .map_or("-".into(), |f| format!("{:.2}%", 100.0 * f));
            if has_axis {
                out += &format!(
                    "{:<10} {:<5} {:>12} {:>12} {:>14} {:>8}\n",
                    r.workload, r.fence, r.value, cycles, stalls, fraction
                );
            } else {
                out += &format!(
                    "{:<10} {:<5} {:>12} {:>14} {:>8}\n",
                    r.workload, r.fence, cycles, stalls, fraction
                );
            }
        }
        out
    }
}

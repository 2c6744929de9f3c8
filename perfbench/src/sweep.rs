//! `apps-stall` and `lockfree-busy`: Eval-scale paper sweeps through
//! `Experiment::run_with`, each experiment backed by a fresh result
//! cache so every cell executes and its `RunReport` can be digested.
//!
//! The traced variant runs the same cells by calling each layer's
//! public entry points in the order `run_with` does (cache key,
//! `catalog::build`, `Machine::new`, `Machine::run`, the invariant
//! check, the cache insert), with a span around each call.

use crate::model::Model;
use crate::trace::{cell_failures, Tracer};
use crate::{Batch, Ctx, Workload};
use sfence_bench::{
    fig12_experiment, fig13_experiment, fig15_experiment, machine, CONFIGS, FIG12_LEVELS,
    FIG15_LATENCIES,
};
use sfence_harness::hash::sha256_hex;
use sfence_harness::{
    job_key, run_indexed, BackendId, Experiment, ResultCache, RunOptions, RunReport,
};
use sfence_sim::{FenceConfig, Machine, MachineConfig, RunExit};
use sfence_workloads::{catalog, Scale, WorkloadParams};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// One sweep cell, resolved the way `Experiment` resolves its jobs.
#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: String,
    pub params: WorkloadParams,
    pub cfg: MachineConfig,
}

impl Cell {
    fn new(workload: &str, params: WorkloadParams, fence: FenceConfig) -> Cell {
        Cell {
            workload: workload.to_string(),
            params,
            cfg: machine().with_fence(fence),
        }
    }

    fn key(&self) -> String {
        job_key(&self.workload, &self.params, &self.cfg, BackendId::Sim)
    }
}

const TS: [FenceConfig; 2] = [FenceConfig::TRADITIONAL, FenceConfig::SFENCE];

fn fig13_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in catalog::full_app_names() {
        for fence in CONFIGS {
            cells.push(Cell::new(app, WorkloadParams::default(), fence));
        }
    }
    cells
}

fn fig15_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in catalog::full_app_names() {
        for lat in FIG15_LATENCIES {
            for fence in TS {
                let mut cell = Cell::new(app, WorkloadParams::default(), fence);
                cell.cfg.mem.mem_latency = lat;
                cells.push(cell);
            }
        }
    }
    cells
}

fn fig12_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for algo in catalog::lock_free_names() {
        for level in FIG12_LEVELS {
            for fence in TS {
                cells.push(Cell::new(
                    algo,
                    WorkloadParams::default().level(level),
                    fence,
                ));
            }
        }
    }
    cells
}

/// The experiments of a sweep workload with their cells, in job order.
pub fn plan(name: &str) -> Vec<(Experiment, Vec<Cell>)> {
    match name {
        "apps-stall" => vec![
            (fig13_experiment().scale(Scale::Eval), fig13_cells()),
            (fig15_experiment().scale(Scale::Eval), fig15_cells()),
        ],
        "lockfree-busy" => vec![(fig12_experiment().scale(Scale::Eval), fig12_cells())],
        other => panic!("not a sweep workload: {other}"),
    }
}

fn remove_dirs(dirs: &[PathBuf]) {
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

pub fn digest(report: &RunReport) -> String {
    sha256_hex(report.to_json().to_string_pretty().as_bytes())
}

pub struct Sweep {
    name: &'static str,
    plan: Vec<(Experiment, Vec<Cell>)>,
    /// Pinned `RunReport` digest per cell, in job order.
    pins: Vec<String>,
    /// `tests/golden/sim_digests.json` digest per cell, where one
    /// exists (the fig13 cells at Eval scale).
    golden: Vec<Option<String>>,
}

impl Sweep {
    pub fn new(name: &'static str) -> Sweep {
        Sweep {
            name,
            plan: Vec::new(),
            pins: Vec::new(),
            golden: Vec::new(),
        }
    }

    fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.plan.iter().flat_map(|(_, cells)| cells)
    }

    /// Check every output of a batch and count what it did. The
    /// digest serialisation is traced as `harness.report_json`.
    fn finish(
        &self,
        reports: Vec<Option<RunReport>>,
        wall: f64,
        first_result: Option<f64>,
        dirs: &[PathBuf],
        tracer: &Tracer,
    ) -> Batch {
        remove_dirs(dirs);
        let root = tracer.open("check", None, None);
        let digests: Vec<Option<String>> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| {
                r.as_ref()
                    .map(|r| tracer.time("harness.report_json", root, Some(i), || digest(r)))
            })
            .collect();
        tracer.close(root);
        let mut failed = cell_failures(&self.pins, &digests);
        let mut model = Model::default();
        for (i, r) in reports.iter().enumerate() {
            let golden_ok = match (&self.golden[i], &digests[i]) {
                (Some(g), Some(d)) => g == d,
                _ => true,
            };
            let completed = r.as_ref().is_some_and(|r| r.exit == RunExit::Completed);
            failed[i] |= !golden_ok || !completed;
            if let Some(r) = r {
                let cycles = r.cycles.unwrap_or(0);
                model.add(&r.core_stats, &r.mem_stats, &r.scope_stats, cycles);
            }
        }
        Batch {
            cells: reports.len(),
            failed: failed.iter().filter(|&&f| f).count(),
            cycles: model.cycles,
            wall,
            first_result: first_result.unwrap_or(wall),
            model,
            outputs: digests,
            ..Batch::default()
        }
    }

    fn fresh_caches(&self, ctx: &Ctx) -> (Vec<PathBuf>, Vec<Option<ResultCache>>) {
        let dirs: Vec<PathBuf> = self.plan.iter().map(|_| ctx.fresh_dir("cache")).collect();
        let caches = dirs.iter().map(|d| ResultCache::open(d).ok()).collect();
        (dirs, caches)
    }

    fn batch_api(&self, ctx: &Ctx) -> Batch {
        let (dirs, mut caches) = self.fresh_caches(ctx);
        let t0 = Instant::now();
        let mut first_result = None;
        for ((experiment, _), cache) in self.plan.iter().zip(caches.iter_mut()) {
            if let Some(cache) = cache.as_mut() {
                // A panicking sweep leaves its cells without reports,
                // which fails them below.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    experiment.run_with(RunOptions::new(ctx.threads).cache(cache))
                }));
            }
            first_result.get_or_insert(t0.elapsed().as_secs_f64());
        }
        let wall = t0.elapsed().as_secs_f64();
        let mut reports = Vec::new();
        for ((_, cells), cache) in self.plan.iter().zip(&caches) {
            for cell in cells {
                reports.push(cache.as_ref().and_then(|c| c.get(&cell.key())).cloned());
            }
        }
        self.finish(reports, wall, first_result, &dirs, &Tracer::new(false))
    }

    fn batch_traced(&self, ctx: &Ctx, tracer: &Tracer) -> Batch {
        let (dirs, mut caches) = self.fresh_caches(ctx);
        let t0 = Instant::now();
        let root = tracer.open("batch", None, None);
        let mut first_result = None;
        let mut reports: Vec<Option<RunReport>> = Vec::new();
        let mut offset = 0;
        for ((_, cells), cache) in self.plan.iter().zip(caches.iter_mut()) {
            let results = run_indexed(cells.len(), ctx.threads, |k| {
                let cell_id = Some(offset + k);
                let span = tracer.open("cell", root, cell_id);
                let out = catch_unwind(AssertUnwindSafe(|| {
                    run_cell(&cells[k], tracer, span, cell_id)
                }))
                .ok()
                .flatten();
                tracer.close(span);
                out
            });
            // Inserts run serially after the cells, as in `run_with`.
            for result in results {
                if let (Some((key, report)), Some(cache)) = (&result, cache.as_mut()) {
                    let inserted = tracer.time("harness.cache_insert", root, None, || {
                        cache.insert(key, report)
                    });
                    if let Err(e) = inserted {
                        eprintln!("perfbench: cache insert: {e}");
                    }
                }
                reports.push(result.map(|(_, r)| r));
            }
            offset += cells.len();
            first_result.get_or_insert(t0.elapsed().as_secs_f64());
        }
        tracer.close(root);
        let wall = t0.elapsed().as_secs_f64();
        self.finish(reports, wall, first_result, &dirs, tracer)
    }
}

/// One cell through the layers' public functions, mirroring what
/// `Experiment::run_with` and `Session::run` do for a sim job.
fn run_cell(
    cell: &Cell,
    tracer: &Tracer,
    parent: Option<usize>,
    id: Option<usize>,
) -> Option<(String, RunReport)> {
    let key = tracer.time("harness.job_key", parent, id, || cell.key());
    let built = tracer.time("workloads.build", parent, id, || {
        catalog::build(&cell.workload, &cell.params)
    });
    let mut m = tracer.time("sim.new", parent, id, || {
        Machine::new(&built.program, cell.cfg.clone())
    });
    let summary = tracer.time("sim.run", parent, id, || m.run());
    let regs = m.reg_snapshot();
    let report = RunReport {
        backend: BackendId::Sim,
        exit: summary.exit,
        cycles: Some(summary.cycles),
        core_stats: summary.core_stats,
        mem_stats: summary.mem_stats,
        scope_stats: summary.scope_stats,
        scope_coverage: summary.scope_coverage,
        watch_log: m.watch_log,
        traces: Vec::new(),
        pipe: Vec::new(),
        mem: m.mem,
        regs,
        sc_states: None,
        sc_states_explored: None,
    };
    let valid = tracer.time("workloads.check", parent, id, || {
        report.exit == RunExit::Completed && (built.check)(&built.program, &report.mem).is_ok()
    });
    valid.then_some((key, report))
}

impl Workload for Sweep {
    fn setup(&mut self, ctx: &Ctx) -> Result<f64, String> {
        // Resolve the sweep, key every cell and confirm the traced
        // variant's cells are the experiment's jobs, then build each
        // distinct input once.
        let t0 = Instant::now();
        self.plan = plan(self.name);
        for (experiment, cells) in &self.plan {
            let cell_keys: Vec<String> = cells.iter().map(Cell::key).collect();
            if experiment.job_keys() != cell_keys {
                return Err(format!(
                    "{}: traced cells drifted from the experiment's job list",
                    experiment.name
                ));
            }
        }
        let mut built = std::collections::BTreeSet::new();
        for cell in self.cells() {
            if built.insert((cell.workload.clone(), cell.params.level)) {
                let w = catalog::build(&cell.workload, &cell.params);
                if w.program.num_threads() > cell.cfg.num_cores {
                    return Err(format!("{} needs more cores than the machine has", w.name));
                }
            }
        }
        self.pins = ctx.pins.cells(self.name);
        // `sim_digests.json` pins the paper-default machine at Eval
        // scale: apps-stall's first 16 cells, the fig13 sweep.
        let fig13_cells = if self.name == "apps-stall" { 16 } else { 0 };
        let golden: Vec<Option<String>> = self
            .cells()
            .enumerate()
            .map(|(i, cell)| {
                let key = (cell.workload.clone(), cell.cfg.core.fence.label());
                ctx.golden.get(&key).filter(|_| i < fig13_cells).cloned()
            })
            .collect();
        self.golden = golden;
        Ok(t0.elapsed().as_secs_f64())
    }

    fn batch(&mut self, ctx: &Ctx, tracer: &Tracer) -> Batch {
        if tracer.enabled() {
            self.batch_traced(ctx, tracer)
        } else {
            self.batch_api(ctx)
        }
    }

    fn pin(&mut self, ctx: &Ctx) -> Result<sfence_harness::Json, String> {
        let b = self.batch_api(ctx);
        let digests: Option<Vec<String>> = b.outputs.into_iter().collect();
        let digests = digests.ok_or("a cell produced no report")?;
        for (golden, digest) in self.golden.iter().zip(&digests) {
            if golden.as_ref().is_some_and(|g| g != digest) {
                return Err(format!(
                    "{}: a cell differs from sim_digests.json",
                    self.name
                ));
            }
        }
        Ok(sfence_harness::Json::Arr(
            digests
                .into_iter()
                .map(sfence_harness::Json::from)
                .collect(),
        ))
    }
}

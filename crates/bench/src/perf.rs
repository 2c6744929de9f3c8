//! The perf-trajectory suite behind `sfence-bench perf`.
//!
//! One measured task per golden experiment (fig12–16, the merged
//! hwsweep) at the golden `--scale small`, the Eval-scale fig13 sweep
//! (the headline hot-loop number), and the two functional batches
//! (litmus campaign, fuzz campaign) that exercise the non-sim
//! engines. Each task reports wall time plus throughput in cells/sec
//! and — on the cycle-accurate engine — simulated cycles/sec, the
//! rows `BENCH_perf.json` tracks across commits.
//!
//! Timing noise is handled by running each task `runs` times and
//! keeping the median-wall-time run; the CI gate compares medians
//! per task and only fails on a >[`REGRESSION_THRESHOLD`] drop in
//! cells/sec, so scheduler jitter cannot fail a build.

use crate::{experiment_by_name, fig13_experiment, hwsweep_experiments};
use sfence_harness::{BackendId, Json, RunOptions};
use sfence_obs::prof;
use sfence_workloads::Scale;

/// Version of the `BENCH_perf.json` schema.
pub const PERF_SCHEMA_VERSION: u64 = 1;

/// Fractional cells/sec drop (vs the committed artifact) that fails
/// the CI perf gate.
pub const REGRESSION_THRESHOLD: f64 = 0.25;

/// The pre-overhaul fig13 Eval measurement this PR's hot-loop work is
/// judged against (commit 62a98e0, `sfence-bench perf` on the same
/// container that produced the committed artifact). Kept in the
/// artifact as the `baseline` row so the ≥2x claim stays auditable
/// after regeneration.
pub const BASELINE_NAME: &str = "fig13-eval";
pub const BASELINE_GIT: &str = "62a98e0";
pub const BASELINE_CELLS: u64 = 16;
pub const BASELINE_CYCLES: u64 = 1_155_822;
pub const BASELINE_WALL_MS: f64 = 5075.794;

/// One measured suite task.
#[derive(Debug, Clone)]
pub struct PerfRow {
    pub name: &'static str,
    pub backend: &'static str,
    pub scale: &'static str,
    /// Completed sweep cells (or campaign runs / fuzz cases).
    pub cells: u64,
    /// Total simulated cycles; absent off-sim.
    pub cycles: Option<u64>,
    pub wall_ms: f64,
}

impl PerfRow {
    pub fn cells_per_sec(&self) -> f64 {
        self.cells as f64 * 1000.0 / self.wall_ms
    }

    pub fn cycles_per_sec(&self) -> Option<f64> {
        self.cycles.map(|c| c as f64 * 1000.0 / self.wall_ms)
    }

    pub fn to_json(&self) -> Json {
        let row = Json::obj()
            .field("name", self.name)
            .field("backend", self.backend)
            .field("scale", self.scale)
            .field("cells", self.cells)
            .field(
                "cycles",
                match self.cycles {
                    Some(c) => Json::UInt(c),
                    None => Json::Null,
                },
            )
            .field("wall_ms", round3(self.wall_ms))
            .field("cells_per_sec", round3(self.cells_per_sec()));
        row.field(
            "cycles_per_sec",
            match self.cycles_per_sec() {
                Some(c) => Json::Num(round3(c)),
                None => Json::Null,
            },
        )
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// The suite's task names, in run order.
pub fn perf_task_names() -> [&'static str; 9] {
    [
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "hwsweep",
        "fig13-eval",
        "litmus-functional",
        "fuzz-functional",
    ]
}

/// Run one suite task once, returning its measured row.
pub fn run_task(name: &'static str, threads: usize) -> Result<PerfRow, String> {
    match name {
        "fig12" | "fig13" | "fig14" | "fig15" | "fig16" => {
            let e = experiment_by_name(name)
                .expect("registered figure")
                .scale(Scale::Small);
            let (res, wall_ms) = prof::measure(name, || run_sweep_cells(&[e], threads));
            let (cells, cycles) = res?;
            Ok(sim_row(name, "small", cells, cycles, wall_ms))
        }
        "hwsweep" => {
            // The golden hwsweep job pins `--scale small`; measure
            // the same thing.
            let experiments: Vec<_> = hwsweep_experiments()
                .into_iter()
                .map(|e| e.scale(Scale::Small))
                .collect();
            let (res, wall_ms) = prof::measure(name, || run_sweep_cells(&experiments, threads));
            let (cells, cycles) = res?;
            Ok(sim_row(name, "small", cells, cycles, wall_ms))
        }
        "fig13-eval" => {
            let e = fig13_experiment().scale(Scale::Eval);
            let (res, wall_ms) = prof::measure(name, || run_sweep_cells(&[e], threads));
            let (cells, cycles) = res?;
            Ok(sim_row(name, "eval", cells, cycles, wall_ms))
        }
        "litmus-functional" => {
            let families = sfence_litmus::all_families();
            let checker = sfence_harness::CheckerConfig::default();
            let (res, wall_ms) = prof::measure(name, || {
                sfence_litmus::run_campaign(&families, 8, threads, &checker, BackendId::Functional)
            });
            let campaign = res?;
            let summary = campaign.summary();
            if summary.covering_violations != 0 {
                return Err(format!(
                    "litmus-functional: {} covering violations in the perf batch",
                    summary.covering_violations
                ));
            }
            Ok(PerfRow {
                name,
                backend: "functional",
                scale: "small",
                cells: summary.runs as u64,
                cycles: None,
                wall_ms,
            })
        }
        "fuzz-functional" => {
            let cfg = sfence_fuzz::FuzzConfig {
                seed: 1,
                budget: 256,
                backend: BackendId::Functional,
                ..sfence_fuzz::FuzzConfig::default()
            };
            let (res, wall_ms) = prof::measure(name, || sfence_fuzz::run_fuzz(&cfg, threads));
            let report = res?;
            if !report.divergences.is_empty() {
                return Err(format!(
                    "fuzz-functional: {} divergences in the perf batch",
                    report.divergences.len()
                ));
            }
            Ok(PerfRow {
                name,
                backend: "functional",
                scale: "small",
                cells: report.cases as u64,
                cycles: None,
                wall_ms,
            })
        }
        other => Err(format!("unknown perf task {other:?}")),
    }
}

fn sim_row(
    name: &'static str,
    scale: &'static str,
    cells: u64,
    cycles: u64,
    wall_ms: f64,
) -> PerfRow {
    PerfRow {
        name,
        backend: "sim",
        scale,
        cells,
        cycles: Some(cycles),
        wall_ms,
    }
}

/// Run a set of experiments to completion and total their cells and
/// simulated cycles.
fn run_sweep_cells(
    experiments: &[crate::Experiment],
    threads: usize,
) -> Result<(u64, u64), String> {
    let mut cells = 0u64;
    let mut cycles = 0u64;
    for e in experiments {
        let outcome = e.run_with(RunOptions::new(threads));
        if !outcome.complete {
            return Err(format!("experiment {} did not complete", e.name));
        }
        cells += outcome.rows.len() as u64;
        for row in &outcome.rows {
            cycles += row.row.cycles.unwrap_or(0);
        }
    }
    Ok((cells, cycles))
}

/// Run every suite task `runs` times, keeping each task's
/// median-wall-time run (ties broken toward the faster run).
pub fn run_suite(threads: usize, runs: usize) -> Result<Vec<PerfRow>, String> {
    let _suite = prof::scoped("perf");
    let mut rows = Vec::new();
    for name in perf_task_names() {
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs.max(1) {
            samples.push(run_task(name, threads)?);
        }
        samples.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
        let row = samples.swap_remove((samples.len() - 1) / 2);
        eprintln!(
            "perf: {:<18} {:>7} cells {:>9.1} ms {:>9.1} cells/s",
            row.name,
            row.cells,
            row.wall_ms,
            row.cells_per_sec()
        );
        rows.push(row);
    }
    Ok(rows)
}

/// Assemble the `BENCH_perf.json` artifact.
pub fn report_json(rows: &[PerfRow], threads: usize, runs: usize, git: &str) -> Json {
    let baseline = Json::obj()
        .field("name", BASELINE_NAME)
        .field("git", BASELINE_GIT)
        .field("cells", BASELINE_CELLS)
        .field("cycles", BASELINE_CYCLES)
        .field("wall_ms", round3(BASELINE_WALL_MS))
        .field(
            "cells_per_sec",
            round3(BASELINE_CELLS as f64 * 1000.0 / BASELINE_WALL_MS),
        )
        .field(
            "cycles_per_sec",
            round3(BASELINE_CYCLES as f64 * 1000.0 / BASELINE_WALL_MS),
        );
    Json::obj()
        .field("schema_version", PERF_SCHEMA_VERSION)
        .field("bench", "perf")
        .field("git", git)
        .field("threads", threads as u64)
        .field("runs", runs as u64)
        .field("baseline", baseline)
        .field(
            "rows",
            Json::Arr(rows.iter().map(PerfRow::to_json).collect()),
        )
}

/// One committed-artifact row the gate compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedRow {
    pub name: String,
    pub cells: u64,
    pub cells_per_sec: f64,
}

/// Pull the per-task rows out of a committed `BENCH_perf.json`.
pub fn parse_committed(artifact: &Json) -> Result<Vec<CommittedRow>, String> {
    let version = artifact
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != PERF_SCHEMA_VERSION {
        return Err(format!(
            "artifact schema_version {version} != supported {PERF_SCHEMA_VERSION}"
        ));
    }
    let rows = artifact
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing rows")?;
    rows.iter()
        .map(|r| {
            Ok(CommittedRow {
                name: r
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("row missing name")?
                    .to_string(),
                cells: r
                    .get("cells")
                    .and_then(Json::as_u64)
                    .ok_or("row missing cells")?,
                cells_per_sec: r
                    .get("cells_per_sec")
                    .and_then(Json::as_f64)
                    .ok_or("row missing cells_per_sec")?,
            })
        })
        .collect()
}

/// Compare a fresh suite run against the committed rows. Returns the
/// list of gate failures (empty = green). A fresh task missing from
/// the artifact is informational only — new tasks are allowed to
/// appear before the artifact is regenerated — but a *committed* task
/// missing from the fresh run fails, as does any cell-count drift
/// (the workload set changed without regenerating the artifact) and
/// any >[`REGRESSION_THRESHOLD`] cells/sec regression.
pub fn check_regressions(fresh: &[PerfRow], committed: &[CommittedRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for c in committed {
        let Some(f) = fresh.iter().find(|f| f.name == c.name) else {
            failures.push(format!("task {} missing from the fresh run", c.name));
            continue;
        };
        if f.cells != c.cells {
            failures.push(format!(
                "task {}: cell count changed {} -> {} (regenerate BENCH_perf.json)",
                c.name, c.cells, f.cells
            ));
            continue;
        }
        let fresh_rate = f.cells_per_sec();
        let floor = c.cells_per_sec * (1.0 - REGRESSION_THRESHOLD);
        if fresh_rate < floor {
            failures.push(format!(
                "task {}: {:.3} cells/s is a {:.0}% regression vs committed {:.3} \
                 (floor {:.3})",
                c.name,
                fresh_rate,
                (1.0 - fresh_rate / c.cells_per_sec) * 100.0,
                c.cells_per_sec,
                floor
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &'static str, cells: u64, wall_ms: f64) -> PerfRow {
        PerfRow {
            name,
            backend: "sim",
            scale: "small",
            cells,
            cycles: Some(1000),
            wall_ms,
        }
    }

    fn committed(name: &str, cells: u64, cells_per_sec: f64) -> CommittedRow {
        CommittedRow {
            name: name.into(),
            cells,
            cells_per_sec,
        }
    }

    #[test]
    fn gate_passes_within_threshold() {
        // 20% slower than committed: inside the 25% tolerance.
        let fresh = [row("fig12", 48, 1250.0)]; // 38.4 cells/s
        let base = [committed("fig12", 48, 48.0)];
        assert!(check_regressions(&fresh, &base).is_empty());
    }

    #[test]
    fn gate_fails_past_threshold() {
        // 50% slower than committed: past the 25% tolerance.
        let fresh = [row("fig12", 48, 2000.0)]; // 24 cells/s
        let base = [committed("fig12", 48, 48.0)];
        let failures = check_regressions(&fresh, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regression"), "{}", failures[0]);
    }

    #[test]
    fn gate_fails_on_cell_drift_or_missing_task() {
        let fresh = [row("fig12", 47, 1000.0)];
        let base = [committed("fig12", 48, 48.0), committed("fig13", 16, 20.0)];
        let failures = check_regressions(&fresh, &base);
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("cell count changed"));
        assert!(failures[1].contains("missing from the fresh run"));
    }

    #[test]
    fn artifact_round_trips_through_the_parser() {
        let rows = [row("fig12", 48, 1000.0)];
        let json = report_json(&rows, 4, 3, "test");
        let parsed = parse_committed(&json).unwrap();
        assert_eq!(parsed, vec![committed("fig12", 48, 48.0)]);
        // The baseline row is present and self-consistent.
        let text = json.to_string_pretty();
        let reparsed = sfence_harness::json::parse(&text).unwrap();
        let baseline = reparsed.get("baseline").unwrap();
        assert_eq!(
            baseline.get("name").and_then(Json::as_str),
            Some(BASELINE_NAME)
        );
        assert!(
            baseline
                .get("cells_per_sec")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn every_perf_task_name_is_runnable() {
        // The sim tasks resolve through the experiment registry; the
        // functional batches are hard-wired. Resolving here keeps the
        // task list from drifting out from under the registry.
        for name in perf_task_names() {
            match name {
                "fig13-eval" | "hwsweep" | "litmus-functional" | "fuzz-functional" => {}
                fig => assert!(crate::experiment_by_name(fig).is_some(), "{fig}"),
            }
        }
    }
}

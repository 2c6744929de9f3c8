//! # sfence-bench
//!
//! The paper's evaluation, written as thin [`Experiment`]
//! descriptions over the workload registry: one declarative sweep per
//! figure, shared by the `fig*`/`table*` binaries and the integration
//! tests. Every run validates its workload's invariants before its
//! timing is used (the harness `Session` does this on every job).
//!
//! Each `figN_experiment()` *describes* the sweep; `figN_data_from()`
//! maps its structured rows onto the figure's presentation
//! (normalized stacked bars, speedup curves).

use sfence_core::{hw_cost, ScopeConfig};
use sfence_harness::{Axis, BackendId, Experiment, SweepResult};
use sfence_sim::{FenceConfig, MachineConfig};
use sfence_workloads::{catalog, ScopeMode, WorkloadParams};

pub mod cli;
pub mod digests;
pub mod perf;

/// The four fence configurations in paper order.
pub const CONFIGS: [FenceConfig; 4] = [
    FenceConfig::TRADITIONAL,
    FenceConfig::SFENCE,
    FenceConfig::TRADITIONAL_SPEC,
    FenceConfig::SFENCE_SPEC,
];

/// Machine used by all experiments (Table III), with a raised cycle
/// guard for the evaluation-scale runs.
pub fn machine() -> MachineConfig {
    let mut m = MachineConfig::paper_default();
    m.max_cycles = 2_000_000_000;
    m
}

// ---------------------------------------------------------------------
// Figure 12: impact of workload on the lock-free algorithms

#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub algo: &'static str,
    /// speedup of S over T at workload levels 1..=6.
    pub speedups: Vec<f64>,
}

pub const FIG12_LEVELS: [u32; 6] = [1, 2, 3, 4, 5, 6];

pub fn fig12_experiment() -> Experiment {
    Experiment::new("fig12")
        .base(machine())
        .workloads(catalog::lock_free_names(), WorkloadParams::default())
        .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
        .axis(Axis::Level(FIG12_LEVELS.to_vec()))
}

pub fn fig12_data_from(result: &SweepResult) -> Vec<Fig12Row> {
    catalog::lock_free_names()
        .into_iter()
        .map(|algo| Fig12Row {
            algo,
            speedups: FIG12_LEVELS
                .iter()
                .map(|level| {
                    let value = level.to_string();
                    result.cycles(algo, "T", &value) as f64
                        / result.cycles(algo, "S", &value) as f64
                })
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 13: full applications under T, S, T+, S+

#[derive(Debug, Clone)]
pub struct StackedBar {
    pub label: String,
    /// Total time normalized to the app's T run.
    pub norm_time: f64,
    /// Fence-stall component of the normalized bar.
    pub fence_part: f64,
}

#[derive(Debug, Clone)]
pub struct AppBars {
    pub app: &'static str,
    pub bars: Vec<StackedBar>,
}

pub fn fig13_experiment() -> Experiment {
    Experiment::new("fig13")
        .base(machine())
        .workloads(catalog::full_app_names(), WorkloadParams::default())
        .fences(CONFIGS.to_vec())
}

pub fn fig13_data_from(result: &SweepResult) -> Vec<AppBars> {
    catalog::full_app_names()
        .into_iter()
        .map(|app| {
            let baseline = result.cycles(app, "T", "") as f64;
            AppBars {
                app,
                bars: CONFIGS
                    .iter()
                    .map(|fence| {
                        let row = result.row(app, fence.label(), "");
                        let norm = row.timed_cycles() as f64 / baseline;
                        StackedBar {
                            label: fence.label().to_string(),
                            norm_time: norm,
                            fence_part: row.timed_stall_fraction() * norm,
                        }
                    })
                    .collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 14: class scope vs set scope

/// The class-scope benchmarks compared under both scope flavours.
pub fn fig14_apps() -> Vec<&'static str> {
    vec!["msn", "harris", "pst", "ptc"]
}

pub fn fig14_experiment() -> Experiment {
    Experiment::new("fig14")
        .base(machine())
        .workloads(fig14_apps(), WorkloadParams::default())
        .fences(vec![FenceConfig::SFENCE])
        .axis(Axis::Scope(vec![ScopeMode::Class, ScopeMode::Set]))
}

pub fn fig14_data_from(result: &SweepResult) -> Vec<AppBars> {
    fig14_apps()
        .into_iter()
        .map(|app| {
            let class = result.row(app, "S", "class");
            let set = result.row(app, "S", "set");
            let baseline = class.timed_cycles() as f64;
            let set_norm = set.timed_cycles() as f64 / baseline;
            AppBars {
                app,
                bars: vec![
                    StackedBar {
                        label: "C.S.".into(),
                        norm_time: 1.0,
                        fence_part: class.timed_stall_fraction(),
                    },
                    StackedBar {
                        label: "S.S.".into(),
                        norm_time: set_norm,
                        fence_part: set.timed_stall_fraction() * set_norm,
                    },
                ],
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 15 & 16: machine-parameter sweeps, T vs S

pub const FIG15_LATENCIES: [u64; 3] = [200, 300, 500];
pub const FIG16_ROBS: [usize; 3] = [64, 128, 256];

pub fn fig15_experiment() -> Experiment {
    Experiment::new("fig15")
        .base(machine())
        .workloads(catalog::full_app_names(), WorkloadParams::default())
        .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
        .axis(Axis::MemLatency(FIG15_LATENCIES.to_vec()))
}

pub fn fig16_experiment() -> Experiment {
    Experiment::new("fig16")
        .base(machine())
        .workloads(catalog::full_app_names(), WorkloadParams::default())
        .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
        .axis(Axis::RobSize(FIG16_ROBS.to_vec()))
}

/// Shared presentation of the two sweeps: bars `<value><config>`,
/// normalized to the default-parameter T run, like the paper
/// ("normalized to the total execution time with traditional fence").
fn sweep_data_from(result: &SweepResult, points: &[String], baseline_value: &str) -> Vec<AppBars> {
    catalog::full_app_names()
        .into_iter()
        .map(|app| {
            let baseline = result.cycles(app, "T", baseline_value) as f64;
            let mut bars = Vec::new();
            for value in points {
                for fence in [FenceConfig::TRADITIONAL, FenceConfig::SFENCE] {
                    let row = result.row(app, fence.label(), value);
                    let norm = row.timed_cycles() as f64 / baseline;
                    bars.push(StackedBar {
                        label: format!("{value}{}", fence.label()),
                        norm_time: norm,
                        fence_part: row.timed_stall_fraction() * norm,
                    });
                }
            }
            AppBars { app, bars }
        })
        .collect()
}

pub fn fig15_data_from(result: &SweepResult) -> Vec<AppBars> {
    let points: Vec<String> = FIG15_LATENCIES.iter().map(u64::to_string).collect();
    // The default memory latency is 300, so the baseline T run is one
    // of the sweep's own rows.
    sweep_data_from(result, &points, "300")
}

pub fn fig16_data_from(result: &SweepResult) -> Vec<AppBars> {
    let points: Vec<String> = FIG16_ROBS.iter().map(|r| r.to_string()).collect();
    sweep_data_from(result, &points, "128")
}

// ---------------------------------------------------------------------
// hwsweep: the §VI-D hardware-sensitivity sweeps over the
// already-plumbed ROB / SB / FSB / FSS axes.

pub const HWSWEEP_ROBS: [usize; 3] = [64, 128, 256];
pub const HWSWEEP_SBS: [usize; 3] = [4, 8, 16];
/// FSB columns (the last is reserved for set scope, so 2 is the
/// minimum useful size).
pub const HWSWEEP_FSBS: [usize; 3] = [2, 4, 8];
/// FSS entries; 1 forces nested scopes to overflow and degrade.
pub const HWSWEEP_FSSS: [usize; 3] = [1, 4, 8];
/// Issue/retire widths (both move together; 2 is Table III's core).
pub const HWSWEEP_WIDTHS: [usize; 3] = [1, 2, 4];
/// Shared L2 capacities in bytes. The benchmark working sets are
/// small (graphs of a few thousand nodes), so the sweep straddles
/// *them* rather than Table III's 1 MB: sizes chosen so the
/// golden-gated `--scale small` rows actually move with the L2 model
/// (at 1 MB and beyond every size is equally cold for these apps).
pub const HWSWEEP_L2S: [usize; 3] = [8 * 1024, 32 * 1024, 1024 * 1024];

/// Class-scope lock-free structures: the workloads whose fences the
/// scope hardware actually serves, so FSB/FSS sizing shows up.
pub fn hwsweep_apps() -> Vec<&'static str> {
    vec!["wsq", "msn"]
}

/// Workloads with L2-resident reuse (shared graphs revisited across
/// phases). The lock-free `hwsweep_apps` stream a rotating pad region
/// with no reuse, so L2 capacity is invisible to them at any size.
pub fn hwsweep_l2_apps() -> Vec<&'static str> {
    vec!["pst", "ptc"]
}

/// The six single-axis experiments behind the `hwsweep` binary,
/// individually runnable through `sfence-sweep` as `hwsweep-rob`,
/// `hwsweep-sb`, `hwsweep-fsb`, `hwsweep-fss`, `hwsweep-width`,
/// `hwsweep-l2`.
pub fn hwsweep_experiments() -> Vec<Experiment> {
    let mk = |name: &str, apps: Vec<&'static str>, axis: Axis| {
        Experiment::new(name)
            .base(machine())
            .workloads(apps, WorkloadParams::default())
            .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
            .axis(axis)
    };
    vec![
        mk(
            "hwsweep-rob",
            hwsweep_apps(),
            Axis::RobSize(HWSWEEP_ROBS.to_vec()),
        ),
        mk(
            "hwsweep-sb",
            hwsweep_apps(),
            Axis::SbSize(HWSWEEP_SBS.to_vec()),
        ),
        mk(
            "hwsweep-fsb",
            hwsweep_apps(),
            Axis::FsbEntries(HWSWEEP_FSBS.to_vec()),
        ),
        mk(
            "hwsweep-fss",
            hwsweep_apps(),
            Axis::FssEntries(HWSWEEP_FSSS.to_vec()),
        ),
        mk(
            "hwsweep-width",
            hwsweep_apps(),
            Axis::IssueWidth(HWSWEEP_WIDTHS.to_vec()),
        ),
        mk(
            "hwsweep-l2",
            hwsweep_l2_apps(),
            Axis::L2Size(HWSWEEP_L2S.to_vec()),
        ),
    ]
}

/// Concatenate the four axis sweeps into the one `hwsweep` result
/// (each row keeps its own axis name, so the merged rows stay
/// self-describing).
pub fn hwsweep_merge(results: &[SweepResult]) -> SweepResult {
    SweepResult {
        experiment: "hwsweep".into(),
        rows: results.iter().flat_map(|r| r.rows.clone()).collect(),
    }
}

// ---------------------------------------------------------------------
// litmus: a sweep over generated scenarios, proving the litmus/*
// registry names run through the ordinary experiment machinery.

/// A small cross-section of litmus scenarios as a registered
/// experiment (cycle comparisons, cache/fan-out smoke). Bulk verdict
/// campaigns live in the `sfence-litmus` binary.
pub fn litmus_experiment() -> Experiment {
    let names: Vec<String> = ["mp", "sb", "sb-wrongset", "cas", "pc-deep"]
        .iter()
        .flat_map(|family| (0..2u64).map(move |seed| format!("litmus/{family}/{seed}")))
        .collect();
    Experiment::new("litmus")
        .base(machine())
        .workloads(names, WorkloadParams::small())
        .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
}

// ---------------------------------------------------------------------
// The experiment registry (sweep binary, smoke and fan-out tests)

/// A deliberately tiny sweep (8 small-scale cells) for smoke and
/// kill-and-resume tests: big enough to fan out, fast enough to run
/// in seconds.
pub fn smoke_experiment() -> Experiment {
    Experiment::new("smoke")
        .base(machine())
        .workloads(["dekker", "msn"], WorkloadParams::small())
        .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
        .axis(Axis::Level(vec![1, 2]))
}

/// The litmus cross-section with the engines side by side: every cell
/// once on the cycle simulator, once on the functional interpreter —
/// the sweep-level face of the differential-testing story.
pub fn backends_experiment() -> Experiment {
    litmus_experiment()
        .axis(Axis::Backend(vec![BackendId::Sim, BackendId::Functional]))
        .rename("backends")
}

/// Experiments runnable by name through `sfence-sweep`.
pub fn experiment_names() -> [&'static str; 14] {
    [
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "smoke",
        "litmus",
        "backends",
        "hwsweep-rob",
        "hwsweep-sb",
        "hwsweep-fsb",
        "hwsweep-fss",
        "hwsweep-width",
        "hwsweep-l2",
    ]
}

/// Look an experiment up by name.
pub fn experiment_by_name(name: &str) -> Option<Experiment> {
    Some(match name {
        "fig12" => fig12_experiment(),
        "fig13" => fig13_experiment(),
        "fig14" => fig14_experiment(),
        "fig15" => fig15_experiment(),
        "fig16" => fig16_experiment(),
        "smoke" => smoke_experiment(),
        "litmus" => litmus_experiment(),
        "backends" => backends_experiment(),
        "hwsweep-rob" | "hwsweep-sb" | "hwsweep-fsb" | "hwsweep-fss" | "hwsweep-width"
        | "hwsweep-l2" => hwsweep_experiments().into_iter().find(|e| e.name == name)?,
        _ => return None,
    })
}

/// The figures whose `--json --scale small` output is pinned by the
/// golden files under `tests/golden/` (regenerate with
/// `cargo run -p sfence-bench --bin regen-golden`).
pub fn golden_names() -> [&'static str; 5] {
    ["fig12", "fig13", "fig14", "fig15", "fig16"]
}

/// The machine-readable inventory behind `sfence-sweep --list --json`:
/// every registered experiment (axis, job count, default backend,
/// uniform scale, workloads, fingerprint), the backends, and the
/// litmus families. Tooling — the distributed coordinator included —
/// validates requests against this instead of parsing the human
/// listing; the per-experiment `fingerprint` is the same hash the
/// `sfence-dist` handshake compares.
pub fn list_json() -> sfence_harness::Json {
    use sfence_harness::Json;
    let experiments = experiment_names()
        .iter()
        .map(|&name| {
            let e = experiment_by_name(name).expect("registered name");
            Json::obj()
                .field("name", name)
                .field("axis", e.axis_name())
                .field("jobs", e.job_count())
                .field("backend", e.uniform_backend().map_or("mixed", |b| b.name()))
                .field(
                    "scale",
                    e.uniform_scale()
                        .map_or("mixed", sfence_workloads::Scale::name),
                )
                .field("workloads", e.workload_names())
                .field("fingerprint", e.fingerprint())
        })
        .collect();
    let backends = [
        BackendId::Sim,
        BackendId::Functional,
        BackendId::Enumerative,
    ]
    .iter()
    .map(|b| Json::from(b.name()))
    .collect();
    let families = sfence_workloads::litmus::FAMILIES
        .iter()
        .map(|f| {
            Json::obj()
                .field("name", f.name())
                .field("covering", f.covering())
                .field("description", f.description())
        })
        .collect();
    Json::obj()
        .field("schema_version", sfence_harness::SCHEMA_VERSION)
        .field("experiments", Json::Arr(experiments))
        .field("backends", Json::Arr(backends))
        .field("litmus_families", Json::Arr(families))
}

// ---------------------------------------------------------------------
// Tables

/// Table III: architectural parameters.
pub fn table3() -> String {
    let m = machine();
    let mut out = String::from("Table III: architectural parameters\n");
    out += &format!(
        "  Processor        {} core CMP, out-of-order\n",
        m.num_cores
    );
    out += &format!("  ROB size         {}\n", m.core.rob_size);
    out += &format!(
        "  L1 Cache         private {} KB, {} way, {}-cycle latency\n",
        m.mem.l1_size / 1024,
        m.mem.l1_ways,
        sfence_sim::L1_LATENCY
    );
    out += &format!(
        "  L2 Cache         shared {} MB, {} way, {}-cycle latency\n",
        m.mem.l2_size / (1024 * 1024),
        m.mem.l2_ways,
        sfence_sim::L2_LATENCY
    );
    out += &format!("  Memory           {}-cycle latency\n", m.mem.mem_latency);
    out += &format!("  # of FSB entries {}\n", m.core.scope.fsb_entries);
    out += &format!("  # of FSS entries {}\n", m.core.scope.fss_entries);
    out
}

/// Table IV: benchmark descriptions, straight off the registry.
pub fn table4() -> String {
    let mut out = String::from("Table IV: benchmark description\n");
    for w in &catalog::REGISTRY {
        out += &format!(
            "  {:<10} {:<6} {}\n",
            w.info.name,
            format!("{:?}", w.info.ty).to_lowercase(),
            w.info.description
        );
    }
    out
}

/// §VI-E hardware cost.
pub fn hwcost_report() -> String {
    let cfg = ScopeConfig::default();
    let m = machine();
    let cost = hw_cost(&cfg, m.core.rob_size, m.core.sb_size, 8);
    format!(
        "Hardware cost (per core, {} ROB / {} SB entries / {} FSB bits):\n\
         \x20 FSB over ROB     {:>5} bits\n\
         \x20 FSB over SB      {:>5} bits\n\
         \x20 FSS + FSS'       {:>5} bits\n\
         \x20 mapping table    {:>5} bits\n\
         \x20 total            {:>5} bits = {} bytes (paper: < 80 bytes)\n",
        m.core.rob_size,
        m.core.sb_size,
        cfg.fsb_entries,
        cost.fsb_rob_bits,
        cost.fsb_sb_bits,
        cost.fss_bits,
        cost.mapping_bits,
        cost.total_bits(),
        cost.total_bytes()
    )
}

// ---------------------------------------------------------------------
// Pretty-printing

pub fn print_fig12(rows: &[Fig12Row]) {
    println!("Figure 12: speedup of S-Fence over traditional fence vs workload");
    println!(
        "{:<8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}  peak",
        "algo", 1, 2, 3, 4, 5, 6
    );
    for r in rows {
        let peak = r.speedups.iter().cloned().fold(f64::MIN, f64::max);
        print!("{:<8}", r.algo);
        for s in &r.speedups {
            print!(" {s:>6.3}");
        }
        println!("  {peak:.3}x");
    }
}

pub fn print_bars(title: &str, data: &[AppBars]) {
    println!("{title}");
    for app in data {
        println!("  {}:", app.app);
        for b in &app.bars {
            println!(
                "    {:<6} total {:>6.3}  fence stalls {:>6.3}  others {:>6.3}",
                b.label,
                b.norm_time,
                b.fence_part,
                b.norm_time - b.fence_part
            );
        }
    }
}

/// Shared driver for the figure binaries: run the experiment (in
/// parallel), emit machine-readable rows with `--json`, the raw
/// sweep-row table with `--rows`, otherwise the figure's ASCII
/// rendering plus the paper's observed trend.
///
/// Further switches: `--scale small|eval` overrides the problem size
/// (the `goldens` test pins `--json --scale small` output),
/// `--backend sim|functional|enumerative` swaps the execution engine
/// (figure renderings need cycle counts, so non-sim backends pair
/// with `--json`/`--rows`), `--cache-dir DIR` backs the run with the
/// content-addressed result cache (a rerun skips cached cells), and
/// `--threads N` caps the worker pool. To split a sweep across
/// processes or hosts, run it through `sfence-sweep --workers N` or
/// the `sfence-dist` daemon.
pub fn figure_main(experiment: Experiment, render: impl Fn(&SweepResult), paper_notes: &[&str]) {
    let args = cli::FigureArgs::parse().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // The figure renderings are built from cycle counts; an untimed
    // engine can only emit the structured rows.
    if let Some(backend) = args.backend {
        if !backend.timed() && !args.json && !args.rows {
            eprintln!(
                "error: --backend {} reports no cycle data; pair it with --json or --rows",
                backend.name()
            );
            std::process::exit(2);
        }
    }
    let experiment = args
        .spec(&experiment.name)
        .apply(experiment)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    let result = cli::run_local(&experiment, &args, None)
        .and_then(|run| {
            SweepResult::from_indexed(&experiment.name, experiment.job_count(), run.rows)
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    if args.json {
        print!("{}", result.to_json_string());
        return;
    }
    if args.rows {
        print!("{}", result.to_ascii_table());
        return;
    }
    render(&result);
    if !paper_notes.is_empty() {
        println!();
        for note in paper_notes {
            println!("{note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t3 = table3();
        assert!(t3.contains("8 core CMP"));
        assert!(t3.contains("300-cycle"));
        let t4 = table4();
        assert!(t4.contains("dekker"));
        assert!(t4.contains("Parallel transitive closure"));
        let hc = hwcost_report();
        assert!(hc.contains("bytes"));
    }

    #[test]
    fn experiments_describe_the_paper_sweeps() {
        assert_eq!(fig12_experiment().job_count(), 4 * 6 * 2);
        assert_eq!(fig13_experiment().job_count(), 4 * 4);
        assert_eq!(fig14_experiment().job_count(), 4 * 2);
        assert_eq!(fig15_experiment().job_count(), 4 * 3 * 2);
        assert_eq!(fig16_experiment().job_count(), 4 * 3 * 2);
        for e in hwsweep_experiments() {
            assert_eq!(e.job_count(), 2 * 3 * 2, "{}", e.name);
        }
        assert_eq!(litmus_experiment().job_count(), 5 * 2 * 2);
    }

    #[test]
    fn every_registered_experiment_resolves() {
        for name in experiment_names() {
            let e = experiment_by_name(name).unwrap_or_else(|| panic!("{name} not resolvable"));
            assert!(e.job_count() > 0, "{name} has no jobs");
        }
        assert!(experiment_by_name("nonesuch").is_none());
    }
}

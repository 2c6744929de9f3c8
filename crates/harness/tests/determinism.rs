//! Satellite guarantees of the sweep runner: parallel execution is
//! byte-identical to serial execution, and the structured rows match
//! what direct `Session` runs produce.

use sfence_harness::{Axis, Experiment, Session};
use sfence_sim::FenceConfig;
use sfence_workloads::{catalog, WorkloadParams};

fn small_experiment() -> Experiment {
    Experiment::new("determinism")
        .workloads(["dekker", "msn"], WorkloadParams::small())
        .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
        .axis(Axis::Level(vec![1, 2]))
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let exp = small_experiment();
    let serial = exp.run(1);
    let parallel = exp.run(4);
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_json_string(), parallel.to_json_string());
    // And repeated parallel runs are stable too.
    let again = exp.run(4);
    assert_eq!(parallel.to_json_string(), again.to_json_string());
}

#[test]
fn sweep_rows_match_direct_session_runs() {
    let exp = small_experiment();
    let result = exp.run(4);
    assert_eq!(result.rows.len(), exp.job_count());
    for (name, fence, level) in [
        ("dekker", FenceConfig::TRADITIONAL, 1u32),
        ("msn", FenceConfig::SFENCE, 2u32),
    ] {
        let w = catalog::build(name, &WorkloadParams::small().level(level));
        let report = Session::for_workload(&w).fence(fence).run();
        let row = result.row(name, fence.label(), &level.to_string());
        assert_eq!(row.cycles, report.cycles);
        assert_eq!(row.backend, "sim");
        assert_eq!(row.fence_stalls, Some(report.total_fence_stalls()));
        assert_eq!(row.instrs_retired, report.total_retired());
        assert_eq!(row.exit, "completed");
    }
}

#[test]
fn row_order_is_spec_order() {
    let exp = small_experiment();
    let result = exp.run(4);
    let labels: Vec<(String, String, String)> = result
        .rows
        .iter()
        .map(|r| (r.workload.clone(), r.value.clone(), r.fence.clone()))
        .collect();
    let mut expected = Vec::new();
    for workload in ["dekker", "msn"] {
        for level in ["1", "2"] {
            for fence in ["T", "S"] {
                expected.push((workload.to_string(), level.to_string(), fence.to_string()));
            }
        }
    }
    assert_eq!(labels, expected);
}

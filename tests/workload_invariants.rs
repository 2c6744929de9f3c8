//! Cross-crate integration: every benchmark validates its invariants
//! under every fence configuration, under tiny scope hardware that
//! forces overflow degradation, and across ROB sizes. All builds
//! come from the workload registry at `Scale::Small`, and all runs go
//! through the harness `Session` (which checks invariants itself).

use fence_scoping::prelude::*;
use fence_scoping::workloads::BuiltWorkload;

fn all_fences() -> [FenceConfig; 4] {
    [
        FenceConfig::TRADITIONAL,
        FenceConfig::SFENCE,
        FenceConfig::TRADITIONAL_SPEC,
        FenceConfig::SFENCE_SPEC,
    ]
}

/// Every registry benchmark at the small test scale.
fn small_suite() -> Vec<BuiltWorkload> {
    catalog::REGISTRY
        .iter()
        .map(|w| w.build(&WorkloadParams::small()))
        .collect()
}

fn cfg() -> MachineConfig {
    let mut cfg = MachineConfig::paper_default();
    cfg.num_cores = 4;
    cfg.max_cycles = 500_000_000;
    cfg
}

fn run(w: &BuiltWorkload, cfg: MachineConfig) -> RunReport {
    Session::for_workload(w).config(cfg).run()
}

#[test]
fn every_workload_correct_under_every_fence_config() {
    for w in small_suite() {
        for fence in all_fences() {
            run(&w, cfg().with_fence(fence)); // panics on violation
        }
    }
}

#[test]
fn correct_when_scope_hardware_overflows() {
    // One-entry FSS and mapping table: scopes constantly exceed the
    // hardware; fences must degrade to full fences, never lose
    // ordering. pst nests Wsq scopes inside its own calls, so this
    // exercises the overflow counter heavily.
    for w in small_suite() {
        let mut c = cfg().with_fence(FenceConfig::SFENCE);
        c.core.scope = ScopeConfig {
            fss_entries: 1,
            mapping_entries: 1,
            ..ScopeConfig::default()
        };
        run(&w, c);
    }
}

#[test]
fn rob_sweep_preserves_correctness_and_monotone_pressure() {
    let w = catalog::build("wsq", &WorkloadParams::small());
    for rob in [16, 64, 128, 256] {
        let mut c = cfg().with_fence(FenceConfig::SFENCE);
        c.core.rob_size = rob;
        run(&w, c);
    }
}

#[test]
fn latency_sweep_preserves_correctness() {
    let w = catalog::build("msn", &WorkloadParams::small());
    for lat in [200, 300, 500] {
        let mut c = cfg().with_fence(FenceConfig::SFENCE);
        c.mem.mem_latency = lat;
        run(&w, c);
    }
}

#[test]
fn set_scope_variants_of_class_benchmarks_correct() {
    for scope in [ScopeMode::Class, ScopeMode::Set] {
        let w = catalog::build("pst", &WorkloadParams::small().scope(scope));
        run(&w, cfg().with_fence(FenceConfig::SFENCE));
    }
}

//! Litmus determinism and integration: same seed ⇒ byte-identical
//! generated programs and byte-identical campaign verdicts across
//! worker-thread counts, and a standalone `run_case` reproduces the
//! campaign's verdict for that case; generated scenarios run
//! through the ordinary `Experiment` sweep machinery unchanged.

use sfence_harness::hash::sha256_hex;
use sfence_harness::{Axis, BackendId, CheckerConfig, Experiment};
use sfence_litmus::{all_families, cases, run_campaign, run_case, Family, LitmusSpec, FAMILIES};
use sfence_sim::FenceConfig;
use sfence_workloads::litmus::build;
use sfence_workloads::WorkloadParams;

const SEEDS: u64 = 4;
/// Seeds per family of the full campaign, `sfence-litmus --families
/// all --seeds 8`.
const CAMPAIGN_SEEDS: u64 = 8;

#[test]
fn same_seed_byte_identical_programs() {
    for family in FAMILIES {
        for seed in 0..SEEDS {
            let a = build(&LitmusSpec::new(family, seed));
            let b = build(&LitmusSpec::new(family, seed));
            for t in 0..a.program.num_threads() {
                assert_eq!(
                    a.program.disasm(t),
                    b.program.disasm(t),
                    "{}/{seed}: thread {t} disassembly differs between builds",
                    family.name()
                );
            }
        }
    }
}

#[test]
fn campaign_json_identical_across_thread_counts() {
    let checker = CheckerConfig::default();
    let families = all_families();
    let serial = run_campaign(&families, CAMPAIGN_SEEDS, 1, &checker, BackendId::Sim).unwrap();
    let parallel = run_campaign(&families, CAMPAIGN_SEEDS, 8, &checker, BackendId::Sim).unwrap();
    assert_eq!(
        serial.to_json().to_string_pretty(),
        parallel.to_json().to_string_pretty(),
        "campaign verdict must not depend on the worker-thread count"
    );
}

#[test]
fn shard_union_equals_full_campaign() {
    // Each case judged on its own equals the campaign's verdict for it.
    let checker = CheckerConfig::default();
    let families = [Family::Sb, Family::SbWrongSet, Family::PcDeep];
    let full = run_campaign(&families, SEEDS, 4, &checker, BackendId::Sim).unwrap();
    let standalone: Vec<_> = cases(&families, SEEDS)
        .into_iter()
        .map(|case| run_case(case, &checker, BackendId::Sim).unwrap())
        .collect();
    assert_eq!(
        standalone, full.cases,
        "standalone cases must equal the campaign's"
    );
}

/// The paper's safety claims, pinned as a test through the predicate
/// `sfence-litmus` exits 4 on: covering scopes stay SC everywhere
/// (including forced FSB/FSS overflow), and on the simulator
/// non-covering scopes demonstrate the relaxed outcome somewhere. The
/// functional backend cross-checks the SC interpreter against the
/// enumerator. On the simulator the degrade path must really run.
/// The verdict bytes (`sfence-litmus --seeds 8 --json`'s stdout) are
/// pinned by SHA-256.
#[test]
fn expectations_hold_on_a_small_campaign() {
    let checker = CheckerConfig::default();
    for (backend, pin) in [
        (
            BackendId::Sim,
            "d24754c389047f786a4b75f6ca4e41b416fdb4cc76b5a71c0a25c4c84768a2f1",
        ),
        (
            BackendId::Functional,
            "72845d520cd027563aaf435b9d30e24151a7a999697bce6e42e4581db4629df1",
        ),
    ] {
        let campaign = run_campaign(&all_families(), CAMPAIGN_SEEDS, 8, &checker, backend).unwrap();
        assert_eq!(
            sha256_hex(campaign.to_json().to_string_pretty().as_bytes()),
            pin,
            "{backend:?} verdict bytes changed"
        );
        assert_eq!(
            campaign.expectation_failures(),
            Vec::<String>::new(),
            "{backend:?}"
        );
        if backend == BackendId::Sim {
            assert!(
                campaign.summary().overflow_degraded_fences > 0,
                "the forced-overflow config must actually degrade fences"
            );
        }
    }
}

/// The deep-nesting family must overflow the FSS even at the default
/// scope-hardware size for some seed (depth 3..=6 vs 4 FSS entries),
/// proving the stress shape does what its name claims.
#[test]
fn pc_deep_overflows_default_hardware() {
    let checker = CheckerConfig::default();
    let mut degraded = 0;
    for seed in 0..SEEDS {
        let verdict = run_case(
            sfence_litmus::Case {
                family: Family::PcDeep,
                seed,
            },
            &checker,
            BackendId::Sim,
        )
        .unwrap();
        let s_run = verdict.runs.iter().find(|r| r.config == "S").unwrap();
        assert!(s_run.sc_allowed);
        degraded += s_run.degraded_fences;
    }
    assert!(
        degraded > 0,
        "pc-deep never overflowed the default 4-entry FSS"
    );
}

/// Generated scenarios are ordinary registry workloads: an
/// `Experiment` sweep over `litmus/<family>/<seed>` names runs,
/// caches and serializes exactly like the Table IV benchmarks.
#[test]
fn litmus_names_sweep_through_experiment() {
    let experiment = Experiment::new("litmus-int")
        .workloads(
            ["litmus/sb/0", "litmus/mp/1", "litmus/cas/2"],
            WorkloadParams::small(),
        )
        .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
        .axis(Axis::None);
    assert_eq!(experiment.job_count(), 6);
    let serial = experiment.run(1);
    let parallel = experiment.run(4);
    assert_eq!(serial.to_json_string(), parallel.to_json_string());
    assert!(serial.cycles("litmus/sb/0", "T", "") > 0);
}

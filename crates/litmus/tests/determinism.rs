//! Litmus determinism and integration: same seed ⇒ byte-identical
//! generated programs and byte-identical campaign verdicts across
//! worker-thread counts and shard splits; generated scenarios run
//! through the ordinary `Experiment` sweep machinery unchanged.

use sfence_harness::{Axis, BackendId, CheckerConfig, Experiment, Shard};
use sfence_litmus::{cases, run_campaign, run_case, Family, LitmusSpec, FAMILIES};
use sfence_sim::FenceConfig;
use sfence_workloads::litmus::build;
use sfence_workloads::WorkloadParams;

const SEEDS: u64 = 4;

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
    let serial = run_campaign(&FAMILIES, SEEDS, 1, &checker, BackendId::Sim).unwrap();
    let parallel = run_campaign(&FAMILIES, SEEDS, 8, &checker, BackendId::Sim).unwrap();
    assert_eq!(
        serial.to_json().to_string_pretty(),
        parallel.to_json().to_string_pretty(),
        "campaign verdict must not depend on the worker-thread count"
    );
}

#[test]
fn shard_union_equals_full_campaign() {
    let checker = CheckerConfig::default();
    let families = [Family::Sb, Family::SbWrongSet, Family::PcDeep];
    let full = run_campaign(&families, SEEDS, 4, &checker, BackendId::Sim).unwrap();
    let list = cases(&families, SEEDS);
    let mut merged: Vec<Option<sfence_litmus::CaseVerdict>> = vec![None; list.len()];
    for index in 0..3 {
        let shard = Shard::new(index, 3);
        for (i, &case) in list.iter().enumerate() {
            if shard.contains(i) {
                assert!(merged[i].is_none(), "shards must be disjoint");
                merged[i] = Some(run_case(case, &checker, BackendId::Sim).unwrap());
            }
        }
    }
    let merged: Vec<_> = merged.into_iter().map(Option::unwrap).collect();
    assert_eq!(merged, full.cases, "shard union must equal the full run");
}

#[test]
fn case_json_round_trips() {
    let checker = CheckerConfig::default();
    for family in [Family::Mp, Family::SbWrongSet, Family::Cas] {
        let verdict = run_case(
            sfence_litmus::Case { family, seed: 1 },
            &checker,
            BackendId::Sim,
        )
        .unwrap();
        let json = sfence_litmus::case_to_json(&verdict);
        let back = sfence_litmus::case_from_json(&json).unwrap();
        assert_eq!(back, verdict);
    }
}

/// The paper's safety claims, pinned as a test: covering scopes stay
/// SC everywhere (including forced FSB/FSS overflow), non-covering
/// scopes demonstrate the relaxed outcome somewhere, and the degrade
/// path really runs.
#[test]
fn expectations_hold_on_a_small_campaign() {
    let checker = CheckerConfig::default();
    let campaign = run_campaign(&FAMILIES, SEEDS, 8, &checker, BackendId::Sim).unwrap();
    let s = campaign.summary();
    assert_eq!(s.covering_violations, 0, "covering scopes must stay SC");
    assert!(
        s.noncovering_scope_violations > 0,
        "non-covering scopes must demonstrate a relaxed outcome"
    );
    assert!(
        s.overflow_degraded_fences > 0,
        "the forced-overflow config must actually degrade fences"
    );
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
/// shards and serializes exactly like the Table IV benchmarks.
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
    let serial = experiment.run_serial();
    let parallel = experiment.run(4);
    assert_eq!(serial.to_json_string(), parallel.to_json_string());
    assert!(serial.cycles("litmus/sb/0", "T", "") > 0);
}

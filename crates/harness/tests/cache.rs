//! The content-addressed result cache: key stability, hit/miss
//! accounting, recovery from corrupt or schema-mismatched entries,
//! and forked writers sharing one read of a directory.

use sfence_harness::json::{self, Json};
use sfence_harness::{
    hash, job_canonical_json, job_key, Axis, BackendId, Experiment, ResultCache, RunOptions,
    SweepResult,
};
use sfence_sim::{FenceConfig, MachineConfig};
use sfence_workloads::WorkloadParams;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch directory per test (std-only; no tempfile crate).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sfence-cache-test-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_experiment() -> Experiment {
    Experiment::new("cache-test")
        .workloads(["dekker", "msn"], WorkloadParams::small())
        .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
        .axis(Axis::Level(vec![1, 2]))
}

#[test]
fn hash_is_stable_across_field_reorderings() {
    // The same document with object fields permuted (nested too)
    // must canonicalize — and therefore hash — identically.
    let a = json::parse(
        r#"{"workload":"dekker","cfg":{"num_cores":8,"core":{"rob_size":128,"trace":false}}}"#,
    )
    .unwrap();
    let b = json::parse(
        r#"{"cfg":{"core":{"trace":false,"rob_size":128},"num_cores":8},"workload":"dekker"}"#,
    )
    .unwrap();
    let key = |j: Json| hash::sha256_hex(j.canonicalize().to_string_compact().as_bytes());
    assert_eq!(key(a.clone()), key(b));
    // ...and any value change must move the hash.
    let c = json::parse(
        r#"{"workload":"dekker","cfg":{"num_cores":4,"core":{"rob_size":128,"trace":false}}}"#,
    )
    .unwrap();
    assert_ne!(key(a), key(c));
}

#[test]
fn job_keys_separate_every_dimension() {
    let params = WorkloadParams::small();
    let cfg = MachineConfig::paper_default();
    let base = job_key("dekker", &params, &cfg, BackendId::Sim);
    // Same inputs -> same key.
    assert_eq!(base, job_key("dekker", &params, &cfg, BackendId::Sim));
    // Workload, params and machine config each move the key.
    assert_ne!(base, job_key("msn", &params, &cfg, BackendId::Sim));
    assert_ne!(
        base,
        job_key("dekker", &params.level(5), &cfg, BackendId::Sim)
    );
    assert_ne!(
        base,
        job_key(
            "dekker",
            &params,
            &cfg.clone().with_fence(FenceConfig::TRADITIONAL),
            BackendId::Sim,
        )
    );
    let mut small_rob = cfg.clone();
    small_rob.core.rob_size = 64;
    assert_ne!(base, job_key("dekker", &params, &small_rob, BackendId::Sim));
    // The canonical description is itself in canonical (sorted) form.
    let canon = job_canonical_json("dekker", &params, &cfg, BackendId::Sim);
    assert_eq!(
        canon.to_string_compact(),
        canon.clone().canonicalize().to_string_compact()
    );
}

/// Key values are part of every user's on-disk cache: a change to how
/// the description is built (not just what it contains) would
/// silently orphan every cached cell, so the values are pinned.
#[test]
fn job_keys_are_pinned() {
    let params = WorkloadParams::small();
    let cfg = MachineConfig::paper_default();
    for (workload, backend, key) in [
        (
            "dekker",
            BackendId::Sim,
            "e20d37bf7713f948fe71cf28c3a9914a570a347b626fb58815ce9533a366510c",
        ),
        (
            "dekker",
            BackendId::Functional,
            "cbe062c9153555bafd34da1bf403b766a693e30eb1d737382d42309adcc8757b",
        ),
        (
            "dekker",
            BackendId::Enumerative,
            "70be156826b8fd84a3ff71a8a3b369092bcfa21951ba16f3b9bfbfdd16971e25",
        ),
        (
            "litmus/sb/3",
            BackendId::Sim,
            "ec4389dcb9b23bd873bfc6d230f0b3e0b3f7ea246238a9f88bc7073a0b748deb",
        ),
    ] {
        assert_eq!(
            job_key(workload, &params, &cfg, backend),
            key,
            "{workload} on {backend}"
        );
    }
}

#[test]
fn cache_hit_miss_accounting_and_round_trip() {
    let dir = scratch_dir("hits");
    let exp = small_experiment();

    let mut cache = ResultCache::open(&dir).unwrap();
    let first = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert!(first.complete);
    assert_eq!(first.stats.executed, exp.job_count());
    assert_eq!(first.stats.cache_hits, 0);

    // A second run over a fresh handle answers everything from disk.
    let mut cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.len(), exp.job_count());
    let second = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert!(second.complete);
    assert_eq!(second.stats.executed, 0);
    assert_eq!(second.stats.cache_hits, exp.job_count());

    // Cached rows are byte-identical to executed rows.
    let a = SweepResult::from_indexed("cache-test", exp.job_count(), first.rows).unwrap();
    let b = SweepResult::from_indexed("cache-test", exp.job_count(), second.rows).unwrap();
    assert_eq!(a.to_json_string(), b.to_json_string());
    // And both match an uncached parallel run.
    assert_eq!(a.to_json_string(), exp.run_parallel().to_json_string());
}

#[test]
fn forked_writers_share_loaded_entries_and_append_to_their_own_files() {
    let dir = scratch_dir("fork");
    let exp = small_experiment();
    let half = exp.job_count() / 2;
    let mut cache = ResultCache::open(&dir).unwrap();
    exp.run_with(
        RunOptions::new(1)
            .cache(&mut cache)
            .jobs((0..half).collect()),
    );

    // Two writers over one read of the directory: both hit the loaded
    // half, and each appends only the cells it ran, to its own file.
    let mut a = ResultCache::open_unique(&dir, "fork").unwrap();
    let mut b = a.fork_unique("fork");
    assert_eq!((a.len(), b.len()), (half, half));
    let rest: Vec<usize> = (half..exp.job_count()).collect();
    let (mid, _) = rest.split_at(rest.len() / 2);
    let ran_a = exp.run_with(RunOptions::new(1).cache(&mut a).jobs(rest.clone()));
    assert_eq!(ran_a.stats.executed, rest.len());
    let ran_b = exp.run_with(
        RunOptions::new(1)
            .cache(&mut b)
            .jobs((0..half).chain(mid.iter().copied()).collect()),
    );
    assert_eq!(ran_b.stats.cache_hits, half, "a's inserts stay with a");
    assert_eq!(ran_b.stats.executed, mid.len());
    assert_eq!(a.len(), exp.job_count());
    assert_eq!(b.len(), half + mid.len());
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, 3, "cache.jsonl plus one file per forked writer");

    // A fresh open reads all three files back.
    let mut all = ResultCache::open(&dir).unwrap();
    assert_eq!(all.len(), exp.job_count());
    let warm = exp.run_with(RunOptions::new(1).cache(&mut all));
    assert_eq!(warm.stats.executed, 0);
    assert_eq!(
        SweepResult::from_indexed("cache-test", exp.job_count(), warm.rows)
            .unwrap()
            .to_json_string(),
        exp.run_parallel().to_json_string()
    );
}

#[test]
fn truncated_cache_line_is_skipped_and_rerun() {
    let dir = scratch_dir("truncate");
    let exp = small_experiment();
    let mut cache = ResultCache::open(&dir).unwrap();
    exp.run_with(RunOptions::new(2).cache(&mut cache));
    drop(cache);

    // Chop the file mid-line, as a killed writer would.
    let path = dir.join("cache.jsonl");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();

    let mut cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.skipped_lines(), 1, "exactly the torn line is lost");
    assert_eq!(cache.len(), exp.job_count() - 1);

    // The lost cell re-runs; everything else still hits.
    let outcome = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert!(outcome.complete);
    assert_eq!(outcome.stats.executed, 1);
    assert_eq!(outcome.stats.cache_hits, exp.job_count() - 1);
    assert_eq!(
        SweepResult::from_indexed("cache-test", exp.job_count(), outcome.rows)
            .unwrap()
            .to_json_string(),
        exp.run_parallel().to_json_string()
    );
}

#[test]
fn garbage_and_schema_mismatch_entries_are_skipped() {
    let dir = scratch_dir("garbage");
    // Seed the directory with junk a cache must survive: non-JSON, a
    // valid-JSON non-entry, and an entry from a future schema.
    std::fs::write(
        dir.join("junk.jsonl"),
        "not json at all\n{\"key\":\"abc\"}\n{\"key\":\"abc\",\"report\":{\"schema_version\":999}}\n\n",
    )
    .unwrap();
    let cache = ResultCache::open(&dir).unwrap();
    assert!(cache.is_empty());
    assert_eq!(cache.skipped_lines(), 3);

    // A poisoned directory still caches correctly.
    let exp = small_experiment();
    let mut cache = ResultCache::open(&dir).unwrap();
    let first = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(first.stats.executed, exp.job_count());
    let mut cache = ResultCache::open(&dir).unwrap();
    let second = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(second.stats.cache_hits, exp.job_count());
}

#[test]
fn litmus_keys_ignore_the_noop_workload_params() {
    // Litmus cells are fully parameterized by their registry name;
    // the builder ignores WorkloadParams, so neither scale nor level
    // may fork the key — while the machine config still must.
    let cfg = MachineConfig::paper_default();
    let a = job_key(
        "litmus/sb/7",
        &WorkloadParams::small(),
        &cfg,
        BackendId::Sim,
    );
    let b = job_key(
        "litmus/sb/7",
        &WorkloadParams::default(),
        &cfg,
        BackendId::Sim,
    );
    assert_eq!(a, b, "no-op params must not fork litmus cache keys");
    let c = job_key(
        "litmus/sb/8",
        &WorkloadParams::small(),
        &cfg,
        BackendId::Sim,
    );
    assert_ne!(a, c, "the seed (via the name) must key the cell");
    let d = job_key(
        "litmus/sb/7",
        &WorkloadParams::small(),
        &cfg.clone().with_fence(FenceConfig::TRADITIONAL),
        BackendId::Sim,
    );
    assert_ne!(a, d, "the machine config must still key the cell");

    // Table IV benchmarks keep keying on their build parameters.
    let e = job_key("dekker", &WorkloadParams::small(), &cfg, BackendId::Sim);
    let f = job_key("dekker", &WorkloadParams::default(), &cfg, BackendId::Sim);
    assert_ne!(e, f);
}

#[test]
fn backend_id_forks_the_cache_key() {
    // The same cell under different engines must occupy distinct
    // keys: a functional result can never answer (or poison) a
    // cycle-accurate query.
    let params = WorkloadParams::small();
    let cfg = MachineConfig::paper_default();
    let sim = job_key("dekker", &params, &cfg, BackendId::Sim);
    let fun = job_key("dekker", &params, &cfg, BackendId::Functional);
    let en = job_key("dekker", &params, &cfg, BackendId::Enumerative);
    assert_ne!(sim, fun);
    assert_ne!(sim, en);
    assert_ne!(fun, en);
    // The backend is part of the canonical description itself.
    let canon = job_canonical_json("dekker", &params, &cfg, BackendId::Functional);
    assert_eq!(
        canon.get("backend").and_then(Json::as_str),
        Some("functional")
    );
}

#[test]
fn sim_and_functional_cells_coexist_in_one_cache() {
    let dir = scratch_dir("backends");
    let exp = Experiment::new("backend-cache-test")
        .workloads(["dekker"], WorkloadParams::small())
        .fences(vec![FenceConfig::SFENCE])
        .axis(Axis::Backend(vec![BackendId::Sim, BackendId::Functional]));

    let mut cache = ResultCache::open(&dir).unwrap();
    let first = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(first.stats.executed, 2, "one sim cell, one functional cell");

    // Both land in the cache under their own keys; a second run of
    // either backend alone hits without executing.
    let mut cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.len(), 2);
    for backend in [BackendId::Sim, BackendId::Functional] {
        let one = Experiment::new("backend-cache-test")
            .workloads(["dekker"], WorkloadParams::small())
            .fences(vec![FenceConfig::SFENCE])
            .backend(backend);
        let out = one.run_with(RunOptions::new(1).cache(&mut cache));
        assert_eq!(out.stats.executed, 0, "{}: must hit", backend.name());
        assert_eq!(out.stats.cache_hits, 1);
        assert_eq!(out.rows[0].row.backend, backend.name());
        assert_eq!(
            out.rows[0].row.cycles.is_some(),
            backend == BackendId::Sim,
            "only the sim row carries cycles"
        );
    }
}

#[test]
fn old_schema_v2_entries_are_skipped_not_fatal() {
    let dir = scratch_dir("v2");
    // A realistic-looking v2 line (u64 cycles, no backend field) from
    // before the multi-backend schema bump: it must be skipped and
    // re-run, never parsed into a v3 report and never an error.
    std::fs::write(
        dir.join("old.jsonl"),
        concat!(
            r#"{"key":"deadbeef","report":{"schema_version":2,"exit":"completed","#,
            r#""cycles":123,"core_stats":[],"mem_stats":{},"scope_stats":[],"#,
            r#""watch_log":[],"traces":[],"mem":[],"regs":[]}}"#,
            "\n"
        ),
    )
    .unwrap();
    let cache = ResultCache::open(&dir).unwrap();
    assert!(cache.is_empty(), "v2 entries must not load");
    assert_eq!(cache.skipped_lines(), 1);

    // The poisoned directory still serves a normal run/hit cycle.
    let exp = small_experiment();
    let mut cache = ResultCache::open(&dir).unwrap();
    let first = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(first.stats.executed, exp.job_count());
    let mut cache = ResultCache::open(&dir).unwrap();
    let second = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(second.stats.cache_hits, exp.job_count());
    assert_eq!(second.stats.executed, 0);
}

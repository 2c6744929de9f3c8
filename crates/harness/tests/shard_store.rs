//! Job subsets, resume, and the JSONL result store: rows of disjoint
//! job sets (the index sets dist workers lease) must merge
//! byte-identical to a single-process parallel run, an interrupted
//! sweep must resume to the identical result, and the store must
//! round-trip rows and reject foreign schema versions.

use sfence_harness::{
    diff_rows, Axis, Experiment, ResultCache, ResultStore, RunMeta, RunOptions, SweepResult,
};
use sfence_sim::FenceConfig;
use sfence_workloads::WorkloadParams;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sfence-shard-test-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_experiment() -> Experiment {
    Experiment::new("shard-test")
        .workloads(["dekker", "msn"], WorkloadParams::small())
        .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
        .axis(Axis::Level(vec![1, 2]))
}

/// Round-robin job set `index` of `count` — a stand-in for the index
/// sets a dist worker leases.
fn round_robin(exp: &Experiment, index: usize, count: usize) -> Vec<usize> {
    (index..exp.job_count()).step_by(count).collect()
}

#[test]
fn merged_shards_are_byte_identical_to_run_parallel() {
    let exp = small_experiment();
    let reference = exp.run_parallel().to_json_string();
    for count in [1, 2, 3] {
        let mut rows = Vec::new();
        for index in 0..count {
            let outcome = exp.run_with(RunOptions::new(2).jobs(round_robin(&exp, index, count)));
            assert!(outcome.complete);
            rows.extend(outcome.rows);
        }
        let merged = SweepResult::from_indexed("shard-test", exp.job_count(), rows).unwrap();
        assert_eq!(merged.to_json_string(), reference, "count={count}");
    }
}

#[test]
fn sharded_workers_share_one_cache_without_collisions() {
    // Each "worker" writes its own worker-<i>.jsonl in a shared cache
    // directory; a later full run answers everything from disk.
    let dir = scratch_dir("shared-cache");
    let exp = small_experiment();
    for index in 0..3 {
        let mut cache =
            ResultCache::open_with_writer(&dir, format!("worker-{index}.jsonl")).unwrap();
        let outcome = exp.run_with(
            RunOptions::new(2)
                .cache(&mut cache)
                .jobs(round_robin(&exp, index, 3)),
        );
        assert!(outcome.complete);
        assert_eq!(outcome.stats.cache_hits, 0);
    }
    let mut cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.len(), exp.job_count());
    let outcome = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert_eq!(outcome.stats.executed, 0);
    assert_eq!(outcome.stats.cache_hits, exp.job_count());
}

#[test]
fn interrupted_sweep_resumes_to_identical_bytes() {
    let dir = scratch_dir("resume");
    let exp = small_experiment();
    let reference = exp.run_parallel().to_json_string();

    // First attempt dies after 3 cells (deterministically: the budget
    // applies to cells in job order).
    let mut cache = ResultCache::open(&dir).unwrap();
    let first = exp.run_with(RunOptions::new(2).cache(&mut cache).max_cells(3));
    assert!(!first.complete);
    assert_eq!(first.stats.executed, 3);
    assert_eq!(first.stats.skipped, exp.job_count() - 3);
    drop(cache);

    // The resume run picks up the cached cells and finishes the rest.
    let mut cache = ResultCache::open(&dir).unwrap();
    let resumed = exp.run_with(RunOptions::new(2).cache(&mut cache));
    assert!(resumed.complete);
    assert_eq!(resumed.stats.cache_hits, 3);
    assert_eq!(resumed.stats.executed, exp.job_count() - 3);
    let merged = SweepResult::from_indexed("shard-test", exp.job_count(), resumed.rows).unwrap();
    assert_eq!(merged.to_json_string(), reference);
}

#[test]
fn from_indexed_rejects_missing_and_duplicated_jobs() {
    let exp = small_experiment();
    let outcome = exp.run_with(RunOptions::new(2));
    let rows = outcome.rows;
    // Missing one row.
    let mut partial = rows.clone();
    partial.pop();
    assert!(SweepResult::from_indexed("shard-test", exp.job_count(), partial).is_err());
    // Duplicated row: right count, wrong indices.
    let mut duplicated = rows.clone();
    let last = duplicated.len() - 1;
    duplicated[last] = duplicated[0].clone();
    assert!(SweepResult::from_indexed("shard-test", exp.job_count(), duplicated).is_err());
    // Intact set merges.
    assert!(SweepResult::from_indexed("shard-test", exp.job_count(), rows).is_ok());
}

#[test]
fn store_round_trips_and_diffs() {
    let dir = scratch_dir("store");
    let path = dir.join("results.jsonl");
    let store = ResultStore::new(&path);
    let exp = small_experiment();
    let result = exp.run_parallel();

    let meta = RunMeta::new("shard-test", "level", "small", "sim", "v-test", 1234);
    store.append(&meta, &result).unwrap();
    store.append(&meta, &result).unwrap();

    let contents = store.read().unwrap();
    assert_eq!(contents.skipped_lines, 0);
    assert_eq!(contents.runs.len(), 2);
    assert_eq!(contents.runs[0].meta, meta);
    assert_eq!(contents.runs[0].rows, result.rows);

    let latest = contents.runs.last().unwrap();
    assert!(diff_rows(&latest.rows, &result.rows).is_empty());
    assert!(store
        .history_at("nonesuch", "small", "sim")
        .unwrap()
        .is_empty());

    // A changed cell shows up in the diff; so do added/removed rows.
    let mut moved = result.clone();
    moved.rows[0].cycles = moved.rows[0].cycles.map(|c| c + 1);
    let extra = moved.rows.pop().unwrap();
    let diff = diff_rows(&latest.rows, &moved.rows);
    assert_eq!(diff.changed.len(), 1);
    assert_eq!(
        diff.changed[0].new.cycles,
        diff.changed[0].old.cycles.map(|c| c + 1)
    );
    assert_eq!(diff.removed.len(), 1);
    assert_eq!(diff.removed[0], extra);
    assert!(diff.added.is_empty());
    assert!(!diff.to_report().is_empty());
}

#[test]
fn history_at_walks_comparable_runs_most_recent_first() {
    // The lookup behind `--diff-run K`: any comparable stored run is
    // reachable, not only the latest append.
    let dir = scratch_dir("history");
    let store = ResultStore::new(dir.join("results.jsonl"));
    let exp = small_experiment();
    let result = exp.run_parallel();
    for (git, ts) in [("g1", 1), ("g2", 2), ("g3", 3)] {
        store
            .append(
                &RunMeta::new("shard-test", "level", "small", "sim", git, ts),
                &result,
            )
            .unwrap();
    }
    // A run of a different identity must never appear in the walk.
    store
        .append(
            &RunMeta::new("shard-test", "level", "eval", "sim", "gx", 4),
            &result,
        )
        .unwrap();

    let history = store.history_at("shard-test", "small", "sim").unwrap();
    let gits: Vec<&str> = history.iter().map(|r| r.meta.git.as_str()).collect();
    assert_eq!(gits, ["g3", "g2", "g1"]);
    assert!(store
        .history_at("shard-test", "default", "sim")
        .unwrap()
        .is_empty());
}

/// The `git` of the most recent `shard-test` run at `scale` on
/// `backend`: the default diff target.
fn latest_git(store: &ResultStore, scale: &str, backend: &str) -> Option<String> {
    let history = store.history_at("shard-test", scale, backend).unwrap();
    history.first().map(|run| run.meta.git.clone())
}

#[test]
fn store_matches_diff_history_by_scale() {
    let dir = scratch_dir("scales");
    let store = ResultStore::new(dir.join("results.jsonl"));
    let exp = small_experiment();
    let result = exp.run_parallel();
    store
        .append(
            &RunMeta::new("shard-test", "level", "small", "sim", "g1", 1),
            &result,
        )
        .unwrap();
    store
        .append(
            &RunMeta::new("shard-test", "level", "eval", "sim", "g2", 2),
            &result,
        )
        .unwrap();
    // Diffing must pick the latest run of the *same scale*, not just
    // the latest run of the experiment.
    assert_eq!(latest_git(&store, "small", "sim").as_deref(), Some("g1"));
    assert_eq!(latest_git(&store, "eval", "sim").as_deref(), Some("g2"));
    assert_eq!(latest_git(&store, "default", "sim"), None);
}

#[test]
fn store_matches_diff_history_by_backend() {
    // Sim and functional runs of one experiment are separate
    // histories: a functional run must never become (or diff
    // against) the sim baseline.
    let dir = scratch_dir("backends");
    let store = ResultStore::new(dir.join("results.jsonl"));
    let result = small_experiment().run_parallel();
    store
        .append(
            &RunMeta::new("shard-test", "level", "small", "sim", "g-sim", 1),
            &result,
        )
        .unwrap();
    store
        .append(
            &RunMeta::new("shard-test", "level", "small", "functional", "g-fn", 2),
            &result,
        )
        .unwrap();
    assert_eq!(latest_git(&store, "small", "sim").as_deref(), Some("g-sim"));
    assert_eq!(
        latest_git(&store, "small", "functional").as_deref(),
        Some("g-fn")
    );
    assert_eq!(latest_git(&store, "small", "enumerative"), None);
}

#[test]
fn run_killed_mid_append_is_dropped_on_read() {
    let dir = scratch_dir("midappend");
    let path = dir.join("results.jsonl");
    let store = ResultStore::new(&path);
    let exp = small_experiment();
    let result = exp.run_parallel();
    store
        .append(
            &RunMeta::new("shard-test", "level", "small", "sim", "g", 0),
            &result,
        )
        .unwrap();
    // Simulate a writer killed between the kernel writes of a second
    // append: its meta line and a prefix of its rows survive intact.
    let bytes = std::fs::read(&path).unwrap();
    let keep: usize = String::from_utf8(bytes.clone())
        .unwrap()
        .lines()
        .take(4)
        .map(|l| l.len() + 1)
        .sum();
    let mut torn = bytes.clone();
    torn.extend_from_slice(&bytes[..keep]);
    std::fs::write(&path, torn).unwrap();

    let contents = store.read().unwrap();
    assert_eq!(contents.torn_runs, 1, "the half-appended run is dropped");
    assert_eq!(contents.runs.len(), 1);
    assert_eq!(contents.runs[0].rows, result.rows);
    // The diff history never serves the torn run either.
    let history = store.history_at("shard-test", "small", "sim").unwrap();
    assert_eq!(history.first().unwrap().rows, result.rows);
}

#[test]
fn store_rejects_mismatched_schema_version() {
    let dir = scratch_dir("schema");
    let path = dir.join("results.jsonl");
    std::fs::write(
        &path,
        "{\"kind\":\"meta\",\"schema_version\":999,\"experiment\":\"x\",\"axis\":\"\",\"scale\":\"small\",\"git\":\"g\",\"timestamp\":0,\"rows\":0}\n",
    )
    .unwrap();
    let err = ResultStore::new(&path).read().unwrap_err();
    assert!(err.contains("schema_version 999"), "{err}");
}

#[test]
fn malformed_meta_lines_are_skipped_not_fatal() {
    // A JSON-valid but field-incomplete meta line is foreign garbage:
    // counted and skipped, never aborting the read — only a
    // well-formed meta with a *different* version is fatal.
    let dir = scratch_dir("foreignmeta");
    let path = dir.join("results.jsonl");
    let store = ResultStore::new(&path);
    let exp = small_experiment();
    let result = exp.run_parallel();
    std::fs::write(&path, "{\"kind\":\"meta\",\"x\":1}\n").unwrap();
    store
        .append(
            &RunMeta::new("shard-test", "level", "small", "sim", "g", 0),
            &result,
        )
        .unwrap();
    let contents = store.read().unwrap();
    assert_eq!(contents.skipped_lines, 1);
    assert_eq!(contents.runs.len(), 1);
    assert_eq!(contents.runs[0].rows, result.rows);
}

#[test]
fn store_skips_torn_tail_lines() {
    let dir = scratch_dir("torn");
    let path = dir.join("results.jsonl");
    let store = ResultStore::new(&path);
    let exp = small_experiment();
    let result = exp.run_parallel();
    store
        .append(
            &RunMeta::new("shard-test", "level", "small", "sim", "g", 0),
            &result,
        )
        .unwrap();
    // Simulate a writer killed mid-append of a second run.
    let mut bytes = std::fs::read(&path).unwrap();
    let torn: Vec<u8> = bytes[..60].to_vec();
    bytes.extend_from_slice(&torn);
    std::fs::write(&path, bytes).unwrap();

    let contents = store.read().unwrap();
    assert_eq!(contents.skipped_lines, 1, "the torn tail is skipped");
    assert_eq!(contents.runs.len(), 1);
    // The first (complete) run is intact regardless of the tail.
    assert_eq!(contents.runs[0].rows, result.rows);
}

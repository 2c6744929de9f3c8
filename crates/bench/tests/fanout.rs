//! The local fan-out contract, end to end through the binaries:
//! `sfence-sweep --workers N` (the dist daemon on a loopback port plus
//! N spawned `sfence-dist work` processes) prints and stores exactly
//! the bytes of an in-process run, a warm second pass is answered
//! entirely from the workers' cache, an interrupted sweep resumes to
//! the bytes of an uninterrupted one, and the retired fan-out flags,
//! and the per-experiment flags `hwsweep` cannot honour, are refused
//! as usage errors.

mod common;

use common::{run, scratch, DIST, SWEEP};
use std::path::Path;
use std::process::Output;

const FIG13: &str = env!("CARGO_BIN_EXE_fig13");
const HWSWEEP: &str = env!("CARGO_BIN_EXE_hwsweep");
const SMOKE: &[&str] = &["--experiment", "smoke"];

/// `sfence-sweep EXPERIMENT --json` plus `extra`, stored to `store`,
/// whatever its exit status.
fn sweep_run(experiment: &[&str], extra: &[&str], store: &Path) -> Output {
    let store = store.to_str().unwrap();
    let mut args = experiment.to_vec();
    args.push("--json");
    args.extend_from_slice(&["--store", store, "--git", "ci", "--timestamp", "0"]);
    args.extend_from_slice(extra);
    run(SWEEP, &args)
}

/// [`sweep_run`] that must succeed; returns stdout, and stderr for
/// the caller to inspect.
fn sweep(experiment: &[&str], extra: &[&str], store: &Path) -> (Vec<u8>, String) {
    let out = sweep_run(experiment, extra, store);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "sfence-sweep {experiment:?} {extra:?} failed:\n{stderr}"
    );
    (out.stdout, stderr)
}

#[test]
fn workers_merge_byte_identical_to_in_process_and_warm_pass_executes_nothing() {
    let dir = scratch("merge");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let (single, _) = sweep(SMOKE, &[], &dir.join("single.jsonl"));
    let (dist, log) = sweep(
        SMOKE,
        &["--workers", "2", "--cache-dir", cache],
        &dir.join("dist.jsonl"),
    );
    assert_eq!(
        single, dist,
        "--workers stdout differs from the in-process run"
    );
    assert_eq!(
        std::fs::read(dir.join("single.jsonl")).unwrap(),
        std::fs::read(dir.join("dist.jsonl")).unwrap(),
        "--workers store differs from the in-process run"
    );
    assert!(
        log.contains("executed=8"),
        "cold pass runs every cell:\n{log}"
    );

    let (warm, log) = sweep(
        SMOKE,
        &["--workers", "2", "--cache-dir", cache],
        &dir.join("warm.jsonl"),
    );
    assert_eq!(single, warm, "warm --workers stdout differs");
    assert!(
        log.contains("cache_hits=8 executed=0"),
        "warm pass must be answered from the cache:\n{log}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checked for `smoke` and for `litmus` on the functional backend, so
/// a cached functional sweep must also answer every cell from cache.
#[test]
fn interrupted_sweep_resumes_to_the_reference_bytes() {
    for (tag, experiment) in [
        ("resume", SMOKE),
        (
            "resume-functional",
            &["--experiment", "litmus", "--backend", "functional"][..],
        ),
    ] {
        let dir = scratch(tag);
        let cache = dir.join("cache");
        let cache = cache.to_str().unwrap();
        let full = dir.join("full.jsonl");
        let resumed = dir.join("resumed.jsonl");
        let (reference, _) = sweep(experiment, &[], &full);

        // The budget runs out after 3 cells: exit 3, and no store line.
        let out = sweep_run(
            experiment,
            &["--cache-dir", cache, "--max-cells", "3"],
            &resumed,
        );
        assert_eq!(
            out.status.code(),
            Some(3),
            "budgeted run:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            !resumed.exists(),
            "an incomplete run must not write the store"
        );

        // Rerunning with the same cache finishes the sweep.
        let (stdout, _) = sweep(experiment, &["--cache-dir", cache], &resumed);
        assert_eq!(
            reference, stdout,
            "{experiment:?}: resumed stdout differs from the reference"
        );
        assert_eq!(
            std::fs::read(&full).unwrap(),
            std::fs::read(&resumed).unwrap(),
            "{experiment:?}: resumed store differs from the reference"
        );

        // --max-cells 0 forbids execution; completing proves that every
        // cell was answered by the cache.
        let (stdout, _) = sweep(
            experiment,
            &["--cache-dir", cache, "--max-cells", "0"],
            &dir.join("cached.jsonl"),
        );
        assert_eq!(
            reference, stdout,
            "{experiment:?}: fully cached stdout differs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn retired_fan_out_flags_are_usage_errors() {
    // `--resume` is given a `--cache-dir`, so only the flag itself
    // can be the reason it is refused.
    let dir = scratch("retired");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let trace = dir.join("trace.json");
    let trace = trace.to_str().unwrap();
    for (bin, args) in [
        (SWEEP, &["--experiment", "smoke", "--spawn", "2"][..]),
        (DIST, &["serve", "127.0.0.1:0", "--experiment", "smoke"]),
        (SWEEP, &["--experiment", "smoke", "--shard", "0/2"]),
        (FIG13, &["--scale", "small", "--shard", "0/2"]),
        (
            SWEEP,
            &["--experiment", "smoke", "--cache-dir", cache, "--resume"],
        ),
        (HWSWEEP, &["--scale", "small", "--backend", "functional"]),
        (HWSWEEP, &["--scale", "small", "--trace", trace]),
        (HWSWEEP, &["--scale", "small", "--progress"]),
    ] {
        assert_eq!(run(bin, args).status.code(), Some(2), "{bin} {args:?}");
    }
    assert!(
        !Path::new(trace).exists(),
        "a refused --trace wrote its file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

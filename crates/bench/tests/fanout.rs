//! The local fan-out contract, end to end through the binaries:
//! `sfence-sweep --workers N` (the dist daemon on a loopback port plus
//! N spawned `sfence-dist work` processes) prints and stores exactly
//! the bytes of an in-process run, a warm second pass is answered
//! entirely from the workers' cache, and the retired fan-out flags are
//! refused as usage errors.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SWEEP: &str = env!("CARGO_BIN_EXE_sfence-sweep");
const DIST: &str = env!("CARGO_BIN_EXE_sfence-dist");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfence-fanout-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

/// `sfence-sweep --experiment smoke --json` plus `extra`, stored to
/// `store`; returns stdout, and stderr for the caller to inspect.
fn smoke(extra: &[&str], store: &Path) -> (Vec<u8>, String) {
    let store = store.to_str().unwrap();
    let mut args = vec!["--experiment", "smoke", "--json"];
    args.extend_from_slice(&["--store", store, "--git", "ci", "--timestamp", "0"]);
    args.extend_from_slice(extra);
    let out = run(SWEEP, &args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "sfence-sweep {args:?} failed:\n{stderr}"
    );
    (out.stdout, stderr)
}

#[test]
fn workers_merge_byte_identical_to_in_process_and_warm_pass_executes_nothing() {
    let dir = scratch("merge");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let (single, _) = smoke(&[], &dir.join("single.jsonl"));
    let (dist, log) = smoke(
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

    let (warm, log) = smoke(
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

#[test]
fn retired_fan_out_flags_are_usage_errors() {
    let out = run(SWEEP, &["--experiment", "smoke", "--spawn", "2"]);
    assert_eq!(out.status.code(), Some(2), "sfence-sweep --spawn");
    let out = run(DIST, &["serve", "127.0.0.1:0", "--experiment", "smoke"]);
    assert_eq!(out.status.code(), Some(2), "sfence-dist serve --experiment");
}

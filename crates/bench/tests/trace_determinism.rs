//! The pipeline trace's portability contract: for a fixed seed, the
//! Chrome `trace_event` JSON written by `--trace` is byte-identical
//! no matter how many worker threads executed the sweep. Per-core
//! event streams are merged by `(cycle, core)` and jobs are emitted
//! in index order, so thread scheduling can never reorder the file.
//! Checked through the library for `fig13` and through the
//! `sfence-sweep --trace` binary for `litmus`.

mod common;

use sfence_bench::experiment_by_name;
use sfence_harness::{RunOptions, Session};
use sfence_obs::write_chrome_trace;
use sfence_workloads::{catalog, Scale, WorkloadParams};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sfence-trace-{}-{tag}.json", std::process::id()))
}

fn run_traced(name: &str, scale: Scale, threads: usize, tag: &str) -> (Vec<u8>, usize) {
    let e = experiment_by_name(name)
        .expect("registered experiment")
        .scale(scale);
    let outcome = e.run_with(RunOptions::new(threads).pipe_trace());
    assert!(outcome.complete, "{name} completes");
    let path = scratch(tag);
    write_chrome_trace(&path, &outcome.traces).expect("trace written");
    let bytes = std::fs::read(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    (bytes, outcome.traces.len())
}

#[test]
fn fig13_small_trace_is_byte_identical_across_thread_counts() {
    let (one, jobs_one) = run_traced("fig13", Scale::Small, 1, "t1");
    let (four, jobs_four) = run_traced("fig13", Scale::Small, 4, "t4");
    assert_eq!(jobs_one, jobs_four);
    assert!(jobs_one > 0, "fig13 produced traced jobs");
    assert_eq!(one, four, "trace bytes must not depend on --threads");
    assert_chrome_trace(&one);
}

/// The file is one valid JSON document in Chrome's trace_event object
/// form, with a non-empty event array of instant, complete and
/// metadata events.
fn assert_chrome_trace(bytes: &[u8]) {
    let text = std::str::from_utf8(bytes).expect("trace is UTF-8");
    let doc = sfence_harness::json::parse(text).expect("trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(sfence_harness::Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        let ph = e
            .get("ph")
            .and_then(sfence_harness::Json::as_str)
            .expect("event has ph");
        assert!(matches!(ph, "i" | "X" | "M"), "unexpected phase {ph:?}");
    }
}

#[test]
fn sweep_cli_litmus_trace_is_byte_identical_across_thread_counts() {
    let trace = |threads: &str| {
        let path = scratch(&format!("cli-t{threads}"));
        let path_arg = path.to_str().unwrap();
        let args = ["--experiment", "litmus", "--scale", "small", "--json"];
        let args = [&args[..], &["--threads", threads, "--trace", path_arg]].concat();
        common::run_ok(common::SWEEP, &args);
        let bytes = std::fs::read(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let one = trace("1");
    assert_eq!(one, trace("4"), "trace bytes must not depend on --threads");
    assert_chrome_trace(&one);
}

#[test]
fn fixed_seed_litmus_trace_is_reproducible() {
    // A deterministic litmus scenario traced twice through the
    // Session front end yields identical event streams — the
    // fixed-seed half of the determinism contract.
    let w = catalog::build("litmus/sb/17", &WorkloadParams::small());
    let run = || Session::for_workload(&w).pipe_trace().run();
    let a = run();
    let b = run();
    assert!(!a.pipe.is_empty(), "tracing on produces events");
    assert_eq!(a.pipe, b.pipe);

    let path = scratch("litmus");
    write_chrome_trace(&path, &[("litmus/sb/17".to_string(), a.pipe.clone())])
        .expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    let doc = sfence_harness::json::parse(&text).expect("trace parses");
    assert!(doc.get("traceEvents").is_some());
}

#[test]
fn tracing_off_leaves_reports_event_free() {
    // The zero-cost contract's observable half: with `pipe_trace`
    // unset, no events are collected anywhere in the stack.
    let w = catalog::build("dekker", &WorkloadParams::small());
    let report = Session::for_workload(&w).run();
    assert!(report.pipe.is_empty());
}

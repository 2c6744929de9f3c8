//! The `sfence-fuzz` verdict, end to end through the binary: a
//! fixed-seed campaign finds no divergence and its report does not
//! depend on `--threads`, fault injection is found and minimized to
//! the archived `litmus/regression/0` scenario, and
//! `--expect-divergence` fails a clean run with exit 4. The `--json`
//! reports are pinned by SHA-256, so a change to the differential
//! matrix cannot silently change a verdict.

use sfence_harness::hash::sha256_hex;
use std::process::{Command, Output};

const FUZZ: &str = env!("CARGO_BIN_EXE_sfence-fuzz");
const CAMPAIGN: [&str; 4] = ["--seed", "1", "--budget", "128"];

fn fuzz(extra: &[&str]) -> Output {
    Command::new(FUZZ)
        .args(CAMPAIGN)
        .args(extra)
        .output()
        .expect("sfence-fuzz runs")
}

#[test]
fn clean_campaign_passes_and_is_thread_count_independent() {
    let report = fuzz(&["--json"]);
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    let serial = fuzz(&["--threads", "1", "--json"]);
    assert!(serial.status.success());
    assert_eq!(report.stdout, serial.stdout, "report depends on --threads");
    assert_eq!(
        sha256_hex(&report.stdout),
        "fdff280732914262258a4b625a07e88e6ccd02f0c3df556469cc956d2e528b6f"
    );
    let functional = fuzz(&["--backend", "functional", "--json"]);
    assert!(functional.status.success());
    assert_eq!(
        sha256_hex(&functional.stdout),
        "84a1ebee76d8d9b2450c6d2526318a05efb808bbce4b085a9a8264ebd0bf564b"
    );
}

/// `--inject-bug` makes a degraded scoped fence wait on nothing. The
/// fuzzer must catch it and minimize it to exactly the checked-in
/// regression, proving that entry is the minimizer's real output.
#[test]
fn injected_bug_is_found_and_minimized_to_the_archived_regression() {
    let report = fuzz(&["--inject-bug", "--expect-divergence", "--json"]);
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    assert_eq!(
        sha256_hex(&report.stdout),
        "6df2612abf17b280372c4457614389f2e115d0a653d60bf50557290e52fe889e"
    );
    let stdout = String::from_utf8(report.stdout).unwrap();
    assert!(
        stdout.contains(r#""minimized": "fuzz/v2m0:l1(0(1s01c))l1~l0(0c(1s11c))l0""#),
        "{stdout}"
    );
}

#[test]
fn clean_run_fails_when_a_divergence_is_expected() {
    assert_eq!(fuzz(&["--expect-divergence"]).status.code(), Some(4));
}

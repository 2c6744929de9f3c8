//! The daemon's life cycle, end to end through the real binaries: an
//! authenticated `sfence-dist serve` with every telemetry sink on
//! answers status, metrics and dump probes; two waiting campaigns
//! survive a SIGKILL of the daemon, resume with the same ids from the
//! checkpoint, and merge to the bytes of single-process runs; and the
//! event log, its rotated files and the metrics history all parse.

mod common;

use common::{run_ok, scratch, wait_until, Killed, Serve, DIST, SWEEP};
use sfence_harness::{json, Json};
use sfence_obs::Event;
use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};

/// Spawn `sfence-dist ARGS...` with stdout to `dir/NAME.out` and
/// stderr to `dir/NAME.err`.
fn spawn(dir: &Path, name: &str, args: &[&str]) -> Killed {
    let file = |ext: &str| File::create(dir.join(format!("{name}.{ext}"))).unwrap();
    let child = Command::new(DIST)
        .args(args)
        .stdin(Stdio::null())
        .stdout(file("out"))
        .stderr(file("err"))
        .spawn()
        .expect("sfence-dist starts");
    Killed(child)
}

fn campaigns_in(checkpoint: &str) -> usize {
    std::fs::read_to_string(checkpoint)
        .map_or(0, |text| text.matches("\"type\":\"campaign\"").count())
}

fn field<'a>(event: &'a Event, key: &str) -> Option<&'a str> {
    event
        .fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

#[test]
fn campaigns_survive_a_daemon_kill_and_telemetry_parses() {
    let dir = scratch("lifecycle");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (token, ckpt, events, metrics) = (
        path("token.txt"),
        path("ckpt.jsonl"),
        path("events.jsonl"),
        path("metrics.jsonl"),
    );
    std::fs::write(&token, "ci-secret\n").unwrap();
    let reference = ["smoke", "litmus"].map(|e| run_ok(SWEEP, &["--experiment", e, "--json"]));

    let auth = ["--token-file", token.as_str()];
    let durable = [
        auth[0],
        auth[1],
        "--checkpoint",
        &ckpt,
        "--checkpoint-every",
        "0",
    ];
    let telemetry = [
        "--log",
        &events,
        "--log-level",
        "debug",
        "--log-max-bytes",
        "512",
        "--log-max-files",
        "8",
        "--metrics-log",
        &metrics,
        "--metrics-interval",
        "1",
    ];
    let daemon = Serve::start("127.0.0.1:0", &[&durable[..], &telemetry].concat());
    let addr = daemon.addr.clone();
    let addr = addr.as_str();
    let client =
        |cmd: &str, extra: &[&str]| run_ok(DIST, &[&[cmd, addr], &auth[..], extra].concat());

    // Idle probes.
    assert!(client("status", &[]).contains("no active campaigns"));
    assert!(client("status", &["--json"]).contains("\"campaigns_known\""));
    let expo = client("metrics", &[]);
    assert!(
        expo.contains("# TYPE sfence_campaigns_known gauge\n"),
        "{expo}"
    );
    assert!(expo.contains("\nsfence_campaigns_known 0\n"), "{expo}");

    // Both campaigns wait on a daemon with no workers yet, so the kill
    // is sure to land mid-flight.
    let submit = [
        "submit",
        addr,
        auth[0],
        auth[1],
        "--json",
        "--quiet",
        "--experiment",
    ];
    let mut submits = [
        spawn(&dir, "smoke", &[&submit[..], &["smoke"]].concat()),
        spawn(
            &dir,
            "litmus",
            &[&submit[..], &["litmus", "--priority", "2"]].concat(),
        ),
    ];
    wait_until("2 checkpointed campaigns and a metrics snapshot", || {
        campaigns_in(&ckpt) == 2 && std::fs::metadata(&metrics).is_ok_and(|m| m.len() > 0)
    });
    let status = client("status", &["--json"]);
    for key in [
        "\"campaign_info\"",
        "\"produced_by\": \"coordinator\"",
        "\"queue_jobs_total\"",
        "\"queue_pending\"",
    ] {
        assert!(status.contains(key), "status --json lacks {key}:\n{status}");
    }
    // The flight recorder agrees with the checkpoint: two submits, and
    // nothing has completed.
    let dump: Vec<Event> = client("dump", &[])
        .lines()
        .map(|line| Event::parse_line(line).unwrap())
        .collect();
    let submitted: Vec<_> = dump
        .iter()
        .filter(|e| e.event == "submit")
        .map(|e| field(e, "campaign"))
        .collect();
    assert_eq!(submitted, [Some("c1"), Some("c2")]);
    assert!(dump.iter().all(|e| e.event != "complete"));

    drop(daemon);
    for submit in &mut submits {
        assert!(
            submit.0.try_wait().unwrap().is_none(),
            "a submit client died with the daemon"
        );
    }
    let daemon = Serve::start(addr, &durable);
    wait_until("the restarted daemon to resume c1 and c2", || {
        let log = daemon.stderr();
        log.contains("resume campaign=c1") && log.contains("resume campaign=c2")
    });
    let _workers = [1, 2].map(|i| {
        let work = [
            "work",
            addr,
            auth[0],
            auth[1],
            "--quiet",
            "--reconnect",
            "10",
        ];
        spawn(&dir, &format!("work{i}"), &work)
    });
    for (i, name) in ["smoke", "litmus"].into_iter().enumerate() {
        let submit = &mut submits[i];
        let mut status = None;
        wait_until(&format!("submit {name} to finish"), || {
            status = submit.0.try_wait().unwrap();
            status.is_some()
        });
        let err = std::fs::read_to_string(dir.join(format!("{name}.err"))).unwrap();
        assert!(status.unwrap().success(), "submit {name}:\n{err}");
        let out = std::fs::read_to_string(dir.join(format!("{name}.out"))).unwrap();
        assert_eq!(
            out, reference[i],
            "{name}: merged bytes differ from sfence-sweep"
        );
    }
    let table = client("status", &[]);
    assert!(table.contains("c1") && table.contains("c2"), "{table}");
    let expo = client("metrics", &[]);
    assert!(
        expo.contains("# TYPE sfence_lease_grant_ms histogram\n"),
        "{expo}"
    );
    assert!(
        expo.contains("\nsfence_lease_grant_ms_count{campaign=\"c1\"}"),
        "{expo}"
    );

    // Every event-log line, live and rotated, is a schema-v1 record.
    let logs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("events.jsonl")
        })
        .collect();
    assert!(
        logs.len() >= 2,
        "expected rotation at --log-max-bytes 512: {logs:?}"
    );
    for log in &logs {
        for line in std::fs::read_to_string(log).unwrap().lines() {
            Event::parse_line(line).unwrap_or_else(|e| panic!("{}: {e}: {line}", log.display()));
        }
    }
    for line in std::fs::read_to_string(&metrics).unwrap().lines() {
        let snapshot = json::parse(line).unwrap();
        assert_eq!(
            snapshot.get("schema_version").and_then(Json::as_u64),
            Some(2)
        );
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

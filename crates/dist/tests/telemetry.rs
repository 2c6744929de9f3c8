//! Integration tests of the service telemetry layer: the structured
//! event log is written and parseable, latency histograms with
//! percentile summaries ride the `status` frame (the lease-grant one
//! leaves out the time a request was held), the flight recorder
//! answers (token-gated) `debug_dump` probes, the metrics history
//! appends parseable snapshots, a zero-campaign daemon says so
//! explicitly — and, with every sink turned on, the merged campaign
//! output is still byte-identical to a solo run.

mod common;

use common::{fast_wait_opts, registry, scratch_dir, test_server_opts, test_worker_opts, Daemon};
use sfence_dist::{
    client, fetch_dump, fetch_status, render_campaign_table, run_server, work, ExperimentSpec,
    ServerOpts, WorkerOpts,
};
use sfence_harness::SweepResult;
use sfence_obs::log::{Event, EventLog, LogLevel};
use sfence_obs::{MetricValue, MetricsReport};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Run one full `tiny` campaign through a daemon configured with
/// `opts`, returning the merged rows and whatever the caller probes
/// while the daemon is still up (`probe` runs after completion,
/// before shutdown).
fn run_campaign_with<T>(
    opts: ServerOpts,
    token: Option<&str>,
    probe: impl FnOnce(&str) -> T,
) -> (Vec<sfence_harness::IndexedRow>, T) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        shutdown: Some(Arc::clone(&shutdown)),
        token: token.map(str::to_string),
        ..opts
    };
    std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
        let worker = {
            let addr = addr.clone();
            s.spawn(move || {
                let wopts = WorkerOpts {
                    token: token.map(str::to_string),
                    ..test_worker_opts("tw")
                };
                work(&addr, registry, &wopts)
            })
        };
        let wait = fast_wait_opts(token);
        let ticket = client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait.client).unwrap();
        let rows = client::wait_for_campaign(&addr, &ticket.campaign, &wait, |_, _| {}).unwrap();
        let probed = probe(&addr);
        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().expect("server exits cleanly");
        worker.join().unwrap().expect("worker exits cleanly");
        (rows, probed)
    })
}

#[test]
fn event_log_file_is_parseable_and_covers_the_campaign_lifecycle() {
    let dir = scratch_dir("eventlog");
    let log_path = dir.join("events.jsonl");
    let log = Arc::new(
        EventLog::with_file("dist", None, LogLevel::Debug, &log_path, 1 << 20, 2).unwrap(),
    );
    let opts = ServerOpts {
        log: Some(Arc::clone(&log)),
        ..test_server_opts()
    };
    let (_, ()) = run_campaign_with(opts, None, |_| ());

    let text = std::fs::read_to_string(&log_path).unwrap();
    let events: Vec<Event> = text
        .lines()
        .map(|l| Event::parse_line(l).expect("every line parses"))
        .collect();
    assert!(!events.is_empty());
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "monotonic seq: {seqs:?}"
    );
    let kinds: Vec<&str> = events.iter().map(|e| e.event.as_str()).collect();
    for expected in ["worker_ready", "submit", "lease", "complete"] {
        assert!(
            kinds.contains(&expected),
            "missing {expected:?} in {kinds:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_frame_carries_latency_histograms_with_percentiles() {
    let (rows, report) = run_campaign_with(test_server_opts(), None, |addr| {
        fetch_status(addr, Duration::from_secs(5), None).unwrap()
    });
    assert_eq!(rows.len(), 8);

    // The lease-grant histogram is observed on every grant, labeled
    // both per-campaign and per-worker. The worker key carries the
    // connection id (`tw#<conn>`), so discover it from the report.
    let worker_keys = report.label_values("worker");
    let worker_key = worker_keys
        .iter()
        .find(|k| k.starts_with("tw#"))
        .unwrap_or_else(|| panic!("no tw worker series in {worker_keys:?}"))
        .to_string();
    for labels in [[("campaign", "c1")], [("worker", worker_key.as_str())]] {
        let m = report
            .get("lease_grant_ms", &labels)
            .unwrap_or_else(|| panic!("lease_grant_ms{labels:?} missing"));
        match &m.value {
            MetricValue::Histogram(h) => {
                assert!(h.count > 0);
                assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
    // Worker-measured per-cell wall time: one observation per cell.
    match &report
        .get("cell_wall_ms", &[("campaign", "c1")])
        .expect("cell_wall_ms present")
        .value
    {
        MetricValue::Histogram(h) => assert_eq!(h.count, 8, "one observation per cell"),
        other => panic!("expected histogram, got {other:?}"),
    }
    assert!(report
        .get("frame_handle_ms", &[("frame", "request")])
        .is_some());
    assert!(report
        .get("worker_straggler", &[("worker", worker_key.as_str())])
        .is_some());
    // The human rendering spells out the percentile summary.
    assert!(report.render().contains("p99="), "{}", report.render());
}

#[test]
fn lease_grant_latency_excludes_the_time_a_request_was_held() {
    // A worker connected before any submit has its request held until
    // the campaign arrives. The grant histogram measures scheduler and
    // queue time from the wake-up, so its p99 stays far below the hold.
    let wait_ms = 1000;
    let daemon = Daemon::start(ServerOpts {
        wait_ms,
        ..test_server_opts()
    });
    let worker = daemon.worker(test_worker_opts("early"));
    daemon.await_workers(1);
    std::thread::sleep(Duration::from_millis(300));
    let ticket = daemon.submit("tiny");
    daemon.wait(&ticket);
    let report = fetch_status(&daemon.addr, Duration::from_secs(5), None).unwrap();
    daemon.stop();
    worker.join().unwrap().expect("worker exits cleanly");
    match &report
        .get("lease_grant_ms", &[("campaign", "c1")])
        .expect("lease_grant_ms present")
        .value
    {
        MetricValue::Histogram(h) => {
            assert!(h.count > 0);
            assert!(
                h.p99() < wait_ms as f64 / 10.0,
                "grant p99 {} ms against a {wait_ms} ms hold",
                h.p99()
            );
        }
        other => panic!("expected histogram, got {other:?}"),
    }
}

#[test]
fn dump_frame_returns_the_flight_recorder_and_respects_the_token() {
    let (_, ()) = run_campaign_with(test_server_opts(), Some("s3cret"), |addr| {
        let (events, _dropped) = fetch_dump(addr, Duration::from_secs(5), Some("s3cret")).unwrap();
        assert!(!events.is_empty());
        let kinds: Vec<&str> = events.iter().map(|e| e.event.as_str()).collect();
        assert!(kinds.contains(&"complete"), "{kinds:?}");
        // The ring records every level, so debug events appear even
        // though no file or stderr sink asked for them.
        assert!(kinds.contains(&"lease"), "{kinds:?}");
        let err = fetch_dump(addr, Duration::from_secs(5), Some("wrong")).unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        let err = fetch_dump(addr, Duration::from_secs(5), None).unwrap_err();
        assert!(err.contains("rejected"), "{err}");
    });
}

#[test]
fn zero_campaign_daemon_reports_itself_explicitly() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        shutdown: Some(Arc::clone(&shutdown)),
        ..test_server_opts()
    };
    let report = std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
        let report = fetch_status(&addr, Duration::from_secs(5), None).unwrap();
        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
        report
    });
    match report.get("campaigns_known", &[]).map(|m| &m.value) {
        Some(MetricValue::Gauge(g)) => assert_eq!(*g, 0.0),
        other => panic!("campaigns_known should be a gauge, got {other:?}"),
    }
    assert_eq!(render_campaign_table(&report), "no active campaigns\n\n");
}

#[test]
fn merged_output_is_byte_identical_with_every_telemetry_sink_on() {
    let tiny = registry("tiny").unwrap();
    let expected = tiny.run_parallel().to_json_string();
    let dir = scratch_dir("fullsinks");
    let log_path = dir.join("events.jsonl");
    let metrics_path = dir.join("metrics.jsonl");
    let log = Arc::new(
        EventLog::with_file("dist", None, LogLevel::Debug, &log_path, 1 << 20, 2).unwrap(),
    );
    let opts = ServerOpts {
        log: Some(log),
        metrics_log: Some(metrics_path.clone()),
        metrics_interval_ms: 1,
        ..test_server_opts()
    };
    let (rows, ()) = run_campaign_with(opts, Some("tok"), |_| ());
    let merged = SweepResult::from_indexed(&tiny.name, tiny.job_count(), rows)
        .unwrap()
        .to_json_string();
    assert_eq!(merged, expected, "telemetry must not perturb the merge");

    // The metrics history holds parseable schema-checked snapshots.
    let text = std::fs::read_to_string(&metrics_path).unwrap();
    let snaps: Vec<MetricsReport> = text
        .lines()
        .map(|l| {
            MetricsReport::from_json(&sfence_harness::json::parse(l).unwrap())
                .expect("snapshot parses")
        })
        .collect();
    assert!(!snaps.is_empty());
    let last = snaps.last().unwrap();
    assert!(last.get("queue_done", &[]).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

//! Loopback integration tests of the coordinator/worker protocol: a
//! multi-worker campaign merges byte-identical to a single-process
//! `run_parallel()`, survives workers being killed or going silent
//! mid-campaign (leases re-issued), rejects mismatched binaries at
//! the handshake, and answers a warm re-run entirely from
//! worker-local caches. A worker's lease loops each count as a
//! session, share one read of the cache directory, and stop together
//! when one of them fails.

mod common;

use common::{
    merged_json, raw_worker, registry, scratch_dir, test_server_opts, test_worker_opts, Daemon,
};
use sfence_dist::protocol::{write_msg, FrameReader, Msg, PROTOCOL_VERSION};
use sfence_dist::{
    run_server, work, ExperimentSpec, ServerOpts, ServerOutcome, WorkerOpts, WorkerSummary,
};
use sfence_harness::{Experiment, SCHEMA_VERSION};
use sfence_obs::log::EventLog;
use sfence_workloads::Scale;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A drifted build: resolves the same name to a different job list
/// (eval scale instead of small), so its fingerprint disagrees.
fn drifted_registry(name: &str) -> Option<Experiment> {
    registry(name).map(|e| e.scale(Scale::Eval))
}

/// Run one campaign on a fresh daemon with the given workers and
/// return `(merged json, daemon counters, each worker's accounting)`.
fn campaign(
    experiment: &Experiment,
    workers: &[WorkerOpts],
    cache_dirs: &[Option<PathBuf>],
) -> (String, ServerOutcome, Vec<WorkerSummary>) {
    let daemon = Daemon::start(test_server_opts());
    let handles: Vec<_> = workers
        .iter()
        .zip(cache_dirs)
        .map(|(w, dir)| {
            daemon.worker(WorkerOpts {
                cache_dir: dir.clone(),
                ..w.clone()
            })
        })
        .collect();
    // Every lease loop is a session of its own.
    let loops: usize = workers.iter().map(|w| w.threads).sum();
    daemon.await_workers(loops as u64);
    let ticket = daemon.submit(&experiment.name);
    let rows = daemon.wait(&ticket);
    let outcome = daemon.stop();
    let summaries = handles
        .into_iter()
        .map(|h| h.join().unwrap().expect("worker exits cleanly"))
        .collect();
    (merged_json(experiment, rows), outcome, summaries)
}

#[test]
fn two_workers_merge_byte_identical_to_single_process() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    for threads in [1, 2, 4] {
        let workers = ["w0", "w1"].map(|name| WorkerOpts {
            threads,
            ..test_worker_opts(name)
        });
        let (json, outcome, _) = campaign(&experiment, &workers, &[None, None]);
        assert_eq!(json, expected, "{threads} loops per worker");
        assert_eq!(outcome.workers, 2 * threads as u64, "one session per loop");
        assert_eq!(outcome.executed, experiment.job_count() as u64);
        assert_eq!(outcome.rejected, 0);
    }
}

/// A client that completes the v3 handshake, takes one lease, and
/// then either drops the connection (a killed worker) or goes silent
/// while keeping it open (a hung worker). Returns the leased indices
/// and, for the hung case, the stream that must be kept alive by the
/// caller.
fn take_lease_and_stop(addr: &str, hang: bool) -> (Vec<usize>, Option<TcpStream>) {
    let (mut writer, mut reader) = raw_worker(addr, "doomed");
    write_msg(&mut writer, &Msg::Request { batch: 0 }).unwrap();
    let jobs = match reader.next_msg().unwrap().expect("reply") {
        Msg::Lease { jobs, .. } => jobs,
        other => panic!("expected lease, got {other:?}"),
    };
    assert!(!jobs.is_empty());
    (jobs, hang.then_some(writer))
}

#[test]
fn killed_worker_mid_campaign_re_leases_and_merge_is_identical() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let daemon = Daemon::start(test_server_opts());
    let ticket = daemon.submit("tiny");
    // The doomed worker handshakes, takes a lease of 2 jobs, and is
    // "killed": its connection drops with the lease outstanding.
    let (doomed_jobs, _) = take_lease_and_stop(&daemon.addr, false);
    assert_eq!(doomed_jobs.len(), 2);
    // A healthy worker then completes the whole campaign, including
    // the re-leased jobs.
    let survivor = daemon.worker(test_worker_opts("survivor"));
    let rows = daemon.wait(&ticket);
    let outcome = daemon.stop();
    let ws = survivor.join().unwrap().expect("survivor exits cleanly");
    assert_eq!(ws.jobs, experiment.job_count() as u64);
    assert_eq!(outcome.released, 2, "the dead worker's lease re-queued");
    assert_eq!(merged_json(&experiment, rows), expected);
}

#[test]
fn hung_worker_lease_expires_and_re_leases() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let daemon = Daemon::start(ServerOpts {
        lease_ttl_ms: 150, // hung leases expire quickly under test
        ..test_server_opts()
    });
    let ticket = daemon.submit("tiny");
    // The hung worker keeps its socket open but never heartbeats and
    // never returns rows.
    let (hung_jobs, hung_stream) = take_lease_and_stop(&daemon.addr, true);
    assert_eq!(hung_jobs.len(), 2);
    let survivor = daemon.worker(test_worker_opts("survivor"));
    let rows = daemon.wait(&ticket);
    drop(hung_stream);
    let outcome = daemon.stop();
    survivor.join().unwrap().expect("survivor exits cleanly");
    assert!(
        outcome.released >= 2,
        "the hung worker's lease must expire and re-queue (released {})",
        outcome.released
    );
    assert_eq!(merged_json(&experiment, rows), expected);
}

#[test]
fn warm_cache_rerun_executes_zero_cells_on_every_worker() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let cache_a = scratch_dir("cache-a");
    let cache_b = scratch_dir("cache-b");
    let workers = [test_worker_opts("w0"), test_worker_opts("w1")];

    // Cold pass: two workers with separate local caches split the
    // campaign between them.
    let (json, outcome, _) = campaign(
        &experiment,
        &workers,
        &[Some(cache_a.clone()), Some(cache_b.clone())],
    );
    assert_eq!(json, expected);
    assert_eq!(outcome.executed, experiment.job_count() as u64);

    // Warm pass: both workers share the union cache (every cell is in
    // one of the two directories — merge them into one dir the way a
    // shared network mount would look).
    for entry in std::fs::read_dir(&cache_b).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, cache_a.join(path.file_name().unwrap())).unwrap();
    }
    let (json, outcome, _) = campaign(
        &experiment,
        &workers,
        &[Some(cache_a.clone()), Some(cache_a.clone())],
    );
    assert_eq!(json, expected, "cached rows byte-identical");
    assert_eq!(outcome.executed, 0, "no worker executed any cell");
    assert_eq!(outcome.cache_hits, experiment.job_count() as u64);

    // One worker with two lease loops over the same directory: both
    // loops answer from the entries it read once.
    let log = Arc::new(EventLog::to_stderr("worker", None));
    let looped = WorkerOpts {
        threads: 2,
        log: Some(Arc::clone(&log)),
        ..test_worker_opts("looped")
    };
    let (json, outcome, summaries) = campaign(&experiment, &[looped], &[Some(cache_a.clone())]);
    assert_eq!(json, expected, "cached rows byte-identical");
    assert_eq!(outcome.workers, 2, "one session per loop");
    assert_eq!(outcome.executed, 0);
    let jobs = experiment.job_count() as u64;
    assert_eq!(
        summaries[0],
        WorkerSummary {
            jobs,
            executed: 0,
            cache_hits: jobs,
        }
    );
    let loads = log
        .recent()
        .iter()
        .filter(|e| e.event == "cache_load")
        .count();
    assert_eq!(loads, 1, "the cache directory is read once per worker");

    let _ = std::fs::remove_dir_all(&cache_a);
    let _ = std::fs::remove_dir_all(&cache_b);
}

#[test]
fn drifted_binary_aborts_at_first_lease_and_campaign_still_completes() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let daemon = Daemon::start(test_server_opts());
    let ticket = daemon.submit("tiny");
    // The drifted worker resolves "tiny" to a different job list.
    // Under v3 the spec rides on each lease, so the mismatch is
    // caught at its first lease: it aborts, its lease re-queues, and
    // it must not return a single row.
    let addr = daemon.addr.clone();
    let err =
        std::thread::spawn(move || work(&addr, drifted_registry, &test_worker_opts("drifted")))
            .join()
            .unwrap()
            .expect_err("drifted build refused");
    assert!(
        err.contains("fingerprint mismatch"),
        "unexpected error: {err}"
    );
    let healthy = daemon.worker(test_worker_opts("healthy"));
    let rows = daemon.wait(&ticket);
    let outcome = daemon.stop();
    healthy
        .join()
        .unwrap()
        .expect("healthy worker exits cleanly");
    assert!(outcome.rejected >= 1, "the aborting worker is accounted");
    assert!(
        outcome.released >= 2,
        "the drifted worker's lease re-queued (released {})",
        outcome.released
    );
    assert_eq!(merged_json(&experiment, rows), expected);
}

#[test]
fn a_failing_lease_loop_stops_its_siblings_and_work_returns_its_error() {
    // A scripted coordinator: the first loop to ask is leased a cell
    // under a fingerprint no build resolves to; the second loop's
    // request is never answered. Left alone, that loop would wait out
    // its idle budget (10 s of windows); the first loop's failure must
    // end it at once.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let t0 = Instant::now();
    let worker = std::thread::spawn(move || {
        work(
            &addr,
            registry,
            &WorkerOpts {
                threads: 2,
                ..test_worker_opts("pair")
            },
        )
    });
    let mut conns: Vec<(TcpStream, FrameReader<TcpStream>)> = (0..2)
        .map(|_| {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(stream.try_clone().unwrap());
            assert!(matches!(
                reader.next_msg().unwrap(),
                Some(Msg::Hello { .. })
            ));
            let mut writer = stream;
            write_msg(
                &mut writer,
                &Msg::Welcome {
                    lease_ttl_ms: 10_000,
                },
            )
            .unwrap();
            assert!(matches!(
                reader.next_msg().unwrap(),
                Some(Msg::Request { .. })
            ));
            (writer, reader)
        })
        .collect();
    let (writer, _) = &mut conns[0];
    write_msg(
        writer,
        &Msg::Lease {
            campaign: "c1".into(),
            spec: ExperimentSpec::new("tiny").to_json(),
            fingerprint: "not-this-build".into(),
            job_count: 8,
            jobs: vec![0],
        },
    )
    .unwrap();
    let err = worker
        .join()
        .unwrap()
        .expect_err("a fingerprint mismatch is fatal");
    let took = t0.elapsed();
    assert!(
        err.contains("fingerprint mismatch"),
        "unexpected error: {err}"
    );
    assert!(
        took < Duration::from_secs(3),
        "work returned after {took:?}"
    );
    // Both sessions are gone: the failing loop aborted, its sibling
    // was cut off without sending another frame.
    let (_, failed) = &mut conns[0];
    assert!(matches!(
        failed.next_msg().unwrap(),
        Some(Msg::Abort { .. })
    ));
    for (_, reader) in &mut conns {
        while let Ok(Some(msg)) = reader.next_msg() {
            assert!(matches!(msg, Msg::Heartbeat), "unexpected {msg:?}");
        }
    }
}

#[test]
fn worker_connecting_during_shutdown_is_told_done_not_left_hanging() {
    // A worker whose connection is still sitting un-accepted in the
    // listen backlog when the daemon shuts down must be handed `done`
    // by the shutdown drain and treat it as a clean no-work exit —
    // not hang out its idle budget waiting for a handshake nobody
    // will serve. A daemon started with its shutdown flag already set
    // makes the race deterministic: the accept loop stops on its very
    // first iteration and never accepts anyone.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let opts = ServerOpts {
        shutdown: Some(Arc::new(AtomicBool::new(true))),
        ..test_server_opts()
    };
    let racer = std::thread::spawn(move || {
        let mut w = test_worker_opts("racer");
        w.silence_ms = 5_000; // fail the test fast if hung
        work(&addr, registry, &w)
    });
    // Give the racer time to connect and send its hello before the
    // daemon starts.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let outcome = run_server(&listener, Some(registry), Vec::new(), &opts).expect("daemon exits");
    assert!(outcome.campaigns.is_empty());
    assert_eq!(outcome.workers, 0, "the racer never handshook");
    let ws = racer.join().unwrap().expect("racer exits cleanly");
    assert_eq!(ws.jobs, 0);
}

#[test]
fn version_mismatch_is_rejected_with_a_reason() {
    let daemon = Daemon::start(test_server_opts());
    let ticket = daemon.submit("tiny");
    // A client from a different protocol generation.
    let stream = TcpStream::connect(&daemon.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);
    write_msg(
        &mut writer,
        &Msg::Hello {
            schema_version: SCHEMA_VERSION,
            protocol_version: PROTOCOL_VERSION + 1,
            worker: "time-traveler".into(),
            token: None,
        },
    )
    .unwrap();
    match reader.next_msg().unwrap().expect("a reply") {
        Msg::Reject { reason } => assert!(reason.contains("version mismatch")),
        other => panic!("expected reject, got {other:?}"),
    }
    // A healthy worker still completes the campaign.
    let healthy = daemon.worker(test_worker_opts("healthy"));
    daemon.wait(&ticket);
    daemon.stop();
    healthy
        .join()
        .unwrap()
        .expect("healthy worker exits cleanly");
}

#[test]
fn status_probe_reports_live_queue_state_mid_campaign() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let jobs = experiment.job_count();
    let daemon = Daemon::start(test_server_opts());
    let ticket = daemon.submit("tiny");
    // Freeze the campaign mid-flight: a hung worker holds a lease of
    // 2 jobs, so the probe observes a genuinely live queue.
    let (held, hung_stream) = take_lease_and_stop(&daemon.addr, true);
    assert_eq!(held.len(), 2);

    let report = sfence_dist::fetch_status(&daemon.addr, std::time::Duration::from_secs(5), None)
        .expect("status probe answered");
    assert_eq!(report.produced_by, "coordinator");
    let gauge = |name: &str| match report.get(name, &[]) {
        Some(m) => match m.value {
            sfence_obs::MetricValue::Gauge(v) => v,
            ref other => panic!("{name}: expected gauge, got {other:?}"),
        },
        None => panic!("{name} missing from the status frame"),
    };
    assert_eq!(gauge("queue_jobs_total") as usize, jobs);
    assert_eq!(gauge("queue_active_leases") as usize, 2);
    assert_eq!(gauge("queue_done") as usize, 0);
    assert_eq!(gauge("queue_pending") as usize, jobs - 2);
    // The wire payload round-trips through the metrics schema.
    let back = sfence_obs::MetricsReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back.metrics.len(), report.metrics.len());

    // Release the hung lease and let a real worker finish.
    drop(hung_stream);
    let finisher = daemon.worker(test_worker_opts("finisher"));
    let rows = daemon.wait(&ticket);
    daemon.stop();
    finisher.join().unwrap().expect("finisher exits cleanly");
    assert_eq!(merged_json(&experiment, rows), expected);
}

//! Integration tests of the multi-campaign service layer: concurrent
//! campaigns merge byte-identical to their solo runs, a killed
//! coordinator resumes every in-flight campaign from its checkpoint
//! (same ids, same bytes), batched leases respect the request and the
//! server cap, and every client flow is refused without the shared
//! token.

mod common;

use common::{
    fast_wait_opts, merged_json, registry, scratch_dir, test_server_opts, test_worker_opts,
};
use sfence_dist::protocol::{write_msg, FrameReader, Msg, PROTOCOL_VERSION};
use sfence_dist::{client, fetch_status, run_server, work, ExperimentSpec, ServerOpts};
use sfence_harness::{Experiment, RunOptions, SCHEMA_VERSION};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn two_interleaved_campaigns_each_match_their_solo_runs() {
    let tiny = registry("tiny").unwrap();
    let tiny2 = registry("tiny2").unwrap();
    let expected_tiny = tiny.run_parallel().to_json_string();
    let expected_tiny2 = tiny2.run_parallel().to_json_string();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        shutdown: Some(Arc::clone(&shutdown)),
        ..test_server_opts()
    };

    let (json1, json2) = std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
        // Two workers serve both campaigns concurrently; they exit
        // when the daemon shuts down.
        let workers: Vec<_> = ["w0", "w1"]
            .iter()
            .map(|name| {
                let addr = addr.clone();
                s.spawn(move || work(&addr, registry, &test_worker_opts(name)))
            })
            .collect();

        let wait = fast_wait_opts(None);
        let t1 = client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait.client).unwrap();
        let t2 = client::submit(&addr, &ExperimentSpec::new("tiny2"), 3, &wait.client).unwrap();
        assert_eq!(t1.campaign, "c1");
        assert_eq!(t2.campaign, "c2");
        assert_eq!(t1.job_count, tiny.job_count() as u64);
        assert_eq!(t2.job_count, tiny2.job_count() as u64);

        let rows1 = client::wait_for_campaign(&addr, &t1.campaign, &wait, |_, _| {}).unwrap();
        let rows2 = client::wait_for_campaign(&addr, &t2.campaign, &wait, |_, _| {}).unwrap();

        shutdown.store(true, Ordering::SeqCst);
        let outcome = server.join().unwrap().expect("server exits cleanly");
        for w in workers {
            w.join().unwrap().expect("worker exits cleanly");
        }
        assert_eq!(outcome.campaigns.len(), 2);
        assert!(outcome.campaigns.iter().all(|c| c.complete));
        (merged_json(&tiny, rows1), merged_json(&tiny2, rows2))
    });

    assert_eq!(json1, expected_tiny, "campaign c1 byte-identical to solo");
    assert_eq!(json2, expected_tiny2, "campaign c2 byte-identical to solo");
}

#[test]
fn killed_coordinator_resumes_from_checkpoint_byte_identical() {
    let tiny = registry("tiny").unwrap();
    let expected = tiny.run_parallel().to_json_string();
    let dir = scratch_dir("resume");
    let ckpt = dir.join("ckpt.jsonl");
    let wait = fast_wait_opts(None);

    // --- Phase 1: submit, complete 3 of 8 jobs, kill the daemon. ---
    let ticket = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let opts = ServerOpts {
            checkpoint: Some(ckpt.clone()),
            checkpoint_every_ms: 0, // snapshot every mutation
            shutdown: Some(Arc::clone(&shutdown)),
            ..test_server_opts()
        };
        std::thread::scope(|s| {
            let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
            let ticket =
                client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait.client).unwrap();
            assert_eq!(ticket.campaign, "c1");

            // A hand-rolled worker completes exactly 3 jobs, then its
            // connection drops — mid-campaign state for the kill.
            let stream = TcpStream::connect(&addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = FrameReader::new(stream);
            write_msg(
                &mut writer,
                &Msg::Hello {
                    schema_version: SCHEMA_VERSION,
                    protocol_version: PROTOCOL_VERSION,
                    worker: "mortal".into(),
                    token: None,
                },
            )
            .unwrap();
            match reader.next_msg().unwrap().unwrap() {
                Msg::Welcome { .. } => {}
                other => panic!("expected welcome, got {other:?}"),
            }
            write_msg(&mut writer, &Msg::Request { batch: 3 }).unwrap();
            let (campaign, jobs) = match reader.next_msg().unwrap().unwrap() {
                Msg::Lease { campaign, jobs, .. } => (campaign, jobs),
                other => panic!("expected lease, got {other:?}"),
            };
            assert_eq!(jobs.len(), 3, "batched lease honors the request");
            let outcome = tiny.run_with(RunOptions::new(1).jobs(jobs));
            write_msg(
                &mut writer,
                &Msg::Result {
                    campaign,
                    rows: outcome.rows,
                    executed: outcome.stats.executed as u64,
                    cache_hits: 0,
                    wall_ms: 0.0,
                },
            )
            .unwrap();
            drop(writer);
            drop(reader);

            // "Kill" the daemon. The handler drains the buffered
            // result before exiting, and checkpoint-every-mutation
            // means the snapshot already has all 3 rows.
            shutdown.store(true, Ordering::SeqCst);
            let outcome = server.join().unwrap().expect("server exits");
            assert!(outcome.aborted, "campaign was mid-flight at the kill");
            assert_eq!(outcome.campaigns[0].done, 3);
            ticket
        })
    };
    assert!(ckpt.exists(), "checkpoint written before the kill");

    // --- Phase 2: a fresh daemon process resumes the campaign. ---
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every_ms: 0,
        shutdown: Some(Arc::clone(&shutdown)),
        ..test_server_opts()
    };
    let json = std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
        let worker = {
            let addr = addr.clone();
            s.spawn(move || work(&addr, registry, &test_worker_opts("survivor")))
        };
        // Same campaign id, polled against the *new* process.
        let rows = client::wait_for_campaign(&addr, &ticket.campaign, &wait, |_, _| {}).unwrap();
        shutdown.store(true, Ordering::SeqCst);
        let outcome = server.join().unwrap().expect("server exits");
        let ws = worker.join().unwrap().expect("worker exits cleanly");
        assert_eq!(
            ws.executed,
            tiny.job_count() as u64 - 3,
            "resume replays only the jobs the checkpoint lacked"
        );
        assert_eq!(outcome.campaigns[0].id, 1, "campaign id survives restart");
        assert!(outcome.campaigns[0].complete);
        merged_json(&tiny, rows)
    });
    assert_eq!(
        json, expected,
        "kill + resume output byte-identical to solo"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_leases_respect_request_and_cap_and_merge_identically() {
    let tiny = registry("tiny").unwrap();
    let expected = tiny.run_parallel().to_json_string();
    let jobs_total = tiny.job_count();
    assert_eq!(jobs_total, 8);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        max_lease: 4,
        shutdown: Some(Arc::clone(&shutdown)),
        ..test_server_opts()
    };
    let spec = ExperimentSpec::new("tiny");

    let outcome = std::thread::scope(|s| {
        let server = s.spawn(|| {
            run_server(
                &listener,
                None,
                vec![(spec.clone(), tiny.clone(), 1)],
                &opts,
            )
        });
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = FrameReader::new(stream);
        write_msg(
            &mut writer,
            &Msg::Hello {
                schema_version: SCHEMA_VERSION,
                protocol_version: PROTOCOL_VERSION,
                worker: "batcher".into(),
                token: None,
            },
        )
        .unwrap();
        match reader.next_msg().unwrap().unwrap() {
            Msg::Welcome { .. } => {}
            other => panic!("expected welcome, got {other:?}"),
        }
        // batch=3 → exactly 3; batch=0 → server default (2);
        // batch=999 → capped at max_lease(4), 3 jobs remain.
        for (batch, expect) in [(3u64, 3usize), (0, 2), (999, 3)] {
            write_msg(&mut writer, &Msg::Request { batch }).unwrap();
            let (campaign, jobs) = match reader.next_msg().unwrap().unwrap() {
                Msg::Lease { campaign, jobs, .. } => (campaign, jobs),
                other => panic!("expected lease, got {other:?}"),
            };
            assert_eq!(jobs.len(), expect, "batch={batch}");
            let outcome = tiny.run_with(RunOptions::new(1).jobs(jobs));
            write_msg(
                &mut writer,
                &Msg::Result {
                    campaign,
                    rows: outcome.rows,
                    executed: outcome.stats.executed as u64,
                    cache_hits: 0,
                    wall_ms: 0.0,
                },
            )
            .unwrap();
        }
        // Nothing is pending now; a shutdown tells the idle worker
        // `done`.
        write_msg(&mut writer, &Msg::Request { batch: 0 }).unwrap();
        match reader.next_msg().unwrap().unwrap() {
            Msg::Wait { .. } => {}
            other => panic!("expected wait, got {other:?}"),
        }
        shutdown.store(true, Ordering::SeqCst);
        match reader.next_msg().unwrap().unwrap() {
            Msg::Done => {}
            other => panic!("expected done, got {other:?}"),
        }
        server.join().unwrap().expect("server exits")
    });
    assert!(!outcome.aborted);
    let campaign = outcome.campaigns.into_iter().next().unwrap();
    assert!(campaign.complete);
    assert_eq!(merged_json(&tiny, campaign.rows), expected);
}

/// Read the next frame, skipping the keep-alives a worker's side
/// thread interleaves while cells execute.
fn recv_skip_heartbeats(reader: &mut FrameReader<TcpStream>) -> Msg {
    loop {
        match reader.next_msg().unwrap() {
            Some(Msg::Heartbeat) => continue,
            Some(msg) => return msg,
            None => continue,
        }
    }
}

fn rows_json(rows: &[sfence_harness::IndexedRow]) -> Vec<String> {
    rows.iter()
        .map(|r| r.to_json().to_string_compact())
        .collect()
}

#[test]
fn worker_re_verifies_a_cached_campaign_when_its_fingerprint_changes() {
    // A daemon restarted without its checkpoint reissues campaign ids
    // from c1 for whatever is submitted next, so a reconnected
    // worker's cached id→experiment binding can go stale. The lease
    // frame's fingerprint is the tell: the worker must drop the cache
    // and re-resolve, not silently run the old experiment's cells.
    // A hand-rolled coordinator plays both daemon generations over
    // one connection, which exercises exactly the cache-hit path a
    // reconnect session takes.
    let tiny = registry("tiny").unwrap();
    let tiny2 = registry("tiny2").unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = FrameReader::new(stream);
        match reader.next_msg().unwrap().unwrap() {
            Msg::Hello { .. } => {}
            other => panic!("expected hello, got {other:?}"),
        }
        write_msg(
            &mut writer,
            &Msg::Welcome {
                lease_ttl_ms: 10_000,
            },
        )
        .unwrap();
        let mut lease = |spec_name: &str, exp: &Experiment| -> Vec<sfence_harness::IndexedRow> {
            match recv_skip_heartbeats(&mut reader) {
                Msg::Request { .. } => {}
                other => panic!("expected request, got {other:?}"),
            }
            write_msg(
                &mut writer,
                &Msg::Lease {
                    campaign: "c1".into(),
                    spec: ExperimentSpec::new(spec_name).to_json(),
                    fingerprint: exp.fingerprint(),
                    job_count: exp.job_count() as u64,
                    jobs: vec![0, 1],
                },
            )
            .unwrap();
            match recv_skip_heartbeats(&mut reader) {
                Msg::Result { rows, .. } => rows,
                other => panic!("expected result, got {other:?}"),
            }
        };
        // First lease: c1 is "tiny". Second lease: same id, but the
        // "restarted daemon" has bound c1 to "tiny2".
        let rows1 = lease("tiny", &tiny);
        let rows2 = lease("tiny2", &tiny2);
        match recv_skip_heartbeats(&mut reader) {
            Msg::Request { .. } => {}
            other => panic!("expected request, got {other:?}"),
        }
        write_msg(&mut writer, &Msg::Done).unwrap();
        (rows1, rows2)
    });

    let summary = work(&addr, registry, &test_worker_opts("chameleon")).unwrap();
    let (rows1, rows2) = server.join().unwrap();
    assert_eq!(summary.jobs, 4);
    let tiny = registry("tiny").unwrap();
    let tiny2 = registry("tiny2").unwrap();
    let expect1 = tiny.run_with(RunOptions::new(1).jobs(vec![0, 1])).rows;
    let expect2 = tiny2.run_with(RunOptions::new(1).jobs(vec![0, 1])).rows;
    assert_eq!(rows_json(&rows1), rows_json(&expect1));
    assert_eq!(
        rows_json(&rows2),
        rows_json(&expect2),
        "second lease ran the rebound experiment, not the stale cache"
    );
}

#[test]
fn submit_is_rejected_when_the_forced_checkpoint_cannot_be_written() {
    // The ack invariant — a campaign id the client holds survives a
    // daemon restart — is unsatisfiable when the snapshot cannot be
    // saved, so the submit must be rejected and rolled back, never
    // acked.
    let dir = scratch_dir("ckpt-fail");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        // The parent directory does not exist, so every save fails.
        checkpoint: Some(dir.join("no-such-subdir").join("ckpt.jsonl")),
        checkpoint_every_ms: 0,
        shutdown: Some(Arc::clone(&shutdown)),
        ..test_server_opts()
    };

    std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
        let wait = fast_wait_opts(None);
        let err = client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait.client).unwrap_err();
        assert!(err.contains("cannot persist"), "{err}");
        // The rollback means the daemon has never heard of c1.
        let err = client::poll(&addr, "c1", &wait.client).unwrap_err();
        assert!(err.contains("unknown campaign"), "{err}");
        shutdown.store(true, Ordering::SeqCst);
        let outcome = server.join().unwrap().expect("server exits");
        assert!(outcome.campaigns.is_empty(), "no campaign survived");
        assert!(outcome.rejected >= 1);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_silent_connection_is_dropped_at_the_handshake_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        handshake_timeout_ms: 100,
        shutdown: Some(Arc::clone(&shutdown)),
        ..test_server_opts()
    };

    std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
        // Connect and say nothing — the daemon must hang up on us,
        // not pin a handler thread forever.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 16];
        match std::io::Read::read(&mut stream, &mut buf) {
            Ok(0) => {}
            Ok(n) => panic!("expected a close, got {n} bytes"),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("server did not close the silent connection: {e}"),
        }
        shutdown.store(true, Ordering::SeqCst);
        let outcome = server.join().unwrap().expect("server exits");
        assert!(outcome.rejected >= 1, "silent connection accounted");
    });
}

#[test]
fn completed_campaigns_are_evicted_after_the_fetch_retention_window() {
    let tiny = registry("tiny").unwrap();
    let expected = tiny.run_parallel().to_json_string();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        retain_fetched_ms: 50,
        shutdown: Some(Arc::clone(&shutdown)),
        ..test_server_opts()
    };

    std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));
        let worker = {
            let addr = addr.clone();
            s.spawn(move || work(&addr, registry, &test_worker_opts("ephemeral")))
        };
        let wait = fast_wait_opts(None);
        let ticket = client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait.client).unwrap();
        // The first fetch delivers the rows and starts the retention
        // clock...
        let rows = client::wait_for_campaign(&addr, &ticket.campaign, &wait, |_, _| {}).unwrap();
        assert_eq!(merged_json(&tiny, rows), expected);
        // ...after which the campaign is evicted: polling it again
        // eventually comes back unknown.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match client::poll(&addr, &ticket.campaign, &wait.client) {
                Err(e) if e.contains("unknown campaign") => break,
                Err(e) => panic!("unexpected poll failure: {e}"),
                Ok(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(20))
                }
                Ok(_) => panic!("campaign never evicted"),
            }
        }
        shutdown.store(true, Ordering::SeqCst);
        let outcome = server.join().unwrap().expect("server exits");
        worker.join().unwrap().expect("worker exits cleanly");
        assert!(outcome.campaigns.is_empty(), "evicted from the table");
    });
}

#[test]
fn every_client_flow_is_refused_without_the_token() {
    let tiny = registry("tiny").unwrap();
    let expected = tiny.run_parallel().to_json_string();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        token: Some("sesame".into()),
        shutdown: Some(Arc::clone(&shutdown)),
        ..test_server_opts()
    };
    let timeout = std::time::Duration::from_secs(5);

    let json = std::thread::scope(|s| {
        let server = s.spawn(|| run_server(&listener, Some(registry), Vec::new(), &opts));

        // Status: missing and wrong tokens refused, right one served.
        let err = fetch_status(&addr, timeout, None).unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        let err = fetch_status(&addr, timeout, Some("wrong")).unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        fetch_status(&addr, timeout, Some("sesame")).expect("authed probe answered");

        // Submit: refused without the token...
        let bad = fast_wait_opts(None);
        let err = client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &bad.client).unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        // ...accepted with it.
        let wait = fast_wait_opts(Some("sesame"));
        let ticket = client::submit(&addr, &ExperimentSpec::new("tiny"), 1, &wait.client).unwrap();

        // Fetch: an unauthenticated poll of a real campaign is refused.
        let err = client::poll(&addr, &ticket.campaign, &bad.client).unwrap_err();
        assert!(err.contains("rejected"), "{err}");

        // Work: a token-less worker is turned away at the handshake...
        let err = work(&addr, registry, &test_worker_opts("gatecrasher")).unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        // ...an authed one completes the campaign.
        let worker = {
            let addr = addr.clone();
            let mut w = test_worker_opts("keyholder");
            w.token = Some("sesame".into());
            s.spawn(move || work(&addr, registry, &w))
        };
        let rows = client::wait_for_campaign(&addr, &ticket.campaign, &wait, |_, _| {}).unwrap();
        shutdown.store(true, Ordering::SeqCst);
        let outcome = server.join().unwrap().expect("server exits");
        worker.join().unwrap().expect("authed worker exits cleanly");
        assert!(
            outcome.rejected >= 4,
            "every unauthenticated flow accounted (got {})",
            outcome.rejected
        );
        merged_json(&tiny, rows)
    });
    assert_eq!(json, expected, "authed campaign byte-identical to solo");
}

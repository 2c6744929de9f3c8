//! Regression tests of the daemon's event-driven paths at the default
//! `ServerOpts` timings (`poll_ms` 100, `wait_ms` 200) — the fast
//! `test_server_opts()` would hide a peer waiting on a timer. Status
//! probes are accepted as they arrive, a worker already waiting is
//! leased a submitted campaign at once, shutdown wakes a daemon bound
//! to the unspecified address, and a worker's idle exit counts wall
//! time while the daemon holds its requests.

mod common;

use common::{registry, test_worker_opts, Daemon};
use sfence_dist::{fetch_status, run_server, ServerOpts, WorkerOpts};
use sfence_obs::log::EventLog;
use sfence_obs::MetricValue;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn default_opts() -> ServerOpts {
    ServerOpts {
        quiet: true,
        ..ServerOpts::default()
    }
}

#[test]
fn twenty_status_probes_against_an_idle_daemon_take_under_a_second() {
    let daemon = Daemon::start(default_opts());
    let t0 = Instant::now();
    for _ in 0..20 {
        fetch_status(&daemon.addr, Duration::from_secs(5), None).unwrap();
    }
    let took = t0.elapsed();
    daemon.stop();
    assert!(took < Duration::from_secs(1), "20 probes took {took:?}");
}

#[test]
fn a_waiting_worker_is_leased_within_50ms_of_each_submit() {
    // The daemon's flight recorder keeps every level, so its `submit`
    // and `lease` events carry the daemon-clock times to compare.
    let log = Arc::new(EventLog::to_stderr("dist", None));
    let daemon = Daemon::start(ServerOpts {
        log: Some(Arc::clone(&log)),
        ..default_opts()
    });
    let worker = daemon.worker(test_worker_opts("early"));
    daemon.await_workers(1);
    // Three campaigns in turn, each submitted to an idle worker whose
    // request has reached the daemon.
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(50));
        let ticket = daemon.submit("tiny");
        daemon.wait(&ticket);
    }
    daemon.stop();
    worker.join().unwrap().expect("worker exits cleanly");

    let events = log.recent();
    let first = |kind: &str, campaign: &str| {
        events
            .iter()
            .find(|e| {
                e.event == kind
                    && e.fields
                        .iter()
                        .any(|(k, v)| k == "campaign" && v == campaign)
            })
            .unwrap_or_else(|| panic!("no {kind:?} event for {campaign}"))
            .t_ms
    };
    // A timer-driven daemon whose accept ticks and worker naps lock
    // into phase lands near 100 ms; an event-driven one needs ~1 ms.
    for campaign in ["c1", "c2", "c3"] {
        let (submitted, leased) = (first("submit", campaign), first("lease", campaign));
        assert!(
            leased - submitted < 50,
            "{campaign}: first lease at {leased} ms, submit at {submitted} ms"
        );
    }
}

#[test]
fn a_daemon_on_the_unspecified_address_stops_within_a_second_of_its_flag() {
    let listener = TcpListener::bind("0.0.0.0:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.local_addr().unwrap().port());
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOpts {
        shutdown: Some(Arc::clone(&shutdown)),
        ..default_opts()
    };
    let server =
        std::thread::spawn(move || run_server(&listener, Some(registry), Vec::new(), &opts));
    // A connected worker whose request the idle daemon is holding.
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || sfence_dist::work(&addr, registry, &test_worker_opts("held")))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !matches!(
        fetch_status(&addr, Duration::from_secs(5), None)
            .unwrap()
            .get("workers_connected", &[])
            .map(|m| &m.value),
        Some(MetricValue::Counter(1))
    ) {
        assert!(Instant::now() < deadline, "worker never connected");
        std::thread::sleep(Duration::from_millis(5));
    }

    let t0 = Instant::now();
    shutdown.store(true, Ordering::SeqCst);
    server.join().unwrap().expect("daemon exits cleanly");
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert_eq!(worker.join().unwrap().expect("worker told done").jobs, 0);
}

#[test]
fn idle_exit_counts_wall_time_since_the_last_lease() {
    let idle_exit = Duration::from_millis(300);
    let daemon = Daemon::start(default_opts());
    let ticket = daemon.submit("tiny");
    let t0 = Instant::now();
    let worker = daemon.worker(WorkerOpts {
        idle_exit_ms: idle_exit.as_millis() as u64,
        ..test_worker_opts("idler")
    });
    assert_eq!(daemon.wait(&ticket).len(), 8);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !worker.is_finished() {
        assert!(
            Instant::now() < deadline,
            "worker still asking for work 5 s after its campaign completed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let took = t0.elapsed();
    let summary = worker.join().unwrap().expect("idle exit is a clean exit");
    assert_eq!(
        summary.jobs, 8,
        "the worker ran the campaign before idling out"
    );
    assert!(
        took >= idle_exit,
        "left after {took:?}, before its idle budget"
    );
    daemon.stop();
}

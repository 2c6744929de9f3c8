//! Helpers shared by the loopback integration suites: a test
//! registry on the functional backend, fast server/worker/client
//! tunables, and a [`Daemon`] handle that runs `run_server` on a
//! loopback port for the length of one test.

// Each suite compiles this module on its own and uses a subset.
#![allow(dead_code)]

use sfence_dist::protocol::{write_msg, FrameReader, Msg, PROTOCOL_VERSION};
use sfence_dist::{
    client, fetch_status, run_server, work, CampaignTicket, ExperimentSpec, ServerOpts,
    ServerOutcome, WorkerOpts, WorkerSummary,
};
use sfence_harness::{Axis, BackendId, Experiment, IndexedRow, SweepResult, SCHEMA_VERSION};
use sfence_obs::MetricValue;
use sfence_sim::FenceConfig;
use sfence_workloads::WorkloadParams;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The test registry: what `sfence_bench::experiment_by_name` is to
/// the real binaries. Built on the functional backend so a whole
/// campaign runs in milliseconds; two distinct names so interleaved
/// campaigns have distinguishable outputs.
pub fn registry(name: &str) -> Option<Experiment> {
    match name {
        "tiny" => Some(
            Experiment::new("tiny")
                .workloads(["dekker", "msn"], WorkloadParams::small())
                .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
                .axis(Axis::Level(vec![1, 2]))
                .backend(BackendId::Functional),
        ),
        "tiny2" => Some(
            Experiment::new("tiny2")
                .workloads(["dekker", "wsq"], WorkloadParams::small())
                .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
                .axis(Axis::Level(vec![1, 2, 3]))
                .backend(BackendId::Functional),
        ),
        _ => None,
    }
}

pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sfence-dist-test-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn test_server_opts() -> ServerOpts {
    ServerOpts {
        default_lease: 2,
        lease_ttl_ms: 10_000,
        poll_ms: 10,
        wait_ms: 10,
        quiet: true,
        ..ServerOpts::default()
    }
}

pub fn test_worker_opts(name: &str) -> WorkerOpts {
    WorkerOpts {
        threads: 1,
        heartbeat_ms: 50,
        name: Some(name.to_string()),
        silence_ms: 10_000,
        quiet: true,
        ..WorkerOpts::default()
    }
}

pub fn fast_wait_opts(token: Option<&str>) -> client::WaitOpts {
    let mut wait = client::WaitOpts {
        poll_ms: 20,
        retries: 100,
        retry_base_ms: 20,
        retry_cap_ms: 200,
        ..Default::default()
    };
    wait.client.token = token.map(str::to_string);
    wait
}

/// Open a hand-rolled worker session: `hello`, then `welcome`.
pub fn raw_worker(addr: &str, name: &str) -> (TcpStream, FrameReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);
    let hello = Msg::Hello {
        schema_version: SCHEMA_VERSION,
        protocol_version: PROTOCOL_VERSION,
        worker: name.into(),
        token: None,
    };
    write_msg(&mut writer, &hello).unwrap();
    match reader.next_msg().unwrap().unwrap() {
        Msg::Welcome { .. } => {}
        other => panic!("expected welcome, got {other:?}"),
    }
    (writer, reader)
}

pub fn merged_json(experiment: &Experiment, rows: Vec<IndexedRow>) -> String {
    SweepResult::from_indexed(&experiment.name, experiment.job_count(), rows)
        .expect("merge covers every job exactly once")
        .to_json_string()
}

/// A daemon serving [`registry`] on a loopback port until
/// [`Daemon::stop`].
pub struct Daemon {
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<Result<ServerOutcome, String>>,
}

impl Daemon {
    pub fn start(opts: ServerOpts) -> Daemon {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let opts = ServerOpts {
            shutdown: Some(Arc::clone(&shutdown)),
            ..opts
        };
        let server =
            std::thread::spawn(move || run_server(&listener, Some(registry), Vec::new(), &opts));
        Daemon {
            addr,
            shutdown,
            server,
        }
    }

    /// A worker thread serving this daemon with `opts`.
    pub fn worker(&self, opts: WorkerOpts) -> JoinHandle<Result<WorkerSummary, String>> {
        let addr = self.addr.clone();
        std::thread::spawn(move || work(&addr, registry, &opts))
    }

    /// Block until `n` workers have completed the handshake, so a
    /// test's worker count cannot race a fast campaign's finish.
    pub fn await_workers(&self, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let report = fetch_status(&self.addr, Duration::from_secs(5), None).unwrap();
            if matches!(
                report.get("workers_connected", &[]).map(|m| &m.value),
                Some(MetricValue::Counter(c)) if *c >= n
            ) {
                return;
            }
            assert!(Instant::now() < deadline, "{n} workers never connected");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn submit(&self, name: &str) -> CampaignTicket {
        client::submit(
            &self.addr,
            &ExperimentSpec::new(name),
            1,
            &fast_wait_opts(None).client,
        )
        .unwrap()
    }

    /// Poll `ticket`'s campaign until it completes; its merged rows.
    pub fn wait(&self, ticket: &CampaignTicket) -> Vec<IndexedRow> {
        client::wait_for_campaign(
            &self.addr,
            &ticket.campaign,
            &fast_wait_opts(None),
            |_, _| {},
        )
        .unwrap()
    }

    /// Flip the shutdown flag (connected workers are told `done`) and
    /// return the daemon's lifetime counters.
    pub fn stop(self) -> ServerOutcome {
        self.shutdown.store(true, Ordering::SeqCst);
        self.server.join().unwrap().expect("daemon exits cleanly")
    }
}

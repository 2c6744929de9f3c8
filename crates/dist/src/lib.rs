//! # sfence-dist
//!
//! The distributed sweep service: a std-only coordinator/worker
//! runner that fans an [`Experiment`](sfence_harness::Experiment)'s
//! cell-level jobs out across machines over plain
//! `std::net::TcpStream` (the container carries no external crates,
//! so framing, serialization and leasing are all hand-rolled on the
//! harness's own JSON).
//!
//! The design leans entirely on invariants the harness already
//! guarantees:
//!
//! - **Jobs are machine-independent.** An experiment's job list is a
//!   deterministic function of its registered spec, every engine is
//!   deterministic, and cache keys / row indices agree across hosts —
//!   so the coordinator ships an [`ExperimentSpec`] (a name plus
//!   overrides), leases *indices*, and merges returned
//!   [`IndexedRow`](sfence_harness::IndexedRow)s through
//!   `SweepResult::from_indexed` into output **byte-identical** to a
//!   single-process `run_parallel()`.
//! - **Mismatched binaries are rejected, not merged.** The handshake
//!   compares `SCHEMA_VERSION`, the protocol version, and the
//!   experiment [`fingerprint`](sfence_harness::Experiment::fingerprint)
//!   (SHA-256 over every job's cache key), so two builds that would
//!   disagree about any cell refuse each other up front.
//! - **Workers are disposable.** Jobs are leased with heartbeats and
//!   a TTL ([`sfence_harness::JobQueue`]); a worker that dies or goes
//!   silent has its leases re-issued to the next requester, and
//!   worker-local result caches make the re-run of already-executed
//!   cells free.
//!
//! Since protocol v3 the coordinator is a long-lived **service**: one
//! daemon holds a table of concurrent *campaigns* (one submitted
//! experiment each), workers lease cells across all of them through a
//! deterministic weighted fair-share scheduler ([`scheduler`]), the
//! whole table checkpoints to an atomic-rename JSONL snapshot
//! ([`checkpoint`]) so a killed daemon resumes every in-flight
//! campaign, and every client flow (submit / work / fetch / status)
//! authenticates with a shared token compared in constant time
//! ([`server::token_matches`]).
//!
//! See `README.md` for the protocol message table and failure model.
//! The `sfence-dist` binary (in `sfence-bench`, next to the
//! experiment registry) exposes `serve` / `submit` / `work` /
//! `status`; `sfence-sweep --workers N` runs the same daemon on a
//! loopback port, spawns N local workers and submits its experiment
//! through [`client::submit`] / [`client::poll`].

pub mod checkpoint;
pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod spec;
pub mod status;
pub mod worker;

pub use client::{poll, submit, wait_for_campaign, CampaignTicket, ClientOpts, Poll, WaitOpts};
pub use protocol::{FrameError, FrameReader, Msg, MAX_FRAME, MAX_LEASE, PROTOCOL_VERSION};
pub use server::{run_server, token_matches, ServerOpts, ServerOutcome};
pub use spec::{ExperimentSpec, Registry};
pub use status::{fetch_dump, fetch_status, render_campaign_table};
pub use worker::{work, WorkerOpts, WorkerSummary};

//! # sfence-harness
//!
//! The experiment substrate of the Fence Scoping reproduction, in two
//! layers:
//!
//! - **[`Session`]** (layer 1): a builder over one program/workload
//!   run. Replaces the old `Machine::new` + `run_program` call sites
//!   and returns a [`RunReport`] — exit status, cycles, per-core /
//!   memory / scope-unit stats, watchpoint log, retired traces and
//!   the final memory, all JSON-serializable through [`json`].
//!   Sessions execute through a pluggable [`Backend`] — the
//!   cycle-accurate simulator (default), a fast functional SC
//!   interpreter, or the SC interleaving enumerator ([`enumerate`]) —
//!   selected per run with [`Session::backend`] / per sweep with
//!   [`Experiment::backend`] and keyed into every cache entry.
//! - **[`Experiment`]** (layer 2): a declarative sweep over the
//!   workload registry (`sfence_workloads::catalog`) crossed with
//!   fence configs and machine/workload axes, executed
//!   deterministically in parallel across OS threads with stable row
//!   ordering, emitting structured JSON rows and ASCII tables.
//!
//! The paper figures in `sfence-bench` are thin `Experiment`
//! descriptions; the examples and integration tests drive `Session`
//! directly.
//!
//! On top of the two layers sits the sweep-at-scale machinery (see
//! `README.md` and the ROADMAP's "Running sweeps" notes):
//!
//! - **[`cache`]**: a content-addressed on-disk `RunReport` cache —
//!   each cell is keyed by the SHA-256 of its canonical JSON
//!   description, so repeated sweeps only execute new cells and an
//!   interrupted sweep resumes by skipping cache hits.
//! - **[`store`]**: an append-only JSONL [`ResultStore`] of completed
//!   runs with injected metadata (git describe, timestamp), plus
//!   row-level diffing against history.
//! - **[`shard`]**: deterministic round-robin partitioning of an
//!   experiment's job list across processes; shard outputs merge (via
//!   [`SweepResult::from_indexed`]) into rows byte-identical to a
//!   single-process run.

pub mod backend;
pub mod cache;
pub mod enumerate;
pub mod experiment;
pub mod hash;
pub mod json;
pub mod runner;
pub mod session;
pub mod shard;
pub mod store;

pub use backend::{Backend, BackendId, EnumerativeBackend, FunctionalBackend, SimBackend};
pub use cache::{host_token, job_canonical_json, job_key, unique_writer_name, ResultCache};
pub use enumerate::{enumerate_sc, CheckerConfig, ScOutcomes};
pub use experiment::{
    default_threads, Axis, AxisPoint, Experiment, IndexedRow, RunOptions, RunOutcome, RunStats,
    SweepResult, SweepRow,
};
pub use json::Json;
pub use runner::run_indexed;
pub use session::{speedup_s_over_t, RunReport, Session, SCHEMA_VERSION};
pub use shard::{JobQueue, Shard};
pub use store::{diff_rows, ResultStore, RunMeta, StoredRun, SweepDiff};

//! # sfence-obs
//!
//! The observability layer: one crate that turns the simulator's raw
//! instrumentation into artifacts a human (or a dashboard) can read,
//! without perturbing what it observes.
//!
//! - [`metrics`] — a typed, labeled metrics registry
//!   (counter/gauge/histogram snapshots) and the schema-versioned
//!   [`MetricsReport`] it exports as JSON. The one unified schema for
//!   the simulator's per-core stats, the scope unit's counters, the
//!   memory hierarchy's hit/miss breakdown, the sweep runner's cache
//!   accounting and the distributed coordinator's queue state.
//! - [`trace`] — renders the simulator's pipeline event stream
//!   ([`sfence_core::pipe`]) as Chrome `trace_event` JSON, loadable in
//!   `chrome://tracing` / Perfetto. Byte-deterministic for a fixed
//!   workload + config, independent of host thread count.
//! - [`prof`] — coarse scoped wall-clock timers with a hierarchical
//!   summary table, for profiling the *harness* (not the simulated
//!   machine): phase timings of benchmark and perf-gate runs.
//! - [`progress`] — a throttled stderr progress meter (done/total,
//!   cells/sec, ETA) built on the metrics registry, for long sweeps.
//! - [`log`] — a leveled, structured JSONL event logger for
//!   long-lived services: schema-versioned records with monotonic
//!   sequence numbers, size-based rotation, and per-line flushing so
//!   a crash never leaves a torn tail.
//! - [`ring`] — a bounded in-memory flight recorder of recent events,
//!   serializable for `debug_dump` frames and panic hooks.
//! - [`expo`] — hand-rolled Prometheus-style text exposition of a
//!   [`MetricsReport`], for external scrapers.
//!
//! ## Overhead contract
//!
//! Observation is opt-in and zero-cost when off: pipeline tracing is
//! gated in the simulator by one bool (`CoreConfig::pipe_trace`),
//! profiling by one relaxed atomic load, and the progress meter only
//! exists when `--progress` is passed. Nothing in this crate sits on
//! the simulator's per-cycle path; the perf gate runs with everything
//! here disabled and must not notice the difference.

pub mod expo;
pub mod log;
pub mod metrics;
pub mod prof;
pub mod progress;
pub mod ring;
pub mod trace;

pub use expo::prometheus_text;
pub use log::{install_panic_dump, Event, EventLog, LogLevel, LOG_SCHEMA_VERSION};
pub use metrics::{
    HistogramSnapshot, Metric, MetricValue, MetricsReport, Registry, METRICS_SCHEMA_VERSION,
};
pub use progress::ProgressMeter;
pub use ring::EventRing;
pub use trace::{chrome_trace, write_chrome_trace};

// Re-exported so callers of the trace API need not depend on
// sfence-core directly.
pub use sfence_core::{PipeEvent, PipeKind, WalkKind};

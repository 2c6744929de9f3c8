//! # sfence-litmus
//!
//! The litmus subsystem of the Fence Scoping reproduction: it turns
//! the cycle simulator from a performance model into a *testable*
//! one.
//!
//! Three layers:
//!
//! - **Generation** lives in `sfence_workloads::litmus`: a
//!   deterministic, seeded generator of small concurrent programs
//!   over the `sfence-isa` IR — message passing, store buffering,
//!   IRIW, CAS loops and fenced producer/consumer shapes, each with
//!   class- and set-scoped fences placed so the scope either covers
//!   the racing accesses or deliberately does not. Scenarios register
//!   into the workload catalog as `litmus/<family>/<seed>`, so
//!   `Experiment` sweeps, the result cache, the dist runner and the
//!   result store run them unchanged.
//! - **SC reference checking** lives in `sfence_harness::enumerate`
//!   (it is the harness's `EnumerativeBackend`): it enumerates the
//!   interleavings of a compiled program (bounded, with a
//!   commuting-step partial-order reduction and state memoization)
//!   and computes the complete set of SC-allowed final states.
//! - **[`campaign`]**: the differential runner — every scenario
//!   executes (through the harness `Backend` trait, on the simulator
//!   by default or the functional engine with `--backend functional`)
//!   under traditional fences, scoped fences, forced FSB/FSS overflow
//!   and with fences removed; observed final states are judged
//!   against the enumerator's set. Covering scopes must stay SC
//!   (including under overflow, where fences degrade to full fences);
//!   non-covering scopes are expected to demonstrate relaxed outcomes
//!   on the simulator, and the campaign counts the demonstrations.
//!   [`run_matrix`] is the one implementation of those rows; the
//!   campaign's [`run_case`] and the fuzzer (`sfence-fuzz`) are
//!   adapters that pass it their own programs and expectations.
//!
//! The `sfence-litmus` binary drives bulk campaigns
//! (`--families all --seeds 50 --json`) with the same
//! exit-code conventions as `sfence-sweep`.

pub mod campaign;

pub use campaign::{
    all_families, base_config, cases, overflow_scope, parse_families, run_campaign, run_case,
    run_matrix, summarize, Campaign, Case, CaseVerdict, Expect, MatrixRow, RunVerdict, Summary,
};
pub use sfence_workloads::litmus::{
    build, parse_name, scenario_name, Family, LitmusSpec, FAMILIES, LITMUS_PREFIX,
};

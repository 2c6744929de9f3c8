//! Layer 1 of the harness: a [`Session`] builder wraps program
//! execution behind one typed surface, and a [`RunReport`] subsumes
//! the old `(RunSummary, Vec<i64>)` tuple — exit status, cycles,
//! per-core/mem/scope stats, the watchpoint log, retired traces and
//! the final memory image, all JSON-serializable.
//!
//! A session executes through a pluggable [`Backend`] (default: the
//! cycle-accurate simulator); [`Session::backend`] swaps in the fast
//! functional engine or the SC enumerator without changing anything
//! above the session.

use crate::backend::{Backend, BackendId, SimBackend};
use crate::json::{FromJson, Json};
use sfence_core::{PipeEvent, RetiredEvent, ScopeUnitStats};
use sfence_cpu::CoreStats;
use sfence_isa::{Addr, ClassId, FenceKind, Program};
use sfence_mem::CoreMemStats;
use sfence_sim::{FenceConfig, MachineConfig, RunExit, WatchEvent};
use sfence_workloads::BuiltWorkload;

type CheckFn<'a> = &'a (dyn Fn(&Program, &[i64]) -> Result<(), String> + Send + Sync);

/// Version tag stamped into every serialized [`RunReport`] (and, via
/// the cache and the result store, every persisted artifact). Bump it
/// whenever the JSON shape or the simulator's observable semantics
/// change incompatibly; readers reject rows from a different version
/// rather than silently mixing incomparable results.
///
/// v2: [`RunReport`] gained the per-core architectural register
/// snapshot (`regs`) — the final-state surface the litmus subsystem
/// observes.
///
/// v3: execution went multi-backend. Every report carries the
/// [`BackendId`] that produced it, `cycles` became optional (absent —
/// not fabricated — on engines without a clock), and enumerative
/// reports carry the SC-allowed state set (`sc_states`,
/// `sc_states_explored`). v2 artifacts are rejected by readers —
/// cache entries are silently skipped and re-run; stores and dist
/// rows error out. Regenerate goldens with `regen-golden`.
///
/// v4: scope-unit instrumentation for the fuzzer. Reports carry a
/// per-core scope-unit path-coverage bitmap (`scope_coverage`, sim
/// only) and `scope_stats` gained the per-core `fss_overflows`
/// counter; `ScopeConfig` gained the fault-injection knob
/// `skip_degrade_on_overflow` (part of the canonical config JSON, so
/// v3 cache keys are invalidated too). Regenerate goldens with
/// `regen-golden`.
pub const SCHEMA_VERSION: u64 = 4;

/// A configured run of one program on the simulated machine.
///
/// ```text
/// Session::for_workload(&w).config(cfg).fence(FenceConfig::SFENCE).run()
/// ```
pub struct Session<'a> {
    program: &'a Program,
    name: &'a str,
    check: Option<CheckFn<'a>>,
    cfg: MachineConfig,
    watch: Vec<Addr>,
    backend: &'a dyn Backend,
}

impl<'a> Session<'a> {
    /// A session over a bare compiled program.
    pub fn for_program(program: &'a Program) -> Self {
        Session {
            program,
            name: "program",
            check: None,
            cfg: MachineConfig::paper_default(),
            watch: Vec::new(),
            backend: &SimBackend,
        }
    }

    /// A session over a built workload: the run additionally asserts
    /// completion and validates the workload's invariants on the
    /// final memory (timing is meaningless on an incorrect run).
    pub fn for_workload(workload: &'a BuiltWorkload) -> Self {
        Session {
            program: &workload.program,
            name: &workload.name,
            check: Some(&workload.check),
            cfg: MachineConfig::paper_default(),
            watch: Vec::new(),
            backend: &SimBackend,
        }
    }

    /// Select the execution engine (default: the cycle-accurate
    /// [`SimBackend`]).
    pub fn backend(mut self, backend: &'a dyn Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Replace the whole machine configuration.
    pub fn config(mut self, cfg: MachineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the fence configuration (T, S, T+, S+).
    pub fn fence(mut self, fence: FenceConfig) -> Self {
        self.cfg.core.fence = fence;
        self
    }

    /// Limit the machine to `n` cores.
    pub fn cores(mut self, n: usize) -> Self {
        self.cfg.num_cores = n;
        self
    }

    /// Override the deadlock/livelock cycle guard.
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.cfg.max_cycles = cycles;
        self
    }

    /// Watch writes to an address; completed writes land in
    /// [`RunReport::watch_log`] in completion order.
    pub fn watch(mut self, addr: Addr) -> Self {
        self.watch.push(addr);
        self
    }

    /// Record per-core retired-event traces.
    pub fn trace(mut self) -> Self {
        self.cfg.core.trace = true;
        self
    }

    /// Record the microarchitectural pipeline event trace
    /// ([`RunReport::pipe`]; sim backend only, others report empty).
    pub fn pipe_trace(mut self) -> Self {
        self.cfg.core.pipe_trace = true;
        self
    }

    /// Execute and report. Workload sessions panic on cycle-limit
    /// exits and invariant violations, exactly like the old
    /// `BuiltWorkload::run`. The enumerative backend is exempt from
    /// both: it produces no single final memory to check, and an
    /// exhausted state budget is an ordinary reportable outcome
    /// (`exit = CycleLimit`), not a broken workload run.
    pub fn run(self) -> RunReport {
        let report = self.backend.run(self.program, &self.cfg, &self.watch);
        if let (Some(check), true) = (self.check, report.backend != BackendId::Enumerative) {
            assert_eq!(
                report.exit,
                RunExit::Completed,
                "{}: run hit the cycle limit",
                self.name
            );
            if let Err(e) = check(self.program, &report.mem) {
                panic!("{}: invariant violated: {e}", self.name);
            }
        }
        report
    }
}

/// Everything one run produced, behind one typed, serializable
/// surface — what every [`Backend`] returns. Fields an engine does
/// not model are empty/absent, never fabricated (see
/// [`crate::backend`] for the per-backend contract).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The engine that produced this report.
    pub backend: BackendId,
    pub exit: RunExit,
    /// Total execution time: the cycle at which the last core
    /// drained. `None` on engines without a clock (functional,
    /// enumerative) — absent, never fabricated.
    pub cycles: Option<u64>,
    /// Per-core stats. The functional backend fills only the
    /// architectural event counters (instructions, loads, stores, CAS,
    /// fences); all timing counters are zero there by construction.
    pub core_stats: Vec<CoreStats>,
    pub mem_stats: CoreMemStats,
    pub scope_stats: Vec<ScopeUnitStats>,
    /// Per-core scope-unit path coverage bitmaps
    /// (`sfence_core::coverage`) — sim only; the fuzzer's corpus key.
    pub scope_coverage: Vec<u32>,
    /// Writes to watched addresses, in completion order.
    pub watch_log: Vec<WatchEvent>,
    /// Per-core retired-event traces (empty unless tracing was on).
    pub traces: Vec<Vec<RetiredEvent>>,
    /// Merged pipeline event trace, sorted by `(cycle, core)` (empty
    /// unless [`Session::pipe_trace`] was set; sim backend only).
    ///
    /// **In-memory only**: deliberately excluded from
    /// [`RunReport::to_json`] — pipe events never enter caches,
    /// stores, dist rows or golden digests, so enabling tracing can
    /// never change a serialized artifact. `from_json` yields an
    /// empty trace.
    pub pipe: Vec<PipeEvent>,
    /// Final flat memory image (empty on the enumerative backend).
    pub mem: Vec<i64>,
    /// Per-core architectural register snapshot (retired state) at
    /// the end of the run.
    pub regs: Vec<Vec<i64>>,
    /// The complete SC-allowed final-state set (enumerative only).
    pub sc_states: Option<Vec<Vec<i64>>>,
    /// Distinct states the enumeration visited (enumerative only).
    pub sc_states_explored: Option<u64>,
}

impl RunReport {
    /// A report skeleton for engines without a cycle-accurate
    /// machine: everything empty/absent except identity and exit.
    pub(crate) fn untimed(backend: BackendId, exit: RunExit) -> RunReport {
        RunReport {
            backend,
            exit,
            cycles: None,
            core_stats: Vec::new(),
            mem_stats: CoreMemStats::default(),
            scope_stats: Vec::new(),
            scope_coverage: Vec::new(),
            watch_log: Vec::new(),
            traces: Vec::new(),
            pipe: Vec::new(),
            mem: Vec::new(),
            regs: Vec::new(),
            sc_states: None,
            sc_states_explored: None,
        }
    }

    pub fn completed(&self) -> bool {
        self.exit == RunExit::Completed
    }

    /// Cycle count of a cycle-accurate run; panics on reports from
    /// engines without a clock — call sites comparing timing are
    /// sim-only by construction.
    pub fn timed_cycles(&self) -> u64 {
        self.cycles.unwrap_or_else(|| {
            panic!(
                "report from the {} backend has no cycle count",
                self.backend
            )
        })
    }

    /// Read a word of the final memory.
    pub fn read(&self, addr: Addr) -> i64 {
        self.mem[addr]
    }

    /// Read a named global through the program's symbol table.
    pub fn read_var(&self, program: &Program, name: &str) -> i64 {
        self.mem[program.addr_of(name)]
    }

    /// The observed final state (values of the program's `obs_`
    /// globals, in address order) — what the litmus differential
    /// runner compares against the SC-allowed set.
    pub fn observed_state(&self, program: &Program) -> Vec<i64> {
        program.observed_state(&self.mem)
    }

    /// Average across active cores of the fraction of cycles stalled
    /// on fences (the paper's "Fence Stalls" bar component). Zero on
    /// engines without a clock.
    pub fn fence_stall_fraction(&self) -> f64 {
        sfence_sim::fence_stall_fraction(&self.core_stats, self.cycles.unwrap_or(0))
    }

    /// Aggregate fence stall cycles.
    pub fn total_fence_stalls(&self) -> u64 {
        self.core_stats.iter().map(|s| s.fence_stall_cycles).sum()
    }

    pub fn total_retired(&self) -> u64 {
        self.core_stats.iter().map(|s| s.instrs_retired).sum()
    }

    // -----------------------------------------------------------------
    // JSON

    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema_version", SCHEMA_VERSION)
            .field("backend", self.backend.name())
            .field("exit", exit_name(self.exit))
            .field("cycles", self.cycles)
            .field("core_stats", records(&self.core_stats))
            .field("mem_stats", &self.mem_stats)
            .field("scope_stats", records(&self.scope_stats))
            .field("scope_coverage", self.scope_coverage.as_slice())
            .field("watch_log", records(&self.watch_log))
            .field(
                "traces",
                Json::Arr(self.traces.iter().map(|t| records(t)).collect()),
            )
            .field("mem", self.mem.as_slice())
            .field("regs", words(&self.regs))
            .field("sc_states", self.sc_states.as_deref().map(words))
            .field("sc_states_explored", self.sc_states_explored)
    }

    pub fn from_json(json: &Json) -> Result<RunReport, String> {
        let version: u64 = json.req("schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} (supported: {SCHEMA_VERSION})"
            ));
        }
        Ok(RunReport {
            backend: BackendId::parse(json.req("backend")?)?,
            exit: exit_from_name(json.req("exit")?)?,
            cycles: json.opt("cycles")?,
            core_stats: json.req("core_stats")?,
            mem_stats: json.req("mem_stats")?,
            scope_stats: json.req("scope_stats")?,
            scope_coverage: json.req("scope_coverage")?,
            watch_log: json.req("watch_log")?,
            traces: json.req("traces")?,
            // Pipe traces are in-memory only (see the field docs).
            pipe: Vec::new(),
            mem: json.req("mem")?,
            regs: json.req("regs")?,
            sc_states: json.opt("sc_states")?,
            sc_states_explored: json.opt("sc_states_explored")?,
        })
    }
}

/// The serialized name of a run's exit status (reports and rows).
pub(crate) fn exit_name(exit: RunExit) -> &'static str {
    match exit {
        RunExit::Completed => "completed",
        RunExit::CycleLimit => "cycle_limit",
    }
}

fn exit_from_name(s: &str) -> Result<RunExit, String> {
    match s {
        "completed" => Ok(RunExit::Completed),
        "cycle_limit" => Ok(RunExit::CycleLimit),
        other => Err(format!("unknown exit {other:?}")),
    }
}

/// An array of records, each written through its `From<&T>` impl.
fn records<'a, T>(items: &'a [T]) -> Json
where
    &'a T: Into<Json>,
{
    Json::Arr(items.iter().map(Into::into).collect())
}

/// An array of word vectors (register files, SC states).
fn words(rows: &[Vec<i64>]) -> Json {
    Json::Arr(rows.iter().map(|r| Json::from(r.as_slice())).collect())
}

/// A flat stats record: written as an object with one field per
/// listed struct field, in list order, and read back field by field.
/// The struct literal makes a field left off the list a compile error.
macro_rules! json_record {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl From<&$ty> for Json {
            fn from(v: &$ty) -> Json {
                Json::obj()$(.field(stringify!($field), v.$field))*
            }
        }

        impl FromJson<'_> for $ty {
            fn from_json(json: &Json) -> Result<$ty, String> {
                Ok(Self { $($field: json.req(stringify!($field))?),* })
            }
        }
    };
}

json_record!(CoreStats {
    instrs_retired,
    instrs_issued,
    loads,
    stores,
    cas_ops,
    fences_retired,
    forwarded_loads,
    fence_stall_cycles,
    rob_full_stall_cycles,
    sb_full_stall_cycles,
    load_disambiguation_blocks,
    branches_resolved,
    mispredictions,
    speculation_replays,
    halted_at,
    finished_at,
});

json_record!(CoreMemStats {
    accesses,
    l1_hits,
    upgrades,
    l2_hits,
    remote_dirty,
    mem_misses,
    invalidations_received,
});

json_record!(ScopeUnitStats {
    fs_starts,
    fs_ends,
    scoped_mem_ops,
    flagged_mem_ops,
    degraded_fences,
    scoped_fences,
    mispredict_recoveries,
    fss_overflows,
});

json_record!(WatchEvent {
    cycle,
    core,
    addr,
    old,
    new,
});

fn fence_kind_str(kind: FenceKind) -> &'static str {
    match kind {
        FenceKind::Global => "global",
        FenceKind::Class => "class",
        FenceKind::Set => "set",
    }
}

fn fence_kind_from_str(s: &str) -> Result<FenceKind, String> {
    match s {
        "global" => Ok(FenceKind::Global),
        "class" => Ok(FenceKind::Class),
        "set" => Ok(FenceKind::Set),
        other => Err(format!("unknown fence kind {other:?}")),
    }
}

impl From<&RetiredEvent> for Json {
    fn from(ev: &RetiredEvent) -> Json {
        match *ev {
            RetiredEvent::FsStart(ClassId(cid)) => {
                Json::obj().field("ev", "fs_start").field("cid", cid)
            }
            RetiredEvent::FsEnd => Json::obj().field("ev", "fs_end"),
            RetiredEvent::Mem {
                id,
                flagged,
                issue,
                complete,
            } => Json::obj()
                .field("ev", "mem")
                .field("id", id)
                .field("flagged", flagged)
                .field("issue", issue)
                .field("complete", complete),
            RetiredEvent::Fence { kind, issue } => Json::obj()
                .field("ev", "fence")
                .field("kind", fence_kind_str(kind))
                .field("issue", issue),
        }
    }
}

impl FromJson<'_> for RetiredEvent {
    fn from_json(json: &Json) -> Result<RetiredEvent, String> {
        match json.req("ev")? {
            "fs_start" => Ok(RetiredEvent::FsStart(ClassId(json.req("cid")?))),
            "fs_end" => Ok(RetiredEvent::FsEnd),
            "mem" => Ok(RetiredEvent::Mem {
                id: json.req("id")?,
                flagged: json.req("flagged")?,
                issue: json.req("issue")?,
                complete: json.req("complete")?,
            }),
            "fence" => Ok(RetiredEvent::Fence {
                kind: fence_kind_from_str(json.req("kind")?)?,
                issue: json.req("issue")?,
            }),
            other => Err(format!("unknown retired event {other:?}")),
        }
    }
}

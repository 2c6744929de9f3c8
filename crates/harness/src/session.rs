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
use crate::json::Json;
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
/// cache entries are silently skipped and re-run; stores and shard
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

    /// Watch a named global.
    pub fn watch_var(self, name: &str) -> Self {
        let addr = self.program.addr_of(name);
        self.watch(addr)
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
    /// stores, shard rows or golden digests, so enabling tracing can
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
            .field("exit", exit_str(self.exit))
            .field("cycles", opt_u64_to_json(self.cycles))
            .field(
                "core_stats",
                Json::Arr(self.core_stats.iter().map(core_stats_to_json).collect()),
            )
            .field("mem_stats", mem_stats_to_json(&self.mem_stats))
            .field(
                "scope_stats",
                Json::Arr(self.scope_stats.iter().map(scope_stats_to_json).collect()),
            )
            .field(
                "scope_coverage",
                Json::Arr(
                    self.scope_coverage
                        .iter()
                        .map(|&b| Json::UInt(b as u64))
                        .collect(),
                ),
            )
            .field(
                "watch_log",
                Json::Arr(self.watch_log.iter().map(watch_event_to_json).collect()),
            )
            .field(
                "traces",
                Json::Arr(
                    self.traces
                        .iter()
                        .map(|t| Json::Arr(t.iter().map(retired_event_to_json).collect()))
                        .collect(),
                ),
            )
            .field(
                "mem",
                Json::Arr(self.mem.iter().map(|&w| Json::Int(w)).collect()),
            )
            .field(
                "regs",
                Json::Arr(
                    self.regs
                        .iter()
                        .map(|core| Json::Arr(core.iter().map(|&w| Json::Int(w)).collect()))
                        .collect(),
                ),
            )
            .field(
                "sc_states",
                match &self.sc_states {
                    None => Json::Null,
                    Some(states) => Json::Arr(
                        states
                            .iter()
                            .map(|s| Json::Arr(s.iter().map(|&w| Json::Int(w)).collect()))
                            .collect(),
                    ),
                },
            )
            .field(
                "sc_states_explored",
                opt_u64_to_json(self.sc_states_explored),
            )
    }

    pub fn from_json(json: &Json) -> Result<RunReport, String> {
        let version = get_u64(json, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} (supported: {SCHEMA_VERSION})"
            ));
        }
        Ok(RunReport {
            backend: BackendId::parse(get_str(json, "backend")?)?,
            exit: exit_from_str(get_str(json, "exit")?)?,
            cycles: get_opt_u64(json, "cycles")?,
            core_stats: get_arr(json, "core_stats")?
                .iter()
                .map(core_stats_from_json)
                .collect::<Result<_, _>>()?,
            mem_stats: mem_stats_from_json(json.get("mem_stats").ok_or("missing mem_stats")?)?,
            scope_stats: get_arr(json, "scope_stats")?
                .iter()
                .map(scope_stats_from_json)
                .collect::<Result<_, _>>()?,
            scope_coverage: get_arr(json, "scope_coverage")?
                .iter()
                .map(|b| {
                    b.as_u64()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| "bad coverage bitmap".to_string())
                })
                .collect::<Result<_, _>>()?,
            watch_log: get_arr(json, "watch_log")?
                .iter()
                .map(watch_event_from_json)
                .collect::<Result<_, _>>()?,
            traces: get_arr(json, "traces")?
                .iter()
                .map(|t| {
                    t.as_arr()
                        .ok_or_else(|| "trace is not an array".to_string())?
                        .iter()
                        .map(retired_event_from_json)
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<_, _>>()?,
            // Pipe traces are in-memory only (see the field docs).
            pipe: Vec::new(),
            mem: get_arr(json, "mem")?
                .iter()
                .map(|w| w.as_i64().ok_or_else(|| "bad memory word".to_string()))
                .collect::<Result<_, _>>()?,
            regs: get_arr(json, "regs")?
                .iter()
                .map(|core| {
                    core.as_arr()
                        .ok_or_else(|| "core regs is not an array".to_string())?
                        .iter()
                        .map(|w| w.as_i64().ok_or_else(|| "bad register word".to_string()))
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<_, _>>()?,
            sc_states: match json.get("sc_states") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_arr()
                        .ok_or("sc_states is not an array")?
                        .iter()
                        .map(|s| {
                            s.as_arr()
                                .ok_or_else(|| "sc state is not an array".to_string())?
                                .iter()
                                .map(|w| w.as_i64().ok_or_else(|| "bad sc state word".to_string()))
                                .collect::<Result<Vec<_>, _>>()
                        })
                        .collect::<Result<_, _>>()?,
                ),
            },
            sc_states_explored: get_opt_u64(json, "sc_states_explored")?,
        })
    }
}

fn exit_str(exit: RunExit) -> &'static str {
    match exit {
        RunExit::Completed => "completed",
        RunExit::CycleLimit => "cycle_limit",
    }
}

fn exit_from_str(s: &str) -> Result<RunExit, String> {
    match s {
        "completed" => Ok(RunExit::Completed),
        "cycle_limit" => Ok(RunExit::CycleLimit),
        other => Err(format!("unknown exit {other:?}")),
    }
}

fn get_str<'j>(json: &'j Json, key: &str) -> Result<&'j str, String> {
    json.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn get_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field {key:?}"))
}

fn get_opt_u64(json: &Json, key: &str) -> Result<Option<u64>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("bad optional u64 field {key:?}")),
    }
}

fn get_bool(json: &Json, key: &str) -> Result<bool, String> {
    json.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing bool field {key:?}"))
}

fn get_arr<'j>(json: &'j Json, key: &str) -> Result<&'j [Json], String> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field {key:?}"))
}

fn opt_u64_to_json(v: Option<u64>) -> Json {
    match v {
        Some(v) => Json::UInt(v),
        None => Json::Null,
    }
}

fn core_stats_to_json(s: &CoreStats) -> Json {
    Json::obj()
        .field("instrs_retired", s.instrs_retired)
        .field("instrs_issued", s.instrs_issued)
        .field("loads", s.loads)
        .field("stores", s.stores)
        .field("cas_ops", s.cas_ops)
        .field("fences_retired", s.fences_retired)
        .field("forwarded_loads", s.forwarded_loads)
        .field("fence_stall_cycles", s.fence_stall_cycles)
        .field("rob_full_stall_cycles", s.rob_full_stall_cycles)
        .field("sb_full_stall_cycles", s.sb_full_stall_cycles)
        .field("load_disambiguation_blocks", s.load_disambiguation_blocks)
        .field("branches_resolved", s.branches_resolved)
        .field("mispredictions", s.mispredictions)
        .field("speculation_replays", s.speculation_replays)
        .field("halted_at", opt_u64_to_json(s.halted_at))
        .field("finished_at", opt_u64_to_json(s.finished_at))
}

fn core_stats_from_json(json: &Json) -> Result<CoreStats, String> {
    Ok(CoreStats {
        instrs_retired: get_u64(json, "instrs_retired")?,
        instrs_issued: get_u64(json, "instrs_issued")?,
        loads: get_u64(json, "loads")?,
        stores: get_u64(json, "stores")?,
        cas_ops: get_u64(json, "cas_ops")?,
        fences_retired: get_u64(json, "fences_retired")?,
        forwarded_loads: get_u64(json, "forwarded_loads")?,
        fence_stall_cycles: get_u64(json, "fence_stall_cycles")?,
        rob_full_stall_cycles: get_u64(json, "rob_full_stall_cycles")?,
        sb_full_stall_cycles: get_u64(json, "sb_full_stall_cycles")?,
        load_disambiguation_blocks: get_u64(json, "load_disambiguation_blocks")?,
        branches_resolved: get_u64(json, "branches_resolved")?,
        mispredictions: get_u64(json, "mispredictions")?,
        speculation_replays: get_u64(json, "speculation_replays")?,
        halted_at: get_opt_u64(json, "halted_at")?,
        finished_at: get_opt_u64(json, "finished_at")?,
    })
}

fn mem_stats_to_json(s: &CoreMemStats) -> Json {
    Json::obj()
        .field("accesses", s.accesses)
        .field("l1_hits", s.l1_hits)
        .field("upgrades", s.upgrades)
        .field("l2_hits", s.l2_hits)
        .field("remote_dirty", s.remote_dirty)
        .field("mem_misses", s.mem_misses)
        .field("invalidations_received", s.invalidations_received)
}

fn mem_stats_from_json(json: &Json) -> Result<CoreMemStats, String> {
    Ok(CoreMemStats {
        accesses: get_u64(json, "accesses")?,
        l1_hits: get_u64(json, "l1_hits")?,
        upgrades: get_u64(json, "upgrades")?,
        l2_hits: get_u64(json, "l2_hits")?,
        remote_dirty: get_u64(json, "remote_dirty")?,
        mem_misses: get_u64(json, "mem_misses")?,
        invalidations_received: get_u64(json, "invalidations_received")?,
    })
}

fn scope_stats_to_json(s: &ScopeUnitStats) -> Json {
    Json::obj()
        .field("fs_starts", s.fs_starts)
        .field("fs_ends", s.fs_ends)
        .field("scoped_mem_ops", s.scoped_mem_ops)
        .field("flagged_mem_ops", s.flagged_mem_ops)
        .field("degraded_fences", s.degraded_fences)
        .field("scoped_fences", s.scoped_fences)
        .field("mispredict_recoveries", s.mispredict_recoveries)
        .field("fss_overflows", s.fss_overflows)
}

fn scope_stats_from_json(json: &Json) -> Result<ScopeUnitStats, String> {
    Ok(ScopeUnitStats {
        fs_starts: get_u64(json, "fs_starts")?,
        fs_ends: get_u64(json, "fs_ends")?,
        scoped_mem_ops: get_u64(json, "scoped_mem_ops")?,
        flagged_mem_ops: get_u64(json, "flagged_mem_ops")?,
        degraded_fences: get_u64(json, "degraded_fences")?,
        scoped_fences: get_u64(json, "scoped_fences")?,
        mispredict_recoveries: get_u64(json, "mispredict_recoveries")?,
        fss_overflows: get_u64(json, "fss_overflows")?,
    })
}

fn watch_event_to_json(ev: &WatchEvent) -> Json {
    Json::obj()
        .field("cycle", ev.cycle)
        .field("core", ev.core)
        .field("addr", ev.addr)
        .field("old", ev.old)
        .field("new", ev.new)
}

fn watch_event_from_json(json: &Json) -> Result<WatchEvent, String> {
    Ok(WatchEvent {
        cycle: get_u64(json, "cycle")?,
        core: get_u64(json, "core")? as usize,
        addr: get_u64(json, "addr")? as usize,
        old: json
            .get("old")
            .and_then(Json::as_i64)
            .ok_or("missing old")?,
        new: json
            .get("new")
            .and_then(Json::as_i64)
            .ok_or("missing new")?,
    })
}

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

fn retired_event_to_json(ev: &RetiredEvent) -> Json {
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

fn retired_event_from_json(json: &Json) -> Result<RetiredEvent, String> {
    match get_str(json, "ev")? {
        "fs_start" => Ok(RetiredEvent::FsStart(ClassId(get_u64(json, "cid")? as u32))),
        "fs_end" => Ok(RetiredEvent::FsEnd),
        "mem" => Ok(RetiredEvent::Mem {
            id: get_u64(json, "id")?,
            flagged: get_bool(json, "flagged")?,
            issue: get_u64(json, "issue")?,
            complete: get_u64(json, "complete")?,
        }),
        "fence" => Ok(RetiredEvent::Fence {
            kind: fence_kind_from_str(get_str(json, "kind")?)?,
            issue: get_u64(json, "issue")?,
        }),
        other => Err(format!("unknown retired event {other:?}")),
    }
}

/// Speedup of S-Fence over traditional fences for a workload under a
/// base machine config: the paper's headline metric.
pub fn speedup_s_over_t(w: &BuiltWorkload, base: &MachineConfig) -> f64 {
    let t = Session::for_workload(w)
        .config(base.clone())
        .fence(FenceConfig::TRADITIONAL)
        .run();
    let s = Session::for_workload(w)
        .config(base.clone())
        .fence(FenceConfig::SFENCE)
        .run();
    t.timed_cycles() as f64 / s.timed_cycles() as f64
}

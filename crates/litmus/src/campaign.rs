//! The differential campaign: run every generated scenario — through
//! the harness `Backend` trait, on the cycle simulator by default —
//! under traditional fences, scoped fences, forced FSB/FSS overflow
//! and with fences removed, and judge each observed final state
//! against the allowed set the enumerative backend computes.
//!
//! A campaign on the functional backend checks the SC interpreter
//! against the enumerator (every observed state must be allowed) and
//! exercises the whole pipeline without the timing model; relaxed
//! outcomes can only be *demonstrated* on the simulator, so that
//! expectation is waived off-sim ([`Campaign::can_demonstrate_relaxation`]).
//!
//! Expectations encode the paper's safety argument (§IV, §VI-E):
//!
//! - **`T`** (traditional fences, scopes ignored): every family —
//!   covering or not — must observe an SC-allowed state, because the
//!   generated fence placement is a correct delay-set placement once
//!   scopes are ignored.
//! - **`S`** (scoped fences): covering families must stay SC;
//!   non-covering families are *expected* to demonstrate relaxed
//!   outcomes — that is the defining property of scope, and the
//!   campaign counts these demonstrations.
//! - **`S-overflow`** (scoped fences on deliberately tiny scope
//!   hardware): scopes overflow and fences degrade to full fences, so
//!   covering families must stay SC — correctness never depends on
//!   capacity.
//! - **`S-nofence`** (fences stripped at generation): no expectation;
//!   relaxed outcomes are counted as demonstrations.
//!
//! Results serialize to deterministic JSON: case order, run order and
//! every value are functions of `(families, seeds)` alone, so output
//! is byte-identical across worker-thread counts, and shard outputs
//! merge into exactly the unsharded document.

use sfence_harness::{
    enumerate_sc, run_indexed, BackendId, CheckerConfig, Json, Session, SCHEMA_VERSION,
};
use sfence_sim::{FenceConfig, MachineConfig, RunExit};
use sfence_workloads::litmus::{build, Family, LitmusSpec, FAMILIES};

/// One scheduled scenario of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub family: Family,
    pub seed: u64,
}

/// The deterministic case list: family-major (in [`FAMILIES`] order),
/// then seed. Shards partition *this* list by index.
///
/// The regression family is indexed, not seeded: every registered
/// [`sfence_workloads::synth::REGRESSIONS`] entry runs exactly once
/// regardless of `--seeds` — minimized fuzzer findings are replayed
/// in full by every campaign that includes the family.
pub fn cases(families: &[Family], seeds: u64) -> Vec<Case> {
    let mut out = Vec::with_capacity(families.len() * seeds as usize);
    for &family in families {
        let count = match family {
            Family::Regression => sfence_workloads::synth::REGRESSIONS.len() as u64,
            _ => seeds,
        };
        for seed in 0..count {
            out.push(Case { family, seed });
        }
    }
    out
}

/// Every campaign family in canonical order: the seeded [`FAMILIES`]
/// followed by the fuzzer-regression replays.
pub fn all_families() -> Vec<Family> {
    let mut all = FAMILIES.to_vec();
    all.push(Family::Regression);
    all
}

/// Parse a `--families` argument: `all` or a comma-separated list of
/// family names, always reordered into the canonical [`all_families`]
/// order so the case list never depends on how the flag was spelled.
pub fn parse_families(arg: &str) -> Result<Vec<Family>, String> {
    if arg == "all" {
        return Ok(all_families());
    }
    let mut picked = Vec::new();
    for name in arg.split(',') {
        let family = Family::from_name(name.trim())
            .ok_or_else(|| format!("unknown litmus family {name:?} (try --list-families)"))?;
        if !picked.contains(&family) {
            picked.push(family);
        }
    }
    let mut ordered: Vec<Family> = all_families()
        .into_iter()
        .filter(|f| picked.contains(f))
        .collect();
    if ordered.is_empty() {
        return Err("--families selected nothing".into());
    }
    ordered.shrink_to_fit();
    Ok(ordered)
}

/// One execution of a case on the campaign's execution backend.
#[derive(Debug, Clone, PartialEq)]
pub struct RunVerdict {
    /// Configuration label: `T`, `S`, `S-overflow` or `S-nofence`.
    pub config: String,
    /// Observed final state (the program's `obs_` globals).
    pub observed: Vec<i64>,
    /// Was the observed state in the SC-allowed set?
    pub sc_allowed: bool,
    /// Does the campaign require `sc_allowed` for this run?
    pub expect_sc: bool,
    /// Degraded (scope-overflowed) fences across all cores — proof
    /// the degrade path actually ran in the overflow config. Zero on
    /// backends without scope hardware (functional).
    pub degraded_fences: u64,
    /// Per-core attribution of the aggregate above: which core's
    /// fences degraded. Empty off-sim.
    pub degraded_by_core: Vec<u64>,
    /// Per-core FSS pushes that overflowed capacity (entries into
    /// degraded mode). Empty off-sim.
    pub fss_overflows_by_core: Vec<u64>,
    /// Per-core branch-misprediction scope recoveries (FSS′ shadow
    /// restores or checkpoint squashes). Empty off-sim.
    pub recoveries_by_core: Vec<u64>,
    /// Execution time; absent on backends without a clock.
    pub cycles: Option<u64>,
}

/// A fully-judged case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseVerdict {
    pub family: Family,
    pub seed: u64,
    /// The SC-allowed final states (sorted — the checker returns a
    /// set).
    pub sc_states: Vec<Vec<i64>>,
    pub sc_complete: bool,
    pub states_explored: u64,
    pub runs: Vec<RunVerdict>,
}

/// The tiny scope hardware of the forced-overflow configuration: one
/// FSS entry (any nested scope overflows), the minimum FSB (one class
/// column plus the reserved set column) and a single mapping row.
pub fn overflow_scope() -> sfence_core::ScopeConfig {
    sfence_core::ScopeConfig {
        fsb_entries: 2,
        fss_entries: 1,
        mapping_entries: 1,
        ..Default::default()
    }
}

/// Run one case end to end: generate, enumerate SC outcomes (the
/// enumerative engine's fallible entry point), run the differential
/// matrix on `backend` (sim by default; functional for
/// correctness-only campaigns), judge.
pub fn run_case(
    case: Case,
    checker: &CheckerConfig,
    backend: BackendId,
) -> Result<CaseVerdict, String> {
    if backend == BackendId::Enumerative {
        // The enumerator is the campaign's oracle, not an execution
        // engine: it reports a state *set*, never the single final
        // memory the matrix observes.
        return Err(
            "campaigns execute on sim or functional; the enumerative backend \
                    is already the oracle every case is judged against"
                .into(),
        );
    }
    let fenced = build(&LitmusSpec::new(case.family, case.seed));
    let stripped = build(&LitmusSpec::new(case.family, case.seed).stripped());

    // The SC-allowed set is a property of the *program shape*, not of
    // its fences (fences are no-ops under SC), so the fenced variant's
    // enumeration also judges the stripped runs: stripping only
    // removes fence/scope-marker instructions, which never touch
    // memory or registers.
    //
    // The oracle is the harness's enumerative engine; calling its
    // fallible entry point directly (rather than `Backend::run`,
    // which panics on malformed programs) keeps interpreter errors on
    // the campaign's clean `Err` → exit-1 path.
    let outcomes = enumerate_sc(&fenced.program, checker)
        .map_err(|e| format!("{}: checker: {e}", fenced.name))?;
    let states_explored = outcomes.states_explored;
    if !outcomes.complete {
        return Err(format!(
            "{}: SC enumeration incomplete after {} states — raise the checker bounds",
            fenced.name, states_explored
        ));
    }
    let exec = backend.instantiate();
    let covering = case.family.covering();
    let mut runs = Vec::with_capacity(4);
    let mut matrix: Vec<(&str, &sfence_workloads::BuiltWorkload, MachineConfig, bool)> = Vec::new();
    matrix.push((
        "T",
        &fenced,
        base_config(&fenced).with_fence(FenceConfig::TRADITIONAL),
        true,
    ));
    matrix.push((
        "S",
        &fenced,
        base_config(&fenced).with_fence(FenceConfig::SFENCE),
        covering,
    ));
    let mut overflow_cfg = base_config(&fenced).with_fence(FenceConfig::SFENCE);
    overflow_cfg.core.scope = overflow_scope();
    matrix.push(("S-overflow", &fenced, overflow_cfg, covering));
    matrix.push((
        "S-nofence",
        &stripped,
        base_config(&stripped).with_fence(FenceConfig::SFENCE),
        false,
    ));

    for (label, workload, cfg, expect_sc) in matrix {
        // An engine that cannot exhibit relaxation (the SC
        // interpreter) must stay SC-allowed in *every* configuration,
        // fences or not: a non-SC state there is an interpreter bug,
        // not a demonstration. Only the weak simulator earns the
        // relaxed-outcome allowances.
        let expect_sc = expect_sc || !backend.timed();
        let report = Session::for_program(&workload.program)
            .config(cfg)
            .backend(exec.as_ref())
            .run();
        if report.exit != RunExit::Completed {
            return Err(format!(
                "{}: {label}: run hit the cycle limit",
                workload.name
            ));
        }
        let observed = report.observed_state(&workload.program);
        runs.push(RunVerdict {
            config: label.to_string(),
            sc_allowed: outcomes.allows(&observed),
            observed,
            expect_sc,
            degraded_fences: report.scope_stats.iter().map(|s| s.degraded_fences).sum(),
            degraded_by_core: report
                .scope_stats
                .iter()
                .map(|s| s.degraded_fences)
                .collect(),
            fss_overflows_by_core: report.scope_stats.iter().map(|s| s.fss_overflows).collect(),
            recoveries_by_core: report
                .scope_stats
                .iter()
                .map(|s| s.mispredict_recoveries)
                .collect(),
            cycles: report.cycles,
        });
    }

    Ok(CaseVerdict {
        family: case.family,
        seed: case.seed,
        sc_states: outcomes.states.into_iter().collect(),
        sc_complete: true,
        states_explored,
        runs,
    })
}

fn base_config(w: &sfence_workloads::BuiltWorkload) -> MachineConfig {
    let mut cfg = MachineConfig::paper_default();
    cfg.num_cores = w.program.num_threads();
    cfg.max_cycles = 50_000_000;
    cfg
}

/// Aggregate accounting of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    pub cases: usize,
    pub runs: usize,
    /// Runs that were required to be SC-allowed but were not. Must be
    /// zero: scoped fences equal full fences within their scope, and
    /// degrade to full fences on overflow.
    pub covering_violations: usize,
    /// Relaxed outcomes observed where permitted (non-covering scopes
    /// on S, and fence-removed runs) — the demonstrations that the
    /// scope boundary is real.
    pub demonstrated_violations: usize,
    /// Demonstrations on non-covering *scoped* configs specifically
    /// (excluding fence-removed runs).
    pub noncovering_scope_violations: usize,
    /// Total degraded fences across all `S-overflow` runs — nonzero
    /// proves the degrade path was exercised, not vacuously green.
    pub overflow_degraded_fences: u64,
}

pub fn summarize(cases: &[CaseVerdict]) -> Summary {
    let mut s = Summary {
        cases: cases.len(),
        ..Default::default()
    };
    for case in cases {
        for run in &case.runs {
            s.runs += 1;
            if run.expect_sc && !run.sc_allowed {
                s.covering_violations += 1;
            }
            if !run.expect_sc && !run.sc_allowed {
                s.demonstrated_violations += 1;
                if run.config != "S-nofence" {
                    s.noncovering_scope_violations += 1;
                }
            }
            if run.config == "S-overflow" {
                s.overflow_degraded_fences += run.degraded_fences;
            }
        }
    }
    s
}

/// A complete campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    pub families: Vec<Family>,
    pub seeds: u64,
    /// The engine the differential matrix ran on. Relaxed-outcome
    /// demonstrations are only expected of the weakly-ordered
    /// simulator: a functional (SC) campaign can never demonstrate
    /// them, and callers must not require it to.
    pub backend: BackendId,
    pub cases: Vec<CaseVerdict>,
}

impl Campaign {
    pub fn summary(&self) -> Summary {
        summarize(&self.cases)
    }

    /// Can this campaign's engine exhibit relaxed (non-SC) outcomes
    /// at all? Only the cycle-accurate simulator models the weak
    /// memory system.
    pub fn can_demonstrate_relaxation(&self) -> bool {
        self.backend.timed()
    }

    /// The machine-readable artifact `sfence-litmus --json` emits.
    /// Deterministic: byte-identical across thread counts and shard
    /// merges for the same `(families, seeds)`.
    pub fn to_json(&self) -> Json {
        let s = self.summary();
        Json::obj()
            .field("schema_version", SCHEMA_VERSION)
            .field(
                "families",
                Json::Arr(self.families.iter().map(|f| Json::from(f.name())).collect()),
            )
            .field("seeds", self.seeds)
            .field("backend", self.backend.name())
            .field(
                "cases",
                Json::Arr(self.cases.iter().map(case_to_json).collect()),
            )
            .field(
                "summary",
                Json::obj()
                    .field("cases", s.cases)
                    .field("runs", s.runs)
                    .field("covering_violations", s.covering_violations)
                    .field("demonstrated_violations", s.demonstrated_violations)
                    .field(
                        "noncovering_scope_violations",
                        s.noncovering_scope_violations,
                    )
                    .field("overflow_degraded_fences", s.overflow_degraded_fences),
            )
    }

    /// Plain-text summary table.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        out += &format!(
            "litmus campaign: {} families x {} seeds = {} cases ({} backend)\n",
            self.families.len(),
            self.seeds,
            self.cases.len(),
            self.backend
        );
        out += &format!(
            "{:<16} {:>4} {:>10} {:>3}  {}\n",
            "family", "seed", "sc-states", "ok", "verdicts (config:observed state)"
        );
        for case in &self.cases {
            let ok = case.runs.iter().all(|r| r.sc_allowed || !r.expect_sc);
            let verdicts: Vec<String> = case
                .runs
                .iter()
                .map(|r| {
                    format!(
                        "{}:{:?}{}",
                        r.config,
                        r.observed,
                        if r.sc_allowed { "" } else { "!" }
                    )
                })
                .collect();
            out += &format!(
                "{:<16} {:>4} {:>10} {:>3}  {}\n",
                case.family.name(),
                case.seed,
                case.sc_states.len(),
                if ok { "yes" } else { "NO" },
                verdicts.join(" ")
            );
        }
        out += &self.summary_line();
        out += "\n";
        out
    }

    /// The one-line human summary (last line of [`Self::to_ascii`];
    /// `--json` mode prints it to stderr so logs stay readable
    /// without a second campaign run).
    pub fn summary_line(&self) -> String {
        let s = self.summary();
        format!(
            "summary: {} runs, {} covering violations, {} demonstrated ({} on non-covering scopes), {} degraded fences under overflow",
            s.runs,
            s.covering_violations,
            s.demonstrated_violations,
            s.noncovering_scope_violations,
            s.overflow_degraded_fences
        )
    }
}

/// Run a campaign over `threads` workers on the given execution
/// backend. Case order (and therefore every byte of the output) is
/// independent of the thread count.
pub fn run_campaign(
    families: &[Family],
    seeds: u64,
    threads: usize,
    checker: &CheckerConfig,
    backend: BackendId,
) -> Result<Campaign, String> {
    let list = cases(families, seeds);
    let verdicts = run_indexed(list.len(), threads, |i| run_case(list[i], checker, backend));
    let cases = verdicts.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Campaign {
        families: families.to_vec(),
        seeds,
        backend,
        cases,
    })
}

// ---------------------------------------------------------------------
// JSON (de)serialization of cases — the shard interchange format.

fn i64_arr(v: &[i64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Int(x)).collect())
}

fn u64_arr(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::UInt(x)).collect())
}

pub fn case_to_json(case: &CaseVerdict) -> Json {
    Json::obj()
        .field("family", case.family.name())
        .field("seed", case.seed)
        .field(
            "sc_states",
            Json::Arr(case.sc_states.iter().map(|s| i64_arr(s)).collect()),
        )
        .field("sc_complete", case.sc_complete)
        .field("states_explored", case.states_explored)
        .field(
            "runs",
            Json::Arr(
                case.runs
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .field("config", r.config.as_str())
                            .field("observed", i64_arr(&r.observed))
                            .field("sc_allowed", r.sc_allowed)
                            .field("expect_sc", r.expect_sc)
                            .field("degraded_fences", r.degraded_fences)
                            .field("degraded_by_core", u64_arr(&r.degraded_by_core))
                            .field("fss_overflows_by_core", u64_arr(&r.fss_overflows_by_core))
                            .field("recoveries_by_core", u64_arr(&r.recoveries_by_core))
                            .field(
                                "cycles",
                                match r.cycles {
                                    Some(c) => Json::UInt(c),
                                    None => Json::Null,
                                },
                            )
                    })
                    .collect(),
            ),
        )
}

fn get_i64_arr(json: &Json, key: &str) -> Result<Vec<i64>, String> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field {key:?}"))?
        .iter()
        .map(|w| w.as_i64().ok_or_else(|| format!("bad i64 in {key:?}")))
        .collect()
}

fn get_u64_arr(json: &Json, key: &str) -> Result<Vec<u64>, String> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field {key:?}"))?
        .iter()
        .map(|w| w.as_u64().ok_or_else(|| format!("bad u64 in {key:?}")))
        .collect()
}

pub fn case_from_json(json: &Json) -> Result<CaseVerdict, String> {
    let family_name = json
        .get("family")
        .and_then(Json::as_str)
        .ok_or("missing family")?;
    let family =
        Family::from_name(family_name).ok_or_else(|| format!("unknown family {family_name:?}"))?;
    let runs = json
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing runs")?
        .iter()
        .map(|r| {
            Ok(RunVerdict {
                config: r
                    .get("config")
                    .and_then(Json::as_str)
                    .ok_or("missing config")?
                    .to_string(),
                observed: get_i64_arr(r, "observed")?,
                sc_allowed: r
                    .get("sc_allowed")
                    .and_then(Json::as_bool)
                    .ok_or("missing sc_allowed")?,
                expect_sc: r
                    .get("expect_sc")
                    .and_then(Json::as_bool)
                    .ok_or("missing expect_sc")?,
                degraded_fences: r
                    .get("degraded_fences")
                    .and_then(Json::as_u64)
                    .ok_or("missing degraded_fences")?,
                degraded_by_core: get_u64_arr(r, "degraded_by_core")?,
                fss_overflows_by_core: get_u64_arr(r, "fss_overflows_by_core")?,
                recoveries_by_core: get_u64_arr(r, "recoveries_by_core")?,
                cycles: match r.get("cycles") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_u64().ok_or("bad cycles")?),
                },
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(CaseVerdict {
        family,
        seed: json
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("missing seed")?,
        sc_states: json
            .get("sc_states")
            .and_then(Json::as_arr)
            .ok_or("missing sc_states")?
            .iter()
            .map(|s| {
                s.as_arr()
                    .ok_or_else(|| "bad sc state".to_string())?
                    .iter()
                    .map(|w| w.as_i64().ok_or_else(|| "bad sc state word".to_string()))
                    .collect()
            })
            .collect::<Result<Vec<_>, String>>()?,
        sc_complete: json
            .get("sc_complete")
            .and_then(Json::as_bool)
            .ok_or("missing sc_complete")?,
        states_explored: json
            .get("states_explored")
            .and_then(Json::as_u64)
            .ok_or("missing states_explored")?,
        runs,
    })
}

//! # sfence-fuzz
//!
//! Coverage-guided differential fuzzer for the S-Fence memory model.
//!
//! The litmus campaign replays *fixed* scenario families; the fuzzer
//! searches the program space around them. Each candidate is a
//! [`SynthSpec`] (the grammar in `sfence_workloads::synth`), run
//! through the campaign's differential matrix, [`run_matrix`] — `T`
//! (traditional fences), `S` (scoped), `S-overflow` (scoped on tiny
//! scope hardware) and `S-nofence` (stripped) — and judged against
//! the SC enumerator, plus a functional-interpreter cross-check row
//! on sim campaigns. Expectations are *per candidate*, computed by
//! the grammar's static covering analysis:
//!
//! - `T` must stay SC iff every racy pair has *some* fence between
//!   it ([`SynthSpec::fenced_traditional`] — scopes are ignored);
//! - `S` and `S-overflow` must stay SC iff the fences *cover*
//!   ([`SynthSpec::covering`]);
//! - `S-nofence` carries no expectation;
//! - the functional (SC) interpreter must always land in the
//!   enumerated set.
//!
//! Any violated expectation is a **divergence**: on correct hardware
//! the fuzzer must find none, and under the fault-injection knob
//! (`ScopeConfig::skip_degrade_on_overflow`, `--inject-bug`) it must
//! find one and [`minimize`] it into a regression spec small enough
//! to archive in `sfence_workloads::synth::REGRESSIONS`.
//!
//! The corpus is keyed by *scope-unit path coverage*: each sim run
//! reports a per-core event bitmap (`sfence_core::coverage` — FSB
//! allocation/eviction, mapping hit/fallback/full, FSS
//! push/pop/overflow, recovery flavours, stall sites); a candidate
//! that lights a bit no earlier candidate lit (per matrix row) joins
//! the corpus and seeds further mutation.
//!
//! Everything is deterministic: candidate `i` of a run is a pure
//! function of `(--seed, i, corpus state)`, batches have a fixed
//! width, results merge in index order — so reports are
//! byte-identical across `--threads`, like every artifact in this
//! repository.

use sfence_harness::{
    enumerate_sc, run_indexed, BackendId, CheckerConfig, FunctionalBackend, Json, Session,
    SCHEMA_VERSION,
};
use sfence_litmus::{base_config, run_matrix, Expect};
use sfence_sim::RunExit;
use sfence_workloads::support::{compile, Prng};
use sfence_workloads::synth::{self, mutate, seed_corpus, SynthSpec};

/// The matrix row labels, in run order. `functional` only appears on
/// sim campaigns (it is the cross-check engine, not a config).
pub const ROWS: [&str; 5] = ["T", "S", "S-overflow", "S-nofence", "functional"];

/// Candidates per scheduling batch. Fixed: the corpus snapshot a
/// candidate mutates from depends only on how many *batches* came
/// before it, so this must never vary with `--threads`.
const BATCH: usize = 16;

/// A fuzzing run's knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    pub seed: u64,
    /// Candidates to evaluate (the whole budget runs unless a
    /// divergence stops the run at its batch boundary).
    pub budget: usize,
    /// Execution engine for the matrix: sim (full differential power)
    /// or functional (SC-only cross-check).
    pub backend: BackendId,
    /// Enable the scope unit's fault-injection knob on the scoped
    /// rows: degraded fences wait on nothing instead of everything.
    pub inject_bug: bool,
    /// Delta-minimize each divergence before reporting.
    pub minimize: bool,
    pub checker: CheckerConfig,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            budget: 256,
            backend: BackendId::Sim,
            inject_bug: false,
            minimize: true,
            checker: CheckerConfig::default(),
        }
    }
}

/// One matrix row of one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct RowOutcome {
    pub config: &'static str,
    /// Union over cores of the scope-unit path-coverage bitmap
    /// ([`sfence_core::coverage`]); zero off-sim.
    pub coverage: u32,
    pub observed: Vec<i64>,
    pub sc_allowed: bool,
    pub expect_sc: bool,
}

/// A fully-evaluated candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// SC enumeration blew the checker bounds — no verdict, the
    /// fuzzer moves on.
    pub skipped: bool,
    pub rows: Vec<RowOutcome>,
}

impl CaseOutcome {
    /// Rows that violated their expectation.
    pub fn diverging_rows(&self) -> impl Iterator<Item = &RowOutcome> {
        self.rows.iter().filter(|r| r.expect_sc && !r.sc_allowed)
    }
}

/// A reported expectation violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Registry name of the candidate (`fuzz/<encoded>`).
    pub name: String,
    pub config: String,
    pub observed: Vec<i64>,
    /// Registry name of the delta-minimized reproducer, when
    /// minimization ran.
    pub minimized: Option<String>,
}

/// Run one candidate through [`run_matrix`] and judge every row, with
/// grammar-derived per-candidate expectations. A candidate whose SC
/// enumeration hits the checker bounds is skipped.
pub fn evaluate(spec: &SynthSpec, cfg: &FuzzConfig) -> Result<CaseOutcome, String> {
    let name = spec.name();
    let fenced = compile(&synth::ir(spec, false));
    let stripped = compile(&synth::ir(spec, true));
    let outcomes =
        enumerate_sc(&fenced, &cfg.checker).map_err(|e| format!("{name}: checker: {e}"))?;
    if !outcomes.complete {
        return Ok(CaseOutcome {
            skipped: true,
            rows: Vec::new(),
        });
    }
    let expect = Expect {
        traditional: spec.fenced_traditional(),
        scoped: spec.covering(),
    };
    let matrix = run_matrix(
        &name,
        &fenced,
        &stripped,
        &outcomes,
        expect,
        cfg.backend,
        cfg.inject_bug,
    )?;
    let mut rows: Vec<RowOutcome> = matrix
        .into_iter()
        .map(|row| RowOutcome {
            config: row.label,
            coverage: row.report.scope_coverage.iter().fold(0, |a, &b| a | b),
            observed: row.observed,
            sc_allowed: row.sc_allowed,
            expect_sc: row.expect_sc,
        })
        .collect();

    if cfg.backend.timed() {
        // Functional cross-check: the deterministic SC interpreter
        // must agree with the enumerator on every candidate (and,
        // when the SC set is a singleton, with the sim rows — which
        // membership already forces).
        let report = Session::for_program(&fenced)
            .config(base_config(fenced.num_threads()))
            .backend(&FunctionalBackend)
            .run();
        if report.exit != RunExit::Completed {
            return Err(format!("{name}: functional: run hit the cycle limit"));
        }
        let observed = report.observed_state(&fenced);
        rows.push(RowOutcome {
            config: "functional",
            coverage: 0,
            sc_allowed: outcomes.allows(&observed),
            observed,
            expect_sc: true,
        });
    }

    Ok(CaseOutcome {
        skipped: false,
        rows,
    })
}

/// Does the candidate diverge (violate any matrix expectation)?
pub fn diverges(spec: &SynthSpec, cfg: &FuzzConfig) -> Result<bool, String> {
    Ok(evaluate(spec, cfg)?.diverging_rows().next().is_some())
}

/// Deterministic delta-minimization: greedily drop threads, ops and
/// region wrappers, then shrink values, re-checking after every step
/// that the candidate still diverges. No randomness — the result is
/// a pure function of the input spec and the matrix configuration
/// (so it is identical across `--threads` and fuzzer seeds by
/// construction). A non-diverging input minimizes to itself.
pub fn minimize(spec: &SynthSpec, cfg: &FuzzConfig) -> Result<SynthSpec, String> {
    if !diverges(spec, cfg)? {
        return Ok(spec.clone());
    }
    let mut cur = spec.clone();
    let still = |cand: &SynthSpec, cfg: &FuzzConfig| -> Result<bool, String> {
        Ok(cand.validate() && diverges(cand, cfg)?)
    };
    loop {
        let mut changed = false;

        // Drop whole threads.
        let mut t = 0;
        while cur.threads.len() > 1 && t < cur.threads.len() {
            let mut cand = cur.clone();
            cand.threads.remove(t);
            if still(&cand, cfg)? {
                cur = cand;
                changed = true;
            } else {
                t += 1;
            }
        }

        // Drop single ops (a region bracket takes its partner).
        for t in 0..cur.threads.len() {
            let mut i = 0;
            while i < cur.threads[t].len() {
                let mut cand = cur.clone();
                match synth::matching_bracket(&cand.threads[t], i) {
                    Some(j) => {
                        let (lo, hi) = (i.min(j), i.max(j));
                        cand.threads[t].drain(lo..=hi);
                    }
                    None => {
                        cand.threads[t].remove(i);
                    }
                }
                if still(&cand, cfg)? {
                    cur = cand;
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }

        // Unwrap regions (keep the contents, drop the brackets).
        for t in 0..cur.threads.len() {
            let mut i = 0;
            while i < cur.threads[t].len() {
                if !matches!(cur.threads[t][i], synth::SynthOp::Begin(_)) {
                    i += 1;
                    continue;
                }
                let mut cand = cur.clone();
                let j = synth::matching_bracket(&cand.threads[t], i).expect("validated spec");
                cand.threads[t].remove(j);
                cand.threads[t].remove(i);
                if still(&cand, cfg)? {
                    cur = cand;
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }

        // Shrink stored values and filler amounts to 1.
        for t in 0..cur.threads.len() {
            for i in 0..cur.threads[t].len() {
                let mut cand = cur.clone();
                let shrunk = match &mut cand.threads[t][i] {
                    synth::SynthOp::Store(_, val) if *val > 1 => {
                        *val = 1;
                        true
                    }
                    synth::SynthOp::LocalWork(n) if *n > 1 => {
                        *n = 1;
                        true
                    }
                    _ => false,
                };
                if shrunk && still(&cand, cfg)? {
                    cur = cand;
                    changed = true;
                }
            }
        }

        if !changed {
            return Ok(cur);
        }
    }
}

/// Accumulated per-row coverage and the final fuzzing verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    pub seed: u64,
    pub budget: usize,
    pub backend: BackendId,
    pub inject_bug: bool,
    /// Candidates actually evaluated (≤ budget: the run stops at the
    /// end of the batch that found the first divergence).
    pub cases: usize,
    /// Candidates whose SC enumeration blew the checker bounds.
    pub skipped: usize,
    /// Corpus entries (novel-coverage candidates), as registry names.
    pub corpus: Vec<String>,
    /// Accumulated coverage bitmap per matrix row.
    pub coverage: Vec<(&'static str, u32)>,
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// Deterministic machine-readable artifact: byte-identical across
    /// `--threads` for the same `(seed, budget, backend, knobs)`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema_version", SCHEMA_VERSION)
            .field("seed", self.seed)
            .field("budget", self.budget)
            .field("backend", self.backend.name())
            .field("inject_bug", self.inject_bug)
            .field("cases", self.cases)
            .field("skipped", self.skipped)
            .field("corpus_size", self.corpus.len())
            .field("corpus", self.corpus.as_slice())
            .field(
                "coverage",
                self.coverage
                    .iter()
                    .fold(Json::obj(), |o, (label, bits)| o.field(label, *bits as u64)),
            )
            .field(
                "divergences",
                Json::Arr(
                    self.divergences
                        .iter()
                        .map(|d| {
                            Json::obj()
                                .field("name", d.name.as_str())
                                .field("config", d.config.as_str())
                                .field("observed", d.observed.as_slice())
                                .field("minimized", d.minimized.as_deref())
                        })
                        .collect(),
                ),
            )
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        let cov: Vec<String> = self
            .coverage
            .iter()
            .map(|(l, b)| format!("{l}:{}", b.count_ones()))
            .collect();
        format!(
            "fuzz: {} cases ({} skipped), corpus {}, coverage bits {}, {} divergence(s)",
            self.cases,
            self.skipped,
            self.corpus.len(),
            cov.join(" "),
            self.divergences.len()
        )
    }
}

/// Derive candidate `i`: the seed corpus first, then mutants of a
/// PRNG-chosen corpus entry. Pure in `(seed, i, corpus)`.
fn derive(seed: u64, i: usize, templates: &[SynthSpec], corpus: &[SynthSpec]) -> SynthSpec {
    if i < templates.len() {
        return templates[i].clone();
    }
    let mut rng = Prng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let pool = if corpus.is_empty() { templates } else { corpus };
    let parent = &pool[rng.gen_range(0..pool.len())];
    let mut cand = parent.clone();
    for _ in 0..1 + rng.gen_range(0..3) {
        cand = mutate(&cand, &mut rng);
    }
    cand
}

/// Run a fuzzing campaign. Candidates are scheduled in fixed-width
/// batches evaluated over `threads` workers and merged in index
/// order, so the report (and every byte of its JSON) is independent
/// of the thread count. The run stops at the first batch containing
/// a divergence, after minimizing it (when configured).
pub fn run_fuzz(cfg: &FuzzConfig, threads: usize) -> Result<FuzzReport, String> {
    let templates = seed_corpus();
    let mut corpus: Vec<SynthSpec> = Vec::new();
    let mut corpus_names: Vec<String> = Vec::new();
    let mut seen: Vec<(&'static str, u32)> = ROWS.iter().map(|&l| (l, 0)).collect();
    let mut divergences: Vec<Divergence> = Vec::new();
    let mut cases = 0usize;
    let mut skipped = 0usize;

    while cases < cfg.budget && divergences.is_empty() {
        let batch = BATCH.min(cfg.budget - cases);
        let candidates: Vec<SynthSpec> = (0..batch)
            .map(|k| derive(cfg.seed, cases + k, &templates, &corpus))
            .collect();
        let evals = run_indexed(batch, threads, |k| evaluate(&candidates[k], cfg));
        for (k, eval) in evals.into_iter().enumerate() {
            let outcome = eval?;
            if outcome.skipped {
                skipped += 1;
                continue;
            }
            let mut novel = false;
            for row in &outcome.rows {
                let slot = seen
                    .iter_mut()
                    .find(|(l, _)| *l == row.config)
                    .expect("row label registered");
                if row.coverage & !slot.1 != 0 {
                    novel = true;
                    slot.1 |= row.coverage;
                }
            }
            if novel {
                corpus.push(candidates[k].clone());
                corpus_names.push(candidates[k].name());
            }
            for row in outcome.diverging_rows() {
                let minimized = match cfg.minimize {
                    true => Some(minimize(&candidates[k], cfg)?.name()),
                    false => None,
                };
                divergences.push(Divergence {
                    name: candidates[k].name(),
                    config: row.config.to_string(),
                    observed: row.observed.clone(),
                    minimized,
                });
            }
        }
        cases += batch;
    }

    Ok(FuzzReport {
        seed: cfg.seed,
        budget: cfg.budget,
        backend: cfg.backend,
        inject_bug: cfg.inject_bug,
        cases,
        skipped,
        corpus: corpus_names,
        coverage: seen,
        divergences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfence_harness::{Axis, Experiment};
    use sfence_sim::FenceConfig;
    use sfence_workloads::WorkloadParams;

    /// Corpus entries are catalog names (`fuzz/<encoded>`), so they
    /// fan out through the ordinary `Experiment` sweep machinery —
    /// the same path `sfence-dist` ships as `ExperimentSpec` jobs.
    #[test]
    fn corpus_entries_run_as_experiment_cells() {
        // Sim backend: coverage bits (and hence corpus growth) are
        // a scope-unit instrument, so only timed runs produce them.
        let cfg = FuzzConfig {
            budget: 16,
            ..Default::default()
        };
        let report = run_fuzz(&cfg, 2).unwrap();
        assert!(!report.corpus.is_empty());
        let sweep = Experiment::new("fuzz-corpus")
            .workloads(report.corpus.iter().take(2), WorkloadParams::small())
            .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
            .axis(Axis::Level(vec![1]))
            .backend(BackendId::Functional)
            .run(1);
        assert_eq!(sweep.rows.len(), 4);
    }

    fn functional_cfg(budget: usize) -> FuzzConfig {
        FuzzConfig {
            backend: BackendId::Functional,
            budget,
            ..Default::default()
        }
    }

    /// The report must be byte-identical across worker-thread counts.
    #[test]
    fn fuzz_is_deterministic_across_threads() {
        let cfg = functional_cfg(24);
        let a = run_fuzz(&cfg, 1).unwrap();
        let b = run_fuzz(&cfg, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact()
        );
    }

    /// On the SC interpreter every candidate must stay SC-allowed —
    /// zero divergences, some corpus growth is irrelevant off-sim
    /// (coverage bits are sim-only), but the run must complete.
    #[test]
    fn functional_fuzz_finds_no_divergence() {
        let report = run_fuzz(&functional_cfg(24), 2).unwrap();
        assert_eq!(report.cases, 24);
        assert!(report.divergences.is_empty());
    }

    /// The enumerator is the matrix's oracle, not an engine it can run
    /// on: the fuzzer refuses it with the campaign's error instead of
    /// reading a final memory the enumerator never produces.
    #[test]
    fn enumerative_backend_is_an_error() {
        let cfg = FuzzConfig {
            backend: BackendId::Enumerative,
            budget: 1,
            ..Default::default()
        };
        let err = run_fuzz(&cfg, 1).unwrap_err();
        assert!(
            err.contains("the enumerative backend is already the oracle"),
            "{err}"
        );
    }

    /// A non-diverging input minimizes to itself.
    #[test]
    fn minimizer_is_identity_on_non_diverging_inputs() {
        let cfg = FuzzConfig::default();
        let spec = &seed_corpus()[0];
        assert_eq!(&minimize(spec, &cfg).unwrap(), spec);
    }

    fn injected() -> FuzzConfig {
        FuzzConfig {
            inject_bug: true,
            budget: 16,
            ..Default::default()
        }
    }

    /// The fault-injection knob must be caught within the seed
    /// corpus itself, and delta-minimize to exactly the archived
    /// regression (`synth::REGRESSIONS[0]`) — the round trip that
    /// justifies checking minimizer output into the registry.
    #[test]
    fn injected_bug_is_found_and_minimized_to_the_archived_regression() {
        let report = run_fuzz(&injected(), 2).unwrap();
        assert!(!report.divergences.is_empty());
        let d = &report.divergences[0];
        assert_eq!(d.config, "S-overflow");
        let expected = synth::regression(0).unwrap();
        assert_eq!(
            d.minimized.as_deref(),
            Some(expected.name().as_str()),
            "the archived regression is stale: re-run \
             `sfence-fuzz --inject-bug` and update synth::REGRESSIONS"
        );
    }

    /// Satellite: the minimizer is deterministic — rng-free and
    /// serial, so the same input yields the same output across
    /// repeated runs and across fuzzer worker-thread counts (which
    /// it never sees), and the minimized case still diverges.
    #[test]
    fn minimizer_is_deterministic_and_preserves_the_divergence() {
        let cfg = injected();
        let spec = SynthSpec::decode("v2m0:l1(0c(1s01c))l1~l0(0c(1s11c))l0").unwrap();
        let a = minimize(&spec, &cfg).unwrap();
        let b = minimize(&spec, &cfg).unwrap();
        assert_eq!(a, b);
        assert!(diverges(&a, &cfg).unwrap());
        // Small enough to archive: at most 8 real instructions
        // (accesses + fences; region brackets are scope markers) per
        // thread, and strictly smaller than the input.
        for t in &a.threads {
            let real = t
                .iter()
                .filter(|op| !matches!(op, synth::SynthOp::Begin(_) | synth::SynthOp::End))
                .count();
            assert!(real <= 8, "minimized thread still has {real} instructions");
        }
        let size = |s: &SynthSpec| s.threads.iter().map(Vec::len).sum::<usize>();
        assert!(size(&a) < size(&spec));
        // And the whole pipeline is thread-count independent.
        let r1 = run_fuzz(&cfg, 1).unwrap();
        let r4 = run_fuzz(&cfg, 4).unwrap();
        assert_eq!(r1, r4);
    }
}

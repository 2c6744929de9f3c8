//! `fuzz-sim`: `sfence_fuzz::run_fuzz` campaigns on the sim backend,
//! seeded from the benchmark seed. The traced variant re-runs each
//! campaign through the public pieces `run_fuzz` is made of (candidate
//! derivation, the synth compiler, the SC enumerator, `Machine`, the
//! functional backend) with a span around each call; its reports must
//! equal the library's. The untraced run makes one such pass after its
//! timed batches, untraced, to count simulated cycles and check the
//! same equality.

use crate::host;
use crate::model::Model;
use crate::trace::Tracer;
use crate::{Batch, Ctx, Workload};
use sfence_fuzz::{
    minimize, run_fuzz, CaseOutcome, Divergence, FuzzConfig, FuzzReport, RowOutcome, ROWS,
};
use sfence_harness::hash::sha256_hex;
use sfence_harness::{
    enumerate_sc, run_indexed, Backend, BackendId, CheckerConfig, FunctionalBackend, Json,
};
use sfence_litmus::overflow_scope;
use sfence_sim::{FenceConfig, Machine, MachineConfig, RunExit};
use sfence_workloads::support::{compile, Prng};
use sfence_workloads::synth::{self, mutate, seed_corpus, SynthSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Campaigns per batch, and candidates per campaign. A candidate's
/// cost is heavy-tailed (the SC enumerator's state count grows with
/// the corpus a seed happens to breed), so one long campaign's
/// throughput differs several-fold between seeds; a batch of short
/// campaigns with seeds drawn from the benchmark seed averages that
/// out.
pub const CAMPAIGNS: u64 = 64;
pub const BUDGET: usize = 64;

/// SC-enumeration bound per candidate. The default (250k states) lets
/// the rare huge candidate set the process's peak memory and a large
/// share of its time, both varying with the seed; at 5k states a few
/// candidates in a thousand are skipped and both figures stay
/// comparable across seeds.
pub const MAX_STATES: usize = 5_000;

/// Threads the campaigns run on. `run_fuzz` joins its threads after
/// every 16 candidates (about a millisecond of work), so on two threads
/// its wall time follows whatever else the host runs on the second
/// core; on one it varies far less from run to run. The reports are
/// the same on any thread count.
pub const THREADS: usize = 1;

/// `run_fuzz`'s fixed scheduling width.
const BATCH: usize = 16;

/// The campaigns of one batch for benchmark seed `seed`.
pub fn configs(seed: u64) -> Vec<FuzzConfig> {
    (0..CAMPAIGNS)
        .map(|j| FuzzConfig {
            seed: seed.wrapping_mul(CAMPAIGNS).wrapping_add(j),
            budget: BUDGET,
            backend: BackendId::Sim,
            checker: CheckerConfig {
                max_states: MAX_STATES,
                ..CheckerConfig::default()
            },
            ..FuzzConfig::default()
        })
        .collect()
}

pub fn batch_digest(reports: &[FuzzReport]) -> String {
    let text: Vec<String> = reports
        .iter()
        .map(|r| r.to_json().to_string_compact())
        .collect();
    sha256_hex(text.join("\n").as_bytes())
}

fn base_config(num_threads: usize) -> MachineConfig {
    let mut cfg = MachineConfig::paper_default();
    cfg.num_cores = num_threads;
    cfg.max_cycles = 50_000_000;
    cfg
}

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

/// What one candidate cost the modelled machine and the enumerator.
#[derive(Default)]
struct CaseCost {
    model: Model,
    states: u64,
}

fn evaluate(
    spec: &SynthSpec,
    cfg: &FuzzConfig,
    tracer: &Tracer,
    parent: Option<usize>,
    id: Option<usize>,
) -> Result<(CaseOutcome, CaseCost), String> {
    let (fenced, stripped) = tracer.time("workloads.build", parent, id, || {
        (
            compile(&synth::ir(spec, false)),
            compile(&synth::ir(spec, true)),
        )
    });
    let outcomes = tracer
        .time("harness.enumerate", parent, id, || {
            enumerate_sc(&fenced, &cfg.checker)
        })
        .map_err(|e| format!("{}: checker: {e}", spec.name()))?;
    let mut cost = CaseCost {
        states: outcomes.states_explored,
        ..CaseCost::default()
    };
    if !outcomes.complete {
        let skipped = CaseOutcome {
            skipped: true,
            rows: Vec::new(),
        };
        return Ok((skipped, cost));
    }
    let covering = spec.covering();
    let threads = fenced.num_threads();
    let mut s_cfg = base_config(threads).with_fence(FenceConfig::SFENCE);
    s_cfg.core.scope.skip_degrade_on_overflow = cfg.inject_bug;
    let mut overflow_cfg = base_config(threads).with_fence(FenceConfig::SFENCE);
    overflow_cfg.core.scope = overflow_scope();
    overflow_cfg.core.scope.skip_degrade_on_overflow = cfg.inject_bug;
    let matrix = [
        (
            "T",
            &fenced,
            base_config(threads).with_fence(FenceConfig::TRADITIONAL),
            spec.fenced_traditional(),
        ),
        ("S", &fenced, s_cfg, covering),
        ("S-overflow", &fenced, overflow_cfg, covering),
        (
            "S-nofence",
            &stripped,
            base_config(threads).with_fence(FenceConfig::SFENCE),
            false,
        ),
    ];
    let mut rows = Vec::with_capacity(5);
    for (label, program, machine, expect_sc) in matrix {
        let mut m = tracer.time("sim.new", parent, id, || Machine::new(program, machine));
        let summary = tracer.time("sim.run", parent, id, || m.run());
        if summary.exit != RunExit::Completed {
            return Err(format!("{}: {label}: run hit the cycle limit", spec.name()));
        }
        cost.model.add(
            &summary.core_stats,
            &summary.mem_stats,
            &summary.scope_stats,
            summary.cycles,
        );
        let observed = program.observed_state(&m.mem);
        rows.push(RowOutcome {
            config: label,
            coverage: summary.scope_coverage.iter().fold(0, |a, &b| a | b),
            sc_allowed: outcomes.allows(&observed),
            observed,
            expect_sc,
        });
    }
    let out = tracer.time("harness.functional", parent, id, || {
        FunctionalBackend.run(&fenced, &base_config(threads), &[])
    });
    if out.exit != RunExit::Completed {
        return Err(format!(
            "{}: functional: run hit the cycle limit",
            spec.name()
        ));
    }
    let observed = fenced.observed_state(&out.mem);
    rows.push(RowOutcome {
        config: "functional",
        coverage: 0,
        sc_allowed: outcomes.allows(&observed),
        observed,
        expect_sc: true,
    });
    Ok((
        CaseOutcome {
            skipped: false,
            rows,
        },
        cost,
    ))
}

/// `run_fuzz` rebuilt from its public parts, with spans.
fn replica(
    cfg: &FuzzConfig,
    threads: usize,
    tracer: &Tracer,
) -> Result<(FuzzReport, CaseCost), String> {
    let templates = seed_corpus();
    let mut corpus: Vec<SynthSpec> = Vec::new();
    let mut corpus_names: Vec<String> = Vec::new();
    let mut seen: Vec<(&'static str, u32)> = ROWS.iter().map(|&l| (l, 0)).collect();
    let mut divergences: Vec<Divergence> = Vec::new();
    let mut cases = 0usize;
    let mut skipped = 0usize;
    let mut total = CaseCost::default();
    let root = tracer.open("batch", None, None);
    while cases < cfg.budget && divergences.is_empty() {
        let batch = BATCH.min(cfg.budget - cases);
        let candidates: Vec<SynthSpec> = (0..batch)
            .map(|k| derive(cfg.seed, cases + k, &templates, &corpus))
            .collect();
        let evals = run_indexed(batch, threads, |k| {
            let id = Some(cases + k);
            let span = tracer.open("cell", root, id);
            let out = catch_unwind(AssertUnwindSafe(|| {
                evaluate(&candidates[k], cfg, tracer, span, id)
            }))
            .unwrap_or_else(|_| Err(format!("{}: panicked", candidates[k].name())));
            tracer.close(span);
            out
        });
        for (k, eval) in evals.into_iter().enumerate() {
            let (outcome, cost) = eval?;
            total.model.merge(&cost.model);
            total.states += cost.states;
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
    tracer.close(root);
    let report = FuzzReport {
        seed: cfg.seed,
        budget: cfg.budget,
        backend: cfg.backend,
        inject_bug: cfg.inject_bug,
        cases,
        skipped,
        corpus: corpus_names,
        coverage: seen,
        divergences,
    };
    Ok((report, total))
}

pub struct Fuzz {
    cfgs: Vec<FuzzConfig>,
    pinned: Option<String>,
    /// The first batch's reports: every later batch must equal them.
    first: Option<Vec<FuzzReport>>,
}

impl Fuzz {
    pub fn new() -> Fuzz {
        Fuzz {
            cfgs: Vec::new(),
            pinned: None,
            first: None,
        }
    }

    fn cells(&self) -> usize {
        self.cfgs.iter().map(|c| c.budget).sum()
    }

    /// Judge one batch's reports: diverging candidates fail, and
    /// reports that differ from the pinned or the first ones fail
    /// every case.
    fn judge(&mut self, reports: &[FuzzReport]) -> (usize, String) {
        let digest = batch_digest(reports);
        let first = self.first.get_or_insert_with(|| reports.to_vec());
        let consistent = first == reports && self.pinned.as_ref().is_none_or(|p| *p == digest);
        let failed = if consistent {
            reports
                .iter()
                .map(|r| {
                    let mut diverging: Vec<&str> =
                        r.divergences.iter().map(|d| d.name.as_str()).collect();
                    diverging.dedup();
                    diverging.len()
                })
                .sum()
        } else {
            reports.iter().map(|r| r.cases).sum()
        };
        (failed, digest)
    }
}

impl Workload for Fuzz {
    fn setup(&mut self, ctx: &Ctx) -> Result<f64, String> {
        // The seed corpus every campaign starts from, compiled and
        // enumerated once to prove each template has a complete SC
        // answer within the checker's bounds.
        let t0 = Instant::now();
        self.cfgs = configs(ctx.seed);
        for spec in seed_corpus() {
            let sc = enumerate_sc(&compile(&synth::ir(&spec, false)), &self.cfgs[0].checker)
                .map_err(|e| format!("{}: checker: {e}", spec.name()))?;
            if !sc.complete {
                return Err(format!(
                    "{}: seed template exceeds the checker bounds",
                    spec.name()
                ));
            }
        }
        self.pinned = ctx.pins.fuzz(ctx.seed);
        Ok(t0.elapsed().as_secs_f64())
    }

    fn batch(&mut self, _ctx: &Ctx, tracer: &Tracer) -> Batch {
        let t0 = Instant::now();
        let mut reports = Vec::new();
        let mut cost = CaseCost::default();
        let mut parts = Vec::with_capacity(self.cfgs.len());
        let mut host_runs = Vec::with_capacity(self.cfgs.len());
        for cfg in &self.cfgs {
            let started = Instant::now();
            let report = if tracer.enabled() {
                replica(cfg, THREADS, tracer).map(|(report, c)| {
                    cost.model.merge(&c.model);
                    cost.states += c.states;
                    report
                })
            } else {
                catch_unwind(AssertUnwindSafe(|| run_fuzz(cfg, THREADS)))
                    .unwrap_or_else(|_| Err("run_fuzz panicked".into()))
            };
            parts.push(started.elapsed().as_secs_f64());
            host_runs.push(host::kernel());
            match report {
                Ok(report) => reports.push(report),
                Err(e) => {
                    eprintln!("perfbench: fuzz seed {}: {e}", cfg.seed);
                    let wall = t0.elapsed().as_secs_f64();
                    return Batch {
                        cells: self.cells(),
                        failed: self.cells(),
                        wall,
                        first_result: wall,
                        outputs: vec![None],
                        ..Batch::default()
                    };
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let (failed, digest) = self.judge(&reports);
        Batch {
            cells: reports.iter().map(|r| r.cases).sum(),
            failed,
            cycles: cost.model.cycles,
            wall,
            // The campaigns are judged as one merged result.
            first_result: wall,
            parts,
            host_runs,
            model: cost.model,
            outputs: vec![Some(digest)],
            enum_states: cost.states,
            skipped: reports.iter().map(|r| r.skipped).sum(),
            corpus: reports.iter().map(|r| r.corpus.len()).sum(),
            ..Batch::default()
        }
    }

    fn threads(&self, _ctx: &Ctx) -> usize {
        THREADS
    }

    fn verify(&mut self, _ctx: &Ctx) -> (Option<u64>, usize) {
        let mut cycles = 0;
        let mut reports = Vec::new();
        for cfg in &self.cfgs {
            match replica(cfg, THREADS, &Tracer::new(false)) {
                Ok((report, cost)) => {
                    cycles += cost.model.cycles;
                    reports.push(report);
                }
                Err(_) => return (None, self.cells()),
            }
        }
        if Some(&reports) == self.first.as_ref() {
            (Some(cycles), 0)
        } else {
            (None, self.cells())
        }
    }

    fn pin(&mut self, _ctx: &Ctx) -> Result<Json, String> {
        let mut seeds = Json::obj();
        for seed in crate::PINNED_SEEDS.chain([crate::HELD_OUT_SEED]) {
            let mut reports = Vec::new();
            for cfg in configs(seed) {
                let report = run_fuzz(&cfg, THREADS)?;
                let (again, _) = replica(&cfg, THREADS, &Tracer::new(false))?;
                if again != report || !report.divergences.is_empty() {
                    return Err(format!(
                        "fuzz seed {}: replica disagrees or diverged",
                        cfg.seed
                    ));
                }
                reports.push(report);
            }
            seeds = seeds.field(&seed.to_string(), batch_digest(&reports));
        }
        Ok(Json::obj()
            .field("campaigns", CAMPAIGNS)
            .field("budget", BUDGET)
            .field("max_states", MAX_STATES)
            .field("seeds", seeds))
    }
}

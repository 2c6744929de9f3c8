//! Table IV of the paper, promoted from a static info table to a
//! **workload registry**: every benchmark is a named entry mapping to
//! a parameterized builder, so experiment layers can sweep workloads
//! by name instead of hardcoding per-benchmark constructors.

use crate::support::{BuiltWorkload, ScopeMode};
use crate::{barnes, dekker, harris, msn, pst, ptc, radiosity, wsq};

/// Scope type used by a benchmark (Table IV "Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchType {
    Set,
    Class,
}

/// One Table IV row.
#[derive(Debug, Clone, Copy)]
pub struct BenchInfo {
    pub name: &'static str,
    pub ty: BenchType,
    pub description: &'static str,
    /// Lock-free algorithm (Fig. 12 group) or full application
    /// (Fig. 13 group)?
    pub full_app: bool,
}

/// Problem size of a build: the paper's evaluation scale (figures)
/// or the small scale the fast integration tests run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    #[default]
    Eval,
    Small,
}

impl Scale {
    /// The spelling every flag, cache key, store line and spec uses.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Eval => "eval",
            Scale::Small => "small",
        }
    }

    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "eval" => Ok(Scale::Eval),
            "small" => Ok(Scale::Small),
            other => Err(format!("unknown scale {other:?} (expected eval|small)")),
        }
    }
}

/// Parameters every registry builder understands. Knobs that a
/// benchmark does not have (the workload level on full applications,
/// the scope mode on set-scope benchmarks) are ignored by it.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadParams {
    /// Fig. 12 workload knob (lock-free algorithms).
    pub level: u32,
    /// Class scope vs set scope (class-scope benchmarks, Fig. 14).
    pub scope: ScopeMode,
    pub scale: Scale,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self {
            level: 3,
            scope: ScopeMode::Class,
            scale: Scale::Eval,
        }
    }
}

impl WorkloadParams {
    pub fn level(mut self, level: u32) -> Self {
        self.level = level;
        self
    }

    pub fn scope(mut self, scope: ScopeMode) -> Self {
        self.scope = scope;
        self
    }

    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    pub fn small() -> Self {
        Self::default().scale(Scale::Small).level(2)
    }
}

/// A registry entry: the Table IV row plus the parameterized builder.
#[derive(Clone, Copy)]
pub struct Workload {
    pub info: BenchInfo,
    builder: fn(&WorkloadParams) -> BuiltWorkload,
}

impl Workload {
    pub fn name(&self) -> &'static str {
        self.info.name
    }

    pub fn build(&self, params: &WorkloadParams) -> BuiltWorkload {
        (self.builder)(params)
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("info", &self.info)
            .finish()
    }
}

fn build_dekker(p: &WorkloadParams) -> BuiltWorkload {
    dekker::build(dekker::DekkerParams {
        iters: match p.scale {
            Scale::Eval => 40,
            Scale::Small => 20,
        },
        workload: p.level,
    })
}

fn build_wsq(p: &WorkloadParams) -> BuiltWorkload {
    let (tasks, thieves) = match p.scale {
        Scale::Eval => (120, 7),
        Scale::Small => (40, 3),
    };
    wsq::build(wsq::WsqParams {
        tasks,
        thieves,
        workload: p.level,
        scope: p.scope,
    })
}

fn build_msn(p: &WorkloadParams) -> BuiltWorkload {
    let (items, producers, consumers) = match p.scale {
        Scale::Eval => (30, 4, 4),
        Scale::Small => (15, 2, 2),
    };
    msn::build(msn::MsnParams {
        items,
        producers,
        consumers,
        workload: p.level,
        scope: p.scope,
    })
}

fn build_harris(p: &WorkloadParams) -> BuiltWorkload {
    let (ops, threads, key_range) = match p.scale {
        Scale::Eval => (30, 8, 48),
        Scale::Small => (15, 4, 12),
    };
    harris::build(harris::HarrisParams {
        ops,
        threads,
        key_range,
        workload: p.level,
        scope: p.scope,
    })
}

fn build_pst(p: &WorkloadParams) -> BuiltWorkload {
    let (nodes, extra_edges, threads, seed) = match p.scale {
        Scale::Eval => (1000, 1000, 8, 42),
        Scale::Small => (120, 120, 4, 9),
    };
    pst::build(pst::PstParams {
        nodes,
        extra_edges,
        threads,
        seed,
        scope: p.scope,
    })
}

fn build_ptc(p: &WorkloadParams) -> BuiltWorkload {
    let (nodes, edges, threads, seed, task_work) = match p.scale {
        Scale::Eval => (1000, 3000, 8, 43, 12),
        Scale::Small => (120, 360, 4, 10, 4),
    };
    ptc::build(ptc::PtcParams {
        nodes,
        edges,
        threads,
        seed,
        task_work,
        scope: p.scope,
    })
}

fn build_barnes(p: &WorkloadParams) -> BuiltWorkload {
    let (bodies_per_thread, cells_per_thread, samples, steps, threads) = match p.scale {
        Scale::Eval => (96, 4, 4, 2, 8),
        Scale::Small => (16, 2, 3, 2, 4),
    };
    barnes::build(barnes::BarnesParams {
        bodies_per_thread,
        cells_per_thread,
        samples,
        steps,
        threads,
    })
}

fn build_radiosity(p: &WorkloadParams) -> BuiltWorkload {
    let (patches, interactions, rounds, threads, seed, scratch_work) = match p.scale {
        Scale::Eval => (24, 200, 2, 8, 44, 6),
        Scale::Small => (8, 40, 2, 4, 3, 2),
    };
    radiosity::build(radiosity::RadiosityParams {
        patches,
        interactions,
        rounds,
        threads,
        seed,
        scratch_work,
    })
}

/// The eight benchmarks of Table IV, each with its builder.
pub const REGISTRY: [Workload; 8] = [
    Workload {
        info: BenchInfo {
            name: "dekker",
            ty: BenchType::Set,
            description: "Dekker algorithm [12]",
            full_app: false,
        },
        builder: build_dekker,
    },
    Workload {
        info: BenchInfo {
            name: "wsq",
            ty: BenchType::Class,
            description: "Work-stealing queue [10]",
            full_app: false,
        },
        builder: build_wsq,
    },
    Workload {
        info: BenchInfo {
            name: "msn",
            ty: BenchType::Class,
            description: "Non-blocking Queue [33]",
            full_app: false,
        },
        builder: build_msn,
    },
    Workload {
        info: BenchInfo {
            name: "harris",
            ty: BenchType::Class,
            description: "Harris's set [20]",
            full_app: false,
        },
        builder: build_harris,
    },
    Workload {
        info: BenchInfo {
            name: "barnes",
            ty: BenchType::Set,
            description: "Barnes-Hut n-body [43]",
            full_app: true,
        },
        builder: build_barnes,
    },
    Workload {
        info: BenchInfo {
            name: "radiosity",
            ty: BenchType::Set,
            description: "Diffuse radiosity method [43]",
            full_app: true,
        },
        builder: build_radiosity,
    },
    Workload {
        info: BenchInfo {
            name: "pst",
            ty: BenchType::Class,
            description: "Parallel spanning tree [5]",
            full_app: true,
        },
        builder: build_pst,
    },
    Workload {
        info: BenchInfo {
            name: "ptc",
            ty: BenchType::Class,
            description: "Parallel transitive closure [15]",
            full_app: true,
        },
        builder: build_ptc,
    },
];

/// Look a benchmark up by name. Generated litmus scenarios are not
/// table entries; use [`exists`] / [`build`] for name-based dispatch
/// that covers both.
pub fn find(name: &str) -> Option<&'static Workload> {
    REGISTRY.iter().find(|w| w.info.name == name)
}

/// Is `name` buildable — a Table IV benchmark, a generated litmus
/// scenario (`litmus/<family>/<seed>`, including the bounds-checked
/// `litmus/regression/<id>` namespace), or an encoded fuzzer
/// candidate (`fuzz/<encoded>`)?
pub fn exists(name: &str) -> bool {
    find(name).is_some()
        || crate::litmus::parse_name(name).is_some()
        || crate::synth::parse_name(name).is_some()
}

/// Build a benchmark by name; panics on unknown names (experiment
/// specs are static, so an unknown name is a programming error).
///
/// Names under `litmus/` dispatch to the deterministic scenario
/// generator ([`crate::litmus`]); the seed is part of the name, so
/// the sweep cache, the dist runner and the result store key litmus cells
/// exactly like table benchmarks. Names under `fuzz/` decode the
/// synthesized program from the name itself ([`crate::synth`]) —
/// corpus entries flow through experiments and `sfence-dist` jobs
/// like any workload. `params` is ignored for both — their whole
/// parameterization lives in the name.
pub fn build(name: &str, params: &WorkloadParams) -> BuiltWorkload {
    if let Some(w) = crate::litmus::build_named(name) {
        return w;
    }
    if let Some(w) = crate::synth::build_named(name) {
        return w;
    }
    find(name)
        .unwrap_or_else(|| panic!("unknown workload {name:?}"))
        .build(params)
}

/// The lock-free algorithms of Fig. 12, in paper order.
pub fn lock_free_names() -> Vec<&'static str> {
    REGISTRY
        .iter()
        .filter(|w| !w.info.full_app)
        .map(|w| w.info.name)
        .collect()
}

/// The full applications of Fig. 13, in paper order (pst, ptc,
/// barnes, radiosity).
pub fn full_app_names() -> Vec<&'static str> {
    vec!["pst", "ptc", "barnes", "radiosity"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_matches_paper() {
        assert_eq!(REGISTRY.len(), 8);
        // Class scope: wsq, msn, harris, pst, ptc. Set: dekker,
        // barnes, radiosity.
        let class_count = REGISTRY
            .iter()
            .filter(|w| w.info.ty == BenchType::Class)
            .count();
        assert_eq!(class_count, 5);
        assert_eq!(REGISTRY.iter().filter(|w| w.info.full_app).count(), 4);
    }

    #[test]
    fn registry_builds_every_benchmark_by_name() {
        for w in &REGISTRY {
            let built = build(w.info.name, &WorkloadParams::small());
            assert_eq!(built.name, w.info.name);
        }
        assert!(find("nonesuch").is_none());
    }

    #[test]
    fn litmus_names_dispatch_through_the_catalog() {
        let name = "litmus/sb/17";
        assert!(exists(name));
        assert!(find(name).is_none(), "litmus names are not table entries");
        let built = build(name, &WorkloadParams::small());
        assert_eq!(built.name, name);
        assert!(built.program.validate().is_ok());
        assert!(!exists("litmus/nonesuch/17"));
    }

    #[test]
    fn fuzz_names_dispatch_through_the_catalog() {
        let name = "fuzz/v2m0:s01fl1~s11fl0";
        assert!(exists(name));
        assert!(find(name).is_none(), "fuzz names are not table entries");
        let built = build(name, &WorkloadParams::small());
        assert_eq!(built.name, name);
        assert!(built.program.validate().is_ok());
        assert!(!exists("fuzz/"));
        assert!(!exists("fuzz/v2m0:nonsense"));
    }

    #[test]
    fn regression_ids_are_bounds_checked() {
        let count = crate::synth::REGRESSIONS.len() as u64;
        assert!(count > 0);
        for i in 0..count {
            assert!(exists(&format!("litmus/regression/{i}")));
        }
        assert!(!exists(&format!("litmus/regression/{count}")));
    }

    #[test]
    fn groups_cover_the_registry() {
        let mut names = lock_free_names();
        names.extend(full_app_names());
        names.sort_unstable();
        let mut all: Vec<_> = REGISTRY.iter().map(|w| w.info.name).collect();
        all.sort_unstable();
        assert_eq!(names, all);
    }
}

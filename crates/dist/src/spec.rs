//! What the coordinator tells a worker to run: an *experiment spec*,
//! not a job list.
//!
//! The job list of a registered experiment is a deterministic
//! function of its spec (registry name + scale/backend overrides), so
//! the coordinator ships only the spec and both sides independently
//! resolve it and compare [`Experiment::fingerprint`]s — the SHA-256
//! over the schema version and every job's cache key. Equal
//! fingerprints mean the two binaries would produce interchangeable
//! rows for every index; anything else (a renamed workload, a new
//! axis point, a different schema generation, a drifted
//! `MachineConfig` default) is caught at the handshake instead of
//! corrupting the merge.

use sfence_harness::json::Json;
use sfence_harness::{BackendId, Experiment};
use sfence_workloads::Scale;

/// How a binary maps experiment names to [`Experiment`]s. The
/// registry lives in `sfence-bench` (which depends on this crate), so
/// the coordinator and worker take it as a plain function pointer.
pub type Registry = fn(&str) -> Option<Experiment>;

/// A registered experiment plus the overrides `sfence-sweep` would
/// apply (`--scale`, `--backend`), serialized into the `assign`
/// handshake message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentSpec {
    pub experiment: String,
    pub scale: Option<Scale>,
    pub backend: Option<BackendId>,
}

impl ExperimentSpec {
    pub fn new(experiment: impl Into<String>) -> ExperimentSpec {
        ExperimentSpec {
            experiment: experiment.into(),
            scale: None,
            backend: None,
        }
    }

    pub fn scale(mut self, scale: Option<Scale>) -> ExperimentSpec {
        self.scale = scale;
        self
    }

    pub fn backend(mut self, backend: Option<BackendId>) -> ExperimentSpec {
        self.backend = backend;
        self
    }

    /// Look the experiment up in `registry` and [`apply`](Self::apply)
    /// the overrides.
    pub fn resolve(&self, registry: Registry) -> Result<Experiment, String> {
        let experiment = registry(&self.experiment)
            .ok_or_else(|| format!("unknown experiment {:?}", self.experiment))?;
        self.apply(experiment)
    }

    /// [`resolve`](Self::resolve) and insist the result is the
    /// experiment `fingerprint` and `job_count` name: rows of a
    /// drifted job list must never be merged with this binary's.
    pub fn resolve_as(
        &self,
        registry: Registry,
        fingerprint: &str,
        job_count: u64,
    ) -> Result<Experiment, String> {
        let experiment = self.resolve(registry)?;
        let fp = experiment.fingerprint();
        if fp != fingerprint || experiment.job_count() as u64 != job_count {
            return Err(format!(
                "fingerprint mismatch for {:?}: expected {fingerprint} ({job_count} jobs), \
                 this binary resolves {fp} ({} jobs)",
                self.experiment,
                experiment.job_count()
            ));
        }
        Ok(experiment)
    }

    /// Apply the `--scale` / `--backend` overrides to `experiment`:
    /// the one shaping step of the figure binaries, `sfence-sweep`
    /// and the daemon, so a distributed run of a spec and a local run
    /// of the equivalent flags build identical job lists. A backend
    /// override on an `Axis::Backend` experiment is an error rather
    /// than a silent no-op: there every axis point picks its own
    /// engine.
    pub fn apply(&self, mut experiment: Experiment) -> Result<Experiment, String> {
        if let Some(scale) = self.scale {
            experiment = experiment.scale(scale);
        }
        if let Some(backend) = self.backend {
            if experiment.axis_name() == "backend" {
                return Err(format!(
                    "backend override {} is dead on {:?}: its backend axis selects \
                     the engine per cell",
                    backend.name(),
                    experiment.name
                ));
            }
            experiment = experiment.backend(backend);
        }
        Ok(experiment)
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("experiment", self.experiment.as_str())
            .field("scale", self.scale.map(Scale::name))
            .field("backend", self.backend.as_ref().map(BackendId::name))
    }

    pub fn from_json(doc: &Json) -> Result<ExperimentSpec, String> {
        Ok(ExperimentSpec {
            experiment: doc.req("experiment")?,
            scale: doc.opt("scale")?.map(Scale::parse).transpose()?,
            backend: doc.opt("backend")?.map(BackendId::parse).transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        for spec in [
            ExperimentSpec::new("smoke"),
            ExperimentSpec::new("litmus")
                .scale(Some(Scale::Small))
                .backend(Some(BackendId::Functional)),
        ] {
            let doc = spec.to_json();
            assert_eq!(ExperimentSpec::from_json(&doc).unwrap(), spec);
        }
    }
}

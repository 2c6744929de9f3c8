//! Byte-identity digests of the cycle-accurate simulator's output.
//!
//! One SHA-256 per (registry workload, scale, fence config) over the
//! serialized [`RunReport`] of a paper-default run — the hot-loop
//! work's permanent safety net. Any optimization that changes a
//! cycle count, a stats counter, the final memory image or a register
//! changes a digest; `tests/golden/sim_digests.json` pins them all,
//! including the Eval scale the figure goldens never touch.
//!
//! After an *intentional* behavior change, regenerate with the rest
//! of the goldens: `cargo run -p sfence-bench --bin regen-golden`.

use sfence_harness::hash::sha256_hex;
use sfence_harness::{Json, RunReport, Session};
use sfence_sim::{FenceConfig, MachineConfig};
use sfence_workloads::{Scale, WorkloadParams, REGISTRY};

/// Version of the `sim_digests.json` schema.
pub const DIGESTS_SCHEMA_VERSION: u64 = 1;

/// The fence configurations every workload is digested under.
pub const DIGEST_FENCES: [FenceConfig; 4] = [
    FenceConfig::TRADITIONAL,
    FenceConfig::SFENCE,
    FenceConfig::TRADITIONAL_SPEC,
    FenceConfig::SFENCE_SPEC,
];

/// One pinned digest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestRow {
    pub workload: String,
    pub scale: &'static str,
    pub fence: &'static str,
    pub sha256: String,
}

fn params(scale: Scale) -> WorkloadParams {
    match scale {
        // The figures' small runs use the small parameter preset.
        Scale::Small => WorkloadParams::small(),
        Scale::Eval => WorkloadParams::default(),
    }
}

fn digest(report: &RunReport) -> String {
    sha256_hex(report.to_json().to_string_pretty().as_bytes())
}

/// Run every registry workload at `scale` under every fence config
/// and digest each serialized report.
pub fn digest_rows(scale: Scale) -> Vec<DigestRow> {
    let p = params(scale);
    let mut rows = Vec::new();
    for w in &REGISTRY {
        let built = w.build(&p);
        for fence in DIGEST_FENCES {
            let report = Session::for_workload(&built)
                .config(MachineConfig::paper_default().with_fence(fence))
                .run();
            rows.push(DigestRow {
                workload: w.name().to_string(),
                scale: scale.name(),
                fence: fence.label(),
                sha256: digest(&report),
            });
        }
    }
    rows
}

/// Assemble the `sim_digests.json` golden.
pub fn digests_json(rows: &[DigestRow]) -> Json {
    Json::obj()
        .field("schema_version", DIGESTS_SCHEMA_VERSION)
        .field(
            "digests",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .field("workload", r.workload.as_str())
                            .field("scale", r.scale)
                            .field("fence", r.fence)
                            .field("sha256", r.sha256.as_str())
                    })
                    .collect(),
            ),
        )
}

/// Parse a committed `sim_digests.json` back into rows (static strs
/// resolved against the known scale/fence vocabulary).
pub fn parse_digests(json: &Json) -> Result<Vec<DigestRow>, String> {
    let version: u64 = json.req("schema_version")?;
    if version != DIGESTS_SCHEMA_VERSION {
        return Err(format!(
            "sim_digests schema_version {version} != supported {DIGESTS_SCHEMA_VERSION}"
        ));
    }
    json.req::<Vec<&Json>>("digests")?
        .into_iter()
        .map(|r| {
            let fence_label: &str = r.req("fence")?;
            let fence = DIGEST_FENCES
                .iter()
                .map(FenceConfig::label)
                .find(|&l| l == fence_label)
                .ok_or_else(|| format!("unknown fence label {fence_label:?}"))?;
            Ok(DigestRow {
                workload: r.req("workload")?,
                scale: Scale::parse(r.req("scale")?)?.name(),
                fence,
                sha256: r.req("sha256")?,
            })
        })
        .collect()
}

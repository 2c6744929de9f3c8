//! Content-addressed result caching: `(backend, workload params,
//! fence config, machine config) -> RunReport`, persisted on disk so
//! repeated sweeps only execute cells they have never seen.
//!
//! **Keys.** A job's key is the SHA-256 of the compact serialization
//! of its *canonical* JSON description — the executing backend's
//! [`BackendId`], workload name, build parameters and the complete
//! `MachineConfig` (which includes the fence config) with every
//! object's fields sorted. Field order therefore never changes a key;
//! any change to a value that could change the run's output does, and
//! cells produced by different engines (cycle-accurate vs functional)
//! can never collide. Every engine is deterministic, so a key names
//! exactly one possible `RunReport`.
//!
//! **Store layout.** A cache directory holds append-only JSONL files;
//! every `*.jsonl` file in the directory is read at open. Each line is
//! one entry: `{"key": "<hex>", "report": {...}}`. Writers append to
//! their own file (dist workers and CLI runs use
//! [`unique_writer_name`], the default writer uses `cache.jsonl`), so concurrent processes never
//! interleave bytes within a line. Corrupt or truncated lines — the
//! tail a killed writer leaves behind — and entries with a mismatched
//! `schema_version` are counted and skipped, never fatal: the cell
//! simply re-runs and is re-appended.

use crate::backend::BackendId;
use crate::hash::sha256_hex;
use crate::json::{self, Json};
use crate::session::RunReport;
use sfence_core::ScopeConfig;
use sfence_cpu::config::{BPRED_ENTRIES, MAX_OUTSTANDING_STORES};
use sfence_mem::{L1_LATENCY, L2_LATENCY, LINE_BYTES, REMOTE_DIRTY_PENALTY};
use sfence_sim::{CoreConfig, FenceConfig, MachineConfig, MemConfig};
use sfence_workloads::{ScopeMode, WorkloadParams};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic per-process counter feeding [`unique_writer_name`], so
/// two caches opened by one process never share a writer file.
static WRITER_NONCE: AtomicU64 = AtomicU64::new(0);

/// An 8-hex-character token identifying this host, derived by hashing
/// the hostname. Two hosts sharing one cache directory (a network
/// filesystem under a distributed sweep) get different tokens. A host
/// with *no discoverable hostname* must not collapse onto a shared
/// constant — two such hosts could then collide on pid too (separate
/// pid namespaces hand out the same small pids) — so the anonymous
/// fallback salts the token with this process's start time instead.
/// Stable within a process either way.
pub fn host_token() -> String {
    static TOKEN: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TOKEN
        .get_or_init(|| {
            let name = fs::read_to_string("/proc/sys/kernel/hostname")
                .or_else(|_| fs::read_to_string("/etc/hostname"))
                .ok()
                .or_else(|| std::env::var("HOSTNAME").ok())
                .or_else(|| std::env::var("COMPUTERNAME").ok())
                .unwrap_or_default();
            let name = name.trim().to_string();
            if name.is_empty() {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0);
                sha256_hex(format!("anonymous-host-{nanos}").as_bytes())[..8].to_string()
            } else {
                sha256_hex(name.as_bytes())[..8].to_string()
            }
        })
        .clone()
}

/// A cache writer-file name no concurrent writer — same process,
/// another process, or another *host* — can produce:
/// `<prefix>-<host token>-<pid>-<nonce>.jsonl`. Hosts differ in the
/// token, processes on one host differ in the pid, and writers within
/// one process differ in the monotonic nonce. (Fixed names like
/// `worker-0.jsonl` collide as soon as two hosts run the same
/// worker layout against a shared directory.)
pub fn unique_writer_name(prefix: &str) -> String {
    format!(
        "{prefix}-{}-{}-{}.jsonl",
        host_token(),
        std::process::id(),
        WRITER_NONCE.fetch_add(1, Ordering::Relaxed)
    )
}

/// Canonical JSON description of one sweep cell.
pub fn job_canonical_json(
    workload: &str,
    params: &WorkloadParams,
    cfg: &MachineConfig,
    backend: BackendId,
) -> Json {
    // Litmus scenarios (`litmus/<family>/<seed>`) are fully
    // parameterized by their name and the builder ignores `params`;
    // keying on the no-op knobs would fork the cache (re-executing
    // byte-identical cells) whenever e.g. `--scale` changes.
    let params_json = if sfence_workloads::litmus::parse_name(workload).is_some() {
        Json::obj().field("by_name", true)
    } else {
        Json::obj()
            .field("level", params.level)
            .field("scale", params.scale.name())
            .field(
                "scope",
                match params.scope {
                    ScopeMode::Class => "class",
                    ScopeMode::Set => "set",
                },
            )
    };
    let mut doc = Json::obj()
        .field("backend", backend.name())
        .field("workload", workload)
        .field("params", params_json)
        .field("cfg", machine_config_json(cfg));
    // Engine knobs that live outside the MachineConfig (the
    // enumerator's search bounds) must key the cell too — tuning
    // their defaults correctly invalidates previously cached cells.
    if let Some(engine_params) = backend.cache_params() {
        doc = doc.field("engine_params", engine_params);
    }
    doc.canonicalize()
}

/// The *complete* machine configuration: every field that can change
/// a run's output, so a changed knob (correctly) moves the key.
fn machine_config_json(cfg: &MachineConfig) -> Json {
    // Exhaustive destructuring (no `..`): adding a field to any of
    // these config structs fails to compile here until the new knob
    // is keyed — a forgotten knob would silently serve stale cached
    // results for configurations that now differ.
    let MachineConfig {
        num_cores,
        core,
        mem,
        max_cycles,
    } = cfg;
    let CoreConfig {
        rob_size,
        sb_size,
        width,
        mispredict_penalty,
        fence,
        scope,
        trace,
        pipe_trace,
    } = core;
    let FenceConfig {
        honor_scopes,
        in_window_speculation,
    } = fence;
    let ScopeConfig {
        fsb_entries,
        fss_entries,
        mapping_entries,
        skip_degrade_on_overflow,
    } = scope;
    let MemConfig {
        l1_size,
        l1_ways,
        l2_size,
        l2_ways,
        mem_latency,
    } = mem;
    // Keys name cache entries already on disk and feed the dist
    // fingerprints, so the description keeps a field for each value
    // the machine now fixes: the constants, the retire width (equal
    // to the issue width), an out-of-order store-buffer drain
    // (`sb_drain_in_order: false`), a CAS that does not drain the
    // store buffer, and shadow-stack FSS recovery.
    let core = Json::obj()
        .field("rob_size", *rob_size)
        .field("sb_size", *sb_size)
        .field("issue_width", *width)
        .field("retire_width", *width)
        .field("mispredict_penalty", *mispredict_penalty)
        .field("bpred_entries", BPRED_ENTRIES)
        .field("max_outstanding_stores", MAX_OUTSTANDING_STORES)
        .field("sb_drain_in_order", false)
        .field("cas_drains_sb", false)
        .field(
            "fence",
            Json::obj()
                .field("honor_scopes", *honor_scopes)
                .field("in_window_speculation", *in_window_speculation),
        )
        .field(
            "scope",
            Json::obj()
                .field("fsb_entries", *fsb_entries)
                .field("fss_entries", *fss_entries)
                .field("mapping_entries", *mapping_entries)
                .field("recovery", "shadow_stack")
                .field("skip_degrade_on_overflow", *skip_degrade_on_overflow),
        )
        .field("trace", *trace)
        .field("pipe_trace", *pipe_trace);
    let mem = Json::obj()
        .field("line_bytes", LINE_BYTES)
        .field("l1_size", *l1_size)
        .field("l1_ways", *l1_ways)
        .field("l1_latency", L1_LATENCY)
        .field("l2_size", *l2_size)
        .field("l2_ways", *l2_ways)
        .field("l2_latency", L2_LATENCY)
        .field("mem_latency", *mem_latency)
        .field("remote_dirty_penalty", REMOTE_DIRTY_PENALTY);
    Json::obj()
        .field("num_cores", *num_cores)
        .field("core", core)
        .field("mem", mem)
        .field("max_cycles", *max_cycles)
}

/// Content-hash key of one sweep cell: SHA-256 over the canonical
/// description's compact serialization, as lowercase hex. The backend
/// id is part of the description, so sim and functional cells of the
/// same `(workload, cfg)` occupy distinct keys.
pub fn job_key(
    workload: &str,
    params: &WorkloadParams,
    cfg: &MachineConfig,
    backend: BackendId,
) -> String {
    let canonical = job_canonical_json(workload, params, cfg, backend).to_string_compact();
    sha256_hex(canonical.as_bytes())
}

/// An on-disk `key -> RunReport` map over a directory of append-only
/// JSONL files.
pub struct ResultCache {
    dir: PathBuf,
    writer_name: String,
    writer: Option<File>,
    /// Entries read from the directory at open, shared with every
    /// writer [forked](ResultCache::fork_unique) from this cache.
    loaded: Arc<HashMap<String, RunReport>>,
    /// Entries this writer inserted since.
    added: HashMap<String, RunReport>,
    /// Lines skipped at open: unparseable (truncated/corrupt) or a
    /// mismatched `schema_version`.
    skipped_lines: u64,
}

impl ResultCache {
    /// Open (creating the directory if needed) with the default
    /// writer file `cache.jsonl`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ResultCache> {
        Self::open_with_writer(dir, "cache.jsonl")
    }

    /// Open with a guaranteed-fresh writer file
    /// ([`unique_writer_name`]), safe for any number of concurrent
    /// writers across any number of hosts sharing `dir`.
    pub fn open_unique(dir: impl AsRef<Path>, prefix: &str) -> std::io::Result<ResultCache> {
        Self::open_with_writer(dir, unique_writer_name(prefix))
    }

    /// Open with a caller-chosen writer file name — writers sharing
    /// one cache directory each append to their own file so
    /// concurrent writes never interleave.
    pub fn open_with_writer(
        dir: impl AsRef<Path>,
        writer_name: impl Into<String>,
    ) -> std::io::Result<ResultCache> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let (entries, skipped_lines) = load(&dir)?;
        Ok(ResultCache {
            dir,
            writer_name: writer_name.into(),
            writer: None,
            loaded: Arc::new(entries),
            added: HashMap::new(),
            skipped_lines,
        })
    }

    /// Another writer over this cache's directory, with a fresh
    /// [`unique_writer_name`], that shares the entries loaded at open
    /// instead of reading the directory again. Entries either cache
    /// inserts afterwards stay with that cache (and its file).
    pub fn fork_unique(&self, prefix: &str) -> ResultCache {
        ResultCache {
            dir: self.dir.clone(),
            writer_name: unique_writer_name(prefix),
            writer: None,
            loaded: Arc::clone(&self.loaded),
            added: HashMap::new(),
            skipped_lines: self.skipped_lines,
        }
    }

    pub fn len(&self) -> usize {
        let fresh = self
            .added
            .keys()
            .filter(|k| !self.loaded.contains_key(*k))
            .count();
        self.loaded.len() + fresh
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines skipped at open because they were corrupt, truncated, or
    /// carried a different schema version.
    pub fn skipped_lines(&self) -> u64 {
        self.skipped_lines
    }

    pub fn get(&self, key: &str) -> Option<&RunReport> {
        self.added.get(key).or_else(|| self.loaded.get(key))
    }

    /// Append an entry to this cache's writer file and the in-memory
    /// map. Each entry is one line, written (and flushed) whole, so a
    /// kill mid-insert corrupts at most the final line of one file.
    pub fn insert(&mut self, key: &str, report: &RunReport) -> std::io::Result<()> {
        if self.writer.is_none() {
            self.writer = Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join(&self.writer_name))?,
            );
        }
        let mut line = Json::obj()
            .field("key", key)
            .field("report", report.to_json())
            .to_string_compact();
        line.push('\n');
        // One write_all per entry: O_APPEND keeps whole lines intact
        // even if another process appends to the same file.
        let writer = self.writer.as_mut().unwrap();
        writer.write_all(line.as_bytes())?;
        writer.flush()?;
        self.added.insert(key.to_string(), report.clone());
        Ok(())
    }
}

/// Read every `*.jsonl` file in `dir`, in name order: the entries and
/// the number of lines skipped as unreadable.
fn load(dir: &Path) -> std::io::Result<(HashMap<String, RunReport>, u64)> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "jsonl").unwrap_or(false))
        .collect();
    files.sort();
    let mut entries = HashMap::new();
    let mut skipped = 0;
    for path in files {
        for line in BufReader::new(File::open(&path)?).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match parse_entry(&line) {
                Ok((key, report)) => {
                    entries.insert(key, report);
                }
                Err(_) => skipped += 1,
            }
        }
    }
    Ok((entries, skipped))
}

fn parse_entry(line: &str) -> Result<(String, RunReport), String> {
    let doc = json::parse(line)?;
    // `RunReport::from_json` rejects mismatched schema_version.
    Ok((doc.req("key")?, RunReport::from_json(doc.req("report")?)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_names_carry_host_pid_and_nonce() {
        let token = host_token();
        assert_eq!(token.len(), 8);
        assert!(token.chars().all(|c| c.is_ascii_hexdigit()));
        // The token is a pure function of the host.
        assert_eq!(token, host_token());

        let a = unique_writer_name("worker");
        let b = unique_writer_name("worker");
        assert_ne!(a, b, "the nonce must separate writers in one process");
        for name in [&a, &b] {
            let stem = name.strip_suffix(".jsonl").expect("jsonl suffix");
            let parts: Vec<&str> = stem.split('-').collect();
            assert_eq!(parts[0], "worker");
            assert_eq!(parts[1], token, "host token embedded in {name}");
            assert_eq!(
                parts[2],
                std::process::id().to_string(),
                "pid embedded in {name}"
            );
            assert!(parts[3].parse::<u64>().is_ok(), "nonce in {name}");
        }
    }

    #[test]
    fn names_for_different_hosts_differ() {
        // Simulate the second host by hashing a different hostname the
        // way host_token does: equal inputs are the only way to equal
        // tokens, so two hosts collide only on a hostname collision —
        // and then pid+nonce still separate the files.
        let here = host_token();
        let elsewhere = sha256_hex(b"some-other-host")[..8].to_string();
        assert_ne!(here, elsewhere);
    }
}

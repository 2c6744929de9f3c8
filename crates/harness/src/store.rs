//! The append-only JSONL results store: a durable history of sweep
//! runs that new results diff against.
//!
//! One run is a `meta` line followed by one `row` line per sweep row,
//! in stable row order:
//!
//! ```text
//! {"kind":"meta","schema_version":4,"experiment":"fig12","axis":"level","scale":"eval","backend":"sim","git":"v0.1.0-3-gabc","timestamp":1700000000,"rows":48}
//! {"kind":"row","row":{"workload":"dekker","fence":"T",...}}
//! ...
//! ```
//!
//! `git` and `timestamp` are *injected* by the caller (the sweep
//! binary shells out to `git describe` and reads the clock; tests and
//! CI pass fixed values), so store bytes are deterministic whenever
//! the inputs are. A run is appended in a single buffered write after
//! it completes — interrupted sweeps write nothing, so resuming an
//! interrupted sweep yields a store byte-identical to an
//! uninterrupted one.
//!
//! On read, unparseable lines (a torn tail from a killed writer) are
//! counted and skipped, and a run whose meta line declares more rows
//! than actually follow it — a writer killed between kernel writes —
//! is dropped (`torn_runs`) rather than served as history. A
//! well-formed meta line with a different `schema_version` is an
//! error: silently comparing rows across schema generations is
//! exactly the bug the tag exists to prevent.

use crate::experiment::{SweepResult, SweepRow};
use crate::json::{self, Json};
use crate::session::SCHEMA_VERSION;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Experiment metadata stamped on every stored run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    pub experiment: String,
    /// Axis name (empty for axis-less experiments).
    pub axis: String,
    /// Problem scale the run used (`eval` / `small`). Part of the
    /// identity a diff matches on: cycle counts across scales are
    /// incomparable.
    pub scale: String,
    /// Execution backend the run used (`sim` / `functional` /
    /// `enumerative`, or `mixed` for `Axis::Backend` sweeps). Part of
    /// the identity a diff matches on for the same reason as `scale`:
    /// rows from different engines are incomparable.
    pub backend: String,
    /// `git describe` (or whatever provenance string the caller
    /// injects).
    pub git: String,
    /// Unix seconds, injected by the caller.
    pub timestamp: u64,
    pub schema_version: u64,
}

impl RunMeta {
    pub fn new(
        experiment: impl Into<String>,
        axis: impl Into<String>,
        scale: impl Into<String>,
        backend: impl Into<String>,
        git: impl Into<String>,
        timestamp: u64,
    ) -> RunMeta {
        RunMeta {
            experiment: experiment.into(),
            axis: axis.into(),
            scale: scale.into(),
            backend: backend.into(),
            git: git.into(),
            timestamp,
            schema_version: SCHEMA_VERSION,
        }
    }
}

/// One run read back from the store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRun {
    pub meta: RunMeta,
    pub rows: Vec<SweepRow>,
}

/// Everything a store read produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreContents {
    /// Runs in file (append) order.
    pub runs: Vec<StoredRun>,
    /// Unparseable lines skipped (torn tails, foreign garbage).
    pub skipped_lines: u64,
    /// Runs dropped because fewer rows followed the meta line than it
    /// declared — a writer killed mid-append. Never surfaced as data.
    pub torn_runs: u64,
}

/// An append-only JSONL file of sweep runs.
#[derive(Debug, Clone)]
pub struct ResultStore {
    path: PathBuf,
}

impl ResultStore {
    pub fn new(path: impl AsRef<Path>) -> ResultStore {
        ResultStore {
            path: path.as_ref().to_path_buf(),
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed run: the meta line plus every row, built
    /// as one buffer and written in a single call.
    pub fn append(&self, meta: &RunMeta, result: &SweepResult) -> std::io::Result<()> {
        let mut buf = String::new();
        let meta_line = Json::obj()
            .field("kind", "meta")
            .field("schema_version", meta.schema_version)
            .field("experiment", meta.experiment.as_str())
            .field("axis", meta.axis.as_str())
            .field("scale", meta.scale.as_str())
            .field("backend", meta.backend.as_str())
            .field("git", meta.git.as_str())
            .field("timestamp", meta.timestamp)
            .field("rows", result.rows.len())
            .to_string_compact();
        buf.push_str(&meta_line);
        buf.push('\n');
        for row in &result.rows {
            let row_line = Json::obj()
                .field("kind", "row")
                .field("row", row.to_json())
                .to_string_compact();
            buf.push_str(&row_line);
            buf.push('\n');
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(buf.as_bytes())?;
        file.flush()
    }

    /// Read the whole store. A missing file is an empty store; a
    /// mismatched `schema_version` on any meta line is an error.
    pub fn read(&self) -> Result<StoreContents, String> {
        let file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(StoreContents {
                    runs: Vec::new(),
                    skipped_lines: 0,
                    torn_runs: 0,
                })
            }
            Err(e) => return Err(format!("open {}: {e}", self.path.display())),
        };
        let mut runs: Vec<StoredRun> = Vec::new();
        // Row count each meta line declared, parallel to `runs`.
        let mut declared: Vec<u64> = Vec::new();
        let mut skipped = 0u64;
        for line in BufReader::new(file).lines() {
            let line = line.map_err(|e| format!("read {}: {e}", self.path.display()))?;
            if line.trim().is_empty() {
                continue;
            }
            let doc = match json::parse(&line) {
                Ok(doc) => doc,
                Err(_) => {
                    skipped += 1;
                    continue;
                }
            };
            match doc.get("kind").and_then(Json::as_str) {
                Some("meta") => {
                    // The one fatal case: a well-formed version tag
                    // that differs from ours. Anything else malformed
                    // about a meta line is foreign garbage — counted
                    // and skipped like any other unreadable line.
                    if let Some(version) = doc.get("schema_version").and_then(Json::as_u64) {
                        if version != SCHEMA_VERSION {
                            return Err(format!(
                                "store {} holds schema_version {version} (supported: {SCHEMA_VERSION})",
                                self.path.display()
                            ));
                        }
                    }
                    match parse_meta(&doc) {
                        Ok((meta, rows)) => {
                            declared.push(rows);
                            runs.push(StoredRun {
                                meta,
                                rows: Vec::new(),
                            });
                        }
                        Err(_) => skipped += 1,
                    }
                }
                Some("row") => match runs.last_mut() {
                    Some(run) => match doc.req("row").and_then(SweepRow::from_json) {
                        Ok(row) => run.rows.push(row),
                        Err(_) => skipped += 1,
                    },
                    // A row with no preceding meta: torn head.
                    None => skipped += 1,
                },
                _ => skipped += 1,
            }
        }
        // Drop runs whose meta declared more rows than followed: the
        // trace of a writer killed mid-append must never pass for a
        // complete run.
        let mut torn = 0u64;
        let runs = runs
            .into_iter()
            .zip(declared)
            .filter_map(|(run, want)| {
                if run.rows.len() as u64 == want {
                    Some(run)
                } else {
                    torn += 1;
                    None
                }
            })
            .collect();
        Ok(StoreContents {
            runs,
            skipped_lines: skipped,
            torn_runs: torn,
        })
    }

    /// Every stored run of `experiment` at `scale` on `backend`,
    /// most recent first — the comparable history of one experiment
    /// identity (cycle counts across scales or engines are
    /// incomparable, so those never mix). Its first entry is the
    /// default diff target; `--diff-run K` reaches the K-th.
    pub fn history_at(
        &self,
        experiment: &str,
        scale: &str,
        backend: &str,
    ) -> Result<Vec<StoredRun>, String> {
        Ok(self
            .read()?
            .runs
            .into_iter()
            .rev()
            .filter(|run| {
                run.meta.experiment == experiment
                    && run.meta.scale == scale
                    && run.meta.backend == backend
            })
            .collect())
    }
}

/// Parse a meta line into `(RunMeta, declared row count)`. The
/// schema_version has already been checked against ours.
fn parse_meta(doc: &Json) -> Result<(RunMeta, u64), String> {
    let meta = RunMeta {
        experiment: doc.req("experiment")?,
        axis: doc.req("axis")?,
        scale: doc.req("scale")?,
        backend: doc.req("backend")?,
        git: doc.req("git")?,
        timestamp: doc.req("timestamp")?,
        schema_version: doc.req("schema_version")?,
    };
    Ok((meta, doc.req("rows")?))
}

/// One row present in both runs whose numbers moved.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChange {
    pub old: SweepRow,
    pub new: SweepRow,
}

/// Row-level difference between two runs of the same experiment,
/// keyed by `(workload, fence, value)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepDiff {
    /// Rows only in the new run.
    pub added: Vec<SweepRow>,
    /// Rows only in the old run.
    pub removed: Vec<SweepRow>,
    /// Rows in both whose measurements differ.
    pub changed: Vec<RowChange>,
}

impl SweepDiff {
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }

    /// Human-readable one-line-per-entry rendering.
    pub fn to_report(&self) -> String {
        // Untimed rows (functional/enumerative cells) have no cycle
        // count to print.
        let fmt = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
        let mut out = String::new();
        for row in &self.removed {
            out += &format!(
                "- {} {} {}: {} cycles\n",
                row.workload,
                row.fence,
                row.value,
                fmt(row.cycles)
            );
        }
        for row in &self.added {
            out += &format!(
                "+ {} {} {}: {} cycles\n",
                row.workload,
                row.fence,
                row.value,
                fmt(row.cycles)
            );
        }
        for change in &self.changed {
            out += &format!(
                "~ {} {} {}: {} -> {} cycles, {} -> {} fence stalls\n",
                change.new.workload,
                change.new.fence,
                change.new.value,
                fmt(change.old.cycles),
                fmt(change.new.cycles),
                fmt(change.old.fence_stalls),
                fmt(change.new.fence_stalls),
            );
        }
        out
    }
}

/// Diff `new` against `old`, matching rows by
/// `(workload, fence, value)`.
pub fn diff_rows(old: &[SweepRow], new: &[SweepRow]) -> SweepDiff {
    let key = |r: &SweepRow| (r.workload.clone(), r.fence.clone(), r.value.clone());
    let mut diff = SweepDiff::default();
    for new_row in new {
        match old.iter().find(|o| key(o) == key(new_row)) {
            None => diff.added.push(new_row.clone()),
            Some(old_row) => {
                if old_row != new_row {
                    diff.changed.push(RowChange {
                        old: old_row.clone(),
                        new: new_row.clone(),
                    });
                }
            }
        }
    }
    for old_row in old {
        if !new.iter().any(|n| key(n) == key(old_row)) {
            diff.removed.push(old_row.clone());
        }
    }
    diff
}

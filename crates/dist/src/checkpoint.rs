//! Coordinator checkpointing: the daemon's whole scheduling state as
//! an atomic-rename JSONL snapshot, so a killed-and-restarted
//! coordinator resumes every in-flight campaign instead of
//! restarting the world.
//!
//! The state is small by design — campaign table, each campaign's
//! `JobQueue` (done rows + indices; leases are *not* persisted, they
//! reload as pending and get re-leased), and the fair-share served
//! counts. Workers keep their local result caches, so replaying a
//! cell that finished after the last checkpoint is a cache hit, not
//! lost compute.
//!
//! # File format
//!
//! One JSON object per line:
//!
//! ```text
//! {"type":"server","checkpoint_version":1,"schema_version":N,"next_campaign":N}
//! {"type":"campaign","id":N,"spec":{...},"priority":N,"served":N,"fingerprint":"...","job_count":N,"queue":{...}}
//! ...
//! {"type":"end","campaigns":K}
//! ```
//!
//! The trailing `end` line is the torn-write detector: a snapshot
//! whose campaign-line count doesn't match its end marker (or that
//! lacks the marker entirely) was interrupted mid-write and is
//! rejected.
//!
//! # Atomicity
//!
//! [`save`] writes `<path>.tmp`, fsyncs it, rotates the current
//! snapshot to `<path>.prev`, then renames the temp file into place.
//! A crash at any point leaves either the old snapshot, the old
//! snapshot plus a garbage `.tmp`, or the new snapshot — and [`load`]
//! falls back to `.prev` when the main file is torn, so the worst
//! outcome of a badly-timed kill is resuming from the previous
//! checkpoint interval.
//!
//! A daemon renders its snapshot under its state lock but writes it
//! with the lock released, so lease, result and status traffic never
//! waits on a write or an fsync. [`SnapshotWriter`] serializes those
//! writes and numbers the renders: a render older than the newest
//! durable snapshot is dropped, never written over it.
//!
//! When [`load`] does fall back, the torn main file is quarantined to
//! `<path>.torn` right then (kept for post-mortem, replaced on the
//! next fallback). Leaving it in place would be a trap: the first
//! post-recovery [`save`] would rotate the torn file over `.prev` —
//! the only good snapshot — and a crash between its two renames
//! would then leave nothing loadable.

use crate::spec::ExperimentSpec;
use sfence_harness::json::{self, Json};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Bumped when the snapshot layout changes incompatibly. Old
/// snapshots are rejected with a clear error rather than mis-read.
pub const CHECKPOINT_VERSION: u64 = 1;

/// One campaign's persisted state.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSnapshot {
    pub id: u64,
    pub spec: ExperimentSpec,
    pub priority: u64,
    /// Fair-share cells served, so scheduling resumes deterministically.
    pub served: u64,
    /// The fingerprint the spec resolved to when submitted; the
    /// restoring binary must resolve to the same one or the done rows
    /// can't be trusted.
    pub fingerprint: String,
    pub job_count: u64,
    /// `JobQueue::to_json` output: done `(index, row)` pairs + leased
    /// indices (reloaded as pending).
    pub queue: Json,
}

/// Everything a coordinator needs to resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub schema_version: u64,
    pub next_campaign: u64,
    pub campaigns: Vec<CampaignSnapshot>,
}

/// A successfully loaded snapshot, flagged when it came from the
/// `.prev` fallback instead of the main file.
#[derive(Debug)]
pub struct LoadedSnapshot {
    pub snapshot: Snapshot,
    pub fallback: bool,
}

fn prev_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".prev");
    std::path::PathBuf::from(name)
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    std::path::PathBuf::from(name)
}

fn torn_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".torn");
    std::path::PathBuf::from(name)
}

/// Move an unreadable main snapshot aside so a later [`save`] cannot
/// rotate it over the good `.prev`. Failure is an error, not a
/// shrug: proceeding with the torn file in place risks the only good
/// snapshot.
fn quarantine_torn(path: &Path) -> Result<(), String> {
    fs::rename(path, torn_path(path)).map_err(|e| {
        format!(
            "cannot quarantine torn checkpoint {} to {}: {e}",
            path.display(),
            torn_path(path).display()
        )
    })
}

impl Snapshot {
    fn render(&self) -> String {
        let mut out = String::new();
        let header = Json::obj()
            .field("type", "server")
            .field("checkpoint_version", CHECKPOINT_VERSION)
            .field("schema_version", self.schema_version)
            .field("next_campaign", self.next_campaign);
        out.push_str(&header.to_string_compact());
        out.push('\n');
        for c in &self.campaigns {
            let line = Json::obj()
                .field("type", "campaign")
                .field("id", c.id)
                .field("spec", c.spec.to_json())
                .field("priority", c.priority)
                .field("served", c.served)
                .field("fingerprint", c.fingerprint.as_str())
                .field("job_count", c.job_count)
                .field("queue", c.queue.clone());
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        let end = Json::obj()
            .field("type", "end")
            .field("campaigns", self.campaigns.len());
        out.push_str(&end.to_string_compact());
        out.push('\n');
        out
    }

    fn parse(text: &str) -> Result<Snapshot, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines.next().ok_or("snapshot is empty")?;
        let header = json::parse(header_line).map_err(|e| format!("bad header: {e}"))?;
        if header.opt::<&str>("type") != Ok(Some("server")) {
            return Err("first line is not a server header".into());
        }
        let version: u64 = header.req("checkpoint_version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {version} (this binary reads {CHECKPOINT_VERSION})"
            ));
        }
        let schema_version = header.req("schema_version")?;
        let next_campaign = header.req("next_campaign")?;
        let mut campaigns = Vec::new();
        let mut ended = false;
        for line in lines {
            if ended {
                return Err("content after the end marker".into());
            }
            let doc = json::parse(line).map_err(|e| format!("bad line: {e}"))?;
            match doc.opt::<&str>("type")? {
                Some("campaign") => campaigns.push(CampaignSnapshot {
                    id: doc.req("id")?,
                    spec: ExperimentSpec::from_json(doc.req("spec")?)?,
                    priority: doc.req("priority")?,
                    served: doc.req("served")?,
                    fingerprint: doc.req("fingerprint")?,
                    job_count: doc.req("job_count")?,
                    queue: doc.req::<&Json>("queue")?.clone(),
                }),
                Some("end") => {
                    let count: usize = doc.req("campaigns")?;
                    if count != campaigns.len() {
                        return Err(format!(
                            "end marker says {count} campaigns, found {}",
                            campaigns.len()
                        ));
                    }
                    ended = true;
                }
                other => return Err(format!("unexpected line type {other:?}")),
            }
        }
        if !ended {
            return Err("snapshot has no end marker (torn write)".into());
        }
        Ok(Snapshot {
            schema_version,
            next_campaign,
            campaigns,
        })
    }
}

/// Write `snapshot` to `path` atomically: temp file + fsync, rotate
/// the old snapshot to `.prev`, rename into place.
pub fn save(path: &Path, snapshot: &Snapshot) -> Result<(), String> {
    let tmp = tmp_path(path);
    {
        let mut file =
            fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        file.write_all(snapshot.render().as_bytes())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        file.sync_all()
            .map_err(|e| format!("sync {}: {e}", tmp.display()))?;
    }
    if path.exists() {
        fs::rename(path, prev_path(path)).map_err(|e| format!("rotate {}: {e}", path.display()))?;
    }
    fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", tmp.display()))
}

/// [`save`]s snapshots rendered under the daemon's state lock but
/// written outside it, one write at a time and newest-wins. Each
/// render is numbered in the order it was taken (under the lock, so a
/// higher number holds every mutation a lower one does); a render
/// older than the newest durable snapshot is dropped.
pub struct SnapshotWriter {
    path: PathBuf,
    /// Number of the newest durable snapshot (0 = none yet). Held
    /// through each write, so writes never overlap.
    durable: Mutex<u64>,
}

impl SnapshotWriter {
    pub fn new(path: impl Into<PathBuf>) -> SnapshotWriter {
        SnapshotWriter {
            path: path.into(),
            durable: Mutex::new(0),
        }
    }

    /// Save `snapshot`, the render numbered `seq`. `Ok(false)` means
    /// a newer render is already durable, which covers this one; an
    /// error leaves the newest durable snapshot in place.
    pub fn save(&self, seq: u64, snapshot: &Snapshot) -> Result<bool, String> {
        let mut durable = self.durable.lock().unwrap();
        if seq <= *durable {
            return Ok(false);
        }
        save(&self.path, snapshot)?;
        *durable = seq;
        Ok(true)
    }
}

/// Load the snapshot at `path`, falling back to `<path>.prev` if the
/// main file is torn or unreadable — in which case the torn main is
/// quarantined to `<path>.torn` so a subsequent [`save`] cannot
/// rotate it over the good `.prev`. `Ok(None)` means no snapshot
/// exists at all (a fresh daemon). `Err` means snapshots exist but
/// none is readable — the operator must intervene rather than
/// silently restart the world.
pub fn load(path: &Path) -> Result<Option<LoadedSnapshot>, String> {
    let main = read_snapshot(path);
    match main {
        Some(Ok(snapshot)) => Ok(Some(LoadedSnapshot {
            snapshot,
            fallback: false,
        })),
        Some(Err(main_err)) => match read_snapshot(&prev_path(path)) {
            Some(Ok(snapshot)) => {
                quarantine_torn(path)?;
                Ok(Some(LoadedSnapshot {
                    snapshot,
                    fallback: true,
                }))
            }
            Some(Err(prev_err)) => Err(format!(
                "checkpoint {} unreadable ({main_err}); fallback {} also unreadable ({prev_err})",
                path.display(),
                prev_path(path).display()
            )),
            None => Err(format!(
                "checkpoint {} unreadable ({main_err}) and no fallback exists",
                path.display()
            )),
        },
        None => match read_snapshot(&prev_path(path)) {
            Some(Ok(snapshot)) => Ok(Some(LoadedSnapshot {
                snapshot,
                fallback: true,
            })),
            Some(Err(prev_err)) => Err(format!(
                "no checkpoint at {} and fallback {} is unreadable ({prev_err})",
                path.display(),
                prev_path(path).display()
            )),
            None => Ok(None),
        },
    }
}

/// `None` = file absent; `Some(Err)` = present but unreadable/torn.
fn read_snapshot(path: &Path) -> Option<Result<Snapshot, String>> {
    match fs::read_to_string(path) {
        Ok(text) => Some(Snapshot::parse(&text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => Some(Err(format!("read {}: {e}", path.display()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(next: u64, ids: &[u64]) -> Snapshot {
        Snapshot {
            schema_version: 4,
            next_campaign: next,
            campaigns: ids
                .iter()
                .map(|&id| CampaignSnapshot {
                    id,
                    spec: ExperimentSpec::new("smoke"),
                    priority: id,
                    served: id * 10,
                    fingerprint: format!("fp-{id}"),
                    job_count: 8,
                    queue: Json::obj()
                        .field("jobs", 8u64)
                        .field("done", Json::Arr(vec![]))
                        .field("leased", Json::Arr(vec![])),
                })
                .collect(),
        }
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sfence-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshots_round_trip() {
        let snap = snapshot(5, &[1, 3]);
        let parsed = Snapshot::parse(&snap.render()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn save_load_and_prev_rotation() {
        let dir = tmp_dir("rotate");
        let path = dir.join("ckpt.jsonl");
        let s1 = snapshot(2, &[1]);
        let s2 = snapshot(3, &[1, 2]);
        save(&path, &s1).unwrap();
        save(&path, &s2).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert!(!loaded.fallback);
        assert_eq!(loaded.snapshot, s2);
        // s1 rotated to .prev intact.
        let prev = read_snapshot(&prev_path(&path)).unwrap().unwrap();
        assert_eq!(prev, s1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_main_snapshot_falls_back_to_prev() {
        let dir = tmp_dir("torn");
        let path = dir.join("ckpt.jsonl");
        let s1 = snapshot(2, &[1]);
        let s2 = snapshot(3, &[1, 2]);
        save(&path, &s1).unwrap();
        save(&path, &s2).unwrap();
        // Tear the main file: drop its end marker.
        let text = fs::read_to_string(&path).unwrap();
        let torn: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        fs::write(&path, torn).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert!(loaded.fallback, "fell back to .prev");
        assert_eq!(loaded.snapshot, s1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fallback_quarantines_torn_main_so_the_next_save_keeps_prev_good() {
        let dir = tmp_dir("quarantine");
        let path = dir.join("ckpt.jsonl");
        let s1 = snapshot(2, &[1]);
        let s2 = snapshot(3, &[1, 2]);
        let s3 = snapshot(4, &[1, 2, 3]);
        save(&path, &s1).unwrap();
        save(&path, &s2).unwrap();
        // Tear the main file, then load: the fallback must move the
        // torn main aside...
        let torn: String = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .take(2)
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(&path, &torn).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert!(loaded.fallback);
        assert_eq!(loaded.snapshot, s1);
        assert!(!path.exists(), "torn main moved out of the rotation path");
        assert_eq!(fs::read_to_string(torn_path(&path)).unwrap(), torn);
        // ...so the first post-recovery save does not rotate garbage
        // over the only good snapshot: .prev still parses (it keeps
        // s1; rotation was skipped because main was quarantined).
        save(&path, &s3).unwrap();
        let prev = read_snapshot(&prev_path(&path)).unwrap().unwrap();
        assert_eq!(prev, s1);
        let loaded = load(&path).unwrap().unwrap();
        assert!(!loaded.fallback);
        assert_eq!(loaded.snapshot, s3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_render_never_replaces_a_newer_snapshot() {
        // Two renders race to the writer and the newer one wins: the
        // older, arriving second, must not overwrite it.
        let dir = tmp_dir("stale");
        let path = dir.join("ckpt.jsonl");
        let writer = SnapshotWriter::new(&path);
        let (older, newer) = (snapshot(2, &[1]), snapshot(3, &[1, 2]));
        assert!(writer.save(2, &newer).unwrap());
        assert!(!writer.save(1, &older).unwrap(), "stale render dropped");
        assert!(!writer.save(2, &older).unwrap(), "a render saves once");
        assert_eq!(load(&path).unwrap().unwrap().snapshot, newer);
        assert!(!prev_path(&path).exists(), "nothing rotated");
        // A later render still lands.
        let latest = snapshot(4, &[1, 2, 3]);
        assert!(writer.save(3, &latest).unwrap());
        assert_eq!(load(&path).unwrap().unwrap().snapshot, latest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_lets_an_older_render_through() {
        // Only durable snapshots count: after a failed write of render
        // 2, render 1 is still newer than anything on disk.
        let dir = tmp_dir("failed");
        let path = dir.join("ckpt.jsonl");
        let writer = SnapshotWriter::new(&path);
        fs::create_dir(tmp_path(&path)).unwrap(); // the temp file cannot be created
        assert!(writer.save(2, &snapshot(3, &[1, 2])).is_err());
        fs::remove_dir(tmp_path(&path)).unwrap();
        let older = snapshot(2, &[1]);
        assert!(writer.save(1, &older).unwrap());
        assert_eq!(load(&path).unwrap().unwrap().snapshot, older);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_snapshots_torn_is_an_error_not_a_fresh_start() {
        let dir = tmp_dir("both-torn");
        let path = dir.join("ckpt.jsonl");
        save(&path, &snapshot(2, &[1])).unwrap();
        save(&path, &snapshot(3, &[1, 2])).unwrap();
        fs::write(&path, "garbage\n").unwrap();
        fs::write(prev_path(&path), "also garbage\n").unwrap();
        assert!(load(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_is_a_fresh_start() {
        let dir = tmp_dir("fresh");
        assert!(load(&dir.join("ckpt.jsonl")).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_marker_count_mismatch_is_torn() {
        let snap = snapshot(3, &[1, 2]);
        let mut text: Vec<String> = snap.render().lines().map(str::to_string).collect();
        text.remove(1); // drop one campaign line, keep the end marker
        let joined = text.join("\n");
        let err = Snapshot::parse(&joined).unwrap_err();
        assert!(err.contains("end marker says"), "{err}");
    }
}

//! Leveled, structured JSONL event logging for long-lived services.
//!
//! An [`EventLog`] fans each event out to three sinks:
//!
//! 1. **stderr** — a human-readable `prefix: event k=v ...` line,
//!    gated by a level (or fully silent), preserving the ergonomics
//!    of the ad-hoc `eprintln!` sites it replaces;
//! 2. **a rotated JSONL file** — one schema-versioned record per
//!    line ([`LOG_SCHEMA_VERSION`]), with monotonic sequence numbers
//!    and size-based rotation `log.jsonl` → `log.jsonl.1..N`, flushed
//!    per line so a `kill -9` never leaves a torn tail;
//! 3. **a flight recorder** — a bounded [`EventRing`] of recent
//!    events at every level, serializable on demand (`debug_dump`
//!    frame) or from a panic hook.
//!
//! The file and ring are structured; stderr is presentation. All
//! three see the same [`Event`] with the same sequence number.

use crate::ring::EventRing;
use sfence_harness::json::{self, FromJson, Json};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version tag stamped into every JSONL record (`"v"` field). Bump on
/// any incompatible change to the record shape.
pub const LOG_SCHEMA_VERSION: u64 = 1;

/// Default rotation threshold for event/metrics logs (8 MiB).
pub const DEFAULT_LOG_MAX_BYTES: u64 = 8 * 1024 * 1024;

/// Default number of rotated files kept beside the live one.
pub const DEFAULT_LOG_MAX_FILES: usize = 4;

/// Severity, ordered most- to least-severe so `level <= threshold`
/// means "enabled at this threshold".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    Error,
    Warn,
    Info,
    Debug,
}

impl LogLevel {
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "error" => Some(LogLevel::Error),
            "warn" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }
}

/// One structured log record: what lands on every sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic per-logger sequence number, assigned under the log
    /// lock — gaps in a file mean records were lost, reordering means
    /// a reader bug.
    pub seq: u64,
    /// Milliseconds since the logger was created (monotonic clock).
    pub t_ms: u64,
    pub level: LogLevel,
    /// Event type tag, e.g. `"lease"`, `"auth_reject"`.
    pub event: String,
    /// Key/value context, in call-site order.
    pub fields: Vec<(String, String)>,
}

impl Event {
    pub fn to_json(&self) -> Json {
        let mut fields = Json::obj();
        for (k, v) in &self.fields {
            fields = fields.field(k, v.as_str());
        }
        Json::obj()
            .field("v", LOG_SCHEMA_VERSION)
            .field("seq", self.seq)
            .field("t_ms", self.t_ms)
            .field("level", self.level.name())
            .field("event", self.event.as_str())
            .field("fields", fields)
    }

    /// Parse one JSONL line.
    pub fn parse_line(line: &str) -> Result<Event, String> {
        Event::from_json(&json::parse(line)?)
    }

    /// Human rendering: `event k=v k=v` (no prefix, no timestamp).
    pub fn render(&self) -> String {
        let mut out = self.event.clone();
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out
    }
}

/// Parse one record, rejecting other schema versions.
impl FromJson<'_> for Event {
    fn from_json(json: &Json) -> Result<Event, String> {
        let v: u64 = json.req("v")?;
        if v != LOG_SCHEMA_VERSION {
            return Err(format!("log schema v{v} (supported: {LOG_SCHEMA_VERSION})"));
        }
        Ok(Event {
            seq: json.req("seq")?,
            t_ms: json.req("t_ms")?,
            level: LogLevel::parse(json.req("level")?).ok_or("unknown level")?,
            event: json.req("event")?,
            fields: json.req("fields")?,
        })
    }
}

/// Append-only line writer with size-based rotation: when the next
/// line would push the live file past `max_bytes`, `path` is shifted
/// to `path.1` (existing `.k` shift to `.k+1`, the oldest beyond
/// `max_files` is deleted) and a fresh file is started. Every line is
/// flushed, so readers after a crash see complete records only.
pub struct RotatingWriter {
    path: PathBuf,
    max_bytes: u64,
    max_files: usize,
    file: File,
    written: u64,
}

impl RotatingWriter {
    pub fn open(path: &Path, max_bytes: u64, max_files: usize) -> std::io::Result<RotatingWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let written = file.metadata()?.len();
        Ok(RotatingWriter {
            path: path.to_path_buf(),
            max_bytes: max_bytes.max(1),
            max_files: max_files.max(1),
            file,
            written,
        })
    }

    fn rotated(&self, k: usize) -> PathBuf {
        let mut s = self.path.as_os_str().to_os_string();
        s.push(format!(".{k}"));
        PathBuf::from(s)
    }

    fn rotate(&mut self) -> std::io::Result<()> {
        let _ = std::fs::remove_file(self.rotated(self.max_files));
        for k in (1..self.max_files).rev() {
            let _ = std::fs::rename(self.rotated(k), self.rotated(k + 1));
        }
        self.file.flush()?;
        std::fs::rename(&self.path, self.rotated(1))?;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        self.written = 0;
        Ok(())
    }

    pub fn append_line(&mut self, line: &str) -> std::io::Result<()> {
        let len = line.len() as u64 + 1;
        if self.written > 0 && self.written + len > self.max_bytes {
            self.rotate()?;
        }
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.written += len;
        Ok(())
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

struct LogInner {
    seq: u64,
    writer: Option<RotatingWriter>,
    ring: EventRing,
}

/// The leveled logger. Cheap to share (`Arc<EventLog>`); all state
/// sits behind one mutex, and call sites format a handful of small
/// strings per *protocol frame*, never per simulated cycle — the
/// simulator's zero-cost-when-off contract is untouched.
pub struct EventLog {
    prefix: String,
    stderr_level: Option<LogLevel>,
    file_level: LogLevel,
    start: Instant,
    inner: Mutex<LogInner>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("prefix", &self.prefix)
            .field("stderr_level", &self.stderr_level)
            .field("file_level", &self.file_level)
            .finish_non_exhaustive()
    }
}

impl EventLog {
    /// A stderr-only logger (no file sink; the ring still records).
    /// `stderr_level: None` silences stderr entirely (`--quiet`).
    pub fn to_stderr(prefix: &str, stderr_level: Option<LogLevel>) -> EventLog {
        EventLog {
            prefix: prefix.to_string(),
            stderr_level,
            file_level: LogLevel::Debug,
            start: Instant::now(),
            inner: Mutex::new(LogInner {
                seq: 0,
                writer: None,
                ring: EventRing::default(),
            }),
        }
    }

    /// A logger with a rotated JSONL file sink at `file_level` plus
    /// the stderr sink.
    pub fn with_file(
        prefix: &str,
        stderr_level: Option<LogLevel>,
        file_level: LogLevel,
        path: &Path,
        max_bytes: u64,
        max_files: usize,
    ) -> std::io::Result<EventLog> {
        let writer = RotatingWriter::open(path, max_bytes, max_files)?;
        let mut log = EventLog::to_stderr(prefix, stderr_level);
        log.file_level = file_level;
        log.inner.get_mut().expect("fresh lock").writer = Some(writer);
        Ok(log)
    }

    /// Record one event on every applicable sink.
    pub fn log(&self, level: LogLevel, event: &str, fields: &[(&str, &str)]) {
        let t_ms = self.start.elapsed().as_millis() as u64;
        let owned: Vec<(String, String)> = fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let ev = {
            let mut inner = self.inner.lock().expect("log lock");
            let ev = Event {
                seq: inner.seq,
                t_ms,
                level,
                event: event.to_string(),
                fields: owned,
            };
            inner.seq += 1;
            inner.ring.push(ev.clone());
            if level <= self.file_level {
                if let Some(writer) = inner.writer.as_mut() {
                    if let Err(e) = writer.append_line(&ev.to_json().to_string_compact()) {
                        // Reported once, then the sink is dropped
                        // rather than spamming.
                        inner.writer = None;
                        eprintln!("{}: event log sink failed, disabling it: {e}", self.prefix);
                    }
                }
            }
            ev
        };
        if self.stderr_level.is_some_and(|t| level <= t) {
            eprintln!("{}: {}", self.prefix, ev.render());
        }
    }

    pub fn error(&self, event: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Error, event, fields);
    }

    pub fn warn(&self, event: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Warn, event, fields);
    }

    pub fn info(&self, event: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Info, event, fields);
    }

    pub fn debug(&self, event: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Debug, event, fields);
    }

    /// Oldest-to-newest copy of the flight-recorder window.
    pub fn recent(&self) -> Vec<Event> {
        self.inner.lock().expect("log lock").ring.to_vec()
    }

    /// The flight-recorder window plus how many events aged out of
    /// the ring before it (what a `debug_dump` reply reports).
    pub fn recent_with_dropped(&self) -> (Vec<Event>, u64) {
        let inner = self.inner.lock().expect("log lock");
        let events = inner.ring.to_vec();
        let dropped = inner.ring.total() - events.len() as u64;
        (events, dropped)
    }

    /// The flight recorder as JSONL, one record per line — the
    /// payload of a `debug_dump` frame or a panic-hook dump.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.recent() {
            out.push_str(&ev.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }
}

/// Install a panic hook that dumps `log`'s flight recorder before the
/// default hook runs: to `path` when given (truncating — the dump is
/// the post-mortem artifact, not a log), else to stderr. Meant for
/// daemon `main`s; the hook is global and lives for the process.
pub fn install_panic_dump(log: Arc<EventLog>, path: Option<PathBuf>) {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let dump = log.dump_jsonl();
        match &path {
            Some(p) => {
                if std::fs::write(p, &dump).is_ok() {
                    eprintln!("panic: flight recorder dumped to {}", p.display());
                } else {
                    eprint!("panic: flight recorder follows\n{dump}");
                }
            }
            None => eprint!("panic: flight recorder follows\n{dump}"),
        }
        default(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sfence-obs-log-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Debug);
        assert_eq!(LogLevel::parse("warn"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("WARN"), None);
        for l in [
            LogLevel::Error,
            LogLevel::Warn,
            LogLevel::Info,
            LogLevel::Debug,
        ] {
            assert_eq!(LogLevel::parse(l.name()), Some(l));
        }
    }

    #[test]
    fn event_round_trips_and_rejects_other_schema() {
        let ev = Event {
            seq: 7,
            t_ms: 123,
            level: LogLevel::Warn,
            event: "auth_reject".to_string(),
            fields: vec![("conn".to_string(), "3".to_string())],
        };
        let line = ev.to_json().to_string_compact();
        assert_eq!(Event::parse_line(&line).unwrap(), ev);
        let bad = line.replace("\"v\":1", "\"v\":9");
        assert!(Event::parse_line(&bad).unwrap_err().contains("schema"));
        assert_eq!(ev.render(), "auth_reject conn=3");
    }

    #[test]
    fn file_sink_writes_parseable_records_with_monotonic_seq() {
        let dir = scratch("file");
        let path = dir.join("log.jsonl");
        let log = EventLog::with_file("t", None, LogLevel::Debug, &path, DEFAULT_LOG_MAX_BYTES, 2)
            .unwrap();
        log.info("submit", &[("campaign", "c1")]);
        log.debug("frame", &[]);
        log.error("checkpoint_fail", &[("err", "disk full")]);
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = text
            .lines()
            .map(|l| Event::parse_line(l).unwrap())
            .collect();
        assert_eq!(events.len(), 3);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(
            events[2].fields[0],
            ("err".to_string(), "disk full".to_string())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_level_filters_but_ring_keeps_everything() {
        let dir = scratch("level");
        let path = dir.join("log.jsonl");
        let log = EventLog::with_file("t", None, LogLevel::Warn, &path, DEFAULT_LOG_MAX_BYTES, 2)
            .unwrap();
        log.info("lease", &[]);
        log.warn("handshake_drop", &[]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "info filtered from the file");
        assert_eq!(log.recent().len(), 2, "ring records every level");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_shifts_files_and_keeps_every_record_parseable() {
        let dir = scratch("rotate");
        let path = dir.join("log.jsonl");
        // Tiny threshold: every record is ~90 bytes, so a handful of
        // writes forces several rotations with max_files = 2.
        let log = EventLog::with_file("t", None, LogLevel::Debug, &path, 200, 2).unwrap();
        for i in 0..12 {
            log.info("tick", &[("i", &i.to_string())]);
        }
        let live = std::fs::read_to_string(&path).unwrap();
        let r1 = std::fs::read_to_string(dir.join("log.jsonl.1")).unwrap();
        assert!(dir.join("log.jsonl.2").exists());
        assert!(
            !dir.join("log.jsonl.3").exists(),
            "rotation keeps at most max_files"
        );
        let mut seqs = Vec::new();
        for line in r1.lines().chain(live.lines()) {
            seqs.push(Event::parse_line(line).unwrap().seq);
        }
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "seq monotonic across the rotation boundary: {seqs:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_is_jsonl_of_the_recent_window() {
        let log = EventLog::to_stderr("t", None);
        log.info("a", &[]);
        log.warn("b", &[("k", "v")]);
        let dump = log.dump_jsonl();
        let events: Vec<Event> = dump
            .lines()
            .map(|l| Event::parse_line(l).unwrap())
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].event, "b");
    }
}

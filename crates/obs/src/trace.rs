//! Chrome `trace_event` export of the simulator's pipeline event
//! stream.
//!
//! The mapping: one traced *job* (a workload × config cell) becomes
//! one trace process (`pid` = job index, named by a `process_name`
//! metadata event), each simulated core becomes one thread (`tid` =
//! core id), and the simulated cycle count is used directly as the
//! timestamp (`ts` — the viewer labels it microseconds; read "µs" as
//! "cycles"). Directory walks know their duration and render as
//! complete (`"ph":"X"`) spans; everything else is an instant event
//! (`"ph":"i"`, thread-scoped).
//!
//! Output bytes are a pure function of the event streams: jobs are
//! emitted in index order, each stream is already `(cycle, core)`
//! sorted by the simulator, and the JSON writer preserves insertion
//! order. A fixed seed therefore produces byte-identical traces
//! regardless of `--threads` — `sfence-bench`'s `trace_determinism`
//! test compares the files byte for byte.

use sfence_core::{PipeEvent, PipeKind};
use sfence_harness::Json;
use std::io::Write as _;
use std::path::Path;

fn event_args(kind: &PipeKind) -> Json {
    match *kind {
        PipeKind::Fetch { seq, pc }
        | PipeKind::Issue { seq, pc }
        | PipeKind::Retire { seq, pc } => Json::obj().field("seq", seq).field("pc", pc),
        PipeKind::FenceDispatch { pc, scoped } => {
            Json::obj().field("pc", pc).field("scoped", scoped)
        }
        PipeKind::FenceComplete { pc } | PipeKind::Degrade { pc } => Json::obj().field("pc", pc),
        PipeKind::Overflow { seq } => Json::obj().field("seq", seq),
        PipeKind::Recovery { from_seq } => Json::obj().field("from_seq", from_seq),
        PipeKind::DirWalk {
            addr, write, walk, ..
        } => Json::obj()
            .field("addr", addr)
            .field("write", write)
            .field("walk", walk.name()),
    }
}

fn event_json(pid: usize, ev: &PipeEvent) -> Json {
    let base = Json::obj()
        .field("name", ev.kind.name())
        .field("cat", "pipe")
        .field("pid", pid)
        .field("tid", ev.core)
        .field("ts", ev.cycle);
    match ev.kind {
        PipeKind::DirWalk { latency, .. } => base
            .field("ph", "X")
            .field("dur", latency)
            .field("args", event_args(&ev.kind)),
        _ => base
            .field("ph", "i")
            .field("s", "t")
            .field("args", event_args(&ev.kind)),
    }
}

/// Render traced jobs as one Chrome `trace_event` document
/// (`{"traceEvents":[...]}` object form).
pub fn chrome_trace(jobs: &[(String, Vec<PipeEvent>)]) -> Json {
    let mut events = Vec::new();
    for (pid, (label, _)) in jobs.iter().enumerate() {
        events.push(
            Json::obj()
                .field("name", "process_name")
                .field("ph", "M")
                .field("pid", pid)
                .field("tid", 0u64)
                .field("args", Json::obj().field("name", label.as_str())),
        );
    }
    for (pid, (_, stream)) in jobs.iter().enumerate() {
        for ev in stream {
            events.push(event_json(pid, ev));
        }
    }
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ns")
}

/// Write the trace to `path`, one event per line for greppability
/// (still a single valid JSON document; a trailing newline ends the
/// file). The viewer and the byte-compare both accept exactly these
/// bytes.
pub fn write_chrome_trace(path: &Path, jobs: &[(String, Vec<PipeEvent>)]) -> std::io::Result<()> {
    let doc = chrome_trace(jobs);
    let mut out = String::from("{\"traceEvents\":[\n");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("chrome_trace emits traceEvents");
    for (i, ev) in events.iter().enumerate() {
        out.push_str(&ev.to_string_compact());
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfence_core::WalkKind;

    fn sample() -> Vec<(String, Vec<PipeEvent>)> {
        vec![(
            "mp/S".to_string(),
            vec![
                PipeEvent {
                    core: 0,
                    cycle: 1,
                    kind: PipeKind::Fetch { seq: 0, pc: 0 },
                },
                PipeEvent {
                    core: 1,
                    cycle: 3,
                    kind: PipeKind::DirWalk {
                        addr: 64,
                        write: true,
                        walk: WalkKind::MemMiss,
                        latency: 300,
                    },
                },
            ],
        )]
    }

    #[test]
    fn trace_is_valid_json_with_expected_shape() {
        let doc = chrome_trace(&sample());
        let text = doc.to_string_compact();
        let back = sfence_harness::json::parse(&text).unwrap();
        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 1 process_name metadata + 2 events.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[2].get("dur").and_then(Json::as_u64), Some(300));
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("walk"))
                .and_then(Json::as_str),
            Some("mem_miss")
        );
    }

    #[test]
    fn written_file_parses_and_is_deterministic() {
        let dir = std::env::temp_dir().join(format!("obs-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        write_chrome_trace(&a, &sample()).unwrap();
        write_chrome_trace(&b, &sample()).unwrap();
        let bytes_a = std::fs::read(&a).unwrap();
        assert_eq!(bytes_a, std::fs::read(&b).unwrap());
        sfence_harness::json::parse(std::str::from_utf8(&bytes_a).unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

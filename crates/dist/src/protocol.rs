//! The wire protocol: length-prefixed JSON frames over a TCP stream.
//!
//! The container carries no external crates, so framing is
//! hand-rolled: each frame is a 4-byte big-endian payload length
//! followed by that many bytes of compact JSON (`harness::json`). A
//! frame larger than [`MAX_FRAME`] bytes, a truncated frame, invalid
//! JSON, or a message shape the receiver doesn't recognize is a
//! *torn frame* ([`FrameError::Torn`]) — the peer that produced it is
//! disconnected (and, on the coordinator, its leases are returned to
//! the pool); torn input never panics either side and never drops
//! completed rows.
//!
//! Protocol v3 turned the coordinator into a long-lived,
//! multi-campaign daemon: every lease and result frame carries a
//! *campaign id*, clients other than workers exist (`submit`,
//! `fetch`, `status_request`), and every client-opening message
//! carries an optional shared auth token (checked with a
//! constant-time compare server-side; see `server::token_matches`).
//! [`Msg::token`] is the one list of the messages that may open a
//! connection.
//!
//! Worker flow (worker connects to coordinator):
//!
//! | direction | message | meaning |
//! |---|---|---|
//! | w → c | `hello`     | protocol + schema version, worker name, auth token |
//! | c → w | `welcome`   | handshake accepted; lease TTL for heartbeat pacing |
//! | c → w | `reject`    | handshake refused (version mismatch, bad token) |
//! | w → c | `request`   | ask for work; `batch` cells wanted (0 = server default) |
//! | c → w | `lease`     | campaign id, its spec + fingerprint, leased job indices |
//! | c → w | `wait`      | nothing pending right now; re-request after `ms` |
//! | c → w | `done`      | daemon shutting down |
//! | w → c | `result`    | completed indexed rows for one campaign + cache accounting |
//! | w → c | `abort`     | worker cannot run a leased spec (unknown experiment, drift) |
//! | w → c | `heartbeat` | keep-alive; extends this worker's leases |
//!
//! Unlike v2, the spec rides on every `lease` (workers resolve and
//! fingerprint-check each campaign the first time they see its id),
//! so one worker serves any number of concurrent campaigns.
//!
//! Submit/fetch flows (one request per connection, then close):
//!
//! | direction | message | meaning |
//! |---|---|---|
//! | s → c | `submit`          | auth token, experiment spec, priority weight |
//! | c → s | `submitted`       | the new campaign's id, job count, fingerprint |
//! | f → c | `fetch`           | ask after one campaign by id |
//! | c → f | `campaign_status` | running: progress counts; complete: follows the rows |
//! | c → f | `result`          | completed campaign's rows, chunked, before `campaign_status` |
//!
//! A *status probe* sends `status_request` instead of `hello` and
//! receives one `status` frame (a `sfence-obs` `MetricsReport` as
//! opaque JSON — queue depth, per-campaign and per-worker series,
//! latency histograms with p50/p95/p99 buckets), then the connection
//! closes. Probes never touch the job table.
//!
//! A *debug dump* probe (`debug_dump` → `debug_dump_reply`) works the
//! same way but returns the daemon's flight recorder: the last N
//! structured lifecycle events (`sfence-obs` `log::Event` records) as
//! an opaque JSON array, for post-mortem inspection of a live daemon.
//! Both probes are token-checked exactly like every other opening
//! message.

use sfence_harness::json::{self, Json};
use sfence_harness::IndexedRow;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Version of this message set. Mixed protocol generations refuse
/// each other at `hello` instead of mis-parsing frames.
///
/// v2 added the `status_request`/`status` probe flow. v3 made the
/// coordinator multi-campaign: campaign ids on `lease`/`result`, the
/// `submit`/`fetch` client flows, per-lease specs (replacing the v2
/// `assign`/`ready` exchange), batched lease requests, and auth
/// tokens on every opening message.
pub const PROTOCOL_VERSION: u64 = 3;

/// Upper bound on a frame's payload. Real frames are a few KB (a
/// lease of row results); anything bigger is a corrupt or hostile
/// length prefix and is rejected *before* allocating.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Rows per `result` frame. A row is a few hundred bytes, so chunks
/// stay far under [`MAX_FRAME`] no matter how large a fetched
/// campaign is.
pub const RESULT_CHUNK_ROWS: usize = 1024;

/// Most cells one lease grants, whatever the worker's `batch` or the
/// daemon's default. No larger than [`RESULT_CHUNK_ROWS`], so a
/// worker returns each lease in one `result` frame.
pub const MAX_LEASE: usize = RESULT_CHUNK_ROWS;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// Truncated, oversized, or unparseable input: the framing is
    /// unrecoverable and the connection must be dropped.
    Torn(String),
    /// The underlying socket failed (reset, broken pipe, ...).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => f.write_str("connection closed"),
            FrameError::Torn(why) => write!(f, "torn frame: {why}"),
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Why [`FrameReader::next_msg_within`] returned without a message.
#[derive(Debug)]
pub enum ReadStop {
    /// The caller's stop flag was seen set at an idle window.
    Shutdown,
    /// The idle-window budget ran out with no frame received.
    TimedOut,
    /// EOF, torn input or a socket error: the connection is over.
    Dead(FrameError),
}

/// Capped exponential backoff for the `attempt`-th consecutive
/// failure (counting from 1): `base_ms * 2^(attempt-1)`, at most
/// `cap_ms`. Both bounds are floored at 1 ms.
pub(crate) fn backoff_ms(attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    base_ms
        .max(1)
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
        .min(cap_ms.max(1))
}

/// Serialize one message as a frame and write it whole. A message
/// that would exceed [`MAX_FRAME`] is an error *before* any bytes hit
/// the wire — sending it would only be torn by the receiver, and the
/// sender is the one side that can name the real problem. (Senders
/// keep frames small by construction: a lease holds at most
/// [`MAX_LEASE`] cells and fetched rows ship in
/// [`RESULT_CHUNK_ROWS`]-row chunks.)
pub fn write_msg(w: &mut impl Write, msg: &Msg) -> io::Result<()> {
    let payload = msg.to_json().to_string_compact();
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "message serializes to {} bytes, over the {MAX_FRAME}-byte frame limit",
                bytes.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// An incremental frame reader that survives read timeouts.
///
/// Sockets with a read timeout can return mid-frame: a plain
/// `read_exact` would lose the bytes it already consumed and desync
/// the framing. The reader buffers partial input across calls, so a
/// timeout with half a frame in hand is "no message yet"
/// (`Ok(None)`), not corruption.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
        }
    }

    /// Read until one complete message is in hand (`Ok(Some)`), the
    /// socket's read timeout elapses first (`Ok(None)` — partial
    /// input stays buffered), the peer closes cleanly between frames
    /// ([`FrameError::Eof`]), or the input is torn.
    pub fn next_msg(&mut self) -> Result<Option<Msg>, FrameError> {
        loop {
            if let Some(msg) = self.try_decode()? {
                return Ok(Some(msg));
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Err(FrameError::Eof)
                    } else {
                        Err(FrameError::Torn(format!(
                            "peer closed mid-frame with {} buffered bytes",
                            self.buf.len()
                        )))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Wait for a message, tolerating at most `max_idle` read-timeout
    /// windows of silence (0 = no limit). `stop`, when given, is
    /// checked at every idle window.
    pub fn next_msg_within(
        &mut self,
        max_idle: u64,
        stop: Option<&AtomicBool>,
    ) -> Result<Msg, ReadStop> {
        let mut idle: u64 = 0;
        loop {
            match self.next_msg() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => {
                    if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                        return Err(ReadStop::Shutdown);
                    }
                    idle += 1;
                    if max_idle > 0 && idle >= max_idle {
                        return Err(ReadStop::TimedOut);
                    }
                }
                Err(e) => return Err(ReadStop::Dead(e)),
            }
        }
    }

    /// Decode one message from the buffer if a complete frame is
    /// present.
    fn try_decode(&mut self) -> Result<Option<Msg>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > MAX_FRAME {
            return Err(FrameError::Torn(format!(
                "frame length {len} exceeds the {MAX_FRAME}-byte limit"
            )));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = std::str::from_utf8(&self.buf[4..total])
            .map_err(|e| FrameError::Torn(format!("payload is not UTF-8: {e}")))?;
        let doc = json::parse(payload).map_err(|e| FrameError::Torn(format!("bad JSON: {e}")))?;
        let msg = Msg::from_json(&doc).map_err(FrameError::Torn)?;
        self.buf.drain(..total);
        Ok(Some(msg))
    }
}

/// The lifecycle stage of one campaign, as reported to `fetch`
/// clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    Running,
    Complete,
}

impl CampaignState {
    pub fn name(&self) -> &'static str {
        match self {
            CampaignState::Running => "running",
            CampaignState::Complete => "complete",
        }
    }

    pub fn parse(s: &str) -> Result<CampaignState, String> {
        match s {
            "running" => Ok(CampaignState::Running),
            "complete" => Ok(CampaignState::Complete),
            other => Err(format!("unknown campaign state {other:?}")),
        }
    }
}

/// One protocol message. See the module tables for the flows.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker handshake. `token` must match the daemon's shared
    /// secret when one is configured (`None` = unauthenticated —
    /// accepted only by daemons running without a token).
    Hello {
        schema_version: u64,
        protocol_version: u64,
        worker: String,
        token: Option<String>,
    },
    /// Worker handshake accepted; carries the lease TTL so the
    /// worker can pace its heartbeats well inside it.
    Welcome {
        lease_ttl_ms: u64,
    },
    Reject {
        reason: String,
    },
    Abort {
        reason: String,
    },
    /// Ask for work. `batch` is the number of cells the worker wants
    /// per lease (`--lease-batch`); 0 means "the server's default".
    Request {
        batch: u64,
    },
    /// A batch of job indices from one campaign. The spec
    /// ([`crate::spec::ExperimentSpec`] JSON) and fingerprint ride
    /// along so a worker can resolve and verify a campaign the first
    /// time it sees its id.
    Lease {
        campaign: String,
        spec: Json,
        fingerprint: String,
        job_count: u64,
        jobs: Vec<usize>,
    },
    /// Nothing became pending while the daemon held the `request`;
    /// ask again after `ms` (0 from a current daemon).
    Wait {
        ms: u64,
    },
    Done,
    /// Completed rows for one campaign (from a worker), or a chunk of
    /// a completed campaign's merged rows (to a `fetch` client).
    ///
    /// `wall_ms` is the wall-clock time the worker spent executing
    /// the lease these rows came from (0 when not measured, e.g. on
    /// fetch-flow chunks) — the coordinator divides it by the row
    /// count to feed its per-cell latency histograms.
    Result {
        campaign: String,
        rows: Vec<IndexedRow>,
        executed: u64,
        cache_hits: u64,
        wall_ms: f64,
    },
    Heartbeat,
    /// Submit flow: register a new campaign with the daemon.
    Submit {
        token: Option<String>,
        spec: Json,
        priority: u64,
    },
    Submitted {
        campaign: String,
        job_count: u64,
        fingerprint: String,
    },
    /// Fetch flow: ask after one campaign by id.
    Fetch {
        token: Option<String>,
        campaign: String,
    },
    /// The fetch reply (after any `result` chunks when complete).
    CampaignStatus {
        campaign: String,
        state: CampaignState,
        done: u64,
        total: u64,
    },
    /// Probe flow: sent *instead of* `hello` by a monitoring client.
    StatusRequest {
        token: Option<String>,
    },
    /// The coordinator's live snapshot: a `sfence-obs`
    /// `MetricsReport` carried as opaque JSON so the protocol layer
    /// stays decoupled from the metrics schema.
    Status {
        metrics: Json,
    },
    /// Probe flow: ask for the daemon's flight recorder (sent
    /// *instead of* `hello`, token-checked like `status_request`).
    DumpRequest {
        token: Option<String>,
    },
    /// The flight-recorder reply: recent `sfence-obs` `log::Event`
    /// records, oldest first, as opaque JSON. `dropped` counts events
    /// that aged out of the ring before this dump.
    DumpReply {
        events: Json,
        dropped: u64,
    },
}

/// Attach `token` as a field only when present, so unauthenticated
/// frames stay byte-compatible with token-less deployments.
fn with_token(obj: Json, token: &Option<String>) -> Json {
    match token {
        Some(t) => obj.field("token", t.as_str()),
        None => obj,
    }
}

impl Msg {
    /// The auth token of a message that may open a connection
    /// (`hello`, `submit`, `fetch`, `status_request`, `debug_dump`);
    /// `None` for every message that cannot.
    pub fn token(&self) -> Option<Option<&str>> {
        match self {
            Msg::Hello { token, .. }
            | Msg::Submit { token, .. }
            | Msg::Fetch { token, .. }
            | Msg::StatusRequest { token }
            | Msg::DumpRequest { token } => Some(token.as_deref()),
            _ => None,
        }
    }

    pub fn to_json(&self) -> Json {
        match self {
            Msg::Hello {
                schema_version,
                protocol_version,
                worker,
                token,
            } => with_token(
                Json::obj()
                    .field("type", "hello")
                    .field("schema_version", *schema_version)
                    .field("protocol_version", *protocol_version)
                    .field("worker", worker.as_str()),
                token,
            ),
            Msg::Welcome { lease_ttl_ms } => Json::obj()
                .field("type", "welcome")
                .field("lease_ttl_ms", *lease_ttl_ms),
            Msg::Reject { reason } => Json::obj()
                .field("type", "reject")
                .field("reason", reason.as_str()),
            Msg::Abort { reason } => Json::obj()
                .field("type", "abort")
                .field("reason", reason.as_str()),
            Msg::Request { batch } => Json::obj().field("type", "request").field("batch", *batch),
            Msg::Lease {
                campaign,
                spec,
                fingerprint,
                job_count,
                jobs,
            } => Json::obj()
                .field("type", "lease")
                .field("campaign", campaign.as_str())
                .field("spec", spec.clone())
                .field("fingerprint", fingerprint.as_str())
                .field("job_count", *job_count)
                .field("jobs", jobs.as_slice()),
            Msg::Wait { ms } => Json::obj().field("type", "wait").field("ms", *ms),
            Msg::Done => Json::obj().field("type", "done"),
            Msg::Result {
                campaign,
                rows,
                executed,
                cache_hits,
                wall_ms,
            } => Json::obj()
                .field("type", "result")
                .field("campaign", campaign.as_str())
                .field(
                    "rows",
                    Json::Arr(rows.iter().map(IndexedRow::to_json).collect()),
                )
                .field("executed", *executed)
                .field("cache_hits", *cache_hits)
                .field("wall_ms", *wall_ms),
            Msg::Heartbeat => Json::obj().field("type", "heartbeat"),
            Msg::Submit {
                token,
                spec,
                priority,
            } => with_token(
                Json::obj()
                    .field("type", "submit")
                    .field("spec", spec.clone())
                    .field("priority", *priority),
                token,
            ),
            Msg::Submitted {
                campaign,
                job_count,
                fingerprint,
            } => Json::obj()
                .field("type", "submitted")
                .field("campaign", campaign.as_str())
                .field("job_count", *job_count)
                .field("fingerprint", fingerprint.as_str()),
            Msg::Fetch { token, campaign } => with_token(
                Json::obj()
                    .field("type", "fetch")
                    .field("campaign", campaign.as_str()),
                token,
            ),
            Msg::CampaignStatus {
                campaign,
                state,
                done,
                total,
            } => Json::obj()
                .field("type", "campaign_status")
                .field("campaign", campaign.as_str())
                .field("state", state.name())
                .field("done", *done)
                .field("total", *total),
            Msg::StatusRequest { token } => {
                with_token(Json::obj().field("type", "status_request"), token)
            }
            Msg::Status { metrics } => Json::obj()
                .field("type", "status")
                .field("metrics", metrics.clone()),
            Msg::DumpRequest { token } => {
                with_token(Json::obj().field("type", "debug_dump"), token)
            }
            Msg::DumpReply { events, dropped } => Json::obj()
                .field("type", "debug_dump_reply")
                .field("events", events.clone())
                .field("dropped", *dropped),
        }
    }

    pub fn from_json(doc: &Json) -> Result<Msg, String> {
        let ty: &str = doc.opt("type")?.ok_or("message has no type")?;
        Ok(match ty {
            "hello" => Msg::Hello {
                schema_version: doc.req("schema_version")?,
                protocol_version: doc.req("protocol_version")?,
                worker: doc.req("worker")?,
                token: doc.opt("token")?,
            },
            "welcome" => Msg::Welcome {
                lease_ttl_ms: doc.req("lease_ttl_ms")?,
            },
            "reject" => Msg::Reject {
                reason: doc.req("reason")?,
            },
            "abort" => Msg::Abort {
                reason: doc.req("reason")?,
            },
            "request" => Msg::Request {
                batch: doc.req("batch")?,
            },
            "lease" => Msg::Lease {
                campaign: doc.req("campaign")?,
                spec: doc.req::<&Json>("spec")?.clone(),
                fingerprint: doc.req("fingerprint")?,
                job_count: doc.req("job_count")?,
                jobs: doc.req("jobs")?,
            },
            "wait" => Msg::Wait { ms: doc.req("ms")? },
            "done" => Msg::Done,
            "result" => Msg::Result {
                campaign: doc.req("campaign")?,
                rows: doc.req("rows")?,
                executed: doc.req("executed")?,
                cache_hits: doc.req("cache_hits")?,
                // Absent on frames from pre-telemetry senders; 0
                // means "not measured" everywhere it is read.
                wall_ms: doc.opt("wall_ms")?.unwrap_or(0.0),
            },
            "heartbeat" => Msg::Heartbeat,
            "submit" => Msg::Submit {
                token: doc.opt("token")?,
                spec: doc.req::<&Json>("spec")?.clone(),
                priority: doc.req("priority")?,
            },
            "submitted" => Msg::Submitted {
                campaign: doc.req("campaign")?,
                job_count: doc.req("job_count")?,
                fingerprint: doc.req("fingerprint")?,
            },
            "fetch" => Msg::Fetch {
                token: doc.opt("token")?,
                campaign: doc.req("campaign")?,
            },
            "campaign_status" => Msg::CampaignStatus {
                campaign: doc.req("campaign")?,
                state: CampaignState::parse(doc.req("state")?)?,
                done: doc.req("done")?,
                total: doc.req("total")?,
            },
            "status_request" => Msg::StatusRequest {
                token: doc.opt("token")?,
            },
            "status" => Msg::Status {
                metrics: doc.req::<&Json>("metrics")?.clone(),
            },
            "debug_dump" => Msg::DumpRequest {
                token: doc.opt("token")?,
            },
            "debug_dump_reply" => Msg::DumpReply {
                events: doc.req::<&Json>("events")?.clone(),
                dropped: doc.req("dropped")?,
            },
            other => return Err(format!("unknown message type {other:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Msg) {
        let mut wire = Vec::new();
        write_msg(&mut wire, &msg).unwrap();
        let mut reader = FrameReader::new(wire.as_slice());
        assert_eq!(reader.next_msg().unwrap(), Some(msg));
        assert!(matches!(reader.next_msg(), Err(FrameError::Eof)));
    }

    #[test]
    fn messages_round_trip() {
        round_trip(Msg::Hello {
            schema_version: 4,
            protocol_version: PROTOCOL_VERSION,
            worker: "w-1".into(),
            token: None,
        });
        round_trip(Msg::Hello {
            schema_version: 4,
            protocol_version: PROTOCOL_VERSION,
            worker: "w-1".into(),
            token: Some("secret".into()),
        });
        round_trip(Msg::Welcome {
            lease_ttl_ms: 30000,
        });
        round_trip(Msg::Reject {
            reason: "schema mismatch".into(),
        });
        round_trip(Msg::Request { batch: 0 });
        round_trip(Msg::Request { batch: 16 });
        round_trip(Msg::Lease {
            campaign: "c1".into(),
            spec: Json::obj().field("experiment", "smoke"),
            fingerprint: "abc123".into(),
            job_count: 8,
            jobs: vec![0, 3, 7],
        });
        round_trip(Msg::Wait { ms: 250 });
        round_trip(Msg::Done);
        round_trip(Msg::Heartbeat);
        round_trip(Msg::Submit {
            token: Some("secret".into()),
            spec: Json::obj().field("experiment", "smoke"),
            priority: 3,
        });
        round_trip(Msg::Submitted {
            campaign: "c2".into(),
            job_count: 24,
            fingerprint: "def".into(),
        });
        round_trip(Msg::Fetch {
            token: None,
            campaign: "c2".into(),
        });
        round_trip(Msg::CampaignStatus {
            campaign: "c2".into(),
            state: CampaignState::Running,
            done: 3,
            total: 24,
        });
        round_trip(Msg::CampaignStatus {
            campaign: "c2".into(),
            state: CampaignState::Complete,
            done: 24,
            total: 24,
        });
        round_trip(Msg::StatusRequest { token: None });
        round_trip(Msg::StatusRequest {
            token: Some("secret".into()),
        });
        round_trip(Msg::Status {
            metrics: Json::obj()
                .field("schema_version", 1u64)
                .field("produced_by", "coordinator"),
        });
        round_trip(Msg::Result {
            campaign: "c1".into(),
            rows: Vec::new(),
            executed: 2,
            cache_hits: 1,
            wall_ms: 12.5,
        });
        round_trip(Msg::DumpRequest { token: None });
        round_trip(Msg::DumpRequest {
            token: Some("secret".into()),
        });
        round_trip(Msg::DumpReply {
            events: Json::Arr(vec![Json::obj().field("event", "lease")]),
            dropped: 7,
        });
    }

    #[test]
    fn result_without_wall_ms_defaults_to_unmeasured() {
        // Telemetry is additive within protocol v3: a result frame
        // from a sender that never measures wall time still parses.
        let doc = json::parse(
            r#"{"type":"result","campaign":"c1","rows":[],"executed":1,"cache_hits":0}"#,
        )
        .unwrap();
        match Msg::from_json(&doc).unwrap() {
            Msg::Result { wall_ms, .. } => assert_eq!(wall_ms, 0.0),
            other => panic!("expected result, got {other:?}"),
        }
    }

    #[test]
    fn absent_tokens_are_omitted_from_the_wire() {
        let plain = Msg::StatusRequest { token: None }
            .to_json()
            .to_string_compact();
        assert!(!plain.contains("token"), "{plain}");
        let authed = Msg::StatusRequest {
            token: Some("t".into()),
        }
        .to_json()
        .to_string_compact();
        assert!(authed.contains("\"token\""), "{authed}");
    }

    #[test]
    fn status_without_metrics_is_rejected() {
        let doc = json::parse(r#"{"type":"status"}"#).unwrap();
        assert!(Msg::from_json(&doc).unwrap_err().contains("metrics"));
    }

    #[test]
    fn bad_campaign_state_is_rejected() {
        let doc = json::parse(
            r#"{"type":"campaign_status","campaign":"c1","state":"warp","done":0,"total":1}"#,
        )
        .unwrap();
        assert!(Msg::from_json(&doc)
            .unwrap_err()
            .contains("unknown campaign state"));
    }

    #[test]
    fn oversized_messages_error_at_the_sender() {
        let msg = Msg::Reject {
            reason: "x".repeat(MAX_FRAME as usize + 1),
        };
        let mut wire = Vec::new();
        let err = write_msg(&mut wire, &msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(wire.is_empty(), "no bytes hit the wire");
    }

    #[test]
    fn frames_decode_across_split_reads() {
        // A reader fed one byte at a time (worst-case fragmentation)
        // still reassembles the frame.
        let mut wire = Vec::new();
        write_msg(&mut wire, &Msg::Wait { ms: 9000 }).unwrap();
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.split_first() {
                    None => Ok(0),
                    Some((b, rest)) => {
                        buf[0] = *b;
                        self.0 = rest;
                        Ok(1)
                    }
                }
            }
        }
        let mut reader = FrameReader::new(OneByte(&wire));
        assert_eq!(reader.next_msg().unwrap(), Some(Msg::Wait { ms: 9000 }));
    }
}

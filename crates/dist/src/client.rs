//! The submitting client: register a campaign with a running daemon,
//! poll it, and collect its merged rows.
//!
//! Every operation is one short-lived connection (`submit` →
//! `submitted`, `fetch` → `campaign_status` / `result`*), so a client
//! waiting on a campaign survives a coordinator kill-and-restart
//! without any connection-level recovery: the next poll simply
//! connects to the new process, which restored the campaign — under
//! the same id — from its checkpoint.
//!
//! Every client exchange, the status and dump probes of
//! [`crate::status`] included, takes one path: `open` connects and
//! sends the opening frame, the caller matches only its own answer,
//! and `refused` turns any other reply into the error.

use crate::protocol::{backoff_ms, write_msg, CampaignState, FrameError, FrameReader, Msg};
use crate::spec::ExperimentSpec;
use sfence_harness::IndexedRow;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connection-level tunables shared by every client call.
#[derive(Debug, Clone)]
pub struct ClientOpts {
    pub token: Option<String>,
    /// Bounds connect and read alike.
    pub timeout: Duration,
}

impl Default for ClientOpts {
    fn default() -> ClientOpts {
        ClientOpts {
            token: None,
            timeout: Duration::from_secs(5),
        }
    }
}

/// What `submit` hands back: everything needed to poll the campaign
/// and to verify this binary agrees with the daemon about what the
/// campaign *is*.
#[derive(Debug, Clone)]
pub struct CampaignTicket {
    pub campaign: String,
    pub job_count: u64,
    pub fingerprint: String,
}

/// One poll's answer.
#[derive(Debug)]
pub enum Poll {
    Running { done: u64, total: u64 },
    Complete { rows: Vec<IndexedRow>, total: u64 },
}

/// Open one connection with both timeouts armed and send its opening
/// frame; the reply is read from the returned reader. Every client
/// exchange (`submit`, `fetch`, the status and dump probes) starts
/// here.
pub(crate) fn open(
    addr: &str,
    timeout: Duration,
    opening: &Msg,
) -> Result<FrameReader<TcpStream>, String> {
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("address {addr:?} resolves to nothing"))?;
    let stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    write_msg(&mut &stream, opening).map_err(|e| format!("send: {e}"))?;
    Ok(FrameReader::new(stream))
}

/// The error for a reply that is not the answer the client asked
/// for. A `reject` is fatal: the daemon answered and said no (a bad
/// token, an unknown campaign id, a spec it cannot resolve), so
/// [`wait_for_campaign`] gives up at once instead of burning its retry
/// budget. Silence, EOF, a torn frame and `done` (a daemon shutting
/// down) are worth retrying.
pub(crate) fn refused(reply: Result<Option<Msg>, FrameError>, timeout: Duration) -> String {
    match reply {
        Ok(Some(Msg::Reject { reason })) => format!("{FATAL}daemon rejected the request: {reason}"),
        Ok(Some(Msg::Done)) => "daemon is shutting down".into(),
        Ok(Some(other)) => format!("unexpected reply {other:?}"),
        Ok(None) => format!("daemon silent for {timeout:?}"),
        Err(FrameError::Eof) => "daemon closed without answering".into(),
        Err(e) => e.to_string(),
    }
}

/// Prefix of the errors that no amount of retrying will fix.
const FATAL: &str = "fatal: ";

/// Register `spec` with the daemon at `addr` and return its ticket.
pub fn submit(
    addr: &str,
    spec: &ExperimentSpec,
    priority: u64,
    opts: &ClientOpts,
) -> Result<CampaignTicket, String> {
    let opening = Msg::Submit {
        token: opts.token.clone(),
        spec: spec.to_json(),
        priority,
    };
    match open(addr, opts.timeout, &opening)?.next_msg() {
        Ok(Some(Msg::Submitted {
            campaign,
            job_count,
            fingerprint,
        })) => Ok(CampaignTicket {
            campaign,
            job_count,
            fingerprint,
        }),
        reply => Err(refused(reply, opts.timeout)),
    }
}

/// Ask the daemon where `campaign` stands; a complete campaign's
/// merged rows come back with the answer.
pub fn poll(addr: &str, campaign: &str, opts: &ClientOpts) -> Result<Poll, String> {
    let opening = Msg::Fetch {
        token: opts.token.clone(),
        campaign: campaign.to_string(),
    };
    let mut reader = open(addr, opts.timeout, &opening)?;
    let mut rows: Vec<IndexedRow> = Vec::new();
    loop {
        match reader.next_msg() {
            Ok(Some(Msg::Result { rows: chunk, .. })) => rows.extend(chunk),
            Ok(Some(Msg::CampaignStatus {
                state, done, total, ..
            })) => {
                return Ok(match state {
                    CampaignState::Running => Poll::Running { done, total },
                    CampaignState::Complete => Poll::Complete { rows, total },
                });
            }
            reply => return Err(refused(reply, opts.timeout)),
        }
    }
}

/// Tunables for [`wait_for_campaign`].
#[derive(Debug, Clone)]
pub struct WaitOpts {
    pub client: ClientOpts,
    /// Delay between polls while the campaign runs.
    pub poll_ms: u64,
    /// Consecutive failed polls tolerated before giving up — the
    /// daemon-restart window a waiting client must ride out. Backoff
    /// between failed polls is capped exponential.
    pub retries: u32,
    pub retry_base_ms: u64,
    pub retry_cap_ms: u64,
}

impl Default for WaitOpts {
    fn default() -> WaitOpts {
        WaitOpts {
            client: ClientOpts::default(),
            poll_ms: 500,
            retries: 20,
            retry_base_ms: 250,
            retry_cap_ms: 5000,
        }
    }
}

/// Poll until `campaign` completes, riding out transient daemon
/// outages (each poll is a fresh connection), and return the merged
/// rows. `progress` is called after every successful poll.
pub fn wait_for_campaign(
    addr: &str,
    campaign: &str,
    opts: &WaitOpts,
    mut progress: impl FnMut(u64, u64),
) -> Result<Vec<IndexedRow>, String> {
    let mut failures: u32 = 0;
    loop {
        match poll(addr, campaign, &opts.client) {
            Ok(Poll::Complete { rows, total }) => {
                progress(total, total);
                return Ok(rows);
            }
            Ok(Poll::Running { done, total }) => {
                failures = 0;
                progress(done, total);
                std::thread::sleep(Duration::from_millis(opts.poll_ms));
            }
            Err(e) if e.starts_with(FATAL) => return Err(e),
            Err(e) => {
                failures += 1;
                if failures > opts.retries {
                    return Err(format!(
                        "campaign {campaign}: {e} ({failures} consecutive failed polls)"
                    ));
                }
                let delay = backoff_ms(failures, opts.retry_base_ms, opts.retry_cap_ms);
                std::thread::sleep(Duration::from_millis(delay));
            }
        }
    }
}

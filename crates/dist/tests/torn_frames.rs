//! Protocol robustness: truncated, oversized, and garbage frames
//! must disconnect the offending peer — releasing its leases — and
//! must never panic the coordinator or cost the campaign a row.

mod common;

use common::{merged_json, registry, test_server_opts, test_worker_opts, Daemon};
use sfence_dist::protocol::{write_msg, FrameError, FrameReader, Msg, MAX_FRAME, PROTOCOL_VERSION};
use sfence_harness::SCHEMA_VERSION;
use std::io::Write;
use std::net::TcpStream;

fn torn(bytes: &[u8]) -> String {
    let mut reader = FrameReader::new(bytes);
    loop {
        match reader.next_msg() {
            Ok(Some(_)) => continue, // leading valid frames are fine
            Ok(None) => panic!("reader idled on a finite byte source"),
            Err(FrameError::Torn(why)) => return why,
            Err(other) => panic!("expected Torn, got {other}"),
        }
    }
}

#[test]
fn truncated_frames_are_torn_not_panics() {
    let mut wire = Vec::new();
    write_msg(&mut wire, &Msg::Request { batch: 0 }).unwrap();
    // Cut the frame anywhere: inside the length prefix or the body.
    for cut in 1..wire.len() {
        let why = torn(&wire[..cut]);
        assert!(why.contains("mid-frame"), "cut at {cut}: {why}");
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocating() {
    // "GET / HTTP/1.1" — a stray HTTP client's first 4 bytes decode
    // as a 1.2 GB length prefix.
    let why = torn(b"GET / HTTP/1.1\r\n\r\n");
    assert!(why.contains("exceeds"), "{why}");
    // Exactly one past the limit.
    let mut wire = (MAX_FRAME + 1).to_be_bytes().to_vec();
    wire.extend_from_slice(b"x");
    assert!(torn(&wire).contains("exceeds"));
}

#[test]
fn garbage_payloads_are_torn() {
    // Correct framing around an invalid payload.
    let frame = |payload: &[u8]| {
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    };
    assert!(torn(&frame(b"not json at all")).contains("bad JSON"));
    assert!(torn(&frame(&[0xff, 0xfe, 0x00])).contains("UTF-8"));
    // Valid JSON, but not a message.
    assert!(torn(&frame(b"{\"no\":\"type\"}")).contains("no type"));
    assert!(torn(&frame(b"{\"type\":\"warp\"}")).contains("unknown message type"));
}

#[test]
fn valid_frames_before_the_tear_still_decode() {
    let mut wire = Vec::new();
    write_msg(&mut wire, &Msg::Heartbeat).unwrap();
    write_msg(&mut wire, &Msg::Wait { ms: 5 }).unwrap();
    wire.extend_from_slice(b"\xde\xad\xbe\xef trailing junk");
    let mut reader = FrameReader::new(wire.as_slice());
    assert_eq!(reader.next_msg().unwrap(), Some(Msg::Heartbeat));
    assert_eq!(reader.next_msg().unwrap(), Some(Msg::Wait { ms: 5 }));
    assert!(matches!(reader.next_msg(), Err(FrameError::Torn(_))));
}

/// Live coordinator: three hostile clients — raw garbage before the
/// handshake, garbage after a completed handshake, and a mid-frame
/// hangup — while one honest worker runs the campaign. The merge must
/// still be byte-identical and every hostile connection accounted as
/// rejected.
#[test]
fn live_coordinator_survives_torn_clients() {
    let experiment = registry("tiny").unwrap();
    let expected = experiment.run_parallel().to_json_string();
    let daemon = Daemon::start(test_server_opts());
    let addr = daemon.addr.clone();
    let ticket = daemon.submit("tiny");

    // 1. An HTTP client wandered in: oversized length prefix.
    let mut http = TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    drop(http);

    // 2. A client that handshakes correctly, takes a lease, then sends
    // garbage instead of results.
    let stream = TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);
    write_msg(
        &mut writer,
        &Msg::Hello {
            schema_version: SCHEMA_VERSION,
            protocol_version: PROTOCOL_VERSION,
            worker: "corrupt".into(),
            token: None,
        },
    )
    .unwrap();
    match reader.next_msg().unwrap().unwrap() {
        Msg::Welcome { .. } => {}
        other => panic!("expected welcome, got {other:?}"),
    }
    write_msg(&mut writer, &Msg::Request { batch: 0 }).unwrap();
    match reader.next_msg().unwrap().unwrap() {
        Msg::Lease { jobs, .. } => assert!(!jobs.is_empty()),
        other => panic!("expected lease, got {other:?}"),
    }
    writer.write_all(b"\x00\x00\x00\x09{\"bad\":1}").unwrap();
    drop(writer);
    drop(reader);

    // 3. A client that hangs up mid-frame: a length prefix promising
    // more bytes than it ever sends.
    let mut half = TcpStream::connect(&addr).unwrap();
    half.write_all(&[0x00, 0x00, 0x01, 0x00, b'{']).unwrap();
    drop(half);

    // The honest worker completes everything, including the corrupt
    // client's re-leased jobs.
    let honest = daemon.worker(test_worker_opts("honest"));
    let rows = daemon.wait(&ticket);
    let outcome = daemon.stop();
    honest.join().unwrap().expect("honest worker exits cleanly");

    assert!(
        outcome.rejected >= 3,
        "all hostile connections rejected (got {})",
        outcome.rejected
    );
    assert_eq!(outcome.released, 2, "the corrupt client's lease re-queued");
    assert_eq!(merged_json(&experiment, rows), expected);
}

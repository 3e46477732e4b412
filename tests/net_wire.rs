//! Wire-protocol acceptance: every [`Request`] and [`Response`] variant —
//! and every [`CoreError`] — survives a frame encode/decode round trip
//! bit-exactly, and malformed input (oversized frames, bad magic, unknown
//! tags, hostile counts, non-UTF-8 strings, trailing bytes) produces a
//! [`CoreError::Protocol`] error — never a panic, never a wrong decode. A
//! stream cut inside a frame (a truncated prefix or payload) is a lost
//! link, [`CoreError::Network`].

use std::io::Cursor;

use orpheusdb::net::proto::{read_frame, write_frame};
use orpheusdb::net::{Frame, MAX_FRAME, PROTOCOL_VERSION};
use orpheusdb::prelude::*;

mod wire_corpus;

use wire_corpus::{error_corpus, request_corpus, response_corpus};

/// Frames have no `PartialEq` (responses carry errors and floats), so
/// round trips compare the exhaustive `Debug` rendering — which covers
/// every field, including NaN payloads.
fn assert_roundtrip(frame: &Frame) {
    let payload = frame.encode();
    let decoded =
        Frame::decode(&payload).unwrap_or_else(|e| panic!("decode failed for {frame:?}: {e}"));
    assert_eq!(format!("{frame:?}"), format!("{decoded:?}"));
}

#[test]
fn every_request_variant_roundtrips_in_single_and_batch_frames() {
    let corpus = request_corpus();
    let kinds: std::collections::HashSet<CommandKind> = corpus.iter().map(|r| r.kind()).collect();
    for kind in CommandKind::ALL {
        assert!(kinds.contains(&kind), "request corpus missed {kind}");
    }
    for (i, request) in corpus.iter().enumerate() {
        assert_roundtrip(&Frame::Req {
            id: i as u64 + 1,
            requests: vec![request.clone()],
        });
    }
    assert_roundtrip(&Frame::Req {
        id: u64::MAX,
        requests: corpus,
    });
    assert_roundtrip(&Frame::Req {
        id: 7,
        requests: Vec::new(),
    });
}

#[test]
fn every_response_and_error_variant_roundtrips() {
    for (i, response) in response_corpus().into_iter().enumerate() {
        assert_roundtrip(&Frame::Resp {
            id: i as u64,
            outcomes: vec![Ok(response)],
        });
    }
    for (i, error) in error_corpus().into_iter().enumerate() {
        assert_roundtrip(&Frame::Resp {
            id: i as u64,
            outcomes: vec![Err(error)],
        });
    }
    let outcomes: Vec<Result<Response, CoreError>> = response_corpus()
        .into_iter()
        .map(Ok)
        .chain(error_corpus().into_iter().map(Err))
        .collect();
    assert_roundtrip(&Frame::Resp { id: 3, outcomes });
}

#[test]
fn handshake_frames_roundtrip() {
    assert_roundtrip(&Frame::Hello {
        version: PROTOCOL_VERSION,
        user: "ada".into(),
        resume: None,
    });
    assert_roundtrip(&Frame::Hello {
        version: PROTOCOL_VERSION,
        user: "ada".into(),
        resume: Some(42),
    });
    assert_roundtrip(&Frame::Welcome {
        version: PROTOCOL_VERSION,
        user: "".into(),
        session: 7,
        resumed: true,
    });
    assert_roundtrip(&Frame::Welcome {
        version: PROTOCOL_VERSION,
        user: "ada".into(),
        session: u64::MAX,
        resumed: false,
    });
}

#[test]
fn frames_stream_through_a_byte_channel_and_eof_is_clean() {
    let mut wire = Vec::new();
    let frames = vec![
        Frame::Hello {
            version: PROTOCOL_VERSION,
            user: "ada".into(),
            resume: None,
        },
        Frame::Req {
            id: 1,
            requests: vec![Request::Ls],
        },
        Frame::Resp {
            id: 1,
            outcomes: vec![Ok(Response::CvdList(vec!["scores".into()]))],
        },
    ];
    for frame in &frames {
        write_frame(&mut wire, frame).unwrap();
    }
    let mut cursor = Cursor::new(wire);
    for frame in &frames {
        let decoded = read_frame(&mut cursor, MAX_FRAME).unwrap().unwrap();
        assert_eq!(format!("{frame:?}"), format!("{decoded:?}"));
    }
    // EOF exactly at a frame boundary is a clean end of stream.
    assert!(read_frame(&mut cursor, MAX_FRAME).unwrap().is_none());
}

fn expect_protocol_error(bytes: &[u8], what: &str) {
    match read_frame(&mut Cursor::new(bytes.to_vec()), MAX_FRAME) {
        Err(CoreError::Protocol(_)) => {}
        other => panic!("{what}: expected a protocol error, got {other:?}"),
    }
}

fn expect_network_error(bytes: &[u8], what: &str) {
    match read_frame(&mut Cursor::new(bytes.to_vec()), MAX_FRAME) {
        Err(CoreError::Network(_)) => {}
        other => panic!("{what}: expected a network error, got {other:?}"),
    }
}

#[test]
fn truncated_and_oversized_frames_error_without_panicking() {
    // EOF inside the length prefix: the link was cut mid-frame.
    expect_network_error(&[0, 0, 9], "truncated length prefix");
    // Length prefix promises more payload than the stream holds.
    expect_network_error(&[0, 0, 0, 10, 1, 2, 3], "truncated payload");
    // A frame larger than the cap is refused before any allocation.
    let oversized = ((MAX_FRAME + 1) as u32).to_be_bytes();
    expect_protocol_error(&oversized, "oversized frame");
    // A tiny cap rejects an otherwise valid frame.
    let mut wire = Vec::new();
    write_frame(
        &mut wire,
        &Frame::Req {
            id: 1,
            requests: vec![Run::sql("SELECT 1").into()],
        },
    )
    .unwrap();
    match read_frame(&mut Cursor::new(wire), 4) {
        Err(CoreError::Protocol(m)) => assert!(m.contains("exceeds"), "{m}"),
        other => panic!("small cap: {other:?}"),
    }
}

#[test]
fn hostile_payloads_error_without_panicking() {
    let decode_err = |payload: &[u8], what: &str| match Frame::decode(payload) {
        Err(CoreError::Protocol(_)) => {}
        other => panic!("{what}: expected a protocol error, got {other:?}"),
    };
    decode_err(&[], "empty payload");
    decode_err(&[99], "unknown frame tag");
    // Hello with the wrong magic is rejected by name.
    match Frame::decode(&[1, b'E', b'V', b'I', b'L', 1, 0, 0, 0, 0, 0]) {
        Err(CoreError::Protocol(m)) => assert!(m.contains("magic"), "{m}"),
        other => panic!("bad magic: {other:?}"),
    }
    // Version 2's single-request frame (here `Req { id: 1, Ls }`): its tag
    // is retired.
    decode_err(
        &[3, 1, 0, 0, 0, 0, 0, 0, 0, 8],
        "retired single-request tag",
    );
    // One request with an unknown request tag.
    let one_request = |body: &[u8]| {
        let mut payload = vec![4]; // Req tag
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(body);
        payload
    };
    decode_err(&one_request(&[200]), "unknown request tag");
    // A request frame whose count promises far more requests than the
    // bytes hold.
    let mut batch = vec![4]; // Req tag
    batch.extend_from_slice(&1u64.to_le_bytes());
    batch.extend_from_slice(&u32::MAX.to_le_bytes());
    decode_err(&batch, "hostile batch count");
    // Login whose string is not UTF-8.
    let mut login = one_request(&[13]); // Login request tag
    login.extend_from_slice(&2u32.to_le_bytes());
    login.extend_from_slice(&[0xff, 0xfe]);
    decode_err(&login, "non-UTF-8 string");
    // A valid frame with trailing garbage must not decode.
    let mut trailing = Frame::Req {
        id: 1,
        requests: vec![Request::Ls],
    }
    .encode();
    trailing.push(0);
    decode_err(&trailing, "trailing bytes");
}

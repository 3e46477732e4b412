//! Frame layer of the wire protocol: length-prefixed, versioned, typed.
//!
//! Every message on the socket is one frame:
//!
//! ```text
//! [u32 BE payload length][payload]
//!           payload = [u8 frame tag][frame body]
//! ```
//!
//! The length prefix is big-endian (network order, like the TCP/IP stack
//! the frames ride on); everything inside the payload uses the
//! little-endian [`orpheus_core::codec`]. A connection starts with a handshake:
//! the client sends [`Frame::Hello`] carrying the [`MAGIC`] bytes, its
//! [`PROTOCOL_VERSION`], and the user it wants to act as (login is part of
//! connection setup, like `--as` on the CLI); the server answers
//! [`Frame::Welcome`] or an error outcome and closes. After that the
//! client pipelines [`Frame::Req`] frames, each a vector of requests under
//! a client-chosen correlation id (one `execute` is a vector of one), and
//! the server streams back one [`Frame::Resp`] per request frame, with one
//! outcome per request, **in submission order** (the async executor's
//! ordering contract extends across the wire).
//!
//! Defense at the boundary: [`read_frame`] refuses payloads larger than
//! the caller's `max_frame` before allocating, and every decode failure is
//! a [`CoreError::Protocol`] — never a panic — so one hostile peer cannot
//! take a connection thread down. A stream that ends inside a frame is a
//! lost link ([`CoreError::Network`]), not a protocol violation.

use std::io::{ErrorKind, Read, Write};

use orpheus_core::codec::{put_outcome, put_request, read_outcome, read_request, Reader};
use orpheus_core::{CoreError, Request, Response, Result};
use orpheus_engine::storage::{put_str, put_u16, put_u32, put_u64};

/// First bytes of every [`Frame::Hello`]; rejects non-Orpheus peers (or
/// plain-text probes) before any further parsing.
pub const MAGIC: [u8; 4] = *b"ORPH";

/// Version of the frame/codec layout. Bumped on any incompatible change;
/// the handshake rejects mismatches with a clear error instead of
/// misdecoding. Version 2 added session resumption to the handshake
/// ([`Frame::Hello`]'s `resume`, [`Frame::Welcome`]'s `session`/`resumed`)
/// for the client's reconnect-with-idempotent-replay path. Version 3
/// retired the single-request and single-response frames: every request
/// frame carries a vector of requests, every response frame a vector of
/// outcomes.
pub const PROTOCOL_VERSION: u16 = 3;

/// Default cap on a single frame's payload, generous enough for the CSV
/// blobs `commit -f` ships but far below anything that could exhaust
/// memory: 32 MiB.
pub const MAX_FRAME: usize = 32 * 1024 * 1024;

/// One message of the wire protocol.
#[derive(Debug)]
pub enum Frame {
    /// Client → server connection setup: magic, protocol version, user,
    /// and — on reconnect — the session id to resume, so the server can
    /// reattach the connection to that session's replay cache.
    Hello {
        version: u16,
        user: String,
        resume: Option<u64>,
    },
    /// Server → client handshake acceptance: the negotiated version, the
    /// bound user, the session id to quote on later reconnects, and
    /// whether a requested resume actually found the session (`false`
    /// means the server lost it — the client must fail any requests whose
    /// outcome it was still waiting on, because replay can no longer be
    /// deduplicated).
    Welcome {
        version: u16,
        user: String,
        session: u64,
        resumed: bool,
    },
    /// Client → server: requests under one correlation id, executed with
    /// [`orpheus_core::Executor::batch`] semantics (submission order,
    /// independent failures). A single request is a vector of one.
    Req { id: u64, requests: Vec<Request> },
    /// Server → client: one outcome per request of the [`Frame::Req`] with
    /// the same id, in the request vector's order. With id 0 and one error,
    /// the terminal report of a handshake or protocol failure.
    Resp {
        id: u64,
        outcomes: Vec<Result<Response>>,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
// Tags 3 and 5 were version 2's single-request and single-response
// frames; they stay unassigned so an old peer's frame never misdecodes.
const TAG_REQ: u8 = 4;
const TAG_RESP: u8 = 6;

/// Whether an encoded payload (tag + body, as [`Frame::encode`] returns
/// it) is a client's request frame.
pub fn is_request(payload: &[u8]) -> bool {
    payload.first() == Some(&TAG_REQ)
}

/// The payload of a [`Frame::Req`] with `id` over `requests`, encoded
/// from the slice so a client keeping its requests for a retry need not
/// clone them into a frame.
pub(crate) fn request_payload(id: u64, requests: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(TAG_REQ);
    put_u64(&mut out, id);
    put_u32(&mut out, requests.len() as u32);
    for request in requests {
        put_request(&mut out, request);
    }
    out
}

/// The payload of a [`Frame::Resp`] with `id` over `outcomes`, encoded
/// from the slice so the server can move the outcomes into its replay
/// cache afterwards instead of cloning them.
pub(crate) fn response_payload(id: u64, outcomes: &[Result<Response>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(TAG_RESP);
    put_u64(&mut out, id);
    put_u32(&mut out, outcomes.len() as u32);
    for outcome in outcomes {
        put_outcome(&mut out, outcome);
    }
    out
}

impl Frame {
    /// Encode this frame's payload (tag + body, without the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Hello {
                version,
                user,
                resume,
            } => {
                out.push(TAG_HELLO);
                out.extend_from_slice(&MAGIC);
                put_u16(&mut out, *version);
                put_str(&mut out, user);
                match resume {
                    Some(id) => {
                        out.push(1);
                        put_u64(&mut out, *id);
                    }
                    None => out.push(0),
                }
            }
            Frame::Welcome {
                version,
                user,
                session,
                resumed,
            } => {
                out.push(TAG_WELCOME);
                put_u16(&mut out, *version);
                put_str(&mut out, user);
                put_u64(&mut out, *session);
                out.push(u8::from(*resumed));
            }
            Frame::Req { id, requests } => out = request_payload(*id, requests),
            Frame::Resp { id, outcomes } => out = response_payload(*id, outcomes),
        }
        out
    }

    /// Decode a frame from a received payload. The whole payload must be
    /// consumed; trailing bytes are a protocol error.
    pub fn decode(payload: &[u8]) -> Result<Frame> {
        let mut r = Reader::new(payload);
        let frame = match r.u8()? {
            TAG_HELLO => {
                let mut magic = [0u8; 4];
                for b in &mut magic {
                    *b = r.u8()?;
                }
                if magic != MAGIC {
                    return Err(CoreError::Protocol(format!(
                        "bad magic {magic:?}; not an OrpheusDB client"
                    )));
                }
                let version = r.u16()?;
                let user = r.str()?;
                let resume = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    b => {
                        return Err(CoreError::Protocol(format!("bad resume flag {b} in Hello")));
                    }
                };
                Frame::Hello {
                    version,
                    user,
                    resume,
                }
            }
            TAG_WELCOME => {
                let version = r.u16()?;
                let user = r.str()?;
                let session = r.u64()?;
                let resumed = match r.u8()? {
                    0 => false,
                    1 => true,
                    b => {
                        return Err(CoreError::Protocol(format!(
                            "bad resumed flag {b} in Welcome"
                        )));
                    }
                };
                Frame::Welcome {
                    version,
                    user,
                    session,
                    resumed,
                }
            }
            TAG_REQ => {
                let id = r.u64()?;
                let n = r.count("request")?;
                let mut requests = Vec::with_capacity(n);
                for _ in 0..n {
                    requests.push(read_request(&mut r)?);
                }
                Frame::Req { id, requests }
            }
            TAG_RESP => {
                let id = r.u64()?;
                let n = r.count("outcome")?;
                let mut outcomes = Vec::with_capacity(n);
                for _ in 0..n {
                    outcomes.push(read_outcome(&mut r)?);
                }
                Frame::Resp { id, outcomes }
            }
            t => {
                return Err(CoreError::Protocol(format!("unknown frame tag {t}")));
            }
        };
        r.finish("frame")?;
        Ok(frame)
    }
}

/// Write one frame: `u32` big-endian payload length, then the payload.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    write_payload(w, &frame.encode())
}

/// [`write_frame`] for an already-encoded payload — the client's replay
/// path stores each in-flight frame's wire bytes and re-sends them
/// verbatim on reconnect, so a replay is bit-identical to the original.
pub fn write_payload(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| CoreError::Protocol("frame payload exceeds u32 length".to_string()))?;
    let io = |e: std::io::Error| CoreError::Network(format!("write failed: {e}"));
    w.write_all(&len.to_be_bytes()).map_err(io)?;
    w.write_all(payload).map_err(io)?;
    w.flush().map_err(io)?;
    Ok(())
}

/// Read one frame, refusing payloads above `max_frame` before allocating.
///
/// Returns `Ok(None)` on a clean EOF **at a frame boundary** (the peer
/// closed the connection between frames). EOF inside the length prefix or
/// payload is a link cut mid-frame and, like other I/O failures, a
/// [`CoreError::Network`]: the peer may reconnect and replay. A read timeout set on the
/// underlying socket surfaces as `Network` containing "timed out", which
/// the server's connection loop treats as "no frame yet, poll again".
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Frame>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(CoreError::Network(
                    "connection closed mid length prefix".to_string(),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if filled == 0 && would_block(&e) => {
                return Err(CoreError::Network("read timed out".to_string()));
            }
            Err(e) => return Err(CoreError::Network(format!("read failed: {e}"))),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(CoreError::Protocol(format!(
            "frame of {len} bytes exceeds the {max_frame} byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(CoreError::Network(
                    "connection closed mid frame".to_string(),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Once the length prefix arrived, keep waiting for the rest of
            // the frame across socket read timeouts: a slow writer is not
            // a protocol violation.
            Err(e) if would_block(&e) => {}
            Err(e) => return Err(CoreError::Network(format!("read failed: {e}"))),
        }
    }
    Frame::decode(&payload).map(Some)
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Whether an error from [`read_frame`] is a socket read timeout (no frame
/// arrived within the poll interval) rather than a real failure.
pub fn is_timeout(error: &CoreError) -> bool {
    matches!(error, CoreError::Network(m) if m.contains("timed out"))
}

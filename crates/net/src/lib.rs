//! # orpheus-net
//!
//! The network layer that turns OrpheusDB into an actual service: a
//! hand-rolled wire protocol, a TCP server in front of the async
//! executor, and a remote client that implements the same [`Executor`]
//! trait every local executor does — so the CLI, the REPL, and whole
//! request corpora run against a server unmodified.
//!
//! The binary encoding of the command bus (every [`Request`]/[`Response`]
//! variant, [`CoreError`] included) is [`orpheus_core::codec`], shared with
//! the write-ahead log. On top of it, one layer per module:
//!
//! * [`proto`] — the frame layer: `[u32 length][payload]`, a magic +
//!   version handshake that carries the user ("login is connection
//!   setup"), one request frame (a vector of requests under a
//!   correlation id; a single request is a vector of one), one response
//!   frame (an outcome per request), and a max-frame-size guard.
//! * [`server`] / [`client`] — [`NetServer`] pairs one reader and one
//!   writer thread per connection over a bounded in-flight window
//!   (backpressure), pipelining frames into
//!   [`orpheus_core::AsyncExecutor`] submissions while responses return
//!   in submission order; [`RemoteExecutor`] is the connecting side,
//!   with timeouts on every wait so a hung server never blocks a client
//!   forever.
//! * [`chaos`] — a frame-aware flaky proxy that severs connections at
//!   controlled points, used by the resilience tests and the
//!   `fault_storm` gate to prove the reconnect/replay and
//!   load-shedding machinery under real packet loss.
//!
//! The service layer is fault-tolerant end to end: the server issues
//! session ids and keeps a bounded per-session replay cache (retried
//! frames after a lost ACK return their original outcome — at-most-once
//! execution), sheds load with typed retryable errors when its queue or
//! connection limits are hit, and bounds every request with a deadline;
//! the client reconnects with capped exponential backoff and replays
//! in-flight frames. See the `server` and `client` module docs.
//!
//! ```no_run
//! use orpheus_core::{Executor, Request, SharedOrpheusDB};
//! use orpheus_net::{NetServer, RemoteExecutor};
//!
//! let server = NetServer::bind("127.0.0.1:0", SharedOrpheusDB::default())?;
//! let mut client = RemoteExecutor::connect(server.local_addr(), "ada")?;
//! let who = client.execute(Request::Whoami)?;
//! assert_eq!(who.summary(), "ada");
//! server.shutdown();
//! # Ok::<(), orpheus_core::CoreError>(())
//! ```
//!
//! [`Executor`]: orpheus_core::Executor
//! [`Request`]: orpheus_core::Request
//! [`Response`]: orpheus_core::Response
//! [`CoreError`]: orpheus_core::CoreError

pub mod chaos;
pub mod client;
pub mod proto;
pub mod server;

pub use chaos::FlakyProxy;
pub use client::{RemoteExecutor, RetryPolicy, RetryStats, DEFAULT_TIMEOUT};
pub use proto::{Frame, MAGIC, MAX_FRAME, PROTOCOL_VERSION};
pub use server::{NetServer, ServerConfig, ServerStats};

//! Remote client: an [`Executor`] over a TCP connection, with
//! reconnect-and-replay fault tolerance.
//!
//! [`RemoteExecutor::connect`] performs the handshake (magic, protocol
//! version, user — login is connection setup) and then exposes the exact
//! [`Executor`] contract the rest of the workspace is written against:
//! `batch` ships a whole vector as one request frame, with per-request
//! outcomes in submission order, and `execute` is a batch of one. The CLI,
//! the REPL, and the bench harness's `drive` run against it unchanged.
//!
//! Internally a **link thread** owns the receive half of the socket and
//! fulfills [`Ticket`]s parked in a correlation-id map, so
//! [`RemoteExecutor::submit`] is fire-and-forget just like
//! [`orpheus_core::AsyncHandle::submit`] — callers overlap many requests
//! on one connection. Every wait goes through [`Ticket::wait_for`] with
//! the connection's timeout: a hung server yields a clean
//! [`CoreError::ResponseTimeout`] (naming the last-known link state)
//! instead of blocking the client forever.
//!
//! # Reconnect and idempotent replay
//!
//! When the connection drops, the link thread reconnects with capped
//! exponential backoff plus jitter ([`RetryPolicy`]), quoting the session
//! id the server issued at the first handshake. On a successful resume it
//! **replays** every in-flight frame — the stored wire bytes, in id order
//! — before new submissions proceed; the server's per-session replay
//! cache answers frames it already executed with their original outcome,
//! so a commit whose ACK was lost lands exactly once. Submissions made
//! while disconnected queue in the same map and are flushed by the
//! replay. Two outcomes end the optimism: the server no longer knows the
//! session (in-flight requests fail with a clear "session lost" error —
//! their outcomes are unknowable — while the connection stays usable for
//! new work), or the reconnect budget is exhausted (the link dies and
//! every pending and later request fails fast).
//!
//! The server sheds a frame whole ([`CoreError::Overloaded`] for every
//! request, none executed), so `execute` and `batch` transparently retry
//! a shed frame — honoring the server's `retry_after_ms` hint — up to
//! [`RetryPolicy::overload_retries`] times before surfacing the error.
//! A stream that ends mid-response is a lost link like any other cut: the
//! link reconnects and replays.

use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hasher};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use orpheus_core::{CoreError, Executor, Request, Response, Result, Ticket, TicketFulfiller};
use parking_lot::Mutex;

use crate::proto::{
    read_frame, request_payload, write_frame, write_payload, Frame, MAX_FRAME, PROTOCOL_VERSION,
};

/// Default patience for one response before the wait reports a hung
/// connection.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long one reconnect's TCP connect may take before counting as a
/// failed attempt (also bounds how long a drop can stall on the link
/// thread).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Reconnect/retry tuning for [`RemoteExecutor::connect_with_policy`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Consecutive failed reconnect attempts before the link is declared
    /// dead. Zero disables reconnection entirely (a drop poisons all
    /// pending requests immediately, the pre-resilience behavior).
    pub max_reconnects: u32,
    /// First backoff delay; attempt *n* waits `base_delay * 2^n`, capped.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a random
    /// factor in `[1 - jitter/2, 1 + jitter/2]` so a fleet of clients
    /// severed together does not reconnect in lockstep.
    pub jitter: f64,
    /// Transparent retries of a request shed with
    /// [`CoreError::Overloaded`] before the error surfaces to the caller.
    pub overload_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_reconnects: 8,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(1),
            jitter: 0.5,
            overload_retries: 4,
        }
    }
}

impl RetryPolicy {
    /// A policy that never reconnects and never retries: failures surface
    /// immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_reconnects: 0,
            overload_retries: 0,
            ..RetryPolicy::default()
        }
    }
}

/// Counters of the resilience machinery, for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Successful reconnect handshakes after a dropped connection.
    pub reconnects: u64,
    /// In-flight frames re-sent during reconnect replays.
    pub replayed: u64,
    /// Transparent retries after an [`CoreError::Overloaded`] shed.
    pub overload_retries: u64,
}

/// One in-flight frame: a fulfiller per request plus the encoded wire
/// bytes kept for reconnect replay.
struct InFlight {
    fulfillers: Vec<TicketFulfiller>,
    wire: Vec<u8>,
}

#[derive(Default)]
struct PendingMap {
    /// Ordered by correlation id so a replay re-sends frames in their
    /// original submission order (the server's writer answers in order).
    waiters: BTreeMap<u64, InFlight>,
    /// Rendered message of a terminal server error (a response with id 0),
    /// kept so the poison message names the real cause instead of a bare
    /// "connection closed".
    last_server_error: Option<String>,
}

/// State shared between the caller-facing [`RemoteExecutor`] and its link
/// thread. Lock order where both are needed: `write` before `pending`.
struct Link {
    /// The send half of the current connection; `None` while the link
    /// thread is between connections (submissions then queue in `pending`
    /// and ride the next replay).
    write: Mutex<Option<TcpStream>>,
    pending: Mutex<PendingMap>,
    /// Set once the link is permanently down (drop, reconnects exhausted,
    /// protocol violation): pending requests are poisoned and later
    /// submissions fail fast.
    dead: AtomicBool,
    /// The session id the server issued; quoted on every reconnect.
    session: AtomicU64,
    /// Identity for reconnect handshakes (tracks `Login` rebinds).
    user: Mutex<String>,
    /// Human-readable link state, embedded in
    /// [`CoreError::ResponseTimeout`] so a timeout names what the client
    /// knew ("reconnecting", "connected", ...).
    state: Mutex<String>,
    server: SocketAddr,
    reconnects: AtomicU64,
    replayed: AtomicU64,
    overload_retries: AtomicU64,
}

impl Link {
    fn set_state(&self, state: String) {
        *self.state.lock() = state;
    }

    fn describe(&self) -> String {
        let in_flight = self.pending.lock().waiters.len();
        format!("{}; {} in flight", *self.state.lock(), in_flight)
    }
}

/// A connection to a [`crate::NetServer`], usable anywhere an
/// [`Executor`] is.
pub struct RemoteExecutor {
    link: Arc<Link>,
    user: String,
    timeout: Duration,
    policy: RetryPolicy,
    next_id: u64,
    reader: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for RemoteExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteExecutor")
            .field("user", &self.user)
            .field("server", &self.link.server)
            .field("state", &self.link.describe())
            .finish()
    }
}

impl RemoteExecutor {
    /// Connect to `addr` and bind the connection to `user` (registering
    /// the account if needed, like `--as` locally).
    pub fn connect(addr: impl ToSocketAddrs, user: &str) -> Result<RemoteExecutor> {
        RemoteExecutor::connect_with(addr, user, DEFAULT_TIMEOUT)
    }

    /// [`RemoteExecutor::connect`] with an explicit response timeout.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        user: &str,
        timeout: Duration,
    ) -> Result<RemoteExecutor> {
        RemoteExecutor::connect_with_policy(addr, user, timeout, RetryPolicy::default())
    }

    /// [`RemoteExecutor::connect`] with explicit timeout and
    /// reconnect/retry policy. The initial connect is synchronous and
    /// one-shot (its errors surface here); the policy governs what
    /// happens when an *established* connection drops.
    pub fn connect_with_policy(
        addr: impl ToSocketAddrs,
        user: &str,
        timeout: Duration,
        policy: RetryPolicy,
    ) -> Result<RemoteExecutor> {
        let mut stream = TcpStream::connect(addr)
            .map_err(|e| CoreError::Network(format!("connect failed: {e}")))?;
        let server = stream
            .peer_addr()
            .map_err(|e| CoreError::Network(format!("peer_addr failed: {e}")))?;
        let (user, session, _) = handshake(&mut stream, user, None, timeout)?;
        let link = Arc::new(Link {
            write: Mutex::new(Some(
                stream
                    .try_clone()
                    .map_err(|e| CoreError::Network(format!("socket clone failed: {e}")))?,
            )),
            pending: Mutex::new(PendingMap::default()),
            dead: AtomicBool::new(false),
            session: AtomicU64::new(session),
            user: Mutex::new(user.clone()),
            state: Mutex::new(format!("connected (session {session})")),
            server,
            reconnects: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            overload_retries: AtomicU64::new(0),
        });
        let reader = {
            let link = Arc::clone(&link);
            std::thread::spawn(move || link_loop(link, stream, policy, timeout))
        };
        Ok(RemoteExecutor {
            link,
            user,
            timeout,
            policy,
            next_id: 1,
            reader: Some(reader),
        })
    }

    /// The identity this connection acts as (rebound by a successful
    /// `Login`).
    pub fn user(&self) -> &str {
        &self.user
    }

    /// The per-response timeout in force.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// The session id the server issued at the handshake.
    pub fn session(&self) -> u64 {
        self.link.session.load(Ordering::SeqCst)
    }

    /// The link's resilience counters so far.
    pub fn retry_stats(&self) -> RetryStats {
        RetryStats {
            reconnects: self.link.reconnects.load(Ordering::SeqCst),
            replayed: self.link.replayed.load(Ordering::SeqCst),
            overload_retries: self.link.overload_retries.load(Ordering::SeqCst),
        }
    }

    /// The last-known link state, as embedded in timeout errors.
    pub fn link_state(&self) -> String {
        self.link.describe()
    }

    fn dead_error(&self) -> CoreError {
        let pending = self.link.pending.lock();
        match &pending.last_server_error {
            Some(message) => CoreError::Network(format!("connection lost: {message}")),
            None => CoreError::Network("connection lost".to_string()),
        }
    }

    /// Fire one request down the wire and return a [`Ticket`] the link
    /// thread will fulfill. Never blocks on the response. While the link
    /// is between connections the frame queues and rides the next
    /// reconnect's replay.
    pub fn submit(&mut self, request: impl Into<Request>) -> Ticket {
        let mut tickets = self.submit_batch(vec![request.into()]);
        tickets.pop().expect("one ticket per request")
    }

    /// Fire a whole request vector as **one** frame, returning one ticket
    /// per request in submission order. The server runs the batch as one
    /// submission ([`orpheus_core::Executor::batch`] semantics: submission
    /// order, independent failures).
    pub fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        self.send(&requests)
    }

    /// Register the in-flight entry and attempt to send it. Registration
    /// happens under the write lock *before* the send, so a reconnect
    /// replay racing this call either sees the entry (and replays it —
    /// the send below then hit the old, dead socket) or does not (and
    /// this send lands on the fresh socket once the lock is free); the
    /// frame is never lost and never sent twice on one connection.
    fn send(&mut self, requests: &[Request]) -> Vec<Ticket> {
        if requests.is_empty() {
            return Vec::new();
        }
        if self.link.dead.load(Ordering::SeqCst) {
            return requests
                .iter()
                .map(|_| Ticket::ready(Err(self.dead_error())))
                .collect();
        }
        let id = self.next_id;
        self.next_id += 1;
        let (tickets, fulfillers) = requests.iter().map(|_| Ticket::pending()).unzip();
        let wire = request_payload(id, requests);
        let mut write = self.link.write.lock();
        self.link.pending.lock().waiters.insert(
            id,
            InFlight {
                fulfillers,
                wire: wire.clone(),
            },
        );
        if let Some(stream) = write.as_mut() {
            if write_payload(stream, &wire).is_err() {
                // The connection broke under us. Shut the socket down so
                // the link thread's blocking read notices immediately and
                // starts the reconnect (which will replay this frame).
                let _ = stream.shutdown(Shutdown::Both);
                *write = None;
            }
        }
        tickets
    }

    /// Wait on a ticket under this connection's timeout; a hung server
    /// becomes a [`CoreError::ResponseTimeout`] naming the last-known
    /// link state, never an infinite block.
    fn wait(&self, ticket: &Ticket) -> Result<Response> {
        match ticket.wait_for(self.timeout) {
            Some(result) => result,
            None => Err(CoreError::ResponseTimeout {
                waited_ms: self.timeout.as_millis() as u64,
                state: self.link.describe(),
            }),
        }
    }

    /// Sleep out an [`CoreError::Overloaded`] shed before retrying:
    /// whichever is longer of the server's `retry_after_ms` hint and this
    /// attempt's jittered backoff.
    fn overload_backoff(&self, attempt: u32, retry_after_ms: u64) {
        let backoff = backoff_delay(&self.policy, attempt, &mut rng_seed());
        let hint = Duration::from_millis(retry_after_ms);
        std::thread::sleep(backoff.max(hint));
    }
}

impl Executor for RemoteExecutor {
    fn execute(&mut self, request: Request) -> Result<Response> {
        self.batch([request])
            .pop()
            .expect("one outcome per request")
    }

    fn batch<I: IntoIterator<Item = Request>>(&mut self, requests: I) -> Vec<Result<Response>>
    where
        Self: Sized,
    {
        let requests: Vec<Request> = requests.into_iter().collect();
        let mut attempt = 0;
        let results = loop {
            let tickets = self.send(&requests);
            let results: Vec<Result<Response>> =
                tickets.iter().map(|ticket| self.wait(ticket)).collect();
            // The server sheds a frame wholesale (it never partially
            // executes an overloaded frame), so retrying it — as fresh
            // work, under a fresh id — is safe exactly when *every*
            // outcome is the shed error.
            let shed = results.iter().try_fold(0, |hint, result| match result {
                Err(CoreError::Overloaded { retry_after_ms }) => Some(hint.max(*retry_after_ms)),
                _ => None,
            });
            match shed {
                Some(retry_after_ms)
                    if !results.is_empty() && attempt < self.policy.overload_retries =>
                {
                    attempt += 1;
                    self.link.overload_retries.fetch_add(1, Ordering::SeqCst);
                    self.overload_backoff(attempt, retry_after_ms);
                }
                _ => break results,
            }
        };
        for (request, result) in requests.iter().zip(&results) {
            if let (Request::Login(login), Ok(_)) = (request, result) {
                // The server rebinds its connection handle on the same
                // outcome, so both sides agree on the identity.
                self.user = login.user.clone();
                *self.link.user.lock() = login.user.clone();
            }
        }
        results
    }
}

impl Drop for RemoteExecutor {
    fn drop(&mut self) {
        self.link.dead.store(true, Ordering::SeqCst);
        if let Some(stream) = self.link.write.lock().as_ref() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Handshake (shared by first connect and reconnects).
// ---------------------------------------------------------------------------

/// Say hello and digest the answer: `(bound user, session id, resumed)`.
/// `resumed` reads false when `resume` named a session the server no
/// longer knows.
fn handshake(
    stream: &mut TcpStream,
    user: &str,
    resume: Option<u64>,
    timeout: Duration,
) -> Result<(String, u64, bool)> {
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| CoreError::Network(format!("set_read_timeout failed: {e}")))?;
    write_frame(
        stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            user: user.to_string(),
            resume,
        },
    )?;
    match read_frame(stream, MAX_FRAME)? {
        Some(Frame::Welcome {
            version,
            user,
            session,
            resumed,
        }) => {
            if version != PROTOCOL_VERSION {
                return Err(CoreError::Protocol(format!(
                    "server answered with protocol version {version}, expected {PROTOCOL_VERSION}"
                )));
            }
            // From here the link thread owns receiving; it blocks on the
            // socket until the connection ends. Ticket waits carry the
            // timeout instead.
            stream
                .set_read_timeout(None)
                .map_err(|e| CoreError::Network(format!("set_read_timeout failed: {e}")))?;
            Ok((user, session, resumed))
        }
        Some(Frame::Resp { outcomes, .. }) => Err(outcomes
            .into_iter()
            .find_map(Result::err)
            .unwrap_or_else(|| {
                CoreError::Protocol("handshake rejected without an error".to_string())
            })),
        Some(_) => Err(CoreError::Protocol(
            "expected a welcome frame from the server".to_string(),
        )),
        None => Err(CoreError::Network(
            "server closed the connection during the handshake".to_string(),
        )),
    }
}

// ---------------------------------------------------------------------------
// The link thread: read, and on disconnect reconnect-and-replay.
// ---------------------------------------------------------------------------

/// A cheap xorshift64* generator for backoff jitter, seeded from the
/// process's hash randomness (no `rand` dependency in this crate).
fn rng_seed() -> u64 {
    let seed = std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish();
    seed | 1 // xorshift must not start at zero
}

fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Attempt `n`'s delay: `base * 2^n` capped at `max_delay`, scaled by a
/// jitter factor in `[1 - jitter/2, 1 + jitter/2]`.
fn backoff_delay(policy: &RetryPolicy, attempt: u32, rng: &mut u64) -> Duration {
    let base = policy.base_delay.as_secs_f64() * f64::from(2u32.saturating_pow(attempt.min(20)));
    let capped = base.min(policy.max_delay.as_secs_f64());
    let jitter = policy.jitter.clamp(0.0, 1.0);
    let unit = (next_rand(rng) >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    let factor = 1.0 - jitter / 2.0 + jitter * unit;
    Duration::from_secs_f64((capped * factor).max(0.0))
}

/// Sleep `delay` in short slices, bailing out early if the link dies
/// (drop must not wait out a long backoff).
fn sleep_unless_dead(link: &Link, delay: Duration) -> bool {
    let slice = Duration::from_millis(20);
    let mut remaining = delay;
    while remaining > Duration::ZERO {
        if link.dead.load(Ordering::SeqCst) {
            return false;
        }
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
    !link.dead.load(Ordering::SeqCst)
}

fn poison(message: &str, link: &Link) {
    let mut pending = link.pending.lock();
    let message = match &pending.last_server_error {
        Some(cause) => format!("{message}: {cause}"),
        None => message.to_string(),
    };
    let error = CoreError::Network(message);
    for (_, in_flight) in std::mem::take(&mut pending.waiters) {
        fail(in_flight.fulfillers, &error);
    }
}

fn fail(fulfillers: Vec<TicketFulfiller>, error: &CoreError) {
    for fulfiller in fulfillers {
        fulfiller.fulfill(Err(error.clone()));
    }
}

/// Hand each request of a frame its outcome; a response of the wrong
/// length fails every request of the frame.
fn fulfill(fulfillers: Vec<TicketFulfiller>, outcomes: Vec<Result<Response>>) {
    if fulfillers.len() != outcomes.len() {
        let error = CoreError::Protocol("response arity mismatch".to_string());
        return fail(fulfillers, &error);
    }
    for (fulfiller, outcome) in fulfillers.into_iter().zip(outcomes) {
        fulfiller.fulfill(outcome);
    }
}

/// Why the read phase ended.
enum ReadEnd {
    /// The socket closed or failed: reconnectable.
    Disconnected(String),
    /// The server spoke gibberish: not reconnectable (replaying against a
    /// peer we cannot parse is hopeless).
    Fatal(String),
}

/// Drain responses off one connection until it ends.
fn read_phase(link: &Link, stream: &mut TcpStream) -> ReadEnd {
    loop {
        match read_frame(stream, MAX_FRAME) {
            Ok(Some(Frame::Resp { id: 0, outcomes })) => {
                // Terminal server-side report (handshake/protocol errors
                // carry no correlation id); remember it for the poison
                // message and let the close that follows end the loop.
                if let Some(Err(e)) = outcomes.first() {
                    link.pending.lock().last_server_error = Some(e.to_string());
                }
            }
            Ok(Some(Frame::Resp { id, outcomes })) => {
                // No entry: abandoned after a timeout; drop the response.
                let in_flight = link.pending.lock().waiters.remove(&id);
                if let Some(in_flight) = in_flight {
                    fulfill(in_flight.fulfillers, outcomes);
                }
            }
            Ok(Some(_)) => {
                return ReadEnd::Fatal("unexpected client-bound frame".to_string());
            }
            Ok(None) => {
                return ReadEnd::Disconnected("connection closed".to_string());
            }
            Err(CoreError::Protocol(m)) => {
                return ReadEnd::Fatal(format!("protocol error: {m}"));
            }
            Err(e) => {
                return ReadEnd::Disconnected(e.to_string());
            }
        }
    }
}

/// One reconnect attempt: dial, resume the session, replay in-flight
/// frames, install the new send half. On a resume the server did not
/// recognize, pending requests are failed (their outcomes are unknowable
/// without the server's dedup state) but the fresh connection is still
/// installed for new work.
fn try_reconnect(link: &Link, timeout: Duration) -> Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&link.server, CONNECT_TIMEOUT)
        .map_err(|e| CoreError::Network(format!("connect failed: {e}")))?;
    let user = link.user.lock().clone();
    let session = link.session.load(Ordering::SeqCst);
    let (_user, new_session, resumed) = handshake(&mut stream, &user, Some(session), timeout)?;
    let mut write = link.write.lock();
    let mut pending = link.pending.lock();
    if resumed {
        // Replay every in-flight frame in id order; the server's replay
        // cache answers already-executed ids with their original outcome.
        for in_flight in pending.waiters.values() {
            write_payload(&mut stream, &in_flight.wire)?;
            link.replayed.fetch_add(1, Ordering::SeqCst);
        }
    } else {
        link.session.store(new_session, Ordering::SeqCst);
        let error = CoreError::Network(
            "session lost by server; the outcome of this in-flight request is unknown".to_string(),
        );
        for (_, in_flight) in std::mem::take(&mut pending.waiters) {
            fail(in_flight.fulfillers, &error);
        }
    }
    *write = Some(
        stream
            .try_clone()
            .map_err(|e| CoreError::Network(format!("socket clone failed: {e}")))?,
    );
    Ok(stream)
}

/// Reconnect with capped exponential backoff and jitter; honors
/// [`CoreError::Overloaded`] refusals' `retry_after_ms` hint. `None`
/// means the budget is exhausted (or the link died while waiting).
fn reconnect(link: &Link, policy: &RetryPolicy, timeout: Duration) -> Option<TcpStream> {
    let mut rng = rng_seed();
    for attempt in 0..policy.max_reconnects {
        if link.dead.load(Ordering::SeqCst) {
            return None;
        }
        link.set_state(format!(
            "reconnecting (attempt {}/{})",
            attempt + 1,
            policy.max_reconnects
        ));
        let delay = backoff_delay(policy, attempt, &mut rng);
        if !sleep_unless_dead(link, delay) {
            return None;
        }
        match try_reconnect(link, timeout) {
            Ok(stream) => {
                link.reconnects.fetch_add(1, Ordering::SeqCst);
                let session = link.session.load(Ordering::SeqCst);
                link.set_state(format!("connected (session {session})"));
                return Some(stream);
            }
            Err(CoreError::Overloaded { retry_after_ms }) => {
                // The server is shedding connections; its hint extends
                // (never shortens) this attempt's backoff.
                link.set_state("server overloaded; backing off".to_string());
                if !sleep_unless_dead(link, Duration::from_millis(retry_after_ms)) {
                    return None;
                }
            }
            Err(e) => {
                link.set_state(format!("reconnect attempt failed: {e}"));
            }
        }
    }
    None
}

/// The link thread: drain responses; on disconnect, reconnect and replay;
/// on permanent failure, poison everything and die.
fn link_loop(link: Arc<Link>, mut stream: TcpStream, policy: RetryPolicy, timeout: Duration) {
    loop {
        let end = read_phase(&link, &mut stream);
        // Whatever happens next, the old send half must not be used.
        *link.write.lock() = None;
        if link.dead.load(Ordering::SeqCst) {
            poison("connection closed", &link);
            return;
        }
        let cause = match end {
            ReadEnd::Fatal(cause) => {
                link.dead.store(true, Ordering::SeqCst);
                link.set_state(format!("link dead: {cause}"));
                poison(&cause, &link);
                return;
            }
            ReadEnd::Disconnected(cause) => cause,
        };
        link.set_state(format!("disconnected: {cause}"));
        match reconnect(&link, &policy, timeout) {
            Some(new_stream) => stream = new_stream,
            None => {
                link.dead.store(true, Ordering::SeqCst);
                link.set_state(format!(
                    "link dead after {} reconnect attempts (last cause: {cause})",
                    policy.max_reconnects
                ));
                poison("connection lost (reconnect budget exhausted)", &link);
                return;
            }
        }
    }
}

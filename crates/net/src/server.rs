//! TCP server in front of the async executor.
//!
//! [`NetServer::bind`] owns an [`AsyncExecutor`] over the shared instance
//! and an accept loop; every connection gets one reader thread and one
//! writer thread:
//!
//! * The **reader** performs the handshake ([`Frame::Hello`] →
//!   [`Frame::Welcome`], binding the connection to a user via
//!   [`AsyncExecutor::handle`] and to a private `Session` carrying the replay
//!   cache and the handle queue all of the session's connections share),
//!   then decides once per [`Frame::Req`] whether to refuse, replay,
//!   coalesce, shed or run it. A frame it runs becomes one non-blocking
//!   submission ([`AsyncHandle::submit_batch`]) whose tickets go to the
//!   writer. Requests therefore pipeline: the reader is already parsing
//!   frame *n+1* while the pool executes frame *n*. A frame holding a
//!   `Login` is the one exception: the outcome rebinds the connection
//!   identity, so the reader runs it through [`AsyncHandle::batch`] (a
//!   pipeline barrier) before reading further frames.
//! * The **writer** resolves tickets strictly in submission order and
//!   streams one [`Frame::Resp`] per request frame back, with one outcome
//!   per request, so the wire order equals the submission order even
//!   though execution overlaps.
//!
//! The channel between them is *bounded* ([`ServerConfig::window`]): when
//! a client has that many submissions in flight, the reader stops reading
//! its socket, which shows up at the client as TCP backpressure — a fast
//! writer cannot queue unbounded work in server memory.
//!
//! # At-most-once execution (idempotent replay)
//!
//! A client that loses its connection after sending a commit cannot know
//! whether the server executed it — blind resending would double-commit.
//! The handshake therefore issues a **session id**; on reconnect the
//! client quotes it ([`Frame::Hello`]'s `resume`) and the connection
//! reattaches to the same `Session`, whose bounded **replay cache**
//! remembers the outcome of the last [`ServerConfig::dedup_cache`] frame
//! ids. A retried frame whose id is already cached gets the *original*
//! outcome back without re-executing; one still in flight waits for the
//! in-flight execution instead of starting a second. Refusals that never
//! executed anything — load shedding, the shutdown grace window — are
//! deliberately **not** cached: a retry after them must re-execute.
//!
//! # Self-protection
//!
//! Three admission controls keep an overloaded server shedding work with
//! typed, retryable errors instead of stalling or falling over:
//!
//! * a **connection cap** ([`ServerConfig::max_connections`]) — excess
//!   connections are refused at accept time with
//!   [`CoreError::Overloaded`];
//! * **queue-depth shedding** ([`ServerConfig::max_queue_depth`]) — when
//!   the executor's accepted-but-unfinished backlog crosses the ceiling,
//!   new frames are answered with [`CoreError::Overloaded`] (carrying
//!   `retry_after_ms` for the client's backoff) without being submitted;
//! * a **per-request deadline** ([`ServerConfig::request_deadline`]) —
//!   the writer bounds its wait on every ticket and answers
//!   [`CoreError::DeadlineExceeded`] when it elapses; the outcome is
//!   cached, so a replay of that id reports the same verdict instead of
//!   executing twice.
//!
//! Disconnects and shutdown drain rather than drop: accepted submissions
//! always execute (the writer waits every ticket even when the socket is
//! gone, and [`AsyncExecutor`]'s own drop drains its queue), while frames
//! arriving after [`NetServer::begin_shutdown`] are refused with a clean
//! [`CoreError::Network`] error during a short grace window instead of a
//! slammed connection.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use orpheus_core::{
    AsyncExecutor, AsyncHandle, CoreError, Executor, Request, Response, Result, SharedOrpheusDB,
    Ticket,
};
use parking_lot::{Condvar, Mutex};

use crate::proto::{
    is_timeout, read_frame, response_payload, write_frame, write_payload, Frame, MAX_FRAME,
    PROTOCOL_VERSION,
};

/// How often blocked reads wake up to check the shutdown flag.
const POLL: Duration = Duration::from_millis(100);
/// How often the accept loop polls between connection attempts.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// How long a connection keeps answering late frames with a clean
/// "shutting down" error before closing.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);
/// How long a fresh connection may take to say hello.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);
/// The `retry_after_ms` hint shed responses carry: long enough to let a
/// burst drain, short enough that a shed client retries within human
/// latency tolerances.
const RETRY_AFTER_MS: u64 = 50;

/// Tuning knobs for [`NetServer::bind_with`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Largest frame payload accepted from a client, in bytes.
    pub max_frame: usize,
    /// Per-connection in-flight submission window; beyond it the reader
    /// stops reading the socket (backpressure).
    pub window: usize,
    /// Connection cap: accepts beyond it are refused with a retryable
    /// [`CoreError::Overloaded`] instead of spawning threads without
    /// bound.
    pub max_connections: usize,
    /// Queue-depth ceiling for load shedding: while the executor's
    /// accepted-but-unfinished backlog is at or above this, new frames
    /// are shed with [`CoreError::Overloaded`] without being submitted.
    pub max_queue_depth: usize,
    /// Per-request deadline: the writer bounds its wait on every ticket
    /// and answers [`CoreError::DeadlineExceeded`] when it elapses.
    pub request_deadline: Duration,
    /// Replay-cache capacity per session, in frame ids. Bounds dedup
    /// memory; a client replaying an id older than its session's last
    /// `dedup_cache` frames re-executes (in practice reconnect replays
    /// only in-flight ids, far fewer than this).
    pub dedup_cache: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_frame: MAX_FRAME,
            window: 64,
            max_connections: 256,
            max_queue_depth: 1024,
            request_deadline: Duration::from_secs(30),
            dedup_cache: 256,
        }
    }
}

/// Counters the admission controls and the replay cache bump; exposed
/// through [`NetServer::stats`] so tests and the chaos benchmark can
/// assert shedding/dedup actually happened.
#[derive(Debug, Default)]
struct ServerCounters {
    shed: AtomicU64,
    deduped: AtomicU64,
    deadline_exceeded: AtomicU64,
    refused_connections: AtomicU64,
}

/// A point-in-time copy of the server's self-protection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Frames refused with [`CoreError::Overloaded`] by queue-depth
    /// shedding (requests counted individually for batches).
    pub shed: u64,
    /// Frames answered from the replay cache (or coalesced onto an
    /// in-flight execution) instead of executing again.
    pub deduped: u64,
    /// Tickets whose [`ServerConfig::request_deadline`] elapsed before
    /// the pool resolved them.
    pub deadline_exceeded: u64,
    /// Connections refused at accept time by the connection cap.
    pub refused_connections: u64,
    /// Sessions a client could still resume: those with a connection, and
    /// those whose last connection ended less than
    /// [`ServerConfig::request_deadline`] ago.
    pub sessions: u64,
    /// Connection threads the server holds a join handle for: the live
    /// ones, plus any that ended since the handles were last reaped (on
    /// every accept and every `stats` call).
    pub connections: u64,
}

// ---------------------------------------------------------------------------
// Sessions and the replay cache.
// ---------------------------------------------------------------------------

/// Bounded per-session memory of executed frames: `done` holds outcomes
/// (evicted FIFO via `order` beyond the configured capacity), `in_flight`
/// marks ids submitted but not yet resolved so a duplicate coalesces onto
/// the running execution instead of starting a second.
#[derive(Debug, Default)]
struct ReplayCache {
    done: HashMap<u64, Vec<Result<Response>>>,
    order: VecDeque<u64>,
    in_flight: HashSet<u64>,
}

/// One client's logical stream across reconnects: issued at handshake,
/// resumed by quoting its id in a later [`Frame::Hello`]. Carries the
/// replay cache and the handle queue every connection of the session
/// submits to — identity still binds per connection.
#[derive(Debug)]
struct Session {
    /// The session's [`AsyncHandle`] queue: frames a resumed connection
    /// sends run after the ones its dropped connection has in flight.
    queue: AsyncHandle,
    replay: Mutex<ReplayCache>,
    /// Signalled whenever an id moves from `in_flight` to `done`, waking
    /// writers that are answering a duplicate of an in-flight frame.
    resolved: Condvar,
}

impl Session {
    fn new(queue: AsyncHandle) -> Arc<Session> {
        Arc::new(Session {
            queue,
            replay: Mutex::new(ReplayCache::default()),
            resolved: Condvar::new(),
        })
    }

    /// Record an executed frame's outcome and wake duplicate-waiters.
    fn finish(&self, id: u64, outcomes: Vec<Result<Response>>, capacity: usize) {
        let mut cache = self.replay.lock();
        cache.in_flight.remove(&id);
        if cache.done.insert(id, outcomes).is_none() {
            cache.order.push_back(id);
        }
        while cache.order.len() > capacity.max(1) {
            if let Some(old) = cache.order.pop_front() {
                cache.done.remove(&old);
            }
        }
        drop(cache);
        self.resolved.notify_all();
    }

    /// Wait until `id` resolves (a duplicate of an in-flight frame), up
    /// to `deadline` from now. `None` means the wait timed out.
    fn await_done(&self, id: u64, deadline: Duration) -> Option<Vec<Result<Response>>> {
        let until = Instant::now() + deadline;
        let mut cache = self.replay.lock();
        loop {
            if let Some(outcomes) = cache.done.get(&id) {
                return Some(outcomes.clone());
            }
            if !cache.in_flight.contains(&id) {
                // The execution this duplicate was coalesced onto got
                // evicted or was never recorded — give up rather than
                // park forever.
                return None;
            }
            let now = Instant::now();
            if now >= until {
                return None;
            }
            self.resolved.wait_for(&mut cache, until - now);
        }
    }
}

/// A session in the registry, with what decides how long it stays there.
#[derive(Debug)]
struct Registered {
    session: Arc<Session>,
    /// Connections bound to it right now (a resuming connection can
    /// overlap the severed one it replaces, which the server has yet to
    /// notice is gone).
    attached: usize,
    /// When the last of them ended.
    detached_at: Option<Instant>,
}

/// Everything the accept loop shares with connections: the executor, the
/// session registry, counters, and config.
#[derive(Debug)]
struct Service {
    pool: Arc<AsyncExecutor>,
    config: ServerConfig,
    counters: ServerCounters,
    sessions: Mutex<HashMap<u64, Registered>>,
    next_session: AtomicU64,
    /// Live connection count for the accept-time cap.
    live: AtomicUsize,
}

impl Service {
    /// Whether new work should be shed right now.
    fn overloaded(&self) -> bool {
        self.pool.queue_depth() >= self.config.max_queue_depth
    }

    fn shed_error(&self) -> CoreError {
        CoreError::Overloaded {
            retry_after_ms: RETRY_AFTER_MS,
        }
    }

    /// Drop the sessions nobody has been connected to for longer than the
    /// request deadline — no request of theirs can still be in flight, and
    /// a client resuming one later is told `resumed: false`, so it fails
    /// its in-flight requests instead of replaying them blind. Without
    /// this the registry, and up to `dedup_cache` responses per entry,
    /// grow with every connection the server has ever accepted.
    fn expire_sessions(&self, sessions: &mut HashMap<u64, Registered>) {
        let deadline = self.config.request_deadline;
        sessions.retain(|_, s| {
            s.attached > 0 || s.detached_at.is_none_or(|at| at.elapsed() <= deadline)
        });
    }

    /// Bind a connection to the session it asks to resume, or to a fresh
    /// one, queueing on `handle`, when it names none or names one that is
    /// gone (expired, or a restarted server). Returns the session id and
    /// whether it resumed.
    fn attach_session(
        &self,
        resume: Option<u64>,
        handle: &AsyncHandle,
    ) -> (u64, Arc<Session>, bool) {
        let mut sessions = self.sessions.lock();
        self.expire_sessions(&mut sessions);
        let resumed = resume.filter(|id| sessions.contains_key(id));
        let id = resumed.unwrap_or_else(|| self.next_session.fetch_add(1, Ordering::SeqCst));
        let entry = sessions.entry(id).or_insert_with(|| Registered {
            session: Session::new(handle.clone()),
            attached: 0,
            detached_at: None,
        });
        entry.attached += 1;
        (id, Arc::clone(&entry.session), resumed.is_some())
    }

    /// The connection bound to session `id` ended.
    fn detach_session(&self, id: u64) {
        if let Some(entry) = self.sessions.lock().get_mut(&id) {
            entry.attached -= 1;
            if entry.attached == 0 {
                entry.detached_at = Some(Instant::now());
            }
        }
    }
}

/// A listening OrpheusDB service. Dropping it (or calling
/// [`NetServer::shutdown`]) stops accepting, drains every accepted
/// submission, and joins all threads.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    /// Kept directly (not borrowed through the pool) so
    /// [`NetServer::shared`] works at every point in the server's
    /// lifecycle, including after shutdown dropped the executor.
    shared: SharedOrpheusDB,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    service: Option<Arc<Service>>,
    stats: ServerStats,
}

impl NetServer {
    /// Bind with default [`ServerConfig`].
    pub fn bind(addr: impl ToSocketAddrs, shared: SharedOrpheusDB) -> Result<NetServer> {
        NetServer::bind_with(addr, shared, ServerConfig::default())
    }

    /// Bind a listener on `addr` (use port 0 for an ephemeral port, then
    /// read the resolved one from [`NetServer::local_addr`]) and start
    /// serving `shared` through a fresh [`AsyncExecutor`].
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        shared: SharedOrpheusDB,
        config: ServerConfig,
    ) -> Result<NetServer> {
        let listener =
            TcpListener::bind(addr).map_err(|e| CoreError::Network(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CoreError::Network(format!("local_addr failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| CoreError::Network(format!("set_nonblocking failed: {e}")))?;
        let pool = Arc::new(AsyncExecutor::new(shared.clone()));
        let service = Arc::new(Service {
            pool,
            config,
            counters: ServerCounters::default(),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            live: AtomicUsize::new(0),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || accept_loop(listener, service, shutdown, connections))
        };
        Ok(NetServer {
            addr,
            shared,
            shutdown,
            accept: Some(accept),
            connections,
            service: Some(service),
            stats: ServerStats {
                shed: 0,
                deduped: 0,
                deadline_exceeded: 0,
                refused_connections: 0,
                sessions: 0,
                connections: 0,
            },
        })
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared instance being served (snapshots, direct reads). Valid
    /// at every point in the server's lifecycle — even a call racing
    /// [`NetServer::begin_shutdown`] gets the instance, never a panic.
    pub fn shared(&self) -> SharedOrpheusDB {
        self.shared.clone()
    }

    /// A snapshot of the self-protection counters (shed frames, replay
    /// dedups, deadline expiries, refused connections) and the sizes of
    /// the session registry and the connection-handle list.
    pub fn stats(&self) -> ServerStats {
        match &self.service {
            Some(service) => ServerStats {
                sessions: {
                    let mut sessions = service.sessions.lock();
                    service.expire_sessions(&mut sessions);
                    sessions.len() as u64
                },
                shed: service.counters.shed.load(Ordering::SeqCst),
                deduped: service.counters.deduped.load(Ordering::SeqCst),
                deadline_exceeded: service.counters.deadline_exceeded.load(Ordering::SeqCst),
                refused_connections: service.counters.refused_connections.load(Ordering::SeqCst),
                connections: {
                    let mut connections = self.connections.lock();
                    reap(&mut connections);
                    connections.len() as u64
                },
            },
            None => self.stats,
        }
    }

    /// Flip the shutdown flag without joining anything: connections keep
    /// draining accepted work but refuse frames arriving from now on.
    /// Tests use this to observe the refusal window; normal teardown goes
    /// through [`NetServer::shutdown`] or drop.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Graceful stop: refuse new work, drain accepted submissions, join
    /// every thread.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let connections = std::mem::take(&mut *self.connections.lock());
        for connection in connections {
            let _ = connection.join();
        }
        // Freeze the final counter values, then drop the service —
        // dropping the executor drains everything it accepted.
        self.stats = self.stats();
        self.service.take();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Decrements the live-connection gauge when a connection thread exits,
/// whatever path it takes out.
struct ConnectionGuard(Arc<Service>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Detaches a connection from its session when the connection ends,
/// whatever path it takes out — which is what starts the session's
/// expiry clock.
struct SessionGuard<'a> {
    service: &'a Service,
    id: u64,
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.service.detach_session(self.id);
    }
}

/// Drop the handles of connection threads that have ended. Without this
/// the accept loop holds one per connection it ever accepted until
/// shutdown.
fn reap(connections: &mut Vec<JoinHandle<()>>) {
    connections.retain(|handle| !handle.is_finished());
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Connection cap: admission control happens before a
                // thread is spawned, so a connection storm costs one
                // refusal frame each, not a thread each.
                if service.live.load(Ordering::SeqCst) >= service.config.max_connections {
                    service
                        .counters
                        .refused_connections
                        .fetch_add(1, Ordering::SeqCst);
                    refuse_connection(stream, service.shed_error());
                    continue;
                }
                service.live.fetch_add(1, Ordering::SeqCst);
                let service = Arc::clone(&service);
                let shutdown = Arc::clone(&shutdown);
                let handle = std::thread::spawn(move || {
                    let _guard = ConnectionGuard(Arc::clone(&service));
                    serve_connection(stream, service, shutdown);
                });
                let mut connections = connections.lock();
                reap(&mut connections);
                connections.push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // Transient accept failures (e.g. a connection reset in the
            // backlog) must not kill the listener.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// One request's place in a response: a resolved outcome (barriers,
/// refusals, cache hits) or a ticket to wait on in order.
enum Slot {
    Done(Result<Response>),
    Pending { ticket: Ticket, since: Instant },
}

/// What the reader hands the writer for one request frame.
enum Outgoing {
    Resp {
        id: u64,
        slots: Vec<Slot>,
        /// Record the outcomes in the session's replay cache (false for
        /// refusals that never executed — they must not dedup a retry —
        /// and for frames the reader already cached).
        cache: bool,
    },
    /// A duplicate of a frame of `n` requests currently in flight: wait
    /// for the original execution to resolve and echo its outcomes.
    Duplicate { id: u64, n: usize },
}

impl Outgoing {
    /// A response whose outcomes are already known, for the writer to send
    /// as they are.
    fn done(id: u64, outcomes: impl IntoIterator<Item = Result<Response>>) -> Outgoing {
        Outgoing::Resp {
            id,
            slots: outcomes.into_iter().map(Slot::Done).collect(),
            cache: false,
        }
    }
}

fn refusal() -> CoreError {
    CoreError::Network("server shutting down; request refused".to_string())
}

/// Send a terminal error on a connection that never completed its
/// handshake, then close it.
fn refuse_connection(mut stream: TcpStream, error: CoreError) {
    let _ = write_frame(
        &mut stream,
        &Frame::Resp {
            id: 0,
            outcomes: vec![Err(error)],
        },
    );
    let _ = stream.shutdown(Shutdown::Both);
}

/// Handshake: wait for a [`Frame::Hello`], validate it, bind the user and
/// session (resuming the quoted session when it is still known).
fn handshake<'a>(
    stream: &mut TcpStream,
    service: &'a Service,
    shutdown: &AtomicBool,
) -> Option<(AsyncHandle, Arc<Session>, SessionGuard<'a>)> {
    let deadline = Instant::now() + HANDSHAKE_DEADLINE;
    loop {
        match read_frame(stream, service.config.max_frame) {
            Ok(Some(Frame::Hello {
                version,
                user,
                resume,
            })) => {
                if version != PROTOCOL_VERSION {
                    refuse_connection(
                        stream.try_clone().ok()?,
                        CoreError::Protocol(format!(
                            "protocol version {version} not supported; server speaks version {PROTOCOL_VERSION}"
                        )),
                    );
                    return None;
                }
                match service.pool.handle(&user) {
                    Ok(handle) => {
                        // `resumed: false` for a quoted session that is
                        // gone tells the client to fail — not blindly
                        // replay — requests whose dedup state was lost.
                        let (id, session, resumed) = service.attach_session(resume, &handle);
                        let handle = handle.into_queue_of(&session.queue);
                        let guard = SessionGuard { service, id };
                        let welcome = Frame::Welcome {
                            version: PROTOCOL_VERSION,
                            user: handle.user().to_string(),
                            session: id,
                            resumed,
                        };
                        if write_frame(stream, &welcome).is_err() {
                            return None;
                        }
                        return Some((handle, session, guard));
                    }
                    Err(e) => {
                        refuse_connection(stream.try_clone().ok()?, e);
                        return None;
                    }
                }
            }
            Ok(Some(_)) => {
                refuse_connection(
                    stream.try_clone().ok()?,
                    CoreError::Protocol("expected a hello frame to open the connection".into()),
                );
                return None;
            }
            Ok(None) => return None,
            Err(e) if is_timeout(&e) => {
                if shutdown.load(Ordering::SeqCst) || Instant::now() >= deadline {
                    refuse_connection(stream.try_clone().ok()?, refusal());
                    return None;
                }
            }
            Err(e) => {
                if let Ok(clone) = stream.try_clone() {
                    refuse_connection(clone, e);
                }
                return None;
            }
        }
    }
}

/// The reader's one decision per request frame, past the shutdown check:
/// replay it from the cache, coalesce it onto its in-flight twin (one
/// submitted by a previous connection of this session, or a duplicate on
/// this one), shed it, or run it.
fn admit_frame(
    id: u64,
    requests: Vec<Request>,
    handle: &mut AsyncHandle,
    session: &Session,
    service: &Service,
) -> Outgoing {
    let counters = &service.counters;
    {
        let mut cache = session.replay.lock();
        if let Some(outcomes) = cache.done.get(&id) {
            counters.deduped.fetch_add(1, Ordering::SeqCst);
            return Outgoing::done(id, outcomes.iter().cloned());
        }
        if !cache.in_flight.insert(id) {
            counters.deduped.fetch_add(1, Ordering::SeqCst);
            let n = requests.len();
            return Outgoing::Duplicate { id, n };
        }
    }
    if service.overloaded() {
        // Shed before executing; un-mark the id so the client's retry is
        // fresh work again.
        session.replay.lock().in_flight.remove(&id);
        let n = requests.len();
        counters.shed.fetch_add(n as u64, Ordering::SeqCst);
        return Outgoing::done(id, (0..n).map(|_| Err(service.shed_error())));
    }
    if requests.iter().any(|r| matches!(r, Request::Login(_))) {
        // Identity barrier: resolve before reading on, and cache
        // immediately so even a crash between here and the writer dedups
        // a replay.
        let outcomes = handle.batch(requests);
        session.finish(id, outcomes.clone(), service.config.dedup_cache);
        return Outgoing::done(id, outcomes);
    }
    let since = Instant::now();
    let slots = handle
        .submit_batch(requests)
        .into_iter()
        .map(|ticket| Slot::Pending { ticket, since })
        .collect();
    Outgoing::Resp {
        id,
        slots,
        cache: true,
    }
}

fn serve_connection(mut stream: TcpStream, service: Arc<Service>, shutdown: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let Some((mut handle, session, _detach)) = handshake(&mut stream, &service, &shutdown) else {
        return;
    };
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::sync_channel::<Outgoing>(service.config.window);
    let writer = {
        let service = Arc::clone(&service);
        let session = Arc::clone(&session);
        std::thread::spawn(move || writer_loop(write_stream, rx, service, session))
    };

    // The reader: socket frames in, pool submissions out. `refusing`
    // carries the grace deadline once shutdown begins.
    let mut refusing: Option<Instant> = None;
    loop {
        if refusing.is_none() && shutdown.load(Ordering::SeqCst) {
            refusing = Some(Instant::now() + SHUTDOWN_GRACE);
        }
        if let Some(deadline) = refusing {
            if Instant::now() >= deadline {
                break;
            }
        }
        match read_frame(&mut stream, service.config.max_frame) {
            Ok(None) => break,
            Ok(Some(Frame::Req { id, requests })) => {
                // A frame that raced `begin_shutdown` past the check
                // above still gets the typed refusal below — `refusing`
                // is re-checked per frame, and refusals bypass the pool
                // entirely, so a late frame can never observe a
                // half-torn-down executor.
                if refusing.is_none() && shutdown.load(Ordering::SeqCst) {
                    refusing = Some(Instant::now() + SHUTDOWN_GRACE);
                }
                let out = if refusing.is_some() {
                    Outgoing::done(id, requests.iter().map(|_| Err(refusal())))
                } else {
                    admit_frame(id, requests, &mut handle, &session, &service)
                };
                if tx.send(out).is_err() {
                    break;
                }
            }
            Ok(Some(_)) => {
                let unexpected = CoreError::Protocol("unexpected server-bound frame".into());
                let _ = tx.send(Outgoing::done(0, [Err(unexpected)]));
                break;
            }
            Err(e) if is_timeout(&e) => {}
            Err(e) => {
                // Malformed frame or broken socket: report (best-effort,
                // after everything already queued) and close.
                let _ = tx.send(Outgoing::done(0, [Err(e)]));
                break;
            }
        }
    }
    drop(tx);
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Resolve outcomes in submission order and stream them back, recording
/// executed outcomes in the session's replay cache. When the socket dies
/// mid-stream the loop keeps *waiting* the remaining tickets — accepted
/// work must finish against the shared instance, and its outcomes must
/// land in the cache for the reconnected client to replay against — and
/// only stops writing.
fn writer_loop(
    mut stream: TcpStream,
    rx: mpsc::Receiver<Outgoing>,
    service: Arc<Service>,
    session: Arc<Session>,
) {
    let deadline = service.config.request_deadline;
    let capacity = service.config.dedup_cache;
    let mut broken = false;
    while let Ok(out) = rx.recv() {
        let payload = match out {
            Outgoing::Resp { id, slots, cache } => {
                let outcomes: Vec<Result<Response>> = slots
                    .into_iter()
                    .map(|slot| resolve(slot, deadline, &service))
                    .collect();
                let payload = response_payload(id, &outcomes);
                if cache {
                    session.finish(id, outcomes, capacity);
                }
                payload
            }
            Outgoing::Duplicate { id, n } => {
                let waiting = Instant::now();
                match session.await_done(id, deadline) {
                    Some(outcomes) => response_payload(id, &outcomes),
                    None => {
                        // Evicted or still running past the deadline: the
                        // outcome is unknowable, for each request of the frame.
                        // Only a wait that ran out counts as an expiry; an
                        // evicted outcome is answered as soon as it is missed.
                        let waited = waiting.elapsed();
                        if waited >= deadline {
                            service
                                .counters
                                .deadline_exceeded
                                .fetch_add(1, Ordering::SeqCst);
                        }
                        let elapsed_ms = waited.as_millis() as u64;
                        let outcomes: Vec<Result<Response>> = (0..n)
                            .map(|_| Err(CoreError::DeadlineExceeded { elapsed_ms }))
                            .collect();
                        response_payload(id, &outcomes)
                    }
                }
            }
        };
        if !broken && write_payload(&mut stream, &payload).is_err() {
            broken = true;
        }
    }
}

/// Resolve one slot, bounding the wait by the per-request deadline. A
/// ticket that outlives the deadline answers
/// [`CoreError::DeadlineExceeded`]; the execution itself keeps running and
/// its true outcome is unknowable to the client — which is exactly what
/// the error says. The deadline verdict is what gets cached, so a replay
/// of the id reports the same verdict instead of executing twice.
fn resolve(slot: Slot, deadline: Duration, service: &Service) -> Result<Response> {
    match slot {
        Slot::Done(result) => result,
        Slot::Pending { ticket, since } => {
            let remaining = deadline.saturating_sub(since.elapsed());
            match ticket.wait_for(remaining) {
                Some(outcome) => outcome,
                None => {
                    service
                        .counters
                        .deadline_exceeded
                        .fetch_add(1, Ordering::SeqCst);
                    Err(CoreError::DeadlineExceeded {
                        elapsed_ms: since.elapsed().as_millis() as u64,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_core::concurrent::arm_commit_gate;
    use orpheus_core::{Checkout, Commit, OrpheusDB};
    use orpheus_engine::{Column, DataType, Schema, Value};

    use crate::proto::read_frame;

    fn send(stream: &mut TcpStream, id: u64, requests: Vec<Request>) {
        write_frame(stream, &Frame::Req { id, requests }).expect("send a request frame");
    }

    fn receive(stream: &mut TcpStream) -> (u64, Vec<Result<Response>>) {
        match read_frame(stream, MAX_FRAME) {
            Ok(Some(Frame::Resp { id, outcomes })) => (id, outcomes),
            other => panic!("expected a response frame, got {other:?}"),
        }
    }

    /// A duplicate of an in-flight frame whose outcome the replay cache
    /// evicted before the writer could echo it still gets one outcome per
    /// request of the frame: the client fails a response of another
    /// length.
    #[test]
    fn an_evicted_duplicate_is_answered_with_one_outcome_per_request() {
        let schema = Schema::new(vec![Column::new("k", DataType::Int)])
            .with_primary_key(&["k"])
            .expect("k is a column");
        let mut odb = OrpheusDB::new();
        odb.init_cvd("x", schema, vec![vec![Value::Int(1)]], None)
            .expect("init x");
        let config = ServerConfig {
            dedup_cache: 1,
            ..ServerConfig::default()
        };
        let server = NetServer::bind_with("127.0.0.1:0", SharedOrpheusDB::new(odb), config)
            .expect("bind a loopback port");
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            user: "ada".to_string(),
            resume: None,
        };
        write_frame(&mut raw, &hello).expect("say hello");
        assert!(matches!(
            read_frame(&mut raw, MAX_FRAME),
            Ok(Some(Frame::Welcome { .. }))
        ));
        let checkout = Checkout::of("x").version(1u64).into_table("held");
        send(&mut raw, 4, vec![checkout.into()]);
        let (_, outcomes) = receive(&mut raw);
        assert!(outcomes[0].is_ok(), "{outcomes:?}");

        let gate = arm_commit_gate("held");
        let frame_5 = || {
            vec![
                Commit::table("held").message("held").into(),
                Request::Whoami,
            ]
        };
        send(&mut raw, 5, frame_5());
        gate.wait_entered();
        send(&mut raw, 6, vec![Request::Whoami]);
        send(&mut raw, 5, frame_5());
        // Frame 5 resolves only once its duplicate has coalesced onto it,
        // so the writer answers 5, then 6 (whose outcome evicts 5's from
        // the one-entry cache), then the duplicate.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().deduped == 0 {
            assert!(Instant::now() < deadline, "the duplicate never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        gate.release();

        let (id, outcomes) = receive(&mut raw);
        assert_eq!(id, 5);
        assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
        assert_eq!(receive(&mut raw).0, 6);
        let (id, outcomes) = receive(&mut raw);
        assert_eq!(id, 5);
        assert_eq!(outcomes.len(), 2, "{outcomes:?}");
        // The eviction is answered at once: the reply reports the wait it
        // measured, not the whole deadline, and counts no expiry.
        let deadline_ms = ServerConfig::default().request_deadline.as_millis() as u64;
        for outcome in &outcomes {
            assert!(
                matches!(outcome, Err(CoreError::DeadlineExceeded { elapsed_ms }) if *elapsed_ms < deadline_ms),
                "{outcome:?}"
            );
        }
        assert_eq!(server.stats().deadline_exceeded, 0);
        drop(raw);
        server.shutdown();
    }
}

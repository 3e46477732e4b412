//! The async executor: submit requests without blocking on shard locks.
//!
//! The paper's deployment (Section 2) has many analysts working on one
//! instance at once. The synchronous executors make each *caller* pay for
//! lock waits: a `Session` blocks its thread on the target CVD's lock for
//! every request. This module runs requests on threads of its own, and
//! gives every client the order a `Session` on a thread of its own has:
//!
//! * every [`AsyncHandle`] is a **FIFO queue** of submissions — one
//!   request, or one [`AsyncHandle::submit_batch`] vector. Clones of a
//!   handle share its queue;
//! * a **dispatcher thread** gives a worker one submission per queue at a
//!   time, and the queue's next one when the worker reports it done. It
//!   plans nothing and reads no catalog;
//! * a **worker pool** takes submissions from one FIFO job queue and runs
//!   each one request by request through `ConcurrentExecutor::execute_as`
//!   (crate-internal), the path a single `Session::execute` takes, with a
//!   `catch_unwind` around each request;
//! * clients get a [`Ticket`] per request — a future-like slot fulfilled
//!   by the worker that ran it. `submit` never blocks on shard locks;
//!   [`Ticket::wait`] blocks only that client.
//!
//! So the submissions of different handles run side by side, one per
//! worker: while one handle's commit holds a CVD's lock, another handle's
//! read of that CVD (served from its MVCC snapshot) or of any other CVD
//! is answered.
//!
//! Everything is built from the vendored `parking_lot` shim's
//! `Mutex`/`Condvar` plus `std::sync::mpsc` — no async runtime exists in
//! this offline workspace, and none is needed: the concurrency is
//! thread-per-worker with condition-variable parking.
//!
//! # Ordering and failure semantics
//!
//! * **Per handle** — requests execute one after another in submission
//!   order, exactly like a `Session`'s `execute` loop; responses always
//!   answer their own submission ([`Ticket`]s don't shuffle).
//! * **Across handles** — no order: each request takes its shard's lock
//!   or snapshot as a `Session`'s would, so the requests of different
//!   handles interleave as concurrent sessions do.
//! * **Failures** — per request, exactly as [`Executor::batch`]: a failed
//!   request never aborts the requests after it.
//! * **Panics** — a panic while running a request fails that request
//!   alone with [`CoreError::WorkerPanicked`]: its reservations are
//!   released, and the requests after it, its shard and the worker carry
//!   on.
//!
//! # Example
//!
//! ```
//! use orpheus_core::{AsyncExecutor, Checkout, Commit, OrpheusDB, SharedOrpheusDB};
//! use orpheus_engine::{Column, DataType, Schema, Value};
//!
//! let mut odb = OrpheusDB::new();
//! let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
//! odb.init_cvd("data", schema, vec![vec![Value::Int(1)]], None).unwrap();
//!
//! let pool = AsyncExecutor::new(SharedOrpheusDB::new(odb));
//! let alice = pool.handle("alice").unwrap();
//!
//! // Submit without blocking; wait on the tickets when the results are
//! // actually needed. One handle's submissions execute in order, so the
//! // commit sees the checkout.
//! let t1 = alice.submit(Checkout::of("data").version(1u64).into_table("w"));
//! let t2 = alice.submit(Commit::table("w").message("async commit"));
//! t1.wait().unwrap();
//! let response = t2.wait().unwrap();
//! assert_eq!(response.summary(), "committed w as v2");
//! ```

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::concurrent::{ConcurrentExecutor, SharedOrpheusDB};
use crate::error::{CoreError, Result};
use crate::request::{Executor, Request};
use crate::response::Response;

// ---------------------------------------------------------------------------
// Tickets.
// ---------------------------------------------------------------------------

/// The slot a [`Ticket`] waits on: fulfilled exactly once by whichever
/// thread finishes the request (first write wins; later writes are
/// dropped, which makes poisoning idempotent).
#[derive(Debug)]
struct TicketCell {
    state: Mutex<Option<Result<Response>>>,
    ready: Condvar,
}

impl TicketCell {
    fn new() -> Arc<TicketCell> {
        Arc::new(TicketCell {
            state: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, result: Result<Response>) {
        let mut state = self.state.lock();
        if state.is_none() {
            *state = Some(result);
        }
        self.ready.notify_all();
    }
}

/// A pending response: returned by [`AsyncHandle::submit`], resolved by
/// [`Ticket::wait`]. Dropping a ticket abandons the response (the request
/// still executes).
#[derive(Debug)]
pub struct Ticket(Arc<TicketCell>);

impl Ticket {
    /// Block until the request finished and return its outcome.
    pub fn wait(self) -> Result<Response> {
        let mut state = self.0.state.lock();
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            self.0.ready.wait(&mut state);
        }
    }

    /// Block for at most `timeout` for the outcome. `None` means the
    /// timeout elapsed first; the ticket is untouched and a later
    /// [`Ticket::wait`]/[`Ticket::wait_for`] can still collect the
    /// result. This is what keeps a hung producer — a remote server that
    /// stopped answering, a stalled worker — from blocking a client
    /// forever: the client bounds its wait and converts `None` into its
    /// own timeout error.
    pub fn wait_for(&self, timeout: std::time::Duration) -> Option<Result<Response>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.0.state.lock();
        loop {
            if let Some(result) = state.take() {
                return Some(result);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            self.0.ready.wait_for(&mut state, deadline - now);
        }
    }

    /// Whether the response is already available ([`Ticket::wait`] would
    /// return without blocking).
    pub fn is_ready(&self) -> bool {
        self.0.state.lock().is_some()
    }

    /// An unfulfilled ticket plus its producing end, for code that
    /// resolves tickets from outside this module — the network client
    /// fulfills them from its response-reader thread. Fulfillment is
    /// first-write-wins, exactly as for pool-issued tickets.
    pub fn pending() -> (Ticket, TicketFulfiller) {
        let cell = TicketCell::new();
        (Ticket(Arc::clone(&cell)), TicketFulfiller(cell))
    }

    /// A ticket already holding `result` — for producers that resolve a
    /// request synchronously but hand back the uniform ticket interface.
    pub fn ready(result: Result<Response>) -> Ticket {
        let cell = TicketCell::new();
        cell.fulfill(result);
        Ticket(cell)
    }
}

/// The producing end of a [`Ticket::pending`] pair: fulfills the ticket
/// exactly once (later writes are dropped — first write wins). Dropping a
/// fulfiller without fulfilling leaves waiters blocked, so producers must
/// resolve every outstanding fulfiller on their shutdown paths (the
/// network client poisons all pending tickets when its connection dies).
#[derive(Debug)]
pub struct TicketFulfiller(Arc<TicketCell>);

impl TicketFulfiller {
    /// Resolve the paired ticket.
    pub fn fulfill(self, result: Result<Response>) {
        self.0.fulfill(result);
    }
}

// ---------------------------------------------------------------------------
// The worker pool: one FIFO job queue.
// ---------------------------------------------------------------------------

/// One submission of one handle queue: a request, or a `submit_batch`
/// vector, run in order as the user the handle had when it submitted.
struct Submission {
    queue: u64,
    user: String,
    requests: Vec<(Request, Arc<TicketCell>)>,
}

#[derive(Default)]
struct Jobs {
    /// Submissions no worker has taken yet. The dispatcher queues at most
    /// one submission per handle queue, so none of them needs ordering
    /// against another.
    queued: VecDeque<Submission>,
    shutdown: bool,
}

struct Pool {
    jobs: Mutex<Jobs>,
    /// Signals workers: a submission was queued, or shutdown.
    work: Condvar,
}

impl Pool {
    fn push(&self, submission: Submission) {
        self.jobs.lock().queued.push_back(submission);
        self.work.notify_one();
    }

    fn shutdown(&self) {
        self.jobs.lock().shutdown = true;
        self.work.notify_all();
    }

    /// The front submission; `None` once the pool is shut down and empty.
    fn take(&self) -> Option<Submission> {
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(submission) = jobs.queued.pop_front() {
                return Some(submission);
            }
            if jobs.shutdown {
                return None;
            }
            self.work.wait(&mut jobs);
        }
    }
}

/// Worker loop: run each submission request by request, then tell the
/// dispatcher that its queue may go on.
fn worker_loop(
    pool: &Pool,
    exec: &ConcurrentExecutor,
    depth: &AtomicUsize,
    done: &mpsc::Sender<Msg>,
) {
    while let Some(submission) = pool.take() {
        let user = submission.user;
        for (request, ticket) in submission.requests {
            // The request engine contains a panic inside a shard itself
            // (naming the shard); this catches one anywhere else on the
            // request's path, so the worker thread survives it.
            let outcome = catch_unwind(AssertUnwindSafe(|| exec.execute_as(&user, request)))
                .unwrap_or_else(|_| {
                    Err(CoreError::WorkerPanicked {
                        shard: "worker".to_string(),
                    })
                });
            // Counted out before the ticket resolves, so a client holding
            // its answer never finds its own request in the gauge.
            depth.fetch_sub(1, Ordering::SeqCst);
            ticket.fulfill(outcome);
        }
        // Fails only once the dispatcher is gone, when no queue goes on.
        let _ = done.send(Msg::Done(submission.queue));
    }
}

// ---------------------------------------------------------------------------
// The dispatcher.
// ---------------------------------------------------------------------------

enum Msg {
    /// One handle's submission, travelling whole.
    Submit(Submission),
    /// A worker finished a submission of this handle queue.
    Done(u64),
    Shutdown,
}

/// Dispatcher loop: a worker runs at most one submission per handle queue
/// at a time; the queue's later submissions wait here, in order, until
/// the worker reports the running one done.
fn dispatcher_loop(
    rx: &mpsc::Receiver<Msg>,
    pool: &Pool,
    closed: &AtomicBool,
    depth: &AtomicUsize,
) {
    // The queues with a submission at a worker, each with what waits
    // behind it. An idle queue has no entry.
    let mut busy: HashMap<u64, VecDeque<Submission>> = HashMap::new();
    let mut shutting_down = false;
    loop {
        // Shutdown handshake, phase 1 — finish the work that was already
        // accepted: any submission whose send completed before the
        // shutdown message is in the channel, so stop only when nothing
        // runs and the channel is empty. Synchronous callers blocked on
        // tickets are not stranded.
        let next = if shutting_down && busy.is_empty() {
            rx.try_recv().ok()
        } else {
            rx.recv().ok()
        };
        let Some(msg) = next else { break };
        match msg {
            Msg::Submit(submission) => match busy.get_mut(&submission.queue) {
                Some(waiting) => waiting.push_back(submission),
                None => {
                    busy.insert(submission.queue, VecDeque::new());
                    pool.push(submission);
                }
            },
            Msg::Done(queue) => match busy.get_mut(&queue).and_then(VecDeque::pop_front) {
                Some(next) => pool.push(next),
                None => {
                    busy.remove(&queue);
                }
            },
            Msg::Shutdown => shutting_down = true,
        }
    }
    // Phase 2 — publish `closed`, then *refuse* (never execute) whatever
    // raced in. Together with `AsyncHandle::close_race_check` this makes
    // the race deterministic: a submission concurrent with shutdown
    // either landed before `closed` and fully executed above, or it
    // resolves to the shutdown error WITHOUT side effects — here if the
    // message arrived, in `close_race_check` if it was lost. It can
    // never both execute and report failure.
    closed.store(true, Ordering::SeqCst);
    while let Ok(msg) = rx.try_recv() {
        let Msg::Submit(refused) = msg else { continue };
        for (_, ticket) in refused.requests {
            depth.fetch_sub(1, Ordering::SeqCst);
            ticket.fulfill(Err(shutdown_error()));
        }
    }
}

// ---------------------------------------------------------------------------
// The public surface.
// ---------------------------------------------------------------------------

/// A shared OrpheusDB instance behind a dispatcher thread and a worker
/// pool (see the module docs for the architecture). Cheap to query
/// for handles; owns the threads and joins them on drop, after finishing
/// all accepted submissions.
///
/// The pool itself executes nothing on anyone's behalf: every client —
/// executor-generic code (the CLI, the bench harness's `drive`) included —
/// takes an [`AsyncHandle`], which is the [`Executor`].
#[derive(Debug)]
pub struct AsyncExecutor {
    shared: SharedOrpheusDB,
    tx: mpsc::Sender<Msg>,
    /// Accepted-but-unfinished requests (queued or executing) — the
    /// load-shedding signal read by [`AsyncExecutor::queue_depth`].
    /// Incremented by handles on submit, decremented by the worker that
    /// runs each request (or by the dispatcher refusing it at shutdown).
    depth: Arc<AtomicUsize>,
    /// Published (true) by the dispatcher once it will never read the
    /// channel again — the submit-side half of the shutdown handshake.
    closed: Arc<AtomicBool>,
    /// The queue id of the next handle.
    next_queue: AtomicU64,
    dispatcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl AsyncExecutor {
    /// Spawn the dispatcher plus a worker pool sized to the detected
    /// hardware parallelism, clamped to [2, 8]: with one worker, a handle
    /// whose request waits on a shard lock would stall every other
    /// handle; above eight, workers outnumber useful shard concurrency in
    /// every workload we generate.
    pub fn new(shared: SharedOrpheusDB) -> AsyncExecutor {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        AsyncExecutor::with_workers(shared, parallelism.clamp(2, 8))
    }

    /// Spawn with an explicit worker-pool size; zero starts one worker.
    pub fn with_workers(shared: SharedOrpheusDB, workers: usize) -> AsyncExecutor {
        let pool = Arc::new(Pool {
            jobs: Mutex::new(Jobs::default()),
            work: Condvar::new(),
        });
        let (tx, rx) = mpsc::channel();
        let closed = Arc::new(AtomicBool::new(false));
        let depth = Arc::new(AtomicUsize::new(0));
        let worker_handles = (0..workers.max(1))
            .map(|_| {
                let (pool, depth, done) = (Arc::clone(&pool), Arc::clone(&depth), tx.clone());
                // The worker's own identity never executes anything —
                // every submission carries its handle's user — so an
                // unregistered placeholder is correct here.
                let exec = shared.internal_executor("__async_worker");
                std::thread::spawn(move || worker_loop(&pool, &exec, &depth, &done))
            })
            .collect();
        let dispatcher = {
            let (closed, depth) = (Arc::clone(&closed), Arc::clone(&depth));
            std::thread::spawn(move || {
                dispatcher_loop(&rx, &pool, &closed, &depth);
                pool.shutdown();
            })
        };
        AsyncExecutor {
            shared,
            tx,
            depth,
            closed,
            next_queue: AtomicU64::new(0),
            dispatcher: Some(dispatcher),
            workers: worker_handles,
        }
    }

    /// Open a client handle, with a queue of its own, operating as `user`
    /// (registering the account if needed — same semantics as
    /// [`SharedOrpheusDB::session`]).
    pub fn handle(&self, user: &str) -> Result<AsyncHandle> {
        // Registration goes through the catalog exactly as for sessions.
        self.shared.executor(user)?;
        Ok(AsyncHandle {
            tx: self.tx.clone(),
            closed: Arc::clone(&self.closed),
            depth: Arc::clone(&self.depth),
            queue: self.next_queue.fetch_add(1, Ordering::Relaxed),
            user: user.to_string(),
        })
    }

    /// Accepted-but-unfinished requests (queued plus executing), the
    /// admission-control signal: the network server refuses new work with
    /// a retryable [`CoreError::Overloaded`] once this crosses its
    /// configured ceiling, instead of letting the backlog grow without
    /// bound. Momentarily stale by design — a racing submit may slip past
    /// one read — which only moves the shedding threshold by one request.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// The shared instance behind this executor (snapshots, `read`).
    pub fn shared(&self) -> &SharedOrpheusDB {
        &self.shared
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for AsyncExecutor {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One client's handle on an [`AsyncExecutor`]: the async counterpart of
/// [`crate::Session`], carrying a user identity and a FIFO queue. Clone
/// freely — clones share the queue, so their submissions run one after
/// another in the order they were made, and share the identity *at clone
/// time* but rebind independently on `Login`.
///
/// `submit` enqueues and returns a [`Ticket`] immediately; the
/// [`Executor`] impl layers the synchronous contract on top (`execute` =
/// submit + wait; `batch` = submit all, wait all, preserving submission
/// order and per-request failures). A `Login` request through `execute`
/// or `batch` rebinds this handle on success, exactly like a session;
/// through bare `submit` it validates the user but rebinds nothing (a
/// `&self` submission cannot retarget the handle).
#[derive(Debug, Clone)]
pub struct AsyncHandle {
    tx: mpsc::Sender<Msg>,
    /// See [`AsyncExecutor::closed`]: true once the dispatcher will
    /// never read the channel again.
    closed: Arc<AtomicBool>,
    /// See [`AsyncExecutor::queue_depth`].
    depth: Arc<AtomicUsize>,
    /// The id of this handle's queue, shared by its clones.
    queue: u64,
    user: String,
}

fn shutdown_error() -> CoreError {
    CoreError::Invalid("async executor has shut down".to_string())
}

impl AsyncHandle {
    /// The identity this handle submits under.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// This handle's identity on `queue`'s FIFO: its submissions run
    /// after every submission `queue` and its clones made before them.
    /// The network server gives every connection of one client session
    /// that session's queue, so the frames a resumed connection sends run
    /// after the ones its dropped connection still has in flight.
    pub fn into_queue_of(self, queue: &AsyncHandle) -> AsyncHandle {
        AsyncHandle {
            user: self.user,
            ..queue.clone()
        }
    }

    /// Enqueue a request without blocking on any shard lock. If the
    /// executor has shut down, the ticket resolves immediately to an
    /// error instead of waiting forever.
    pub fn submit(&self, request: impl Into<Request>) -> Ticket {
        self.submit_batch([request])
            .pop()
            .expect("submit_batch answers one ticket per request")
    }

    /// Enqueue a whole request vector as **one** submission: a worker
    /// runs it request by request, and no other submission of this
    /// queue runs in between. Returns one [`Ticket`] per request, in
    /// submission order.
    pub fn submit_batch<I>(&self, requests: I) -> Vec<Ticket>
    where
        I: IntoIterator,
        I::Item: Into<Request>,
    {
        let requests: Vec<(Request, Arc<TicketCell>)> = requests
            .into_iter()
            .map(|request| (request.into(), TicketCell::new()))
            .collect();
        let cells: Vec<Arc<TicketCell>> = requests.iter().map(|(_, c)| Arc::clone(c)).collect();
        if !cells.is_empty() {
            let len = cells.len();
            self.depth.fetch_add(len, Ordering::SeqCst);
            let submission = Submission {
                queue: self.queue,
                user: self.user.clone(),
                requests,
            };
            if self.tx.send(Msg::Submit(submission)).is_err() {
                self.depth.fetch_sub(len, Ordering::SeqCst);
                for cell in &cells {
                    cell.fulfill(Err(shutdown_error()));
                }
            }
            self.close_race_check(&cells);
        }
        cells.into_iter().map(Ticket).collect()
    }

    /// The submit half of the shutdown handshake. A send can succeed in
    /// the instant between the dispatcher's final drain and the receiver
    /// being dropped; without this, such a submission would be silently
    /// lost and its ticket would wait forever. The dispatcher publishes
    /// `closed` between its execute-drain and its refuse-drain, so after
    /// a send exactly one of these holds: `closed` was still false — the
    /// send completed before the refuse-drain began, so one of the two
    /// drains is guaranteed to fulfill the ticket (executing it if it
    /// made the execute-drain, refusing it otherwise); or `closed` reads
    /// true — the message might be lost entirely, and poisoning here
    /// covers that. The refuse-drain never executes, so a raced
    /// submission can never both run and report the shutdown error;
    /// fulfillment is first-write-wins, so double poisoning is harmless
    /// and a ticket the dispatcher already answered keeps its real
    /// result.
    fn close_race_check(&self, cells: &[Arc<TicketCell>]) {
        if self.closed.load(Ordering::SeqCst) {
            for cell in cells {
                cell.fulfill(Err(shutdown_error()));
            }
        }
    }
}

impl Executor for AsyncHandle {
    fn execute(&mut self, request: Request) -> Result<Response> {
        let rebind = match &request {
            Request::Login(login) => Some(login.user.clone()),
            _ => None,
        };
        let result = self.submit(request).wait();
        if let (Some(user), Ok(_)) = (rebind, &result) {
            self.user = user;
        }
        result
    }

    fn batch<I: IntoIterator<Item = Request>>(&mut self, requests: I) -> Vec<Result<Response>>
    where
        Self: Sized,
    {
        enum Slot {
            Done(Result<Response>),
            Pending(Ticket),
        }
        let mut slots: Vec<Slot> = Vec::new();
        let mut run: Vec<Request> = Vec::new();
        for request in requests {
            if matches!(request, Request::Login(_)) {
                // A login's outcome decides the identity of every later
                // submission, so it is a pipeline barrier: submit the run
                // collected so far as one submission, then wait for the
                // login itself (the queue runs that run first).
                slots.extend(
                    self.submit_batch(run.drain(..))
                        .into_iter()
                        .map(Slot::Pending),
                );
                slots.push(Slot::Done(self.execute(request)));
            } else {
                run.push(request);
            }
        }
        slots.extend(self.submit_batch(run).into_iter().map(Slot::Pending));
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(result) => result,
                Slot::Pending(ticket) => ticket.wait(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::OrpheusDB;
    use crate::ids::Vid;
    use crate::request::{Checkout, Commit, Login, Run};
    use orpheus_engine::{Column, DataType, Schema, Value};

    fn shared_with_cvds(names: &[&str]) -> SharedOrpheusDB {
        let mut odb = OrpheusDB::new();
        for name in names {
            let schema = Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ])
            .with_primary_key(&["k"])
            .unwrap();
            let rows: Vec<Vec<Value>> = (0..10)
                .map(|i| vec![Value::Int(i), Value::Int(0)])
                .collect();
            odb.init_cvd(name, schema, rows, None).unwrap();
        }
        SharedOrpheusDB::new(odb)
    }

    #[test]
    fn tickets_resolve_in_submission_order_per_shard() {
        let pool = AsyncExecutor::with_workers(shared_with_cvds(&["data"]), 2);
        let h = pool.handle("alice").unwrap();
        let t1 = h.submit(Checkout::of("data").version(1u64).into_table("w"));
        let t2 = h.submit(Commit::table("w").message("first"));
        let t3 = h.submit(Run::sql("SELECT count(*) FROM VERSION 2 OF CVD data"));
        assert!(t1.wait().is_ok());
        assert_eq!(t2.wait().unwrap().version(), Some(Vid(2)));
        let rows = t3.wait().unwrap().into_rows().unwrap();
        assert_eq!(rows.scalar(), Some(&Value::Int(10)));
    }

    #[test]
    fn failures_stay_per_request() {
        let pool = AsyncExecutor::with_workers(shared_with_cvds(&["data"]), 2);
        let mut h = pool.handle("u").unwrap();
        let results = h.batch(vec![
            Checkout::of("data").version(9u64).into_table("bad").into(),
            Checkout::of("data").version(1u64).into_table("good").into(),
            Commit::table("good").message("lands").into(),
        ]);
        assert!(matches!(results[0], Err(CoreError::VersionNotFound { .. })));
        assert_eq!(results[2].as_ref().unwrap().version(), Some(Vid(2)));
        // The failed checkout's reservation was released.
        pool.shared()
            .session("u")
            .unwrap()
            .checkout("data", &[Vid(1)], "bad")
            .unwrap();
    }

    #[test]
    fn many_handles_commit_concurrently() {
        let pool = Arc::new(AsyncExecutor::new(shared_with_cvds(&["left", "right"])));
        std::thread::scope(|scope| {
            for (u, cvd) in [("a", "left"), ("b", "right"), ("c", "left"), ("d", "right")] {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let h = pool.handle(u).unwrap();
                    for i in 0..3 {
                        let table = format!("{u}_{i}");
                        let t1 = h.submit(Checkout::of(cvd).version(1u64).into_table(&table));
                        let t2 = h.submit(Commit::table(&table).message(format!("{u} {i}")));
                        t1.wait().unwrap();
                        t2.wait().unwrap();
                    }
                });
            }
        });
        pool.shared().read(|odb| {
            assert_eq!(odb.cvd("left").unwrap().num_versions(), 7);
            assert_eq!(odb.cvd("right").unwrap().num_versions(), 7);
            assert!(odb.staged().is_empty());
        });
    }

    #[test]
    fn login_rebinds_the_handle_through_execute_and_batch() {
        let pool = AsyncExecutor::with_workers(shared_with_cvds(&["data"]), 2);
        pool.shared().executor("carol").unwrap();
        let mut h = pool.handle("alice").unwrap();
        let results = h.batch(vec![Login::as_user("carol").into(), Request::Whoami]);
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap().summary(), "carol");
        assert_eq!(h.user(), "carol");
        // A failing login leaves the handle untouched.
        assert!(h.execute(Login::as_user("nobody").into()).is_err());
        assert_eq!(h.user(), "carol");
    }

    #[test]
    fn wait_for_times_out_on_unfulfilled_tickets_and_resolves_fulfilled_ones() {
        // An unfulfilled ticket: the timeout elapses, the ticket survives,
        // and a later fulfillment is still collectable.
        let (ticket, fulfiller) = Ticket::pending();
        let before = std::time::Instant::now();
        assert!(ticket
            .wait_for(std::time::Duration::from_millis(20))
            .is_none());
        assert!(before.elapsed() >= std::time::Duration::from_millis(20));
        fulfiller.fulfill(Err(CoreError::Invalid("late".into())));
        assert!(ticket.is_ready());
        let outcome = ticket
            .wait_for(std::time::Duration::from_secs(5))
            .expect("fulfilled");
        assert!(matches!(outcome, Err(CoreError::Invalid(_))));

        // A pre-resolved ticket returns immediately.
        let ready = Ticket::ready(Ok(Response::CurrentUser { user: "u".into() }));
        assert!(ready.is_ready());
        assert!(ready.wait_for(std::time::Duration::ZERO).is_some());

        // Tickets from a live pool resolve within a bounded wait.
        let pool = AsyncExecutor::with_workers(shared_with_cvds(&["data"]), 1);
        let h = pool.handle("alice").unwrap();
        let t = h.submit(Checkout::of("data").version(1u64).into_table("w"));
        let outcome = t
            .wait_for(std::time::Duration::from_secs(30))
            .expect("pool fulfills tickets");
        assert!(outcome.is_ok());
    }

    #[test]
    fn shutdown_poisons_late_submissions_cleanly() {
        let pool = AsyncExecutor::with_workers(shared_with_cvds(&["data"]), 1);
        let h = pool.handle("u").unwrap();
        drop(pool);
        let err = h.submit(Request::Ls).wait().unwrap_err();
        assert!(err.to_string().contains("shut down"), "{err}");
    }
}

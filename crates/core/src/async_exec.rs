//! The async executor: submit requests without blocking on shard locks.
//!
//! The paper's deployment (Section 6 evaluates multi-client throughput)
//! has many users hitting one instance at once. The synchronous executors
//! make each *caller* pay for lock waits: a `Session` blocks its thread on
//! the target CVD's lock for every request, and its batch is the plain
//! loop of `execute`. This module is the one interpreter of a
//! [`crate::batch::BatchPlan`] — per-shard [`Step::Shard`] sub-batches
//! separated by [`Step::Sequential`] barriers — and runs it on threads of
//! its own:
//!
//! * a **coordinator thread** drains the submission channel into chunks
//!   (whatever every client has submitted, up to `CHUNK_MAX` requests),
//!   plans each chunk under one catalog read
//!   ([`crate::batch::BatchPlan::build`], whose every request is routed by
//!   [`crate::batch::route`], the rule a single `Session::execute` is
//!   routed by), hands the shard steps between two barriers — one
//!   *region* — to the worker pool, and executes each sequential barrier
//!   itself once the pool is idle (barriers order strictly against every
//!   step around them);
//! * a **worker pool** takes jobs from one FIFO queue. A region holds at
//!   most one writing and one read-only step per shard, and the
//!   coordinator drains the pool before the next barrier or chunk, so the
//!   queued jobs are mutually independent and the workers run them side
//!   by side. Workers execute sub-batches through the one request engine,
//!   `ConcurrentExecutor::run_items` (crate-internal): a writing
//!   sub-batch — checkouts included — under one shard-lock acquisition,
//!   reservation and staged-index bookkeeping in single catalog writes,
//!   identity swapped per request owner, and each request run exactly as
//!   a single `execute` of it would run. A **read-only** sub-batch (`log`,
//!   `diff`, single-shard SELECTs — [`Step::Shard`]'s `read_only` flag) is
//!   served from a clone of the shard's MVCC snapshot, so a worker answers
//!   it even while another worker holds that shard's write lock;
//! * clients hold an [`AsyncHandle`] and get a [`Ticket`] per submission —
//!   a future-like slot fulfilled by whichever thread finishes the
//!   request. `submit` never blocks on shard locks; [`Ticket::wait`]
//!   blocks only that client.
//!
//! The coordinator runs one chunk at a time and drains the pool before it
//! plans the next. So a request waits for every chunk planned before it,
//! from any client, and only the steps of one region overlap: while a
//! commit is held inside its shard lock, every later submission waits,
//! reads of other CVDs included.
//!
//! Everything is built from the vendored `parking_lot` shim's
//! `Mutex`/`Condvar` plus `std::sync::mpsc` — no async runtime exists in
//! this offline workspace, and none is needed: the concurrency is
//! thread-per-worker with condition-variable parking.
//!
//! # Ordering and failure semantics
//!
//! * **Per client** — one handle's *writing* submissions execute in
//!   submission order relative to each other whenever they target the
//!   same shard or are separated by a barrier; responses always answer
//!   their own submission ([`Ticket`]s don't shuffle). A pure read may
//!   run concurrently with a write to its shard submitted *after* it in
//!   the same chunk (it sees the shard before or after that write, never
//!   torn); a read submitted after a write to its shard still observes
//!   that write.
//! * **Across clients** — submissions that land in one chunk share its
//!   plan, so their steps on different shards run side by side; chunks
//!   run one after another. Catalog requests are barriers.
//! * **Failures** — per request, exactly as [`Executor::batch`]: a failed
//!   request never aborts the requests after it.
//! * **Panics** — a panic inside a worker poisons only that shard's
//!   in-flight sub-batch: those tickets resolve to
//!   [`CoreError::WorkerPanicked`], checkout reservations are released,
//!   and both other shards and later submissions to the same shard are
//!   unaffected.
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
//! // actually needed. Same-shard submissions execute in order, so the
//! // commit sees the checkout.
//! let t1 = alice.submit(Checkout::of("data").version(1u64).into_table("w"));
//! let t2 = alice.submit(Commit::table("w").message("async commit"));
//! t1.wait().unwrap();
//! let response = t2.wait().unwrap();
//! assert_eq!(response.summary(), "committed w as v2");
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::batch::{ShardKey, Step};
use crate::concurrent::{ConcurrentExecutor, SharedOrpheusDB, SubItem};
use crate::error::{CoreError, Result};
use crate::request::{Executor, Request};
use crate::response::Response;

/// Upper bound on requests planned as one chunk. Large enough that a
/// burst coalesces into few plans (few catalog reads, big sub-batches),
/// small enough that one chunk's barrier never starves the queue.
const CHUNK_MAX: usize = 256;

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

/// One request inside a queued shard job.
struct WorkItem {
    user: String,
    request: Option<Request>,
    ticket: Arc<TicketCell>,
}

/// One `Step::Shard` sub-batch, queued for the pool.
struct Job {
    key: ShardKey,
    /// Served from the shard's MVCC snapshot instead of under its lock.
    read_only: bool,
    items: Vec<WorkItem>,
}

#[derive(Default)]
struct PoolState {
    /// Jobs no worker has taken yet, in enqueue order. The coordinator
    /// enqueues one region's steps at a time and waits for `pending == 0`
    /// before the next barrier or chunk, and a region holds at most one
    /// writing and one read-only step per shard, so no two queued jobs
    /// ever need ordering against each other.
    jobs: VecDeque<Job>,
    /// Jobs enqueued but not yet finished (queued + executing) — the
    /// coordinator's barrier condition is `pending == 0`.
    pending: usize,
    shutdown: bool,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Signals workers: a job was queued, or shutdown.
    work: Condvar,
    /// Signals the coordinator: `pending` dropped to zero.
    idle: Condvar,
}

impl Pool {
    fn new() -> Arc<Pool> {
        Arc::new(Pool {
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
        })
    }

    fn enqueue(&self, job: Job) {
        let mut state = self.state.lock();
        state.pending += 1;
        state.jobs.push_back(job);
        self.work.notify_one();
    }

    /// Block until every enqueued job finished — the barrier before a
    /// sequential step and between chunks.
    fn wait_idle(&self) {
        let mut state = self.state.lock();
        while state.pending > 0 {
            self.idle.wait(&mut state);
        }
    }

    fn shutdown(&self) {
        let mut state = self.state.lock();
        state.shutdown = true;
        self.work.notify_all();
    }

    /// Worker loop: take the front job, run it, count it finished.
    fn worker_loop(&self, exec: &ConcurrentExecutor) {
        loop {
            let job = {
                let mut state = self.state.lock();
                loop {
                    if let Some(job) = state.jobs.pop_front() {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    self.work.wait(&mut state);
                }
            };
            run_job(exec, job);
            let mut state = self.state.lock();
            state.pending -= 1;
            if state.pending == 0 {
                self.idle.notify_all();
            }
        }
    }
}

/// Execute one shard sub-batch and fulfill its tickets. Panic containment
/// lives inside `ConcurrentExecutor::run_items`; the outer
/// `catch_unwind` is a last line of defense (a panic in the surrounding
/// bookkeeping must not kill the worker thread), after which any item
/// left without an outcome resolves to [`CoreError::WorkerPanicked`].
fn run_job(exec: &ConcurrentExecutor, mut job: Job) {
    let mut items: Vec<SubItem> = job
        .items
        .iter_mut()
        .map(|w| SubItem {
            user: w.user.clone(),
            request: w.request.take(),
            out: None,
        })
        .collect();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        exec.run_items(&job.key, job.read_only, &mut items);
    }));
    let label = job.key.label();
    for (work, item) in job.items.iter().zip(items) {
        let outcome = item.out.unwrap_or_else(|| {
            Err(CoreError::WorkerPanicked {
                shard: label.to_string(),
            })
        });
        work.ticket.fulfill(outcome);
    }
}

// ---------------------------------------------------------------------------
// The coordinator.
// ---------------------------------------------------------------------------

/// One submitted request, travelling from a handle to the coordinator.
struct Submission {
    user: String,
    request: Request,
    ticket: Arc<TicketCell>,
}

enum Msg {
    /// One client's submission — a pipelined batch, or a batch of one —
    /// travelling as a single message so the coordinator sees it whole
    /// (one chunk, maximal sub-batches) instead of reassembling it from
    /// interleaved singles.
    Submit(Vec<Submission>),
    Shutdown,
}

/// Runs a chunk with the coordinator itself defended: a panic anywhere in
/// the chunk bookkeeping (planning, slot accounting — the per-request
/// execution paths carry their own `catch_unwind`) poisons that chunk's
/// tickets instead of stranding their waiters.
fn process_chunk_guarded(
    exec: &ConcurrentExecutor,
    pool: &Arc<Pool>,
    chunk: Vec<Submission>,
    inline: bool,
) {
    let tickets: Vec<Arc<TicketCell>> = chunk.iter().map(|s| Arc::clone(&s.ticket)).collect();
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        process_chunk(exec, pool, chunk, inline);
    }))
    .is_err();
    if panicked {
        // Restore the chunk-closing barrier the unwind skipped — jobs the
        // chunk already enqueued must finish before (a) their tickets are
        // adjudicated and (b) the next chunk plans against the catalog.
        // Fulfillment is first-write-wins, so every ticket a job answered
        // keeps its real result; only genuinely unanswered ones poison.
        pool.wait_idle();
        for ticket in tickets {
            ticket.fulfill(Err(CoreError::WorkerPanicked {
                shard: "coordinator".to_string(),
            }));
        }
    }
}

/// Wakes the worker pool out of its parked state when the coordinator
/// returns — by any path, including an unwind the guards above missed —
/// so [`AsyncExecutor`]'s drop can always join the workers.
struct PoolShutdownGuard(Arc<Pool>);

impl Drop for PoolShutdownGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Coordinator loop: drain the channel into chunks, plan each chunk, fan
/// shard steps out to the pool (or run them inline when the pool is
/// empty — single-core hosts), run sequential barriers inline.
fn coordinator_loop(
    shared: SharedOrpheusDB,
    pool: Arc<Pool>,
    rx: mpsc::Receiver<Msg>,
    closed: Arc<AtomicBool>,
    depth: Arc<AtomicUsize>,
    inline: bool,
) {
    let _shutdown_on_exit = PoolShutdownGuard(Arc::clone(&pool));
    // The coordinator's own sub-batch engine for inline shard steps and
    // sequential barriers; identity travels per item/submission, so the
    // executor's own user never executes anything.
    let exec = shared.internal_executor("__async_coordinator");
    let mut shutting_down = false;
    while !shutting_down {
        let first = match rx.recv() {
            Ok(msg) => msg,
            Err(_) => break, // every sender gone
        };
        let mut chunk: Vec<Submission> = Vec::new();
        match first {
            Msg::Submit(batch) => chunk.extend(batch),
            Msg::Shutdown => shutting_down = true,
        }
        // Coalesce whatever else already queued up: under load this is
        // what turns request-at-a-time clients into big per-shard
        // sub-batches. A submitted batch always lands in one chunk
        // (CHUNK_MAX bounds the drain, not an already-atomic batch).
        while !shutting_down && chunk.len() < CHUNK_MAX {
            match rx.try_recv() {
                Ok(Msg::Submit(batch)) => chunk.extend(batch),
                Ok(Msg::Shutdown) => shutting_down = true,
                Err(_) => break,
            }
        }
        if !chunk.is_empty() {
            let len = chunk.len();
            process_chunk_guarded(&exec, &pool, chunk, inline);
            // The gauge counts accepted-but-unfinished requests, so the
            // decrement lands after the chunk's closing barrier: an
            // admission controller reading it sees queued *plus*
            // executing work.
            depth.fetch_sub(len, Ordering::SeqCst);
        }
    }
    // Shutdown handshake, phase 1 — finish the work that was already
    // accepted: any submission whose send completed before this point is
    // in the queue now (a drain loops until `Empty`), so synchronous
    // callers blocked on tickets are not stranded.
    while let Ok(msg) = rx.try_recv() {
        if let Msg::Submit(batch) = msg {
            let len = batch.len();
            process_chunk_guarded(&exec, &pool, batch, inline);
            depth.fetch_sub(len, Ordering::SeqCst);
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
        for submission in refused {
            depth.fetch_sub(1, Ordering::SeqCst);
            submission.ticket.fulfill(Err(shutdown_error()));
        }
    }
}

/// Plan one chunk and execute its steps. The chunk is one
/// [`crate::batch::BatchPlan`]: shard steps between barriers run on the
/// pool in parallel (or inline, in coordinator-only mode), sequential
/// steps run here after a full barrier. A trailing barrier closes the
/// chunk, so the next chunk's plan reads catalog state that reflects
/// everything this chunk did — cross-chunk per-client ordering (e.g.
/// re-checking-out a name a failed checkout just released) depends on it.
fn process_chunk(
    exec: &ConcurrentExecutor,
    pool: &Arc<Pool>,
    chunk: Vec<Submission>,
    inline: bool,
) {
    let mut users: Vec<String> = Vec::with_capacity(chunk.len());
    let mut tickets: Vec<Arc<TicketCell>> = Vec::with_capacity(chunk.len());
    let mut requests: Vec<Request> = Vec::with_capacity(chunk.len());
    for s in chunk {
        users.push(s.user);
        tickets.push(s.ticket);
        requests.push(s.request);
    }
    let plan = exec.plan(&requests);
    let mut slots: Vec<Option<Request>> = requests.into_iter().map(Some).collect();

    for step in plan.steps() {
        match step {
            Step::Sequential(i) => {
                pool.wait_idle();
                // `BatchPlan::build` puts every request index in exactly
                // one step, and this loop visits each step once.
                let request = slots[*i].take().expect("indices are scheduled once");
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| exec.execute_as(&users[*i], request)))
                        .unwrap_or_else(|_| {
                            Err(CoreError::WorkerPanicked {
                                shard: "sequential".to_string(),
                            })
                        });
                tickets[*i].fulfill(outcome);
            }
            Step::Shard {
                key,
                indices,
                read_only,
            } => {
                let items: Vec<WorkItem> = indices
                    .iter()
                    .map(|&i| WorkItem {
                        user: users[i].clone(),
                        request: slots[i].take(),
                        ticket: Arc::clone(&tickets[i]),
                    })
                    .collect();
                let job = Job {
                    key: key.clone(),
                    read_only: *read_only,
                    items,
                };
                if inline {
                    // Coordinator-only mode: no worker can overlap this
                    // step anyway (one hardware thread), so skip the
                    // cross-thread handoff entirely. Semantics are
                    // identical — per-shard order is trivially preserved
                    // by the single execution thread.
                    run_job(exec, job);
                } else {
                    pool.enqueue(job);
                }
            }
        }
    }
    pool.wait_idle();
}

// ---------------------------------------------------------------------------
// The public surface.
// ---------------------------------------------------------------------------

/// A shared OrpheusDB instance behind a coordinator thread and a worker
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
    /// Accepted-but-unfinished submissions (queued or executing) — the
    /// load-shedding signal read by [`AsyncExecutor::queue_depth`].
    /// Incremented by handles on submit, decremented by the coordinator
    /// after each chunk completes (or is refused at shutdown).
    depth: Arc<AtomicUsize>,
    /// Published (true) by the coordinator once it will never read the
    /// channel again — the submit-side half of the shutdown handshake.
    closed: Arc<AtomicBool>,
    coordinator: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl AsyncExecutor {
    /// Spawn the coordinator plus a worker pool sized to the detected
    /// hardware parallelism: clamped to [2, 8] on multi-core hosts (below
    /// two, shard steps could never overlap; above eight, workers
    /// outnumber useful shard concurrency in every workload we generate),
    /// and **zero** on a single hardware thread — there, fanning out can
    /// overlap nothing, so the coordinator runs shard steps inline and
    /// saves the cross-thread handoffs.
    pub fn new(shared: SharedOrpheusDB) -> AsyncExecutor {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = if parallelism <= 1 {
            0
        } else {
            parallelism.clamp(2, 8)
        };
        AsyncExecutor::with_workers(shared, workers)
    }

    /// Spawn with an explicit worker-pool size. Zero workers selects
    /// coordinator-only mode: shard steps run inline on the coordinator
    /// thread with identical semantics (submission still never blocks the
    /// client on shard locks) but no cross-shard parallelism.
    pub fn with_workers(shared: SharedOrpheusDB, workers: usize) -> AsyncExecutor {
        let pool = Pool::new();
        let (tx, rx) = mpsc::channel();
        let closed = Arc::new(AtomicBool::new(false));
        let depth = Arc::new(AtomicUsize::new(0));
        let inline = workers == 0;
        let coordinator = {
            let shared = shared.clone();
            let pool = Arc::clone(&pool);
            let closed = Arc::clone(&closed);
            let depth = Arc::clone(&depth);
            std::thread::spawn(move || coordinator_loop(shared, pool, rx, closed, depth, inline))
        };
        let worker_handles = (0..workers)
            .map(|_| {
                let pool = Arc::clone(&pool);
                // The worker's own identity never executes anything —
                // every sub-batch item carries its submitting session's
                // user — so an unregistered placeholder is correct here.
                let exec = shared.internal_executor("__async_worker");
                std::thread::spawn(move || pool.worker_loop(&exec))
            })
            .collect();
        AsyncExecutor {
            shared,
            tx,
            depth,
            closed,
            coordinator: Some(coordinator),
            workers: worker_handles,
        }
    }

    /// Open a client handle operating as `user` (registering the account
    /// if needed — same semantics as [`SharedOrpheusDB::session`]).
    pub fn handle(&self, user: &str) -> Result<AsyncHandle> {
        // Registration goes through the catalog exactly as for sessions.
        self.shared.executor(user)?;
        Ok(AsyncHandle {
            tx: self.tx.clone(),
            closed: Arc::clone(&self.closed),
            depth: Arc::clone(&self.depth),
            user: user.to_string(),
        })
    }

    /// Accepted-but-unfinished submissions (queued plus executing), the
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
        if let Some(coordinator) = self.coordinator.take() {
            let _ = coordinator.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One client's handle on an [`AsyncExecutor`]: the async counterpart of
/// [`crate::Session`], carrying a user identity. Clone freely — clones
/// share the identity *at clone time* but rebind independently on
/// `Login`.
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
    /// See [`AsyncExecutor::closed`]: true once the coordinator will
    /// never read the channel again.
    closed: Arc<AtomicBool>,
    /// See [`AsyncExecutor::queue_depth`].
    depth: Arc<AtomicUsize>,
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

    /// Enqueue a request without blocking on any shard lock. If the
    /// executor has shut down, the ticket resolves immediately to an
    /// error instead of waiting forever.
    pub fn submit(&self, request: impl Into<Request>) -> Ticket {
        self.submit_batch([request])
            .pop()
            .expect("submit_batch answers one ticket per request")
    }

    /// Enqueue a whole request vector as **one** message: the coordinator
    /// plans it as a single chunk (maximal per-shard sub-batches, so one
    /// shard-lock acquisition per sub-batch) instead of reassembling it
    /// from interleaved singles. Returns one [`Ticket`] per request, in
    /// submission order.
    pub fn submit_batch<I>(&self, requests: I) -> Vec<Ticket>
    where
        I: IntoIterator,
        I::Item: Into<Request>,
    {
        let mut submissions: Vec<Submission> = Vec::new();
        let mut cells: Vec<Arc<TicketCell>> = Vec::new();
        for request in requests {
            let cell = TicketCell::new();
            submissions.push(Submission {
                user: self.user.clone(),
                request: request.into(),
                ticket: Arc::clone(&cell),
            });
            cells.push(cell);
        }
        if !submissions.is_empty() {
            let len = submissions.len();
            self.depth.fetch_add(len, Ordering::SeqCst);
            if self.tx.send(Msg::Submit(submissions)).is_err() {
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
    /// the instant between the coordinator's final drain and the receiver
    /// being dropped; without this, such a submission would be silently
    /// lost and its ticket would wait forever. The coordinator publishes
    /// `closed` between its execute-drain and its refuse-drain, so after
    /// a send exactly one of these holds: `closed` was still false — the
    /// send completed before the refuse-drain began, so one of the two
    /// drains is guaranteed to fulfill the ticket (executing it if it
    /// made the execute-drain, refusing it otherwise); or `closed` reads
    /// true — the message might be lost entirely, and poisoning here
    /// covers that. The refuse-drain never executes, so a raced
    /// submission can never both run and report the shutdown error;
    /// fulfillment is first-write-wins, so double poisoning is harmless
    /// and a ticket the coordinator already answered keeps its real
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
                // submission, so it is a pipeline barrier: flush the run
                // collected so far as one atomic batch, then wait for the
                // login itself (safe — the coordinator finishes
                // everything submitted before it first; `Login` plans as
                // a sequential step).
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

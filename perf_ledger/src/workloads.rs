//! The four workloads, tracing off: set up, run a seeded session, check
//! every answer against the oracle, report the end-to-end metrics.
//!
//! All four are **closed loops**: each client sends its next request only
//! after the previous reply. The single-client workloads run a fixed op
//! count — `rate × --seconds`, the rates calibrated once on the 2-core
//! reference box so a phase lasts about `--seconds` — so counts, and the
//! metrics that are counts, repeat exactly by seed. `mixed_served` gives
//! each of its two clients a fixed count too and samples only while both
//! are running, so its end state repeats and its timings are all taken
//! under contention; only the traced run's served phases are bounded by
//! the clock.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use orpheus_bench::differential::{verify_against, Ctx as OracleCtx};
use orpheus_bench::experiments::sample_versions;
use orpheus_bench::generator::{payload, CommitEvent, HistoryEvent};
use orpheus_bench::loader::bench_schema;
use orpheus_bench::Oracle;
use orpheus_core::cvd::{sorted_difference, sorted_intersection_count};
use orpheus_core::{
    Checkout, Commit, Diff, Discard, Executor, Init, ModelKind, Optimize, Request, Response, Run,
    Vid,
};
use orpheus_engine::Value;

use crate::alloc;
use crate::load::{self, Load, Mix, Op, CVD};
use crate::metrics::Outcome;
use crate::stacks::{self, Client, Depth, Stack};
use crate::stats;
use crate::yardstick::{Reading, Yardstick};

/// Ops per second of `--seconds`, per single-client workload, as measured
/// on the reference box (2 cores). Pinned so op counts repeat; a faster
/// program finishes the same ops sooner.
const READ_INPROC_OPS_PER_S: f64 = 650.0;
const COMMIT_DURABLE_CYCLES_PER_S: f64 = 60.0;
const PARTITIONED_OPS_PER_S: f64 = 390.0;
/// `mixed_served`: reader ops and writer cycles per second of `--seconds`,
/// sized so both sides finish together on the reference box.
const MIXED_READS_PER_S: f64 = 140.0;
const MIXED_CYCLES_PER_S: f64 = 66.0;
/// Commit events generated per second of a clock-bounded served phase
/// (the traced run's): about three times what a writer gets through.
const MIXED_EVENTS_PER_S: f64 = 200.0;

/// The durable workload's driver cuts a checkpoint this often.
pub const CHECKPOINT_EVERY: u64 = 64;
/// Partition optimizer settings: storage budget γ = 2|R|, tolerance µ = 1.5.
pub const GAMMA: f64 = 2.0;
pub const MU: f64 = 1.5;

const INSERT_CHUNK: usize = 256;
const DELETE_CHUNK: usize = 512;

/// What one invocation was asked to do.
pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny pinned shapes and counts (the end-to-end test).
    pub smoke: bool,
    /// Directory for WAL directories and trace files, inside the checkout.
    pub scratch: PathBuf,
}

impl RunCtx {
    pub fn ops(&self, rate: f64) -> usize {
        if self.smoke {
            60
        } else {
            ((rate * self.seconds) as usize).max(40)
        }
    }

    /// Length of a clock-bounded phase.
    pub fn phase_seconds(&self) -> f64 {
        if self.smoke {
            1.0
        } else {
            self.seconds
        }
    }

    fn oracle_ctx(&self) -> OracleCtx {
        OracleCtx::for_test("perf_ledger", ModelKind::SplitByRlist, self.seed)
    }
}

/// Per-kind request latencies (µs) of one client's session.
#[derive(Default)]
pub struct Samples {
    pub checkout: Vec<f64>,
    pub commit: Vec<f64>,
    pub diff: Vec<f64>,
    pub query: Vec<f64>,
    pub ops: u64,
}

/// A session's position: which version the next commit creates, and how
/// many read ops it has run (every 16th checkout is checked row-count
/// against the oracle on top of the end-of-run verification).
pub struct Session<'a> {
    pub load: &'a Load,
    pub next_vid: u64,
    pub table: &'static str,
    checks: u64,
}

impl<'a> Session<'a> {
    pub fn new(load: &'a Load, table: &'static str) -> Session<'a> {
        Session {
            load,
            next_vid: load.prefix as u64 + 1,
            table,
            checks: 0,
        }
    }

    /// Versions that exist once the session's commits so far have landed.
    pub fn versions(&self) -> usize {
        self.next_vid as usize - 1
    }
}

pub fn timed(bus: &mut Client, request: Request) -> (Result<Response, String>, f64) {
    let start = Instant::now();
    let result = bus.execute(request);
    let us = start.elapsed().as_secs_f64() * 1e6;
    (result.map_err(|e| e.to_string()), us)
}

fn expect_ok(bus: &mut Client, request: Request, what: &str) -> Result<Response, String> {
    bus.execute(request).map_err(|e| format!("{what}: {e}"))
}

/// The requests between a commit cycle's checkout and its `Commit`:
/// widen, delete, insert — the `differential::replay` shape.
pub fn edit_requests(event: &CommitEvent, staged_attrs: usize, table: &str) -> Vec<Request> {
    let mut body: Vec<Request> = Vec::new();
    for c in staged_attrs..event.width {
        body.push(Run::sql(format!("ALTER TABLE {table} ADD COLUMN a{c} INT")).into());
    }
    for chunk in event.deletes.chunks(DELETE_CHUNK) {
        let list: Vec<String> = chunk.iter().map(i64::to_string).collect();
        body.push(
            Run::sql(format!(
                "DELETE FROM {table} WHERE rid IN ({})",
                list.join(", ")
            ))
            .into(),
        );
    }
    for chunk in event.inserts.chunks(INSERT_CHUNK) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|(_, vals)| {
                let vals: Vec<String> = vals.iter().map(i64::to_string).collect();
                format!("(NULL, {})", vals.join(", "))
            })
            .collect();
        body.push(Run::sql(format!("INSERT INTO {table} VALUES {}", rows.join(", "))).into());
    }
    body
}

/// One commit cycle up to, not including, the `Commit`: checkout the
/// parent(s), then apply the event's edits. Returns the checkout latency.
/// `probe` asks the staged table for its width first — models that freeze
/// old versions narrow need it; split-by-rlist always checks out at the
/// CVD's current width.
pub fn stage_commit(
    bus: &mut Client,
    event: &CommitEvent,
    table: &str,
    probe: bool,
) -> Result<f64, String> {
    let checkout = Checkout::of(CVD)
        .versions(event.parents.iter().map(|&p| Vid(p)))
        .into_table(table);
    let (resp, checkout_us) = timed(bus, checkout.into());
    resp.map_err(|e| format!("v{}: checkout: {e}", event.vid))?;
    let staged_attrs = if probe {
        let resp = expect_ok(
            bus,
            Run::sql(format!("SELECT * FROM {table} WHERE rid = 0")).into(),
            "probe",
        )?;
        let rows = resp.rows().ok_or("probe returned no schema")?;
        rows.schema.columns.len().saturating_sub(1)
    } else {
        event.width - usize::from(event.add_column.is_some())
    };
    for request in edit_requests(event, staged_attrs, table) {
        expect_ok(bus, request, "edit")?;
    }
    Ok(checkout_us)
}

pub fn commit_request(event: &CommitEvent, table: &str) -> Request {
    Commit::table(table)
        .message(format!("v{}", event.vid))
        .into()
}

/// A whole commit cycle; returns `(checkout µs, commit µs)`.
pub fn commit_cycle(
    bus: &mut Client,
    event: &CommitEvent,
    table: &str,
    probe: bool,
) -> Result<(f64, f64), String> {
    let checkout_us = stage_commit(bus, event, table, probe)?;
    let (resp, commit_us) = timed(bus, commit_request(event, table));
    match resp? {
        Response::Committed { version, .. } if version.0 == event.vid => {
            Ok((checkout_us, commit_us))
        }
        other => Err(format!("v{}: expected Committed, got {other:?}", event.vid)),
    }
}

/// Load `events` (an `Init` then commits) through the command bus.
pub fn load_history(
    bus: &mut Client,
    events: &[HistoryEvent],
    model: ModelKind,
    probe: bool,
) -> Result<(), String> {
    for event in events {
        match event {
            HistoryEvent::Init(init) => {
                let rows: Vec<Vec<Value>> = init
                    .rows
                    .iter()
                    .map(|(_, vals)| vals.iter().copied().map(Value::Int).collect())
                    .collect();
                let request = Init::cvd(CVD)
                    .schema(bench_schema(init.attrs))
                    .rows(rows)
                    .model(model);
                expect_ok(bus, request.into(), "init")?;
            }
            HistoryEvent::Commit(commit) => {
                commit_cycle(bus, commit, "ledger_load", probe)?;
            }
        }
    }
    Ok(())
}

/// The versioned aggregate every workload's `Query` op runs.
fn query_sql(vid: u64) -> String {
    format!("SELECT count(*), sum(a1) FROM VERSION {vid} OF CVD {CVD} WHERE a0 < 5000")
}

fn query_expectation(oracle: &Oracle, vid: u64) -> (i64, i64) {
    let mut count = 0;
    let mut sum = 0;
    for &rid in &oracle.version(vid).rlist {
        if payload(rid, 0) < 5000 {
            count += 1;
            sum += payload(rid, 1);
        }
    }
    (count, sum)
}

/// Execute one op, record its latency under its kind, and check the
/// answer against the oracle (outside the timed region).
pub fn run_op(
    bus: &mut Client,
    op: Op,
    session: &mut Session<'_>,
    samples: &mut Samples,
) -> Result<(), String> {
    let oracle = &session.load.oracle;
    samples.ops += 1;
    match op {
        Op::Checkout(_) | Op::Merged(..) => {
            let (vids, expect_rows) = match op {
                Op::Checkout(v) => (vec![v], oracle.version(v).rlist.len()),
                Op::Merged(a, b) => {
                    // No primary key: a merged checkout is the union by rid.
                    let (ra, rb) = (&oracle.version(a).rlist, &oracle.version(b).rlist);
                    let union = ra.len() + rb.len() - sorted_intersection_count(ra, rb);
                    (vec![a, b], union)
                }
                _ => unreachable!(),
            };
            let request = Checkout::of(CVD)
                .versions(vids.iter().map(|&v| Vid(v)))
                .into_table(session.table);
            let (resp, us) = timed(bus, request.into());
            match resp? {
                Response::CheckedOut { .. } => samples.checkout.push(us),
                other => return Err(format!("checkout {vids:?}: got {other:?}")),
            }
            session.checks += 1;
            if session.checks % 16 == 1 {
                let sql = format!("SELECT count(*) FROM {}", session.table);
                let got = expect_ok(bus, Run::sql(sql).into(), "count")?;
                let got = got.rows().and_then(|q| q.scalar().cloned());
                if got != Some(Value::Int(expect_rows as i64)) {
                    return Err(format!(
                        "checkout {vids:?}: {got:?} rows, oracle says {expect_rows}"
                    ));
                }
            }
            expect_ok(bus, Discard::table(session.table).into(), "discard")?;
        }
        Op::Diff(v, parent) => {
            let (resp, us) = timed(bus, Diff::of(CVD).between(v, parent).into());
            let (a, b) = (&oracle.version(v).rlist, &oracle.version(parent).rlist);
            let expect = (sorted_difference(a, b).len(), sorted_difference(b, a).len());
            match resp? {
                Response::Diffed { diff, .. }
                    if (diff.only_in_first.len(), diff.only_in_second.len()) == expect =>
                {
                    samples.diff.push(us)
                }
                other => {
                    return Err(format!(
                        "diff v{v} v{parent}: want {expect:?}, got {other:?}"
                    ))
                }
            }
        }
        Op::Query(v) => {
            let (resp, us) = timed(bus, Run::sql(query_sql(v)).into());
            let (count, sum) = query_expectation(oracle, v);
            let resp = resp?;
            let row = resp.rows().and_then(|q| q.rows.first());
            if row.map(Vec::as_slice) != Some(&[Value::Int(count), Value::Int(sum)]) {
                return Err(format!("query v{v}: want ({count}, {sum}), got {row:?}"));
            }
            samples.query.push(us);
        }
        Op::Commit => {
            let event = session.load.commit_event(session.next_vid);
            let (checkout_us, commit_us) = commit_cycle(bus, event, session.table, false)?;
            samples.checkout.push(checkout_us);
            samples.commit.push(commit_us);
            session.next_vid += 1;
        }
    }
    Ok(())
}

/// Run a plan to its end; failures are counted, not fatal. Between ops
/// the yardstick takes its slices.
fn run_plan(
    bus: &mut Client,
    plan: &[Op],
    session: &mut Session<'_>,
    samples: &mut Samples,
    yard: &mut Yardstick,
    out: &mut Outcome,
) {
    for &op in plan {
        yard.tick();
        out.attempted += 1;
        if let Err(e) = run_op(bus, op, session, samples) {
            out.fail(e);
            // A failed commit cycle may leave its staged table behind.
            let _ = bus.execute(Discard::table(session.table).into());
        }
    }
}

/// A `kB` line of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
pub fn proc_status_bytes(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

// -- set-up ----------------------------------------------------------------------

/// The preloaded prefix in a fresh in-process instance, split-by-rlist.
pub fn load_prefix(load: &Load) -> Result<Client, String> {
    let mut db = stacks::empty_db();
    load_history(
        &mut db,
        &load.events[..load.prefix],
        ModelKind::SplitByRlist,
        false,
    )?;
    Ok(db)
}

/// Build the workload's starting state from the generated prefix: load it
/// through the in-process bus, optimize when asked, wrap in the stack.
pub fn set_up(load: &Load, depth: Depth, partition: bool, ctx: &RunCtx) -> Result<Stack, String> {
    let mut db = load_prefix(load)?;
    if partition {
        expect_ok(
            &mut db,
            Optimize::cvd(CVD).gamma(GAMMA).mu(MU).into(),
            "optimize",
        )?;
    }
    Stack::build(depth, db.into_db(), &ctx.scratch)
}

/// Set up three times, keep the last stack, report the median time: one
/// set-up is too short a sample to hold a bound.
fn set_up_timed(
    load: &Load,
    depth: Depth,
    partition: bool,
    ctx: &RunCtx,
) -> Result<(Stack, SetUp), String> {
    // Resident before the program holds anything: the generated events
    // and the oracle are the harness's, not the program's.
    let rss_before = proc_status_bytes("VmRSS");
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        if let Some(previous) = last.take() {
            Stack::close(previous);
        }
        let start = Instant::now();
        last = Some(set_up(load, depth, partition, ctx)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let set_up = SetUp {
        seconds: stats::median(&times),
        rss_before,
    };
    Ok((last.expect("three set-ups ran"), set_up))
}

struct SetUp {
    /// Median of three.
    seconds: f64,
    rss_before: f64,
}

// -- reporting -------------------------------------------------------------------

/// A latency line: the median over the machine index, with what was
/// measured (raw median, tail, count, the run's own spread) in the note.
fn put_timing(out: &mut Outcome, name: &str, xs: &[f64], machine: &Reading) {
    let s = stats::summarize(xs);
    let tail = s.tail.map_or("tail n/a".to_string(), |(pm, v)| {
        format!("p{}={v:.1}", pm as f64 / 10.0)
    });
    out.put_noted(
        name,
        s.p50 / machine.index,
        "us",
        format!(
            "raw p50={:.1} {tail} n={} subsample median={:.1} mad={:.1}",
            s.p50, s.n, s.mom, s.mad
        ),
    );
}

struct Phase {
    samples: Samples,
    /// Wall time of the phase, the yardstick's slices taken out.
    elapsed_s: f64,
    /// What the yardstick read while the phase ran.
    machine: Reading,
    /// Allocation calls during the phase.
    allocs: u64,
    /// Ops those allocations served (more than `samples.ops` when a
    /// served side ran on unsampled after the other had finished).
    alloc_ops: u64,
}

fn report(out: &mut Outcome, set_up: &SetUp, phase: &Phase, stack: &Stack, records: u64) {
    let s = &phase.samples;
    let machine = &phase.machine;
    out.put_noted(
        "machine.index",
        machine.index,
        "count",
        format!(
            "{} slices: {:.1} ns per missing load, {:.3} ns per multiply-add; \
             latencies below are divided by this, ops_per_s multiplied",
            machine.slices, machine.mem_ns, machine.cpu_ns
        ),
    );
    // As measured: the yardstick reads the timed phase, not the set-ups
    // before it, and dividing by it widened this metric's spread.
    out.put("setup_s", set_up.seconds, "s");
    let raw_rate = s.ops as f64 / phase.elapsed_s;
    out.put_noted(
        "ops_per_s",
        raw_rate * machine.index,
        "1/s",
        format!(
            "raw {raw_rate:.1}: {} ops in {:.2} s",
            s.ops, phase.elapsed_s
        ),
    );
    put_timing(out, "checkout_p50_us", &s.checkout, machine);
    put_timing(out, "commit_p50_us", &s.commit, machine);
    put_timing(out, "diff_p50_us", &s.diff, machine);
    put_timing(out, "query_p50_us", &s.query, machine);
    out.put_noted(
        "peak_rss_bytes_per_record",
        (proc_status_bytes("VmHWM") - set_up.rss_before) / records as f64,
        "B",
        format!("VmHWM above the pre-set-up VmRSS, over {records} records"),
    );
    out.put(
        "storage_bytes_per_record",
        stack.storage_bytes() as f64 / records as f64,
        "B",
    );
    out.put(
        "allocs_per_op",
        phase.allocs as f64 / phase.alloc_ops as f64,
        "count",
    );
}

/// Graph at every version plus sampled row-for-row checkouts, against an
/// oracle that has replayed exactly the versions that should exist.
fn verify(bus: &mut Client, load: &Load, versions: usize, ctx: &RunCtx, out: &mut Outcome) {
    let oracle = Oracle::replay(load.events[..versions].iter().cloned());
    let at = sample_versions(versions, 6);
    out.attempted += 1;
    if let Err(e) = verify_against(bus, &oracle, &at, &ctx.oracle_ctx()) {
        out.fail(e);
    }
}

// -- the workloads ---------------------------------------------------------------

const READ_MIX: Mix = Mix {
    checkout: 60,
    merged: 10,
    diff: 10,
    query: 10,
    commit: 10,
};

/// The mix the reading client of `mixed_served` loops (no commits: the
/// writing client owns the history's tip).
pub const SERVED_READ_MIX: Mix = Mix {
    checkout: 50,
    merged: 10,
    diff: 20,
    query: 20,
    commit: 0,
};

const PARTITIONED_MIX: Mix = Mix {
    checkout: 70,
    merged: 0,
    diff: 10,
    query: 10,
    commit: 10,
};

pub fn load_h(ctx: &RunCtx, commits: usize) -> Load {
    if ctx.smoke {
        Load::generate(load::history_small(24 + commits), 24)
    } else {
        Load::generate(load::history_h(load::H_PREFIX + commits), load::H_PREFIX)
    }
}

pub fn load_p(ctx: &RunCtx, commits: usize) -> Load {
    if ctx.smoke {
        Load::generate(load::history_small_tree(32 + commits), 32)
    } else {
        Load::generate(load::history_p(load::P_PREFIX + commits), load::P_PREFIX)
    }
}

/// One client, one in-process instance, a fixed mixed session.
fn single_client(
    load: &Load,
    depth: Depth,
    partition: bool,
    plan: &[Op],
    ctx: &RunCtx,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Before set-up reads the resident size: the table is the harness's.
    let mut yard = Yardstick::new();
    let (mut stack, set_up) = set_up_timed(load, depth, partition, ctx)?;
    let mut session = Session::new(load, "ledger_work");
    let mut samples = Samples::default();
    let durable = depth == Depth::Wal;

    let allocs_before = alloc::allocs();
    yard.start();
    let start = Instant::now();
    // The durable workload's driver cuts a checkpoint every
    // CHECKPOINT_EVERY commits, the way `--serve`'s ticker would; its
    // time is inside the phase (it stalls the session) but in no latency.
    let mut from = 0;
    while from < plan.len() {
        let mut commits = 0;
        let upto = plan[from..]
            .iter()
            .position(|op| {
                commits += u64::from(*op == Op::Commit);
                durable && commits == CHECKPOINT_EVERY
            })
            .map_or(plan.len(), |i| from + i + 1);
        run_plan(
            &mut stack.client,
            &plan[from..upto],
            &mut session,
            &mut samples,
            &mut yard,
            &mut out,
        );
        from = upto;
        if from < plan.len() {
            if let Err(e) = stack.checkpoint() {
                out.fail(e);
            }
        }
    }
    let phase = Phase {
        elapsed_s: (start.elapsed() - yard.spent()).as_secs_f64(),
        machine: yard.reading(),
        allocs: alloc::allocs() - allocs_before,
        alloc_ops: samples.ops,
        samples,
    };

    let versions = session.versions();
    report(&mut out, &set_up, &phase, &stack, load.records_at(versions));
    if durable {
        // Durability is part of the answer: shut down, reopen from the
        // directory alone, and verify what recovery rebuilt.
        let dir = Stack::close(stack).ok_or("durable stack has a WAL directory")?;
        let start = Instant::now();
        let mut reopened = Stack::reopen(&dir)?;
        out.put("recovery.reopen_s", start.elapsed().as_secs_f64(), "s");
        verify(&mut reopened.client, load, versions, ctx, &mut out);
        Stack::close(reopened);
    } else {
        verify(&mut stack.client, load, versions, ctx, &mut out);
        Stack::close(stack);
    }
    Ok(out)
}

pub fn read_inproc(ctx: &RunCtx) -> Result<Outcome, String> {
    let n = ctx.ops(READ_INPROC_OPS_PER_S);
    let load = load_h(ctx, n * READ_MIX.commit as usize / 100 + n / 20 + 8);
    let plan = load.plan(ctx.seed, READ_MIX, n);
    single_client(&load, Depth::Db, false, &plan, ctx)
}

/// Commit cycles, every second followed by the diff and the query a user
/// would run on what they just committed.
pub fn durable_plan(load: &Load, cycles: usize) -> Vec<Op> {
    let mut plan = Vec::new();
    for i in 0..cycles {
        plan.push(Op::Commit);
        if i % 2 == 1 {
            let v = (load.prefix + i + 1) as u64;
            plan.push(Op::Diff(v, load.oracle.version(v).parents[0]));
            plan.push(Op::Query(v));
        }
    }
    plan
}

pub fn commit_durable(ctx: &RunCtx) -> Result<Outcome, String> {
    let cycles = ctx.ops(COMMIT_DURABLE_CYCLES_PER_S);
    let load = load_h(ctx, cycles);
    single_client(&load, Depth::Wal, false, &durable_plan(&load, cycles), ctx)
}

pub fn partitioned_read(ctx: &RunCtx) -> Result<Outcome, String> {
    let n = ctx.ops(PARTITIONED_OPS_PER_S);
    let load = load_p(ctx, n * PARTITIONED_MIX.commit as usize / 100 + n / 20 + 8);
    let plan = load.plan(ctx.seed, PARTITIONED_MIX, n);
    single_client(&load, Depth::Db, true, &plan, ctx)
}

/// When one side of a served phase stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// At a time: counts vary from run to run.
    At(Instant),
    /// After this many ops: the end state repeats exactly.
    After(u64),
}

/// What one side of a served phase did.
#[derive(Default)]
pub struct Side {
    /// Taken while the other side was still running (or had never started).
    pub samples: Samples,
    /// Ops run after the other side had finished: executed so the end
    /// state repeats, kept out of every timing.
    pub tail_ops: u64,
}

/// Loop `plan` on `bus` until `stop`. Once `other_done` is set the ops go
/// on but are no longer sampled; when this side stops it stamps
/// `first_done` if it is the first to.
#[allow(clippy::too_many_arguments)]
fn run_side(
    bus: &mut Client,
    plan: &[Op],
    session: &mut Session<'_>,
    stop: Stop,
    other_done: &AtomicBool,
    first_done: &Mutex<Option<Instant>>,
    mut yard: Option<&mut Yardstick>,
    out: &mut Outcome,
) -> Side {
    let mut side = Side::default();
    let mut tail = Samples::default();
    for &op in plan.iter().cycle() {
        if let Some(yard) = yard.as_deref_mut() {
            yard.tick();
        }
        let done = match stop {
            Stop::At(deadline) => Instant::now() >= deadline,
            Stop::After(n) => side.samples.ops + tail.ops >= n,
        };
        if done || (op == Op::Commit && session.versions() >= session.load.events.len()) {
            break; // stopped, or the generated history is used up
        }
        let contended = !other_done.load(Ordering::SeqCst);
        out.attempted += 1;
        let into = if contended {
            &mut side.samples
        } else {
            &mut tail
        };
        if let Err(e) = run_op(bus, op, session, into) {
            out.fail(e);
            let _ = bus.execute(Discard::table(session.table).into());
        }
    }
    first_done
        .lock()
        .expect("no holder of this lock can panic")
        .get_or_insert_with(Instant::now);
    side.tail_ops = tail.ops;
    side
}

/// Two connections on one served CVD: R loops the read mix over the
/// preloaded prefix while W loops commit cycles at the history's tip.
pub struct Served<'a> {
    reader: Client,
    writer: Client,
    r_session: Session<'a>,
    w_session: Session<'a>,
    read_plan: Vec<Op>,
}

/// Both sides of one served phase, and how long they ran side by side.
pub struct ServedPhase {
    pub r: Side,
    pub w: Side,
    /// From the start until the first side stopped.
    pub overlap_s: f64,
}

impl<'a> Served<'a> {
    pub fn connect(stack: &Stack, load: &'a Load, seed: u64) -> Result<Served<'a>, String> {
        Ok(Served {
            reader: stack.connect("ledger_r")?,
            writer: stack.connect("ledger_w")?,
            r_session: Session::new(load, "ledger_read"),
            w_session: Session::new(load, "ledger_work"),
            read_plan: load.plan(seed, SERVED_READ_MIX, 4_096),
        })
    }

    /// Run the sides that have a `Stop`, side by side. The yardstick, if
    /// there is one, takes its slices between the writer's requests: the
    /// reader runs on through them, so they stay inside `overlap_s` (a
    /// few tenths of a percent of the two clients' time).
    pub fn phase(
        &mut self,
        read: Option<Stop>,
        write: Option<Stop>,
        yard: Option<&mut Yardstick>,
        out: &mut Outcome,
    ) -> ServedPhase {
        let start = Instant::now();
        let (mut r_out, mut w_out) = (Outcome::default(), Outcome::default());
        // A side that does not run counts as already done only for the
        // side that does: it never makes the runner's ops a tail.
        let (r_done, w_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let first_done = Mutex::new(None);
        let Served {
            reader,
            writer,
            r_session,
            w_session,
            read_plan,
        } = self;
        let (r_done, w_done, first_done) = (&r_done, &w_done, &first_done);
        let (r_out_ref, w_out_ref) = (&mut r_out, &mut w_out);
        let (r, w) = std::thread::scope(|scope| {
            let r = read.map(|stop| {
                scope.spawn(move || {
                    let side = run_side(
                        reader, read_plan, r_session, stop, w_done, first_done, None, r_out_ref,
                    );
                    r_done.store(true, Ordering::SeqCst);
                    side
                })
            });
            let w = write.map_or_else(Side::default, |stop| {
                let plan = [Op::Commit];
                let side = run_side(
                    writer, &plan, w_session, stop, r_done, first_done, yard, w_out_ref,
                );
                w_done.store(true, Ordering::SeqCst);
                side
            });
            let r = r.map_or_else(Side::default, |h| h.join().expect("reader thread panicked"));
            (r, w)
        });
        for side in [r_out, w_out] {
            out.attempted += side.attempted;
            out.failed += side.failed;
            out.errors.extend(side.errors);
        }
        let first = *first_done.lock().expect("no holder of this lock can panic");
        ServedPhase {
            r,
            w,
            overlap_s: first.map_or(0.0, |at| (at - start).as_secs_f64()),
        }
    }

    /// Versions that exist once W's commits so far have landed.
    pub fn versions(&self) -> usize {
        self.w_session.versions()
    }

    /// Reconnects and replays of both links together.
    pub fn retry_stats(&self) -> orpheus_net::RetryStats {
        let (r, w) = (self.reader.retry_stats(), self.writer.retry_stats());
        orpheus_net::RetryStats {
            reconnects: r.reconnects + w.reconnects,
            replayed: r.replayed + w.replayed,
            overload_retries: r.overload_retries + w.overload_retries,
        }
    }
}

/// History for the served workload: the prefix plus enough events that
/// the writer cannot run out inside `seconds`.
pub fn load_served(ctx: &RunCtx) -> Load {
    load_h(ctx, ctx.ops(MIXED_EVENTS_PER_S))
}

pub fn mixed_served(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let load = load_served(ctx);
    let mut yard = Yardstick::new();
    let (mut stack, set_up) = set_up_timed(&load, Depth::Net, false, ctx)?;
    let mut served = Served::connect(&stack, &load, ctx.seed)?;

    // Fixed counts on both sides, sized to finish together: the end state
    // (versions, storage) repeats exactly. Whichever side finishes first
    // ends the contended window; the other completes its count unsampled.
    let reads = Stop::After(ctx.ops(MIXED_READS_PER_S) as u64);
    let cycles = Stop::After(ctx.ops(MIXED_CYCLES_PER_S) as u64);
    let allocs_before = alloc::allocs();
    yard.start();
    let ServedPhase { r, w, overlap_s } =
        served.phase(Some(reads), Some(cycles), Some(&mut yard), &mut out);
    let allocs = alloc::allocs() - allocs_before;
    let versions = served.versions();
    drop(served);

    // Readers' and writers' checkouts are one population here: both are
    // what a checkout costs on this served instance under this mix.
    let (r, w, tail_ops) = (r.samples, w.samples, r.tail_ops + w.tail_ops);
    let samples = Samples {
        ops: r.ops + w.ops,
        checkout: [r.checkout, w.checkout].concat(),
        commit: w.commit,
        diff: r.diff,
        query: r.query,
    };
    let phase = Phase {
        allocs,
        alloc_ops: samples.ops + tail_ops,
        samples,
        elapsed_s: overlap_s,
        machine: yard.reading(),
    };
    report(&mut out, &set_up, &phase, &stack, load.records_at(versions));
    verify(&mut stack.client, &load, versions, ctx, &mut out);
    Stack::close(stack);
    Ok(out)
}

pub fn run(workload: &str, ctx: &RunCtx) -> Result<Outcome, String> {
    match workload {
        "read_inproc" => read_inproc(ctx),
        "commit_durable" => commit_durable(ctx),
        "mixed_served" => mixed_served(ctx),
        "partitioned_read" => partitioned_read(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

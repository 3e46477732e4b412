//! The differential oracle harness: replay one generated history
//! (`crate::generator::HistoryGen`) through every executor the system
//! ships — in-process [`OrpheusDB`], a
//! [`ConcurrentExecutor`](orpheus_core::ConcurrentExecutor) over
//! [`SharedOrpheusDB`], a pipelined [`AsyncExecutor`] handle, a
//! [`RemoteExecutor`] talking to a live [`NetServer`], and a WAL-backed
//! instance that is dropped and reopened via [`recovery::open_shared`] —
//! and gate each arm on agreement with the naive reference model
//! (`crate::oracle::Oracle`):
//!
//! * **graph equality** — every version's parents and record count, from
//!   `Log`;
//! * **rlist equality** and **row-for-row checkout equality** — at sampled
//!   versions, checkout → `SELECT *` → compare rids and values against
//!   `payload(rid, col)`, normalizing the trailing NULLs that models
//!   produce for records born before a schema evolution.
//!
//! Every failure message carries the generator seed and a one-command
//! reproduction line, so a divergence found at any tier is immediately
//! re-runnable. The replay itself is model-faithful: each commit checks
//! out the parent version(s), probes the staged table's width (models
//! disagree about whether old versions check out narrow or NULL-padded),
//! widens it with `ALTER TABLE … ADD COLUMN` to the current schema,
//! applies deletes and inserts through SQL, and commits through the
//! command bus — the engine allocates every rid itself, and must agree
//! with the oracle's allocator rid-for-rid.

use std::path::PathBuf;
use std::time::Instant;

use orpheus_core::{
    recovery, AsyncExecutor, Checkout, Commit, Discard, Executor, Init, Log, ModelKind, OrpheusDB,
    Request, Response, Run, SharedOrpheusDB, Vid,
};
use orpheus_engine::Value;
use orpheus_net::{NetServer, RemoteExecutor};

use crate::experiments::sample_versions;
use crate::generator::{HistoryEvent, HistoryGen, HistoryParams};
use crate::harness::percentile;
use crate::loader::bench_schema;
use crate::oracle::Oracle;

/// CVD name used by every arm.
pub const CVD: &str = "diff";
/// Staged-table name for replayed commits.
const WORK: &str = "diffwork";
/// Staged-table name for verification checkouts.
const VERIFY: &str = "diffverify";
/// Rows per multi-row INSERT statement.
const INSERT_CHUNK: usize = 256;
/// Rids per DELETE … IN (…) statement.
const DELETE_CHUNK: usize = 512;

/// One executor arm of the differential harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `OrpheusDB` driven directly through the command bus.
    InProcess,
    /// `ConcurrentExecutor` over `SharedOrpheusDB`.
    Concurrent,
    /// `AsyncExecutor` handle, one pipelined batch per commit.
    Async,
    /// `RemoteExecutor` against a live TCP `NetServer`.
    Remote,
    /// WAL-backed instance, dropped and reopened before verification.
    WalReopen,
}

impl Arm {
    pub const ALL: [Arm; 5] = [
        Arm::InProcess,
        Arm::Concurrent,
        Arm::Async,
        Arm::Remote,
        Arm::WalReopen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Arm::InProcess => "inproc",
            Arm::Concurrent => "concurrent",
            Arm::Async => "async",
            Arm::Remote => "remote",
            Arm::WalReopen => "wal_reopen",
        }
    }

    /// Parse a comma-separated arm list (the `ORPHEUS_DIFF_ARMS` knob);
    /// unknown names are an error so CI typos cannot silently skip arms.
    pub fn parse_list(s: &str) -> Result<Vec<Arm>, String> {
        let mut arms = Vec::new();
        for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            let arm = Arm::ALL
                .into_iter()
                .find(|a| a.name() == name)
                .ok_or_else(|| format!("unknown differential arm {name:?}"))?;
            if !arms.contains(&arm) {
                arms.push(arm);
            }
        }
        if arms.is_empty() {
            return Err("empty differential arm list".into());
        }
        Ok(arms)
    }
}

/// Configuration of one differential run.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    pub params: HistoryParams,
    pub model: ModelKind,
    pub arms: Vec<Arm>,
    /// Versions at which checkouts are verified row-for-row (sampled
    /// evenly; the graph is verified at *every* version regardless).
    pub checkout_samples: usize,
    /// Tier label for reproduction messages ("smoke", "ci", "paper").
    pub label: String,
}

/// Timing of one arm's replay (the verification pass is not timed).
#[derive(Debug, Clone)]
pub struct ArmStats {
    pub arm: &'static str,
    /// Requests executed during replay.
    pub requests: usize,
    pub elapsed_s: f64,
    pub req_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// History shape, for the report.
    pub versions: usize,
    pub records: usize,
}

/// Replay context: everything a failure message needs to be reproducible.
/// Fields are private; tests build one with [`Ctx::for_test`].
pub struct Ctx {
    arm: &'static str,
    model: ModelKind,
    seed: u64,
    label: String,
}

impl Ctx {
    /// Build a context for standalone use (integration and mutation
    /// tests).
    pub fn for_test(arm: &'static str, model: ModelKind, seed: u64) -> Ctx {
        Ctx {
            arm,
            model,
            seed,
            label: "test".into(),
        }
    }

    fn fail(&self, msg: impl std::fmt::Display) -> String {
        format!(
            "[differential:{arm} model={model:?} seed={seed}] {msg}\n  reproduce: \
             ORPHEUS_SCALE={label} ORPHEUS_EXPERIMENTS=differential ORPHEUS_TRIALS=1 \
             cargo run --release -p orpheus-bench --bin all_experiments",
            arm = self.arm,
            model = self.model,
            seed = self.seed,
            label = self.label,
        )
    }
}

/// Run the configured arms; returns per-arm timings, or the first
/// divergence as a seed-bearing error string.
pub fn run_differential(cfg: &DiffConfig) -> Result<Vec<ArmStats>, String> {
    let oracle = Oracle::replay(HistoryGen::new(cfg.params.clone()));
    let samples = sample_versions(oracle.num_versions(), cfg.checkout_samples);
    eprintln!(
        "[differential] oracle ready: {} versions, {} records; arms: {}",
        oracle.num_versions(),
        oracle.num_records(),
        cfg.arms
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut stats = Vec::new();
    for &arm in &cfg.arms {
        let ctx = Ctx {
            arm: arm.name(),
            model: cfg.model,
            seed: cfg.params.seed,
            label: cfg.label.clone(),
        };
        // Progress on stderr: the paper tier runs for many minutes per
        // arm with nothing on stdout until every arm has finished.
        eprintln!("[differential] {}: replaying...", arm.name());
        let timing = run_arm(arm, cfg, &oracle, &samples, &ctx)?;
        eprintln!(
            "[differential] {}: ok in {:.1}s ({} requests)",
            arm.name(),
            timing.elapsed_s,
            timing.requests
        );
        stats.push(timing);
    }
    Ok(stats)
}

/// The serving stack one arm puts in front of a fresh, empty instance.
/// Both gates build their arms here — this one drives a stack with one
/// sequential client, [`crate::storm`] with many concurrent ones — so what
/// "the async arm" means cannot drift between them.
pub(crate) enum Stack {
    Concurrent(SharedOrpheusDB),
    Async(AsyncExecutor),
    Remote(NetServer),
    /// The instance and the WAL directory it logs to.
    Wal(SharedOrpheusDB, PathBuf),
}

impl Stack {
    /// Build `arm`'s stack. `tag` names the WAL directory, so runs that
    /// may overlap in one process must pass different tags. The in-process
    /// arm has no stack: it is a bare `OrpheusDB`.
    pub(crate) fn open(arm: Arm, tag: &str) -> Result<Stack, String> {
        let fresh = || SharedOrpheusDB::new(OrpheusDB::new());
        match arm {
            Arm::InProcess => Err("the in-process arm has no serving stack".into()),
            Arm::Concurrent => Ok(Stack::Concurrent(fresh())),
            Arm::Async => Ok(Stack::Async(AsyncExecutor::new(fresh()))),
            Arm::Remote => NetServer::bind("127.0.0.1:0", fresh())
                .map(Stack::Remote)
                .map_err(|e| format!("bind server: {e}")),
            Arm::WalReopen => {
                let dir =
                    std::env::temp_dir().join(format!("orpheus-{tag}-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let shared =
                    recovery::open_shared(&dir).map_err(|e| format!("open WAL dir: {e}"))?;
                Ok(Stack::Wal(shared, dir))
            }
        }
    }

    /// The instance behind the stack, for reading outcomes directly.
    pub(crate) fn shared(&self) -> SharedOrpheusDB {
        match self {
            Stack::Concurrent(shared) | Stack::Wal(shared, _) => shared.clone(),
            Stack::Async(pool) => pool.shared().clone(),
            Stack::Remote(server) => server.shared(),
        }
    }

    /// What a verifier should look at once the clients are done: the WAL
    /// arm drops its instance (and log handle) and reopens the directory —
    /// durability is the point — every other arm is returned as it is.
    pub(crate) fn reopened(self) -> Result<Stack, String> {
        match self {
            Stack::Wal(shared, dir) => {
                drop(shared);
                let shared =
                    recovery::open_shared(&dir).map_err(|e| format!("reopen WAL dir: {e}"))?;
                Ok(Stack::Wal(shared, dir))
            }
            other => Ok(other),
        }
    }

    /// Tear the stack down: stop the server, delete the WAL directory.
    pub(crate) fn close(self) {
        match self {
            Stack::Remote(server) => server.shutdown(),
            Stack::Wal(shared, dir) => {
                drop(shared);
                let _ = std::fs::remove_dir_all(dir);
            }
            Stack::Concurrent(_) | Stack::Async(_) => {}
        }
    }
}

/// Open one client of a [`Stack`] as `$user` — a `ConcurrentExecutor`, an
/// `AsyncHandle` or a `RemoteExecutor` on its own socket — and evaluate
/// `$body` with it bound to `$exec`. A macro because the three clients are
/// three types and `Executor::batch` is generic, so neither a closure nor
/// `dyn Executor` can stand in. Yields `Result<_, String>`: `Err` when the
/// client could not be opened, else `$body`'s value.
macro_rules! with_client {
    ($stack:expr, $user:expr, |$exec:ident| $body:expr) => {
        match $stack {
            Stack::Concurrent(shared) | Stack::Wal(shared, _) => shared
                .executor($user)
                .map_err(|e| format!("open executor: {e}"))
                .map(|mut $exec| $body),
            Stack::Async(pool) => pool
                .handle($user)
                .map_err(|e| format!("open async handle: {e}"))
                .map(|mut $exec| $body),
            Stack::Remote(server) => RemoteExecutor::connect(server.local_addr(), $user)
                .map_err(|e| format!("connect: {e}"))
                .map(|mut $exec| $body),
        }
    };
}
pub(crate) use with_client;

fn run_arm(
    arm: Arm,
    cfg: &DiffConfig,
    oracle: &Oracle,
    samples: &[u64],
    ctx: &Ctx,
) -> Result<ArmStats, String> {
    let gen = HistoryGen::new(cfg.params.clone());
    let (mut lat_us, elapsed) = if arm == Arm::InProcess {
        let mut odb = OrpheusDB::new();
        let r = replay(&mut odb, gen, cfg.model, false, ctx)?;
        verify_against(&mut odb, oracle, samples, ctx)?;
        r
    } else {
        let fail = |e: String| ctx.fail(e);
        let stack = Stack::open(arm, &format!("diff-{}", ctx.label)).map_err(fail)?;
        // One pipelined batch per commit on the async arm.
        let pipeline = arm == Arm::Async;
        let r = with_client!(&stack, "diff_user", |exec| replay(
            &mut exec, gen, cfg.model, pipeline, ctx
        ))
        .map_err(fail)??;
        let stack = stack.reopened().map_err(fail)?;
        with_client!(&stack, "diff_user", |exec| verify_against(
            &mut exec, oracle, samples, ctx
        ))
        .map_err(fail)??;
        stack.close();
        r
    };
    let p50 = percentile(&mut lat_us, 50.0);
    let p99 = percentile(&mut lat_us, 99.0);
    Ok(ArmStats {
        arm: arm.name(),
        requests: lat_us.len(),
        elapsed_s: elapsed,
        req_per_s: if elapsed > 0.0 {
            lat_us.len() as f64 / elapsed
        } else {
            0.0
        },
        p50_us: p50,
        p99_us: p99,
        versions: oracle.num_versions(),
        records: oracle.num_records(),
    })
}

/// Replay a history through one executor. Returns per-request latencies
/// (µs; pipelined batches report the amortized per-request time) and the
/// replay wall-clock in seconds.
///
/// Public so tests can replay honestly and then verify against a
/// deliberately corrupted oracle.
pub fn replay<E: Executor>(
    exec: &mut E,
    gen: impl IntoIterator<Item = HistoryEvent>,
    model: ModelKind,
    pipeline: bool,
    ctx: &Ctx,
) -> Result<(Vec<f64>, f64), String> {
    let mut lat = Vec::new();
    let start = Instant::now();
    for event in gen {
        match event {
            HistoryEvent::Init(init) => {
                let rows: Vec<Vec<Value>> = init
                    .rows
                    .iter()
                    .map(|(_, vals)| vals.iter().copied().map(Value::Int).collect())
                    .collect();
                let req = Init::cvd(CVD)
                    .schema(bench_schema(init.attrs))
                    .rows(rows)
                    .model(model);
                let resp = timed(exec, req.into(), &mut lat)
                    .map_err(|e| ctx.fail(format_args!("init: {e}")))?;
                if !matches!(resp, Response::Initialized { .. }) {
                    return Err(ctx.fail(format_args!("init: unexpected response {resp:?}")));
                }
            }
            HistoryEvent::Commit(commit) => {
                // Checkout the parent version(s), then probe the staged
                // width — models legitimately disagree about whether an
                // old version checks out narrow or NULL-padded.
                let checkout = Checkout::of(CVD)
                    .versions(commit.parents.iter().map(|&p| Vid(p)))
                    .into_table(WORK);
                timed(exec, checkout.into(), &mut lat)
                    .map_err(|e| ctx.fail(format_args!("v{}: checkout: {e}", commit.vid)))?;
                let probe = timed(
                    exec,
                    Run::sql(format!("SELECT * FROM {WORK} WHERE rid = 0")).into(),
                    &mut lat,
                )
                .map_err(|e| ctx.fail(format_args!("v{}: probe: {e}", commit.vid)))?;
                let staged_attrs = match probe.rows() {
                    Some(q) => q.schema.columns.len().saturating_sub(1),
                    None => {
                        return Err(
                            ctx.fail(format_args!("v{}: probe returned no schema", commit.vid))
                        )
                    }
                };

                // The commit body: widen, delete, insert, commit — one
                // pipelined batch on the async arm, individual requests
                // elsewhere.
                let mut body: Vec<Request> = Vec::new();
                for c in staged_attrs..commit.width {
                    body.push(Run::sql(format!("ALTER TABLE {WORK} ADD COLUMN a{c} INT")).into());
                }
                for chunk in commit.deletes.chunks(DELETE_CHUNK) {
                    let list = chunk
                        .iter()
                        .map(i64::to_string)
                        .collect::<Vec<_>>()
                        .join(", ");
                    body.push(Run::sql(format!("DELETE FROM {WORK} WHERE rid IN ({list})")).into());
                }
                for chunk in commit.inserts.chunks(INSERT_CHUNK) {
                    let rows = chunk
                        .iter()
                        .map(|(_, vals)| {
                            let mut row = String::from("(NULL");
                            for v in vals {
                                row.push_str(", ");
                                row.push_str(&v.to_string());
                            }
                            row.push(')');
                            row
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    body.push(Run::sql(format!("INSERT INTO {WORK} VALUES {rows}")).into());
                }
                body.push(
                    Commit::table(WORK)
                        .message(format!("v{}", commit.vid))
                        .into(),
                );

                let last = if pipeline {
                    let n = body.len();
                    let t = Instant::now();
                    let results = exec.batch(body);
                    let each = t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64;
                    lat.extend(std::iter::repeat_n(each, n));
                    let mut final_resp = None;
                    for r in results {
                        final_resp = Some(r.map_err(|e| {
                            ctx.fail(format_args!("v{}: batched commit body: {e}", commit.vid))
                        })?);
                    }
                    final_resp
                } else {
                    let mut final_resp = None;
                    for req in body {
                        final_resp = Some(timed(exec, req, &mut lat).map_err(|e| {
                            ctx.fail(format_args!("v{}: commit body: {e}", commit.vid))
                        })?);
                    }
                    final_resp
                };
                match last {
                    Some(Response::Committed { version, .. }) if version.0 == commit.vid => {}
                    other => {
                        return Err(ctx.fail(format_args!(
                            "v{}: expected Committed version {}, got {other:?}",
                            commit.vid, commit.vid
                        )))
                    }
                }
            }
        }
    }
    Ok((lat, start.elapsed().as_secs_f64()))
}

fn timed<E: Executor>(
    exec: &mut E,
    req: Request,
    lat: &mut Vec<f64>,
) -> Result<Response, orpheus_core::CoreError> {
    let t = Instant::now();
    let resp = exec.execute(req);
    lat.push(t.elapsed().as_secs_f64() * 1e6);
    resp
}

/// Verify an executor's CVD against the oracle: the whole version graph
/// (parents + record counts via `Log`), and rlist + row-for-row checkout
/// equality at the sampled versions. Returns the first divergence as a
/// seed-bearing error.
pub fn verify_against<E: Executor>(
    exec: &mut E,
    oracle: &Oracle,
    samples: &[u64],
    ctx: &Ctx,
) -> Result<(), String> {
    // Graph equality at every version.
    let resp = exec
        .execute(Log::of(CVD).into())
        .map_err(|e| ctx.fail(format_args!("log: {e}")))?;
    let entries = match resp {
        Response::Log { entries, .. } => entries,
        other => return Err(ctx.fail(format_args!("log: unexpected response {other:?}"))),
    };
    if entries.len() != oracle.num_versions() {
        return Err(ctx.fail(format_args!(
            "graph: {} versions, oracle has {}",
            entries.len(),
            oracle.num_versions()
        )));
    }
    for entry in &entries {
        let model_v = oracle.version(entry.vid.0);
        let mut parents: Vec<u64> = entry.parents.iter().map(|p| p.0).collect();
        parents.sort_unstable();
        if parents != model_v.parents {
            return Err(ctx.fail(format_args!(
                "graph: v{} parents {:?}, oracle says {:?}",
                entry.vid.0, parents, model_v.parents
            )));
        }
        if entry.num_records != model_v.rlist.len() as u64 {
            return Err(ctx.fail(format_args!(
                "graph: v{} has {} records, oracle says {}",
                entry.vid.0,
                entry.num_records,
                model_v.rlist.len()
            )));
        }
    }

    // Checkout equality at sampled versions.
    for &vid in samples {
        exec.execute(Checkout::of(CVD).version(vid).into_table(VERIFY).into())
            .map_err(|e| ctx.fail(format_args!("verify v{vid}: checkout: {e}")))?;
        let resp = exec
            .execute(Run::sql(format!("SELECT * FROM {VERIFY}")).into())
            .map_err(|e| ctx.fail(format_args!("verify v{vid}: select: {e}")))?;
        let q = resp
            .rows()
            .ok_or_else(|| ctx.fail(format_args!("verify v{vid}: select returned no rows")))?
            .clone();
        exec.execute(Discard::table(VERIFY).into())
            .map_err(|e| ctx.fail(format_args!("verify v{vid}: discard: {e}")))?;

        let mut rows: Vec<(i64, Vec<Value>)> = Vec::with_capacity(q.rows.len());
        for row in q.rows {
            let mut it = row.into_iter();
            match it.next() {
                Some(Value::Int(rid)) => rows.push((rid, it.collect())),
                other => {
                    return Err(ctx.fail(format_args!(
                        "verify v{vid}: first column is not a rid: {other:?}"
                    )))
                }
            }
        }
        rows.sort_by_key(|&(rid, _)| rid);

        let expect = &oracle.version(vid).rlist;
        let got: Vec<i64> = rows.iter().map(|&(rid, _)| rid).collect();
        if &got != expect {
            let first = got
                .iter()
                .zip(expect.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| got.len().min(expect.len()));
            return Err(ctx.fail(format_args!(
                "rlist: v{vid} has {} rids, oracle says {} (first divergence at index {first}: \
                 got {:?}, want {:?})",
                got.len(),
                expect.len(),
                got.get(first),
                expect.get(first)
            )));
        }
        for (rid, mut vals) in rows {
            // Models render columns newer than a record as trailing NULLs
            // (or omit them when the version's table is frozen narrow);
            // payloads are never NULL, so trimming is unambiguous.
            while vals.last().is_some_and(Value::is_null) {
                vals.pop();
            }
            let expect_row = oracle.row(rid);
            let matches = vals.len() == expect_row.len()
                && vals
                    .iter()
                    .zip(expect_row.iter())
                    .all(|(v, &e)| matches!(v, Value::Int(x) if *x == e));
            if !matches {
                return Err(ctx.fail(format_args!(
                    "rows: v{vid} rid {rid}: got {vals:?}, oracle says {expect_row:?}"
                )));
            }
        }
    }
    Ok(())
}

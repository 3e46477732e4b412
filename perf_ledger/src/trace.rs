//! The traced run: per-layer numbers, measured from outside by timing
//! calls into each layer's public functions.
//!
//! **The ladder.** One seeded op list — checkouts of Zipf-recent versions,
//! then commit cycles — is replayed at successively deeper stacks, each on
//! its own copy of the loaded instance:
//! `engine` → `model` → `db` → `concurrent` → `async_exec` → `net` → `wal`.
//! Every call is one span `(layer, kind, op id, depth, start, end)`; a
//! span's parent is the same op one depth up, so a layer's self time is
//! its span minus the span one depth down for the same op, medianed.
//! Spans stay in memory and are written to `.run/trace-<workload>.jsonl`
//! when the run ends.
//!
//! After the ladder come the probes of the layers the workload enters; a
//! layer it never enters reports 0. None of this code is reachable from
//! the untraced workloads.

use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

use orpheus_core::codec::{put_request, put_response, read_request, read_response, Reader};
use orpheus_core::{Checkout, Discard, Executor, ModelKind, Optimize, Request, Response, Run, Vid};
use orpheus_partition::migration::{plan_migration, plan_naive};
use orpheus_partition::online::{OnlineConfig, OnlineMaintainer};
use orpheus_partition::{lyresplit_for_budget, EdgePick};

use crate::alloc;
use crate::load::{self, Load, Rng, ZipfRecent, CVD};
use crate::metrics::{self, Outcome};
use crate::stacks::{self, Below, Client, Depth, Stack};
use crate::stats::{self, median};
use crate::workloads::{
    self, commit_request, load_history, stage_commit, timed, RunCtx, Served, Stop, GAMMA, MU,
};

const WORK: &str = "ledger_work";

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Checkout,
    Commit,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Checkout => "checkout",
            Kind::Commit => "commit",
        }
    }
}

/// One call into one layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub kind: Kind,
    /// Shared by the spans of one op across depths.
    pub op: u32,
    pub depth: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation calls in the whole process while the span was open.
    pub allocs: u64,
}

pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record<T>(
        &mut self,
        layer: &'static str,
        kind: Kind,
        op: u32,
        depth: u8,
        f: impl FnOnce() -> T,
    ) -> T {
        let allocs = alloc::allocs();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            kind,
            op,
            depth,
            start_ns,
            end_ns,
            allocs: alloc::allocs() - allocs,
        });
        out
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = match s.depth {
                0 => "null".to_string(),
                d => format!("{{\"op\": {}, \"depth\": {}}}", s.op, d - 1),
            };
            writeln!(
                w,
                "{{\"name\": \"{}.{}\", \"op\": {}, \"depth\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}}}",
                s.layer,
                s.kind.name(),
                s.op,
                s.depth,
                s.start_ns,
                s.end_ns,
                s.allocs
            )?;
        }
        w.flush()
    }
}

/// Self time (µs) and self allocations of every `kind` span at `depth`:
/// the span minus the span of the same op one depth down. Spans pair by
/// op id, never by position; an op missing below is left out.
pub fn hops(spans: &[Span], kind: Kind, depth: u8) -> (Vec<f64>, Vec<f64>) {
    let us = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e3;
    let below: HashMap<u32, &Span> = spans
        .iter()
        .filter(|s| s.kind == kind && depth > 0 && s.depth == depth - 1)
        .map(|s| (s.op, s))
        .collect();
    let mut times = Vec::new();
    let mut allocs = Vec::new();
    for s in spans.iter().filter(|s| s.kind == kind && s.depth == depth) {
        if depth == 0 {
            times.push(us(s));
            allocs.push(s.allocs as f64);
        } else if let Some(child) = below.get(&s.op) {
            times.push(us(s) - us(child));
            allocs.push(s.allocs as f64 - child.allocs as f64);
        }
    }
    (times, allocs)
}

/// Whole-span durations (µs) of one kind at one depth, in recording order.
fn durations(spans: &[Span], kind: Kind, depth: u8) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind && s.depth == depth)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

// -- the ladder ------------------------------------------------------------------

/// The bus-level rungs above `db`, in ladder order.
const BUS_RUNGS: [Depth; 5] = [
    Depth::Db,
    Depth::Concurrent,
    Depth::Async,
    Depth::Net,
    Depth::Wal,
];

struct LadderOps {
    /// Versions to check out; op ids `0..checkouts.len()`.
    checkouts: Vec<u64>,
    /// Versions the commit cycles create, in order; op ids follow on.
    commits: Vec<u64>,
}

impl LadderOps {
    fn new(load: &Load, seed: u64, checkouts: usize, commits: usize) -> LadderOps {
        let zipf = ZipfRecent::new(load.prefix, 0.8);
        let mut rng = Rng::new(seed ^ 0x1add_e700);
        LadderOps {
            checkouts: (0..checkouts)
                .map(|_| zipf.draw(&mut rng, load.prefix as u64))
                .collect(),
            commits: (1..=commits).map(|i| (load.prefix + i) as u64).collect(),
        }
    }

    fn commit_op(&self, i: usize) -> u32 {
        (self.checkouts.len() + i) as u32
    }
}

/// What the top bus rung hands the probes that follow.
#[derive(Default)]
struct TopRung {
    /// Request/response pairs as they crossed the bus (codec probe).
    pairs: Vec<(Request, Response)>,
    /// Checkout latencies through plain `workloads::timed`, interleaved
    /// with the traced ones (tracing-overhead probe).
    untraced_checkout_us: Vec<f64>,
    /// Per commit: `(log records, log bytes)` appended (WAL rung only).
    wal_per_commit: Vec<(u64, u64)>,
    /// Log sequence number when the rung started, right after the
    /// import's checkpoint (WAL rung only).
    wal_start_seq: u64,
    user_bytes: u64,
}

fn checkout_request(vid: u64) -> Request {
    Checkout::of(CVD).version(vid).into_table(WORK).into()
}

fn below_rungs(
    load: &Load,
    loaded: &Client,
    ops: &LadderOps,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Result<(), String> {
    // engine: rid index lookups; the commit's SQL statements.
    let mut below = Below::new(loaded.clone_db())?;
    for (i, &vid) in ops.checkouts.iter().enumerate() {
        out.attempted += 1;
        let rows = log.record("engine", Kind::Checkout, i as u32, 0, || {
            below.engine_checkout(vid)
        })?;
        if rows != load.oracle.version(vid).rlist.len() {
            out.fail(format!("engine checkout v{vid}: {rows} slots"));
        }
    }
    for (i, &vid) in ops.commits.iter().enumerate() {
        out.attempted += 1;
        let event = load.commit_event(vid);
        below.evolve(event)?;
        let rendered = below.render_engine_commit(event, &load.oracle.version(vid).rlist);
        log.record("engine", Kind::Commit, ops.commit_op(i), 0, || {
            below.engine_commit(&rendered)
        })?;
    }
    // model: version_rows; persist_commit.
    let mut below = Below::new(loaded.clone_db())?;
    for (i, &vid) in ops.checkouts.iter().enumerate() {
        out.attempted += 1;
        let rows = log.record("model", Kind::Checkout, i as u32, 1, || {
            below.model_checkout(vid)
        })?;
        if rows != load.oracle.version(vid).rlist.len() {
            out.fail(format!("model checkout v{vid}: {rows} rows"));
        }
    }
    for (i, &vid) in ops.commits.iter().enumerate() {
        out.attempted += 1;
        let event = load.commit_event(vid);
        below.evolve(event)?;
        let data = below.commit_data(event, &load.oracle.version(vid).rlist);
        log.record("model", Kind::Commit, ops.commit_op(i), 1, || {
            below.model_commit(&data)
        })?;
    }
    Ok(())
}

/// Replay the op list on one bus-level stack. `top` adds the untraced
/// twin of every checkout and captures the traffic.
fn bus_rung(
    stack: &mut Stack,
    (depth, layer): (u8, &'static str),
    load: &Load,
    ops: &LadderOps,
    log: &mut SpanLog,
    out: &mut Outcome,
    mut top: Option<&mut TopRung>,
) -> Result<(), String> {
    if let (Some(top), Some((seq, _))) = (top.as_deref_mut(), stack.wal_position()) {
        top.wal_start_seq = seq;
    }
    for (i, &vid) in ops.checkouts.iter().enumerate() {
        out.attempted += 1;
        // Alternate which twin goes first so neither always runs warm.
        for traced in [i % 2 == 0, i % 2 != 0] {
            if !traced {
                let Some(top) = top.as_deref_mut() else {
                    continue;
                };
                let (resp, us) = timed(&mut stack.client, checkout_request(vid));
                resp?;
                top.untraced_checkout_us.push(us);
            } else {
                let resp = log.record(layer, Kind::Checkout, i as u32, depth, || {
                    stack.client.execute(checkout_request(vid))
                });
                let resp = resp.map_err(|e| format!("{layer} checkout v{vid}: {e}"))?;
                if let Some(top) = top.as_deref_mut() {
                    top.pairs.push((checkout_request(vid), resp));
                    if i % 8 == 0 {
                        // A row-bearing response, as verification reads.
                        let select: Request = Run::sql(format!("SELECT * FROM {WORK}")).into();
                        let rows = stack
                            .client
                            .execute(select.clone())
                            .map_err(|e| e.to_string())?;
                        let want = load.oracle.version(vid).rlist.len();
                        if rows.rows().map(|q| q.rows.len()) != Some(want) {
                            out.fail(format!("{layer} checkout v{vid}: expected {want} rows"));
                        }
                        top.pairs.push((select, rows));
                    }
                }
            }
            let discard: Request = Discard::table(WORK).into();
            stack
                .client
                .execute(discard)
                .map_err(|e| format!("{layer} discard: {e}"))?;
        }
    }
    for (i, &vid) in ops.commits.iter().enumerate() {
        out.attempted += 1;
        let event = load.commit_event(vid);
        stage_commit(&mut stack.client, event, WORK, false)?;
        let before = stack.wal_position();
        let request = commit_request(event, WORK);
        let resp = log.record(layer, Kind::Commit, ops.commit_op(i), depth, || {
            stack.client.execute(request.clone())
        });
        let resp = resp.map_err(|e| format!("{layer} commit v{vid}: {e}"))?;
        if resp.version() != Some(Vid(vid)) {
            out.fail(format!("{layer} commit: expected v{vid}, got {resp:?}"));
        }
        if let Some(top) = top.as_deref_mut() {
            if let (Some((s0, b0)), Some((s1, b1))) = (before, stack.wal_position()) {
                top.wal_per_commit.push((s1 - s0, b1 - b0));
            }
            top.user_bytes += event
                .inserts
                .iter()
                .map(|(_, v)| 8 * v.len() as u64)
                .sum::<u64>();
            top.pairs.push((request, resp));
        }
    }
    Ok(())
}

/// Rungs of the ladder the workload's requests travel.
fn rungs_for(workload: &str) -> usize {
    match workload {
        "commit_durable" => 7,
        "mixed_served" => 6,
        _ => 3,
    }
}

fn put_ladder(out: &mut Outcome, spans: &[Span], rungs: usize) {
    for kind in [Kind::Checkout, Kind::Commit] {
        for (depth, layer) in metrics::LADDER.iter().enumerate().take(rungs) {
            let (times, allocs) = hops(spans, kind, depth as u8);
            let hop = if depth == 0 { "" } else { "_hop" };
            let s = stats::summarize(&times);
            out.put_noted(
                &format!("{layer}.{}{hop}_us", kind.name()),
                s.p50,
                "us",
                format!("n={} subsample median={:.1} mad={:.1}", s.n, s.mom, s.mad),
            );
            out.put(
                &format!("{layer}.{}_hop_allocs", kind.name()),
                median(&allocs),
                "count",
            );
        }
    }
}

// -- probes ----------------------------------------------------------------------

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Encode and decode every captured pair; `net.transport_us` is what is
/// left of the net hop once a checkout's own codec work is taken out.
fn codec_probe(out: &mut Outcome, pairs: &[(Request, Response)]) -> Result<(), String> {
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp) = (vec![], vec![], vec![], vec![]);
    let (mut resp_allocs, mut checkout_total) = (vec![], vec![]);
    let (mut row_bytes, mut rows) = (0u64, 0u64);
    for (request, response) in pairs {
        let mut buf = Vec::new();
        let ((), e1) = time_us(|| put_request(&mut buf, request));
        let (decoded, d1) = time_us(|| read_request(&mut Reader::new(&buf)));
        if decoded.map_err(|e| e.to_string())? != *request {
            return Err("codec: request did not round-trip".into());
        }
        let allocs = alloc::allocs();
        let mut buf = Vec::new();
        let ((), e2) = time_us(|| put_response(&mut buf, response));
        let (decoded, d2) = time_us(|| read_response(&mut Reader::new(&buf)));
        let decoded = decoded.map_err(|e| e.to_string())?;
        resp_allocs.push((alloc::allocs() - allocs) as f64);
        if let (Some(a), Some(b)) = (decoded.rows(), response.rows()) {
            if a.rows != b.rows {
                return Err("codec: rows did not round-trip".into());
            }
            row_bytes += buf.len() as u64;
            rows += b.rows.len() as u64;
        }
        enc_req.push(e1);
        dec_req.push(d1);
        enc_resp.push(e2);
        dec_resp.push(d2);
        if matches!(request, Request::Checkout(_)) {
            checkout_total.push(e1 + d1 + e2 + d2);
        }
    }
    out.put("codec.encode_request_us", median(&enc_req), "us");
    out.put("codec.decode_request_us", median(&dec_req), "us");
    out.put("codec.encode_response_us", median(&enc_resp), "us");
    out.put("codec.decode_response_us", median(&dec_resp), "us");
    out.put("codec.allocs_per_response", median(&resp_allocs), "count");
    out.put(
        "codec.response_bytes_per_row",
        row_bytes as f64 / rows.max(1) as f64,
        "B",
    );
    let net_hop = out.get("net.checkout_hop_us").unwrap_or(0.0);
    out.put_noted(
        "net.transport_us",
        net_hop - median(&checkout_total),
        "us",
        "net.checkout_hop_us minus a checkout's codec work".into(),
    );
    Ok(())
}

/// The paper's checkout cost on the Table 1 SQL path, where the engine
/// counts rows: records read per checkout, and per record returned.
fn spec_counts_probe(out: &mut Outcome, loaded: &Client, ops: &LadderOps) -> Result<(), String> {
    let mut below = Below::new(loaded.clone_db())?;
    let (mut scanned, mut lookups, mut returned) = (0u64, 0u64, 0u64);
    let sample: Vec<u64> = ops.checkouts.iter().copied().take(32).collect();
    for &vid in &sample {
        let (s, l, r) = below.spec_checkout_counts(vid)?;
        scanned += s;
        lookups += l;
        returned += r;
    }
    let n = sample.len().max(1) as f64;
    out.put(
        "engine.rows_scanned_per_checkout",
        scanned as f64 / n,
        "count",
    );
    out.put(
        "engine.index_lookups_per_checkout",
        lookups as f64 / n,
        "count",
    );
    out.put_noted(
        "model.rows_read_per_row_returned",
        (scanned + lookups) as f64 / returned.max(1) as f64,
        "count",
        "Table 1 SQL path; the record-access fast path reads exactly the rows it returns".into(),
    );
    Ok(())
}

/// The five storage models on one small pinned history.
fn model_kinds_probe(out: &mut Outcome, ctx: &RunCtx) -> Result<(), String> {
    let prefix = 40;
    let commits = 12;
    let load = Load::generate(load::history_small(prefix + commits), prefix);
    for kind in ModelKind::ALL {
        let name = metrics::model_kind_name(kind);
        let mut db = stacks::empty_db();
        load_history(&mut db, &load.events[..prefix], kind, true)?;
        let mut read_us = Vec::new();
        for vid in (1..=prefix as u64).step_by(3) {
            out.attempted += 1;
            let (rows, us) = time_us(|| db.version_rows(vid));
            if rows? != load.oracle.version(vid).rlist.len() {
                out.fail(format!(
                    "{name}: version_rows v{vid} disagrees with the oracle"
                ));
            }
            read_us.push(us);
        }
        let mut commit_us = Vec::new();
        for vid in prefix as u64 + 1..=(prefix + commits) as u64 {
            out.attempted += 1;
            let (_, us) = workloads::commit_cycle(&mut db, load.commit_event(vid), WORK, true)?;
            commit_us.push(us);
        }
        let stack = Stack::build(Depth::Db, db.into_db(), &ctx.scratch)?;
        let records = load.records_at(prefix + commits);
        out.put(
            &format!("model.{name}.version_rows_us"),
            median(&read_us),
            "us",
        );
        out.put(&format!("model.{name}.commit_us"), median(&commit_us), "us");
        out.put(
            &format!("model.{name}.storage_bytes_per_record"),
            stack.storage_bytes() as f64 / records as f64,
            "B",
        );
    }
    Ok(())
}

/// WAL growth per commit from the top rung, then checkpoint and reopen
/// timings on the directory it leaves behind.
fn wal_probe(out: &mut Outcome, stack: Stack, top: &TopRung, spans: &[Span]) -> Result<(), String> {
    let n = top.wal_per_commit.len().max(1) as f64;
    let records: u64 = top.wal_per_commit.iter().map(|&(r, _)| r).sum();
    let bytes: u64 = top.wal_per_commit.iter().map(|&(_, b)| b).sum();
    out.put("wal.records_per_commit", records as f64 / n, "count");
    out.put("wal.bytes_per_commit", bytes as f64 / n, "B");
    out.put_noted(
        "wal.bytes_per_user_byte",
        bytes as f64 / top.user_bytes.max(1) as f64,
        "count",
        "log bytes appended by commits / bytes of cell payload they inserted".into(),
    );
    let s = stats::summarize(&durations(spans, Kind::Commit, 6));
    if let Some((pm, v)) = s.tail {
        let p = pm as f64 / 10.0;
        out.put_noted(
            "wal.commit_tail_us",
            v,
            "us",
            format!("p{p} of {} commits", s.n),
        );
    }

    // Reopen with the whole ladder's records in the log, then again right
    // after a checkpoint: the difference is what replay costs.
    let logged = stack
        .wal_position()
        .map_or(0, |(seq, _)| seq - top.wal_start_seq);
    let dir = stack.close().ok_or("wal rung has a directory")?;
    let (reopened, full_us) = time_us(|| Stack::reopen(&dir));
    let reopened = reopened?;
    let mut checkpoint_ms = Vec::new();
    for _ in 0..3 {
        let (r, us) = time_us(|| reopened.checkpoint());
        r?;
        checkpoint_ms.push(us / 1e3);
    }
    reopened.close();
    let (again, empty_us) = time_us(|| Stack::reopen(&dir));
    again?.close();
    out.put("recovery.reopen_s", full_us / 1e6, "s");
    out.put("recovery.checkpoint_ms", median(&checkpoint_ms), "ms");
    // The initial import's checkpoint plus the three timed here.
    out.put("recovery.checkpoints", 4.0, "count");
    let replay_s = (full_us - empty_us).max(1.0) / 1e6;
    out.put_noted(
        "recovery.replay_records_per_s",
        logged as f64 / replay_s,
        "1/s",
        format!(
            "{logged} records; reopen {:.1} ms with them, {:.1} ms without",
            full_us / 1e3,
            empty_us / 1e3
        ),
    );
    Ok(())
}

/// The same requests one by one and as batches of 16: checkouts into
/// sixteen tables, then their discards.
fn batch_speedup(client: &mut Client, vids: &[u64]) -> Result<f64, String> {
    let chunks: Vec<Vec<Request>> = vids
        .chunks(16)
        .flat_map(|chunk| {
            let table = |i: usize| format!("ledger_b{i}");
            let checkouts = chunk
                .iter()
                .enumerate()
                .map(|(i, &v)| Checkout::of(CVD).version(v).into_table(table(i)).into())
                .collect();
            let discards = (0..chunk.len())
                .map(|i| Discard::table(table(i)).into())
                .collect();
            [checkouts, discards]
        })
        .collect();
    let (mut one_by_one, mut batched) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let ((), us) = time_us(|| {
            for request in chunks.iter().flatten() {
                let _ = client.execute(request.clone());
            }
        });
        one_by_one.push(us);
        let (results, us) = time_us(|| {
            chunks
                .iter()
                .flat_map(|chunk| client.batch(chunk.clone()))
                .collect::<Vec<_>>()
        });
        if let Some(e) = results.into_iter().find_map(Result::err) {
            return Err(format!("batched request failed: {e}"));
        }
        batched.push(us);
    }
    Ok(median(&one_by_one) / median(&batched))
}

/// Quiet reader, quiet writer, then both: what each pays for the other.
fn served_probe(
    out: &mut Outcome,
    load: &Load,
    loaded: &Client,
    ctx: &RunCtx,
) -> Result<(), String> {
    let stack = Stack::build(Depth::Net, loaded.clone_db(), &ctx.scratch)?;
    let mut served = Served::connect(&stack, load, ctx.seed)?;
    // Clock-bounded phases: counts vary from run to run.
    let after = |share: f64| {
        Some(Stop::At(
            Instant::now() + Duration::from_secs_f64(ctx.phase_seconds() * share),
        ))
    };
    let quiet_r = served.phase(after(0.25), None, None, out).r.samples;
    let quiet_w = served.phase(None, after(0.25), None, out).w.samples;
    let busy = served.phase(after(0.5), after(0.5), None, out);
    let (busy_r, busy_w) = (busy.r.samples, busy.w.samples);
    out.put_noted(
        "concurrent.reader_slowdown_x",
        median(&busy_r.checkout) / median(&quiet_r.checkout),
        "count",
        format!(
            "checkout p50 beside a writer / alone ({:.1} us)",
            median(&quiet_r.checkout)
        ),
    );
    out.put_noted(
        "concurrent.writer_slowdown_x",
        median(&busy_w.commit) / median(&quiet_w.commit),
        "count",
        format!(
            "commit p50 beside a reader / alone ({:.1} us)",
            median(&quiet_w.commit)
        ),
    );
    let retries = served.retry_stats();
    drop(served);
    let server = stack.server_stats().ok_or("served stack has a server")?;
    out.put("net.shed", server.shed as f64, "count");
    out.put("net.deduped", server.deduped as f64, "count");
    out.put(
        "net.deadline_exceeded",
        server.deadline_exceeded as f64,
        "count",
    );
    out.put("net.reconnects", retries.reconnects as f64, "count");
    out.put("net.replayed", retries.replayed as f64, "count");
    stack.close();
    Ok(())
}

/// `partition` and `partition_store`: search, build, read, place, migrate.
fn partition_probe(
    out: &mut Outcome,
    load: &Load,
    loaded: &Client,
    ops: &LadderOps,
    log: &mut SpanLog,
    ctx: &RunCtx,
) -> Result<(), String> {
    let mut stack = Stack::build(Depth::Db, loaded.clone_db(), &ctx.scratch)?;
    // LyreSplit alone, on the tree the optimizer is about to see.
    let tree = stack
        .with_db(|odb| odb.cvd(CVD).map(|c| c.version_tree()))
        .map_err(|e| e.to_string())?;
    let gamma = (GAMMA * tree.total_records() as f64) as u64;
    let search_ms: Vec<f64> = (0..5)
        .map(|_| time_us(|| lyresplit_for_budget(&tree, gamma, EdgePick::BalancedVersions)).1 / 1e3)
        .collect();
    out.put("partition.lyresplit_ms", median(&search_ms), "ms");

    let optimize: Request = Optimize::cvd(CVD).gamma(GAMMA).mu(MU).into();
    let (resp, us) = time_us(|| stack.client.execute(optimize.clone()));
    let Response::Optimized { report, .. } = resp.map_err(|e| e.to_string())? else {
        return Err("optimize: unexpected response".into());
    };
    out.put("partition_store.optimize_s", us / 1e6, "s");
    out.put_noted(
        "partition_store.apply_ms",
        us / 1e3 - median(&search_ms),
        "ms",
        "optimize_s minus partition.lyresplit_ms: building the layout".into(),
    );
    out.put(
        "partition.num_partitions",
        report.num_partitions as f64,
        "count",
    );
    out.put("partition.cavg_records", report.cavg, "count");
    out.put(
        "partition.storage_records",
        report.storage_records as f64,
        "count",
    );
    let mean_version = tree.records.iter().sum::<u64>() as f64 / tree.num_versions() as f64;
    out.put_noted(
        "model.rows_read_per_row_returned",
        report.cavg / mean_version,
        "count",
        "partitioned: records in a version's partition per record of the version".into(),
    );

    // The ladder's ops once more, on the partitioned layout, as depth 3:
    // its hop over `db` is what partitioning adds or saves.
    bus_rung(
        &mut stack,
        (3, "partition_store"),
        load,
        ops,
        log,
        out,
        None,
    )?;
    let db_checkout = durations(&log.spans, Kind::Checkout, 2);
    let part_checkout = durations(&log.spans, Kind::Checkout, 3);
    out.put_noted(
        "partition_store.checkout_speedup_x",
        median(&db_checkout) / median(&part_checkout),
        "count",
        format!(
            "unpartitioned p50 {:.1} us / partitioned",
            median(&db_checkout)
        ),
    );
    out.put(
        "partition_store.on_commit_hop_us",
        median(&hops(&log.spans, Kind::Commit, 3).0),
        "us",
    );

    // Where the commits above left the layout, against a fresh search.
    let (plan_ms, saving) = stack.with_db(|odb| -> Result<(f64, f64), String> {
        let cvd = odb.cvd(CVD).map_err(|e| e.to_string())?;
        let state = cvd.partition.as_ref().ok_or("not partitioned")?;
        let (tree, bip) = (cvd.version_tree(), cvd.bipartite());
        let gamma = (GAMMA * tree.total_records() as f64) as u64;
        let (fresh, _) = lyresplit_for_budget(&tree, gamma, EdgePick::BalancedVersions);
        let old = state.partitioning();
        let (plan, us) = time_us(|| plan_migration(&bip, Some(&tree), &old, &fresh.partitioning));
        let naive = plan_naive(&bip, &old, &fresh.partitioning);
        let saving = naive.total_modifications() as f64 / plan.total_modifications().max(1) as f64;
        Ok((us / 1e3, saving))
    })?;
    out.put("partition.plan_migration_ms", plan_ms, "ms");
    out.put_noted(
        "partition.migration_saving_x",
        saving,
        "count",
        "record modifications: drop-and-rebuild / planned migration".into(),
    );
    // Last on this stack: a failed migration leaves the layout torn.
    let (resp, us) = time_us(|| stack.client.execute(optimize));
    match resp {
        Ok(_) => out.put("partition_store.reoptimize_s", us / 1e6, "s"),
        Err(e) => out.known_defects.push(format!(
            "second Optimize after {} online commits failed, partition_store.reoptimize_s reads 0: {e}",
            ops.commits.len()
        )),
    }

    // The online maintainer alone, fed the loaded tree one version at a time.
    let mut online = OnlineMaintainer::new(
        OnlineConfig {
            gamma_factor: GAMMA,
            mu: MU,
            ..OnlineConfig::default()
        },
        tree.records[0],
    );
    let mut online_us = Vec::new();
    for v in 1..tree.num_versions() {
        let parent = tree.parent[v].ok_or("loaded tree has a second root")?;
        let (outcome, us) =
            time_us(|| online.commit(parent, tree.weight_to_parent[v], tree.records[v]));
        online_us.push(us);
        if let Some(target) = &outcome.migration_target {
            online.apply_migration(target);
        }
    }
    out.put("partition.online_commit_us", median(&online_us), "us");
    stack.close();
    Ok(())
}

// -- the traced run --------------------------------------------------------------

pub fn run(workload: &str, ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    for (name, unit, _) in metrics::per_layer() {
        out.put(&name, 0.0, unit);
    }
    let scale = if ctx.smoke { 1.0 } else { ctx.seconds };
    let checkouts = (12.0 * scale) as usize;
    // The durable workload is about commits: give its ladder enough of
    // them for a tail.
    let commits = ((if workload == "commit_durable" {
        14.0
    } else {
        4.0
    }) * scale) as usize;
    let load = match workload {
        "partitioned_read" => workloads::load_p(ctx, commits),
        "mixed_served" => workloads::load_served(ctx),
        _ => workloads::load_h(ctx, commits),
    };
    let ops = LadderOps::new(&load, ctx.seed, checkouts, commits);
    let loaded = workloads::load_prefix(&load)?;

    let mut log = SpanLog::new();
    let rungs = rungs_for(workload);
    below_rungs(&load, &loaded, &ops, &mut log, &mut out)?;
    let mut top = TopRung::default();
    let mut top_stack = None;
    for (i, depth) in BUS_RUNGS.iter().enumerate().take(rungs - 2) {
        let is_top = i + 3 == rungs;
        let mut stack = Stack::build(*depth, loaded.clone_db(), &ctx.scratch)?;
        bus_rung(
            &mut stack,
            (i as u8 + 2, metrics::LADDER[i + 2]),
            &load,
            &ops,
            &mut log,
            &mut out,
            is_top.then_some(&mut top),
        )?;
        if is_top {
            top_stack = Some(stack);
        } else {
            stack.close();
        }
    }
    let top_stack = top_stack.ok_or("ladder has a top rung")?;
    put_ladder(&mut out, &log.spans, rungs);

    let traced = durations(&log.spans, Kind::Checkout, rungs as u8 - 1);
    let (with, without) = (median(&traced), median(&top.untraced_checkout_us));
    out.put_noted(
        "trace_overhead_pct",
        100.0 * (with - without) / without,
        "%",
        format!("top-rung checkout p50 {with:.1} us traced, {without:.1} us untraced"),
    );

    spec_counts_probe(&mut out, &loaded, &ops)?;
    match workload {
        "read_inproc" => {
            top_stack.close();
            model_kinds_probe(&mut out, ctx)?;
        }
        "commit_durable" => {
            codec_probe(&mut out, &top.pairs)?;
            wal_probe(&mut out, top_stack, &top, &log.spans)?;
        }
        "mixed_served" => {
            codec_probe(&mut out, &top.pairs)?;
            let mut net = top_stack;
            let sample = &ops.checkouts[..ops.checkouts.len().min(64)];
            out.put_noted(
                "batch.remote_speedup_x",
                batch_speedup(&mut net.client, sample)?,
                "count",
                "one by one / batches of 16, over loopback".into(),
            );
            net.close();
            let mut inproc = Client::Db(Box::new(loaded.clone_db()));
            out.put_noted(
                "batch.inproc_speedup_x",
                batch_speedup(&mut inproc, sample)?,
                "count",
                "one by one / batches of 16, in process".into(),
            );
            served_probe(&mut out, &load, &loaded, ctx)?;
        }
        "partitioned_read" => {
            top_stack.close();
            partition_probe(&mut out, &load, &loaded, &ops, &mut log, ctx)?;
        }
        other => return Err(format!("unknown workload {other:?}")),
    }

    let path = ctx
        .scratch
        .parent()
        .unwrap_or(&ctx.scratch)
        .join(format!("trace-{workload}.jsonl"));
    log.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, op: u32, depth: u8, start_ns: u64, end_ns: u64, allocs: u64) -> Span {
        Span {
            layer: "x",
            kind,
            op,
            depth,
            start_ns,
            end_ns,
            allocs,
        }
    }

    #[test]
    fn hops_pair_spans_by_op_id_not_by_position() {
        let spans = vec![
            // depth 0, recorded in op order 0, 1, 2
            span(Kind::Checkout, 0, 0, 0, 10_000, 5),
            span(Kind::Checkout, 1, 0, 0, 20_000, 6),
            span(Kind::Checkout, 2, 0, 0, 30_000, 7),
            // depth 1, recorded in another order, op 1 missing, op 9 unpaired
            span(Kind::Checkout, 2, 1, 0, 37_000, 17),
            span(Kind::Checkout, 0, 1, 0, 11_000, 6),
            span(Kind::Checkout, 9, 1, 0, 99_000, 1),
            // a commit sharing op id 0 must not pair with a checkout
            span(Kind::Commit, 0, 0, 0, 500_000, 1),
        ];
        let (us, allocs) = hops(&spans, Kind::Checkout, 1);
        assert_eq!(us, vec![7.0, 1.0]);
        assert_eq!(allocs, vec![10.0, 1.0]);
        let (us, _) = hops(&spans, Kind::Checkout, 0);
        assert_eq!(us, vec![10.0, 20.0, 30.0]);
        let (us, _) = hops(&spans, Kind::Commit, 0);
        assert_eq!(us, vec![500.0]);
    }
}

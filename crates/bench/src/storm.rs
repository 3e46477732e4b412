//! The concurrent gate: what [`crate::differential`] proves for one
//! sequential client, proved for many concurrent ones.
//!
//! N client threads each drive their own [`clustered_storm`] stream
//! through their own session, async handle or socket on one served stack
//! — every arm of the differential gate that has one — once request by
//! request ([`Mode::Execute`]) and once as a single [`Executor::batch`]
//! call per client ([`Mode::Batch`]). A cell passes iff it ends in the
//! same [`Outcome`] as a sequential in-process run of the same streams:
//! the same commits per CVD, the same staged artifacts left behind. Clients
//! race, so version ids are whatever arrival order made them; an
//! [`Outcome`] leaves them out, and every commit of the storm is parented
//! at version 1 with a message unique to its (client, round), which makes
//! the comparison exact. The WAL arm is compared after its directory is
//! dropped and reopened, so what it proves is that concurrent commits are
//! *durable* in the same graph.
//!
//! Nothing here is timed against a floor: whether a stack got faster or
//! slower is `perf_ledger compare`'s question.

use std::sync::Barrier;
use std::time::Instant;

use orpheus_core::{Executor, Init, ModelKind, OrpheusDB, Request};
use orpheus_engine::Value;
use orpheus_net::RemoteExecutor;

use crate::datasets::StormShape;
use crate::differential::{with_client, Arm, Stack};
use crate::harness::{clustered_storm, drive, drive_batched};
use crate::loader::bench_schema;

/// Data columns of the storm's CVDs.
const ATTRS: usize = 4;

/// How a client submits its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `execute` per request.
    Execute,
    /// The whole stream as one `batch` call (one frame on the remote arm,
    /// one pipelined submission on the async arm).
    Batch,
}

impl Mode {
    pub const ALL: [Mode; 2] = [Mode::Execute, Mode::Batch];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Execute => "execute",
            Mode::Batch => "batch",
        }
    }
}

/// Configuration of one run of the gate.
#[derive(Debug, Clone)]
pub struct StormConfig {
    pub shape: StormShape,
    /// Arms to run; the in-process arm is the reference and is skipped.
    pub arms: Vec<Arm>,
    /// Tier label for reproduction messages ("smoke", "ci", "paper").
    pub label: String,
}

/// One (arm, mode) cell that matched the reference.
#[derive(Debug, Clone)]
pub struct CellStats {
    pub arm: &'static str,
    pub mode: &'static str,
    /// Requests executed across all clients.
    pub requests: usize,
    pub elapsed_s: f64,
}

/// One committed version without its id: (parents, record count, message).
pub type VersionKey = (Vec<u64>, u64, String);

/// Where an instance ended up, minus everything arrival order decides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Sorted (CVD, version) of every committed version — a multiset.
    pub versions: Vec<(String, VersionKey)>,
    /// Sorted (CVD, name) of every artifact still staged.
    pub staged: Vec<(String, String)>,
}

impl Outcome {
    pub fn of(odb: &OrpheusDB) -> Outcome {
        Outcome {
            versions: Outcome::versions_of(odb),
            staged: Outcome::staged_of(odb),
        }
    }

    fn versions_of(odb: &OrpheusDB) -> Vec<(String, VersionKey)> {
        let mut versions = Vec::new();
        for cvd in odb.ls() {
            for e in odb.log_entries(&cvd).expect("listed CVDs have histories") {
                let parents = e.parents.iter().map(|p| p.0).collect();
                versions.push((cvd.clone(), (parents, e.num_records, e.message)));
            }
        }
        versions.sort();
        versions
    }

    fn staged_of(odb: &OrpheusDB) -> Vec<(String, String)> {
        let mut staged: Vec<(String, String)> = odb
            .staged()
            .into_iter()
            .map(|e| (e.cvd.clone(), e.name.clone()))
            .collect();
        staged.sort();
        staged
    }
}

/// Elements of sorted `a` that sorted `b` lacks, counting repeats.
fn surplus<T: Ord + Clone>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::new();
    let mut b = b.iter().peekable();
    for x in a {
        while b.next_if(|y| *y < x).is_some() {}
        if b.next_if(|y| *y == x).is_none() {
            out.push(x.clone());
        }
    }
    out
}

/// Gate one cell: `got` must equal the reference outcome `want`. The error
/// names the arm, the mode and the first CVD that differs, and carries a
/// reproduction line.
pub fn compare(
    arm: &str,
    mode: Mode,
    label: &str,
    got: &Outcome,
    want: &Outcome,
) -> Result<(), String> {
    let fail = |msg: String| {
        format!(
            "[storm:{arm}/{mode}] {msg}\n  reproduce: ORPHEUS_SCALE={label} \
             ORPHEUS_EXPERIMENTS=storm ORPHEUS_DIFF_ARMS={arm} ORPHEUS_TRIALS=1 \
             cargo run --release -p orpheus-bench --bin all_experiments",
            mode = mode.name()
        )
    };
    let lost = surplus(&want.versions, &got.versions);
    let unexpected = surplus(&got.versions, &want.versions);
    if let Some((cvd, _)) = lost.first().or(unexpected.first()) {
        return Err(fail(format!(
            "CVD {cvd}: version graph differs from the sequential reference, as \
             (CVD, (parents, records, message)): lost {lost:?}, unexpected {unexpected:?}"
        )));
    }
    let missing = surplus(&want.staged, &got.staged);
    let leaked = surplus(&got.staged, &want.staged);
    if let Some((cvd, _)) = leaked.first().or(missing.first()) {
        return Err(fail(format!(
            "CVD {cvd}: staged leftovers differ from the sequential reference, as \
             (CVD, name): leaked {leaked:?}, missing {missing:?}"
        )));
    }
    Ok(())
}

/// One stream per client; client `t` works on CVD `t % cvds`.
pub fn streams(shape: &StormShape) -> Vec<Vec<Request>> {
    (0..shape.clients)
        .map(|t| {
            let cvd = format!("cvd{}", t % shape.cvds);
            clustered_storm(&cvd, t, shape.ops, shape.cluster)
        })
        .collect()
}

/// Create the storm's CVDs through the bus — the one loading path every
/// arm, the WAL-logged one included, supports.
fn seed<E: Executor>(exec: &mut E, shape: &StormShape) -> Result<(), String> {
    for c in 0..shape.cvds {
        let rows = (0..shape.records)
            .map(|r| {
                (0..ATTRS)
                    .map(|a| Value::Int((r * ATTRS + a) as i64))
                    .collect()
            })
            .collect();
        let init = Init::cvd(format!("cvd{c}"))
            .schema(bench_schema(ATTRS))
            .rows(rows)
            .model(ModelKind::SplitByRlist);
        exec.execute(init.into())
            .map_err(|e| format!("init cvd{c}: {e}"))?;
    }
    Ok(())
}

fn submit<E: Executor>(exec: &mut E, stream: Vec<Request>, mode: Mode) -> Result<usize, String> {
    let stats = match mode {
        Mode::Execute => drive(exec, stream),
        Mode::Batch => drive_batched(exec, stream),
    };
    stats.map(|s| s.requests()).map_err(|e| e.to_string())
}

/// The reference: `streams` one after the other through one in-process
/// `OrpheusDB`. Any order of the streams gives the same [`Outcome`].
pub fn run_sequential(shape: &StormShape, streams: Vec<Vec<Request>>) -> Result<Outcome, String> {
    let mut odb = OrpheusDB::new();
    seed(&mut odb, shape)?;
    for stream in streams {
        submit(&mut odb, stream, Mode::Execute)?;
    }
    Ok(Outcome::of(&odb))
}

/// One cell: every client on its own thread against one fresh stack of
/// `arm`. Returns where the instance ended up and what it took.
fn run_cell(arm: Arm, mode: Mode, cfg: &StormConfig) -> Result<(Outcome, CellStats), String> {
    let shape = &cfg.shape;
    let stack = Stack::open(arm, &format!("storm-{}-{}", cfg.label, mode.name()))?;
    with_client!(&stack, "storm_setup", |exec| seed(&mut exec, shape))??;

    // The barrier comes before a client even opens its connection: a
    // client that fails to open cannot strand the others at it, and
    // concurrent handshakes are part of the storm.
    let go = Barrier::new(shape.clients);
    let start = Instant::now();
    let per_client: Vec<Result<usize, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = streams(shape)
            .into_iter()
            .enumerate()
            .map(|(t, stream)| {
                let (stack, go) = (&stack, &go);
                scope.spawn(move || {
                    go.wait();
                    with_client!(stack, &format!("user{t}"), |exec| submit(
                        &mut exec, stream, mode
                    ))
                    .and_then(|sent| sent)
                    .map_err(|e| format!("client {t}: {e}"))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut requests = 0;
    for sent in per_client {
        requests += sent?;
    }

    // Staged artifacts are snapshot-durable only — the WAL logs the
    // version graph — so leftovers are read off the live instance and the
    // graph off whatever `reopened` hands back (for the WAL arm, what the
    // log alone reproduces).
    let staged = stack.shared().read(Outcome::staged_of);
    let stack = stack.reopened()?;
    let versions = stack.shared().read(Outcome::versions_of);
    stack.close();
    let stats = CellStats {
        arm: arm.name(),
        mode: mode.name(),
        requests,
        elapsed_s,
    };
    Ok((Outcome { versions, staged }, stats))
}

/// Run every configured arm in both modes; returns the cells' figures, or
/// the first cell that did not end where the sequential reference did.
pub fn run_storm(cfg: &StormConfig) -> Result<Vec<CellStats>, String> {
    let reference = run_sequential(&cfg.shape, streams(&cfg.shape))
        .map_err(|e| format!("[storm:reference] {e}"))?;
    let mut cells = Vec::new();
    for &arm in cfg.arms.iter().filter(|&&a| a != Arm::InProcess) {
        for mode in Mode::ALL {
            let (outcome, stats) = run_cell(arm, mode, cfg)
                .map_err(|e| format!("[storm:{}/{}] {e}", arm.name(), mode.name()))?;
            compare(arm.name(), mode, &cfg.label, &outcome, &reference)?;
            eprintln!(
                "[storm] {}/{}: equal to the reference ({} requests, {:.2}s)",
                stats.arm, stats.mode, stats.requests, stats.elapsed_s
            );
            cells.push(stats);
        }
    }
    Ok(cells)
}

//! The crash-recovery gate: a real multi-process fault-injection run.
//! The parent seeds a WAL directory (one CVD per client, created through
//! the logged catalog path), re-execs itself as a **server** process
//! serving that directory over TCP, and as N **client** processes each
//! driving a deterministic checkout → commit stream against its own CVD.
//! Then it kills the server — either externally (`SIGKILL` after a
//! trial-dependent delay) or from the inside, by arming one of the WAL's
//! `ORPHEUS_WAL_KILL` hook points (`pre-append`, `torn-append`,
//! `post-append`, `pre-snapshot`, `pre-current`, `post-current`), which
//! abort the process at the exact boundary they name. A tiny
//! `ORPHEUS_CHECKPOINT_BYTES` plus an aggressive in-server checkpoint
//! ticker makes log rotation happen *during* the storm, so the
//! checkpoint-side kill points actually fire.
//!
//! After the kill the parent reopens the WAL directory in-process via
//! [`orpheus_core::recovery::open`] and verifies, per CVD, that the
//! recovered version graph and rlists are **bit-for-bit** equal
//! (`VersionMeta` and rid lists compare with `==`, modulo the logical
//! clock fields — see `cvd_state`) to a reference built by replaying
//! that client's acknowledged request prefix through a fresh instance.
//! Each client runs one synchronous connection, so at
//! most one request per client was in flight at the kill; the recovered
//! state may legally contain that one extra (logged-but-unacked)
//! request, and nothing else. Any other divergence fails the trial, and
//! the failing WAL directory is copied to `target/crash-artifacts/` for
//! postmortem before the bin exits non-zero.
//!
//! Staged checkouts are deliberately *not* compared: the WAL logs
//! version-graph mutations, and staging areas are snapshot-durable only
//! (see the `wal` module docs).
//!
//! Knobs (all environment variables):
//! * `ORPHEUS_CRASH_ROUNDS` (default 1) — rounds over the kill matrix.
//! * `ORPHEUS_CRASH_CLIENTS` (default 3) — client processes (= CVDs).
//! * `ORPHEUS_CRASH_OPS` (default 12) — checkout → commit rounds each.
//! * `ORPHEUS_CRASH_RECORDS` (default 40) — records per seeded CVD.
//!
//! Run with `cargo run --release -p orpheus-bench --bin crash_storm`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use orpheus_bench::harness::{contention_storm, env_usize, write_bench_json, JsonObject};
use orpheus_bench::loader::bench_schema;
use orpheus_core::cvd::VersionMeta;
use orpheus_core::request::{Executor, Init, Request};
use orpheus_core::{recovery, CoreError, ModelKind, OrpheusDB, Result, SharedOrpheusDB};
use orpheus_engine::Value;
use orpheus_net::{NetServer, RemoteExecutor};

/// The kill matrix: how the server dies in each trial of a round.
/// `external` is a parent-side `SIGKILL` at an arbitrary delay; the rest
/// arm the named in-process hook point (see `orpheus_core::wal`).
const KILL_POINTS: &[&str] = &[
    "external",
    "pre-append",
    "torn-append",
    "post-append",
    "pre-snapshot",
    "pre-current",
    "post-current",
];

fn seed_rows(records: usize, cvd_index: usize) -> Vec<Vec<Value>> {
    (0..records)
        .map(|r| {
            vec![
                Value::Int(r as i64),
                Value::Int((r as i64) * 2),
                Value::Int((r as i64) % 7),
                Value::Int(cvd_index as i64),
            ]
        })
        .collect()
}

fn seed_requests(clients: usize, records: usize) -> Vec<Request> {
    (0..clients)
        .map(|i| {
            Init::cvd(format!("cvd{i}"))
                .schema(bench_schema(4))
                .rows(seed_rows(records, i))
                .model(ModelKind::SplitByRlist)
                .into()
        })
        .collect()
}

/// The comparable slice of one CVD: its version graph and its rlists.
///
/// `checkout_t`/`commit_t` are zeroed before comparing: those logical
/// clock values legitimately depend on when checkpoints quiesced the
/// instance (a quiesce merges per-shard clocks to the global max), which
/// the reference cannot predict. Exact-clock replay fidelity is covered
/// by the in-process recovery tests, where the live pre-kill instance is
/// observable; this gate checks the durable contract — structure,
/// parents, messages, record counts, and rid lists, bit for bit.
type CvdState = (Vec<VersionMeta>, Vec<Vec<i64>>);

fn cvd_state(odb: &OrpheusDB, name: &str) -> Result<CvdState> {
    let cvd = odb.cvd(name)?;
    let versions = cvd
        .versions
        .iter()
        .map(|m| {
            let mut m = VersionMeta::clone(m);
            m.checkout_t = None;
            m.commit_t = 0;
            m
        })
        .collect();
    Ok((
        versions,
        cvd.version_rids.iter().map(|r| (**r).clone()).collect(),
    ))
}

fn main() {
    if std::env::var("ORPHEUS_CRASH_ROLE").as_deref() == Ok("server") {
        if let Err(e) = server_main() {
            eprintln!("crash_storm server failed: {e}");
            std::process::exit(2);
        }
        return;
    }
    if std::env::var("ORPHEUS_CRASH_ROLE").as_deref() == Ok("client") {
        client_main();
        return;
    }
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("crash_storm failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The victim: serve the WAL directory until killed. A fast checkpoint
/// ticker (the threshold comes from `ORPHEUS_CHECKPOINT_BYTES`, set tiny
/// by the parent) keeps log rotation happening mid-storm so the
/// checkpoint kill points get crossed.
fn server_main() -> Result<()> {
    let dir = std::env::var("ORPHEUS_CRASH_DIR")
        .map_err(|_| CoreError::Io("ORPHEUS_CRASH_DIR not set".to_string()))?;
    let shared = recovery::open_shared(Path::new(&dir))?;
    let server = NetServer::bind("127.0.0.1:0", shared.clone())?;
    println!("addr {}", server.local_addr());
    {
        use std::io::Write as _;
        std::io::stdout().flush().ok();
    }
    let ticker = shared.clone();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(15));
        let _ = recovery::maybe_checkpoint_shared(&ticker);
    });
    // Killed by the parent (or by an armed hook point); never exits.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// One synchronous connection driving one CVD. Reports how many requests
/// were **acknowledged** before the server died; at most one more can be
/// in flight. Output protocol: an optional
/// `retry <reconnects> <replayed> <overload_retries>` line, then a single
/// `acked <n>` line.
fn client_main() {
    let addr = std::env::var("ORPHEUS_CRASH_ADDR").expect("client needs ORPHEUS_CRASH_ADDR");
    let index = env_usize("ORPHEUS_CRASH_CLIENT", 0);
    let ops = env_usize("ORPHEUS_CRASH_OPS", 12).max(1);
    let mut acked = 0usize;
    if let Ok(mut remote) = RemoteExecutor::connect(addr.as_str(), &format!("user{index}")) {
        for request in contention_storm(&format!("cvd{index}"), index, ops) {
            match remote.execute(request) {
                Ok(_) => acked += 1,
                // The expected death: the server was killed under us (the
                // retry policy already burned through its reconnect budget
                // against a permanently-dead address).
                Err(_) => break,
            }
        }
        let rs = remote.retry_stats();
        println!(
            "retry {} {} {}",
            rs.reconnects, rs.replayed, rs.overload_retries
        );
    }
    println!("acked {acked}");
}

/// Recursive copy for failure artifacts.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dst)?;
        } else {
            std::fs::copy(entry.path(), &dst)?;
        }
    }
    Ok(())
}

/// Counters one trial reports back, aggregated into `BENCH_crash.json` —
/// mostly evidence of how hard the clients fought the dying server.
#[derive(Default)]
struct TrialCounters {
    acked: u64,
    reconnects: u64,
    replayed: u64,
    overload_retries: u64,
}

struct Trial {
    round: usize,
    kill: &'static str,
    /// Hook countdown (`ORPHEUS_WAL_KILL=<point>:<n>`), hook trials only.
    countdown: usize,
    /// External-kill delay, external trials only.
    delay_ms: u64,
}

/// Wait for the server to die on its own (hook trials), then reap it —
/// killing it if the hook never fired, which is still a valid trial:
/// recovery must then reproduce the *entire* acknowledged stream.
fn reap_server(mut server: Child, grace: Duration) -> Result<()> {
    let t0 = Instant::now();
    loop {
        match server.try_wait() {
            Ok(Some(_)) => return Ok(()),
            Ok(None) if t0.elapsed() >= grace => {
                let _ = server.kill();
                let _ = server.wait();
                return Ok(());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => return Err(CoreError::Io(format!("cannot reap server: {e}"))),
        }
    }
}

fn run_trial(
    trial: &Trial,
    clients: usize,
    ops: usize,
    records: usize,
) -> Result<(Vec<String>, TrialCounters)> {
    let exe = std::env::current_exe()
        .map_err(|e| CoreError::Io(format!("cannot locate the bench binary: {e}")))?;
    let dir = std::env::temp_dir().join(format!(
        "orpheus-crashstorm-{}-{}-{}",
        std::process::id(),
        trial.round,
        trial.kill
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Seed through the logged catalog path, then close: the server
    // process reopens the directory the way any restart would.
    let seeds = seed_requests(clients, records);
    {
        let shared = recovery::open_shared(&dir)?;
        let mut admin = shared.session("admin")?;
        for request in seeds.clone() {
            admin.execute(request)?;
        }
    }

    let mut server = Command::new(&exe)
        .env("ORPHEUS_CRASH_ROLE", "server")
        .env("ORPHEUS_CRASH_DIR", &dir)
        // Tiny threshold: every few commits outgrow it, so the ticker
        // rotates the log repeatedly while the storm runs.
        .env("ORPHEUS_CHECKPOINT_BYTES", "2048")
        .envs((trial.kill != "external").then(|| {
            (
                "ORPHEUS_WAL_KILL",
                format!("{}:{}", trial.kill, trial.countdown),
            )
        }))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| CoreError::Io(format!("cannot spawn server: {e}")))?;
    let mut server_out = BufReader::new(server.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    server_out
        .read_line(&mut line)
        .map_err(|e| CoreError::Io(format!("server reported no address: {e}")))?;
    let addr = line
        .strip_prefix("addr ")
        .ok_or_else(|| CoreError::Network(format!("bad server banner: {line:?}")))?
        .trim()
        .to_string();

    let children = (0..clients)
        .map(|i| {
            Command::new(&exe)
                .env("ORPHEUS_CRASH_ROLE", "client")
                .env("ORPHEUS_CRASH_ADDR", &addr)
                .env("ORPHEUS_CRASH_CLIENT", i.to_string())
                .env("ORPHEUS_CRASH_OPS", ops.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| CoreError::Io(format!("cannot spawn client: {e}")))
        })
        .collect::<Result<Vec<_>>>()?;

    if trial.kill == "external" {
        std::thread::sleep(Duration::from_millis(trial.delay_ms));
        let _ = server.kill();
        let _ = server.wait();
    }

    let mut acked = vec![0usize; clients];
    let mut counters = TrialCounters::default();
    for (i, child) in children.into_iter().enumerate() {
        let output = child
            .wait_with_output()
            .map_err(|e| CoreError::Io(format!("client did not finish: {e}")))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let n = stdout
            .lines()
            .find_map(|l| l.strip_prefix("acked "))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .ok_or_else(|| CoreError::Network(format!("client {i} reported no ack count")))?;
        acked[i] = n;
        counters.acked += n as u64;
        if let Some(rest) = stdout.lines().find_map(|l| l.strip_prefix("retry ")) {
            let mut parts = rest.split_whitespace();
            let mut next = || {
                parts
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0)
            };
            counters.reconnects += next();
            counters.replayed += next();
            counters.overload_retries += next();
        }
    }
    if trial.kill != "external" {
        reap_server(server, Duration::from_secs(3))?;
    }

    // -- verification -------------------------------------------------------
    // Reopen the WAL directory the way a restart would, then check each
    // CVD against a reference built from that client's acked prefix
    // (plus, optionally, the single op that may have been in flight).
    let recovered = recovery::open(&dir)?;
    let reference = SharedOrpheusDB::new(OrpheusDB::new());
    {
        let mut admin = reference.session("admin")?;
        for request in seeds {
            admin.execute(request)?;
        }
    }
    let mut failures = Vec::new();
    for (i, &k) in acked.iter().enumerate() {
        let name = format!("cvd{i}");
        let stream = contention_storm(&name, i, ops);
        let mut session = reference.session(&format!("user{i}"))?;
        for request in stream.iter().take(k).cloned() {
            session.execute(request)?;
        }
        let got = cvd_state(&recovered, &name)?;
        let at_prefix = reference.read(|odb| cvd_state(odb, &name))?;
        if got == at_prefix {
            continue;
        }
        // The one legal divergence: the in-flight request was logged
        // (fsync'd) but its ack never reached the client.
        if let Some(in_flight) = stream.get(k) {
            session.execute(in_flight.clone())?;
            let with_in_flight = reference.read(|odb| cvd_state(odb, &name))?;
            if got == with_in_flight {
                continue;
            }
        }
        let first_diff = got
            .0
            .iter()
            .zip(at_prefix.0.iter())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(v, (a, b))| format!("first differing version v{}: {a:?} vs {b:?}", v + 1))
            .or_else(|| {
                got.1
                    .iter()
                    .zip(at_prefix.1.iter())
                    .enumerate()
                    .find(|(_, (a, b))| a != b)
                    .map(|(v, _)| format!("rlists differ at v{}", v + 1))
            })
            .unwrap_or_else(|| "version count differs".to_string());
        failures.push(format!(
            "{name}: recovered state diverges from the acked prefix ({k} acked): \
             {} recovered version(s) vs {} reference version(s); {first_diff}",
            got.0.len(),
            at_prefix.0.len(),
        ));
    }

    if failures.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        let artifacts = PathBuf::from("target/crash-artifacts")
            .join(format!("round{}-{}", trial.round, trial.kill));
        if let Err(e) = copy_dir(&dir, &artifacts) {
            eprintln!("warning: could not save failure artifact: {e}");
        } else {
            eprintln!("saved failing WAL dir to {}", artifacts.display());
        }
    }
    Ok((failures, counters))
}

fn run() -> Result<bool> {
    let rounds = env_usize("ORPHEUS_CRASH_ROUNDS", 1).max(1);
    let clients = env_usize("ORPHEUS_CRASH_CLIENTS", 3).max(1);
    let ops = env_usize("ORPHEUS_CRASH_OPS", 12).max(1);
    let records = env_usize("ORPHEUS_CRASH_RECORDS", 40).max(1);

    let mut ok = true;
    let mut trials = 0usize;
    let mut totals = TrialCounters::default();
    for round in 0..rounds {
        for (p, &kill) in KILL_POINTS.iter().enumerate() {
            // Spread the kill across the storm: vary the hook countdown
            // and the external delay per (round, point) without needing a
            // random source — determinism here means a failing matrix
            // cell reproduces.
            let trial = Trial {
                round,
                kill,
                countdown: 1 + (round * KILL_POINTS.len() + p * 5) % (clients * ops),
                delay_ms: 20 + ((round * 7 + p * 13) % 10) as u64 * 15,
            };
            trials += 1;
            let (failures, counters) = run_trial(&trial, clients, ops, records)?;
            if failures.is_empty() {
                println!(
                    "trial {kill} (round {round}): ok ({} acked)",
                    counters.acked
                );
            } else {
                ok = false;
                for f in &failures {
                    eprintln!("trial {kill} (round {round}): GATE: {f}");
                }
            }
            totals.acked += counters.acked;
            totals.reconnects += counters.reconnects;
            totals.replayed += counters.replayed;
            totals.overload_retries += counters.overload_retries;
        }
    }
    println!(
        "crash_storm: {trials} trial(s), {clients} client(s) x {ops} rounds, {records} \
         records/CVD"
    );

    let json = JsonObject::new()
        .str("bench", "crash_storm")
        .int("trials", trials as u64)
        .int("clients", clients as u64)
        .int("ops_per_client", ops as u64)
        .int("records_per_cvd", records as u64)
        .int("acked_commits", totals.acked)
        .int("client_reconnects", totals.reconnects)
        .int("client_replayed", totals.replayed)
        .int("client_overload_retries", totals.overload_retries)
        .int("gate_ok", ok as u64);
    let path = write_bench_json("crash", json)?;
    println!("wrote {path}");

    if !ok {
        eprintln!("crash_storm recovery gate FAILED");
    }
    Ok(ok)
}

//! The chaos gate: the full fault-tolerant service stack under
//! simultaneous packet loss, load shedding, and disk faults. The parent
//! seeds a WAL directory (one CVD per client), re-execs itself as a
//! **server** process serving that directory, puts a frame-aware
//! [`FlakyProxy`] in front of it, and re-execs N **client** processes
//! that drive checkout → commit rounds *through the proxy* while it
//! severs connections in the lost-ACK window — the exact spot where a
//! naive client double-commits and a naive server loses acked work.
//!
//! The trial matrix exercises each resilience layer:
//! * `drops` — connection cuts only: reconnect + session resume +
//!   idempotent replay carry every commit through exactly once;
//! * `overload` — a tiny queue-depth cap plus no cuts: every shed
//!   surfaces as typed retryable [`CoreError::Overloaded`] and the
//!   client backoff grinds the storm through anyway;
//! * `append-fault` — `ORPHEUS_WAL_FAULT=append:<k>` degrades the WAL
//!   mid-storm (cuts also active); clients observe typed
//!   [`CoreError::Degraded`] refusals, the parent drives the documented
//!   operator recovery (`recover` on the server's stdin → checkpoint),
//!   and the storm resumes;
//! * `fsync-fault` — the same with the failure *after* the bytes landed,
//!   so the triggering commit is legally recoverable-but-unacked.
//!
//! After each trial the parent reopens the WAL directory via
//! [`recovery::open`] and gates on the at-most-once contract:
//! **no duplicate commits** (every commit message at most once), **no
//! lost acked commits** (every acked message recovered), **no phantom
//! commits** (extras only from attempts whose ACK window was severed or
//! whose outcome a disk fault made unknowable), and **bit-for-bit graph
//! equality** (zeroed logical clocks) against an in-process replay of
//! exactly the recovered commit sequence. Client-observed refusals must
//! all be typed retryable errors; anything else fails the trial. Failing
//! WAL directories and client/proxy logs are copied to
//! `target/chaos-artifacts/` before the bin exits non-zero.
//!
//! Emits `BENCH_chaos.json` with the retry/shed/dedup counters from both
//! sides of the wire.
//!
//! Knobs (all environment variables):
//! * `ORPHEUS_TRIALS` (default 3) — rounds over the trial matrix.
//! * `ORPHEUS_CHAOS_CLIENTS` (default 3) — client processes (= CVDs).
//! * `ORPHEUS_CHAOS_OPS` (default 6) — checkout → commit rounds each.
//! * `ORPHEUS_CHAOS_RECORDS` (default 24) — records per seeded CVD.
//!
//! Run with `cargo run --release -p orpheus-bench --bin chaos_storm`.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use orpheus_bench::harness::{env_usize, trials, write_bench_json, JsonObject};
use orpheus_bench::loader::bench_schema;
use orpheus_core::cvd::VersionMeta;
use orpheus_core::request::{Checkout, Commit, CreateUser, Executor, Init, Request};
use orpheus_core::{recovery, CoreError, ModelKind, OrpheusDB, Result, SharedOrpheusDB};
use orpheus_engine::Value;
use orpheus_net::{FlakyProxy, NetServer, RemoteExecutor, RetryPolicy, ServerConfig};

fn seed_rows(records: usize, cvd_index: usize) -> Vec<Vec<Value>> {
    (0..records)
        .map(|r| {
            vec![
                Value::Int(r as i64),
                Value::Int((r as i64) * 3),
                Value::Int((r as i64) % 5),
                Value::Int(cvd_index as i64),
            ]
        })
        .collect()
}

fn seed_requests(clients: usize, records: usize) -> Vec<Request> {
    (0..clients)
        .map(|i| {
            Init::cvd(format!("chaos_c{i}"))
                .schema(bench_schema(4))
                .rows(seed_rows(records, i))
                .model(ModelKind::SplitByRlist)
                .into()
        })
        .collect()
}

/// The comparable slice of one CVD (see `crash_storm`): version graph
/// and rlists, with the checkpoint-dependent logical clocks zeroed.
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
    match std::env::var("ORPHEUS_CHAOS_ROLE").as_deref() {
        Ok("server") => {
            if let Err(e) = server_main() {
                eprintln!("chaos_storm server failed: {e}");
                std::process::exit(2);
            }
        }
        Ok("client") => std::process::exit(client_main()),
        _ => match run() {
            Ok(true) => {}
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("chaos_storm failed: {e}");
                std::process::exit(1);
            }
        },
    }
}

/// The served instance: opens the WAL directory (a disk fault may be
/// armed via `ORPHEUS_WAL_FAULT`, read at attach time) and serves it
/// until stdin says `exit`. `recover` runs the documented operator path
/// out of degraded mode — an explicit checkpoint — and reports the
/// outcome. Self-protection counters go to stdout on the way out.
fn server_main() -> Result<()> {
    let dir = std::env::var("ORPHEUS_CHAOS_DIR")
        .map_err(|_| CoreError::Io("ORPHEUS_CHAOS_DIR not set".to_string()))?;
    let depth = env_usize("ORPHEUS_CHAOS_QUEUE_DEPTH", 0);
    let shared = recovery::open_shared(Path::new(&dir))?;
    let mut config = ServerConfig::default();
    if depth > 0 {
        config.max_queue_depth = depth;
    }
    let server = NetServer::bind_with("127.0.0.1:0", shared.clone(), config)?;
    println!("addr {}", server.local_addr());
    std::io::stdout().flush().ok();

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        let n = stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| CoreError::Io(format!("server stdin: {e}")))?;
        if n == 0 {
            break;
        }
        match line.trim() {
            "exit" => break,
            "recover" => {
                match recovery::checkpoint_shared(&shared) {
                    Ok(generation) => println!("recovered {generation}"),
                    Err(e) => println!("recover-failed {e}"),
                }
                std::io::stdout().flush().ok();
            }
            _ => {}
        }
    }
    let stats = server.stats();
    server.shutdown();
    println!("stat shed {}", stats.shed);
    println!("stat deduped {}", stats.deduped);
    println!("stat deadline {}", stats.deadline_exceeded);
    println!("stat refused {}", stats.refused_connections);
    Ok(())
}

/// Block until mutations are accepted again after a degraded window, by
/// probing with uniquely-named `create_user` requests (catalog
/// mutations, so they cross the WAL but never touch a CVD's graph).
fn wait_for_recovery(remote: &mut RemoteExecutor, index: usize, seq: &mut usize) {
    for _ in 0..400 {
        *seq += 1;
        let probe: Request = CreateUser::named(format!("probe_{index}_{seq}")).into();
        match remote.execute(probe) {
            Ok(_) => return,
            Err(
                CoreError::Degraded(_)
                | CoreError::Overloaded { .. }
                | CoreError::ResponseTimeout { .. }
                | CoreError::Network(_),
            ) => std::thread::sleep(Duration::from_millis(25)),
            // Anything else (e.g. "user exists" from a replayed probe)
            // proves a mutation crossed the WAL: writes are back.
            Err(_) => return,
        }
    }
}

/// One client process: checkout → commit rounds against its own CVD,
/// classifying every outcome. Output protocol (parsed by the parent):
/// `acked <msg>` / `attempted <msg>` (outcome unknowable: the error came
/// back on a severed ACK or a degraded disk) / `gaveup <msg>` /
/// `unexpected <detail>` lines, then one
/// `done <reconnects> <replayed> <overload_retries> <shed> <unexpected>`.
fn client_main() -> i32 {
    let addr = std::env::var("ORPHEUS_CHAOS_ADDR").expect("client needs ORPHEUS_CHAOS_ADDR");
    let index = env_usize("ORPHEUS_CHAOS_CLIENT", 0);
    let ops = env_usize("ORPHEUS_CHAOS_OPS", 6).max(1);
    let cvd = format!("chaos_c{index}");
    let policy = RetryPolicy {
        max_reconnects: 64,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(200),
        jitter: 0.5,
        overload_retries: 2,
    };
    let mut remote = match RemoteExecutor::connect_with_policy(
        addr.as_str(),
        &format!("user{index}"),
        Duration::from_secs(10),
        policy,
    ) {
        Ok(remote) => remote,
        Err(e) => {
            eprintln!("chaos client {index} cannot connect: {e}");
            return 2;
        }
    };

    let mut out = String::new();
    let mut shed = 0u64;
    let mut unexpected = 0u64;
    let mut probe_seq = 0usize;
    let sleep = || std::thread::sleep(Duration::from_millis(20));
    use std::fmt::Write as _;

    'rounds: for j in 0..ops {
        let table = format!("__chaos_t{index}_{j}");
        let msg = format!("c{index} r{j}");

        // Stage the checkout. Checkouts are served even in degraded mode
        // and are deduplicated by session replay, so every failure here
        // is safely retryable; a timed-out attempt that actually landed
        // surfaces as "already staged" on the retry, which is success.
        let mut staged = false;
        for _ in 0..60 {
            let checkout: Request = Checkout::of(&cvd).version(1u64).into_table(&table).into();
            match remote.execute(checkout) {
                Ok(_) => {
                    staged = true;
                    break;
                }
                Err(CoreError::Overloaded { .. }) => {
                    shed += 1;
                    sleep();
                }
                Err(
                    CoreError::Degraded(_)
                    | CoreError::ResponseTimeout { .. }
                    | CoreError::Network(_),
                ) => sleep(),
                Err(e) if e.to_string().contains("staged") => {
                    staged = true;
                    break;
                }
                Err(e) => {
                    writeln!(out, "unexpected checkout {msg}: {e}").expect("string write");
                    unexpected += 1;
                    continue 'rounds;
                }
            }
        }
        if !staged {
            writeln!(out, "gaveup {msg}").expect("string write");
            continue;
        }

        // Commit — the at-most-once-sensitive half. A shed provably never
        // executed (safe to resend); a degraded refusal or a timeout
        // leaves the outcome unknowable (the op may be the fault trigger,
        // or acked into a dead socket), so it is recorded as `attempted`
        // and never resent — the recovery gate allows exactly these as
        // recovered-but-unacked.
        let commit: Request = Commit::table(&table).message(&msg).into();
        let mut resolved = false;
        for _ in 0..60 {
            match remote.execute(commit.clone()) {
                Ok(_) => {
                    writeln!(out, "acked {msg}").expect("string write");
                    resolved = true;
                    break;
                }
                Err(e @ CoreError::Overloaded { .. }) => {
                    if !e.is_retryable() || e.retry_after_ms().is_none() {
                        writeln!(out, "unexpected shed without retry hint: {e}")
                            .expect("string write");
                        unexpected += 1;
                    }
                    shed += 1;
                    sleep();
                }
                Err(CoreError::Degraded(_)) => {
                    writeln!(out, "attempted {msg}").expect("string write");
                    resolved = true;
                    wait_for_recovery(&mut remote, index, &mut probe_seq);
                    break;
                }
                Err(CoreError::ResponseTimeout { .. } | CoreError::Network(_)) => {
                    writeln!(out, "attempted {msg}").expect("string write");
                    resolved = true;
                    break;
                }
                Err(e) => {
                    writeln!(out, "unexpected commit {msg}: {e}").expect("string write");
                    unexpected += 1;
                    resolved = true;
                    break;
                }
            }
        }
        if !resolved {
            writeln!(out, "attempted {msg}").expect("string write");
        }
    }

    let rs = remote.retry_stats();
    writeln!(
        out,
        "done {} {} {} {shed} {unexpected}",
        rs.reconnects, rs.replayed, rs.overload_retries
    )
    .expect("string write");
    print!("{out}");
    0
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

/// One cell of the trial matrix.
struct Spec {
    name: &'static str,
    /// Proxy cut period in request frames (0 = transparent proxy).
    drop_every: u64,
    /// Server queue-depth cap (0 = the default, effectively uncapped
    /// at this storm's scale).
    queue_depth: usize,
    /// WAL fault to arm in the server process: `(point, countdown)`.
    fault: Option<(&'static str, u64)>,
    /// Whether the parent drives `recover` on the server's stdin.
    recover: bool,
}

fn matrix(clients: usize, ops: usize) -> Vec<Spec> {
    // Mid-storm countdown: roughly half the storm's commits have landed
    // when the disk starts failing.
    let mid = ((clients * ops) / 2).max(2) as u64;
    vec![
        Spec {
            name: "drops",
            drop_every: 5,
            queue_depth: 0,
            fault: None,
            recover: false,
        },
        Spec {
            name: "overload",
            drop_every: 0,
            queue_depth: 1,
            fault: None,
            recover: false,
        },
        Spec {
            name: "append-fault",
            drop_every: 6,
            queue_depth: 0,
            fault: Some(("append", mid)),
            recover: true,
        },
        Spec {
            name: "fsync-fault",
            drop_every: 0,
            queue_depth: 0,
            fault: Some(("fsync", mid)),
            recover: true,
        },
    ]
}

/// What one trial reported, counters aggregated across its clients.
#[derive(Default)]
struct TrialReport {
    acked: u64,
    attempted: u64,
    cuts: u64,
    reconnects: u64,
    replayed: u64,
    overload_retries: u64,
    client_shed: u64,
    unexpected: u64,
    server_shed: u64,
    server_deduped: u64,
    server_deadline: u64,
    server_refused: u64,
    failures: Vec<String>,
}

fn run_trial(
    spec: &Spec,
    round: usize,
    clients: usize,
    ops: usize,
    records: usize,
) -> Result<TrialReport> {
    let exe = std::env::current_exe()
        .map_err(|e| CoreError::Io(format!("cannot locate the bench binary: {e}")))?;
    let dir = std::env::temp_dir().join(format!(
        "orpheus-chaosstorm-{}-{}-{}",
        std::process::id(),
        round,
        spec.name
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Seed through the logged catalog path, then close; the server
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
        .env("ORPHEUS_CHAOS_ROLE", "server")
        .env("ORPHEUS_CHAOS_DIR", &dir)
        .env("ORPHEUS_CHAOS_QUEUE_DEPTH", spec.queue_depth.to_string())
        .envs(
            spec.fault
                .map(|(point, n)| ("ORPHEUS_WAL_FAULT", format!("{point}:{n}"))),
        )
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| CoreError::Io(format!("cannot spawn server: {e}")))?;
    let mut server_in = server.stdin.take().expect("stdin piped");
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

    let proxy = FlakyProxy::start(addr.as_str(), spec.drop_every)?;
    let proxy_addr = proxy.local_addr().to_string();

    let mut children: Vec<Child> = (0..clients)
        .map(|i| {
            Command::new(&exe)
                .env("ORPHEUS_CHAOS_ROLE", "client")
                .env("ORPHEUS_CHAOS_ADDR", &proxy_addr)
                .env("ORPHEUS_CHAOS_CLIENT", i.to_string())
                .env("ORPHEUS_CHAOS_OPS", ops.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| CoreError::Io(format!("cannot spawn client: {e}")))
        })
        .collect::<Result<Vec<_>>>()?;

    // Babysit the storm: in recovery trials, periodically drive the
    // operator path (`recover` → checkpoint) so degraded windows end.
    // Checkpointing a healthy instance is harmless, so the cadence needs
    // no coordination with when the fault actually fires.
    let mut last_recover = Instant::now();
    loop {
        let all_done = children
            .iter_mut()
            .all(|c| matches!(c.try_wait(), Ok(Some(_))));
        if all_done {
            break;
        }
        if spec.recover && last_recover.elapsed() >= Duration::from_millis(300) {
            let _ = server_in.write_all(b"recover\n");
            let _ = server_in.flush();
            last_recover = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let mut report = TrialReport::default();
    let mut acked: Vec<BTreeSet<String>> = vec![BTreeSet::new(); clients];
    let mut attempted: Vec<BTreeSet<String>> = vec![BTreeSet::new(); clients];
    let mut client_logs = String::new();
    for (i, child) in children.into_iter().enumerate() {
        let output = child
            .wait_with_output()
            .map_err(|e| CoreError::Io(format!("client did not finish: {e}")))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        client_logs.push_str(&format!("--- client {i} ---\n{stdout}"));
        if !output.status.success() {
            report
                .failures
                .push(format!("client {i} exited with {}", output.status));
            continue;
        }
        let mut done = false;
        for line in stdout.lines() {
            if let Some(msg) = line.strip_prefix("acked ") {
                acked[i].insert(msg.to_string());
            } else if let Some(msg) = line.strip_prefix("attempted ") {
                attempted[i].insert(msg.to_string());
            } else if let Some(detail) = line.strip_prefix("unexpected ") {
                report
                    .failures
                    .push(format!("client {i} unexpected outcome: {detail}"));
            } else if let Some(rest) = line.strip_prefix("done ") {
                let mut parts = rest.split_whitespace();
                let mut next = || {
                    parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(0)
                };
                report.reconnects += next();
                report.replayed += next();
                report.overload_retries += next();
                report.client_shed += next();
                report.unexpected += next();
                done = true;
            }
        }
        if !done {
            report
                .failures
                .push(format!("client {i} reported no result"));
        }
        report.acked += acked[i].len() as u64;
        report.attempted += attempted[i].len() as u64;
    }

    // Stop the server through its own graceful path and collect its
    // self-protection counters.
    let _ = server_in.write_all(b"exit\n");
    let _ = server_in.flush();
    let mut rest = String::new();
    let _ = server_out.read_to_string(&mut rest);
    let _ = server.wait();
    for line in rest.lines() {
        if let Some(rest) = line.strip_prefix("stat ") {
            let mut parts = rest.split_whitespace();
            let (key, value) = (parts.next().unwrap_or(""), parts.next());
            let value = value.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            match key {
                "shed" => report.server_shed = value,
                "deduped" => report.server_deduped = value,
                "deadline" => report.server_deadline = value,
                "refused" => report.server_refused = value,
                _ => {}
            }
        }
    }
    report.cuts = proxy.cuts();
    proxy.stop();

    // -- verification -------------------------------------------------------
    // Reopen the directory the way a restart would and hold the run to
    // the at-most-once contract, per CVD.
    let recovered = recovery::open(&dir)?;
    for i in 0..clients {
        let name = format!("chaos_c{i}");
        let entries = recovered.log_entries(&name)?;
        // Skip the seed version; everything after it is storm commits.
        let messages: Vec<String> = entries.iter().skip(1).map(|e| e.message.clone()).collect();

        let unique: BTreeSet<&String> = messages.iter().collect();
        if unique.len() != messages.len() {
            report.failures.push(format!(
                "{name}: duplicate commit in the recovered graph: {messages:?}"
            ));
        }
        for msg in &acked[i] {
            if !messages.iter().any(|m| m == msg) {
                report
                    .failures
                    .push(format!("{name}: acked commit {msg:?} lost"));
            }
        }
        for msg in &messages {
            if !acked[i].contains(msg) && !attempted[i].contains(msg) {
                report.failures.push(format!(
                    "{name}: phantom commit {msg:?} (never acked or attempted)"
                ));
            }
        }

        // Graph equality: replay exactly the recovered commit sequence
        // in-process and require bit-for-bit equal state (modulo clocks).
        let reference = SharedOrpheusDB::new(OrpheusDB::new());
        {
            let mut admin = reference.session("admin")?;
            admin.execute(seeds[i].clone())?;
            let mut session = reference.session(&format!("user{i}"))?;
            for (k, msg) in messages.iter().enumerate() {
                let table = format!("__ref_{i}_{k}");
                session.execute(Checkout::of(&name).version(1u64).into_table(&table).into())?;
                session.execute(Commit::table(&table).message(msg).into())?;
            }
        }
        let got = cvd_state(&recovered, &name)?;
        let want = reference.read(|odb| cvd_state(odb, &name))?;
        if got != want {
            report.failures.push(format!(
                "{name}: recovered graph diverges from the in-process replay of its own \
                 commit sequence ({} vs {} versions)",
                got.0.len(),
                want.0.len()
            ));
        }
    }

    if report.failures.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        let artifacts =
            PathBuf::from("target/chaos-artifacts").join(format!("round{round}-{}", spec.name));
        if let Err(e) = copy_dir(&dir, &artifacts) {
            eprintln!("warning: could not save failure artifact: {e}");
        } else {
            let log = format!(
                "proxy: {} cuts, {} forwarded requests\n\n{client_logs}",
                report.cuts,
                proxy_forwarded_note()
            );
            let _ = std::fs::write(artifacts.join("clients.log"), log);
            eprintln!("saved failing WAL dir + logs to {}", artifacts.display());
        }
    }
    Ok(report)
}

/// The proxy is consumed by `stop()` before artifact writing; its cut
/// count is already in the report, so the log line only needs a marker.
fn proxy_forwarded_note() -> &'static str {
    "see BENCH_chaos.json"
}

fn run() -> Result<bool> {
    let rounds = trials();
    let clients = env_usize("ORPHEUS_CHAOS_CLIENTS", 3).max(1);
    let ops = env_usize("ORPHEUS_CHAOS_OPS", 6).max(1);
    let records = env_usize("ORPHEUS_CHAOS_RECORDS", 24).max(1);

    let mut ok = true;
    let mut totals = TrialReport::default();
    let mut trial_count = 0usize;
    for round in 0..rounds {
        for spec in matrix(clients, ops) {
            trial_count += 1;
            let report = run_trial(&spec, round, clients, ops, records)?;
            if report.failures.is_empty() {
                println!(
                    "trial {} (round {round}): ok ({} acked, {} attempted, {} cuts, \
                     {} replayed, {} shed)",
                    spec.name,
                    report.acked,
                    report.attempted,
                    report.cuts,
                    report.replayed,
                    report.server_shed
                );
            } else {
                ok = false;
                for f in &report.failures {
                    eprintln!("trial {} (round {round}): GATE: {f}", spec.name);
                }
            }
            totals.acked += report.acked;
            totals.attempted += report.attempted;
            totals.cuts += report.cuts;
            totals.reconnects += report.reconnects;
            totals.replayed += report.replayed;
            totals.overload_retries += report.overload_retries;
            totals.client_shed += report.client_shed;
            totals.unexpected += report.unexpected;
            totals.server_shed += report.server_shed;
            totals.server_deduped += report.server_deduped;
            totals.server_deadline += report.server_deadline;
            totals.server_refused += report.server_refused;
        }
    }
    if totals.unexpected > 0 {
        eprintln!(
            "GATE: {} refusal(s) were not typed retryable errors",
            totals.unexpected
        );
        ok = false;
    }
    println!(
        "chaos_storm: {trial_count} trial(s), {clients} client(s) x {ops} rounds, {records} \
         records/CVD"
    );

    let json = JsonObject::new()
        .str("bench", "chaos_storm")
        .int("trials", trial_count as u64)
        .int("clients", clients as u64)
        .int("ops_per_client", ops as u64)
        .int("records_per_cvd", records as u64)
        .int("acked_commits", totals.acked)
        .int("attempted_unacked", totals.attempted)
        .int("proxy_cuts", totals.cuts)
        .int("client_reconnects", totals.reconnects)
        .int("client_replayed", totals.replayed)
        .int("client_overload_retries", totals.overload_retries)
        .int("client_shed_surfaced", totals.client_shed)
        .int("server_shed", totals.server_shed)
        .int("server_deduped", totals.server_deduped)
        .int("server_deadline_exceeded", totals.server_deadline)
        .int("server_refused_connections", totals.server_refused)
        .int("untyped_refusals", totals.unexpected)
        .int("gate_ok", ok as u64);
    let path = write_bench_json("chaos", json)?;
    println!("wrote {path}");

    if !ok {
        eprintln!("chaos_storm at-most-once gate FAILED");
    }
    Ok(ok)
}

//! The fault gate: acknowledged versions survive a dying process, a dying
//! network and a dying disk. Each cell of `orpheus_bench::fault::CELLS`
//! seeds a WAL directory (one CVD per client, through the logged catalog
//! path), re-execs this binary as a **server** serving it behind a
//! frame-aware [`FlakyProxy`] and as `CLIENTS` **client** processes that
//! drive checkout → commit rounds against their own CVD, and strikes
//! mid-storm:
//! * `external` — the parent `SIGKILL`s the server;
//! * `pre-append` … `post-current` — the server aborts itself at that WAL
//!   kill point ([`wal::arm_kill`]); it checkpoints every
//!   `CHECKPOINT_RECORDS` records, so the checkpoint points are crossed;
//! * `drops` — the proxy severs connections in the lost-ACK window;
//! * `overload` — a queue-depth cap of one sheds requests;
//! * `append-fault`, `fsync-fault` — the WAL's disk fails and the parent
//!   drives the operator's way out (`recover` on the server's stdin).
//!
//! The parent then reopens the directory with [`recovery::open`] and holds
//! each CVD to `fault::judge` and to bit-for-bit equality (logical clocks
//! zeroed) with an in-process replay of its recovered commits. A failing
//! cell prints its one-line reproduction and copies its WAL directory and
//! client logs to `target/fault-artifacts/`.
//!
//! Run with `cargo run --release -p orpheus-bench --bin fault_storm --
//! [--seed <s>] [--rounds <n>] [--cell <name>]`. Round `r` runs at seed
//! `s + r`. Counters go to `BENCH_fault.json` in `ORPHEUS_BENCH_OUT`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use orpheus_bench::fault::{
    judge, Outcome, Plan, CELLS, CHECKPOINT_RECORDS, CLIENTS, RECORDS, ROUNDS,
};
use orpheus_bench::harness::{clustered_storm, write_bench_json, JsonObject};
use orpheus_bench::loader::bench_schema;
use orpheus_core::cvd::VersionMeta;
use orpheus_core::request::{CreateUser, Executor, Init, Request};
use orpheus_core::{recovery, wal, CoreError, ModelKind, OrpheusDB, Result, SharedOrpheusDB};
use orpheus_engine::Value;
use orpheus_net::{FlakyProxy, NetServer, RemoteExecutor, RetryPolicy, ServerConfig};

const SIGABRT: i32 = 6;
/// How often the parent asks a disk-fault server to recover.
const RECOVER_EVERY: Duration = Duration::from_millis(100);
/// Tries a client gives one checkout or commit that keeps being refused.
const TRIES: usize = 60;
/// How long a client waits for one response.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Counters from both sides of the wire, by name.
type Counts = BTreeMap<String, u64>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let role = match args.first().map(String::as_str) {
        Some("server") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        _ => std::process::exit(parent(&args)),
    };
    if let Err(e) = role {
        eprintln!("fault_storm {}: {e}", args[0]);
        std::process::exit(2);
    }
}

/// The `i`-th argument of a child role.
fn arg<T: FromStr>(args: &[String], i: usize) -> Result<T> {
    let arg = args.get(i).and_then(|a| a.parse().ok());
    arg.ok_or_else(|| CoreError::Io(format!("bad argument {i} in {args:?}")))
}

fn io(what: &str) -> impl Fn(std::io::Error) -> CoreError + '_ {
    move |e| CoreError::Io(format!("{what}: {e}"))
}

fn cvd_name(i: usize) -> String {
    format!("cvd{i}")
}

fn seed_request(i: usize) -> Request {
    let row = |r: i64| [r, r * 2, r % 7, i as i64].map(Value::Int).to_vec();
    Init::cvd(cvd_name(i))
        .schema(bench_schema(4))
        .rows((0..RECORDS as i64).map(row).collect())
        .model(ModelKind::SplitByRlist)
        .into()
}

/// Client `i`'s rounds: each a checkout, the commit of that checkout, and
/// the commit's message, which is unique across the storm.
fn rounds(i: usize) -> Vec<(Request, Request, String)> {
    clustered_storm(&cvd_name(i), i, ROUNDS, 0)
        .chunks(2)
        .map(|pair| match &pair[1] {
            Request::Commit(c) => (pair[0].clone(), pair[1].clone(), c.message.clone()),
            other => unreachable!("clustered_storm pairs each checkout with a commit: {other:?}"),
        })
        .collect()
}

// -- the server -------------------------------------------------------------

/// `server <dir> <seed> <cell>`: arm the cell's fault, serve the WAL
/// directory, checkpoint every few records, run `recover` lines from
/// stdin, and stop at stdin's EOF, printing the server's counters.
fn serve(args: &[String]) -> Result<()> {
    let (dir, cell) = (arg::<PathBuf>(args, 0)?, arg::<String>(args, 2)?);
    let plan = Plan::draw(arg(args, 1)?, &cell)
        .ok_or_else(|| CoreError::Io(format!("unknown cell {cell:?}")))?;
    if let Some((point, n)) = plan.kill {
        wal::arm_kill(point, n);
    }
    let shared = recovery::open_shared(&dir)?;
    let sink = shared
        .wal_sink()
        .ok_or_else(|| CoreError::Storage("the server opened no WAL".to_string()))?;
    if let Some((point, n)) = plan.fault {
        sink.arm_fault(point, n);
    }
    let mut config = ServerConfig::default();
    if plan.queue_depth > 0 {
        config.max_queue_depth = plan.queue_depth;
    }
    let server = NetServer::bind_with("127.0.0.1:0", shared.clone(), config)?;
    println!("addr {}", server.local_addr());

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Leaving degraded mode is the operator's `recover`, so a
            // degraded sink is not checkpointed here.
            let mut last = sink.next_seq();
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(2));
                let seq = sink.next_seq();
                if seq >= last + CHECKPOINT_RECORDS
                    && !sink.is_degraded()
                    && recovery::checkpoint_shared(&shared).is_ok()
                {
                    last = seq;
                }
            }
        });
        for line in std::io::stdin().lock().lines().map_while(|l| l.ok()) {
            if line.trim() == "recover" {
                let _ = recovery::checkpoint_shared(&shared);
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    let stats = server.stats();
    server.shutdown();
    println!(
        "count server_shed {}\ncount server_deduped {}\ncount server_deadline_exceeded {}\n\
         count server_refused_connections {}",
        stats.shed, stats.deduped, stats.deadline_exceeded, stats.refused_connections
    );
    Ok(())
}

// -- the client -------------------------------------------------------------

/// Block until mutations are accepted again after a degraded window, by
/// probing with uniquely-named `create_user` requests (catalog
/// mutations, so they cross the WAL but never touch a CVD's graph).
fn wait_for_recovery(remote: &mut RemoteExecutor, index: usize, seq: &mut usize) {
    for _ in 0..400 {
        *seq += 1;
        match remote.execute(CreateUser::named(format!("probe_{index}_{seq}")).into()) {
            Err(e) if e.is_retryable() || matches!(e, CoreError::ResponseTimeout { .. }) => {
                std::thread::sleep(Duration::from_millis(25))
            }
            // Anything else (e.g. "user exists" from a replayed probe)
            // proves a mutation crossed the WAL: writes are back.
            _ => return,
        }
    }
}

/// `client <addr> <index>`: run client `index`'s rounds, one line per
/// outcome on stdout — `issued`, `acked` or `attempted <message>` for
/// each commit (attempted: the outcome is unknowable, because a degraded
/// disk refused it, its response timed out or the server went away),
/// `lost <why>` when the server is gone for good (the client stops),
/// `unexpected <what>` for anything that is not a typed retryable
/// refusal, and `count <name> <n>` lines at the end.
fn client(args: &[String]) -> Result<()> {
    let (addr, index) = (arg::<String>(args, 0)?, arg::<usize>(args, 1)?);
    // Reconnects succeed at once while the server lives; after it died,
    // six failed ones (~0.2 s) declare it gone.
    let policy = RetryPolicy {
        max_reconnects: 6,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
        ..RetryPolicy::default()
    };
    let user = format!("user{index}");
    let connected = RemoteExecutor::connect_with_policy(addr.as_str(), &user, TIMEOUT, policy);
    let Ok(mut remote) = connected.map_err(|e| println!("lost {e}")) else {
        return Ok(());
    };
    let mut shed = 0u64;
    let mut probe_seq = 0usize;
    let pause = || std::thread::sleep(Duration::from_millis(20));
    'rounds: for (checkout, commit, msg) in rounds(index) {
        // Checkouts are served even in degraded mode and deduplicated by
        // session replay, so every refusal is safely retried; a timed-out
        // checkout that landed answers "already staged" to its retry.
        let mut staged = false;
        for _ in 0..TRIES {
            match remote.execute(checkout.clone()) {
                Err(CoreError::Overloaded { .. }) => shed += 1,
                Err(CoreError::Degraded(_) | CoreError::ResponseTimeout { .. }) => {}
                Err(CoreError::Network(e)) => {
                    println!("lost {e}; {}", remote.link_state());
                    break 'rounds;
                }
                Err(e) if !e.to_string().contains("staged") => {
                    println!("unexpected checkout for {msg}: {e}");
                    continue 'rounds;
                }
                _ => {
                    staged = true;
                    break;
                }
            }
            pause();
        }
        if !staged {
            println!("unexpected checkout for {msg} refused {TRIES} times");
            continue;
        }
        // A shed never executed, so it is resent; any other refusal
        // leaves the outcome unknowable, so the commit is never resent.
        println!("issued {msg}");
        for _ in 0..TRIES {
            match remote.execute(commit.clone()) {
                Ok(_) => println!("acked {msg}"),
                Err(e @ CoreError::Overloaded { .. }) => {
                    if e.retry_after_ms().is_none() {
                        println!("unexpected shed without a retry hint: {e}");
                    }
                    shed += 1;
                    pause();
                    continue;
                }
                Err(CoreError::Degraded(_)) => {
                    println!("attempted {msg}");
                    wait_for_recovery(&mut remote, index, &mut probe_seq);
                }
                Err(CoreError::ResponseTimeout { .. }) => println!("attempted {msg}"),
                Err(CoreError::Network(e)) => {
                    println!("attempted {msg}\nlost {e}; {}", remote.link_state());
                    break 'rounds;
                }
                Err(e) => println!("unexpected commit {msg}: {e}"),
            }
            continue 'rounds;
        }
        println!("attempted {msg}");
    }
    let rs = remote.retry_stats();
    println!(
        "count client_reconnects {}\ncount client_replayed {}\n\
         count client_overload_retries {}\ncount client_shed_surfaced {shed}",
        rs.reconnects, rs.replayed, rs.overload_retries
    );
    Ok(())
}

// -- the parent -------------------------------------------------------------

/// A child process that is killed and reaped when dropped, so no early
/// return leaves a server or client running.
struct Reaped(Child);

impl Reaped {
    /// Re-exec this binary with `args`, its stdout piped.
    fn spawn(args: &[String], stdin: Stdio) -> Result<Reaped> {
        let exe = std::env::current_exe().map_err(io("cannot locate the bench binary"))?;
        let child = Command::new(exe)
            .args(args)
            .stdin(stdin)
            .stdout(Stdio::piped())
            .spawn();
        child.map(Reaped).map_err(io("cannot spawn a child"))
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
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

/// The comparable slice of one CVD: its version graph and its rlists.
/// `checkout_t`/`commit_t` are zeroed: those logical clocks depend on when
/// checkpoints quiesced the instance, which a replay cannot predict. The
/// in-process recovery tests pin exact clocks.
type CvdState = (Vec<VersionMeta>, Vec<Vec<i64>>);

fn cvd_state(odb: &OrpheusDB, name: &str) -> Result<CvdState> {
    let cvd = odb.cvd(name)?;
    let mut versions: Vec<VersionMeta> = cvd.versions.iter().map(|m| (**m).clone()).collect();
    for m in &mut versions {
        (m.checkout_t, m.commit_t) = (None, 0);
    }
    let rlists = cvd.version_rids.iter().map(|r| (**r).clone()).collect();
    Ok((versions, rlists))
}

/// Whether CVD `i` as recovered equals an in-process replay of exactly
/// its recovered commits, each through the rounds its client sent.
fn replay_matches(recovered: &OrpheusDB, i: usize, messages: &[String]) -> Result<bool> {
    let reference = SharedOrpheusDB::new(OrpheusDB::new());
    reference.session("admin")?.execute(seed_request(i))?;
    let mut session = reference.session(&format!("user{i}"))?;
    let rounds = rounds(i);
    for msg in messages {
        let Some((checkout, commit, _)) = rounds.iter().find(|(_, _, m)| m == msg) else {
            return Ok(false);
        };
        session.execute(checkout.clone())?;
        session.execute(commit.clone())?;
    }
    let name = cvd_name(i);
    Ok(cvd_state(recovered, &name)? == reference.read(|odb| cvd_state(odb, &name))?)
}

/// Run one cell; its failures (empty when it passed) and its counters.
fn run_cell(seed: u64, plan: &Plan) -> Result<(Vec<String>, Counts)> {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("orpheus-faultstorm-{pid}-{seed}-{}", plan.cell));
    let pristine = dir.with_extension("pristine");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&pristine);
    // Seed through the logged catalog path, then close: the server
    // reopens the directory the way any restart would.
    let mut admin = recovery::open_shared(&dir)?.session("admin")?;
    for i in 0..CLIENTS {
        admin.execute(seed_request(i))?;
    }
    drop(admin);

    let args = [
        "server".into(),
        dir.display().to_string(),
        seed.to_string(),
        plan.cell.into(),
    ];
    let mut server = Reaped::spawn(&args, Stdio::piped())?;
    let mut server_in = server.0.stdin.take();
    let mut server_out = BufReader::new(server.0.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    server_out
        .read_line(&mut banner)
        .map_err(io("the server reported no address"))?;
    let addr = banner
        .strip_prefix("addr ")
        .ok_or_else(|| CoreError::Network(format!("bad server banner: {banner:?}")))?;
    let proxy = FlakyProxy::start(addr.trim(), plan.cut_every)?;

    let (tx, rx) = mpsc::channel();
    let mut clients = Vec::new();
    let mut readers = Vec::new();
    for i in 0..CLIENTS {
        let client_args = [
            "client".into(),
            proxy.local_addr().to_string(),
            i.to_string(),
        ];
        let mut client = Reaped::spawn(&client_args, Stdio::inherit())?;
        let stdout = BufReader::new(client.0.stdout.take().expect("stdout is piped"));
        let tx = tx.clone();
        readers.push(std::thread::spawn(move || {
            for line in stdout.lines().map_while(|l| l.ok()) {
                let _ = tx.send((i, line));
            }
        }));
        clients.push(client);
    }
    drop(tx);

    // Collect the clients' lines until every client has exited, striking
    // the external kill after its count of acks, and driving `recover` on
    // a server whose disk may have failed.
    let mut logs = vec![Vec::<String>::new(); CLIENTS];
    let (mut acks, mut killed) = (0, false);
    let mut last_recover = Instant::now();
    loop {
        match rx.recv_timeout(Duration::from_millis(10)) {
            Ok((i, line)) => {
                acks += u64::from(line.starts_with("acked "));
                logs[i].push(line);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if let Some((_, delay)) = plan.sigkill.filter(|&(n, _)| !killed && acks >= n) {
            std::thread::sleep(Duration::from_millis(delay));
            let _ = server.0.kill();
            killed = true;
        }
        let stdin = server_in.as_mut().filter(|_| plan.fault.is_some());
        if let Some(stdin) = stdin.filter(|_| last_recover.elapsed() >= RECOVER_EVERY) {
            let _ = stdin.write_all(b"recover\n").and_then(|()| stdin.flush());
            last_recover = Instant::now();
        }
    }
    for reader in readers {
        let _ = reader.join();
    }

    let mut failures = Vec::new();
    for (i, client) in clients.iter_mut().enumerate() {
        let status = client.0.wait().map_err(io("client did not finish"))?;
        if !status.success() {
            failures.push(format!("client {i} exited with {status}"));
        }
    }
    // EOF on its stdin stops a server that is still alive.
    drop(server_in);
    let mut server_log = String::new();
    let _ = server_out.read_to_string(&mut server_log);
    let status = server.0.wait().map_err(io("server did not finish"))?;
    let aborted = status.signal() == Some(SIGABRT);
    if !(status.success() || killed || aborted && plan.kill.is_some()) {
        failures.push(format!("server exited with {status}"));
    }

    let mut counts = Counts::new();
    let mut add = |key: &str, n: u64| *counts.entry(key.to_string()).or_default() += n;
    let mut add_line = |line: &str| {
        if let Some((key, n)) = line.split_once(' ') {
            add(key, n.parse().unwrap_or(0));
        }
    };
    for line in server_log.lines().filter_map(|l| l.strip_prefix("count ")) {
        add_line(line);
    }
    let mut lost = false;
    let mut outcomes = Vec::new();
    for (i, lines) in logs.iter().enumerate() {
        let mut o = Outcome {
            cvd: cvd_name(i),
            ..Outcome::default()
        };
        for line in lines {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "issued" => o.issued.push(rest.to_string()),
                "acked" => o.acked.push(rest.to_string()),
                "attempted" => o.attempted.push(rest.to_string()),
                "lost" if plan.kills() => lost = true,
                "lost" | "unexpected" => failures.push(format!("client {i}: {line}")),
                "count" => add_line(rest),
                _ => {}
            }
        }
        outcomes.push(o);
    }
    let attempted: usize = outcomes.iter().map(|o| o.attempted.len()).sum();
    let acked: usize = outcomes.iter().map(|o| o.acked.len()).sum();
    let (cuts, forwarded) = (proxy.cuts(), proxy.forwarded_requests());
    proxy.stop();
    add("acked_commits", acked as u64);
    add("attempted_unacked", attempted as u64);
    add("proxy_cuts", cuts);
    add("proxy_forwarded_requests", forwarded);

    // Recover a copy, so the artifact keeps the bytes the server left.
    copy_dir(&dir, &pristine).map_err(io("cannot copy the WAL directory"))?;
    let recovered = recovery::open(&dir)?;
    for o in &mut outcomes {
        let entries = recovered.log_entries(&o.cvd)?.into_iter();
        // The first version is the seed.
        o.recovered = entries.skip(1).map(|e| e.message).collect();
    }
    let fired = match (plan.kill, plan.sigkill, plan.fault) {
        (Some(_), _, _) => aborted,
        (_, Some(_), _) => lost,
        (_, _, Some(_)) => attempted > 0,
        _ if plan.cut_every > 0 => cuts > 0,
        _ => counts.get("server_shed").is_some_and(|&n| n > 0),
    };
    failures.extend(judge(plan.kills(), fired, &outcomes));
    for (i, o) in outcomes.iter().enumerate() {
        if !replay_matches(&recovered, i, &o.recovered)? {
            failures.push(format!(
                "{}: recovered graph diverges from an in-process replay of its {} recovered \
                 commit(s)",
                o.cvd,
                o.recovered.len()
            ));
        }
    }
    drop(recovered);

    if !failures.is_empty() {
        let artifacts = format!("target/fault-artifacts/seed{seed}-{}", plan.cell);
        let artifacts = Path::new(&artifacts);
        let _ = std::fs::remove_dir_all(artifacts);
        let mut log =
            format!("server: {status}\nproxy: {cuts} cuts, {forwarded} forwarded requests\n");
        for (i, lines) in logs.iter().enumerate() {
            log.push_str(&format!("\n--- client {i} ---\n{}\n", lines.join("\n")));
        }
        let saved = copy_dir(&pristine, artifacts)
            .and_then(|()| std::fs::write(artifacts.join("clients.log"), log));
        match saved {
            Ok(()) => eprintln!("saved the WAL directory and logs to {artifacts:?}"),
            Err(e) => eprintln!("warning: could not save the failure artifact: {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&pristine);
    Ok((failures, counts))
}

fn parent(args: &[String]) -> i32 {
    let (mut seed, mut rounds, mut only) = (1u64, 1u64, None);
    for pair in args.chunks(2) {
        let parsed = match (pair[0].as_str(), pair.get(1)) {
            ("--seed", Some(v)) => v.parse().map(|v| seed = v).is_ok(),
            ("--rounds", Some(v)) => v.parse().map(|v: u64| rounds = v.max(1)).is_ok(),
            ("--cell", Some(v)) => {
                only = CELLS.iter().find(|c| *c == v).copied();
                only.is_some()
            }
            _ => false,
        };
        if !parsed {
            eprintln!(
                "fault_storm: bad arguments {pair:?}\n\
                 usage: fault_storm [--seed <u64>] [--rounds <n>] [--cell <name>]\ncells: {CELLS:?}"
            );
            return 2;
        }
    }
    let cells = only.map_or(CELLS.to_vec(), |cell| vec![cell]);
    let mut totals = Counts::new();
    let mut repros = Vec::new();
    let mut runs = 0u64;
    for seed in (0..rounds).map(|round| seed.wrapping_add(round)) {
        for &cell in &cells {
            let plan = Plan::draw(seed, cell).expect("every cell has a plan");
            runs += 1;
            let (failures, counts) =
                run_cell(seed, &plan).unwrap_or_else(|e| (vec![e.to_string()], Counts::new()));
            let count = |key: &str| counts.get(key).copied().unwrap_or(0);
            if failures.is_empty() {
                println!(
                    "cell {cell} (seed {seed}): ok, fault fired ({} acked, {} attempted, {} cuts, \
                     {} shed, {} reconnects)",
                    count("acked_commits"),
                    count("attempted_unacked"),
                    count("proxy_cuts"),
                    count("server_shed"),
                    count("client_reconnects"),
                );
            } else {
                for f in &failures {
                    eprintln!("cell {cell} (seed {seed}): GATE: {f}");
                }
                let repro = format!("fault_storm --seed {seed} --cell {cell}");
                eprintln!("reproduce with: {repro}");
                repros.push(repro);
            }
            for (key, n) in counts {
                *totals.entry(key).or_default() += n;
            }
        }
    }
    println!(
        "fault_storm: {runs} cell run(s), {} failed; {CLIENTS} clients x {ROUNDS} rounds, \
         {RECORDS} records/CVD",
        repros.len()
    );

    let json = JsonObject::new()
        .str("bench", "fault_storm")
        .int("seed", seed)
        .int("rounds", rounds)
        .int("cell_runs", runs)
        .int("failed_cells", repros.len() as u64)
        .int("clients", CLIENTS as u64)
        .int("rounds_per_client", ROUNDS as u64)
        .int("records_per_cvd", RECORDS as u64);
    let json = totals.iter().fold(json, |json, (key, n)| json.int(key, *n));
    match write_bench_json("fault", json.int("gate_ok", repros.is_empty() as u64)) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("fault_storm: {e}");
            return 1;
        }
    }
    if repros.is_empty() {
        return 0;
    }
    eprintln!("fault_storm gate FAILED; reproduce each failing cell with:");
    for repro in &repros {
        eprintln!("  {repro}");
    }
    1
}

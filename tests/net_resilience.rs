//! Resilience acceptance for the fault-tolerant service layer:
//!
//! * (a) a connection severed **between a forwarded commit and its ACK**
//!   (the `FlakyProxy`'s cut point) is survived by reconnect + idempotent
//!   replay: the retried frame returns the original outcome from the
//!   server's per-session replay cache — exactly one new version, never a
//!   double commit;
//! * (b) load shedding is typed and honored: an overloaded server answers
//!   [`CoreError::Overloaded`] with a `retry_after_ms` hint, and the
//!   client's transparent retry loop actually waits it out;
//! * (c) a WAL disk fault flips the instance into documented read-only
//!   degraded mode — mutations refuse with [`CoreError::Degraded`], the
//!   full read corpus keeps serving — and the operator path out
//!   (checkpoint) restores writes; a crash while degraded recovers the
//!   acked prefix exactly;
//! * (d) a frame racing [`NetServer::begin_shutdown`] gets a typed
//!   refusal and `NetServer::shared` stays callable — never a panic;
//! * (e) a client session keeps its order across a resume: a frame the
//!   resumed connection sends runs after the frames its dropped
//!   connection still has in flight;
//! * (f) a cut that truncates a response mid-frame is a lost link, not a
//!   dead one: the client reconnects and replays.
//!
//! The reconnect storm scales up under `ORPHEUS_STRESS=1` (the CI stress
//! job).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use orpheusdb::core::concurrent::arm_commit_gate;
use orpheusdb::core::recovery;
use orpheusdb::net::{
    FlakyProxy, NetServer, RemoteExecutor, RetryPolicy, ServerConfig, DEFAULT_TIMEOUT,
};
use orpheusdb::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orpheus-resil-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .with_primary_key(&["k"])
    .unwrap()
}

fn rows(n: i64) -> Vec<Vec<Value>> {
    (0..n).map(|i| vec![Value::Int(i), Value::Int(0)]).collect()
}

/// A policy with short backoffs so tests reconnect in milliseconds, not
/// the production-tuned default delays.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(100),
        ..RetryPolicy::default()
    }
}

/// The tentpole scenario: the proxy severs the connection after the
/// commit frame reached the server but before its ACK came back. The
/// client must reconnect, resume its session, and replay the frame — and
/// the server must answer from its replay cache instead of committing a
/// second time.
#[test]
fn ack_dropped_commit_is_replayed_not_reexecuted() {
    let shared = SharedOrpheusDB::new(OrpheusDB::new());
    let server = NetServer::bind("127.0.0.1:0", shared.clone()).unwrap();
    // Requests through the proxy: 1 init, 2 checkout, 3 update, 4 commit.
    // drop_every = 4 cuts exactly on the commit's lost-ACK window.
    let proxy = FlakyProxy::start(server.local_addr(), 4).unwrap();
    let mut client = RemoteExecutor::connect_with_policy(
        proxy.local_addr(),
        "ada",
        DEFAULT_TIMEOUT,
        fast_policy(),
    )
    .unwrap();

    client
        .execute(Init::cvd("scores").schema(schema()).rows(rows(4)).into())
        .unwrap();
    client
        .execute(
            Checkout::of("scores")
                .version(1u64)
                .into_table("work")
                .into(),
        )
        .unwrap();
    client
        .execute(Run::sql("UPDATE work SET v = 7 WHERE k = 1").into())
        .unwrap();
    let committed = client
        .execute(Commit::table("work").message("survives the cut").into())
        .unwrap();
    assert_eq!(committed.version(), Some(Vid(2)));

    assert!(proxy.cuts() >= 1, "the proxy never fired its cut");
    let retries = client.retry_stats();
    assert!(retries.reconnects >= 1, "{retries:?}");
    assert!(retries.replayed >= 1, "{retries:?}");
    assert!(server.stats().deduped >= 1, "{:?}", server.stats());

    // Exactly one new version landed: the replayed commit deduplicated
    // instead of executing twice.
    let mut audit = shared.session("auditor").unwrap();
    let count = audit
        .execute(Run::sql("SELECT count(*) FROM CVD scores").into())
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(count.rows[0][0], Value::Int(4 * 2)); // 4 rows × versions 1, 2

    drop(client);
    proxy.stop();
    server.shutdown();
}

/// Shedding is typed, retryable, and the client's backoff really sleeps:
/// with `overload_retries = 2` against a server that sheds everything,
/// the surfaced error is `Overloaded` and at least two `retry_after_ms`
/// hints (50 ms each) elapsed first.
#[test]
fn overload_shedding_is_typed_and_backoff_waits() {
    let shared = SharedOrpheusDB::new(OrpheusDB::new());
    let config = ServerConfig {
        max_queue_depth: 0, // shed every frame
        ..ServerConfig::default()
    };
    let server = NetServer::bind_with("127.0.0.1:0", shared, config).unwrap();
    let policy = RetryPolicy {
        overload_retries: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
        ..RetryPolicy::default()
    };
    let mut client =
        RemoteExecutor::connect_with_policy(server.local_addr(), "ada", DEFAULT_TIMEOUT, policy)
            .unwrap();

    let start = Instant::now();
    let err = client.execute(Request::Ls).unwrap_err();
    let waited = start.elapsed();

    assert!(
        matches!(err, CoreError::Overloaded { retry_after_ms } if retry_after_ms > 0),
        "{err:?}"
    );
    assert!(err.is_retryable());
    assert!(err.retry_after_ms().is_some());
    // Two transparent retries × a 50 ms server hint each (the jittered
    // client backoff is dominated by the hint here).
    assert!(waited >= Duration::from_millis(90), "{waited:?}");
    assert_eq!(client.retry_stats().overload_retries, 2);
    assert!(server.stats().shed >= 3, "{:?}", server.stats());

    drop(client);
    server.shutdown();
}

/// Batches are shed wholesale and retried wholesale: every outcome of an
/// overloaded batch is the same retryable error.
#[test]
fn overloaded_batch_sheds_every_request() {
    let shared = SharedOrpheusDB::new(OrpheusDB::new());
    let config = ServerConfig {
        max_queue_depth: 0,
        ..ServerConfig::default()
    };
    let server = NetServer::bind_with("127.0.0.1:0", shared, config).unwrap();
    let policy = RetryPolicy {
        overload_retries: 1,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    let mut client =
        RemoteExecutor::connect_with_policy(server.local_addr(), "ada", DEFAULT_TIMEOUT, policy)
            .unwrap();

    let results = client.batch(vec![Request::Ls, Request::Whoami]);
    assert_eq!(results.len(), 2);
    for result in &results {
        let err = result.as_ref().unwrap_err();
        assert!(err.is_retryable(), "{err:?}");
        assert!(matches!(err, CoreError::Overloaded { .. }), "{err:?}");
    }
    assert_eq!(client.retry_stats().overload_retries, 1);

    drop(client);
    server.shutdown();
}

/// A WAL disk fault mid-service: the triggering mutation and everything
/// after it refuse with [`CoreError::Degraded`], the full read corpus
/// keeps serving over the same connections, and the documented operator
/// recovery (checkpoint) restores writes.
#[test]
fn degraded_wal_refuses_writes_serves_reads_and_checkpoint_recovers() {
    let dir = tmp_dir("degraded");
    let shared = recovery::open_shared(&dir).unwrap();
    let server = NetServer::bind("127.0.0.1:0", shared.clone()).unwrap();
    let mut client = RemoteExecutor::connect(server.local_addr(), "ada").unwrap();

    client
        .execute(Init::cvd("grades").schema(schema()).rows(rows(5)).into())
        .unwrap();
    client
        .execute(
            Checkout::of("grades")
                .version(1u64)
                .into_table("work")
                .into(),
        )
        .unwrap();
    client
        .execute(Run::sql("UPDATE work SET v = 1 WHERE k = 0").into())
        .unwrap();
    client
        .execute(
            Commit::table("work")
                .message("acked before the fault")
                .into(),
        )
        .unwrap();

    // Disk starts failing: the next append dies before any byte lands.
    let sink = shared.wal_sink().expect("wal-backed instance has a sink");
    sink.arm_fault("append", 1);

    // The triggering mutation reports the degradation...
    let err = client
        .execute(Init::cvd("boom").schema(schema()).rows(rows(1)).into())
        .unwrap_err();
    assert!(matches!(err, CoreError::Degraded(_)), "{err:?}");
    // ...and the instance is now in documented read-only degraded mode.
    assert!(shared.degraded().is_some());

    // Mutations refuse with the typed, retryable error — checked before
    // any in-memory state moves.
    for refused in [
        Request::from(Init::cvd("later").schema(schema()).rows(rows(1))),
        Request::from(Optimize::cvd("grades")),
        Request::from(DropCvd::named("grades")),
    ] {
        let err = client.execute(refused).unwrap_err();
        assert!(matches!(err, CoreError::Degraded(_)), "{err:?}");
        assert!(err.is_retryable());
    }

    // The read corpus keeps serving: listing, log, versioned SQL, and a
    // fresh checkout all work against the degraded instance.
    client.execute(Request::Ls).unwrap();
    client.execute(Log::of("grades").into()).unwrap();
    let count = client
        .execute(Run::sql("SELECT count(*) FROM VERSION 2 OF CVD grades").into())
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(count.rows[0][0], Value::Int(5));
    client
        .execute(
            Checkout::of("grades")
                .version(2u64)
                .into_csv("peek.csv")
                .into(),
        )
        .unwrap();

    // Operator recovery: a successful checkpoint proves the disk writes
    // again, rotates onto a fresh generation, and re-arms the sink.
    recovery::checkpoint_shared(&shared).unwrap();
    assert!(shared.degraded().is_none());
    client
        .execute(
            Checkout::of("grades")
                .version(2u64)
                .into_table("after")
                .into(),
        )
        .unwrap();
    let committed = client
        .execute(Commit::table("after").message("writes restored").into())
        .unwrap();
    assert!(committed.version().is_some());

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash while degraded: reopening the directory replays exactly the
/// acked prefix — the faulted mutation (whose append never landed) is
/// gone, everything acknowledged before it is intact.
#[test]
fn crash_while_degraded_recovers_the_acked_prefix() {
    let dir = tmp_dir("degraded-crash");
    {
        let shared = recovery::open_shared(&dir).unwrap();
        let mut session = shared.session("ada").unwrap();
        session
            .execute(Init::cvd("grades").schema(schema()).rows(rows(3)).into())
            .unwrap();
        session
            .execute(
                Checkout::of("grades")
                    .version(1u64)
                    .into_table("work")
                    .into(),
            )
            .unwrap();
        session
            .execute(Commit::table("work").message("acked").into())
            .unwrap();

        shared.wal_sink().unwrap().arm_fault("append", 1);
        let err = session
            .execute(Init::cvd("boom").schema(schema()).rows(rows(1)).into())
            .unwrap_err();
        assert!(matches!(err, CoreError::Degraded(_)), "{err:?}");
        // Drop without checkpoint: the process "crashes" while degraded.
    }

    let odb = recovery::open(&dir).unwrap();
    let names = odb.ls();
    assert!(names.iter().any(|n| n == "grades"), "{names:?}");
    assert!(
        !names.iter().any(|n| n == "boom"),
        "unacked mutation must not survive recovery: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: `NetServer::shared` and late frames racing
/// `begin_shutdown` get typed outcomes, never a reader-thread panic.
#[test]
fn late_frame_after_begin_shutdown_is_refused_cleanly() {
    let shared = SharedOrpheusDB::new(OrpheusDB::new());
    let server = NetServer::bind("127.0.0.1:0", shared).unwrap();
    let mut client = RemoteExecutor::connect_with_policy(
        server.local_addr(),
        "ada",
        DEFAULT_TIMEOUT,
        RetryPolicy::none(),
    )
    .unwrap();
    client.execute(Request::Ls).unwrap();

    server.begin_shutdown();
    // The instance stays reachable at every lifecycle point.
    let _shared = server.shared();

    // A frame arriving after the flag flips gets the refusal, not a hang
    // and not a panic.
    let err = client.execute(Request::Whoami).unwrap_err();
    assert!(err.to_string().contains("shutting down"), "{err}");

    drop(client);
    server.shutdown();
}

/// Sustained cuts under load: every round trips through checkout →
/// update → commit while the proxy severs the connection every few
/// frames. Every commit must land exactly once, in order, whatever the
/// cut pattern. Scaled up under `ORPHEUS_STRESS=1`.
#[test]
fn reconnect_storm_commits_exactly_once() {
    let rounds: u64 = match std::env::var("ORPHEUS_STRESS").as_deref() {
        Ok("1") => 40,
        _ => 8,
    };
    let shared = SharedOrpheusDB::new(OrpheusDB::new());
    let server = NetServer::bind("127.0.0.1:0", shared.clone()).unwrap();
    let proxy = FlakyProxy::start(server.local_addr(), 5).unwrap();
    let mut client = RemoteExecutor::connect_with_policy(
        proxy.local_addr(),
        "ada",
        DEFAULT_TIMEOUT,
        RetryPolicy {
            max_reconnects: 32,
            ..fast_policy()
        },
    )
    .unwrap();

    client
        .execute(Init::cvd("scores").schema(schema()).rows(rows(3)).into())
        .unwrap();
    let mut committed = Vec::new();
    for round in 0..rounds {
        let version = 1 + round;
        client
            .execute(
                Checkout::of("scores")
                    .version(version)
                    .into_table("work")
                    .into(),
            )
            .unwrap();
        client
            .execute(Run::sql(format!("UPDATE work SET v = {} WHERE k = 1", round + 1)).into())
            .unwrap();
        let response = client
            .execute(
                Commit::table("work")
                    .message(format!("round {round}"))
                    .into(),
            )
            .unwrap();
        committed.push(response.version().expect("commit returns a version"));
    }

    // Every commit landed exactly once: the version chain is a strict
    // +1 sequence with no gaps (lost commits) and no skips (duplicates).
    let expected: Vec<Vid> = (0..rounds).map(|r| Vid(2 + r)).collect();
    assert_eq!(committed, expected);
    assert!(proxy.cuts() >= 1, "the storm never cut a connection");

    let mut audit = shared.session("auditor").unwrap();
    let count = audit
        .execute(Run::sql("SELECT count(*) FROM CVD scores").into())
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(count.rows[0][0], Value::Int(3 * (1 + rounds as i64)));

    drop(client);
    proxy.stop();
    server.shutdown();
}

/// A client session is one handle queue on the server, across
/// reconnects: the proxy cuts the connection while the session's commit
/// of `x` is held inside its shard lock, and a `log x` sent on the
/// resumed connection runs after that commit, so it lists the held
/// commit's version.
#[test]
fn a_resumed_connection_runs_after_what_its_dropped_one_has_in_flight() {
    let mut odb = OrpheusDB::new();
    odb.init_cvd("x", schema(), rows(4), None).unwrap();
    let server = NetServer::bind("127.0.0.1:0", SharedOrpheusDB::new(odb)).unwrap();
    // Requests through the proxy: 1 checkout, 2 update, 3 commit — the
    // cut falls on the commit.
    let proxy = FlakyProxy::start(server.local_addr(), 3).unwrap();
    let mut client = RemoteExecutor::connect_with_policy(
        proxy.local_addr(),
        "ada",
        DEFAULT_TIMEOUT,
        fast_policy(),
    )
    .unwrap();
    client
        .execute(Checkout::of("x").version(1u64).into_table("gated").into())
        .unwrap();
    client
        .execute(Run::sql("UPDATE gated SET v = 7 WHERE k = 1").into())
        .unwrap();

    let gate = arm_commit_gate("gated");
    let commit = client.submit(Commit::table("gated").message("held across the cut"));
    gate.wait_entered();
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.retry_stats().reconnects == 0 {
        assert!(Instant::now() < deadline, "the client never reconnected");
        std::thread::sleep(Duration::from_millis(5));
    }
    let log = client.submit(Log::of("x"));
    // Release the commit only once the server has the log in hand: the
    // proxy forwarded it (request frame 5, after the replayed commit),
    // and the server had a moment to read it.
    while proxy.forwarded_requests() < 5 {
        assert!(
            Instant::now() < deadline,
            "the log never reached the server"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    gate.release();

    let committed = commit
        .wait_for(Duration::from_secs(30))
        .expect("the held commit is answered");
    assert_eq!(committed.unwrap().version(), Some(Vid(2)));
    let logged = log
        .wait_for(Duration::from_secs(30))
        .expect("the log is answered")
        .unwrap();
    let Response::Log { entries, .. } = logged else {
        panic!("expected a log, got {}", logged.summary());
    };
    let vids: Vec<Vid> = entries.iter().map(|e| e.vid).collect();
    assert!(
        vids.contains(&Vid(2)),
        "the log ran before the held commit: {vids:?}"
    );
    assert_eq!(proxy.cuts(), 1);

    drop(client);
    proxy.stop();
    server.shutdown();
}

/// A long-lived server forgets the sessions nobody can resume any more:
/// thousands of connections come and go, and what the registry holds at
/// the end is one session per connection still open — not one (and its
/// replay cache) per connection ever accepted. The same holds for the
/// accept loop's connection-thread handles.
#[test]
fn the_session_registry_is_bounded_by_the_live_connections() {
    let cycles = 2_000;
    let config = ServerConfig {
        // A session expires this long after its last connection ended.
        request_deadline: Duration::from_millis(1),
        ..ServerConfig::default()
    };
    let server = NetServer::bind_with(
        "127.0.0.1:0",
        SharedOrpheusDB::new(OrpheusDB::new()),
        config,
    )
    .unwrap();
    // Side by side, because the accept loop polls: one client alone would
    // spend the test waiting for its next accept.
    let clients = 16;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                for _ in 0..cycles / clients {
                    drop(RemoteExecutor::connect(server.local_addr(), "soak").unwrap());
                }
            });
        }
    });
    let live: Vec<RemoteExecutor> = (0..3)
        .map(|_| RemoteExecutor::connect(server.local_addr(), "soak").unwrap())
        .collect();

    // The server notices a closed socket on its own threads, so the last
    // few sessions of the loop may still be attached for a moment, and
    // their threads still running. A connection thread outlives its
    // session by a few instructions: that is the slack on the handles.
    let live_count = live.len() as u64;
    let patience = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = server.stats();
        if stats.sessions == live_count && stats.connections <= live_count + 2 {
            break;
        }
        assert!(
            Instant::now() < patience,
            "{} sessions registered and {} connection handles held for {live_count} \
             live connections after {cycles} cycles",
            stats.sessions,
            stats.connections,
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.stats().connections >= live_count);

    drop(live);
    server.shutdown();
}

/// One whole frame off `stream`, length prefix included.
fn read_raw_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).expect("a length prefix");
    let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..]).expect("a payload");
    frame
}

/// The server-to-client half of the relay below: with `cut`, pass on the
/// handshake's welcome whole and then only the first half of the next
/// frame, and close both sockets; without, relay verbatim until either
/// side closes.
fn relay_responses(mut server: TcpStream, mut client: TcpStream, cut: bool) {
    if cut {
        let welcome = read_raw_frame(&mut server);
        client.write_all(&welcome).expect("relay the welcome");
        let response = read_raw_frame(&mut server);
        client
            .write_all(&response[..response.len() / 2])
            .expect("relay half a response");
    } else {
        let _ = std::io::copy(&mut server, &mut client);
    }
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
}

/// A network cut can land inside a response, not only between frames.
/// A relay passes on half of the first response after the handshake and
/// closes; the client must read that as a lost link, reconnect through
/// the relay, and replay the frame, which the server answers from its
/// replay cache: the original outcome, executed once.
#[test]
fn a_response_cut_mid_frame_is_replayed_after_a_reconnect() {
    let server = NetServer::bind("127.0.0.1:0", SharedOrpheusDB::new(OrpheusDB::new())).unwrap();
    let upstream = server.local_addr();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let relay_addr = listener.local_addr().unwrap();
    let relay = std::thread::spawn(move || {
        // The first connection gets the cut; the reconnect is relayed whole.
        for cut in [true, false] {
            let (client, _) = listener.accept().unwrap();
            let server = TcpStream::connect(upstream).unwrap();
            let (mut from, mut to) = (client.try_clone().unwrap(), server.try_clone().unwrap());
            let requests = std::thread::spawn(move || {
                let _ = std::io::copy(&mut from, &mut to);
                let _ = to.shutdown(Shutdown::Both);
            });
            relay_responses(server, client, cut);
            requests.join().unwrap();
        }
    });
    let mut client =
        RemoteExecutor::connect_with_policy(relay_addr, "ada", DEFAULT_TIMEOUT, fast_policy())
            .unwrap();

    // Executed twice, the init would fail: the CVD would already exist.
    let created = client
        .execute(Init::cvd("scores").schema(schema()).rows(rows(4)).into())
        .expect("the cut response is replayed, not fatal");
    assert_eq!(created.version(), Some(Vid(1)));
    assert_eq!(client.retry_stats().reconnects, 1);
    assert_eq!(server.stats().deduped, 1, "{:?}", server.stats());

    drop(client);
    relay.join().unwrap();
    server.shutdown();
}

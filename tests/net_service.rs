//! Service-level acceptance for the network layer:
//!
//! * (a) a [`RemoteExecutor`] over a live [`NetServer`] equals the
//!   in-process sequential executor **result for result** on the full bus
//!   corpus (successes and failures mixed), both request-at-a-time and as
//!   one pipelined batch frame;
//! * (b) a client disconnecting mid-stream does not hurt the server:
//!   accepted work drains against the shared instance, a panicking
//!   checkout stays contained to its shard, reservations are released,
//!   and the shard keeps serving the next connection;
//! * (c) server shutdown mid-stream resolves every accepted ticket and
//!   refuses late frames with a clean error instead of hanging clients;
//! * (d) protocol violations (wrong version, oversized frame) and hung
//!   peers surface as typed errors, never panics or infinite blocks.

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use orpheusdb::core::concurrent::{arm_checkout_panic, disarm_checkout_panic};
use orpheusdb::net::proto::{read_frame, write_frame};
use orpheusdb::net::{Frame, MAX_FRAME, PROTOCOL_VERSION};
use orpheusdb::prelude::*;

const CSV: &str = "id,score\n1,10\n2,20\n3,30\n";
const SCHEMA: &str = "id:int!pk\nscore:int\n";

/// The bus corpus from `tests/async_executor.rs`: every request variant,
/// with failures deliberately mid-stream.
fn corpus() -> Vec<Request> {
    let ranks_schema = Schema::new(vec![
        Column::new("name", DataType::Text),
        Column::new("rank", DataType::Int),
    ])
    .with_primary_key(&["name"])
    .unwrap();
    vec![
        InitFromCsv::cvd("scores")
            .csv(CSV)
            .schema_text(SCHEMA)
            .into(),
        Init::cvd("ranks")
            .schema(ranks_schema)
            .row(vec!["a".into(), 1.into()])
            .row(vec!["b".into(), 2.into()])
            .model(ModelKind::CombinedTable)
            .into(),
        Checkout::of("scores")
            .version(1u64)
            .into_table("work")
            .into(),
        Commit::table("work").message("no-op").into(),
        Checkout::of("scores")
            .version(2u64)
            .into_csv("scores.csv")
            .into(),
        CommitCsv::path("scores.csv")
            .csv("rid,id,score\n1,1,10\n2,2,20\n3,3,30\n,4,40\n")
            .message("add row via csv")
            .into(),
        Diff::of("scores").between(2u64, 3u64).into(),
        Run::sql("SELECT count(*) FROM VERSION 3 OF CVD scores").into(),
        Request::Ls,
        Log::of("scores").into(),
        Optimize::cvd("scores").gamma(2.0).mu(1.5).into(),
        CreateUser::named("courier").into(),
        Login::as_user("courier").into(),
        Request::Whoami,
        Checkout::of("scores")
            .version(1u64)
            .into_table("scratch")
            .into(),
        Discard::table("scratch").into(),
        // Failures, deliberately mid-stream.
        Checkout::of("scores")
            .version(99u64)
            .into_table("zzz")
            .into(),
        Commit::table("never_staged").into(),
        Run::sql("SELECT count(*) FROM VERSION 1 OF CVD nope").into(),
        DropCvd::named("scores").into(),
        DropCvd::named("ranks").into(),
        Request::Ls,
    ]
}

fn render(result: &Result<Response, CoreError>) -> String {
    match result {
        Ok(response) => response.summary(),
        Err(e) => format!("error: {e}"),
    }
}

fn sequential_outcomes() -> Vec<String> {
    let shared = SharedOrpheusDB::new(OrpheusDB::new());
    let mut session = shared.session("driver").unwrap();
    corpus()
        .into_iter()
        .map(|r| render(&session.execute(r)))
        .collect()
}

/// Two CVDs (two shards) under one shared instance, `n` rows each.
fn shared_with_two_cvds(n: i64) -> SharedOrpheusDB {
    let mut odb = OrpheusDB::new();
    for name in ["left", "right"] {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ])
        .with_primary_key(&["k"])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Int(i), Value::Int(0)]).collect();
        odb.init_cvd(name, schema, rows, None).unwrap();
    }
    SharedOrpheusDB::new(odb)
}

const WAIT: Duration = Duration::from_secs(30);

#[test]
fn remote_execute_loop_equals_the_in_process_executor_on_the_full_corpus() {
    let expected = sequential_outcomes();
    let server = NetServer::bind("127.0.0.1:0", SharedOrpheusDB::new(OrpheusDB::new())).unwrap();
    let mut remote = RemoteExecutor::connect(server.local_addr(), "driver").unwrap();
    let got: Vec<String> = corpus()
        .into_iter()
        .map(|r| render(&remote.execute(r)))
        .collect();
    assert_eq!(expected.len(), got.len());
    for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(want, have, "request {i} diverged over the wire");
    }
    // The Login mid-corpus rebound the connection identity on both ends.
    assert_eq!(remote.user(), "courier");
    server.shared().read(|odb| assert!(odb.staged().is_empty()));
    drop(remote);
    server.shutdown();
}

#[test]
fn one_pipelined_batch_frame_equals_the_in_process_executor() {
    let expected = sequential_outcomes();
    let server = NetServer::bind("127.0.0.1:0", SharedOrpheusDB::new(OrpheusDB::new())).unwrap();
    let mut remote = RemoteExecutor::connect(server.local_addr(), "driver").unwrap();
    let got: Vec<String> = remote.batch(corpus()).iter().map(render).collect();
    assert_eq!(expected.len(), got.len());
    for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
        assert_eq!(want, have, "batched request {i} diverged over the wire");
    }
    server.shared().read(|odb| assert!(odb.staged().is_empty()));
    drop(remote);
    server.shutdown();
}

#[test]
fn disconnect_mid_stream_drains_work_and_contains_panics_to_the_shard() {
    let shared = shared_with_two_cvds(6);
    let server = NetServer::bind("127.0.0.1:0", shared.clone()).unwrap();
    let addr = server.local_addr();

    // Client A pipelines four checkouts and vanishes without collecting
    // most of the responses. The second checkout panics inside its worker
    // (injected via the same probe the in-process suite uses).
    arm_checkout_panic("__net_probe");
    let mut a = RemoteExecutor::connect(addr, "driver").unwrap();
    let t0 = a.submit(Checkout::of("left").version(1u64).into_table("l_ok"));
    let t1 = a.submit(Checkout::of("left").version(1u64).into_table("__net_probe"));
    let t2 = a.submit(Checkout::of("left").version(1u64).into_table("l_after"));
    let t3 = a.submit(Checkout::of("right").version(1u64).into_table("r_ok"));
    // Collect only the panicking response — the wire carries the typed
    // containment error — then drop the connection with t2/t3 uncollected.
    assert!(t0.wait_for(WAIT).expect("t0 response").is_ok());
    let poisoned = t1.wait_for(WAIT).expect("t1 response");
    disarm_checkout_panic();
    assert!(
        matches!(poisoned, Err(CoreError::WorkerPanicked { ref shard }) if shard == "left"),
        "{poisoned:?}"
    );
    drop((t2, t3));
    drop(a);

    // Client B finds a healthy server. The panicked checkout's
    // reservation was released before its error went out, so the name is
    // free again immediately.
    let mut b = RemoteExecutor::connect(addr, "driver").unwrap();
    b.execute(
        Checkout::of("left")
            .version(1u64)
            .into_table("__net_probe")
            .into(),
    )
    .unwrap();
    // The disconnect did not cancel accepted work: the right-shard
    // checkout (uncollected by A) drains to a staged table the same user
    // can commit once it lands.
    let deadline = Instant::now() + WAIT;
    loop {
        match b.execute(Commit::table("r_ok").message("other shard").into()) {
            Ok(response) => {
                assert!(response.version().is_some());
                break;
            }
            Err(CoreError::NotStaged(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("right-shard work was not drained: {e}"),
        }
    }
    // `l_after` was in flight behind the panic: it was either poisoned
    // with it (name released — a fresh checkout succeeds) or had already
    // executed (staged — the commit succeeds). Either way the name must
    // end up usable on a serving shard.
    let deadline = Instant::now() + WAIT;
    loop {
        let checkout = b.execute(
            Checkout::of("left")
                .version(1u64)
                .into_table("l_after")
                .into(),
        );
        if checkout.is_ok() {
            break;
        }
        let commit = b.execute(Commit::table("l_after").message("drained").into());
        if commit.is_ok() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "l_after never became usable: {checkout:?} / {commit:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // A's surviving same-shard checkout kept its result and commits.
    b.execute(Commit::table("l_ok").message("survivor").into())
        .unwrap();
    shared.read(|odb| assert_eq!(odb.cvd("right").unwrap().num_versions(), 2));
    drop(b);
    server.shutdown();
}

#[test]
fn shutdown_mid_stream_resolves_accepted_work_and_refuses_late_frames() {
    let shared = shared_with_two_cvds(4);
    let server = NetServer::bind("127.0.0.1:0", shared).unwrap();
    let addr = server.local_addr();
    let mut remote = RemoteExecutor::connect(addr, "driver").unwrap();

    let mut tickets = Vec::new();
    for i in 0..4 {
        tickets.push(
            remote.submit(
                Checkout::of("left")
                    .version(1u64)
                    .into_table(format!("s{i}")),
            ),
        );
        tickets.push(remote.submit(Commit::table(format!("s{i}")).message("pre-shutdown")));
    }
    // The first pair has round-tripped, so the stream is live and at least
    // some of it was accepted when the shutdown begins. (A ticket's result
    // is one-shot, so each is waited exactly once.)
    let mut tickets = tickets.into_iter();
    let first = tickets.next().unwrap();
    let second = tickets.next().unwrap();
    assert!(first.wait_for(WAIT).expect("first checkout").is_ok());
    assert!(second.wait_for(WAIT).expect("first commit").is_ok());
    server.begin_shutdown();

    // Every in-flight ticket resolves: accepted work drains to a real
    // response, anything the reader had not yet accepted gets the typed
    // refusal — nothing hangs, nothing is dropped.
    for (i, ticket) in tickets.enumerate() {
        let outcome = ticket
            .wait_for(WAIT)
            .unwrap_or_else(|| panic!("ticket {i} never resolved during shutdown"));
        match outcome {
            Ok(_) => {}
            Err(CoreError::Network(m)) => {
                assert!(m.contains("shutting down"), "ticket {i}: {m}")
            }
            Err(e) => panic!("ticket {i}: unexpected error {e}"),
        }
    }

    // Once the grace window is armed, late frames are refused cleanly.
    std::thread::sleep(Duration::from_millis(300));
    match remote.execute(Request::Ls) {
        Err(CoreError::Network(m)) => assert!(m.contains("shutting down"), "{m}"),
        other => panic!("late frame should be refused, got {other:?}"),
    }
    drop(remote);
    server.shutdown();

    // The listener is gone: new connections fail with a typed error.
    match RemoteExecutor::connect(addr, "driver") {
        Err(CoreError::Network(_)) => {}
        other => panic!("connect after shutdown should fail, got {other:?}"),
    }
}

#[test]
fn a_hung_server_becomes_a_clean_timeout_not_an_infinite_block() {
    // A stub that completes the handshake and then never answers anything.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = read_frame(&mut stream, MAX_FRAME).unwrap().unwrap();
        let user = match hello {
            Frame::Hello { user, .. } => user,
            other => panic!("expected hello, got {other:?}"),
        };
        write_frame(
            &mut stream,
            &Frame::Welcome {
                version: PROTOCOL_VERSION,
                user,
                session: 1,
                resumed: false,
            },
        )
        .unwrap();
        // Swallow frames until the client hangs up.
        while let Ok(Some(_)) = read_frame(&mut stream, MAX_FRAME) {}
    });

    let mut remote =
        RemoteExecutor::connect_with(addr, "driver", Duration::from_millis(200)).unwrap();
    let started = Instant::now();
    match remote.execute(Request::Ls) {
        Err(CoreError::ResponseTimeout { waited_ms, state }) => {
            assert_eq!(waited_ms, 200);
            // The timeout names the last-known link state: still connected,
            // with the hung request in flight.
            assert!(state.contains("connected"), "{state}");
            assert!(state.contains("in flight"), "{state}");
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(10));
    drop(remote);
    stub.join().unwrap();
}

#[test]
fn handshake_refuses_a_wrong_protocol_version_by_name() {
    let server = NetServer::bind("127.0.0.1:0", SharedOrpheusDB::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(
        &mut raw,
        &Frame::Hello {
            version: PROTOCOL_VERSION + 41,
            user: "driver".to_string(),
            resume: None,
        },
    )
    .unwrap();
    match read_frame(&mut raw, MAX_FRAME).unwrap().unwrap() {
        Frame::Resp { id: 0, outcomes } => match outcomes.into_iter().next().unwrap() {
            Err(CoreError::Protocol(m)) => {
                assert!(m.contains("version"), "{m}");
                assert!(m.contains(&PROTOCOL_VERSION.to_string()), "{m}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        },
        other => panic!("expected a terminal response, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn an_oversized_frame_is_refused_with_a_protocol_error() {
    use std::io::Write as _;
    let server = NetServer::bind("127.0.0.1:0", SharedOrpheusDB::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(
        &mut raw,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            user: "driver".to_string(),
            resume: None,
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut raw, MAX_FRAME).unwrap().unwrap(),
        Frame::Welcome { .. }
    ));
    // A length prefix promising more than the server's frame cap.
    raw.write_all(&((MAX_FRAME + 1) as u32).to_be_bytes())
        .unwrap();
    raw.flush().unwrap();
    match read_frame(&mut raw, MAX_FRAME).unwrap().unwrap() {
        Frame::Resp { id: 0, outcomes } => match outcomes.into_iter().next().unwrap() {
            Err(CoreError::Protocol(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("expected a protocol error, got {other:?}"),
        },
        other => panic!("expected a terminal response, got {other:?}"),
    }
    // The connection is closed afterwards; nothing else arrives.
    assert!(read_frame(&mut raw, MAX_FRAME).unwrap().is_none());
    server.shutdown();
}

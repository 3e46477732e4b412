//! The MVCC snapshot acceptance suite: reads never wait on (or tear
//! under) a writer, and cross-CVD writes are atomic transactions.
//!
//! The deterministic tests park a committer *inside* the shard write lock
//! with the core's test-only commit gate
//! (`orpheus_core::concurrent::arm_commit_gate`) and prove that reads on
//! the same CVD still complete — and see exactly the pre-commit state,
//! never a torn one — while a checkout, which is a writer, waits. The
//! storm tests are scheduler-driven; their iteration counts are modest by
//! default and scale up under `ORPHEUS_STRESS=1` (the CI stress job),
//! matching the `concurrent_sessions` convention. The lock-order
//! rationale lives in `docs/CONCURRENCY.md`.

use orpheusdb::core::concurrent::arm_commit_gate;
use orpheusdb::prelude::*;

/// The commit gate is one process-global slot; tests that arm it must
/// not overlap or one test's committer parks on another's gate. Each
/// gated test holds this for its whole body (poisoning is benign: a
/// failed gated test must not cascade).
static GATE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Iteration multiplier: 1 normally, larger under `ORPHEUS_STRESS=1`.
fn stress(base: usize) -> usize {
    match std::env::var("ORPHEUS_STRESS").as_deref() {
        Ok("1") => base * 12,
        _ => base,
    }
}

fn cvd_schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .with_primary_key(&["k"])
    .unwrap()
}

/// A shared instance holding `names`, each CVD seeded with 10 rows.
fn shared_with_cvds(names: &[&str]) -> SharedOrpheusDB {
    let mut odb = OrpheusDB::new();
    for name in names {
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![i.into(), 0.into()]).collect();
        odb.init_cvd(name, cvd_schema(), rows, None).unwrap();
    }
    SharedOrpheusDB::new(odb)
}

fn scalar(result: &orpheusdb::engine::QueryResult) -> i64 {
    match result.scalar() {
        Some(Value::Int(n)) => *n,
        other => panic!("expected an integer scalar, got {other:?}"),
    }
}

/// While a commit is parked inside the shard write lock, every read on
/// that CVD completes on the snapshot and sees the *pre-commit* graph —
/// old, consistent, never torn. After release, the same reads see the new
/// version.
#[test]
fn mvcc_reads_during_a_held_commit_see_the_old_graph_never_a_torn_one() {
    let _serial = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shared = shared_with_cvds(&["data"]);
    let writer = shared.session("writer").unwrap();
    writer.checkout("data", &[Vid(1)], "w").unwrap();
    writer.run("UPDATE w SET v = 9 WHERE k = 0").unwrap();

    let gate = arm_commit_gate("w");
    let committed = std::thread::scope(|scope| {
        let handle = scope.spawn(|| writer.commit("w", "gated"));
        gate.wait_entered();

        // The committer holds the CVD write lock right now; none of the
        // reads below may block, and all must see version 1 only.
        let mut reader = shared.session("reader").unwrap();
        let history = match reader.execute(Log::of("data").into()).unwrap() {
            Response::Log { entries, .. } => entries,
            other => panic!("log returned {other:?}"),
        };
        assert_eq!(history.len(), 1, "mid-commit log sees the old graph");

        let rows = reader
            .run("SELECT count(*) FROM VERSION 1 OF CVD data")
            .unwrap();
        assert_eq!(scalar(&rows), 10);
        // The staged edit is the writer's private state: invisible to the
        // reader's snapshot even while its commit is in flight.
        let unchanged = reader
            .run("SELECT count(*) FROM VERSION 1 OF CVD data WHERE v = 0")
            .unwrap();
        assert_eq!(scalar(&unchanged), 10, "no torn read of the staged edit");
        assert_eq!(reader.version_rows("data", Vid(1)).unwrap().len(), 10);

        gate.release();
        handle.join().expect("committer panicked").unwrap()
    });

    assert_eq!(committed, Vid(2));
    let reader = shared.session("reader").unwrap();
    let after = reader
        .run("SELECT count(*) FROM VERSION 2 OF CVD data WHERE v = 9")
        .unwrap();
    assert_eq!(scalar(&after), 1, "post-release reads see the new version");
}

/// A checkout creates a table, so it is a writer: issued while another
/// session's commit holds the CVD's write lock, it waits for the release,
/// then holds the right rows and commits as a sibling. `log`, `diff`,
/// `SELECT` and `version_rows` issued in the same window do not wait.
#[test]
fn mvcc_checkout_waits_for_a_held_commit_while_snapshot_reads_do_not() {
    let _serial = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shared = shared_with_cvds(&["data"]);
    let writer = shared.session("writer").unwrap();
    writer.checkout("data", &[Vid(1)], "w").unwrap();
    let reader = shared.session("reader").unwrap();

    let gate = arm_commit_gate("w");
    std::thread::scope(|scope| {
        let committer = scope.spawn(|| writer.commit("w", "gated"));
        gate.wait_entered();
        // Not on this thread: it blocks until the gate is released.
        let checkout = scope.spawn(|| reader.checkout("data", &[Vid(1)], "late"));

        let mut probe = shared.session("probe").unwrap();
        let history = match probe.execute(Log::of("data").into()).unwrap() {
            Response::Log { entries, .. } => entries,
            other => panic!("log returned {other:?}"),
        };
        assert_eq!(history.len(), 1, "mid-commit log sees the old graph");
        let diff = probe.diff("data", Vid(1), Vid(1)).unwrap();
        assert!(diff.only_in_first.is_empty() && diff.only_in_second.is_empty());
        let rows = probe
            .run("SELECT count(*) FROM VERSION 1 OF CVD data")
            .unwrap();
        assert_eq!(scalar(&rows), 10);
        assert_eq!(probe.version_rows("data", Vid(1)).unwrap().len(), 10);
        assert!(
            !checkout.is_finished(),
            "a checkout cannot complete while a commit holds its CVD's lock"
        );

        gate.release();
        assert_eq!(
            committer.join().expect("committer panicked").unwrap(),
            Vid(2)
        );
        checkout.join().expect("checkout panicked").unwrap();
    });

    let count = reader.run("SELECT count(*) FROM late").unwrap();
    assert_eq!(scalar(&count), 10);
    reader.run("UPDATE late SET v = 5 WHERE k = 1").unwrap();
    assert_eq!(reader.commit("late", "sibling").unwrap(), Vid(3));
    shared.read(|odb| {
        let log = odb.log_entries("data").unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log[2].parents, vec![Vid(1)], "v3 is a sibling of v2");
        assert!(odb.staged().is_empty(), "no leaked staged tables");
    });
}

/// A cross-CVD write that waits on a held commit waits without the
/// catalog lock. Were it to hold the catalog shared while it waits, a
/// checkout queued for the catalog's write lock would hold back the
/// routing of every later request — here, a snapshot read of a CVD that
/// neither touches — until the commit is released.
#[test]
fn mvcc_a_write_waiting_on_a_held_commit_does_not_hold_back_routing() {
    use std::time::Duration;
    let _serial = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shared = shared_with_cvds(&["left", "right"]);
    let writer = shared.session("writer").unwrap();
    writer.checkout("left", &[Vid(1)], "wl").unwrap();
    // Opening a session writes the catalog: open every one up front.
    let copier = shared.session("copier").unwrap();
    let reader = shared.session("reader").unwrap();
    let probe = shared.session("probe").unwrap();

    let gate = arm_commit_gate("wl");
    std::thread::scope(|scope| {
        let committer = scope.spawn(|| writer.commit("wl", "gated"));
        gate.wait_entered();
        // The pauses let the copy reach its wait on `left` and the
        // checkout queue behind it, the order in which a catalog held
        // across the wait stalls the read below. No hook reports either
        // wait, and the read must answer in every order.
        let copy = scope.spawn(|| copier.run("SELECT * INTO side_copy FROM VERSION 1 OF CVD left"));
        std::thread::sleep(Duration::from_millis(100));
        let checkout = scope.spawn(|| reader.checkout("right", &[Vid(1)], "wr"));
        std::thread::sleep(Duration::from_millis(100));

        // Not on this thread: if routing stalls, it would wait for a
        // release only this thread can give.
        let (tx, rx) = std::sync::mpsc::channel();
        let read = scope.spawn(move || {
            let rows = probe.run("SELECT count(*) FROM VERSION 1 OF CVD right");
            let _ = tx.send(());
            rows
        });
        let answered = rx.recv_timeout(Duration::from_secs(2)).is_ok();
        let held = !committer.is_finished();
        gate.release();
        assert!(
            answered && held,
            "a snapshot read of right must answer while the commit on left is held"
        );

        assert_eq!(scalar(&read.join().expect("read panicked").unwrap()), 10);
        assert_eq!(
            committer.join().expect("committer panicked").unwrap(),
            Vid(2)
        );
        copy.join().expect("copy panicked").unwrap();
        checkout.join().expect("checkout panicked").unwrap();
    });

    let rows = reader.run("SELECT count(*) FROM side_copy").unwrap();
    assert_eq!(scalar(&rows), 10);
    assert_eq!(scalar(&reader.run("SELECT count(*) FROM wr").unwrap()), 10);
}

/// A checkout whose name a writer takes *under the lock the checkout is
/// waiting for* (`SELECT .. INTO` creates an unregistered table, invisible
/// to the catalog reservation until it is published) fails for the caller
/// who asked for it — "already exists" — and for nobody else: the
/// writer's batch succeeds and no snapshot read ever errors.
#[test]
fn mvcc_checkout_colliding_with_a_table_made_under_the_lock_fails_only_its_caller() {
    let _serial = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shared = shared_with_cvds(&["data"]);
    let mut writer = shared.session("writer").unwrap();
    writer.checkout("data", &[Vid(1)], "w").unwrap();
    let reader = shared.session("reader").unwrap();
    let probe = shared.session("probe").unwrap();
    let snapshot_reads = |when: &str| {
        assert_eq!(
            probe.version_rows("data", Vid(1)).unwrap().len(),
            10,
            "{when}"
        );
        let rows = probe.run("SELECT count(*) FROM VERSION 1 OF CVD data");
        assert_eq!(scalar(&rows.unwrap()), 10, "{when}");
    };

    let gate = arm_commit_gate("w");
    std::thread::scope(|scope| {
        // One lock acquisition: create `clash`, then hold the commit open.
        let committer = scope.spawn(|| {
            writer.batch([
                Run::sql("SELECT * INTO clash FROM w").into(),
                Commit::table("w").message("gated").into(),
            ])
        });
        gate.wait_entered();
        let checkout = scope.spawn(|| reader.checkout("data", &[Vid(1)], "clash"));
        snapshot_reads("while the commit is held");
        gate.release();

        for result in committer.join().expect("committer panicked") {
            result.unwrap();
        }
        let err = checkout.join().expect("checkout panicked").unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
    });

    snapshot_reads("after the refused checkout");
    // Nothing of the refused checkout is left: it is not staged, and its
    // reservation is gone — a second attempt is refused for the table
    // that now exists, not for a name that is "already staged".
    assert!(matches!(
        reader.commit("clash", "never staged").unwrap_err(),
        CoreError::NotStaged(_)
    ));
    let err = reader.checkout("data", &[Vid(2)], "clash").unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
}

/// A write joining checkouts of two different CVDs is a cross-CVD write
/// transaction — it succeeds (no `CrossCvd` refusal) and both sides'
/// effects land atomically.
#[test]
fn mvcc_cross_cvd_writes_commit_atomically() {
    let shared = shared_with_cvds(&["left", "right"]);
    let session = shared.session("u").unwrap();
    session.checkout("left", &[Vid(1)], "lw").unwrap();
    session.checkout("right", &[Vid(1)], "rw").unwrap();

    // One statement reads `rw` (right's shard) while writing `lw` (left's
    // shard): the executor locks both shards in sorted key order.
    session
        .run("UPDATE lw SET v = (SELECT count(*) FROM rw) WHERE k = 0")
        .unwrap();
    let joined = session.run("SELECT count(*) FROM lw WHERE v = 10").unwrap();
    assert_eq!(scalar(&joined), 1, "the joined write applied");

    session.run("UPDATE rw SET v = 1 WHERE k = 3").unwrap();
    assert_eq!(session.commit("lw", "left edit").unwrap(), Vid(2));
    assert_eq!(session.commit("rw", "right edit").unwrap(), Vid(2));
    shared.read(|odb| {
        assert_eq!(odb.log_entries("left").unwrap().len(), 2);
        assert_eq!(odb.log_entries("right").unwrap().len(), 2);
        assert!(odb.staged().is_empty());
    });
}

/// A failing cross-CVD statement leaves *neither* shard modified: the
/// transaction merges its shard copies, and an error discards the merged
/// state instead of writing half of it back.
#[test]
fn mvcc_cross_cvd_write_failure_leaves_both_shards_untouched() {
    let shared = shared_with_cvds(&["left", "right"]);
    let session = shared.session("u").unwrap();
    session.checkout("left", &[Vid(1)], "lw").unwrap();
    session.checkout("right", &[Vid(1)], "rw").unwrap();

    // Type error: `v` is an int column. The statement routes to both
    // shards (reads rw, writes lw) and must fail without side effects.
    let err = session.run("UPDATE lw SET v = (SELECT count(*) FROM rw) + 'x' WHERE k = 0");
    assert!(err.is_err(), "the malformed cross-CVD write must fail");

    let left = session.run("SELECT count(*) FROM lw WHERE v = 0").unwrap();
    let right = session.run("SELECT count(*) FROM rw WHERE v = 0").unwrap();
    assert_eq!(scalar(&left), 10, "left shard untouched after the failure");
    assert_eq!(
        scalar(&right),
        10,
        "right shard untouched after the failure"
    );
}

/// Deadlock storm: threads hammer cross-CVD writes over overlapping CVD
/// pairs in *opposite* textual orders. The sorted-key lock order makes
/// the opposite orders irrelevant; the test passing (rather than hanging)
/// is the assertion. Scaled up under `ORPHEUS_STRESS=1`.
#[test]
fn mvcc_opposed_cross_cvd_writers_never_deadlock() {
    const PAIRS: [(&str, &str); 2] = [("alpha", "beta"), ("beta", "alpha")];
    let rounds = stress(4);
    let shared = shared_with_cvds(&["alpha", "beta"]);

    std::thread::scope(|scope| {
        for (t, (first, second)) in PAIRS.iter().enumerate() {
            let shared = shared.clone();
            scope.spawn(move || {
                let session = shared.session(&format!("u{t}")).unwrap();
                for i in 0..rounds {
                    let a = format!("u{t}_a{i}");
                    let b = format!("u{t}_b{i}");
                    session.checkout(first, &[Vid(1)], &a).unwrap();
                    session.checkout(second, &[Vid(1)], &b).unwrap();
                    // Reads `b`'s shard while writing `a`'s: the executor
                    // locks both, always in sorted order regardless of
                    // this thread's textual order.
                    session
                        .run(&format!(
                            "UPDATE {a} SET v = (SELECT count(*) FROM {b}) WHERE k = 0"
                        ))
                        .unwrap();
                    session.commit(&a, &format!("u{t} round {i}")).unwrap();
                    session.discard(&b).unwrap();
                }
            });
        }
    });

    shared.read(|odb| {
        assert_eq!(odb.log_entries("alpha").unwrap().len(), 1 + rounds);
        assert_eq!(odb.log_entries("beta").unwrap().len(), 1 + rounds);
        assert!(odb.staged().is_empty());
    });
}

/// Readers stream snapshot reads while a writer streams commits on the
/// same CVD; afterwards the graph matches a sequential replay exactly.
/// Scheduler-driven companion to the deterministic gated tests above;
/// scaled up under `ORPHEUS_STRESS=1`.
#[test]
fn mvcc_snapshot_readers_never_disturb_a_streaming_writer() {
    let rounds = stress(4);
    let shared = shared_with_cvds(&["data"]);

    std::thread::scope(|scope| {
        let writer = shared.clone();
        scope.spawn(move || {
            let session = writer.session("writer").unwrap();
            for i in 0..rounds {
                let table = format!("w{i}");
                session.checkout("data", &[Vid(1)], &table).unwrap();
                session
                    .run(&format!("UPDATE {table} SET v = {i} WHERE k = 0"))
                    .unwrap();
                session.commit(&table, &format!("round {i}")).unwrap();
            }
        });
        for r in 0..2 {
            let shared = shared.clone();
            scope.spawn(move || {
                let session = shared.session(&format!("reader{r}")).unwrap();
                for _ in 0..rounds * 3 {
                    let rows = session
                        .run("SELECT count(*) FROM VERSION 1 OF CVD data")
                        .unwrap();
                    assert_eq!(scalar(&rows), 10, "version 1 is immutable");
                    session.diff("data", Vid(1), Vid(1)).unwrap();
                }
            });
        }
    });

    // Sequential replay of the writer's script on a fresh instance.
    let reference = shared_with_cvds(&["data"]);
    {
        let session = reference.session("writer").unwrap();
        for i in 0..rounds {
            let table = format!("w{i}");
            session.checkout("data", &[Vid(1)], &table).unwrap();
            session
                .run(&format!("UPDATE {table} SET v = {i} WHERE k = 0"))
                .unwrap();
            session.commit(&table, &format!("round {i}")).unwrap();
        }
    }
    let storm = shared.read(|odb| {
        odb.log_entries("data")
            .unwrap()
            .into_iter()
            .map(|e| (e.parents, e.num_records, e.message))
            .collect::<std::collections::BTreeSet<_>>()
    });
    let replay = reference.read(|odb| {
        odb.log_entries("data")
            .unwrap()
            .into_iter()
            .map(|e| (e.parents, e.num_records, e.message))
            .collect::<std::collections::BTreeSet<_>>()
    });
    assert_eq!(storm, replay, "reader storm must not disturb the graph");
}

/// `Executor::batch` equals the sequential `execute` loop on a request
/// vector whose writes span two CVDs — the batch planner's cross-CVD
/// write steps preserve sequential semantics exactly.
#[test]
fn mvcc_batch_equals_sequential_for_multi_cvd_writes() {
    let script = || -> Vec<Request> {
        vec![
            Checkout::of("left").version(1u64).into_table("lw").into(),
            Checkout::of("right").version(1u64).into_table("rw").into(),
            // Pure snapshot reads, split into read-only steps.
            Run::sql("SELECT count(*) FROM VERSION 1 OF CVD left").into(),
            Log::of("right").into(),
            // The cross-CVD write: reads rw, writes lw.
            Run::sql("UPDATE lw SET v = (SELECT count(*) FROM rw) WHERE k = 0").into(),
            Run::sql("UPDATE rw SET v = 2 WHERE k = 1").into(),
            Commit::table("lw").message("left").into(),
            Commit::table("rw").message("right").into(),
            Diff::of("left").between(1u64, 2u64).into(),
        ]
    };
    let render = |results: Vec<Result<Response, CoreError>>| -> Vec<String> {
        results
            .into_iter()
            .map(|r| match r {
                Ok(resp) => format!("ok: {resp:?}"),
                Err(e) => format!("err: {e}"),
            })
            .collect()
    };

    let sequential = shared_with_cvds(&["left", "right"]);
    let mut s = sequential.session("u").unwrap();
    let expected: Vec<String> = render(script().into_iter().map(|r| s.execute(r)).collect());

    let batched = shared_with_cvds(&["left", "right"]);
    let got = render(batched.session("u").unwrap().batch(script()));
    assert_eq!(got, expected, "batch == sequential for multi-CVD writes");

    let graphs = |shared: &SharedOrpheusDB| {
        shared.read(|odb| {
            (
                odb.log_entries("left").unwrap().len(),
                odb.log_entries("right").unwrap().len(),
                odb.staged().len(),
            )
        })
    };
    assert_eq!(graphs(&sequential), (2, 2, 0));
    assert_eq!(graphs(&batched), (2, 2, 0));
}

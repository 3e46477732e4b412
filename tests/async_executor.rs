//! The async-executor acceptance suite — the [`Executor`] contract and the
//! worker-pool semantics of `orpheus_core::async_exec`:
//!
//! * (a) an [`AsyncHandle`] equals the sequential `execute` loop **result
//!   for result** on the full bus corpus (every request variant,
//!   successes and failures mixed), both request-at-a-time and pipelined
//!   through `batch`;
//! * (b) sequential barriers order catalog churn (CVD create/drop)
//!   exactly like the sequential loop, and concurrent handles mixing
//!   catalog churn with shard work leave a consistent instance;
//! * (c) a panicking worker poisons **only its shard's in-flight
//!   tickets**: completed requests keep their results, the other shard is
//!   untouched, reservations are released, and the shard keeps serving
//!   later submissions.

use orpheusdb::core::concurrent::{arm_checkout_panic, disarm_checkout_panic};
use orpheusdb::prelude::*;
use std::sync::Arc;

const CSV: &str = "id,score\n1,10\n2,20\n3,30\n";
const SCHEMA: &str = "id:int!pk\nscore:int\n";

/// The bus_roundtrip corpus as one request vector — same shape as
/// `tests/batch_semantics.rs`, self-contained so fresh instances can run
/// it as a loop or a single pipelined batch.
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

#[test]
fn handle_execute_loop_equals_the_sequential_loop_on_the_full_corpus() {
    let expected = sequential_outcomes();
    // Both pool modes: worker threads and coordinator-only (inline).
    for workers in [0, 2] {
        let pool = AsyncExecutor::with_workers(SharedOrpheusDB::new(OrpheusDB::new()), workers);
        let mut handle = pool.handle("driver").unwrap();
        let got: Vec<String> = corpus()
            .into_iter()
            .map(|r| render(&handle.execute(r)))
            .collect();
        assert_eq!(expected.len(), got.len());
        for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(want, have, "workers={workers}: request {i} diverged");
        }
        pool.shared().read(|odb| assert!(odb.staged().is_empty()));
    }
}

#[test]
fn pipelined_batch_equals_the_sequential_loop_on_the_full_corpus() {
    let expected = sequential_outcomes();
    for workers in [0, 2] {
        let pool = AsyncExecutor::with_workers(SharedOrpheusDB::new(OrpheusDB::new()), workers);
        let mut handle = pool.handle("driver").unwrap();
        let got: Vec<String> = handle.batch(corpus()).iter().map(render).collect();
        assert_eq!(expected.len(), got.len());
        for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(want, have, "workers={workers}: request {i} diverged");
        }
        pool.shared().read(|odb| assert!(odb.staged().is_empty()));
    }
}

/// Two CVDs under one shared instance, `n` rows each.
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

#[test]
fn barriers_order_catalog_churn_exactly_like_the_sequential_loop() {
    // A batch that interleaves shard work with CVD create/drop: the drops
    // and inits are sequential barriers, so everything before them must
    // land first and everything after must observe them — the checkout of
    // the dropped CVD fails, the checkout of the new CVD succeeds.
    let scenario = || -> Vec<Request> {
        let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
        vec![
            Checkout::of("left").version(1u64).into_table("l0").into(),
            Commit::table("l0").message("before churn").into(),
            DropCvd::named("right").into(),
            Checkout::of("right").version(1u64).into_table("r0").into(), // fails: dropped
            Init::cvd("fresh")
                .schema(schema)
                .rows(vec![vec![1.into()]])
                .into(),
            Checkout::of("fresh").version(1u64).into_table("f0").into(),
            Commit::table("f0").message("after churn").into(),
            Request::Ls,
        ]
    };

    let a = shared_with_two_cvds(6);
    let mut sequential = a.session("u").unwrap();
    let expected: Vec<String> = scenario()
        .into_iter()
        .map(|r| render(&sequential.execute(r)))
        .collect();

    for workers in [0, 2] {
        let b = shared_with_two_cvds(6);
        let pool = AsyncExecutor::with_workers(b.clone(), workers);
        let mut handle = pool.handle("u").unwrap();
        let got: Vec<String> = handle.batch(scenario()).iter().map(render).collect();
        assert_eq!(expected, got, "workers={workers}");
        b.read(|odb| {
            assert_eq!(odb.ls(), vec!["fresh", "left"]);
            assert_eq!(odb.cvd("left").unwrap().num_versions(), 2);
            assert_eq!(odb.cvd("fresh").unwrap().num_versions(), 2);
            assert!(odb.staged().is_empty());
        });
    }
}

#[test]
fn concurrent_handles_survive_mixed_catalog_churn() {
    let shared = shared_with_two_cvds(8);
    let pool = Arc::new(AsyncExecutor::with_workers(shared.clone(), 2));
    std::thread::scope(|scope| {
        // Two clients hammer the stable CVDs...
        for (user, cvd) in [("w0", "left"), ("w1", "right")] {
            let pool = Arc::clone(&pool);
            scope.spawn(move || {
                let handle = pool.handle(user).unwrap();
                for i in 0..4 {
                    let table = format!("{user}_{i}");
                    let t1 = handle.submit(Checkout::of(cvd).version(1u64).into_table(&table));
                    let t2 = handle.submit(Commit::table(&table).message(format!("{user} {i}")));
                    t1.wait().unwrap();
                    t2.wait().unwrap();
                }
            });
        }
        // ...while a third creates and drops CVDs (catalog barriers).
        let pool = Arc::clone(&pool);
        scope.spawn(move || {
            let handle = pool.handle("churn").unwrap();
            for i in 0..3 {
                let name = format!("temp{i}");
                let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
                let results = handle.clone().batch(vec![
                    Init::cvd(&name)
                        .schema(schema)
                        .rows(vec![vec![1.into()]])
                        .into(),
                    Checkout::of(&name)
                        .version(1u64)
                        .into_table(format!("t{i}"))
                        .into(),
                    Commit::table(format!("t{i}")).message("churn").into(),
                    DropCvd::named(&name).into(),
                ]);
                for (j, r) in results.iter().enumerate() {
                    assert!(r.is_ok(), "churn round {i} step {j}: {r:?}");
                }
            }
        });
    });
    shared.read(|odb| {
        assert_eq!(odb.ls(), vec!["left", "right"]);
        assert_eq!(odb.cvd("left").unwrap().num_versions(), 5);
        assert_eq!(odb.cvd("right").unwrap().num_versions(), 5);
        assert!(odb.staged().is_empty());
    });
}

#[test]
fn a_panicking_request_poisons_only_its_shards_in_flight_sub_batch() {
    for workers in [0, 2] {
        let shared = shared_with_two_cvds(6);
        let pool = AsyncExecutor::with_workers(shared.clone(), workers);
        let mut handle = pool.handle("u").unwrap();

        arm_checkout_panic("__panic_probe");
        let results = handle.batch(vec![
            // Same shard, before the panic: completes and keeps its result.
            Checkout::of("left").version(1u64).into_table("l_ok").into(),
            // The injected panic fires executing this checkout.
            Checkout::of("left")
                .version(1u64)
                .into_table("__panic_probe")
                .into(),
            // Same shard, in flight behind the panic: poisoned.
            Checkout::of("left")
                .version(1u64)
                .into_table("l_after")
                .into(),
            // A different shard: completely unaffected.
            Checkout::of("right")
                .version(1u64)
                .into_table("r_ok")
                .into(),
        ]);
        disarm_checkout_panic();

        assert!(results[0].is_ok(), "workers={workers}: {:?}", results[0]);
        assert!(
            matches!(results[1], Err(CoreError::WorkerPanicked { ref shard }) if shard == "left"),
            "workers={workers}: {:?}",
            results[1]
        );
        assert!(
            matches!(results[2], Err(CoreError::WorkerPanicked { .. })),
            "workers={workers}: {:?}",
            results[2]
        );
        assert!(results[3].is_ok(), "workers={workers}: {:?}", results[3]);

        // The poisoned requests' reservations were released and the shard
        // keeps serving: the same names check out cleanly afterwards.
        handle
            .execute(
                Checkout::of("left")
                    .version(1u64)
                    .into_table("__panic_probe")
                    .into(),
            )
            .unwrap();
        handle
            .execute(
                Checkout::of("left")
                    .version(1u64)
                    .into_table("l_after")
                    .into(),
            )
            .unwrap();
        let committed = handle
            .execute(Commit::table("l_ok").message("survivor").into())
            .unwrap();
        assert_eq!(committed.version(), Some(Vid(2)));

        shared.read(|odb| {
            // l_ok was committed; the probe names were re-staged above.
            assert_eq!(odb.staged().len(), 3, "workers={workers}");
        });
    }

    // The direct path runs the same engine: a panic inside a `Session`
    // request is the same typed error, not an unwind through the caller
    // (in this test, not a second one, because the hook is one global).
    let shared = shared_with_two_cvds(6);
    let session = shared.session("u").unwrap();
    arm_checkout_panic("__panic_probe");
    let err = session
        .checkout("left", &[Vid(1)], "__panic_probe")
        .unwrap_err();
    disarm_checkout_panic();
    assert!(
        matches!(err, CoreError::WorkerPanicked { ref shard } if shard == "left"),
        "{err}"
    );
    // The reservation was released and the shard serves the next request.
    session
        .checkout("left", &[Vid(1)], "__panic_probe")
        .unwrap();
    assert_eq!(session.commit("__panic_probe", "after").unwrap(), Vid(2));
}

//! The batching acceptance suite: [`Executor::batch`] keeps its contract
//! on every executor —
//!
//! * (a) responses come back in **submission order**, even when the batch
//!   mixes requests to several CVDs and the executor groups them per
//!   shard;
//! * (b) a mid-batch error fails **only its own request** — later
//!   requests still execute;
//! * (c) `batch` equals the sequential `execute` loop **result for
//!   result** on the `bus_roundtrip` corpus (every request variant,
//!   successes and failures mixed), for `OrpheusDB`, a `Session`, and a
//!   bare `ConcurrentExecutor`;
//! * (d) repeated merged exports and checkouts of one version set, before
//!   and after a commit that adds a column, return the same *contents*
//!   batched as looped — full CSV text and every row — on `OrpheusDB`, on
//!   a `Session` and on an `AsyncHandle`.
//!
//! No executor plans a batch: a `Session`'s batch is the plain `execute`
//! loop, and an `AsyncHandle` queues its submission for a worker thread,
//! which runs it request by request. That is a different path to the same
//! contract, so every scenario that batches a `Session` also batches an
//! `AsyncHandle` on a fresh instance.

use orpheusdb::prelude::*;

const CSV: &str = "id,score\n1,10\n2,20\n3,30\n";
const SCHEMA: &str = "id:int!pk\nscore:int\n";

/// The bus_roundtrip corpus as one request vector: every variant of the
/// command set, with deliberate failures mixed in. Self-contained (the
/// edited CSV text is spelled out instead of being derived from the
/// export response), so the same vector can drive a sequential loop and a
/// single batch on fresh instances.
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
        // Failures, deliberately mid-stream: unknown version, never-staged
        // table, unknown CVD in versioned SQL.
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

/// Render one outcome for comparison: the canonical summary for
/// successes, the error text for failures.
fn render(result: &Result<Response, CoreError>) -> String {
    match result {
        Ok(response) => response.summary(),
        Err(e) => format!("error: {e}"),
    }
}

/// Drive `corpus()` through a sequential `execute` loop on one fresh
/// executor and through one `batch` call on another, and require the
/// rendered outcomes to agree position by position.
fn assert_batch_equals_sequential<E: Executor>(label: &str, mut sequential: E, mut batched: E) {
    let sequential_results: Vec<String> = corpus()
        .into_iter()
        .map(|r| render(&sequential.execute(r)))
        .collect();
    let batched_results: Vec<String> = batched.batch(corpus()).iter().map(render).collect();
    assert_eq!(
        sequential_results.len(),
        batched_results.len(),
        "{label}: one outcome per request"
    );
    for (i, (seq, bat)) in sequential_results.iter().zip(&batched_results).enumerate() {
        assert_eq!(seq, bat, "{label}: request {i} diverged");
    }
}

#[test]
fn batch_equals_sequential_loop_on_orpheusdb() {
    assert_batch_equals_sequential("OrpheusDB", OrpheusDB::new(), OrpheusDB::new());
}

#[test]
fn batch_equals_sequential_loop_on_session() {
    let a = SharedOrpheusDB::new(OrpheusDB::new());
    let b = SharedOrpheusDB::new(OrpheusDB::new());
    assert_batch_equals_sequential(
        "Session",
        a.session("driver").unwrap(),
        b.session("driver").unwrap(),
    );
    // Nothing staged leaks from either path (reservations were released).
    a.read(|odb| assert!(odb.staged().is_empty()));
    b.read(|odb| assert!(odb.staged().is_empty()));
}

#[test]
fn batch_equals_sequential_loop_on_concurrent_executor() {
    let a = SharedOrpheusDB::new(OrpheusDB::new());
    let b = SharedOrpheusDB::new(OrpheusDB::new());
    assert_batch_equals_sequential(
        "ConcurrentExecutor",
        a.executor("driver").unwrap(),
        b.executor("driver").unwrap(),
    );
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

/// One batched arm: its label, its instance, and its outcomes.
type Arm = (
    &'static str,
    SharedOrpheusDB,
    Vec<Result<Response, CoreError>>,
);

/// A fresh two-CVD instance, `n` rows each, batched once through a
/// `Session` and once through an `AsyncHandle`: the two ways a shared
/// instance takes a batch.
fn batch_both_ways(n: i64, requests: &dyn Fn() -> Vec<Request>) -> Vec<Arm> {
    let session = shared_with_two_cvds(n);
    let session_results = session.session("u").unwrap().batch(requests());
    let handle = shared_with_two_cvds(n);
    let pool = AsyncExecutor::new(handle.clone());
    let handle_results = pool.handle("u").unwrap().batch(requests());
    vec![
        ("Session", session, session_results),
        ("AsyncHandle", handle, handle_results),
    ]
}

#[test]
fn responses_come_back_in_submission_order_across_shards() {
    // Interleave the two CVDs so per-shard grouping has to reorder
    // execution — the responses must still answer their submission slots.
    let requests = || -> Vec<Request> {
        vec![
            Checkout::of("left").version(1u64).into_table("l0").into(),
            Checkout::of("right").version(1u64).into_table("r0").into(),
            Run::sql("SELECT count(*) FROM VERSION 1 OF CVD right").into(),
            Commit::table("l0").message("left one").into(),
            Commit::table("r0").message("right one").into(),
            Checkout::of("right").version(2u64).into_table("r1").into(),
            Run::sql("SELECT count(*) FROM VERSION 1 OF CVD left").into(),
            Commit::table("r1").message("right two").into(),
            Log::of("left").into(),
        ]
    };
    let expected = [
        "checked out v1 into table l0",
        "checked out v1 into table r0",
        "1 row(s)",
        "committed l0 as v2",
        "committed r0 as v2",
        "checked out v2 into table r1",
        "1 row(s)",
        "committed r1 as v3",
    ];
    for (label, shared, results) in batch_both_ways(12, &requests) {
        assert_eq!(results.len(), 9, "{label}");
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(&render(&results[i]), want, "{label}: slot {i}");
        }
        assert!(
            matches!(&results[8], Ok(Response::Log { cvd, entries }) if cvd == "left" && entries.len() == 2),
            "{label}: {:?}",
            results[8]
        );
        shared.read(|odb| {
            assert_eq!(odb.cvd("left").unwrap().num_versions(), 2, "{label}");
            assert_eq!(odb.cvd("right").unwrap().num_versions(), 3, "{label}");
            assert!(odb.staged().is_empty(), "{label}");
        });
    }
}

/// Run `scenario` through a sequential loop on a fresh two-CVD instance,
/// then as one batch through a `Session` and through an `AsyncHandle` on
/// fresh instances of their own, requiring identical outcomes; returns the
/// two batched instances for extra assertions.
fn assert_scenario_agrees(scenario: &dyn Fn() -> Vec<Request>) -> Vec<SharedOrpheusDB> {
    let a = shared_with_two_cvds(6);
    let mut sequential = a.session("u").unwrap();
    let seq: Vec<String> = scenario()
        .into_iter()
        .map(|r| render(&sequential.execute(r)))
        .collect();
    batch_both_ways(6, scenario)
        .into_iter()
        .map(|(label, shared, results)| {
            let bat: Vec<String> = results.iter().map(render).collect();
            assert_eq!(seq, bat, "{label}");
            shared
        })
        .collect()
}

#[test]
fn same_name_collisions_inside_a_batch_match_the_sequential_loop() {
    // A commit of a name two checkouts fought over must land in the shard
    // of the checkout that actually won (the first), not the doomed one.
    let batched = assert_scenario_agrees(&|| {
        vec![
            Checkout::of("left").version(1u64).into_table("t").into(),
            Checkout::of("right").version(1u64).into_table("t").into(),
            Commit::table("t").message("m").into(),
        ]
    });
    for shared in batched {
        shared.read(|odb| {
            assert_eq!(odb.cvd("left").unwrap().num_versions(), 2);
            assert_eq!(odb.cvd("right").unwrap().num_versions(), 1);
        });
    }

    // A failing first checkout must not poison a same-name retry later in
    // the batch: sequentially the retry succeeds, so batched it must too.
    let batched = assert_scenario_agrees(&|| {
        vec![
            Checkout::of("left").version(99u64).into_table("x").into(),
            Checkout::of("left").version(1u64).into_table("x").into(),
        ]
    });
    for shared in batched {
        shared.read(|odb| assert_eq!(odb.staged().len(), 1));
    }
}

#[test]
fn a_mid_batch_error_does_not_abort_later_requests() {
    for label in ["direct", "session", "async"] {
        let requests: Vec<Request> = vec![
            InitFromCsv::cvd("d").csv(CSV).schema_text(SCHEMA).into(),
            Checkout::of("d").version(7u64).into_table("bad").into(), // fails
            Checkout::of("d").version(1u64).into_table("good").into(),
            Commit::table("bad").message("never staged").into(), // fails
            Commit::table("good").message("lands").into(),
            Run::sql("SELECT count(*) FROM VERSION 2 OF CVD d").into(),
        ];
        let results = match label {
            "session" => {
                let shared = SharedOrpheusDB::new(OrpheusDB::new());
                shared.session("u").unwrap().batch(requests)
            }
            "async" => {
                let pool = AsyncExecutor::new(SharedOrpheusDB::new(OrpheusDB::new()));
                pool.handle("u").unwrap().batch(requests)
            }
            _ => OrpheusDB::new().batch(requests),
        };
        assert!(results[0].is_ok(), "{label}: {:?}", results[0]);
        assert!(
            matches!(results[1], Err(CoreError::VersionNotFound { .. })),
            "{label}: {:?}",
            results[1]
        );
        assert!(results[2].is_ok(), "{label}: {:?}", results[2]);
        assert!(
            matches!(results[3], Err(CoreError::NotStaged(_))),
            "{label}: {:?}",
            results[3]
        );
        assert_eq!(
            results[4].as_ref().unwrap().version(),
            Some(Vid(2)),
            "{label}"
        );
        assert_eq!(
            results[5].as_ref().unwrap().rows().unwrap().scalar(),
            Some(&Value::Int(3)),
            "{label}"
        );
    }
}

#[test]
fn repeated_checkouts_in_one_batch_each_stage_the_whole_version() {
    // Four checkouts of the same version inside one batch each stage a
    // table holding all of the version's rows, and any of them commits
    // back as a faithful new version.
    let requests = || -> Vec<Request> {
        let checkouts = (0..4).map(|i| {
            Checkout::of("left")
                .version(1u64)
                .into_table(format!("w{i}"))
                .into()
        });
        let counts = (0..4).map(|i| Run::sql(format!("SELECT count(*) FROM w{i}")).into());
        checkouts.chain(counts).collect()
    };
    for (label, shared, results) in batch_both_ways(10, &requests) {
        for (i, r) in results.iter().enumerate() {
            assert!(r.is_ok(), "{label}: request {i}: {r:?}");
        }
        for r in &results[4..] {
            assert_eq!(
                r.as_ref().unwrap().rows().unwrap().scalar(),
                Some(&Value::Int(10)),
                "{label}"
            );
        }
        let session = shared.session("u").unwrap();
        session.sql("UPDATE w0 SET v = 1 WHERE k = 3").unwrap();
        let vid = session.commit("w0", "from a batched checkout").unwrap();
        let n = session
            .run(&format!(
                "SELECT count(*) FROM VERSION {} OF CVD left",
                vid.0
            ))
            .unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(10)), "{label}");
    }
}

/// CVD `s` with three versions whose merge `-v 3 1` resolves primary-key
/// conflicts both ways: v3 updates, deletes and inserts against v1.
fn three_version_cvd() -> OrpheusDB {
    let mut odb = OrpheusDB::new();
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .with_primary_key(&["k"])
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..6).map(|i| vec![Value::Int(i), Value::Int(0)]).collect();
    odb.init_cvd("s", schema, rows, None).unwrap();
    let edits: [&[&str]; 2] = [
        &["UPDATE w SET v = 1 WHERE k < 3"],
        &[
            "DELETE FROM w WHERE k = 5",
            "INSERT INTO w (k, v) VALUES (7, 7)",
        ],
    ];
    for (parent, statements) in (1u64..).zip(edits) {
        odb.checkout("s", &[Vid(parent)], "w").unwrap();
        for sql in statements {
            odb.engine.execute(sql).unwrap();
        }
        odb.commit("w", "edit").unwrap();
    }
    odb
}

/// Exports and merged checkouts of one version set, twice each, then a
/// commit that adds a column, then the same export and checkout again.
fn merged_reads_around_an_add_column() -> Vec<Request> {
    let merged = || Checkout::of("s").version(3u64).version(1u64);
    let read = |table: &str| Request::from(Run::sql(format!("SELECT * FROM {table} ORDER BY k")));
    vec![
        merged().into_csv("a.csv").into(),
        merged().into_csv("b.csv").into(),
        merged().into_table("m1").into(),
        merged().into_table("m2").into(),
        read("m1"),
        read("m2"),
        Run::sql("ALTER TABLE m1 ADD COLUMN note INT").into(),
        Commit::table("m1").message("add note").into(),
        merged().into_csv("c.csv").into(),
        merged().into_table("m3").into(),
        read("m3"),
    ]
}

/// Render one outcome by its contents: the full CSV text of an export,
/// the column names and every row of a query, the summary otherwise.
fn render_contents(result: &Result<Response, CoreError>) -> String {
    match result {
        Ok(Response::CheckedOutCsv { csv, .. }) => csv.clone(),
        Ok(Response::Rows(r)) => {
            let names: Vec<&str> = r.schema.columns.iter().map(|c| c.name.as_str()).collect();
            format!("{names:?} {:?}", r.rows)
        }
        other => render(other),
    }
}

/// The contents the scenario must produce, whichever executor runs it
/// and however it is submitted: `-v 3 1` keeps v3's rows and adds v1's
/// `k = 5`, and after the `ADD COLUMN` commit every row carries a NULL
/// `note`.
fn assert_merged_contents(out: &[String]) {
    let merged: [[i64; 3]; 7] = [
        [7, 0, 1],
        [8, 1, 1],
        [9, 2, 1],
        [4, 3, 0],
        [5, 4, 0],
        [6, 5, 0],
        [10, 7, 7],
    ];
    let rows = |note: bool| {
        let rows: Vec<Vec<Value>> = merged
            .iter()
            .map(|r| {
                let mut row: Vec<Value> = r.iter().map(|&x| Value::Int(x)).collect();
                if note {
                    row.push(Value::Null);
                }
                row
            })
            .collect();
        let names: &[&str] = if note {
            &["rid", "k", "v", "note"]
        } else {
            &["rid", "k", "v"]
        };
        format!("{names:?} {rows:?}")
    };
    let export = "rid,k,v\n4,3,0\n5,4,0\n7,0,1\n8,1,1\n9,2,1\n10,7,7\n6,5,0\n";
    let export_after = "rid,k,v,note\n4,3,0,\n5,4,0,\n7,0,1,\n8,1,1,\n9,2,1,\n10,7,7,\n6,5,0,\n";
    let expected = [
        export,
        export,
        "checked out v3, v1 into table m1",
        "checked out v3, v1 into table m2",
        &rows(false),
        &rows(false),
        "[] []",
        "committed m1 as v4",
        export_after,
        "checked out v3, v1 into table m3",
        &rows(true),
    ];
    assert_eq!(out, expected);
}

#[test]
fn merged_exports_and_checkouts_match_the_sequential_loop_across_an_add_column() {
    let sequential: Vec<String> = {
        let mut odb = three_version_cvd();
        merged_reads_around_an_add_column()
            .into_iter()
            .map(|r| render_contents(&odb.execute(r)))
            .collect()
    };
    assert_merged_contents(&sequential);
    let batched: Vec<String> = three_version_cvd()
        .batch(merged_reads_around_an_add_column())
        .iter()
        .map(render_contents)
        .collect();
    assert_eq!(sequential, batched, "OrpheusDB batch");

    let shared = SharedOrpheusDB::new(three_version_cvd());
    let mut session = shared.session("u").unwrap();
    let session_loop: Vec<String> = merged_reads_around_an_add_column()
        .into_iter()
        .map(|r| render_contents(&session.execute(r)))
        .collect();
    assert_eq!(sequential, session_loop, "Session loop");
    let shared = SharedOrpheusDB::new(three_version_cvd());
    let session_batch: Vec<String> = shared
        .session("u")
        .unwrap()
        .batch(merged_reads_around_an_add_column())
        .iter()
        .map(render_contents)
        .collect();
    assert_eq!(sequential, session_batch, "Session batch");
    let pool = AsyncExecutor::new(SharedOrpheusDB::new(three_version_cvd()));
    let handle_batch: Vec<String> = pool
        .handle("u")
        .unwrap()
        .batch(merged_reads_around_an_add_column())
        .iter()
        .map(render_contents)
        .collect();
    assert_eq!(sequential, handle_batch, "AsyncHandle batch");
}

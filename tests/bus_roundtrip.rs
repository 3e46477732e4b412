//! The command-bus acceptance test: every [`Request`] variant round-trips
//! through both executors — [`OrpheusDB`] directly and a [`Session`] over
//! a [`SharedOrpheusDB`] — producing the same structured responses. One
//! generic scenario drives both, which is the point of the bus: front-ends
//! and workloads are written once, executors are interchangeable.

use orpheusdb::prelude::*;

const CSV: &str = "id,score\n1,10\n2,20\n3,30\n";
const SCHEMA: &str = "id:int!pk\nscore:int\n";

/// Drive every request variant through `executor`, asserting the response
/// shapes, and return the set of command kinds exercised.
fn roundtrip_all<E: Executor>(executor: &mut E) -> std::collections::HashSet<CommandKind> {
    let mut kinds = std::collections::HashSet::new();
    let mut track = |request: &Request| {
        kinds.insert(request.kind());
    };
    let mut dispatch = |executor: &mut E, request: Request| -> Response {
        track(&request);
        let debug = format!("{request:?}");
        executor
            .execute(request)
            .unwrap_or_else(|e| panic!("{debug}: {e}"))
    };

    // Init from CSV text (the `init -f` path) and from typed rows.
    let response = dispatch(
        executor,
        InitFromCsv::cvd("scores")
            .csv(CSV)
            .schema_text(SCHEMA)
            .into(),
    );
    assert!(matches!(
        response,
        Response::Initialized {
            version: Vid(1),
            ..
        }
    ));
    let schema = Schema::new(vec![
        Column::new("name", DataType::Text),
        Column::new("rank", DataType::Int),
    ])
    .with_primary_key(&["name"])
    .unwrap();
    let response = dispatch(
        executor,
        Init::cvd("ranks")
            .schema(schema)
            .row(vec!["a".into(), 1.into()])
            .row(vec!["b".into(), 2.into()])
            .model(ModelKind::CombinedTable)
            .into(),
    );
    assert_eq!(response.version(), Some(Vid(1)));

    // Checkout into a table, commit it back unchanged (identity commit).
    let response = dispatch(
        executor,
        Checkout::of("scores")
            .version(1u64)
            .into_table("work")
            .into(),
    );
    assert!(matches!(response, Response::CheckedOut { .. }));
    let response = dispatch(executor, Commit::table("work").message("no-op").into());
    assert_eq!(response.version(), Some(Vid(2)));

    // Checkout as CSV, edit the text, commit the CSV back.
    let response = dispatch(
        executor,
        Checkout::of("scores")
            .version(2u64)
            .into_csv("scores.csv")
            .into(),
    );
    let exported = match response {
        Response::CheckedOutCsv { path, csv, .. } => {
            assert_eq!(path, "scores.csv");
            assert!(csv.starts_with("rid,id,score"), "{csv}");
            csv
        }
        other => panic!("unexpected response {other:?}"),
    };
    let response = dispatch(
        executor,
        CommitCsv::path("scores.csv")
            .csv(format!("{exported},4,40\n"))
            .message("add row via csv")
            .into(),
    );
    assert_eq!(response.version(), Some(Vid(3)));

    // Diff, versioned query, catalog listing, history.
    let response = dispatch(executor, Diff::of("scores").between(2u64, 3u64).into());
    match response {
        Response::Diffed { diff, .. } => {
            assert_eq!(diff.only_in_first.len(), 0);
            assert_eq!(diff.only_in_second.len(), 1);
        }
        other => panic!("unexpected response {other:?}"),
    }
    let rows = dispatch(
        executor,
        Run::sql("SELECT count(*) FROM VERSION 3 OF CVD scores").into(),
    )
    .into_rows()
    .unwrap();
    assert_eq!(rows.scalar(), Some(&Value::Int(4)));
    let response = dispatch(executor, Request::Ls);
    assert!(matches!(
        &response,
        Response::CvdList(names) if names == &vec!["ranks".to_string(), "scores".to_string()]
    ));
    let response = dispatch(executor, Log::of("scores").into());
    match response {
        Response::Log { entries, .. } => {
            assert_eq!(entries.len(), 3);
            assert_eq!(entries[2].message, "add row via csv");
            assert_eq!(entries[1].parents, vec![Vid(1)]);
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Partition optimizer, with and without workload weights.
    let response = dispatch(executor, Optimize::cvd("scores").gamma(2.0).mu(1.5).into());
    match response {
        Response::Optimized { report, .. } => assert!(report.num_partitions >= 1),
        other => panic!("unexpected response {other:?}"),
    }
    dispatch(
        executor,
        Optimize::cvd("scores")
            .gamma(2.0)
            .mu(1.5)
            .weight(3u64, 50)
            .into(),
    );

    // User management: create, switch identity, introspect it.
    dispatch(executor, CreateUser::named("courier").into());
    let response = dispatch(executor, Login::as_user("courier").into());
    assert!(matches!(&response, Response::LoggedIn { user } if user == "courier"));
    let response = dispatch(executor, Request::Whoami);
    assert!(matches!(&response, Response::CurrentUser { user } if user == "courier"));

    // Discard a staged checkout; drop both CVDs.
    dispatch(
        executor,
        Checkout::of("scores")
            .version(1u64)
            .into_table("scratch")
            .into(),
    );
    let response = dispatch(executor, Discard::table("scratch").into());
    assert!(matches!(response, Response::Discarded { .. }));
    let response = dispatch(executor, DropCvd::named("scores").into());
    assert!(matches!(response, Response::Dropped { .. }));
    dispatch(executor, DropCvd::named("ranks").into());
    let response = dispatch(executor, Request::Ls);
    assert!(matches!(&response, Response::CvdList(names) if names.is_empty()));

    kinds
}

#[test]
fn every_request_variant_roundtrips_through_orpheusdb() {
    let mut odb = OrpheusDB::new();
    let kinds = roundtrip_all(&mut odb);
    for kind in CommandKind::ALL {
        assert!(kinds.contains(&kind), "OrpheusDB executor missed {kind}");
    }
}

#[test]
fn every_request_variant_roundtrips_through_session() {
    let shared = SharedOrpheusDB::new(OrpheusDB::new());
    let mut session = shared.session("driver").unwrap();
    let kinds = roundtrip_all(&mut session);
    for kind in CommandKind::ALL {
        assert!(kinds.contains(&kind), "Session executor missed {kind}");
    }
    // The session ended the scenario rebound to `courier`, while the
    // shared instance identity never changed.
    assert_eq!(session.user(), "courier");
    assert_eq!(
        shared.read(|odb| odb.access.whoami().to_string()),
        "default"
    );
}

/// The two executors agree response-for-response on a shared scenario.
#[test]
fn executors_agree_on_summaries() {
    let scenario = || -> Vec<Request> {
        vec![
            InitFromCsv::cvd("d").csv(CSV).schema_text(SCHEMA).into(),
            Checkout::of("d").version(1u64).into_table("t").into(),
            Commit::table("t").message("m").into(),
            Run::sql("SELECT count(*) FROM VERSION 2 OF CVD d").into(),
            Log::of("d").into(),
            Request::Ls,
        ]
    };

    let mut odb = OrpheusDB::new();
    let direct: Vec<String> = odb
        .batch(scenario())
        .into_iter()
        .map(|r| r.unwrap().summary())
        .collect();

    let shared = SharedOrpheusDB::new(OrpheusDB::new());
    let mut session = shared.session("user").unwrap();
    let via_session: Vec<String> = session
        .batch(scenario())
        .into_iter()
        .map(|r| r.unwrap().summary())
        .collect();

    assert_eq!(direct, via_session);
}

/// SQL the lexer refuses (`SELECT 'open`) and SQL the parser refuses answer
/// the same typed error whichever of the four executors runs them — on
/// their own, and from the middle of a batch whose neighbours still run.
#[test]
fn bad_sql_is_one_typed_error_through_every_executor() {
    use orpheusdb::engine::EngineError;

    fn bad_sql_errors<E: Executor>(executor: &mut E) -> Vec<CoreError> {
        let mut errors = Vec::new();
        for bad in ["SELECT 'open", "SELECT FROM WHERE"] {
            let alone = executor.execute(Run::sql(bad).into()).unwrap_err();
            let mut batch = executor.batch(vec![
                Run::sql("CREATE TABLE IF NOT EXISTS side (k INT)").into(),
                Run::sql("INSERT INTO side VALUES (1)").into(),
                Run::sql(bad).into(),
                Run::sql("SELECT count(*) FROM side").into(),
            ]);
            let after = batch.pop().unwrap().unwrap().into_rows().unwrap();
            assert!(
                matches!(after.scalar(), Some(Value::Int(n)) if *n >= 1),
                "{bad:?}: the statements around it ran"
            );
            let in_batch = batch.pop().unwrap().unwrap_err();
            assert_eq!(alone, in_batch, "{bad:?}");
            assert!(
                matches!(alone, CoreError::Engine(EngineError::Parse(_))),
                "{bad:?}: {alone}"
            );
            errors.push(alone);
        }
        errors
    }

    let in_process = bad_sql_errors(&mut OrpheusDB::new());

    let shared = SharedOrpheusDB::new(OrpheusDB::new());
    assert_eq!(
        bad_sql_errors(&mut shared.session("u").unwrap()),
        in_process
    );

    let pool = AsyncExecutor::new(SharedOrpheusDB::new(OrpheusDB::new()));
    assert_eq!(bad_sql_errors(&mut pool.handle("u").unwrap()), in_process);

    let server = NetServer::bind("127.0.0.1:0", SharedOrpheusDB::new(OrpheusDB::new())).unwrap();
    let mut remote = RemoteExecutor::connect(server.local_addr(), "u").unwrap();
    assert_eq!(bad_sql_errors(&mut remote), in_process);
    drop(remote);
    server.shutdown();
}

//! The wire corpus: every [`Request`], [`Response`] and [`CoreError`]
//! variant with edge-case payloads. `tests/net_wire.rs` round-trips it
//! through frames; `tests/encoding_pins.rs` pins its bytes.

use orpheusdb::prelude::*;

const CSV: &str = "id,score\n1,10\n2,20\n3,30\n";
const SCHEMA: &str = "id:int!pk\nscore:int\n";

/// Every request variant, with edge-case payloads mixed in: empty vectors,
/// unicode, negative and extreme ints, NaN doubles, multi-version
/// checkouts, optional fields both present and absent.
pub fn request_corpus() -> Vec<Request> {
    let schema = Schema::new(vec![
        Column::new("name", DataType::Text),
        Column::new("rank", DataType::Int),
        Column::new("weight", DataType::Double),
        Column::new("alive", DataType::Bool),
        Column::new("path", DataType::IntArray),
    ])
    .with_primary_key(&["name"])
    .unwrap();
    vec![
        InitFromCsv::cvd("scores")
            .csv(CSV)
            .schema_text(SCHEMA)
            .into(),
        Init::cvd("ranks")
            .schema(schema)
            .row(vec![
                "naïve — name".into(),
                Value::Int(i64::MIN),
                Value::Double(f64::NAN),
                Value::Bool(true),
                Value::IntArray(vec![i64::MAX, -1, 0].into()),
            ])
            .row(vec![
                "".into(),
                Value::Null,
                Value::Double(-0.0),
                Value::Bool(false),
                Value::IntArray(Vec::new().into()),
            ])
            .model(ModelKind::CombinedTable)
            .into(),
        Checkout::of("scores")
            .versions([1u64, 2, 3])
            .into_table("work")
            .into(),
        Checkout::of("scores")
            .version(2u64)
            .into_csv("out dir/scores.csv")
            .into(),
        Commit::table("work").message("πρώτη δέσμευση").into(),
        CommitCsv::path("scores.csv")
            .csv("rid,id,score\n1,1,10\n")
            .message("")
            .schema_text(SCHEMA)
            .into(),
        CommitCsv::path("bare.csv")
            .csv("a\n1\n")
            .message("m")
            .into(),
        Diff::of("scores").between(1u64, u64::MAX).into(),
        Run::sql("SELECT count(*) FROM VERSION 3 OF CVD scores").into(),
        Request::Ls,
        Log::of("scores").into(),
        DropCvd::named("ranks").into(),
        Optimize::cvd("scores").into(),
        Optimize::cvd("scores")
            .gamma(2.0)
            .mu(1.5)
            .weight(3u64, 50)
            .weight(1u64, u64::MAX)
            .into(),
        CreateUser::named("courier").into(),
        Login::as_user("courier").into(),
        Request::Whoami,
        Discard::table("scratch").into(),
    ]
}

/// Every response variant with representative payloads.
pub fn response_corpus() -> Vec<Response> {
    let schema = Schema::new(vec![
        Column::new("vid", DataType::Int),
        Column::new("label", DataType::Text),
    ]);
    vec![
        Response::Initialized {
            cvd: "scores".into(),
            version: Vid(1),
        },
        Response::CheckedOut {
            cvd: "scores".into(),
            versions: vec![Vid(1), Vid(3)],
            table: "work".into(),
        },
        Response::CheckedOutCsv {
            cvd: "scores".into(),
            versions: vec![Vid(2)],
            path: "scores.csv".into(),
            csv: "rid,id,score\n1,1,10\n".into(),
        },
        Response::Committed {
            target: "work".into(),
            version: Vid(42),
        },
        Response::Diffed {
            cvd: "scores".into(),
            from: Vid(1),
            to: Vid(2),
            diff: VersionDiff {
                only_in_first: vec![vec![Value::Int(1), Value::Text("a".into())]],
                only_in_second: Vec::new(),
            },
        },
        Response::Rows(orpheusdb::engine::QueryResult {
            schema,
            rows: vec![
                vec![Value::Int(1), Value::Text("α".into())],
                vec![Value::Null, Value::Text(String::new())],
            ],
            affected: 2,
        }),
        Response::CvdList(vec!["ranks".into(), "scores".into()]),
        Response::CvdList(Vec::new()),
        Response::Log {
            cvd: "scores".into(),
            entries: vec![
                LogEntry {
                    vid: Vid(1),
                    parents: Vec::new(),
                    commit_t: 0,
                    num_records: 3,
                    message: "init".into(),
                },
                LogEntry {
                    vid: Vid(3),
                    parents: vec![Vid(1), Vid(2)],
                    commit_t: 7,
                    num_records: 4,
                    message: "merge".into(),
                },
            ],
        },
        Response::Dropped {
            cvd: "scores".into(),
        },
        Response::Optimized {
            cvd: "scores".into(),
            report: orpheusdb::core::partition_store::OptimizeReport {
                num_partitions: 3,
                storage_records: 1234,
                cavg: 1.25,
                delta: 0.5,
            },
        },
        Response::UserCreated {
            user: "courier".into(),
        },
        Response::LoggedIn {
            user: "courier".into(),
        },
        Response::CurrentUser {
            user: "courier".into(),
        },
        Response::Discarded {
            table: "scratch".into(),
        },
    ]
}

/// Every error variant (including every wrapped engine error).
pub fn error_corpus() -> Vec<CoreError> {
    use orpheusdb::engine::EngineError as E;
    let engine = [
        E::TableNotFound("t".into()),
        E::TableExists("t".into()),
        E::ColumnNotFound("c".into()),
        E::AmbiguousColumn("c".into()),
        E::TypeMismatch("m".into()),
        E::UniqueViolation("u".into()),
        E::Parse("p".into()),
        E::Plan("p".into()),
        E::Arity("a".into()),
        E::Eval("e".into()),
        E::IndexNotFound("i".into()),
        E::Storage("s".into()),
        E::Invalid("i".into()),
    ];
    let mut errors: Vec<CoreError> = engine.into_iter().map(CoreError::Engine).collect();
    errors.extend([
        CoreError::CvdNotFound("nope".into()),
        CoreError::CvdExists("scores".into()),
        CoreError::VersionNotFound {
            cvd: "scores".into(),
            version: Vid(99),
        },
        CoreError::NotStaged("work".into()),
        CoreError::PrimaryKeyViolation("id".into()),
        CoreError::SchemaMismatch("columns differ".into()),
        CoreError::PermissionDenied("not yours".into()),
        CoreError::Parse {
            command: Some(CommandKind::Checkout),
            message: "bad flag".into(),
        },
        CoreError::Parse {
            command: None,
            message: "unparsable".into(),
        },
        CoreError::UnknownCommand("bogus".into()),
        CoreError::BadRequest {
            command: CommandKind::Commit,
            reason: "no target".into(),
        },
        CoreError::Io("io".into()),
        CoreError::Csv("csv".into()),
        CoreError::Storage("storage".into()),
        CoreError::CrossCvd(vec!["a".into(), "b".into()]),
        CoreError::WorkerPanicked {
            shard: "left".into(),
        },
        CoreError::Invalid("invalid".into()),
        CoreError::Network("hung up".into()),
        CoreError::Protocol("bad frame".into()),
        CoreError::DeadlineExceeded { elapsed_ms: 30_000 },
        CoreError::Overloaded { retry_after_ms: 50 },
        CoreError::Degraded("append failed".into()),
        CoreError::ResponseTimeout {
            waited_ms: 2_500,
            state: "connected, 2 in flight".into(),
        },
    ]);
    errors
}

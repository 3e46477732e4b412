//! The typed command bus: every paper command (Section 2.2) as a
//! [`Request`] variant with an ergonomic builder, executed by anything
//! implementing [`Executor`].
//!
//! The bus is the single public path for issuing commands: the CLI and
//! REPL parse text into `Request`s ([`crate::commands`]), programs build
//! them directly (`Checkout::of("protein").versions([1, 2]).into_table("w")`),
//! and [`crate::OrpheusDB`] (single-threaded), [`crate::Session`]
//! (shared, multi-user), and [`crate::AsyncHandle`] (a queue on a
//! worker pool) all execute them. Because requests are plain
//! data, they can be queued, logged, replayed, batched
//! ([`Executor::batch`]), and dispatched asynchronously
//! ([`crate::async_exec`]) without touching any front-end.
//!
//! File I/O never appears on the bus: CSV-flavored requests carry file
//! *contents*, and [`crate::response::Response::CheckedOutCsv`] carries the
//! text to write back, so executors stay deterministic and testable.

use std::sync::OnceLock;

use orpheus_engine::{EngineError, Schema, Value};

use crate::error::Result;
use crate::ids::Vid;
use crate::model::ModelKind;
use crate::query::Lexed;
use crate::response::Response;

/// Anything that can execute typed commands: `OrpheusDB` directly, or a
/// `Session` over a shared instance.
pub trait Executor {
    /// Execute one typed request.
    fn execute(&mut self, request: Request) -> Result<Response>;

    /// Execute anything convertible into a [`Request`] — command structs
    /// and finished builders in particular.
    fn dispatch<R: Into<Request>>(&mut self, request: R) -> Result<Response>
    where
        Self: Sized,
    {
        self.execute(request.into())
    }

    /// Execute a batch of requests, collecting per-request outcomes.
    ///
    /// The contract, kept by every implementation:
    /// * **submission order** — entry `i` of the returned vector answers
    ///   request `i`;
    /// * **independent failures** — a failing request never aborts the
    ///   requests after it.
    ///
    /// The default runs the requests sequentially, and
    /// [`crate::OrpheusDB`] and [`crate::ConcurrentExecutor`] /
    /// [`crate::Session`] keep it. [`crate::AsyncHandle`] overrides it to
    /// submit the whole vector to its queue at once and wait once: a
    /// worker runs it request by request, each as a single `execute` of
    /// it would run.
    ///
    /// ```
    /// use orpheus_core::{Checkout, Commit, Executor, Init, OrpheusDB, Request, Vid};
    /// use orpheus_engine::{Column, DataType, Schema, Value};
    ///
    /// let mut odb = OrpheusDB::new();
    /// let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
    /// let results = odb.batch(vec![
    ///     Init::cvd("data").schema(schema).rows(vec![vec![Value::Int(1)]]).into(),
    ///     Checkout::of("data").version(1u64).into_table("w").into(),
    ///     Checkout::of("data").version(9u64).into_table("bad").into(), // fails
    ///     Commit::table("w").message("batched").into(),                // still runs
    /// ]);
    /// assert_eq!(results.len(), 4);
    /// assert!(results[0].is_ok() && results[1].is_ok());
    /// assert!(results[2].is_err());
    /// assert_eq!(results[3].as_ref().unwrap().version(), Some(Vid(2)));
    /// ```
    fn batch<I: IntoIterator<Item = Request>>(&mut self, requests: I) -> Vec<Result<Response>>
    where
        Self: Sized,
    {
        requests.into_iter().map(|r| self.execute(r)).collect()
    }
}

/// One typed command (Section 2.2's command set plus CSV variants).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Init(Init),
    InitFromCsv(InitFromCsv),
    Checkout(Checkout),
    CheckoutCsv(CheckoutCsv),
    Commit(Commit),
    CommitCsv(CommitCsv),
    Diff(Diff),
    Run(Run),
    Ls,
    Log(Log),
    Drop(DropCvd),
    Optimize(Optimize),
    CreateUser(CreateUser),
    Login(Login),
    Whoami,
    Discard(Discard),
}

impl Request {
    /// Which command family this request belongs to (used for structured
    /// errors and per-command accounting).
    pub fn kind(&self) -> CommandKind {
        match self {
            Request::Init(_) | Request::InitFromCsv(_) => CommandKind::Init,
            Request::Checkout(_) | Request::CheckoutCsv(_) => CommandKind::Checkout,
            Request::Commit(_) | Request::CommitCsv(_) => CommandKind::Commit,
            Request::Diff(_) => CommandKind::Diff,
            Request::Run(_) => CommandKind::Run,
            Request::Ls => CommandKind::Ls,
            Request::Log(_) => CommandKind::Log,
            Request::Drop(_) => CommandKind::Drop,
            Request::Optimize(_) => CommandKind::Optimize,
            Request::CreateUser(_) => CommandKind::CreateUser,
            Request::Login(_) => CommandKind::Login,
            Request::Whoami => CommandKind::Whoami,
            Request::Discard(_) => CommandKind::Discard,
        }
    }

    /// The lock granularity a request needs under per-CVD locking: which
    /// state it must pin exclusively before executing. Concurrent
    /// executors dispatch on this (together with [`Request::kind`]) to
    /// decide between the instance-wide catalog lock and one CVD's lock.
    pub fn target(&self) -> Target<'_> {
        match self {
            // Catalog mutations: CVD create/drop and the user registry.
            Request::Init(r) => Target::Catalog(Some(&r.cvd)),
            Request::InitFromCsv(r) => Target::Catalog(Some(&r.cvd)),
            Request::Drop(r) => Target::Catalog(Some(&r.cvd)),
            Request::CreateUser(_) | Request::Login(_) | Request::Whoami | Request::Ls => {
                Target::Catalog(None)
            }
            // Operations addressed to one CVD by name.
            Request::Checkout(r) => Target::Cvd(&r.cvd),
            Request::CheckoutCsv(r) => Target::Cvd(&r.cvd),
            Request::Diff(r) => Target::Cvd(&r.cvd),
            Request::Log(r) => Target::Cvd(&r.cvd),
            Request::Optimize(r) => Target::Cvd(&r.cvd),
            // Operations addressed to a staged artifact, whose CVD is
            // found through the staging index.
            Request::Commit(r) => Target::StagedTable(&r.table),
            Request::Discard(r) => Target::StagedTable(&r.table),
            Request::CommitCsv(r) => Target::StagedCsv(&r.path),
            // SQL needs analysis to discover which CVDs it touches.
            Request::Run(r) => Target::Sql(r),
        }
    }
}

/// What a request must lock before it can run (see [`Request::target`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target<'a> {
    /// Instance-wide state behind the catalog lock: the user registry and
    /// the CVD registry itself. Carries the CVD name for create/drop.
    Catalog(Option<&'a str>),
    /// One CVD's lock, addressed by name.
    Cvd(&'a str),
    /// One CVD's lock, found by resolving a staged table name.
    StagedTable(&'a str),
    /// One CVD's lock, found by resolving a staged CSV path.
    StagedCsv(&'a str),
    /// A SQL statement: the executor analyzes its tokens
    /// ([`Run::lexed`]) for CVD and staged-table references to pick a lock
    /// (or a read-only multi-CVD snapshot).
    Sql(&'a Run),
}

/// The command families of the bus, independent of request payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    Init,
    Checkout,
    Commit,
    Diff,
    Run,
    Ls,
    Log,
    Drop,
    Optimize,
    CreateUser,
    Login,
    Whoami,
    Discard,
}

impl CommandKind {
    pub const ALL: [CommandKind; 13] = [
        CommandKind::Init,
        CommandKind::Checkout,
        CommandKind::Commit,
        CommandKind::Diff,
        CommandKind::Run,
        CommandKind::Ls,
        CommandKind::Log,
        CommandKind::Drop,
        CommandKind::Optimize,
        CommandKind::CreateUser,
        CommandKind::Login,
        CommandKind::Whoami,
        CommandKind::Discard,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CommandKind::Init => "init",
            CommandKind::Checkout => "checkout",
            CommandKind::Commit => "commit",
            CommandKind::Diff => "diff",
            CommandKind::Run => "run",
            CommandKind::Ls => "ls",
            CommandKind::Log => "log",
            CommandKind::Drop => "drop",
            CommandKind::Optimize => "optimize",
            CommandKind::CreateUser => "create_user",
            CommandKind::Login => "config",
            CommandKind::Whoami => "whoami",
            CommandKind::Discard => "discard",
        }
    }
}

impl std::fmt::Display for CommandKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// -- init ---------------------------------------------------------------------

/// `init`: create a CVD from typed rows (version 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Init {
    pub cvd: String,
    pub schema: Schema,
    pub rows: Vec<Vec<Value>>,
    pub model: Option<ModelKind>,
}

impl Init {
    /// Start building: `Init::cvd("protein").schema(s).rows(r)`.
    pub fn cvd(name: impl Into<String>) -> Init {
        Init {
            cvd: name.into(),
            schema: Schema::new(Vec::new()),
            rows: Vec::new(),
            model: None,
        }
    }

    pub fn schema(mut self, schema: Schema) -> Init {
        self.schema = schema;
        self
    }

    pub fn rows(mut self, rows: Vec<Vec<Value>>) -> Init {
        self.rows = rows;
        self
    }

    pub fn row(mut self, row: Vec<Value>) -> Init {
        self.rows.push(row);
        self
    }

    pub fn model(mut self, model: ModelKind) -> Init {
        self.model = Some(model);
        self
    }
}

/// `init -f data.csv -s schema.txt`: create a CVD from CSV text plus a
/// schema description (contents, not paths — I/O stays off the bus).
#[derive(Debug, Clone, PartialEq)]
pub struct InitFromCsv {
    pub cvd: String,
    pub csv: String,
    pub schema_text: String,
    pub model: Option<ModelKind>,
}

impl InitFromCsv {
    pub fn cvd(name: impl Into<String>) -> InitFromCsv {
        InitFromCsv {
            cvd: name.into(),
            csv: String::new(),
            schema_text: String::new(),
            model: None,
        }
    }

    pub fn csv(mut self, text: impl Into<String>) -> InitFromCsv {
        self.csv = text.into();
        self
    }

    pub fn schema_text(mut self, text: impl Into<String>) -> InitFromCsv {
        self.schema_text = text.into();
        self
    }

    pub fn model(mut self, model: ModelKind) -> InitFromCsv {
        self.model = Some(model);
        self
    }
}

// -- checkout -----------------------------------------------------------------

/// `checkout <cvd> -v <vids> -t <table>`: materialize version(s) into a
/// staged table.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkout {
    pub cvd: String,
    pub versions: Vec<Vid>,
    pub table: String,
}

impl Checkout {
    /// Start building: `Checkout::of("protein").versions([1, 2]).into_table("w")`.
    pub fn of(cvd: impl Into<String>) -> CheckoutBuilder {
        CheckoutBuilder {
            cvd: cvd.into(),
            versions: Vec::new(),
        }
    }
}

/// `checkout <cvd> -v <vids> -f <file>`: export version(s) as CSV; the
/// response carries the text, the caller owns the file.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckoutCsv {
    pub cvd: String,
    pub versions: Vec<Vid>,
    pub path: String,
}

/// Builder for [`Checkout`] / [`CheckoutCsv`].
#[derive(Debug, Clone)]
pub struct CheckoutBuilder {
    cvd: String,
    versions: Vec<Vid>,
}

impl CheckoutBuilder {
    pub fn version(mut self, vid: impl Into<Vid>) -> CheckoutBuilder {
        self.versions.push(vid.into());
        self
    }

    pub fn versions<I>(mut self, vids: I) -> CheckoutBuilder
    where
        I: IntoIterator,
        I::Item: Into<Vid>,
    {
        self.versions.extend(vids.into_iter().map(Into::into));
        self
    }

    /// Finish as a table checkout.
    pub fn into_table(self, table: impl Into<String>) -> Checkout {
        Checkout {
            cvd: self.cvd,
            versions: self.versions,
            table: table.into(),
        }
    }

    /// Finish as a CSV export registered under `path`.
    pub fn into_csv(self, path: impl Into<String>) -> CheckoutCsv {
        CheckoutCsv {
            cvd: self.cvd,
            versions: self.versions,
            path: path.into(),
        }
    }
}

// -- commit -------------------------------------------------------------------

/// `commit -t <table> -m <msg>`: commit a staged table as a new version.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    pub table: String,
    pub message: String,
}

impl Commit {
    /// Start building: `Commit::table("w").message("tweak scores")`.
    pub fn table(table: impl Into<String>) -> Commit {
        Commit {
            table: table.into(),
            message: String::new(),
        }
    }

    pub fn message(mut self, message: impl Into<String>) -> Commit {
        self.message = message.into();
        self
    }
}

/// `commit -f <file> [-s <schema>] -m <msg>`: commit edited CSV text
/// previously exported with a [`CheckoutCsv`] under the same `path`.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitCsv {
    pub path: String,
    pub csv: String,
    pub message: String,
    pub schema_text: Option<String>,
}

impl CommitCsv {
    pub fn path(path: impl Into<String>) -> CommitCsv {
        CommitCsv {
            path: path.into(),
            csv: String::new(),
            message: String::new(),
            schema_text: None,
        }
    }

    pub fn csv(mut self, text: impl Into<String>) -> CommitCsv {
        self.csv = text.into();
        self
    }

    pub fn message(mut self, message: impl Into<String>) -> CommitCsv {
        self.message = message.into();
        self
    }

    pub fn schema_text(mut self, text: impl Into<String>) -> CommitCsv {
        self.schema_text = Some(text.into());
        self
    }
}

// -- the rest of the command set ---------------------------------------------

/// `diff <cvd> -v <a> <b>`: records in one version but not the other.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    pub cvd: String,
    pub from: Vid,
    pub to: Vid,
}

impl Diff {
    /// Start building: `Diff::of("protein").between(1, 4)`.
    pub fn of(cvd: impl Into<String>) -> DiffBuilder {
        DiffBuilder { cvd: cvd.into() }
    }
}

/// Builder for [`Diff`].
#[derive(Debug, Clone)]
pub struct DiffBuilder {
    cvd: String,
}

impl DiffBuilder {
    pub fn between(self, from: impl Into<Vid>, to: impl Into<Vid>) -> Diff {
        Diff {
            cvd: self.cvd,
            from: from.into(),
            to: to.into(),
        }
    }
}

/// `run <sql>`: versioned SQL (`VERSION n OF CVD x`, `CVD x`) or plain SQL.
///
/// A `Run` *is* its SQL text — equality, `Debug` and the wire/WAL encoding
/// are functions of the text alone. The first reader that needs tokens
/// lexes the text, once, and every later reader (routing, the access
/// guard, the translator, the engine's parser) shares that lexing.
#[derive(Clone)]
pub struct Run {
    sql: String,
    lexed: OnceLock<std::result::Result<Lexed, EngineError>>,
}

impl Run {
    pub fn sql(sql: impl Into<String>) -> Run {
        Run {
            sql: sql.into(),
            lexed: OnceLock::new(),
        }
    }

    /// The statement as submitted.
    pub fn text(&self) -> &str {
        &self.sql
    }

    /// The statement's one lexing; an unlexable statement answers the
    /// engine's parse error, every time it is asked.
    pub fn lexed(&self) -> Result<&Lexed> {
        self.lexed
            .get_or_init(|| Lexed::new(&self.sql))
            .as_ref()
            .map_err(|e| e.clone().into())
    }

    /// [`Lexed::is_select`]; unlexable SQL reports `false` — callers treat
    /// it as potentially writing and let execution surface the error.
    pub fn is_select(&self) -> bool {
        self.lexed().is_ok_and(Lexed::is_select)
    }
}

impl PartialEq for Run {
    fn eq(&self, other: &Run) -> bool {
        self.sql == other.sql
    }
}

impl Eq for Run {}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run").field("sql", &self.sql).finish()
    }
}

/// `log <cvd>`: the version history with parents and messages.
#[derive(Debug, Clone, PartialEq)]
pub struct Log {
    pub cvd: String,
}

impl Log {
    pub fn of(cvd: impl Into<String>) -> Log {
        Log { cvd: cvd.into() }
    }
}

/// `drop <cvd>`: remove a CVD and its backing tables. (Named `DropCvd` so
/// importing it never shadows `std::ops::Drop`.)
#[derive(Debug, Clone, PartialEq)]
pub struct DropCvd {
    pub cvd: String,
}

impl DropCvd {
    pub fn named(cvd: impl Into<String>) -> DropCvd {
        DropCvd { cvd: cvd.into() }
    }
}

/// `optimize <cvd> [-gamma g] [-mu m] [-weights v:f,...]`: run the
/// partition optimizer. `None` parameters fall back to the instance
/// configuration; non-empty `weights` selects the workload-aware
/// optimizer (Appendix C.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Optimize {
    pub cvd: String,
    pub gamma: Option<f64>,
    pub mu: Option<f64>,
    pub weights: Vec<(Vid, u64)>,
}

impl Optimize {
    /// Start building: `Optimize::cvd("protein").gamma(2.0).mu(1.5)`.
    pub fn cvd(name: impl Into<String>) -> Optimize {
        Optimize {
            cvd: name.into(),
            gamma: None,
            mu: None,
            weights: Vec::new(),
        }
    }

    pub fn gamma(mut self, gamma: f64) -> Optimize {
        self.gamma = Some(gamma);
        self
    }

    pub fn mu(mut self, mu: f64) -> Optimize {
        self.mu = Some(mu);
        self
    }

    pub fn weight(mut self, vid: impl Into<Vid>, frequency: u64) -> Optimize {
        self.weights.push((vid.into(), frequency));
        self
    }

    pub fn weights<I>(mut self, weights: I) -> Optimize
    where
        I: IntoIterator<Item = (Vid, u64)>,
    {
        self.weights.extend(weights);
        self
    }
}

/// `create_user <name>`: register an account.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateUser {
    pub user: String,
}

impl CreateUser {
    pub fn named(user: impl Into<String>) -> CreateUser {
        CreateUser { user: user.into() }
    }
}

/// `config <name>`: switch identity. On an `OrpheusDB` this switches the
/// instance identity; on a `Session` it rebinds the session's user.
#[derive(Debug, Clone, PartialEq)]
pub struct Login {
    pub user: String,
}

impl Login {
    pub fn as_user(user: impl Into<String>) -> Login {
        Login { user: user.into() }
    }
}

/// `discard <table>`: abandon a staged checkout without committing.
#[derive(Debug, Clone, PartialEq)]
pub struct Discard {
    pub table: String,
}

impl Discard {
    pub fn table(table: impl Into<String>) -> Discard {
        Discard {
            table: table.into(),
        }
    }
}

macro_rules! impl_into_request {
    ($($ty:ident => $variant:ident),* $(,)?) => {$(
        impl From<$ty> for Request {
            fn from(r: $ty) -> Request {
                Request::$variant(r)
            }
        }
    )*};
}

impl_into_request!(
    Init => Init,
    InitFromCsv => InitFromCsv,
    Checkout => Checkout,
    CheckoutCsv => CheckoutCsv,
    Commit => Commit,
    CommitCsv => CommitCsv,
    Diff => Diff,
    Run => Run,
    Log => Log,
    DropCvd => Drop,
    Optimize => Optimize,
    CreateUser => CreateUser,
    Login => Login,
    Discard => Discard,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_the_expected_requests() {
        let req: Request = Checkout::of("protein")
            .versions([1u64, 2])
            .into_table("my_table")
            .into();
        assert_eq!(
            req,
            Request::Checkout(Checkout {
                cvd: "protein".into(),
                versions: vec![Vid(1), Vid(2)],
                table: "my_table".into(),
            })
        );

        let req: Request = Commit::table("my_table").message("fix scores").into();
        assert_eq!(
            req,
            Request::Commit(Commit {
                table: "my_table".into(),
                message: "fix scores".into(),
            })
        );

        let req: Request = Checkout::of("p").version(3u64).into_csv("out.csv").into();
        assert_eq!(
            req,
            Request::CheckoutCsv(CheckoutCsv {
                cvd: "p".into(),
                versions: vec![Vid(3)],
                path: "out.csv".into(),
            })
        );

        let req: Request = Diff::of("p").between(1u64, 4u64).into();
        assert_eq!(
            req,
            Request::Diff(Diff {
                cvd: "p".into(),
                from: Vid(1),
                to: Vid(4),
            })
        );

        let opt = Optimize::cvd("p").gamma(2.0).mu(1.5).weight(2u64, 50);
        assert_eq!(opt.weights, vec![(Vid(2), 50)]);
        assert_eq!(opt.gamma, Some(2.0));
    }

    #[test]
    fn request_kinds_cover_every_variant() {
        let reqs: Vec<Request> = vec![
            Init::cvd("a").into(),
            InitFromCsv::cvd("a").into(),
            Checkout::of("a").version(1u64).into_table("t").into(),
            Checkout::of("a").version(1u64).into_csv("f").into(),
            Commit::table("t").into(),
            CommitCsv::path("f").into(),
            Diff::of("a").between(1u64, 2u64).into(),
            Run::sql("SELECT 1").into(),
            Request::Ls,
            Log::of("a").into(),
            DropCvd::named("a").into(),
            Optimize::cvd("a").into(),
            CreateUser::named("u").into(),
            Login::as_user("u").into(),
            Request::Whoami,
            Discard::table("t").into(),
        ];
        let kinds: std::collections::HashSet<CommandKind> =
            reqs.iter().map(Request::kind).collect();
        assert_eq!(kinds.len(), CommandKind::ALL.len());
        for kind in CommandKind::ALL {
            assert!(kinds.contains(&kind), "missing {kind}");
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn targets_route_every_variant_to_the_right_lock() {
        use Target::*;

        let select = Run::sql("SELECT 1");
        let cases: Vec<(Request, Target<'_>)> = vec![
            (Init::cvd("a").into(), Catalog(Some("a"))),
            (InitFromCsv::cvd("a").into(), Catalog(Some("a"))),
            (DropCvd::named("a").into(), Catalog(Some("a"))),
            (CreateUser::named("u").into(), Catalog(None)),
            (Login::as_user("u").into(), Catalog(None)),
            (Request::Whoami, Catalog(None)),
            (Request::Ls, Catalog(None)),
            (
                Checkout::of("a").version(1u64).into_table("t").into(),
                Cvd("a"),
            ),
            (
                Checkout::of("a").version(1u64).into_csv("f").into(),
                Cvd("a"),
            ),
            (Diff::of("a").between(1u64, 2u64).into(), Cvd("a")),
            (Log::of("a").into(), Cvd("a")),
            (Optimize::cvd("a").into(), Cvd("a")),
            (Commit::table("t").into(), StagedTable("t")),
            (Discard::table("t").into(), StagedTable("t")),
            (CommitCsv::path("f").into(), StagedCsv("f")),
            (select.clone().into(), Sql(&select)),
        ];
        for (req, want) in &cases {
            assert_eq!(&req.target(), want, "{req:?}");
        }
    }
}

//! The only module that names the execution stack's types. Everything
//! else drives a [`Client`] through `Executor`; when the stack is renamed or collapsed,
//! re-pointing the benchmark is an edit to this file.

use std::path::{Path, PathBuf};

use orpheus_bench::generator::CommitEvent;
use orpheus_core::cvd::Cvd;
use orpheus_core::model::{self, CommitData};
use orpheus_core::{
    recovery, AsyncExecutor, AsyncHandle, ConcurrentExecutor, CoreError, Executor, OrpheusDB,
    Request, Response, SharedOrpheusDB, Vid,
};
use orpheus_engine::Value;
use orpheus_net::{NetServer, RemoteExecutor, RetryStats, ServerStats};

use crate::load::CVD;

/// The identity every benchmark client runs as.
const USER: &str = "ledger";

/// A client end of one of the five bus-level stacks. It is an
/// [`Executor`] itself, so workloads see one type whatever serves them.
pub enum Client {
    Db(Box<OrpheusDB>),
    Concurrent(ConcurrentExecutor),
    Async(AsyncHandle),
    Remote(Box<RemoteExecutor>),
}

impl Executor for Client {
    fn execute(&mut self, request: Request) -> Result<Response, CoreError> {
        match self {
            Client::Db(e) => e.execute(request),
            Client::Concurrent(e) => e.execute(request),
            Client::Async(e) => e.execute(request),
            Client::Remote(e) => e.execute(request),
        }
    }

    fn batch<I: IntoIterator<Item = Request>>(
        &mut self,
        requests: I,
    ) -> Vec<Result<Response, CoreError>> {
        match self {
            Client::Db(e) => e.batch(requests),
            Client::Concurrent(e) => e.batch(requests),
            Client::Async(e) => e.batch(requests),
            Client::Remote(e) => e.batch(requests),
        }
    }
}

/// The bus-level rungs of the ladder, shallowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// `OrpheusDB::execute`, in process.
    Db,
    /// `ConcurrentExecutor` over a `SharedOrpheusDB`.
    Concurrent,
    /// `AsyncHandle` into an `AsyncExecutor` pool.
    Async,
    /// `RemoteExecutor` to a loopback `NetServer` (which runs its own
    /// async pool).
    Net,
    /// The same, with the instance opened through `recovery` so every
    /// mutation is logged and fsynced before it is acknowledged.
    Wal,
}

/// One built stack: the client the workload drives plus whatever serves it.
pub struct Stack {
    pub client: Client,
    shared: Option<SharedOrpheusDB>,
    // Declared after `client` so the client end goes first on drop.
    _pool: Option<AsyncExecutor>,
    server: Option<NetServer>,
    wal_dir: Option<PathBuf>,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl Stack {
    /// Wrap an already-loaded instance in the stack for `depth`. `scratch`
    /// receives the WAL directory of [`Depth::Wal`].
    pub fn build(depth: Depth, loaded: OrpheusDB, scratch: &Path) -> Result<Stack, String> {
        if depth == Depth::Db {
            return Ok(Stack {
                client: Client::Db(Box::new(loaded)),
                shared: None,
                _pool: None,
                server: None,
                wal_dir: None,
            });
        }
        let (shared, wal_dir) = if depth == Depth::Wal {
            let dir = scratch.join("wal");
            let _ = std::fs::remove_dir_all(&dir);
            let shared = recovery::open_shared(&dir).map_err(|e| err("open WAL dir", e))?;
            // A bulk import bypasses the bus, so it is checkpoint-durable
            // only: cut a checkpoint before the first logged request.
            shared
                .write(|odb| odb.absorb(loaded))
                .map_err(|e| err("import into WAL instance", e))?;
            recovery::checkpoint_shared(&shared).map_err(|e| err("initial checkpoint", e))?;
            (shared, Some(dir))
        } else {
            (SharedOrpheusDB::new(loaded), None)
        };
        let mut stack = Stack {
            client: Client::Concurrent(shared.executor(USER).map_err(|e| err("executor", e))?),
            shared: Some(shared.clone()),
            _pool: None,
            server: None,
            wal_dir,
        };
        match depth {
            Depth::Db | Depth::Concurrent => {}
            Depth::Async => {
                let pool = AsyncExecutor::new(shared);
                stack.client = Client::Async(pool.handle(USER).map_err(|e| err("handle", e))?);
                stack._pool = Some(pool);
            }
            Depth::Net | Depth::Wal => {
                let server =
                    NetServer::bind("127.0.0.1:0", shared).map_err(|e| err("bind server", e))?;
                stack.server = Some(server);
                stack.client = stack.connect(USER)?;
            }
        }
        Ok(stack)
    }

    /// Reopen a WAL directory left by [`Stack::close`]: recovery replays
    /// the log over the last checkpoint.
    pub fn reopen(dir: &Path) -> Result<Stack, String> {
        let shared = recovery::open_shared(dir).map_err(|e| err("reopen WAL dir", e))?;
        Ok(Stack {
            client: Client::Concurrent(shared.executor(USER).map_err(|e| err("executor", e))?),
            shared: Some(shared),
            _pool: None,
            server: None,
            wal_dir: Some(dir.to_path_buf()),
        })
    }

    /// A further client on the same served instance (a second connection).
    pub fn connect(&self, user: &str) -> Result<Client, String> {
        let server = self.server.as_ref().ok_or("stack has no server")?;
        let remote =
            RemoteExecutor::connect(server.local_addr(), user).map_err(|e| err("connect", e))?;
        Ok(Client::Remote(Box::new(remote)))
    }

    /// Run `f` against a consistent view of the instance.
    pub fn with_db<T>(&self, f: impl FnOnce(&OrpheusDB) -> T) -> T {
        match (&self.client, &self.shared) {
            (Client::Db(odb), _) => f(odb),
            (_, Some(shared)) => shared.read(f),
            _ => unreachable!("every non-Db stack keeps its shared instance"),
        }
    }

    /// Model storage of the benchmark CVD in bytes: the partitioned layout
    /// when one exists, the model's tables otherwise.
    pub fn storage_bytes(&self) -> u64 {
        self.with_db(|odb| {
            let partitioned = odb.cvd(CVD).is_ok_and(|c| c.partition.is_some());
            if partitioned {
                odb.partitioned_storage_bytes(CVD)
            } else {
                odb.storage_bytes(CVD)
            }
            .unwrap_or(0)
        })
    }

    /// `(next sequence number, bytes in the live segment)` of the WAL.
    pub fn wal_position(&self) -> Option<(u64, u64)> {
        let sink = self.shared.as_ref()?.wal_sink()?;
        Some((sink.next_seq(), sink.log_bytes()))
    }

    /// Cut a checkpoint (rotates the log); the driver of a durable
    /// workload calls this, the way `--serve`'s ticker would.
    pub fn checkpoint(&self) -> Result<(), String> {
        let shared = self.shared.as_ref().ok_or("stack has no shared instance")?;
        recovery::checkpoint_shared(shared)
            .map(|_| ())
            .map_err(|e| err("checkpoint", e))
    }

    pub fn server_stats(&self) -> Option<ServerStats> {
        self.server.as_ref().map(NetServer::stats)
    }

    /// Hang up, drain and stop the server, drop the instance. Returns the
    /// WAL directory, if any, for [`Stack::reopen`].
    pub fn close(self) -> Option<PathBuf> {
        let Stack {
            client,
            shared,
            _pool,
            server,
            wal_dir,
        } = self;
        drop(client);
        if let Some(server) = server {
            server.shutdown();
        }
        drop(_pool);
        drop(shared);
        wal_dir
    }
}

/// Worker threads an `AsyncExecutor` picks on this box (part of the box
/// stamp: results through the async rungs depend on it).
pub fn async_workers() -> usize {
    AsyncExecutor::new(SharedOrpheusDB::default()).workers()
}

/// A fresh, empty in-process instance to load a history into.
pub fn empty_db() -> Client {
    Client::Db(Box::new(OrpheusDB::new()))
}

impl Client {
    /// The in-process instance behind a [`Client::Db`], for wrapping in a
    /// deeper stack once loaded.
    pub fn into_db(self) -> OrpheusDB {
        match self {
            Client::Db(odb) => *odb,
            _ => panic!("only an in-process client owns its instance"),
        }
    }

    /// A copy of the in-process instance (tables are shared until written).
    pub fn clone_db(&self) -> OrpheusDB {
        match self {
            Client::Db(odb) => (**odb).clone(),
            _ => panic!("only an in-process client owns its instance"),
        }
    }

    /// `OrpheusDB::version_rows`, which has no request on the bus; returns
    /// the row count. In-process clients only.
    pub fn version_rows(&mut self, vid: u64) -> Result<usize, String> {
        match self {
            Client::Db(odb) => odb
                .version_rows(CVD, Vid(vid))
                .map(|rows| rows.len())
                .map_err(|e| err("version_rows", e)),
            _ => Err("version_rows needs an in-process client".into()),
        }
    }

    /// Reconnects and replays this client's link has needed (zero for a
    /// client that has no link).
    pub fn retry_stats(&self) -> RetryStats {
        match self {
            Client::Remote(r) => r.retry_stats(),
            _ => RetryStats::default(),
        }
    }
}

// -- below the bus ---------------------------------------------------------------

/// The two rungs under the command bus: the engine's tables and the
/// storage model, called through their public functions on a private copy
/// of a loaded instance.
pub struct Below {
    odb: OrpheusDB,
    /// A copy of the catalog entry: `model::*` borrows the engine mutably
    /// and the CVD immutably, which one `OrpheusDB` cannot lend at once.
    cvd: Cvd,
}

/// A commit's engine statements, rendered before the span starts.
pub struct EngineCommit {
    statements: Vec<String>,
}

impl Below {
    pub fn new(odb: OrpheusDB) -> Result<Below, String> {
        let cvd = odb.cvd(CVD).map_err(|e| err("cvd", e))?.clone();
        Ok(Below { odb, cvd })
    }

    /// `engine` rung of a checkout: resolve the version's rids to heap
    /// slots through the data table's rid index.
    pub fn engine_checkout(&self, vid: u64) -> Result<usize, String> {
        let rids = self.cvd.rids_of(Vid(vid)).map_err(|e| err("rids", e))?;
        let table = self
            .odb
            .engine
            .table(&self.cvd.data_table())
            .map_err(|e| err("data table", e))?;
        let slots = table
            .resolve_int_keys(0, rids)
            .ok_or("data table has no rid index")?;
        Ok(slots.len())
    }

    /// The checkout of Table 1 through the SQL layer — the only path that
    /// bumps the engine's `ExecStats` (the record-access fast path reads
    /// heap slots directly). Returns `(rows scanned, index lookups, rows
    /// returned)`: the paper's checkout cost next to the version's size.
    pub fn spec_checkout_counts(&mut self, vid: u64) -> Result<(u64, u64, u64), String> {
        const TARGET: &str = "ledger_spec";
        let before = self.odb.engine.stats.snapshot();
        model::checkout_into_sql(&mut self.odb.engine, &self.cvd, Vid(vid), TARGET)
            .map_err(|e| err("checkout_into_sql", e))?;
        let spent = self.odb.engine.stats.snapshot().delta_since(&before);
        let rows = self
            .odb
            .engine
            .table(TARGET)
            .map_err(|e| err("target", e))?
            .len() as u64;
        self.odb
            .engine
            .drop_table(TARGET)
            .map_err(|e| err("drop", e))?;
        Ok((spent.rows_scanned, spent.index_lookups, rows))
    }

    /// `model` rung of a checkout: the version's records as owned rows.
    pub fn model_checkout(&mut self, vid: u64) -> Result<usize, String> {
        model::version_rows(&mut self.odb.engine, &self.cvd, Vid(vid))
            .map(|rows| rows.len())
            .map_err(|e| err("version_rows", e))
    }

    /// Widen the data table the way the bus-level commit of `event` would.
    /// Both commit rungs call this, untimed, before the span.
    pub fn evolve(&mut self, event: &CommitEvent) -> Result<(), String> {
        if let Some(col) = &event.add_column {
            let sql = format!("ALTER TABLE {} ADD COLUMN {col} INT", self.cvd.data_table());
            self.odb.engine.execute(&sql).map_err(|e| err("alter", e))?;
        }
        Ok(())
    }

    /// Render the statements split-by-rlist's commit hands the engine:
    /// one multi-row INSERT of the fresh records, one rlist tuple.
    pub fn render_engine_commit(&self, event: &CommitEvent, rlist: &[i64]) -> EngineCommit {
        let mut statements = Vec::new();
        if !event.inserts.is_empty() {
            let rows: Vec<String> = event
                .inserts
                .iter()
                .map(|(rid, vals)| format!("({rid}, {})", model::int_list(vals)))
                .collect();
            statements.push(format!(
                "INSERT INTO {} VALUES {}",
                self.cvd.data_table(),
                rows.join(", ")
            ));
        }
        statements.push(format!(
            "INSERT INTO {} VALUES ({}, ARRAY[{}])",
            self.cvd.rlist_table(),
            event.vid,
            model::int_list(rlist)
        ));
        EngineCommit { statements }
    }

    /// `engine` rung of a commit: parse and execute those statements.
    pub fn engine_commit(&mut self, commit: &EngineCommit) -> Result<(), String> {
        for sql in &commit.statements {
            self.odb
                .engine
                .execute(sql)
                .map_err(|e| err("engine commit", e))?;
        }
        Ok(())
    }

    /// What `model::persist_commit` needs for `event`, built untimed.
    pub fn commit_data(&self, event: &CommitEvent, rlist: &[i64]) -> CommitData {
        let new_records: Vec<(i64, Vec<Value>)> = event
            .inserts
            .iter()
            .map(|(rid, vals)| (*rid, vals.iter().copied().map(Value::Int).collect()))
            .collect();
        let fresh_from = event.inserts.first().map_or(i64::MAX, |(rid, _)| *rid);
        CommitData {
            vid: Vid(event.vid),
            rlist: rlist.to_vec(),
            kept: rlist.iter().copied().filter(|&r| r < fresh_from).collect(),
            all_records: new_records.clone(),
            new_records,
            base: event.parents.first().map(|&p| Vid(p)),
            deleted_from_base: event.deletes.clone(),
        }
    }

    /// `model` rung of a commit: the storage model persists one version.
    pub fn model_commit(&mut self, data: &CommitData) -> Result<(), String> {
        model::persist_commit(&mut self.odb.engine, &self.cvd, data, false)
            .map_err(|e| err("persist_commit", e))
    }
}

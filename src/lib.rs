//! # orpheusdb
//!
//! A from-scratch Rust reproduction of **OrpheusDB: Bolt-on Versioning for
//! Relational Databases** (Huang et al., VLDB 2017).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`engine`] (`orpheus-engine`) — the relational substrate: typed
//!   tables, int-array values, SQL dialect, three join algorithms, a page
//!   I/O cost model;
//! * [`core`] (`orpheus-core`) — the versioning middleware: CVDs, the five
//!   data models, checkout/commit/diff, versioned queries, the partition
//!   optimizer integration, and the typed **command bus** every front-end
//!   drives;
//! * [`partition`] (`orpheus-partition`) — LyreSplit, the AGGLO/KMEANS
//!   baselines, online maintenance and migration planning;
//! * [`mod@bench`] (`orpheus-bench`) — the SCI/CUR versioning benchmark and
//!   the harness regenerating every table and figure of the paper;
//! * [`net`] (`orpheus-net`) — the service layer: a length-prefixed wire
//!   protocol over TCP, a [`NetServer`](prelude::NetServer) in front of the
//!   async executor, and a [`RemoteExecutor`](prelude::RemoteExecutor)
//!   client implementing the same `Executor` trait, so everything below
//!   runs against a server unchanged.
//!
//! ## Quickstart: the command bus
//!
//! Every paper command is a typed [`Request`](prelude::Request) with a
//! builder, executed through the [`Executor`](prelude::Executor) trait —
//! by an [`OrpheusDB`](prelude::OrpheusDB) directly, or by a
//! [`Session`](prelude::Session) over a shared instance:
//!
//! ```
//! use orpheusdb::prelude::*;
//!
//! let mut odb = OrpheusDB::new();
//! let schema = Schema::new(vec![
//!     Column::new("gene", DataType::Text),
//!     Column::new("expression", DataType::Int),
//! ]).with_primary_key(&["gene"]).unwrap();
//!
//! odb.dispatch(Init::cvd("genes").schema(schema).rows(vec![
//!     vec!["brca1".into(), 7.into()],
//!     vec!["tp53".into(), 3.into()],
//! ])).unwrap();
//!
//! // Check out, edit with plain SQL, commit back.
//! odb.dispatch(Checkout::of("genes").version(1u64).into_table("work")).unwrap();
//! odb.engine.execute("UPDATE work SET expression = 9 WHERE gene = 'tp53'").unwrap();
//! let v2 = odb.dispatch(Commit::table("work").message("bump tp53"))
//!     .unwrap().version().unwrap();
//! assert_eq!(v2, Vid(2));
//!
//! // Versioned analytics without materializing anything.
//! let r = odb.dispatch(Run::sql("SELECT vid, count(*) FROM CVD genes GROUP BY vid"))
//!     .unwrap().into_rows().unwrap();
//! assert_eq!(r.rows.len(), 2);
//!
//! // Diffs come back as structured data.
//! match odb.dispatch(Diff::of("genes").between(1u64, 2u64)).unwrap() {
//!     Response::Diffed { diff, .. } => {
//!         assert_eq!(diff.only_in_first.len(), 1);
//!         assert_eq!(diff.only_in_second.len(), 1);
//!     }
//!     other => panic!("{other:?}"),
//! }
//! ```
//!
//! ## Sessions: the multi-user entry point
//!
//! Production deployments share one instance between many users; each
//! user's [`Session`](prelude::Session) executes the same requests under
//! its own identity, with checkout-ownership enforced per session:
//!
//! ```
//! use orpheusdb::prelude::*;
//!
//! let mut odb = OrpheusDB::new();
//! let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
//! odb.dispatch(Init::cvd("data").schema(schema).rows(vec![vec![1.into()]])).unwrap();
//!
//! let shared = SharedOrpheusDB::new(odb);
//! let mut alice = shared.session("alice").unwrap();
//! alice.dispatch(Checkout::of("data").version(1u64).into_table("w")).unwrap();
//! alice.run("INSERT INTO w VALUES (NULL, 2)").unwrap();
//! let v2 = alice.dispatch(Commit::table("w").message("alice's row"))
//!     .unwrap().version().unwrap();
//! assert_eq!(v2, Vid(2));
//! ```

pub use orpheus_bench as bench;
pub use orpheus_core as core;
pub use orpheus_engine as engine;
pub use orpheus_net as net;
pub use orpheus_partition as partition;

/// The most common imports: the database types, the command bus
/// (`Request`/`Response`, `Executor`, and every command builder), and the
/// engine's schema/value vocabulary.
pub mod prelude {
    pub use orpheus_core::{
        AsyncExecutor, AsyncHandle, Checkout, CheckoutCsv, CommandKind, Commit, CommitCsv,
        ConcurrentExecutor, CoreError, CreateUser, Cvd, Diff, Discard, DropCvd, Executor, Init,
        InitFromCsv, Log, LogEntry, Login, ModelKind, Optimize, OrpheusDB, Request, Response, Rid,
        Run, Session, SharedOrpheusDB, Target, Ticket, VersionDiff, Vid,
    };
    pub use orpheus_engine::{Column, DataType, Database, Schema, Value};
    pub use orpheus_net::{NetServer, RemoteExecutor};
}

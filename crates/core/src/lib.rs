//! # orpheus-core
//!
//! The OrpheusDB middleware: bolt-on dataset versioning over an ordinary
//! relational database (the `orpheus-engine` crate, standing in for
//! PostgreSQL). The engine is completely unaware of versions; this crate
//! maps git-style version control (checkout / commit / diff) and versioned
//! SQL onto plain tables, following Sections 2-3 of the paper.
//!
//! Core concepts:
//! * **CVD** — a collaborative versioned dataset: one relation plus all of
//!   its versions, related by a version graph (a DAG with merges).
//! * **Data models** ([`model`]) — five representations of a CVD inside the
//!   engine: a-table-per-version, combined-table, split-by-vlist,
//!   split-by-rlist (the paper's winner and our default), and delta-based.
//! * **Checkout/commit** — materialize version(s) into a private staged
//!   table (or CSV file), edit with arbitrary SQL, commit back as a new
//!   version. Records are immutable; modified rows receive fresh `rid`s
//!   under the *no cross-version diff* rule (Section 2.2).
//! * **Versioned queries** ([`query`]) — `SELECT ... FROM VERSION n OF CVD
//!   x` and whole-CVD queries grouped by `vid`, translated to plain SQL.
//! * **Partition optimizer** ([`partition_store`]) — LyreSplit-driven
//!   partitioning of the split-by-rlist representation, with online
//!   maintenance and intelligent migration (Section 4).
//! * **Persistence** ([`persist`]) — whole-instance snapshots (engine data
//!   plus all middleware state) so sessions span process restarts.
//! * **The command bus** ([`request`], [`response`]) — every paper command
//!   as a typed [`Request`] with builders, executed by [`OrpheusDB`]
//!   directly or by a [`Session`] over a shared instance via the
//!   [`Executor`] trait; [`commands`] parses the git-style command lines
//!   of Section 2.2 into the same requests.
//! * **Routing** — one crate-internal rule sends each request a
//!   [`Session`] runs to the shard serving it; [`Executor::batch`] runs a
//!   request vector with per-request outcomes, one request after another.
//! * **Async execution** ([`async_exec`]) — an [`AsyncExecutor`] runs
//!   requests on a worker pool behind a dispatcher thread; each client's
//!   [`AsyncHandle`] is a FIFO queue of submissions, and clients wait on
//!   [`Ticket`]s instead of blocking on shard locks.
//! * **Durability** ([`wal`], [`recovery`]) — an append-only log of
//!   mutating operations with length-prefixed, checksummed records
//!   (sharing the [`codec`] vocabulary with the wire protocol), fsync'd
//!   before each apply is acknowledged; [`recovery::open`] replays the
//!   log over the latest snapshot, truncating any torn tail, and
//!   periodic checkpoints ([`recovery::checkpoint`]) rotate the log.

pub mod access;
pub mod async_exec;
pub(crate) mod batch;
pub mod codec;
pub mod commands;
pub mod compress;
pub mod concurrent;
pub mod csv;
pub mod cvd;
pub mod db;
pub mod error;
pub mod ids;
pub mod model;
pub mod partition_store;
pub mod persist;
pub mod query;
pub mod recovery;
pub mod request;
pub mod response;
pub mod staging;
pub mod wal;

pub use async_exec::{AsyncExecutor, AsyncHandle, Ticket, TicketFulfiller};
pub use concurrent::{ConcurrentExecutor, Session, SharedOrpheusDB};
pub use cvd::Cvd;
pub use db::{OrpheusDB, VersionDiff};
pub use error::{CoreError, Result};
pub use ids::{Rid, Vid};
pub use model::ModelKind;
pub use request::{
    Checkout, CheckoutCsv, CommandKind, Commit, CommitCsv, CreateUser, Diff, Discard, DropCvd,
    Executor, Init, InitFromCsv, Log, Login, Optimize, Request, Run, Target,
};
pub use response::{LogEntry, Response};
pub use wal::{WalOp, WalRecord, WalSink};

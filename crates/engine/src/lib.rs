//! # orpheus-engine
//!
//! A minimal, from-scratch relational engine that serves as the backend
//! substrate for OrpheusDB (VLDB 2017). It stands in for PostgreSQL in the
//! paper's architecture: the engine is completely unaware of dataset
//! versions; the `orpheus-core` middleware maps version-control operations
//! onto ordinary SQL statements executed here.
//!
//! The engine provides exactly the features the paper's SQL translations
//! (Table 1) and cost-model experiments (Appendix D.1) rely on:
//!
//! * typed heap tables with composite primary keys and integer-array values;
//! * hash and BTree secondary indexes, plus physical clustering of a table
//!   on a chosen key (`CLUSTER ... USING ...`);
//! * a SQL dialect covering `SELECT [INTO]` with comma joins, derived-table
//!   subqueries, `unnest(..)`, `ARRAY[..]` literals and `ARRAY(SELECT ..)`
//!   subqueries, array containment `<@`, `IN (subquery)`, `GROUP BY`
//!   aggregates, `ORDER BY`/`LIMIT`, and the usual DML/DDL;
//! * three join algorithms — hash, merge and index-nested-loop — selectable
//!   per statement, mirroring the join study of Appendix D.1;
//! * a page-based I/O cost model (`cost`) with sequential/random page costs
//!   so experiments can report deterministic cost alongside wall-clock time;
//! * durable, checksummed snapshots (`storage`) so a database survives
//!   process restarts — the property PostgreSQL gives the paper for free.
//!
//! Each operator consumes and produces a whole row vector, whose rows stay
//! borrowed from the table heap until a node must build new ones (see
//! [`exec`]); this keeps the engine small while preserving the asymptotic
//! behaviour — full scans, hash builds/probes, index lookups — that the
//! paper's latency arguments rest on.

pub mod cost;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod table;
pub mod types;

pub use db::{Database, EngineSettings, QueryResult};
pub use error::{EngineError, Result};
pub use exec::join::JoinStrategy;
pub use schema::{Column, Schema};
pub use stats::ExecStats;
pub use table::Table;
pub use types::{DataType, Row, Value};

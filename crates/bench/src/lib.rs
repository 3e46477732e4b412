//! # orpheus-bench
//!
//! The versioning benchmark of Maddox et al. \[37\] (re-implemented from its
//! description in Section 5.1 of the OrpheusDB paper) plus the experiment
//! harness that regenerates every table and figure of the paper's
//! evaluation. See EXPERIMENTS.md at the repository root for the
//! paper-vs-measured record.
//!
//! * [`generator`] — SCI (branching tree) and CUR (merging DAG) workloads,
//!   parameterized by branches `B`, record count `|R|` and per-version
//!   modification count `I` exactly as Table 2;
//! * [`datasets`] — the Table 2 configurations, scaled by
//!   `ORPHEUS_SCALE` so the full suite runs on a laptop;
//! * [`loader`] — bulk-load a generated workload into an [`orpheus_core`]
//!   CVD under any of the five data models;
//! * [`harness`] — the paper's timing protocol (repeat, drop extremes,
//!   average) and aligned table printing;
//! * [`experiments`] — one module per table/figure;
//! * [`oracle`] — a naive reference model of the versioning semantics;
//! * [`differential`] — the sequential gate: replays one generated history
//!   through every executor (in-process, concurrent, async, remote,
//!   WAL-reopened) and gates on agreement with the oracle;
//! * [`storm`] — the concurrent gate: many clients at once on each of
//!   those served stacks must end where a sequential run of the same
//!   streams ends;
//! * [`fault`] — the fault gate's seeded matrix and its judgment (the
//!   `fault_storm` bin runs the processes).

pub mod datasets;
pub mod differential;
pub mod experiments;
pub mod fault;
pub mod generator;
pub mod harness;
pub mod loader;
pub mod oracle;
pub mod storm;

pub use datasets::{DatasetSpec, ScaleTier};
pub use differential::{run_differential, Arm, ArmStats, DiffConfig};
pub use generator::{
    HistoryEvent, HistoryGen, HistoryParams, Workload, WorkloadKind, WorkloadParams,
};
pub use oracle::Oracle;

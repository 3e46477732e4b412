//! # orpheus-partition
//!
//! The partition optimizer of OrpheusDB (Section 4 of the paper), as a
//! standalone, engine-independent crate.
//!
//! A collaborative versioned dataset induces a **version-record bipartite
//! graph** `G = (V, R, E)` (which version contains which record) and a much
//! smaller **version graph** (which version was derived from which). The
//! optimizer partitions versions — duplicating records across partitions —
//! to trade storage cost `S = Σ|Rk|` against checkout cost
//! `Cavg = Σ|Vk||Rk| / n`. Finding the optimal trade-off is NP-hard
//! (Theorem 1, by reduction from 3-PARTITION).
//!
//! This crate implements:
//! * [`mod@lyresplit`] — the paper's light-weight ((1+δ)^ℓ, 1/δ)-approximation
//!   operating only on the version tree (Algorithm 1), plus the binary
//!   search on δ for a storage budget (Appendix B);
//! * [`agglo`] and [`kmeans`] — the NScale baselines re-implemented from
//!   their description in Section 5.1;
//! * [`online`] — incremental maintenance as versions stream in;
//! * [`migration`] — the intelligent migration engine (Section 4.3);
//! * [`weighted`] — weighted checkout cost (Appendix C.2).
//!
//! Appendix C.3's schema-change-aware splitting is not implemented: it had
//! no caller, and schema changes reach partitions through the ordinary
//! commit path.

pub mod agglo;
pub mod bipartite;
pub mod kmeans;
pub mod lyresplit;
pub mod migration;
pub mod online;
pub mod partitioning;
#[cfg(test)]
mod sim;
pub mod version_graph;
pub mod weighted;

pub use bipartite::BipartiteGraph;
pub use lyresplit::{lyresplit, lyresplit_for_budget, EdgePick, LyreSplitResult};
pub use partitioning::Partitioning;
pub use version_graph::{VersionGraph, VersionTree};

/// Version identifier: dense index into the version set.
pub type VersionId = usize;

/// Record identifier: dense index into the record universe.
pub type RecordId = usize;

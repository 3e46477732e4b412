//! The Table 2 dataset configurations, scaled for laptop-speed runs.
//!
//! The paper's datasets range from 1M to 10M records; every cost in the
//! system is linear in record count, so the experiments preserve their
//! *shape* at 1/25 scale (the default). Set the environment variable
//! `ORPHEUS_SCALE` to a larger multiplier to approach paper scale, e.g.
//! `ORPHEUS_SCALE=5` for ~1M-record runs of the *_40K datasets.

use crate::generator::{HistoryParams, Workload, WorkloadKind, WorkloadParams};

/// A named dataset specification (a row of Table 2, scaled).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Paper name (e.g. "SCI_1M").
    pub paper_name: &'static str,
    /// Scaled name (e.g. "SCI_40K").
    pub name: &'static str,
    pub kind: WorkloadKind,
    pub versions: usize,
    pub branches: usize,
    pub inserts: usize,
}

impl DatasetSpec {
    /// Generate the workload at the current scale.
    pub fn generate(&self) -> Workload {
        let s = scale();
        let mut params = match self.kind {
            WorkloadKind::Sci => {
                WorkloadParams::sci(self.versions, self.branches, self.inserts * s)
            }
            WorkloadKind::Cur => {
                WorkloadParams::cur(self.versions, self.branches, self.inserts * s)
            }
        };
        params.seed = 42 ^ self.name.len() as u64 ^ (self.versions as u64) << 8;
        Workload::generate(params)
    }
}

/// How big one run of the concurrent gate is: `clients` threads, client
/// `i` on CVD `i % cvds`, each driving `ops` rounds of
/// [`crate::harness::clustered_storm`] (`cluster` CSV exports, then
/// checkout → commit) against CVDs of `records` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormShape {
    pub clients: usize,
    pub cvds: usize,
    pub ops: usize,
    pub cluster: usize,
    pub records: usize,
}

/// Named experiment tiers: `ORPHEUS_SCALE={smoke,ci,paper}`. Numeric
/// values keep their historical meaning (a raw multiplier, tier Smoke).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleTier {
    /// Seconds-scale: unit tests and local sanity runs.
    Smoke,
    /// Minutes-scale: the CI `experiments-smoke` job, all five
    /// differential arms.
    Ci,
    /// The paper's scale: a ≥1M-record, ≥500-version deep-and-bushy
    /// history (the `ORPHEUS_STRESS` job).
    Paper,
}

impl ScaleTier {
    pub fn name(self) -> &'static str {
        match self {
            ScaleTier::Smoke => "smoke",
            ScaleTier::Ci => "ci",
            ScaleTier::Paper => "paper",
        }
    }

    /// The differential-harness history for this tier. All three tiers
    /// share seed and rate knobs; they differ in size. Within a tier,
    /// histories that differ only in `versions` share a prefix (see
    /// `generator::HistoryGen`), which is how a paper-tier divergence is
    /// chased at smoke size.
    pub fn history(self) -> HistoryParams {
        let (versions, branches, fork_every, base_rows, inserts, evolve_every) = match self {
            ScaleTier::Smoke => (24, 4, 6, 300, 40, 9),
            ScaleTier::Ci => (120, 10, 12, 4_000, 120, 45),
            ScaleTier::Paper => (640, 32, 20, 150_000, 2_400, 211),
        };
        HistoryParams {
            versions,
            branches,
            fork_every,
            base_rows,
            inserts,
            attrs: 8,
            insert_fraction: 0.85,
            merge_prob: 0.3,
            skew: 0.8,
            evolve_every,
            seed: 0xD1FF,
        }
    }

    /// How many versions the differential harness verifies row-for-row.
    pub fn checkout_samples(self) -> usize {
        match self {
            ScaleTier::Smoke => 6,
            ScaleTier::Ci => 12,
            ScaleTier::Paper => 6,
        }
    }

    /// The concurrent gate's shape for this tier (`crate::storm`). Fewer
    /// CVDs than clients at every tier, so some clients always contend on
    /// one CVD while others run beside them on another; and never more
    /// requests in total than a `NetServer` queues by default, so a client
    /// submitting its whole stream as one batch is not shed — shedding is
    /// the subject of `fault_storm`'s `overload` cell.
    pub fn storm(self) -> StormShape {
        let (clients, cvds, ops, cluster, records) = match self {
            ScaleTier::Smoke => (4, 2, 6, 4, 400),
            ScaleTier::Ci => (8, 3, 12, 4, 2_000),
            ScaleTier::Paper => (12, 4, 12, 4, 10_000),
        };
        StormShape {
            clients,
            cvds,
            ops,
            cluster,
            records,
        }
    }
}

/// The active tier from `ORPHEUS_SCALE` (numeric or unset values map to
/// Smoke — the numeric multiplier only affects the figure datasets, via
/// [`scale`]).
pub fn tier() -> ScaleTier {
    match std::env::var("ORPHEUS_SCALE").ok().as_deref() {
        Some("ci") => ScaleTier::Ci,
        Some("paper") => ScaleTier::Paper,
        _ => ScaleTier::Smoke,
    }
}

/// Global scale multiplier from `ORPHEUS_SCALE` (default 1). Numeric
/// values are the multiplier directly; the named tiers map to 1/1/5 —
/// `paper` runs the *_200K figure datasets at ~1M records.
pub fn scale() -> usize {
    match std::env::var("ORPHEUS_SCALE").ok().as_deref() {
        Some("paper") => 5,
        Some("ci") | Some("smoke") => 1,
        Some(s) => s.parse::<usize>().ok().filter(|&s| s >= 1).unwrap_or(1),
        None => 1,
    }
}

/// Scaled stand-ins for the paper's SCI_* rows of Table 2. Version counts
/// and branch counts keep the paper's |V|/|B| ratios; `inserts` scales |R|.
pub const SCI: [DatasetSpec; 5] = [
    DatasetSpec {
        paper_name: "SCI_1M",
        name: "SCI_40K",
        kind: WorkloadKind::Sci,
        versions: 200,
        branches: 20,
        inserts: 200,
    },
    DatasetSpec {
        paper_name: "SCI_2M",
        name: "SCI_80K",
        kind: WorkloadKind::Sci,
        versions: 200,
        branches: 20,
        inserts: 400,
    },
    DatasetSpec {
        paper_name: "SCI_5M",
        name: "SCI_200K",
        kind: WorkloadKind::Sci,
        versions: 200,
        branches: 20,
        inserts: 1000,
    },
    DatasetSpec {
        paper_name: "SCI_8M",
        name: "SCI_320K",
        kind: WorkloadKind::Sci,
        versions: 200,
        branches: 20,
        inserts: 1600,
    },
    DatasetSpec {
        paper_name: "SCI_10M",
        name: "SCI_400K",
        kind: WorkloadKind::Sci,
        versions: 1000,
        branches: 100,
        inserts: 400,
    },
];

/// Scaled stand-ins for the paper's CUR_* rows.
pub const CUR: [DatasetSpec; 3] = [
    DatasetSpec {
        paper_name: "CUR_1M",
        name: "CUR_40K",
        kind: WorkloadKind::Cur,
        versions: 220,
        branches: 20,
        inserts: 180,
    },
    DatasetSpec {
        paper_name: "CUR_5M",
        name: "CUR_200K",
        kind: WorkloadKind::Cur,
        versions: 220,
        branches: 20,
        inserts: 900,
    },
    DatasetSpec {
        paper_name: "CUR_10M",
        name: "CUR_400K",
        kind: WorkloadKind::Cur,
        versions: 1000,
        branches: 100,
        inserts: 360,
    },
];

/// The Figure 3 model-comparison datasets (SCI_1M..SCI_8M equivalents).
pub fn fig3_datasets() -> Vec<DatasetSpec> {
    SCI[..4].to_vec()
}

/// The partitioning-experiment datasets (Figures 9–13).
pub fn partitioning_datasets() -> Vec<DatasetSpec> {
    let mut v = vec![SCI[0].clone(), SCI[2].clone(), SCI[4].clone()];
    v.extend(CUR.iter().cloned());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_shapes_contend_and_fit_the_default_server_queue() {
        let cap = orpheus_net::ServerConfig::default().max_queue_depth;
        for tier in [ScaleTier::Smoke, ScaleTier::Ci, ScaleTier::Paper] {
            let s = tier.storm();
            assert!(s.cvds < s.clients, "{tier:?}: no two clients share a CVD");
            assert!(s.clients * s.ops * (s.cluster + 2) < cap, "{tier:?}");
        }
    }

    #[test]
    fn specs_generate_consistent_workloads() {
        for spec in SCI.iter().take(2).chain(CUR.iter().take(1)) {
            let w = spec.generate();
            assert_eq!(w.num_versions(), spec.versions);
            assert!(w.num_records > 0);
            // |R| lands in the ballpark the name suggests (within 3×).
            let target: usize = match spec.name {
                "SCI_40K" | "CUR_40K" => 40_000,
                "SCI_80K" => 80_000,
                "SCI_200K" | "CUR_200K" => 200_000,
                _ => continue,
            };
            assert!(
                w.num_records > target / 3 && w.num_records < target * 3,
                "{}: |R| = {} vs target {target}",
                spec.name,
                w.num_records
            );
        }
    }

    #[test]
    fn cur_specs_have_merges() {
        let w = CUR[0].generate();
        assert!(w.parents.iter().any(|p| p.len() == 2));
    }

    #[test]
    fn tiers_are_ordered_and_paper_reaches_the_paper() {
        use crate::generator::HistoryGen;
        use crate::oracle::Oracle;
        let smoke = ScaleTier::Smoke.history();
        let ci = ScaleTier::Ci.history();
        let paper = ScaleTier::Paper.history();
        assert!(smoke.versions < ci.versions && ci.versions < paper.versions);
        assert!(
            paper.versions >= 500,
            "paper tier must be ≥500 versions deep"
        );
        // ≥1M records without generating the paper tier: |R| is exactly
        // base + inserts per derived non-merge version; merges have no
        // churn, so count them at ci shape and scale the bound. Cheaper:
        // replay the ci tier and check the record-count formula holds,
        // then apply it to paper parameters with the worst-case merge
        // fraction observed at ci.
        let ci_oracle = Oracle::replay(HistoryGen::new(ci.clone()));
        let merges = ci_oracle
            .versions
            .iter()
            .filter(|v| v.parents.len() == 2)
            .count();
        let churn = ci_oracle.num_versions() - 1 - merges;
        assert_eq!(ci_oracle.num_records(), ci.base_rows + churn * ci.inserts);
        let merge_frac = merges as f64 / (ci_oracle.num_versions() - 1) as f64;
        let paper_churn = ((paper.versions - 1) as f64 * (1.0 - 1.25 * merge_frac)) as usize;
        assert!(
            paper.base_rows + paper_churn * paper.inserts >= 1_000_000,
            "paper tier must reach 1M records even at 1.25x the observed merge rate \
             (observed {merge_frac:.2}); the paper-tier run itself re-asserts the exact count"
        );
    }

    #[test]
    fn tier_histories_share_a_prefix_when_truncated() {
        use crate::generator::{HistoryEvent, HistoryGen, HistoryParams};
        let full = ScaleTier::Ci.history();
        let cut = HistoryParams {
            versions: 30,
            ..full.clone()
        };
        let long: Vec<HistoryEvent> = HistoryGen::new(full).take(30).collect();
        let short: Vec<HistoryEvent> = HistoryGen::new(cut).collect();
        assert_eq!(long, short);
    }
}

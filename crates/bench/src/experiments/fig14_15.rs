//! Figures 14 and 15: online maintenance and migration over a long stream
//! of commits (the paper uses SCI_10M with 10K versions; we stream the
//! scaled SCI_400K).
//!
//! (a) The online checkout cost `Cavg` drifts away from LyreSplit's best
//!     `C*avg`; migration triggers when the ratio exceeds µ.
//! (b) Migration cost (record modifications) of the intelligent engine vs.
//!     the naive rebuild, across tolerance factors µ.

use orpheus_partition::migration::{plan_migration, plan_naive};
use orpheus_partition::online::{OnlineConfig, OnlineMaintainer};
use orpheus_partition::{BipartiteGraph, Partitioning, VersionTree};

use crate::datasets::SCI;
use crate::generator::Workload;
use crate::harness::Report;

/// One migration event in the stream.
#[derive(Debug, Clone)]
pub struct MigrationEvent {
    pub at_commit: usize,
    pub intelligent_mods: u64,
    pub naive_mods: u64,
}

/// Result of streaming a workload through the online maintainer.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// (commit index, Cavg, C*avg) sampled along the stream.
    pub series: Vec<(usize, f64, f64)>,
    pub migrations: Vec<MigrationEvent>,
    /// `(partition, opened a partition)` of every streamed commit, as the
    /// maintainer placed it (before any migration that commit triggered).
    pub placements: Vec<(usize, bool)>,
    /// Where the stream left the layout.
    pub layout: Partitioning,
}

/// Stream the workload's version tree through online maintenance.
pub fn stream(workload: &Workload, gamma_factor: f64, mu: f64, check_every: usize) -> StreamResult {
    let tree = workload.version_graph().to_tree();
    let maintainer = OnlineMaintainer::new(
        OnlineConfig {
            gamma_factor,
            mu,
            check_every,
            ..OnlineConfig::default()
        },
        tree.records[0],
    );
    stream_from(maintainer, workload, &tree)
}

/// The figure's loop: feed `maintainer` the versions of `tree` it has not
/// seen yet, migrating whenever it asks to. The product runs this same
/// maintainer on every commit to a partitioned CVD (pinned by the test
/// below).
pub fn stream_from(
    mut maintainer: OnlineMaintainer,
    workload: &Workload,
    tree: &VersionTree,
) -> StreamResult {
    let n = tree.num_versions();
    let mut series = Vec::new();
    let mut migrations = Vec::new();
    let mut placements = Vec::new();
    let sample_every = (n / 40).max(1);

    for v in maintainer.tree().num_versions()..n {
        let parent = tree.parent[v].expect("non-root");
        let out = maintainer.commit(parent, tree.weight_to_parent[v], tree.records[v]);
        placements.push((out.partition, out.opened_partition));
        if let Some(target) = &out.migration_target {
            // Cost the migration both ways on the prefix bipartite graph.
            let bip = BipartiteGraph::new(
                workload.version_rids[..=v]
                    .iter()
                    .map(|r| r.to_vec())
                    .collect(),
            );
            let old = maintainer.partitioning();
            let smart = plan_migration(&bip, Some(maintainer.tree()), old, &target.partitioning);
            let naive = plan_naive(&bip, old, &target.partitioning);
            migrations.push(MigrationEvent {
                at_commit: v,
                intelligent_mods: smart.total_modifications(),
                naive_mods: naive.total_modifications(),
            });
            maintainer.apply_migration(target);
        }
        if v % sample_every == 0 || v == n - 1 {
            series.push((v, out.cavg, out.cavg_star));
        }
    }
    StreamResult {
        series,
        migrations,
        placements,
        layout: maintainer.partitioning().clone(),
    }
}

pub fn run() -> String {
    let spec = &SCI[4]; // the many-versions dataset (paper: SCI_10M)
    let workload = spec.generate();
    let mut text = format!(
        "Figures 14/15: online maintenance and migration on {} ({} versions)\n",
        spec.name,
        workload.num_versions()
    );

    for gamma in [1.5f64, 2.0] {
        text.push_str(&format!("\n-- γ = {gamma}|R| --\n"));
        // (a) Divergence of Cavg from C*avg for µ ∈ {1.5, 2}.
        for mu in [1.5f64, 2.0] {
            let r = stream(&workload, gamma, mu, 5);
            let worst = r
                .series
                .iter()
                .map(|(_, c, s)| c / s.max(1.0))
                .fold(0.0f64, f64::max);
            text.push_str(&format!(
                "µ={mu}: {} migrations across {} commits; max Cavg/C*avg observed {:.2}\n",
                r.migrations.len(),
                workload.num_versions(),
                worst
            ));
        }
        // (b) Migration cost across µ: intelligent vs naive.
        let mut report = Report::new(&[
            "mu",
            "migrations",
            "avg_intelligent_mods",
            "avg_naive_mods",
            "naive/intelligent",
        ]);
        for mu in [1.05f64, 1.2, 1.5, 2.0, 2.5] {
            let r = stream(&workload, gamma, mu, 5);
            if r.migrations.is_empty() {
                report.row(vec![
                    format!("{mu}"),
                    "0".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let smart: u64 = r.migrations.iter().map(|m| m.intelligent_mods).sum::<u64>()
                / r.migrations.len() as u64;
            let naive: u64 =
                r.migrations.iter().map(|m| m.naive_mods).sum::<u64>() / r.migrations.len() as u64;
            report.row(vec![
                format!("{mu}"),
                r.migrations.len().to_string(),
                smart.to_string(),
                naive.to_string(),
                format!("{:.1}x", naive as f64 / smart.max(1) as f64),
            ]);
        }
        text.push_str(&report.render());
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadParams;

    #[test]
    fn stream_tracks_divergence_and_migrates() {
        let w = Workload::generate(WorkloadParams::sci(150, 15, 60));
        let r = stream(&w, 2.0, 1.2, 2);
        assert!(!r.series.is_empty());
        // Cavg never falls below the optimum estimate.
        for (_, cavg, star) in &r.series {
            assert!(*cavg + 1e-6 >= *star * 0.5, "cavg {cavg} vs star {star}");
        }
        // A tight tolerance on a branchy stream triggers migrations, and
        // the intelligent plan beats the naive rebuild.
        if !r.migrations.is_empty() {
            for m in &r.migrations {
                assert!(m.intelligent_mods <= m.naive_mods);
            }
        }
    }

    #[test]
    fn looser_mu_migrates_less() {
        let w = Workload::generate(WorkloadParams::sci(150, 15, 60));
        let tight = stream(&w, 2.0, 1.05, 2);
        let loose = stream(&w, 2.0, 2.5, 2);
        assert!(
            tight.migrations.len() >= loose.migrations.len(),
            "µ=1.05 gave {} migrations, µ=2.5 gave {}",
            tight.migrations.len(),
            loose.migrations.len()
        );
    }

    /// The figure measures the product: from the same post-`Optimize`
    /// state, the figure's loop and `OrpheusDB` commits place every
    /// version in the same partition, migrate at the same commits and end
    /// on the same assignment — and the product's placement is physical.
    #[test]
    fn the_figure_streams_the_maintainer_the_product_commits_through() {
        use crate::differential::{replay, Ctx, CVD};
        use crate::generator::HistoryGen;
        use orpheus_core::ids::Vid;
        use orpheus_core::model::ModelKind;
        use orpheus_core::OrpheusDB;

        const PREFIX: usize = 40;
        let params = WorkloadParams::sci(120, 12, 40);
        let workload = Workload::generate(params.clone());
        let tree = workload.version_graph().to_tree();
        let ctx = Ctx::for_test("fig14_15", ModelKind::SplitByRlist, params.seed);
        let mut events = HistoryGen::new(params.history());
        let mut odb = OrpheusDB::new();
        let commit = |odb: &mut OrpheusDB, events: Vec<_>| {
            replay(odb, events, ModelKind::SplitByRlist, false, &ctx).unwrap();
            odb.cvd(CVD).unwrap().partition.clone()
        };
        commit(&mut odb, events.by_ref().take(PREFIX).collect());
        odb.optimize_with(CVD, 2.0, 1.2).unwrap();
        let mut state = odb.cvd(CVD).unwrap().partition.clone().unwrap();
        assert_eq!(state.maintainer().tree().parent, tree.parent[..PREFIX]);
        assert_eq!(
            state.maintainer().tree().weight_to_parent,
            tree.weight_to_parent[..PREFIX]
        );

        let figure = stream_from(state.maintainer().clone(), &workload, &tree);
        assert!(!figure.migrations.is_empty(), "the stream migrates");
        assert!(figure.placements.iter().any(|&(_, opened)| opened));

        for (i, event) in events.enumerate() {
            let v = PREFIX + i;
            let after = commit(&mut odb, vec![event]).unwrap();
            assert_eq!(after.assignment().len(), v + 1);
            let migrated = after.generation > state.generation;
            assert_eq!(
                migrated,
                figure.migrations.iter().any(|m| m.at_commit == v),
                "migration at commit {v}"
            );
            if !migrated {
                let opened = after.num_partitions() > state.num_partitions();
                assert_eq!(
                    (after.assignment()[v], opened),
                    figure.placements[i],
                    "placement of commit {v}"
                );
            }
            // The placement is physical: the version's partition holds
            // its records and checks it out.
            let vid = Vid(v as u64 + 1);
            let cvd = odb.cvd(CVD).unwrap();
            let (data, _) = cvd.rlist_pair(vid).unwrap();
            let rids = cvd.rids_of(vid).unwrap().to_vec();
            let held = odb.engine.table(&data).unwrap().resolve_int_keys(0, &rids);
            assert_eq!(
                held.unwrap().len(),
                rids.len(),
                "{data} holds version {vid}"
            );
            odb.checkout(CVD, &[vid], "placed").unwrap();
            assert_eq!(odb.engine.table("placed").unwrap().len(), rids.len());
            odb.discard("placed").unwrap();
            state = after;
        }
        assert_eq!(state.partitioning(), figure.layout);
    }
}

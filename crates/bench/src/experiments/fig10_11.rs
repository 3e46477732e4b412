//! Figures 10 and 11: running time of the partitioning algorithms when
//! solving Problem 1 under the budget γ = 2|R| — total binary-search time
//! and time per binary-search iteration. The paper's headline: LyreSplit
//! is ~10³× faster than AGGLO and >10⁵× faster than KMEANS because it only
//! touches the version tree.
//!
//! `runs` is how many times LyreSplit's search ran Algorithm 1; a step
//! at whose δ a kept run holds takes no run (see
//! `orpheus_partition::lyresplit`). `ms_per_iter` still divides by the
//! bisection steps, as the paper's per-iteration time does.

use orpheus_partition::agglo::agglo_for_budget;
use orpheus_partition::kmeans::kmeans_for_budget;
use orpheus_partition::lyresplit::{lyresplit_for_budget, EdgePick};

use crate::datasets::partitioning_datasets;
use crate::harness::{ms, time_once, Report};

/// Cap for the slow baselines, mirroring the paper's 10-hour timeout
/// (records above this size skip KMEANS entirely).
const KMEANS_RECORD_CAP: usize = 300_000;

pub fn run() -> String {
    let mut report = Report::new(&[
        "dataset",
        "algo",
        "total_ms",
        "iters",
        "runs",
        "ms_per_iter",
        "S_records",
    ]);
    for spec in partitioning_datasets() {
        let w = spec.generate();
        let tree = w.version_graph().to_tree();
        let bip = w.bipartite();
        let gamma = 2 * bip.num_records() as u64;

        let ((_, search), t) =
            time_once(|| lyresplit_for_budget(&tree, gamma, EdgePick::BalancedVersions));
        report.row(vec![
            spec.name.into(),
            "LyreSplit".into(),
            ms(t),
            search.iterations.to_string(),
            search.runs.to_string(),
            ms(t / search.iterations.max(1) as f64),
            search.storage.to_string(),
        ]);

        let ((_, search), t) = time_once(|| agglo_for_budget(&bip, gamma));
        report.row(vec![
            spec.name.into(),
            "AGGLO".into(),
            ms(t),
            search.iterations.to_string(),
            "-".into(),
            ms(t / search.iterations.max(1) as f64),
            search.storage.to_string(),
        ]);

        if w.num_records <= KMEANS_RECORD_CAP {
            let ((_, search), t) = time_once(|| kmeans_for_budget(&bip, gamma, 7));
            report.row(vec![
                spec.name.into(),
                "KMEANS".into(),
                ms(t),
                search.iterations.to_string(),
                "-".into(),
                ms(t / search.iterations.max(1) as f64),
                search.storage.to_string(),
            ]);
        } else {
            report.row(vec![
                spec.name.into(),
                "KMEANS".into(),
                "(capped)".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
    }
    format!(
        "Figures 10/11: partitioning algorithm running time, γ = 2|R|\n{}",
        report.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Workload, WorkloadParams};

    #[test]
    fn lyresplit_is_fastest_on_small_data() {
        let w = Workload::generate(WorkloadParams::sci(60, 8, 60));
        let tree = w.version_graph().to_tree();
        let bip = w.bipartite();
        let gamma = 2 * bip.num_records() as u64;
        let (_, t_lyre) =
            time_once(|| lyresplit_for_budget(&tree, gamma, EdgePick::BalancedVersions));
        let (_, t_agglo) = time_once(|| agglo_for_budget(&bip, gamma));
        let (_, t_kmeans) = time_once(|| kmeans_for_budget(&bip, gamma, 7));
        // The speed gap grows with data size; on tiny data we only require
        // LyreSplit to win.
        assert!(
            t_lyre < t_agglo && t_lyre < t_kmeans,
            "LyreSplit {t_lyre}ms vs AGGLO {t_agglo}ms vs KMEANS {t_kmeans}ms"
        );
    }
}

//! Weighted checkout cost (Appendix C.2): versions are checked out with
//! different frequencies `f_i`, e.g. recent versions far more often than
//! old ones.
//!
//! The paper's construction: duplicate each version `v_i` into a chain of
//! `f_i` copies (intra-chain edges share all records), run plain LyreSplit
//! on the expanded tree `T'`, then post-process by collapsing each
//! version's copies into the member partition with the fewest records. The
//! result carries the same ((1+δ)^ℓ, 1/δ) guarantee against the weighted
//! optimum.

use crate::bipartite::BipartiteGraph;
use crate::lyresplit::{search_delta, BudgetSearch, EdgePick, LyreSplitResult, Run, Workspace};
use crate::partitioning::Partitioning;
use crate::version_graph::VersionTree;

/// Weighted checkout cost `Cw = Σ f_i·C_i / Σ f_i` (exact, via the
/// bipartite graph).
pub fn weighted_checkout_cost(part: &Partitioning, bip: &BipartiteGraph, freqs: &[u64]) -> f64 {
    assert_eq!(part.num_versions(), freqs.len());
    let parts = part.partitions();
    let sizes: Vec<u64> = parts
        .iter()
        .map(|vs| bip.distinct_records(vs) as u64)
        .collect();
    let mut num = 0u128;
    let mut den = 0u128;
    for (v, &f) in freqs.iter().enumerate() {
        num += (f as u128) * sizes[part.partition_of(v)] as u128;
        den += f as u128;
    }
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The weighted-optimum floor `ζ = Σ f_i·|R(v_i)| / Σ f_i` — achieved when
/// every version sits in its own partition.
pub fn weighted_cost_floor(bip: &BipartiteGraph, freqs: &[u64]) -> f64 {
    let mut num = 0u128;
    let mut den = 0u128;
    for (v, &f) in freqs.iter().enumerate() {
        num += (f as u128) * bip.version_size(v) as u128;
        den += f as u128;
    }
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The expanded tree `T'` of Appendix C.2: each version `v_i` becomes a
/// chain of `f_i` copies whose intra-chain edges share all records.
struct Expansion {
    tree: VersionTree,
    /// The copies of version `v` are `first_copy[v]..first_copy[v + 1]`.
    first_copy: Vec<usize>,
}

impl Expansion {
    /// Frequencies of zero are treated as one (every version must live
    /// somewhere).
    fn new(tree: &VersionTree, freqs: &[u64]) -> Expansion {
        assert_eq!(tree.num_versions(), freqs.len());
        let mut expanded = VersionTree::default();
        let mut first_copy = vec![0];
        // Original versions are topologically ordered by id, so parents'
        // copies exist before children are expanded.
        for (v, &freq) in freqs.iter().enumerate() {
            let first = expanded.num_versions();
            // The first copy hangs off the parent's last copy; every
            // further copy shares all records with the one before it.
            let head = match tree.parent[v] {
                Some(p) => (Some(first_copy[p + 1] - 1), tree.weight_to_parent[v]),
                None => (None, 0),
            };
            for copy in first..first + freq.max(1) as usize {
                let (parent, weight) = if copy == first {
                    head
                } else {
                    (Some(copy - 1), tree.records[v])
                };
                expanded.parent.push(parent);
                expanded.weight_to_parent.push(weight);
                expanded.records.push(tree.records[v]);
            }
            first_copy.push(expanded.num_versions());
        }
        Expansion {
            tree: expanded,
            first_copy,
        }
    }

    /// Collapse a run on `T'`: each original version joins the smallest
    /// (by records) partition among its copies' partitions.
    fn collapse(&self, run: &Run) -> LyreSplitResult {
        let expanded = &run.result.partitioning;
        let raw_assignment = self
            .first_copy
            .windows(2)
            .map(|copies| {
                expanded.assignment[copies[0]..copies[1]]
                    .iter()
                    .copied()
                    .min_by_key(|&k| run.records[k])
                    .expect("at least one copy")
            })
            .collect();
        LyreSplitResult {
            partitioning: Partitioning::from_assignment(raw_assignment),
            levels: run.result.levels,
            delta: run.result.delta,
        }
    }
}

/// LyreSplit for the weighted case (Appendix C.2): expand, split, collapse.
/// Frequencies of zero are treated as one.
pub fn lyresplit_weighted(
    tree: &VersionTree,
    freqs: &[u64],
    delta: f64,
    pick: EdgePick,
) -> LyreSplitResult {
    let expansion = Expansion::new(tree, freqs);
    let run = Workspace::new(&expansion.tree).run(delta, pick, None);
    expansion.collapse(&run)
}

/// Solve Problem 1 in the weighted case for a storage budget γ: the δ
/// search of [`crate::lyresplit::lyresplit_for_budget`], probing with
/// [`lyresplit_weighted`] on one expanded tree and measuring storage on
/// the *original* tree (the expanded copies share all records, so only the
/// collapsed partitioning's storage is real). A run on `T'` that holds at
/// a δ covers its collapse too: the collapse reads nothing but that run.
pub fn lyresplit_weighted_for_budget(
    tree: &VersionTree,
    freqs: &[u64],
    gamma: u64,
    pick: EdgePick,
) -> LyreSplitResult {
    weighted_search(tree, freqs, gamma, |workspace, delta, from| {
        workspace.run(delta, pick, from)
    })
    .0
}

/// [`lyresplit_weighted_for_budget`], with `run` making the run on `T'`
/// at each δ the search probes from the kept run it offers.
pub(crate) fn weighted_search(
    tree: &VersionTree,
    freqs: &[u64],
    gamma: u64,
    mut run: impl FnMut(&mut Workspace<'_>, f64, Option<&Run>) -> Run,
) -> (LyreSplitResult, BudgetSearch) {
    let expansion = Expansion::new(tree, freqs);
    let mut workspace = Workspace::new(&expansion.tree);
    search_delta(
        tree,
        gamma,
        |delta, from| {
            let run = run(&mut workspace, delta, from);
            let storage = expansion
                .collapse(&run)
                .partitioning
                .storage_cost_tree(tree);
            (run, storage)
        },
        |run| expansion.collapse(&run),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lyresplit::lyresplit;
    use crate::sim;

    #[test]
    fn uniform_frequencies_match_unweighted_cost() {
        let h = sim::tree(20, 17);
        let t = h.graph.to_tree();
        let freqs = vec![1u64; 20];
        let p = lyresplit(&t, 0.5, EdgePick::BalancedVersions).partitioning;
        let cw = weighted_checkout_cost(&p, &h.bipartite, &freqs);
        let cavg = p.checkout_cost(&h.bipartite);
        assert!((cw - cavg).abs() < 1e-9);
    }

    #[test]
    fn expansion_respects_structure() {
        let h = sim::tree(12, 23);
        let t = h.graph.to_tree();
        let freqs: Vec<u64> = (0..12).map(|i| 1 + (i % 3) as u64).collect();
        let r = lyresplit_weighted(&t, &freqs, 0.5, EdgePick::BalancedVersions);
        r.partitioning.validate().unwrap();
        assert_eq!(r.partitioning.num_versions(), 12);
    }

    #[test]
    fn hot_versions_bias_partitioning() {
        // A chain with a cheap prefix and expensive suffix: when the hot
        // version is the tip, the weighted cost of the tip's partition
        // matters most. We check the invariant Cw ≥ ζ (floor) and that the
        // weighted algorithm is never (much) worse than unweighted on the
        // weighted metric.
        let h = sim::chain(16, 100, 30, 3);
        let t = h.graph.to_tree();
        let mut freqs = vec![1u64; 16];
        freqs[15] = 50; // the tip is hot
        let unweighted = lyresplit(&t, 0.6, EdgePick::BalancedVersions).partitioning;
        let weighted = lyresplit_weighted(&t, &freqs, 0.6, EdgePick::BalancedVersions).partitioning;
        let floor = weighted_cost_floor(&h.bipartite, &freqs);
        let cw_u = weighted_checkout_cost(&unweighted, &h.bipartite, &freqs);
        let cw_w = weighted_checkout_cost(&weighted, &h.bipartite, &freqs);
        assert!(cw_w + 1e-9 >= floor);
        assert!(cw_u + 1e-9 >= floor);
        // The guarantee: Cw ≤ (1/δ)·ζ.
        assert!(
            cw_w <= floor / 0.6 + 1e-6,
            "weighted guarantee violated: {cw_w} > {}",
            floor / 0.6
        );
    }

    #[test]
    fn zero_frequencies_are_tolerated() {
        let h = sim::tree(8, 31);
        let t = h.graph.to_tree();
        let freqs = vec![0u64; 8];
        let r = lyresplit_weighted(&t, &freqs, 0.5, EdgePick::SmallestWeight);
        r.partitioning.validate().unwrap();
    }

    #[test]
    fn budget_search_respects_gamma() {
        let h = sim::tree(30, 99);
        let t = h.graph.to_tree();
        let freqs: Vec<u64> = (0..30).map(|i| 1 + (i as u64 % 7) * 3).collect();
        for factor in [1.2f64, 1.5, 2.0, 3.0] {
            let gamma = (factor * t.total_records() as f64) as u64;
            let r = lyresplit_weighted_for_budget(&t, &freqs, gamma, EdgePick::BalancedVersions);
            r.partitioning.validate().unwrap();
            assert!(
                r.partitioning.storage_cost_tree(&t) <= gamma,
                "γ-factor {factor}: storage {} > {gamma}",
                r.partitioning.storage_cost_tree(&t)
            );
        }
    }

    #[test]
    fn budget_search_weighted_cost_shrinks_with_budget() {
        let h = sim::tree(40, 5);
        let t = h.graph.to_tree();
        let mut freqs = vec![1u64; 40];
        freqs[39] = 100;
        let tight = lyresplit_weighted_for_budget(
            &t,
            &freqs,
            (1.1 * t.total_records() as f64) as u64,
            EdgePick::BalancedVersions,
        );
        let loose = lyresplit_weighted_for_budget(
            &t,
            &freqs,
            (3.0 * t.total_records() as f64) as u64,
            EdgePick::BalancedVersions,
        );
        let cw_tight = weighted_checkout_cost(&tight.partitioning, &h.bipartite, &freqs);
        let cw_loose = weighted_checkout_cost(&loose.partitioning, &h.bipartite, &freqs);
        assert!(cw_loose <= cw_tight + 1e-9, "{cw_loose} > {cw_tight}");
    }
}

//! Small synthetic version-history simulator.
//!
//! Generates random-but-consistent version histories (record sets, version
//! graph and derived weights all agree) for this crate's unit tests; it is
//! compiled only under `cfg(test)`. The full SCI/CUR benchmark generator
//! of Section 5.1 lives in `orpheus-bench`; this module is deliberately
//! minimal.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bipartite::BipartiteGraph;
use crate::version_graph::VersionGraph;
use crate::{RecordId, VersionId};

/// A generated history: record membership plus the matching version graph.
#[derive(Debug, Clone)]
pub struct SimHistory {
    pub bipartite: BipartiteGraph,
    pub graph: VersionGraph,
    pub parent_lists: Vec<Vec<VersionId>>,
}

/// Parameters for [`simulate`].
#[derive(Debug, Clone)]
pub struct SimParams {
    pub versions: usize,
    /// Records in the root version.
    pub base_records: usize,
    /// New records inserted per derived version.
    pub inserts: usize,
    /// Records deleted per derived version (bounded by parent size).
    pub deletes: usize,
    /// Probability of branching from a random ancestor instead of the tip.
    pub branch_prob: f64,
    /// Probability that a new version merges two existing versions
    /// (0 ⇒ the history is a tree).
    pub merge_prob: f64,
    pub seed: u64,
}

impl Default for SimParams {
    fn default() -> SimParams {
        SimParams {
            versions: 20,
            base_records: 50,
            inserts: 10,
            deletes: 3,
            branch_prob: 0.3,
            merge_prob: 0.0,
            seed: 7,
        }
    }
}

/// Generate a history under the no-cross-version-diff rule: every inserted
/// record gets a globally fresh id, deleted-then-readded data would get a
/// fresh id too (Section 2.2).
pub fn simulate(params: &SimParams) -> SimHistory {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut version_records: Vec<Vec<RecordId>> = Vec::with_capacity(params.versions);
    let mut parent_lists: Vec<Vec<VersionId>> = Vec::with_capacity(params.versions);

    // Root version.
    let root: Vec<RecordId> = (0..params.base_records).collect();
    let mut next_record: RecordId = params.base_records;
    version_records.push(root);
    parent_lists.push(Vec::new());

    for v in 1..params.versions {
        let do_merge = v >= 2 && rng.gen_bool(params.merge_prob);
        if do_merge {
            // Merge two distinct existing versions: union of their records.
            let a = rng.gen_range(0..v);
            let mut b = rng.gen_range(0..v);
            while b == a {
                b = rng.gen_range(0..v);
            }
            let mut records: Vec<RecordId> = version_records[a]
                .iter()
                .chain(version_records[b].iter())
                .copied()
                .collect();
            records.sort_unstable();
            records.dedup();
            version_records.push(records);
            parent_lists.push(vec![a.min(b), a.max(b)]);
        } else {
            let parent = if rng.gen_bool(params.branch_prob) {
                rng.gen_range(0..v)
            } else {
                v - 1
            };
            let mut records = version_records[parent].clone();
            // Delete a few random records.
            for _ in 0..params.deletes.min(records.len().saturating_sub(1)) {
                let idx = rng.gen_range(0..records.len());
                records.swap_remove(idx);
            }
            // Insert fresh records.
            for _ in 0..params.inserts {
                records.push(next_record);
                next_record += 1;
            }
            records.sort_unstable();
            version_records.push(records);
            parent_lists.push(vec![parent]);
        }
    }

    let bipartite = BipartiteGraph::new(version_records);
    let graph = VersionGraph::from_bipartite(&parent_lists, &bipartite);
    SimHistory {
        bipartite,
        graph,
        parent_lists,
    }
}

/// Convenience: a linear chain (temporal-database-like history).
pub fn chain(versions: usize, base_records: usize, inserts: usize, seed: u64) -> SimHistory {
    simulate(&SimParams {
        versions,
        base_records,
        inserts,
        deletes: 0,
        branch_prob: 0.0,
        merge_prob: 0.0,
        seed,
    })
}

/// Convenience: a branched tree without merges (SCI-like).
pub fn tree(versions: usize, seed: u64) -> SimHistory {
    simulate(&SimParams {
        versions,
        merge_prob: 0.0,
        seed,
        ..SimParams::default()
    })
}

/// Convenience: a DAG with merges (CUR-like).
pub fn dag(versions: usize, seed: u64) -> SimHistory {
    simulate(&SimParams {
        versions,
        merge_prob: 0.25,
        branch_prob: 0.4,
        seed,
        ..SimParams::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shapes() {
        let h = chain(10, 100, 5, 1);
        assert_eq!(h.bipartite.num_versions(), 10);
        assert!(h.graph.is_tree());
        // Chain: every non-root version has exactly the previous as parent.
        for v in 1..10 {
            assert_eq!(h.parent_lists[v], vec![v - 1]);
        }
        // With zero deletes, |R| = base + 9×inserts.
        assert_eq!(h.bipartite.num_records(), 100 + 9 * 5);
    }

    #[test]
    fn weights_equal_true_overlaps() {
        let h = tree(25, 42);
        for v in 1..25 {
            for &(p, w) in h.graph.parents_of(v) {
                assert_eq!(w as usize, h.bipartite.common_records(p, v));
            }
        }
    }

    #[test]
    fn dag_contains_merges() {
        let h = dag(40, 3);
        assert!(!h.graph.is_tree());
        let merges = (0..40).filter(|&v| h.parent_lists[v].len() > 1).count();
        assert!(merges > 0);
        // Merge versions contain the union of their parents' records.
        for v in 0..40 {
            if h.parent_lists[v].len() == 2 {
                let (a, b) = (h.parent_lists[v][0], h.parent_lists[v][1]);
                let union = h.bipartite.union_records(&[a, b]);
                assert_eq!(h.bipartite.records_of(v), union.as_slice());
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = tree(15, 9);
        let b = tree(15, 9);
        assert_eq!(a.parent_lists, b.parent_lists);
        assert_eq!(a.bipartite.num_records(), b.bipartite.num_records());
        let c = tree(15, 10);
        assert!(
            a.parent_lists != c.parent_lists
                || a.bipartite.num_records() != c.bipartite.num_records()
        );
    }

    #[test]
    fn tree_estimate_exact_on_trees() {
        // Cross-check the Lemma 1 identity against ground truth on a
        // generated tree: tree-derived |R| equals the bipartite's |R|.
        let h = tree(30, 5);
        let t = h.graph.to_tree();
        assert_eq!(t.total_records() as usize, h.bipartite.num_records());
    }
}

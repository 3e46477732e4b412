//! Partitionings of the version set, and the storage/checkout cost metrics
//! of Section 4.1.
//!
//! A partitioning assigns **every version to exactly one partition**;
//! records may be duplicated across partitions (Figure 6b). Costs:
//!
//! * storage cost `S = Σk |Rk|` (Equation 4.1),
//! * checkout cost `Cavg = Σk |Vk||Rk| / n` (Equation 4.2).

use crate::bipartite::BipartiteGraph;
use crate::version_graph::VersionTree;
use crate::VersionId;

/// Assignment of versions to partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// `assignment[v]` = partition id in `0..num_partitions`.
    pub assignment: Vec<usize>,
    pub num_partitions: usize,
}

impl Partitioning {
    /// All versions in a single partition.
    pub fn single(num_versions: usize) -> Partitioning {
        Partitioning {
            assignment: vec![0; num_versions],
            num_partitions: if num_versions == 0 { 0 } else { 1 },
        }
    }

    /// Each version in its own partition.
    pub fn singletons(num_versions: usize) -> Partitioning {
        Partitioning {
            assignment: (0..num_versions).collect(),
            num_partitions: num_versions,
        }
    }

    /// Build from an assignment vector, compacting partition ids to a dense
    /// `0..K` range (stable in order of first appearance).
    pub fn from_assignment(raw: Vec<usize>) -> Partitioning {
        let mut remap: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut assignment = Vec::with_capacity(raw.len());
        for a in raw {
            let next = remap.len();
            let id = *remap.entry(a).or_insert(next);
            assignment.push(id);
        }
        Partitioning {
            assignment,
            num_partitions: remap.len(),
        }
    }

    pub fn num_versions(&self) -> usize {
        self.assignment.len()
    }

    /// Versions per partition.
    pub fn partitions(&self) -> Vec<Vec<VersionId>> {
        let mut out = vec![Vec::new(); self.num_partitions];
        for (v, &p) in self.assignment.iter().enumerate() {
            out[p].push(v);
        }
        out
    }

    /// Partition id of a version.
    pub fn partition_of(&self, v: VersionId) -> usize {
        self.assignment[v]
    }

    /// Exact storage cost `S = Σ |Rk|` against the bipartite graph.
    pub fn storage_cost(&self, bip: &BipartiteGraph) -> u64 {
        self.partitions()
            .iter()
            .map(|vs| bip.distinct_records(vs) as u64)
            .sum()
    }

    /// Exact checkout cost `Cavg = Σ |Vk||Rk| / n`.
    pub fn checkout_cost(&self, bip: &BipartiteGraph) -> f64 {
        let n = self.num_versions();
        if n == 0 {
            return 0.0;
        }
        let total: u64 = self
            .partitions()
            .iter()
            .map(|vs| (vs.len() * bip.distinct_records(vs)) as u64)
            .sum();
        total as f64 / n as f64
    }

    /// Checkout cost `Ci = |Rk|` of one version.
    pub fn checkout_cost_of(&self, bip: &BipartiteGraph, v: VersionId) -> u64 {
        let parts = self.partitions();
        bip.distinct_records(&parts[self.assignment[v]]) as u64
    }

    /// What version `v` adds to its partition's distinct records by the
    /// connected-component formula: `|R(v)| − w(p(v), v)` when its tree
    /// parent is in the same partition, all of `|R(v)|` otherwise.
    fn new_records(&self, tree: &VersionTree, v: VersionId) -> u64 {
        match tree.parent[v] {
            Some(p) if self.assignment[p] == self.assignment[v] => {
                tree.records[v].saturating_sub(tree.weight_to_parent[v])
            }
            _ => tree.records[v],
        }
    }

    /// Tree-estimated storage cost: uses the connected-component record
    /// formula instead of probing record sets. Exact when every partition is
    /// connected in the tree (always true for LyreSplit output).
    pub fn storage_cost_tree(&self, tree: &VersionTree) -> u64 {
        (0..self.num_versions())
            .map(|v| self.new_records(tree, v))
            .sum()
    }

    /// Tree-estimated `(|Vk|, |Rk|)` of every partition (same caveat as
    /// [`Partitioning::storage_cost_tree`]).
    pub(crate) fn tree_sizes(&self, tree: &VersionTree) -> Vec<(u64, u64)> {
        let mut sizes = vec![(0, 0); self.num_partitions];
        for v in 0..self.num_versions() {
            let (versions, records) = &mut sizes[self.assignment[v]];
            *versions += 1;
            *records += self.new_records(tree, v);
        }
        sizes
    }

    /// Tree-estimated checkout cost (same caveat as
    /// [`Partitioning::storage_cost_tree`]).
    pub fn checkout_cost_tree(&self, tree: &VersionTree) -> f64 {
        let n = self.num_versions();
        if n == 0 {
            return 0.0;
        }
        let total: u64 = self
            .tree_sizes(tree)
            .iter()
            .map(|&(versions, records)| versions * records)
            .sum();
        total as f64 / n as f64
    }

    /// Validate structural invariants: every version is assigned to exactly
    /// one in-range partition and no partition is empty.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.num_partitions];
        for (v, &p) in self.assignment.iter().enumerate() {
            if p >= self.num_partitions {
                return Err(format!(
                    "version {v} assigned to out-of-range partition {p}"
                ));
            }
            seen[p] = true;
        }
        if let Some(empty) = seen.iter().position(|s| !s) {
            return Err(format!("partition {empty} is empty"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::figure6_graph;

    #[test]
    fn extreme_partitionings_match_observations() {
        let g = figure6_graph();
        // Observation 2: single partition minimizes storage at |R|.
        let single = Partitioning::single(4);
        assert_eq!(single.storage_cost(&g), 7);
        assert_eq!(single.checkout_cost(&g), 7.0);
        // Observation 1: per-version partitions minimize checkout at |E|/|V|.
        let each = Partitioning::singletons(4);
        assert_eq!(each.storage_cost(&g), 16);
        assert!((each.checkout_cost(&g) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn figure6b_partitioning_costs() {
        let g = figure6_graph();
        // P1 = {v1, v2}, P2 = {v3, v4} (Figure 6b): r2, r3, r4 duplicated.
        let p = Partitioning {
            assignment: vec![0, 0, 1, 1],
            num_partitions: 2,
        };
        assert_eq!(p.storage_cost(&g), 4 + 6);
        assert!((p.checkout_cost(&g) - (2.0 * 4.0 + 2.0 * 6.0) / 4.0).abs() < 1e-12);
        assert_eq!(p.checkout_cost_of(&g, 0), 4);
        assert_eq!(p.checkout_cost_of(&g, 3), 6);
    }

    #[test]
    fn from_assignment_compacts_ids() {
        let p = Partitioning::from_assignment(vec![7, 7, 3, 9]);
        assert_eq!(p.num_partitions, 3);
        assert_eq!(p.assignment, vec![0, 0, 1, 2]);
        p.validate().unwrap();
    }

    #[test]
    fn validate_catches_empty_partitions() {
        let p = Partitioning {
            assignment: vec![0, 0],
            num_partitions: 2,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn tree_estimates_agree_with_exact_for_connected_partitions() {
        let g = figure6_graph();
        let vg = crate::version_graph::VersionGraph::from_bipartite(
            &[vec![], vec![0], vec![0], vec![1, 2]],
            &g,
        );
        let tree = vg.to_tree();
        // Partition along the tree: {v1, v2} and {v3, v4} — v4's tree parent
        // is v3, so both components are connected.
        let p = Partitioning {
            assignment: vec![0, 0, 1, 1],
            num_partitions: 2,
        };
        // The tree treats v4's records shared with v2 as duplicated, so the
        // tree estimate may exceed the exact count, never undercount.
        assert!(p.storage_cost_tree(&tree) >= p.storage_cost(&g));
        assert!(p.checkout_cost_tree(&tree) >= p.checkout_cost(&g) - 1e-12);
        // On a pure tree (no merges) the estimate is exact.
        let vg2 = crate::version_graph::VersionGraph::from_bipartite(
            &[vec![], vec![0], vec![0], vec![2]],
            &g,
        );
        let tree2 = vg2.to_tree();
        assert_eq!(p.storage_cost_tree(&tree2), p.storage_cost(&g));
    }
}

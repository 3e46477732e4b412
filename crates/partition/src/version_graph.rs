//! The version graph (Section 3.3, Figure 4) and the version tree that
//! LyreSplit operates on, including the DAG → tree transformation of
//! Appendix C.1.

use std::collections::HashMap;

use crate::bipartite::BipartiteGraph;
use crate::VersionId;

/// A version DAG: nodes are versions; an edge `p → v` with weight
/// `w(p, v)` = number of records shared by `p` and `v`. A version with
/// multiple parents is a merge.
#[derive(Debug, Clone, Default)]
pub struct VersionGraph {
    /// `parents[v]` = (parent id, shared-record count) pairs.
    parents: Vec<Vec<(VersionId, u64)>>,
    /// `records[v]` = |R(v)|.
    records: Vec<u64>,
}

impl VersionGraph {
    pub fn new() -> VersionGraph {
        VersionGraph::default()
    }

    /// Derive the version graph from explicit parent lists plus the
    /// bipartite graph (weights = record overlaps).
    pub fn from_bipartite(parent_lists: &[Vec<VersionId>], bip: &BipartiteGraph) -> VersionGraph {
        let mut g = VersionGraph::new();
        for (v, ps) in parent_lists.iter().enumerate() {
            let weighted: Vec<(VersionId, u64)> = ps
                .iter()
                .map(|&p| (p, bip.common_records(p, v) as u64))
                .collect();
            g.parents.push(weighted);
            g.records.push(bip.version_size(v) as u64);
        }
        g
    }

    /// Append a version with the given weighted parents and record count.
    pub fn push_version(&mut self, parents: Vec<(VersionId, u64)>, records: u64) -> VersionId {
        for &(p, w) in &parents {
            debug_assert!(p < self.parents.len(), "parent {p} not yet present");
            debug_assert!(w <= self.records[p].max(records));
        }
        self.parents.push(parents);
        self.records.push(records);
        self.parents.len() - 1
    }

    pub fn num_versions(&self) -> usize {
        self.parents.len()
    }

    pub fn parents_of(&self, v: VersionId) -> &[(VersionId, u64)] {
        &self.parents[v]
    }

    pub fn records_of(&self, v: VersionId) -> u64 {
        self.records[v]
    }

    /// True if no version has more than one parent (no merges).
    pub fn is_tree(&self) -> bool {
        self.parents.iter().all(|p| p.len() <= 1)
    }

    /// Children adjacency (derived).
    pub fn children(&self) -> Vec<Vec<VersionId>> {
        let mut ch = vec![Vec::new(); self.num_versions()];
        for (v, ps) in self.parents.iter().enumerate() {
            for &(p, _) in ps {
                ch[p].push(v);
            }
        }
        ch
    }

    /// Depth `l(v)` of each version in topological order (roots at 1).
    pub fn levels(&self) -> Vec<usize> {
        let mut lv = vec![1usize; self.num_versions()];
        // Versions are appended after their parents, so ids are topo-sorted.
        for v in 0..self.num_versions() {
            for &(p, _) in &self.parents[v] {
                lv[v] = lv[v].max(lv[p] + 1);
            }
        }
        lv
    }

    /// All ancestors of `v` (transitive parents), excluding `v`.
    pub fn ancestors(&self, v: VersionId) -> Vec<VersionId> {
        let mut seen = vec![false; self.num_versions()];
        let mut stack = vec![v];
        let mut out = Vec::new();
        while let Some(x) = stack.pop() {
            for &(p, _) in &self.parents[x] {
                if !seen[p] {
                    seen[p] = true;
                    out.push(p);
                    stack.push(p);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// All descendants of `v`, excluding `v`.
    pub fn descendants(&self, v: VersionId) -> Vec<VersionId> {
        let ch = self.children();
        let mut seen = vec![false; self.num_versions()];
        let mut stack = vec![v];
        let mut out = Vec::new();
        while let Some(x) = stack.pop() {
            for &c in &ch[x] {
                if !seen[c] {
                    seen[c] = true;
                    out.push(c);
                    stack.push(c);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Transform the (possibly merged) version graph into a version tree by
    /// keeping, for each merge version, only the incoming edge with the
    /// highest weight (Appendix C.1). Ties break toward the smaller parent
    /// id for determinism.
    pub fn to_tree(&self) -> VersionTree {
        let n = self.num_versions();
        let mut parent = vec![None; n];
        let mut weight = vec![0u64; n];
        for v in 0..n {
            if let Some((p, w)) = tree_parent(self.parents[v].iter().copied()) {
                parent[v] = Some(p);
                weight[v] = w;
            }
        }
        VersionTree {
            parent,
            weight_to_parent: weight,
            records: self.records.clone(),
        }
    }

    /// Number of conceptually duplicated records `|R̂|` introduced by the
    /// tree transformation (Appendix C.1): records of a merge version that
    /// are shared with *some* parent but not with the kept parent are
    /// treated as new, hence duplicated. Requires the bipartite graph.
    pub fn duplicated_records(&self, bip: &BipartiteGraph) -> usize {
        let tree = self.to_tree();
        let mut dup = 0usize;
        for v in 0..self.num_versions() {
            if self.parents[v].len() < 2 {
                continue;
            }
            let kept = tree.parent[v].expect("merge version has a parent");
            let kept_set: std::collections::HashSet<usize> =
                bip.records_of(kept).iter().copied().collect();
            // Records of v present in the union of dropped parents but not
            // in the kept parent.
            let mut union_dropped = std::collections::HashSet::new();
            for &(p, _) in &self.parents[v] {
                if p != kept {
                    union_dropped.extend(bip.records_of(p).iter().copied());
                }
            }
            for r in bip.records_of(v) {
                if union_dropped.contains(r) && !kept_set.contains(r) {
                    dup += 1;
                }
            }
        }
        dup
    }
}

/// The one incoming edge of a version that [`VersionGraph::to_tree`] keeps:
/// the heaviest, ties toward the smaller parent id. It looks at nothing but
/// the version's own `(parent, weight)` edges, so a tree can be grown one
/// committed version at a time.
pub fn tree_parent(edges: impl IntoIterator<Item = (VersionId, u64)>) -> Option<(VersionId, u64)> {
    edges
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
}

/// A version tree: each non-root version has exactly one parent. This is
/// the only structure LyreSplit reads — never the (much larger) bipartite
/// graph — which is the source of its speed advantage (Section 5.2).
#[derive(Debug, Clone, Default)]
pub struct VersionTree {
    /// `parent[v]`, `None` for roots.
    pub parent: Vec<Option<VersionId>>,
    /// `w(parent[v], v)`; 0 for roots.
    pub weight_to_parent: Vec<u64>,
    /// `|R(v)|` per version.
    pub records: Vec<u64>,
}

impl VersionTree {
    pub fn num_versions(&self) -> usize {
        self.parent.len()
    }

    /// Children adjacency.
    pub fn children(&self) -> Vec<Vec<VersionId>> {
        let mut ch = vec![Vec::new(); self.num_versions()];
        for (v, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                ch[*p].push(v);
            }
        }
        ch
    }

    /// Total membership edges |E| = Σ |R(v)|.
    pub fn total_edges(&self) -> u64 {
        self.records.iter().sum()
    }

    /// Number of distinct records |R| implied by the tree under the
    /// no-cross-version-diff rule: the root contributes all its records,
    /// every other version contributes `|R(v)| − w(p(v), v)` new ones.
    ///
    /// For trees derived from DAGs this counts duplicated records `R̂` as
    /// distinct, exactly as the analysis in Appendix C.1 does.
    pub fn total_records(&self) -> u64 {
        let mut total = 0u64;
        for v in 0..self.num_versions() {
            match self.parent[v] {
                None => total += self.records[v],
                Some(_) => total += self.records[v].saturating_sub(self.weight_to_parent[v]),
            }
        }
        total
    }

    /// Distinct-record count of a *connected* component of the tree
    /// (identified by membership), computed purely from counts.
    pub fn component_records(&self, members: &[VersionId]) -> u64 {
        let member_set: HashMap<VersionId, ()> = members.iter().map(|&v| (v, ())).collect();
        let mut total = 0u64;
        for &v in members {
            match self.parent[v] {
                Some(p) if member_set.contains_key(&p) => {
                    total += self.records[v].saturating_sub(self.weight_to_parent[v]);
                }
                _ => total += self.records[v],
            }
        }
        total
    }

    /// Levels (depth) per version; roots at level 1.
    pub fn levels(&self) -> Vec<usize> {
        let mut lv = vec![1usize; self.num_versions()];
        for v in 0..self.num_versions() {
            if let Some(p) = self.parent[v] {
                lv[v] = lv[p] + 1;
            }
        }
        lv
    }
}

/// Build the version graph of Figure 4(b): v1 → {v2, v3}, v2 and v3 merge
/// into v4. Numbers from the paper: |R| per version 3,3,4,6; weights
/// w(v1,v2)=2, w(v1,v3)=1, w(v2,v4)=3, w(v3,v4)=4.
pub fn figure4_graph() -> VersionGraph {
    let mut g = VersionGraph::new();
    let v1 = g.push_version(vec![], 3);
    let v2 = g.push_version(vec![(v1, 2)], 3);
    let v3 = g.push_version(vec![(v1, 1)], 4);
    let _v4 = g.push_version(vec![(v2, 3), (v3, 4)], 6);
    let _ = (v2, v3);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::figure6_graph;

    #[test]
    fn figure4_tree_transform_keeps_heavier_edge() {
        let g = figure4_graph();
        assert!(!g.is_tree());
        let t = g.to_tree();
        // v4 keeps parent v3 (weight 4 > 3), per Figure 17.
        assert_eq!(t.parent[3], Some(2));
        assert_eq!(t.weight_to_parent[3], 4);
        assert!(g.to_tree().parent[1] == Some(0));
    }

    #[test]
    fn figure17_duplicated_records() {
        // Figure 17: after dropping edge (v2, v4), records r̂2 and r̂4 are
        // duplicated: |R̂| = 2.
        let bip = figure6_graph();
        let g = VersionGraph::from_bipartite(&[vec![], vec![0], vec![0], vec![1, 2]], &bip);
        assert_eq!(g.duplicated_records(&bip), 2);
    }

    #[test]
    fn tree_total_records_matches_figure17() {
        // The constructed tree Tˆ has 9 records (7 real + 2 duplicated) and
        // 16 bipartite edges.
        let bip = figure6_graph();
        let g = VersionGraph::from_bipartite(&[vec![], vec![0], vec![0], vec![1, 2]], &bip);
        let t = g.to_tree();
        assert_eq!(t.total_edges(), 16);
        assert_eq!(t.total_records(), 9);
    }

    #[test]
    fn levels_and_lineage() {
        let g = figure4_graph();
        assert_eq!(g.levels(), vec![1, 2, 2, 3]);
        assert_eq!(g.ancestors(3), vec![0, 1, 2]);
        assert_eq!(g.descendants(0), vec![1, 2, 3]);
        assert_eq!(g.descendants(3), Vec::<usize>::new());
    }

    #[test]
    fn component_records_on_figure8_style_split() {
        // A chain r=10 -> 9 shared -> 10 -> 2 shared -> 10: cutting the weak
        // edge yields components of 11 and 10 distinct records.
        let t = VersionTree {
            parent: vec![None, Some(0), Some(1)],
            weight_to_parent: vec![0, 9, 2],
            records: vec![10, 10, 10],
        };
        assert_eq!(t.total_records(), 10 + 1 + 8);
        assert_eq!(t.component_records(&[0, 1]), 11);
        assert_eq!(t.component_records(&[2]), 10);
    }

    #[test]
    fn from_bipartite_derives_weights() {
        let bip = figure6_graph();
        let g = VersionGraph::from_bipartite(&[vec![], vec![0], vec![0], vec![1, 2]], &bip);
        assert_eq!(g.parents_of(3), &[(1, 3), (2, 4)]);
        assert_eq!(g.records_of(3), 6);
    }
}

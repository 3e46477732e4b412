//! LYRESPLIT (Algorithm 1): the light-weight ((1+δ)^ℓ, 1/δ)-approximation
//! for the NP-hard storage/checkout partitioning problem (Problem 1).
//!
//! The algorithm operates **only on the version tree**, never on the
//! version-record bipartite graph; per-component record counts come from
//! the telescoping identity of Lemma 1
//! (`|R| = Σ|R(v)| − Σ w(p(v), v)`), which is what makes LyreSplit ~10³×
//! faster than the record-set-based baselines (Section 5.2).
//!
//! Recursive step: a component `(V, R, E)` stays whole if
//! `|R|·|V| < |E|/δ`; otherwise some tree edge has weight `≤ δ|R|`
//! (guaranteed by Lemma 1), and cutting it splits the component in two.
//! The recursion level `ℓ` at termination bounds the storage blow-up by
//! `(1+δ)^ℓ` (Theorem 2).

use crate::partitioning::Partitioning;
use crate::version_graph::VersionTree;
use crate::VersionId;

/// Strategy for choosing among qualifying cut edges (the guarantee holds
/// for any choice; the paper uses version balance with a record-balance
/// tie-break).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgePick {
    /// Cut the edge with the smallest weight.
    SmallestWeight,
    /// Cut the edge that best balances version counts between the two
    /// sides, breaking ties by record balance (the paper's choice).
    #[default]
    BalancedVersions,
}

/// Outcome of a LyreSplit run.
#[derive(Debug, Clone)]
pub struct LyreSplitResult {
    pub partitioning: Partitioning,
    /// Recursion level `ℓ` at termination (0 when no split happened).
    pub levels: usize,
    /// The δ used.
    pub delta: f64,
}

/// Run LyreSplit with a fixed δ (Algorithm 1).
pub fn lyresplit(tree: &VersionTree, delta: f64, pick: EdgePick) -> LyreSplitResult {
    let n = tree.num_versions();
    let mut assignment = vec![0usize; n];
    if n == 0 {
        return LyreSplitResult {
            partitioning: Partitioning {
                assignment,
                num_partitions: 0,
            },
            levels: 0,
            delta,
        };
    }

    // Work queue of (component members, recursion level).
    let mut queue: Vec<(Vec<VersionId>, usize)> = vec![((0..n).collect(), 0)];
    let mut next_partition = 0usize;
    let mut max_level = 0usize;

    while let Some((members, level)) = queue.pop() {
        max_level = max_level.max(level);
        match try_split(tree, &members, delta, pick) {
            Some((side_a, side_b)) => {
                queue.push((side_a, level + 1));
                queue.push((side_b, level + 1));
            }
            None => {
                for &v in &members {
                    assignment[v] = next_partition;
                }
                next_partition += 1;
            }
        }
    }

    LyreSplitResult {
        partitioning: Partitioning {
            assignment,
            num_partitions: next_partition,
        },
        levels: max_level,
        delta,
    }
}

/// Component statistics computed from tree counts alone.
struct CompStats {
    /// Membership flags for O(1) parent-in-component checks.
    in_comp: Vec<bool>,
    r: u64,
    v: u64,
    e: u64,
}

fn comp_stats(tree: &VersionTree, members: &[VersionId], scratch: &mut Vec<bool>) -> CompStats {
    scratch.clear();
    scratch.resize(tree.num_versions(), false);
    for &v in members {
        scratch[v] = true;
    }
    let mut r = 0u64;
    let mut e = 0u64;
    for &v in members {
        e += tree.records[v];
        match tree.parent[v] {
            Some(p) if scratch[p] => r += tree.records[v].saturating_sub(tree.weight_to_parent[v]),
            _ => r += tree.records[v],
        }
    }
    CompStats {
        in_comp: scratch.clone(),
        r,
        v: members.len() as u64,
        e,
    }
}

/// One recursive step: `None` when the component is final, otherwise the
/// two sides after cutting the chosen edge.
fn try_split(
    tree: &VersionTree,
    members: &[VersionId],
    delta: f64,
    pick: EdgePick,
) -> Option<(Vec<VersionId>, Vec<VersionId>)> {
    if members.len() <= 1 {
        return None;
    }
    let mut scratch = Vec::new();
    let stats = comp_stats(tree, members, &mut scratch);

    // Line 1: termination check |R|·|V| < |E|/δ.
    if (stats.r as f64) * (stats.v as f64) < stats.e as f64 / delta {
        return None;
    }

    // Line 5: qualifying edges Ω = {v | w(p(v), v) ≤ δ|R|, p(v) in comp}.
    let candidates: Vec<VersionId> = members
        .iter()
        .copied()
        .filter(|&v| match tree.parent[v] {
            Some(p) => {
                stats.in_comp[p] && tree.weight_to_parent[v] as f64 <= delta * stats.r as f64
            }
            None => false,
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }

    let cut = match pick {
        EdgePick::SmallestWeight => candidates
            .iter()
            .copied()
            .min_by_key(|&v| (tree.weight_to_parent[v], v))
            .expect("candidates nonempty"),
        EdgePick::BalancedVersions => pick_balanced(tree, members, &stats, &candidates),
    };

    // Split: subtree rooted at `cut` (within the component) vs. the rest.
    let children = component_children(tree, members, &stats);
    let mut sub = Vec::new();
    let mut stack = vec![cut];
    let mut in_sub = vec![false; tree.num_versions()];
    while let Some(x) = stack.pop() {
        in_sub[x] = true;
        sub.push(x);
        for &c in &children[x] {
            stack.push(c);
        }
    }
    let rest: Vec<VersionId> = members.iter().copied().filter(|&v| !in_sub[v]).collect();
    debug_assert!(!rest.is_empty());
    Some((sub, rest))
}

/// Children lists restricted to the component.
fn component_children(
    tree: &VersionTree,
    members: &[VersionId],
    stats: &CompStats,
) -> Vec<Vec<VersionId>> {
    let mut ch = vec![Vec::new(); tree.num_versions()];
    for &v in members {
        if let Some(p) = tree.parent[v] {
            if stats.in_comp[p] {
                ch[p].push(v);
            }
        }
    }
    ch
}

/// The paper's edge-pick: minimize the version-count imbalance of the two
/// sides; ties broken by record balance. Both quantities come from a single
/// bottom-up pass over the component.
fn pick_balanced(
    tree: &VersionTree,
    members: &[VersionId],
    stats: &CompStats,
    candidates: &[VersionId],
) -> VersionId {
    // Bottom-up accumulation of subtree version counts and new-record sums.
    // Members are processed in reverse topological order: version ids are
    // assigned parent-before-child, so sorting suffices.
    let mut order: Vec<VersionId> = members.to_vec();
    order.sort_unstable();
    let mut sub_versions = vec![0u64; tree.num_versions()];
    let mut sub_newrecs = vec![0u64; tree.num_versions()];
    for &v in order.iter().rev() {
        let newrec = match tree.parent[v] {
            Some(p) if stats.in_comp[p] => tree.records[v].saturating_sub(tree.weight_to_parent[v]),
            _ => tree.records[v],
        };
        sub_versions[v] += 1;
        sub_newrecs[v] += newrec;
        if let Some(p) = tree.parent[v] {
            if stats.in_comp[p] {
                sub_versions[p] += sub_versions[v];
                sub_newrecs[p] += sub_newrecs[v];
            }
        }
    }

    let mut best = candidates[0];
    let mut best_key = (u64::MAX, u64::MAX, usize::MAX);
    for &v in candidates {
        let vs = sub_versions[v];
        let version_imbalance = (stats.v as i64 - 2 * vs as i64).unsigned_abs();
        // After the cut, the subtree side regains w(p(v), v) records at its
        // root (they are no longer shared within the component).
        let sub_records = sub_newrecs[v] + tree.weight_to_parent[v];
        let rest_records = stats.r - sub_newrecs[v];
        let record_imbalance = sub_records.abs_diff(rest_records);
        let key = (version_imbalance, record_imbalance, v);
        if key < best_key {
            best_key = key;
            best = v;
        }
    }
    best
}

/// Statistics of the δ binary search (Appendix B); also what Figures 10/11
/// time ("running time per binary-search iteration").
#[derive(Debug, Clone)]
pub struct BudgetSearch {
    pub iterations: usize,
    pub final_delta: f64,
    /// Tree-estimated storage cost of the returned partitioning.
    pub storage: u64,
}

/// Solve Problem 1 for a storage budget γ: binary search δ over
/// `[|E|/(|R||V|), 1]` until the resulting storage lands in `[0.99γ, γ]`
/// (Appendix B). Returns the best partitioning with `S ≤ γ` seen.
pub fn lyresplit_for_budget(
    tree: &VersionTree,
    gamma: u64,
    pick: EdgePick,
) -> (LyreSplitResult, BudgetSearch) {
    let r = tree.total_records().max(1);
    let v = tree.num_versions().max(1) as u64;
    let e = tree.total_edges().max(1);
    let mut lo = e as f64 / (r as f64 * v as f64);
    let mut hi = 1.0f64;
    lo = lo.min(1.0);

    // δ = lo keeps everything in (nearly) one partition. If even that
    // overshoots γ (possible only through float edge-cases or γ < |R|,
    // which is infeasible by Observation 2), fall back to the minimum-
    // storage single partition.
    let mut best = lyresplit(tree, lo, pick);
    let mut best_s = best.partitioning.storage_cost_tree(tree);
    if best_s > gamma {
        best = LyreSplitResult {
            partitioning: Partitioning::single(tree.num_versions()),
            levels: 0,
            delta: lo,
        };
        best_s = best.partitioning.storage_cost_tree(tree);
    }
    let mut iterations = 0usize;

    // Larger δ ⇒ more splits ⇒ more storage, less checkout cost. Find the
    // largest δ whose storage stays within budget.
    for _ in 0..64 {
        if hi - lo < 1e-9 {
            break;
        }
        iterations += 1;
        let mid = 0.5 * (lo + hi);
        let res = lyresplit(tree, mid, pick);
        let s = res.partitioning.storage_cost_tree(tree);
        if s <= gamma {
            // Feasible: prefer it (more splits than `best` at smaller δ).
            best = res;
            best_s = s;
            lo = mid;
            if s as f64 >= 0.99 * gamma as f64 {
                break;
            }
        } else {
            hi = mid;
        }
    }

    let search = BudgetSearch {
        iterations,
        final_delta: best.delta,
        storage: best_s,
    };
    (best, search)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 8 example: a 7-version tree; with δ = 0.5 the algorithm
    /// terminates with three partitions after two levels.
    fn figure8_tree() -> VersionTree {
        // v1 (30 records) with children v2 (w=12), v3 (w=10);
        // v2 → v4 (w=3*... )
        // Weights/records from Figure 8: nodes carry record counts
        // 30, 12?, ... The figure labels edges 7,10,8,10,12,30 / 6,8,6,8,7,6.
        // We reconstruct a consistent tree matching the split behaviour:
        // node records:   v1=30, v2=12, v3=10, v4=7, v5=8, v6=10, v7=8
        // edge weights:   (v1,v2)=6, (v1,v3)=8, (v2,v4)=6, (v2,v5)=7,
        //                 (v3,v6)=8, (v3,v7)=6
        VersionTree {
            parent: vec![None, Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)],
            weight_to_parent: vec![0, 6, 8, 6, 7, 8, 6],
            records: vec![30, 12, 10, 7, 8, 10, 8],
        }
    }

    #[test]
    fn single_version_is_one_partition() {
        let t = VersionTree {
            parent: vec![None],
            weight_to_parent: vec![0],
            records: vec![5],
        };
        let r = lyresplit(&t, 0.5, EdgePick::BalancedVersions);
        assert_eq!(r.partitioning.num_partitions, 1);
        assert_eq!(r.levels, 0);
    }

    #[test]
    fn splits_recursively_at_half_delta() {
        let t = figure8_tree();
        let r = lyresplit(&t, 0.5, EdgePick::BalancedVersions);
        r.partitioning.validate().unwrap();
        assert!(r.partitioning.num_partitions >= 2);
        assert!(r.levels >= 1);
        // Each partition must be non-empty and cover all versions.
        let parts = r.partitioning.partitions();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn tiny_delta_keeps_single_partition() {
        let t = figure8_tree();
        // δ at the theoretical floor: |E|/(|R||V|).
        let delta = t.total_edges() as f64 / (t.total_records() as f64 * t.num_versions() as f64);
        let r = lyresplit(&t, delta * 0.999, EdgePick::BalancedVersions);
        assert_eq!(r.partitioning.num_partitions, 1);
    }

    #[test]
    fn delta_one_reaches_per_version_cost_bound() {
        let t = figure8_tree();
        let r = lyresplit(&t, 1.0, EdgePick::SmallestWeight);
        // Guarantee: Cavg < (1/δ)·|E|/|V| = |E|/|V| is the optimum, so with
        // δ=1 the bound says Cavg < |E|/|V| / 1... the strict bound of
        // Lemma 1 applies per-partition; check the theorem's inequality.
        let cavg = r.partitioning.checkout_cost_tree(&t);
        let bound = (1.0 / r.delta) * t.total_edges() as f64 / t.num_versions() as f64;
        assert!(cavg <= bound + 1e-9, "cavg={cavg} bound={bound}");
    }

    #[test]
    fn theorem2_bounds_hold_for_figure8() {
        let t = figure8_tree();
        for &delta in &[0.3f64, 0.5, 0.8, 1.0] {
            for pick in [EdgePick::SmallestWeight, EdgePick::BalancedVersions] {
                let r = lyresplit(&t, delta, pick);
                r.partitioning.validate().unwrap();
                let s = r.partitioning.storage_cost_tree(&t) as f64;
                let storage_bound = (1.0 + delta).powi(r.levels as i32) * t.total_records() as f64;
                assert!(
                    s <= storage_bound + 1e-9,
                    "S={s} > bound={storage_bound} at δ={delta} {pick:?}"
                );
                let cavg = r.partitioning.checkout_cost_tree(&t);
                let checkout_bound =
                    (1.0 / delta) * t.total_edges() as f64 / t.num_versions() as f64;
                assert!(
                    cavg <= checkout_bound + 1e-9,
                    "Cavg={cavg} > bound={checkout_bound} at δ={delta} {pick:?}"
                );
            }
        }
    }

    #[test]
    fn monotone_in_delta() {
        let t = figure8_tree();
        let mut prev_s = 0u64;
        // Storage is monotone nondecreasing in δ (superset property of
        // Appendix B) for the smallest-weight pick.
        for &delta in &[0.2f64, 0.4, 0.6, 0.8, 1.0] {
            let r = lyresplit(&t, delta, EdgePick::SmallestWeight);
            let s = r.partitioning.storage_cost_tree(&t);
            assert!(s >= prev_s, "S({delta}) = {s} < {prev_s}");
            prev_s = s;
        }
    }

    #[test]
    fn budget_search_respects_gamma() {
        let t = figure8_tree();
        let r_total = t.total_records();
        for factor in [1.0f64, 1.2, 1.5, 2.0] {
            let gamma = (r_total as f64 * factor) as u64;
            let (res, search) = lyresplit_for_budget(&t, gamma, EdgePick::BalancedVersions);
            let s = res.partitioning.storage_cost_tree(&t);
            assert!(s <= gamma, "S={s} > γ={gamma}");
            assert!(search.storage == s);
        }
    }

    #[test]
    fn budget_search_uses_budget_to_reduce_checkout() {
        let t = figure8_tree();
        let tight = lyresplit_for_budget(&t, t.total_records(), EdgePick::BalancedVersions);
        let loose = lyresplit_for_budget(&t, 2 * t.total_records(), EdgePick::BalancedVersions);
        let c_tight = tight.0.partitioning.checkout_cost_tree(&t);
        let c_loose = loose.0.partitioning.checkout_cost_tree(&t);
        assert!(
            c_loose <= c_tight + 1e-9,
            "looser budget should not increase checkout cost ({c_loose} vs {c_tight})"
        );
    }

    #[test]
    fn partitions_are_connected_in_tree() {
        let t = figure8_tree();
        let r = lyresplit(&t, 0.6, EdgePick::BalancedVersions);
        for part in r.partitioning.partitions() {
            // Connectivity: exactly one member lacks an in-partition parent.
            let set: std::collections::HashSet<_> = part.iter().copied().collect();
            let roots = part
                .iter()
                .filter(|&&v| match t.parent[v] {
                    Some(p) => !set.contains(&p),
                    None => true,
                })
                .count();
            assert_eq!(roots, 1, "partition {part:?} is not connected");
        }
    }
}

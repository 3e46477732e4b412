//! Partitioned physical layout for split-by-rlist CVDs (Section 4).
//!
//! A partition *is* a split-by-rlist table pair. After `optimize`, the
//! records of every version also live in the pair of the version's
//! partition ([`Cvd::partition_pair`]: a data table and an rlist table
//! named by migration generation `G` and partition `k`), and
//! [`Cvd::rlist_pair`] sends every split-by-rlist read — checkout, the
//! Table 1 statements, versioned queries — to the pair holding the
//! version, so the irrelevant records a Table 1 statement walks past drop
//! from |R| to |Rk| (checkout's fast path and versioned queries probe the
//! rid index and read the version's |Rv| records on either layout). This
//! module only moves records between pairs; it has no read path of its
//! own.
//!
//! Where a committed version goes, and when the layout has drifted µ×
//! past LyreSplit's best, is decided by the one implementation of the
//! Section 4.3 rule, [`OnlineMaintainer`]; [`on_commit`] carries its
//! answer out. A migration builds generation G+1 beside G with the
//! intelligent plan of [`orpheus_partition::migration`] — a reused table
//! starts as a chunk-sharing clone of its predecessor — and drops G only
//! once G+1 stands, so a failed migration changes nothing.

use orpheus_engine::{Database, Value};
use orpheus_partition::lyresplit::lyresplit_for_budget;
use orpheus_partition::migration::{plan_migration, plan_naive, MigrationStep};
use orpheus_partition::online::{OnlineConfig, OnlineMaintainer};
use orpheus_partition::version_graph::tree_parent;
use orpheus_partition::weighted::{lyresplit_weighted_for_budget, weighted_checkout_cost};
use orpheus_partition::{Partitioning, VersionTree};

use crate::cvd::{sorted_difference, Cvd};
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::model::{self, split_rlist, ModelKind};

/// Persistent partitioning state carried by a CVD.
#[derive(Debug, Clone)]
pub struct PartitionState {
    /// Version tree, assignment, δ*, C*avg, γ, µ and the migration count.
    /// Its partition ids name the physical tables, so nothing here may
    /// renumber them.
    pub(crate) maintainer: OnlineMaintainer,
    /// Migration generation (names the physical tables).
    pub generation: usize,
}

impl PartitionState {
    pub fn maintainer(&self) -> &OnlineMaintainer {
        &self.maintainer
    }

    /// Partition id per version index.
    pub fn assignment(&self) -> &[usize] {
        &self.maintainer.partitioning().assignment
    }

    pub fn num_partitions(&self) -> usize {
        self.maintainer.partitioning().num_partitions
    }

    /// The assignment as a [`Partitioning`], partition ids unchanged.
    pub fn partitioning(&self) -> Partitioning {
        self.maintainer.partitioning().clone()
    }

    /// The partition holding `vid`.
    pub fn partition_of(&self, vid: Vid) -> Result<usize> {
        let k = vid
            .0
            .checked_sub(1)
            .and_then(|i| self.assignment().get(i as usize));
        k.copied().ok_or_else(|| {
            CoreError::Invalid(format!("partition state does not cover version {vid}"))
        })
    }
}

/// Report returned by [`optimize`].
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    pub num_partitions: usize,
    /// Tree-estimated storage cost (records across partitions).
    pub storage_records: u64,
    /// Tree-estimated average checkout cost.
    pub cavg: f64,
    pub delta: f64,
}

/// Copy into the partition data table `target` those records of `rids`
/// (sorted) that it does not hold yet, from the CVD's global data table
/// (the record manager's authoritative store). Both sides resolve through
/// their rid index; no table is scanned.
fn copy_missing_records(db: &mut Database, cvd: &Cvd, target: &str, rids: &[i64]) -> Result<()> {
    let resolve = |table: &str, rids: &[i64]| -> Result<Vec<(i64, usize)>> {
        db.table(table)?
            .resolve_int_keys(0, rids)
            .ok_or_else(|| CoreError::Invalid(format!("table {table} has no rid index")))
    };
    let held: Vec<i64> = resolve(target, rids)?.into_iter().map(|(r, _)| r).collect();
    let missing = sorted_difference(rids, &held);
    if missing.is_empty() {
        return Ok(());
    }
    let found = resolve(&cvd.data_table(), &missing)?;
    if found.len() != missing.len() {
        return Err(CoreError::Invalid(format!(
            "{} of {} records missing from the data table",
            missing.len().saturating_sub(found.len()),
            missing.len()
        )));
    }
    // An O(1) clone of the source, so its rows can be borrowed while the
    // target is written: each record's cells are cloned straight into it.
    let source = db.table(&cvd.data_table())?.clone();
    db.table_mut(target)?
        .insert_many(found.into_iter().map(|(_, slot)| source.row(slot)))?;
    Ok(())
}

fn rlist_tuple(cvd: &Cvd, v: usize) -> Vec<Value> {
    vec![
        Value::Int(v as i64 + 1),
        Value::IntArray((*cvd.version_rids[v]).clone()),
    ]
}

/// Run the partition optimizer: LyreSplit under the budget
/// `γ = gamma_factor · |R|`, then build (or migrate to) the partitioned
/// layout.
///
/// With `weights` (Appendix C.2) versions carry checkout frequencies —
/// `weights[i]` for version index `i`; zero means "never checked out" and
/// is treated as one — and the reported `cavg` is the *weighted* checkout
/// cost `Cw`, computed exactly on the bipartite graph.
pub fn optimize(
    db: &mut Database,
    cvd: &mut Cvd,
    weights: Option<&[u64]>,
    gamma_factor: f64,
    mu: f64,
) -> Result<OptimizeReport> {
    if cvd.model != ModelKind::SplitByRlist {
        return Err(CoreError::Invalid(format!(
            "partitioning requires the split-by-rlist model (CVD {} uses {})",
            cvd.name,
            cvd.model.name()
        )));
    }
    if let Some(freqs) = weights.filter(|f| f.len() != cvd.num_versions()) {
        return Err(CoreError::Invalid(format!(
            "need one frequency per version: got {}, CVD {} has {}",
            freqs.len(),
            cvd.name,
            cvd.num_versions()
        )));
    }
    let config = OnlineConfig {
        gamma_factor,
        mu,
        ..OnlineConfig::default()
    };
    let tree = cvd.version_tree();
    let gamma = (gamma_factor * tree.total_records() as f64) as u64;
    let (best, cavg) = match weights {
        None => {
            let best = lyresplit_for_budget(&tree, gamma, config.pick).0;
            let cavg = best.partitioning.checkout_cost_tree(&tree);
            (best, cavg)
        }
        Some(freqs) => {
            let best = lyresplit_weighted_for_budget(&tree, freqs, gamma, config.pick);
            let cavg = weighted_checkout_cost(&best.partitioning, &cvd.bipartite(), freqs);
            (best, cavg)
        }
    };
    let report = OptimizeReport {
        num_partitions: best.partitioning.num_partitions,
        storage_records: best.partitioning.storage_cost_tree(&tree),
        cavg,
        delta: best.delta,
    };
    let standing = cvd.partition.as_ref();
    let generation = migrate(db, cvd, standing, &tree, &best.partitioning)?;
    let migrations = standing.map_or(0, |s| s.maintainer.migrations_triggered() + 1);
    let maintainer = OnlineMaintainer::resume(
        config,
        tree,
        best.partitioning,
        best.delta,
        cavg,
        migrations,
    );
    cvd.partition = Some(PartitionState {
        maintainer,
        generation,
    });
    Ok(report)
}

/// Move the physical layout to `new`: from the `standing` generation by
/// the intelligent plan, or from nothing (the first `optimize`) by
/// building every partition. Returns the generation that now stands. The
/// new generation is built beside the standing one, which is dropped only
/// afterwards; a failure at any step drops whatever exists of the new
/// generation and leaves the standing one exactly as it was.
fn migrate(
    db: &mut Database,
    cvd: &Cvd,
    standing: Option<&PartitionState>,
    tree: &VersionTree,
    new: &Partitioning,
) -> Result<usize> {
    let bip = cvd.bipartite();
    let (plan, old_gen, new_gen) = match standing {
        Some(state) => (
            plan_migration(&bip, Some(tree), state.maintainer.partitioning(), new),
            state.generation,
            state.generation + 1,
        ),
        None => (plan_naive(&bip, &Partitioning::single(0), new), 0, 0),
    };
    let built = build_generation(db, cvd, old_gen, new_gen, new, &plan.steps);
    let (stale_gen, stale_partitions) = match (&built, standing) {
        (Ok(()), Some(state)) => (state.generation, state.num_partitions()),
        (Ok(()), None) => (0, 0),
        (Err(_), _) => (new_gen, new.num_partitions),
    };
    for k in 0..stale_partitions {
        let (data, rlist) = cvd.partition_pair(stale_gen, k);
        let _ = db.drop_table(&data);
        let _ = db.drop_table(&rlist);
    }
    built.map(|()| new_gen)
}

/// Execute a plan's steps into generation `new_gen`. A reused partition
/// starts as a clone of its old data table — the clone shares every heap
/// chunk and index leaf, so "copying" it costs what renaming did — and
/// only the clone is modified.
fn build_generation(
    db: &mut Database,
    cvd: &Cvd,
    old_gen: usize,
    new_gen: usize,
    new: &Partitioning,
    steps: &[MigrationStep],
) -> Result<()> {
    let members = new.partitions();
    let as_rids = |records: &[usize]| -> Vec<i64> { records.iter().map(|&r| r as i64).collect() };
    for step in steps {
        let (k, inserts, reused) = match step {
            MigrationStep::Reuse {
                old,
                new,
                inserts,
                deletes,
            } => (*new, inserts, Some((*old, deletes))),
            MigrationStep::Build { new, records } => (*new, records, None),
            // The whole old generation goes once the new one stands.
            MigrationStep::Drop { .. } => continue,
        };
        let (data, rlist) = cvd.partition_pair(new_gen, k);
        match reused {
            Some((old, deletes)) => {
                let mut t = db.table(&cvd.partition_pair(old_gen, old).0)?.clone();
                t.rename(&data);
                let gone = t.resolve_int_keys(0, &as_rids(deletes)).unwrap_or_default();
                t.delete_slots(gone.into_iter().map(|(_, slot)| slot).collect());
                db.add_table(t)?;
                // rlist tables are tiny; rebuilt for the new member set.
                split_rlist::create_rlist_table(db, &rlist)?;
            }
            None => split_rlist::create_pair(db, cvd, &data, &rlist)?,
        }
        // A rolled-back placement can leave records behind in a reused
        // table that the plan, made from the version graph, does not
        // count on; only what is missing goes in.
        copy_missing_records(db, cvd, &data, &as_rids(inserts))?;
        let t = db.table_mut(&rlist)?;
        for &v in &members[k] {
            t.insert(rlist_tuple(cvd, v))?;
        }
    }
    Ok(())
}

/// Place a freshly committed version into the partitioned layout
/// (Section 4.3 online maintenance): the maintainer says which partition
/// takes it and whether the layout must migrate, and this carries both out.
/// Must be called after the version's records are in the global data table
/// and its metadata is in `cvd`.
///
/// Works on a copy of the [`PartitionState`] (four vectors of one entry per
/// version — cheap next to the rows being placed) and installs it only on
/// success, so an aborted placement never leaves the CVD unpartitioned or
/// pointing at a half-updated assignment.
pub fn on_commit(db: &mut Database, cvd: &mut Cvd, vid: Vid) -> Result<()> {
    let mut state = cvd
        .partition
        .clone()
        .ok_or_else(|| CoreError::Invalid("CVD is not partitioned".into()))?;
    let meta = cvd.meta(vid)?;
    if state.assignment().len() != vid.index() {
        return Err(CoreError::Invalid(format!(
            "partition state covers {} versions, cannot place version {vid}",
            state.assignment().len()
        )));
    }
    let edges = meta.parents.iter().map(|p| p.index());
    let outcome = match tree_parent(edges.zip(meta.parent_weights.iter().copied())) {
        Some((parent, weight)) => state.maintainer.commit(parent, weight, meta.num_records),
        None => state.maintainer.commit_root(meta.num_records),
    };

    let (data, rlist) = cvd.partition_pair(state.generation, outcome.partition);
    if outcome.opened_partition {
        split_rlist::create_pair(db, cvd, &data, &rlist)?;
    }
    copy_missing_records(db, cvd, &data, cvd.rids_of(vid)?)?;
    db.table_mut(&rlist)?
        .insert(rlist_tuple(cvd, vid.index()))?;

    if let Some(target) = &outcome.migration_target {
        let tree = state.maintainer.tree();
        state.generation = migrate(db, cvd, Some(&state), tree, &target.partitioning)?;
        state.maintainer.apply_migration(target);
    }
    cvd.partition = Some(state);
    Ok(())
}

/// Best-effort undo of a failed [`on_commit`] placement's physical
/// writes: removes the vid's tuple from every partition rlist table (a
/// retried commit reuses the vid and would otherwise collide) and drops
/// the tables of a partition the aborted placement may have opened (the
/// next index past the standing count). Orphaned records in partition
/// data tables are harmless — nothing references them — and are left
/// behind.
pub fn rollback_placement(db: &mut Database, cvd: &Cvd, vid: Vid) {
    let Some(state) = &cvd.partition else { return };
    for (_, rlist) in cvd.partition_pairs() {
        model::delete_keys(db, &rlist, &[vid.0 as i64]);
    }
    let (data, rlist) = cvd.partition_pair(state.generation, state.num_partitions());
    let _ = db.drop_table(&data);
    let _ = db.drop_table(&rlist);
}

/// Total bytes of the partitioned layout (data + rlist tables across
/// partitions) — what Figures 12b/13b report as "storage size".
pub fn partition_storage_bytes(db: &Database, cvd: &Cvd) -> u64 {
    cvd.partition_pairs()
        .flat_map(|(data, rlist)| [data, rlist])
        .filter_map(|t| db.table(&t).ok())
        .map(|t| t.storage_bytes() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{commit, make_cvd, record};
    use orpheus_partition::lyresplit::EdgePick;

    fn build_history() -> (Database, Cvd) {
        let (mut db, mut cvd) = make_cvd(ModelKind::SplitByRlist);
        // v1: two records; v2 extends v1; v3 is disjoint-ish from v1.
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("b", 2), record("c", 3)],
            &[Vid(1)],
        );
        commit(
            &mut db,
            &mut cvd,
            &[record("x", 10), record("y", 11)],
            &[Vid(1)],
        );
        (db, cvd)
    }

    #[test]
    fn optimize_builds_partition_tables() {
        let (mut db, mut cvd) = build_history();
        let report = optimize(&mut db, &mut cvd, None, 2.0, 1.5).unwrap();
        assert!(report.num_partitions >= 1);
        let state = cvd.partition.as_ref().unwrap();
        for k in 0..state.num_partitions() {
            assert!(db.has_table(&cvd.partition_pair(0, k).0));
            assert!(db.has_table(&cvd.partition_pair(0, k).1));
        }
        assert!(partition_storage_bytes(&db, &cvd) > 0);
        // Versions the state does not cover are an error, not an index panic.
        assert!(state.partition_of(Vid(3)).is_ok());
        for outside in [Vid(0), Vid(4)] {
            let err = state.partition_of(outside).unwrap_err();
            assert!(matches!(err, CoreError::Invalid(_)), "{err}");
            assert!(cvd.rlist_pair(outside).is_err());
        }
    }

    /// v1..v3 checked out through the model's read path, rows by rid.
    fn checkouts(db: &mut Database, cvd: &Cvd, prefix: &str) -> Vec<Vec<Vec<Value>>> {
        (1..=3u64)
            .map(|v| {
                let target = format!("{prefix}{v}");
                model::checkout_into(db, cvd, Vid(v), &target).unwrap();
                db.query(&format!("SELECT * FROM {target} ORDER BY rid"))
                    .unwrap()
                    .rows
            })
            .collect()
    }

    /// Every version now reads from a partition pair, not the global one.
    fn assert_routed_to_partitions(cvd: &Cvd) {
        let global = (cvd.data_table(), cvd.rlist_table());
        for v in 1..=3u64 {
            assert_ne!(cvd.rlist_pair(Vid(v)).unwrap(), global, "version {v}");
        }
    }

    #[test]
    fn partitioned_checkout_matches_unpartitioned() {
        let (mut db, mut cvd) = build_history();
        // The reference comes off the global pair, before a partition exists.
        let plain = checkouts(&mut db, &cvd, "plain");
        optimize(&mut db, &mut cvd, None, 2.0, 1.5).unwrap();
        assert_routed_to_partitions(&cvd);
        assert_eq!(checkouts(&mut db, &cvd, "parted"), plain);
    }

    #[test]
    fn rejects_non_rlist_models() {
        let (mut db, mut cvd) = make_cvd(ModelKind::CombinedTable);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        let err = optimize(&mut db, &mut cvd, None, 2.0, 1.5).unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)));
    }

    #[test]
    fn weighted_optimize_builds_correct_layout() {
        let (mut db, mut cvd) = build_history();
        let plain = checkouts(&mut db, &cvd, "wplain");
        // v3 is hot (checked out 50× as often as the others).
        let freqs = vec![1u64, 1, 50];
        let report = optimize(&mut db, &mut cvd, Some(&freqs), 2.0, 1.5).unwrap();
        assert!(report.num_partitions >= 1);
        // The reported cavg is the weighted cost, bounded by the weighted
        // floor guarantee Cw ≤ ζ/δ (Appendix C.2).
        let bip = cvd.bipartite();
        let floor = orpheus_partition::weighted::weighted_cost_floor(&bip, &freqs);
        assert!(report.cavg + 1e-9 >= floor);
        assert!(report.cavg <= floor / report.delta + 1e-6);
        // Checkouts from the weighted layout match the plain model.
        assert_routed_to_partitions(&cvd);
        assert_eq!(checkouts(&mut db, &cvd, "wparted"), plain);
    }

    #[test]
    fn weighted_optimize_validates_frequency_arity() {
        let (mut db, mut cvd) = build_history();
        let err = optimize(&mut db, &mut cvd, Some(&[1, 2]), 2.0, 1.5).unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)), "{err}");
    }

    #[test]
    fn weighted_reoptimize_migrates_from_unweighted_layout() {
        let (mut db, mut cvd) = build_history();
        optimize(&mut db, &mut cvd, None, 1.0, 1.5).unwrap();
        optimize(&mut db, &mut cvd, Some(&[1, 1, 40]), 3.0, 1.5).unwrap();
        let state = cvd.partition.as_ref().unwrap();
        assert_eq!(state.maintainer().migrations_triggered(), 1);
        model::checkout_into(&mut db, &cvd, Vid(3), "w_after").unwrap();
        let r = db.query("SELECT count(*) FROM w_after").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn a_failed_migration_leaves_the_previous_generation_intact() {
        let (mut db, mut cvd) = build_history();
        optimize(&mut db, &mut cvd, None, 1.0, 1.5).unwrap();
        let before = cvd.partition.clone().unwrap();
        let tables_before = db.table_names();
        // Sabotage: the name the migration's last rlist table needs is
        // taken, so it fails with generation 1 partly built.
        let tree = cvd.version_tree();
        let gamma = (3.0 * tree.total_records() as f64) as u64;
        let fresh = lyresplit_for_budget(&tree, gamma, EdgePick::BalancedVersions).0;
        let last = fresh.partitioning.num_partitions - 1;
        db.execute(&format!(
            "CREATE TABLE {} (x INT)",
            cvd.partition_pair(1, last).1
        ))
        .unwrap();
        optimize(&mut db, &mut cvd, None, 3.0, 1.5).unwrap_err();

        let state = cvd.partition.as_ref().unwrap();
        assert_eq!(state.generation, before.generation);
        assert_eq!(state.assignment(), before.assignment());
        assert_eq!(
            db.table_names(),
            tables_before,
            "no table of either generation moved"
        );
        for v in 1..=3u64 {
            let target = format!("still{v}");
            model::checkout_into(&mut db, &cvd, Vid(v), &target).unwrap();
            let parted = db
                .query(&format!("SELECT * FROM {target} ORDER BY rid"))
                .unwrap();
            let plain = model::version_rows(&mut db, &cvd, Vid(v)).unwrap();
            assert_eq!(parted.rows.len(), plain.len(), "version {v}");
        }
        // With the name free again the same migration goes through.
        optimize(&mut db, &mut cvd, None, 3.0, 1.5).unwrap();
        assert_eq!(
            cvd.partition.as_ref().unwrap().generation,
            before.generation + 1
        );
    }

    #[test]
    fn reoptimize_migrates_generation() {
        let (mut db, mut cvd) = build_history();
        optimize(&mut db, &mut cvd, None, 1.0, 1.5).unwrap();
        let gen0 = cvd.partition.as_ref().unwrap().generation;
        optimize(&mut db, &mut cvd, None, 3.0, 1.5).unwrap();
        let state = cvd.partition.as_ref().unwrap();
        assert_eq!(state.generation, gen0 + 1);
        assert_eq!(state.maintainer().migrations_triggered(), 1);
        // Checkout still works after migration.
        model::checkout_into(&mut db, &cvd, Vid(2), "after_mig").unwrap();
        let r = db.query("SELECT count(*) FROM after_mig").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }
}

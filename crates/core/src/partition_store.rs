//! Partitioned physical layout for split-by-rlist CVDs (Section 4).
//!
//! After `optimize`, a CVD's records live in per-partition table pairs
//! `{cvd}__g{G}p{K}_data` / `..._rlist` (G is a migration generation
//! counter: a migration builds generation G+1 beside G — a reused table
//! starts as a chunk-sharing clone of its predecessor — and drops G only
//! once G+1 stands, so a failed migration changes nothing). Checkout
//! touches exactly one partition — the whole point of partitioning: the
//! number of irrelevant records scanned drops from |R| to |Rk|.
//!
//! Commits are placed by the online-maintenance rule of Section 4.3, and
//! when the online checkout cost drifts µ× past LyreSplit's best, the
//! migration engine rebuilds partitions with the intelligent plan of
//! [`orpheus_partition::migration`].

use std::collections::{HashMap, HashSet};

use orpheus_engine::{Database, Value};
use orpheus_partition::lyresplit::{lyresplit_for_budget, EdgePick};
use orpheus_partition::migration::{plan_migration, plan_naive, MigrationPlan, MigrationStep};
use orpheus_partition::Partitioning;

use crate::cvd::Cvd;
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::model::{self, ModelKind};

/// Persistent partitioning state carried by a CVD.
#[derive(Debug, Clone)]
pub struct PartitionState {
    /// Partition id per version index.
    pub assignment: Vec<usize>,
    pub num_partitions: usize,
    /// Migration generation (names the physical tables).
    pub generation: usize,
    /// δ* of the last LyreSplit run (drives online placement).
    pub delta_star: f64,
    /// Best checkout cost LyreSplit found at the last check.
    pub cavg_star: f64,
    /// Storage threshold as a multiple of |R|.
    pub gamma_factor: f64,
    /// Migration tolerance µ.
    pub mu: f64,
    /// Number of migrations performed so far.
    pub migrations: usize,
}

impl PartitionState {
    /// The assignment as a [`Partitioning`], partition ids unchanged: id
    /// `k` names the physical tables `{cvd}__g{generation}p{k}_*`, so a
    /// migration planned against this must see the same numbering
    /// ([`Partitioning::from_assignment`] renumbers by first appearance,
    /// which LyreSplit's output does not follow).
    pub fn partitioning(&self) -> Partitioning {
        Partitioning {
            assignment: self.assignment.clone(),
            num_partitions: self.num_partitions,
        }
    }
}

/// Report returned by [`optimize`] and commit-time maintenance.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    pub num_partitions: usize,
    /// Tree-estimated storage cost (records across partitions).
    pub storage_records: u64,
    /// Tree-estimated average checkout cost.
    pub cavg: f64,
    pub delta: f64,
}

/// Outcome of partition maintenance for one commit.
#[derive(Debug, Clone)]
pub struct CommitPlacement {
    pub partition: usize,
    pub opened_partition: bool,
    /// Set when this commit triggered a migration.
    pub migration: Option<MigrationReport>,
}

/// Cost accounting of one migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    pub records_modified: u64,
    pub partitions_reused: usize,
    pub partitions_built: usize,
    /// The same migration executed naively would have moved this many
    /// records (Figures 14b/15b compare the two).
    pub naive_records: u64,
}

fn require_rlist(cvd: &Cvd) -> Result<()> {
    if cvd.model != ModelKind::SplitByRlist {
        return Err(CoreError::Invalid(format!(
            "partitioning requires the split-by-rlist model (CVD {} uses {})",
            cvd.name,
            cvd.model.name()
        )));
    }
    Ok(())
}

fn data_table_name(cvd: &Cvd, generation: usize, k: usize) -> String {
    format!("{}__g{}p{}_data", cvd.name, generation, k)
}

fn rlist_table_name(cvd: &Cvd, generation: usize, k: usize) -> String {
    format!("{}__g{}p{}_rlist", cvd.name, generation, k)
}

/// Fetch the attribute values of the given rids from the CVD's global data
/// table (the record manager's authoritative store).
fn fetch_records(
    db: &Database,
    cvd: &Cvd,
    rids: &HashSet<i64>,
) -> Result<HashMap<i64, Vec<Value>>> {
    let t = db.table(&cvd.data_table())?;
    let mut out = HashMap::with_capacity(rids.len());
    for row in t.rows() {
        if let Value::Int(rid) = row[0] {
            if rids.contains(&rid) {
                out.insert(rid, row[1..].to_vec());
            }
        }
    }
    Ok(out)
}

/// Those of `rids` that `table`'s rid index does not hold.
fn missing_rids(
    db: &Database,
    table: &str,
    rids: impl Iterator<Item = i64>,
) -> Result<HashSet<i64>> {
    let t = db.table(table)?;
    Ok(rids
        .filter(|&rid| {
            t.index_lookup(&[0], &[Value::Int(rid)])
                .unwrap_or_default()
                .is_empty()
        })
        .collect())
}

fn create_partition_tables(
    db: &mut Database,
    cvd: &Cvd,
    generation: usize,
    k: usize,
) -> Result<()> {
    db.create_table(
        &data_table_name(cvd, generation, k),
        cvd.physical_data_schema(),
    )?;
    db.execute(&format!(
        "CREATE TABLE {} (vid INT PRIMARY KEY, rlist INT[])",
        rlist_table_name(cvd, generation, k)
    ))?;
    Ok(())
}

fn insert_partition_records(
    db: &mut Database,
    table: &str,
    records: &HashMap<i64, Vec<Value>>,
    rids: impl IntoIterator<Item = i64>,
) -> Result<usize> {
    let mut rows = Vec::new();
    for rid in rids {
        let values = records.get(&rid).ok_or_else(|| {
            CoreError::Invalid(format!("record {rid} missing from the data table"))
        })?;
        let mut row = Vec::with_capacity(values.len() + 1);
        row.push(Value::Int(rid));
        row.extend(values.iter().cloned());
        rows.push(row);
    }
    let n = rows.len();
    model::insert_rows_bulk(db, table, rows)?;
    Ok(n)
}

fn fill_rlist_table(db: &mut Database, cvd: &Cvd, table: &str, versions: &[usize]) -> Result<()> {
    let t = db.table_mut(table)?;
    for &v in versions {
        t.insert(vec![
            Value::Int(v as i64 + 1),
            Value::IntArray((*cvd.version_rids[v]).clone()),
        ])?;
    }
    Ok(())
}

/// Run the partition optimizer: LyreSplit under the budget
/// `γ = gamma_factor · |R|`, then build (or migrate to) the partitioned
/// layout.
pub fn optimize(
    db: &mut Database,
    cvd: &mut Cvd,
    gamma_factor: f64,
    mu: f64,
) -> Result<OptimizeReport> {
    require_rlist(cvd)?;
    let tree = cvd.version_tree();
    let gamma = (gamma_factor * tree.total_records() as f64) as u64;
    let (best, _search) = lyresplit_for_budget(&tree, gamma, EdgePick::BalancedVersions);
    let report = OptimizeReport {
        num_partitions: best.partitioning.num_partitions,
        storage_records: best.partitioning.storage_cost_tree(&tree),
        cavg: best.partitioning.checkout_cost_tree(&tree),
        delta: best.delta,
    };
    apply_partitioning(db, cvd, &best, &report, gamma_factor, mu)?;
    Ok(report)
}

/// The weighted variant (Appendix C.2): versions carry checkout
/// frequencies (`freqs[i]` for version index `i`; zero means "never
/// checked out" and is treated as one). The reported `cavg` is the
/// *weighted* checkout cost `Cw`, computed exactly on the bipartite graph.
pub fn optimize_weighted(
    db: &mut Database,
    cvd: &mut Cvd,
    freqs: &[u64],
    gamma_factor: f64,
    mu: f64,
) -> Result<OptimizeReport> {
    require_rlist(cvd)?;
    if freqs.len() != cvd.num_versions() {
        return Err(CoreError::Invalid(format!(
            "need one frequency per version: got {}, CVD {} has {}",
            freqs.len(),
            cvd.name,
            cvd.num_versions()
        )));
    }
    let tree = cvd.version_tree();
    let gamma = (gamma_factor * tree.total_records() as f64) as u64;
    let best = orpheus_partition::weighted::lyresplit_weighted_for_budget(
        &tree,
        freqs,
        gamma,
        EdgePick::BalancedVersions,
    );
    let bip = cvd.bipartite();
    let report = OptimizeReport {
        num_partitions: best.partitioning.num_partitions,
        storage_records: best.partitioning.storage_cost_tree(&tree),
        cavg: orpheus_partition::weighted::weighted_checkout_cost(&best.partitioning, &bip, freqs),
        delta: best.delta,
    };
    apply_partitioning(db, cvd, &best, &report, gamma_factor, mu)?;
    Ok(report)
}

/// Materialize a freshly-computed partitioning: build the physical layout
/// from scratch on first optimization, migrate from the previous layout
/// otherwise, and record the new [`PartitionState`].
fn apply_partitioning(
    db: &mut Database,
    cvd: &mut Cvd,
    best: &orpheus_partition::LyreSplitResult,
    report: &OptimizeReport,
    gamma_factor: f64,
    mu: f64,
) -> Result<()> {
    match cvd.partition.take() {
        None => {
            build_partitions_from_scratch(db, cvd, &best.partitioning, 0)?;
            cvd.partition = Some(PartitionState {
                assignment: best.partitioning.assignment.clone(),
                num_partitions: best.partitioning.num_partitions,
                generation: 0,
                delta_star: best.delta,
                cavg_star: report.cavg,
                gamma_factor,
                mu,
                migrations: 0,
            });
        }
        Some(mut state) => {
            let old = state.partitioning();
            // The CVD is mutated in place (no scratch clone since the
            // clone-free refactor): a failed migration must put the
            // untouched state back rather than leave the CVD silently
            // unpartitioned.
            if let Err(e) = migrate(db, cvd, &state, &old, &best.partitioning) {
                cvd.partition = Some(state);
                return Err(e);
            }
            state.assignment = best.partitioning.assignment.clone();
            state.num_partitions = best.partitioning.num_partitions;
            state.generation += 1;
            state.delta_star = best.delta;
            state.cavg_star = report.cavg;
            state.gamma_factor = gamma_factor;
            state.mu = mu;
            state.migrations += 1;
            cvd.partition = Some(state);
        }
    }
    Ok(())
}

fn build_partitions_from_scratch(
    db: &mut Database,
    cvd: &Cvd,
    partitioning: &Partitioning,
    generation: usize,
) -> Result<()> {
    let parts = partitioning.partitions();
    for (k, versions) in parts.iter().enumerate() {
        create_partition_tables(db, cvd, generation, k)?;
        let mut rids: HashSet<i64> = HashSet::new();
        for &v in versions {
            rids.extend(cvd.version_rids[v].iter().copied());
        }
        let records = fetch_records(db, cvd, &rids)?;
        let mut sorted: Vec<i64> = rids.into_iter().collect();
        sorted.sort_unstable();
        insert_partition_records(db, &data_table_name(cvd, generation, k), &records, sorted)?;
        fill_rlist_table(db, cvd, &rlist_table_name(cvd, generation, k), versions)?;
    }
    Ok(())
}

/// Execute a migration from the current generation's tables to the next,
/// using the intelligent plan. Returns (records modified, reused, built,
/// naive cost).
fn migrate(
    db: &mut Database,
    cvd: &Cvd,
    state: &PartitionState,
    old: &Partitioning,
    new: &Partitioning,
) -> Result<(u64, usize, usize, u64)> {
    let bip = cvd.bipartite();
    let tree = cvd.version_tree();
    let plan = plan_migration(&bip, Some(&tree), old, new);
    let naive = plan_naive(&bip, old, new);
    apply_migration_plan(db, cvd, state, new, &plan)?;
    Ok((
        plan.total_modifications(),
        plan.partitions_reused,
        plan.partitions_built,
        naive.total_modifications(),
    ))
}

/// Execute `plan`: build generation `state.generation + 1` beside the
/// current one, then drop the current one. A reused partition starts as a
/// clone of its old data table — the clone shares every heap chunk and
/// index leaf, so "copying" it costs what renaming did — and only the
/// clone is modified. A failure at any step drops whatever exists of the
/// new generation and leaves the current one exactly as it was.
fn apply_migration_plan(
    db: &mut Database,
    cvd: &Cvd,
    state: &PartitionState,
    new: &Partitioning,
    plan: &MigrationPlan,
) -> Result<()> {
    let new_gen = state.generation + 1;
    let built = build_generation(db, cvd, state.generation, new_gen, new, plan);
    let (stale_gen, stale_partitions) = match built {
        Ok(()) => (state.generation, state.num_partitions),
        Err(_) => (new_gen, new.num_partitions),
    };
    for k in 0..stale_partitions {
        let _ = db.drop_table(&data_table_name(cvd, stale_gen, k));
        let _ = db.drop_table(&rlist_table_name(cvd, stale_gen, k));
    }
    built
}

fn build_generation(
    db: &mut Database,
    cvd: &Cvd,
    old_gen: usize,
    new_gen: usize,
    new: &Partitioning,
    plan: &MigrationPlan,
) -> Result<()> {
    let new_parts = new.partitions();
    for step in &plan.steps {
        let (new_k, inserts) = match step {
            MigrationStep::Reuse {
                old,
                new: new_k,
                inserts,
                deletes,
            } => {
                let new_name = data_table_name(cvd, new_gen, *new_k);
                let mut t = db.table(&data_table_name(cvd, old_gen, *old))?.clone();
                t.rename(&new_name);
                let slots: Vec<usize> = deletes
                    .iter()
                    .filter_map(|rid| t.index_lookup(&[0], &[Value::Int(*rid as i64)]))
                    .flatten()
                    .copied()
                    .collect();
                t.delete_slots(slots);
                db.add_table(t)?;
                // rlist tables are tiny; rebuilt for the new member set.
                db.execute(&format!(
                    "CREATE TABLE {} (vid INT PRIMARY KEY, rlist INT[])",
                    rlist_table_name(cvd, new_gen, *new_k)
                ))?;
                (*new_k, inserts)
            }
            MigrationStep::Build {
                new: new_k,
                records,
            } => {
                create_partition_tables(db, cvd, new_gen, *new_k)?;
                (*new_k, records)
            }
            // The whole old generation goes once the new one stands.
            MigrationStep::Drop { .. } => continue,
        };
        // A rolled-back placement can leave records behind in a reused
        // table that the plan, made from the version graph, does not
        // count on; only what is missing goes in.
        let data_name = data_table_name(cvd, new_gen, new_k);
        let rids = missing_rids(db, &data_name, inserts.iter().map(|&r| r as i64))?;
        if !rids.is_empty() {
            let records = fetch_records(db, cvd, &rids)?;
            let mut sorted: Vec<i64> = rids.into_iter().collect();
            sorted.sort_unstable();
            insert_partition_records(db, &data_name, &records, sorted)?;
        }
        fill_rlist_table(
            db,
            cvd,
            &rlist_table_name(cvd, new_gen, new_k),
            &new_parts[new_k],
        )?;
    }
    Ok(())
}

/// Place a freshly committed version into the partitioned layout
/// (Section 4.3 online maintenance). Must be called after the version's
/// records are in the global data table and metadata is updated.
///
/// Operates on the live catalog entry: on failure the pre-call
/// [`PartitionState`] is restored (the state snapshot is one `Vec<usize>`
/// of assignments plus scalars — cheap next to the rows being placed), so
/// an aborted placement never leaves the CVD unpartitioned or pointing at
/// a half-updated assignment.
pub fn on_commit(db: &mut Database, cvd: &mut Cvd, vid: Vid) -> Result<CommitPlacement> {
    require_rlist(cvd)?;
    let mut state = cvd
        .partition
        .take()
        .ok_or_else(|| CoreError::Invalid("CVD is not partitioned".into()))?;
    let snapshot = state.clone();
    match place_commit(db, cvd, vid, &mut state) {
        Ok(placement) => {
            cvd.partition = Some(state);
            Ok(placement)
        }
        Err(e) => {
            cvd.partition = Some(snapshot);
            Err(e)
        }
    }
}

/// The fallible body of [`on_commit`]: placement, physical record moves,
/// and the drift check, all against a detached `state`.
fn place_commit(
    db: &mut Database,
    cvd: &Cvd,
    vid: Vid,
    state: &mut PartitionState,
) -> Result<CommitPlacement> {
    let tree = cvd.version_tree();
    let v = vid.index();
    let total_r = tree.total_records();
    let gamma = (state.gamma_factor * total_r as f64) as u64;

    // Placement: weak edge + storage slack ⇒ new partition.
    let (parent, weight) = match tree.parent[v] {
        Some(p) => (Some(p), tree.weight_to_parent[v]),
        None => (None, 0),
    };
    let weak_edge = (weight as f64) <= state.delta_star * total_r as f64;
    // Provisional storage with v in the parent's partition.
    let provisional_storage = {
        let mut assignment = state.assignment.clone();
        assignment.push(parent.map(|p| state.assignment[p]).unwrap_or(0));
        Partitioning::from_assignment(assignment).storage_cost_tree(&tree)
    };

    let (partition, opened) = match parent {
        Some(p) if !(weak_edge && provisional_storage < gamma) => (state.assignment[p], false),
        _ => {
            let k = state.num_partitions;
            create_partition_tables(db, cvd, state.generation, k)?;
            state.num_partitions += 1;
            (k, true)
        }
    };
    state.assignment.push(partition);

    // Physically place the version's records.
    let data_name = data_table_name(cvd, state.generation, partition);
    let rlist_name = rlist_table_name(cvd, state.generation, partition);
    let version_rids = cvd.version_rids[v].clone();
    let missing = missing_rids(db, &data_name, version_rids.iter().copied())?;
    if !missing.is_empty() {
        let records = fetch_records(db, cvd, &missing)?;
        insert_partition_records(db, &data_name, &records, missing)?;
    }
    db.table_mut(&rlist_name)?.insert(vec![
        Value::Int(vid.0 as i64),
        Value::IntArray((*version_rids).clone()),
    ])?;

    // Drift check: recompute C*avg and migrate when Cavg > µ·C*avg.
    let current = state.partitioning();
    let cavg = current.checkout_cost_tree(&tree);
    let (best, _) = lyresplit_for_budget(&tree, gamma, EdgePick::BalancedVersions);
    state.cavg_star = best.partitioning.checkout_cost_tree(&tree);
    state.delta_star = best.delta;

    let migration = if cavg > state.mu * state.cavg_star {
        let (modified, reused, built, naive) =
            migrate(db, cvd, state, &current, &best.partitioning)?;
        state.assignment = best.partitioning.assignment.clone();
        state.num_partitions = best.partitioning.num_partitions;
        state.generation += 1;
        state.migrations += 1;
        Some(MigrationReport {
            records_modified: modified,
            partitions_reused: reused,
            partitions_built: built,
            naive_records: naive,
        })
    } else {
        None
    };

    Ok(CommitPlacement {
        partition,
        opened_partition: opened,
        migration,
    })
}

/// Best-effort undo of a failed [`on_commit`] placement's physical
/// writes, run after the state snapshot has been restored: removes the
/// vid's tuple from every partition rlist table (a retried commit reuses
/// the vid and would otherwise collide) and drops the tables of a
/// partition the aborted placement may have opened (the next index past
/// the restored count). Orphaned records in partition data tables are
/// harmless — nothing references them — and are left behind.
pub fn rollback_placement(db: &mut Database, cvd: &Cvd, vid: Vid) {
    let Some(state) = &cvd.partition else { return };
    for k in 0..state.num_partitions {
        let _ = db.execute(&format!(
            "DELETE FROM {} WHERE vid = {}",
            rlist_table_name(cvd, state.generation, k),
            vid.0
        ));
    }
    let _ = db.drop_table(&data_table_name(
        cvd,
        state.generation,
        state.num_partitions,
    ));
    let _ = db.drop_table(&rlist_table_name(
        cvd,
        state.generation,
        state.num_partitions,
    ));
}

/// Checkout against the partitioned layout: only the version's partition is
/// touched. The version's sorted rlist resolves to heap slots through the
/// partition data table's rid index (the same record-access fast path as
/// the unpartitioned models); the Table 1 statement against the
/// partition-local tables remains the fallback spec path.
pub fn checkout_partitioned(db: &mut Database, cvd: &Cvd, vid: Vid, target: &str) -> Result<()> {
    let state = cvd
        .partition
        .as_ref()
        .ok_or_else(|| CoreError::Invalid("CVD is not partitioned".into()))?;
    cvd.check_version(vid)?;
    let k = state.assignment[vid.index()];
    let data_table = data_table_name(cvd, state.generation, k);
    if model::checkout_resolved(db, &data_table, cvd, Some(cvd.rids_of(vid)?), 0, target)? {
        return Ok(());
    }
    db.execute(&format!(
        "SELECT d.* INTO {target} FROM {} AS d, \
         (SELECT unnest(rlist) AS rid_tmp FROM {} WHERE vid = {}) AS tmp \
         WHERE rid = rid_tmp",
        data_table,
        rlist_table_name(cvd, state.generation, k),
        vid.0
    ))?;
    Ok(())
}

/// Total bytes of the partitioned layout (data + rlist tables across
/// partitions) — what Figures 12b/13b report as "storage size".
pub fn partition_storage_bytes(db: &Database, cvd: &Cvd) -> u64 {
    match &cvd.partition {
        None => 0,
        Some(state) => (0..state.num_partitions)
            .flat_map(|k| {
                [
                    data_table_name(cvd, state.generation, k),
                    rlist_table_name(cvd, state.generation, k),
                ]
            })
            .filter_map(|t| db.table(&t).ok())
            .map(|t| t.storage_bytes() as u64)
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{commit, make_cvd, record};

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
        let report = optimize(&mut db, &mut cvd, 2.0, 1.5).unwrap();
        assert!(report.num_partitions >= 1);
        let state = cvd.partition.as_ref().unwrap();
        for k in 0..state.num_partitions {
            assert!(db.has_table(&data_table_name(&cvd, 0, k)));
            assert!(db.has_table(&rlist_table_name(&cvd, 0, k)));
        }
        assert!(partition_storage_bytes(&db, &cvd) > 0);
    }

    #[test]
    fn partitioned_checkout_matches_unpartitioned() {
        let (mut db, mut cvd) = build_history();
        optimize(&mut db, &mut cvd, 2.0, 1.5).unwrap();
        for v in 1..=3u64 {
            let plain = format!("plain{v}");
            let parted = format!("parted{v}");
            model::checkout_into(&mut db, &cvd, Vid(v), &plain).unwrap();
            checkout_partitioned(&mut db, &cvd, Vid(v), &parted).unwrap();
            let a = db
                .query(&format!("SELECT * FROM {plain} ORDER BY rid"))
                .unwrap();
            let b = db
                .query(&format!("SELECT * FROM {parted} ORDER BY rid"))
                .unwrap();
            assert_eq!(a.rows, b.rows, "version {v} differs");
        }
    }

    #[test]
    fn online_commit_places_and_maintains() {
        let (mut db, mut cvd) = build_history();
        optimize(&mut db, &mut cvd, 3.0, 10.0).unwrap();
        // Strongly-overlapping child of v2 joins v2's partition.
        commit(
            &mut db,
            &mut cvd,
            &[
                record("a", 1),
                record("b", 2),
                record("c", 3),
                record("d", 4),
            ],
            &[Vid(2)],
        );
        let placement = on_commit(&mut db, &mut cvd, Vid(4)).unwrap();
        let state = cvd.partition.as_ref().unwrap();
        assert_eq!(state.assignment.len(), 4);
        // Checkout of the new version works against its partition.
        checkout_partitioned(&mut db, &cvd, Vid(4), "co4").unwrap();
        let r = db.query("SELECT count(*) FROM co4").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(4)));
        let _ = placement;
    }

    #[test]
    fn rejects_non_rlist_models() {
        let (mut db, mut cvd) = make_cvd(ModelKind::CombinedTable);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        let err = optimize(&mut db, &mut cvd, 2.0, 1.5).unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)));
    }

    #[test]
    fn weighted_optimize_builds_correct_layout() {
        let (mut db, mut cvd) = build_history();
        // v3 is hot (checked out 50× as often as the others).
        let freqs = vec![1u64, 1, 50];
        let report = optimize_weighted(&mut db, &mut cvd, &freqs, 2.0, 1.5).unwrap();
        assert!(report.num_partitions >= 1);
        // The reported cavg is the weighted cost, bounded by the weighted
        // floor guarantee Cw ≤ ζ/δ (Appendix C.2).
        let bip = cvd.bipartite();
        let floor = orpheus_partition::weighted::weighted_cost_floor(&bip, &freqs);
        assert!(report.cavg + 1e-9 >= floor);
        assert!(report.cavg <= floor / report.delta + 1e-6);
        // Checkouts from the weighted layout match the plain model.
        for v in 1..=3u64 {
            let plain = format!("wplain{v}");
            let parted = format!("wparted{v}");
            model::checkout_into(&mut db, &cvd, Vid(v), &plain).unwrap();
            checkout_partitioned(&mut db, &cvd, Vid(v), &parted).unwrap();
            let a = db
                .query(&format!("SELECT * FROM {plain} ORDER BY rid"))
                .unwrap();
            let b = db
                .query(&format!("SELECT * FROM {parted} ORDER BY rid"))
                .unwrap();
            assert_eq!(a.rows, b.rows, "version {v} differs");
        }
    }

    #[test]
    fn weighted_optimize_validates_frequency_arity() {
        let (mut db, mut cvd) = build_history();
        let err = optimize_weighted(&mut db, &mut cvd, &[1, 2], 2.0, 1.5).unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)), "{err}");
    }

    #[test]
    fn weighted_reoptimize_migrates_from_unweighted_layout() {
        let (mut db, mut cvd) = build_history();
        optimize(&mut db, &mut cvd, 1.0, 1.5).unwrap();
        optimize_weighted(&mut db, &mut cvd, &[1, 1, 40], 3.0, 1.5).unwrap();
        let state = cvd.partition.as_ref().unwrap();
        assert_eq!(state.migrations, 1);
        checkout_partitioned(&mut db, &cvd, Vid(3), "w_after").unwrap();
        let r = db.query("SELECT count(*) FROM w_after").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn a_failed_migration_leaves_the_previous_generation_intact() {
        let (mut db, mut cvd) = build_history();
        optimize(&mut db, &mut cvd, 1.0, 1.5).unwrap();
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
            rlist_table_name(&cvd, 1, last)
        ))
        .unwrap();
        optimize(&mut db, &mut cvd, 3.0, 1.5).unwrap_err();

        let state = cvd.partition.as_ref().unwrap();
        assert_eq!(state.generation, before.generation);
        assert_eq!(state.assignment, before.assignment);
        assert_eq!(
            db.table_names(),
            tables_before,
            "no table of either generation moved"
        );
        for v in 1..=3u64 {
            let target = format!("still{v}");
            checkout_partitioned(&mut db, &cvd, Vid(v), &target).unwrap();
            let parted = db
                .query(&format!("SELECT * FROM {target} ORDER BY rid"))
                .unwrap();
            let plain = model::version_rows(&mut db, &cvd, Vid(v)).unwrap();
            assert_eq!(parted.rows.len(), plain.len(), "version {v}");
        }
        // With the name free again the same migration goes through.
        optimize(&mut db, &mut cvd, 3.0, 1.5).unwrap();
        assert_eq!(
            cvd.partition.as_ref().unwrap().generation,
            before.generation + 1
        );
    }

    #[test]
    fn reoptimize_migrates_generation() {
        let (mut db, mut cvd) = build_history();
        optimize(&mut db, &mut cvd, 1.0, 1.5).unwrap();
        let gen0 = cvd.partition.as_ref().unwrap().generation;
        optimize(&mut db, &mut cvd, 3.0, 1.5).unwrap();
        let state = cvd.partition.as_ref().unwrap();
        assert_eq!(state.generation, gen0 + 1);
        assert_eq!(state.migrations, 1);
        // Checkout still works after migration.
        checkout_partitioned(&mut db, &cvd, Vid(2), "after_mig").unwrap();
        let r = db.query("SELECT count(*) FROM after_mig").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }
}

//! The five data models for representing CVDs inside the relational engine
//! (Section 3.1, Figure 1), behind a single dispatch interface.
//!
//! | model               | storage                         | commit            | checkout          |
//! |---------------------|---------------------------------|-------------------|-------------------|
//! | a-table-per-version | one table per version (~10×)    | copy all records  | copy one table    |
//! | combined-table      | one table, `vlist` per record   | array append scan | containment scan  |
//! | split-by-vlist      | data + (rid → vlist)            | array append scan | containment + join|
//! | split-by-rlist      | data + (vid → rlist) (default)  | one insert        | index + join      |
//! | delta-based         | per-version delta tables        | delta insert      | lineage replay    |
//!
//! All commit/checkout operations are *expressible* as the SQL statements
//! of Table 1 — the "bolt-on" property. Those read statements are the
//! spec, not a runtime path: [`version_rows_sql`], [`checkout_into_sql`]
//! and the per-model `checkout_sql` are called only by tests and the
//! benchmark, which check the runtime path against them
//! (`tests/fastpath_equivalence.rs` pins row-for-row equality,
//! `tests/table1_sql.rs` the commit side). Every runtime read takes the
//! **record-access path**, a [`VersionView`]: a version's sorted rlist
//! resolves to heap slots through the backing table's rid index, one slot
//! per rid, and rows are borrowed in place, with no SQL parse/plan/join;
//! delta replays its lineage over the delta-table heaps. The path is
//! total: every layout the models create reads this way —
//! combined keeps `vlist` last through schema evolution and snapshot
//! loads (`combined::keep_vlist_last`) — and a backing table whose
//! columns no longer match the CVD schema (only a hand-run `ALTER` makes
//! one) or that lacks a record a version lists (a hand-run `DELETE`) is
//! refused with [`CoreError::Invalid`] naming it.
//!
//! Writes have one path: [`persist_commit`] hands `Value`s to the engine's
//! table API (`Table::insert`, `replace_row`, `delete_slots`), which runs
//! the same schema check and unique-key probe an `INSERT` would. No row is
//! rendered as SQL text and parsed back, so every value a version can hold
//! — `NaN`, `±inf`, `i64::MIN` — commits as it was staged.

pub mod combined;
pub mod delta;
pub mod split_rlist;
pub mod split_vlist;
pub mod table_per_version;

use std::borrow::Cow;
use std::sync::Arc;

use orpheus_engine::{Database, Table, Value};

use crate::cvd::{sorted_difference, Cvd};
use crate::error::{CoreError, Result};
use crate::ids::Vid;

/// Which data model a CVD uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelKind {
    TablePerVersion,
    CombinedTable,
    SplitByVlist,
    /// The paper's recommendation (Section 3.2) and our default.
    #[default]
    SplitByRlist,
    DeltaBased,
}

impl ModelKind {
    pub const ALL: [ModelKind; 5] = [
        ModelKind::TablePerVersion,
        ModelKind::CombinedTable,
        ModelKind::SplitByVlist,
        ModelKind::SplitByRlist,
        ModelKind::DeltaBased,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::TablePerVersion => "a-table-per-version",
            ModelKind::CombinedTable => "combined-table",
            ModelKind::SplitByVlist => "split-by-vlist",
            ModelKind::SplitByRlist => "split-by-rlist",
            ModelKind::DeltaBased => "delta-based",
        }
    }

    pub fn parse(s: &str) -> Option<ModelKind> {
        match s.to_ascii_lowercase().replace('_', "-").as_str() {
            "a-table-per-version" | "table-per-version" | "tpv" => Some(ModelKind::TablePerVersion),
            "combined-table" | "combined" => Some(ModelKind::CombinedTable),
            "split-by-vlist" | "vlist" => Some(ModelKind::SplitByVlist),
            "split-by-rlist" | "rlist" => Some(ModelKind::SplitByRlist),
            "delta-based" | "delta" => Some(ModelKind::DeltaBased),
            _ => None,
        }
    }
}

/// Everything a model needs to persist one committed version: the rids it
/// keeps and the records it adds — never a copy of the records it keeps.
#[derive(Debug, Clone)]
pub struct CommitData {
    pub vid: Vid,
    /// All rids of the new version, sorted — read only by
    /// [`persist_commit`]. Every other path hands [`persist_version`] the
    /// rlist as the shared buffer the catalog keeps, and leaves this
    /// empty. It stays only because the frozen `perf_ledger` builds
    /// `CommitData` with every field named.
    pub rlist: Vec<i64>,
    /// Rids inherited unchanged from parent versions, sorted.
    pub kept: Vec<i64>,
    /// Freshly created records: (rid, data attribute values).
    pub new_records: Vec<(i64, Vec<Value>)>,
    /// Ignored by every model: a-table-per-version and delta read the
    /// records a version keeps from its parents ([`persist_version`]). It
    /// stays only because the frozen `perf_ledger` builds `CommitData`
    /// with every field named; the `[benchmark]` PR that next touches the
    /// ledger drops it.
    pub all_records: Vec<(i64, Vec<Value>)>,
    /// The parent this version's delta is based on (delta model); the
    /// parent sharing the largest number of records.
    pub base: Option<Vid>,
    /// Rids present in `base` but absent here (delta tombstones).
    pub deleted_from_base: Vec<i64>,
}

// -- dispatch ----------------------------------------------------------------

/// Create the model's backing tables for a fresh CVD.
pub fn init_storage(db: &mut Database, cvd: &Cvd) -> Result<()> {
    match cvd.model {
        ModelKind::TablePerVersion => table_per_version::init(db, cvd),
        ModelKind::CombinedTable => combined::init(db, cvd),
        ModelKind::SplitByVlist => split_vlist::init(db, cvd),
        ModelKind::SplitByRlist => split_rlist::init(db, cvd),
        ModelKind::DeltaBased => delta::init(db, cvd),
    }
}

/// Persist a committed version through the engine's table API — the one
/// write path for `init`, `commit` and WAL replay alike. `parents` are the
/// version's parents, in precedence order: the two models that copy kept
/// records (a-table-per-version, delta) read them from there. `rlist` is
/// the version's sorted rids, the buffer the caller then hands
/// [`Cvd::push_version`]: split-by-rlist stores it in its rlist table
/// cell without copying it.
pub fn persist_version(
    db: &mut Database,
    cvd: &Cvd,
    parents: &[Vid],
    data: &CommitData,
    rlist: &Arc<Vec<i64>>,
) -> Result<()> {
    match cvd.model {
        ModelKind::TablePerVersion => table_per_version::persist(db, cvd, parents, data),
        ModelKind::CombinedTable => combined::persist(db, cvd, data),
        ModelKind::SplitByVlist => split_vlist::persist(db, cvd, data),
        ModelKind::SplitByRlist => split_rlist::persist(db, cvd, data, rlist),
        ModelKind::DeltaBased => delta::persist(db, cvd, parents, data),
    }
}

/// [`persist_version`] with `data.base` as the only parent and a copy of
/// `data.rlist` as the rlist — enough for every model when the version
/// has one parent. It stays only because the frozen `perf_ledger` calls it
/// with four arguments; `_bulk` is ignored (it once chose between this
/// path and rendering the rows as Table 1 `INSERT` text). The
/// `[benchmark]` PR that next touches the ledger drops it.
pub fn persist_commit(db: &mut Database, cvd: &Cvd, data: &CommitData, _bulk: bool) -> Result<()> {
    let rlist = Arc::new(data.rlist.clone());
    persist_version(db, cvd, data.base.as_slice(), data, &rlist)
}

/// The records of the sorted `rids`, each read from the first of
/// `parents` that holds it ([`ParentRecords`]) and null-extended to the
/// CVD's current width: what a-table-per-version and delta copy for the
/// records a version keeps.
pub(crate) fn kept_records(
    db: &Database,
    cvd: &Cvd,
    parents: &[Vid],
    rids: &[i64],
) -> Result<Vec<(i64, Vec<Value>)>> {
    let width = cvd.schema.arity();
    let mut held = ParentRecords::new(db, cvd, parents)?;
    rids.iter()
        .map(|&rid| {
            let record = held.record(rid).ok_or_else(|| {
                CoreError::Invalid(format!(
                    "kept record {rid} is in none of the parents {parents:?}"
                ))
            })?;
            let mut values = record.to_vec();
            values.resize(width, Value::Null);
            Ok((rid, values))
        })
        .collect()
}

/// Best-effort undo of [`persist_commit`] for a version whose commit
/// failed after (or while) writing backing storage: removes the version's
/// rows/tables so its vid can be reused by a retried commit. Without this,
/// a failed commit would leave e.g. the vid's rlist tuple behind and every
/// retry would die on a duplicate-key violation — the CVD would be
/// permanently unable to commit. Errors are swallowed: rollback runs on an
/// already-failing path and must not mask the original error.
pub fn rollback_commit(db: &mut Database, cvd: &Cvd, data: &CommitData) {
    let vid = data.vid;
    match cvd.model {
        ModelKind::TablePerVersion => {
            let _ = db.drop_table(&cvd.version_table(vid));
        }
        ModelKind::DeltaBased => {
            let _ = db.drop_table(&cvd.delta_table(vid));
            delete_keys(db, &cvd.precedent_table(), &[vid.0 as i64]);
        }
        ModelKind::SplitByRlist => {
            delete_keys(db, &cvd.rlist_table(), &[vid.0 as i64]);
            delete_keys(db, &cvd.data_table(), &new_rids(data));
        }
        ModelKind::SplitByVlist => {
            strip_vid_from_vlists(db, &cvd.vlist_table(), vid);
            delete_keys(db, &cvd.data_table(), &new_rids(data));
        }
        ModelKind::CombinedTable => {
            strip_vid_from_vlists(db, &cvd.combined_table(), vid);
        }
    }
}

fn new_rids(data: &CommitData) -> Vec<i64> {
    data.new_records.iter().map(|(rid, _)| *rid).collect()
}

/// Delete the rows of `table` whose first column — a rid or vid primary
/// key — is one of `keys`, through that column's index. Best-effort, like
/// every rollback: a missing table or index deletes nothing.
pub(crate) fn delete_keys(db: &mut Database, table: &str, keys: &[i64]) {
    let Ok(t) = db.table_mut(table) else { return };
    if let Some(pairs) = t.resolve_int_keys(0, keys) {
        t.delete_slots(pairs.into_iter().map(|(_, slot)| slot).collect());
    }
}

/// Remove `vid` from every row's `vlist`, deleting rows whose vlist
/// becomes empty (records that existed only in the rolled-back version).
/// Best-effort.
fn strip_vid_from_vlists(db: &mut Database, table: &str, vid: Vid) {
    let Ok(t) = db.table_mut(table) else { return };
    let Ok(vlist_col) = t.schema.column_index("vlist") else {
        return;
    };
    let target = vid.0 as i64;
    let mut updates = Vec::new();
    let mut deletes = Vec::new();
    for (slot, row) in t.rows().enumerate() {
        let Value::IntArray(vlist) = &row[vlist_col] else {
            continue;
        };
        if !vlist.contains(&target) {
            continue;
        }
        let stripped: Vec<i64> = vlist.iter().copied().filter(|&v| v != target).collect();
        if stripped.is_empty() {
            deletes.push(slot);
        } else {
            let mut new_row = row.to_vec();
            new_row[vlist_col] = Value::from(stripped);
            updates.push((slot, new_row));
        }
    }
    for (slot, row) in updates {
        let _ = t.replace_row(slot, row);
    }
    t.delete_slots(deletes);
}

/// Materialize a single version into `target` (the checkout of Table 1)
/// by the record-access path: the version's [`VersionView`], staged
/// (`stage`). [`checkout_into_sql`] is the spec it must match.
pub fn checkout_into(db: &mut Database, cvd: &Cvd, vid: Vid, target: &str) -> Result<()> {
    let staged = stage(cvd, [VersionView::new(db, cvd, vid)?], target)?;
    db.add_table(staged)?;
    Ok(())
}

/// The checkout of Table 1 executed verbatim through the SQL layer — the
/// spec [`checkout_into`] is checked against, kept callable for the
/// equivalence tests and the benchmark's spec counts; nothing at runtime
/// calls it. (The delta model has no single-statement checkout; its SQL
/// formulation is the per-table `SELECT *` lineage replay.)
pub fn checkout_into_sql(db: &mut Database, cvd: &Cvd, vid: Vid, target: &str) -> Result<()> {
    cvd.check_version(vid)?;
    match cvd.model {
        ModelKind::TablePerVersion => {
            db.execute(&table_per_version::checkout_sql(cvd, vid, target))?;
        }
        ModelKind::CombinedTable => {
            db.execute(&combined::checkout_sql(cvd, vid, target))?;
        }
        ModelKind::SplitByVlist => {
            db.execute(&split_vlist::checkout_sql(cvd, vid, target))?;
        }
        ModelKind::SplitByRlist => {
            db.execute(&split_rlist::checkout_sql(cvd, vid, target)?)?;
        }
        ModelKind::DeltaBased => {
            return delta::checkout_sql_replay(db, cvd, vid, target);
        }
    }
    Ok(())
}

/// The records of a version as owned (rid, data values) pairs, in rlist
/// order: the rows of its [`VersionView`], copied.
pub fn version_rows(db: &Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    let view = VersionView::new(db, cvd, vid)?;
    Ok(view
        .iter()
        .map(|(rid, values)| (rid, values.to_vec()))
        .collect())
}

/// The records of a version via the model's SQL formulation (Table 1) —
/// the spec [`version_rows`] is checked against; nothing at runtime calls
/// it.
pub fn version_rows_sql(db: &mut Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    cvd.check_version(vid)?;
    match cvd.model {
        ModelKind::TablePerVersion => table_per_version::version_rows_sql(db, cvd, vid),
        ModelKind::CombinedTable => combined::version_rows_sql(db, cvd, vid),
        ModelKind::SplitByVlist => split_vlist::version_rows_sql(db, cvd, vid),
        ModelKind::SplitByRlist => split_rlist::version_rows_sql(db, cvd, vid),
        ModelKind::DeltaBased => delta::version_rows_sql(db, cvd, vid),
    }
}

// -- the record-access path -----------------------------------------------------

/// The records of one version where they lie — what every runtime read of
/// a version takes (checkout, merge, diff, commit classification,
/// [`version_rows`]): its sorted rids and one row per rid, in rlist order
/// and multiplicity. On every layout but delta a row is a heap slot of one
/// table (the combined table, the data table — the version's partition's
/// once optimized — or a-table-per-version's table of the version) from a
/// single walk of its rid index, so rid `i` is `rids[i]` and no rid cell
/// is read; delta replays its lineage over the delta-table heaps. A
/// backing table that is missing, has no rid index, no longer matches the
/// CVD schema or lacks a record of the version is an error naming it. A
/// row is the record's data values: in a table frozen before an `ADD
/// COLUMN` (a-table-per-version, delta) narrower than the schema, as the
/// table's `SELECT *` returns; consumers null-extend.
pub struct VersionView<'a> {
    rids: Cow<'a, [i64]>,
    rows: ViewRows<'a>,
}

enum ViewRows<'a> {
    /// Row `i` is the `width` data values of `table`'s row `slots[i]`.
    Slots {
        table: &'a Table,
        width: usize,
        slots: Vec<usize>,
    },
    /// Row `i` is the record delta's lineage replay reads for `rids[i]`.
    Replayed(Vec<&'a [Value]>),
}

impl<'a> VersionView<'a> {
    /// The records of `vid`.
    pub fn new(db: &'a Database, cvd: &'a Cvd, vid: Vid) -> Result<VersionView<'a>> {
        VersionView::of(db, cvd, vid, Cow::Borrowed(cvd.rids_of(vid)?))
    }

    /// The records of `vid` at `rids`, a sorted sub-list of its rlist: what
    /// a diff or a merge reads of a version.
    pub fn of(
        db: &'a Database,
        cvd: &Cvd,
        vid: Vid,
        rids: Cow<'a, [i64]>,
    ) -> Result<VersionView<'a>> {
        cvd.check_version(vid)?;
        let (table, trailing) = match cvd.model {
            ModelKind::TablePerVersion => (cvd.version_table(vid), 0),
            ModelKind::CombinedTable => (cvd.combined_table(), 1),
            ModelKind::SplitByVlist => (cvd.data_table(), 0),
            // Only the pair holding the version is touched.
            ModelKind::SplitByRlist => (cvd.data_table_of(vid)?, 0),
            ModelKind::DeltaBased => return delta::view(db, cvd, vid, rids),
        };
        let t = db.table(&table)?;
        let width = attr_prefix_len(t, cvd, trailing)?;
        let slots = Vec::with_capacity(rids.len());
        VersionView::in_table(t, width, rids, slots)
    }

    /// The records at the sorted `rids` of `table`, whose rows are `[rid,
    /// width data values, ..]`: the one walk that resolves an rlist to heap
    /// slots, into `slots`, an empty buffer (a merged checkout reserves the
    /// first version's for the whole merge).
    fn in_table(
        table: &'a Table,
        width: usize,
        rids: Cow<'a, [i64]>,
        mut slots: Vec<usize>,
    ) -> Result<VersionView<'a>> {
        table
            .lookup_keys(
                &[0],
                rids.iter().map(|&rid| [Value::Int(rid)]),
                |_, found| slots.extend_from_slice(found),
            )
            .map_err(|_| no_rid_index(table))?;
        if slots.len() != rids.len() {
            return Err(lacks(&table.name));
        }
        let rows = ViewRows::Slots {
            table,
            width,
            slots,
        };
        Ok(VersionView { rids, rows })
    }

    pub fn len(&self) -> usize {
        self.rids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// The data values of the `i`-th record.
    pub fn row(&self, i: usize) -> &'a [Value] {
        match &self.rows {
            ViewRows::Slots {
                table,
                width,
                slots,
            } => &table.row(slots[i])[1..=*width],
            ViewRows::Replayed(rows) => rows[i],
        }
    }

    /// `(rid, data values)` of each record, in rid order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (i64, &'a [Value])> + '_ {
        (0..self.len()).map(|i| (self.rids[i], self.row(i)))
    }

    /// Drop the `i`-th record wherever `dropped[i]`.
    fn drop_where(&mut self, dropped: &[bool]) {
        fn retain<T>(items: &mut Vec<T>, dropped: &[bool]) {
            let mut dropped = dropped.iter();
            items.retain(|_| dropped.next() != Some(&true));
        }
        retain(self.rids.to_mut(), dropped);
        match &mut self.rows {
            ViewRows::Slots { slots, .. } => retain(slots, dropped),
            ViewRows::Replayed(rows) => retain(rows, dropped),
        }
    }
}

/// Stage the records of `views`, one view after another, as the fresh
/// table `target`. When every view reads one table — a version on every
/// layout but delta, a merge on those whose versions share a table
/// ([`rid_table`]) — `target` is an overlay of its slots, in the shape
/// `SELECT .. INTO` gives ([`orpheus_engine::Table::select`]), and the
/// first view's slot buffer is its slot list: a checkout costs the rid
/// walk and O(|rlist|) integers, not the records' width, and writes to
/// `target` copy only what they write. Otherwise `target` holds a copy of
/// the views' rows, null-extended to the CVD's staged schema.
pub(crate) fn stage<'a>(
    cvd: &Cvd,
    views: impl IntoIterator<Item = VersionView<'a>>,
    target: &str,
) -> Result<Table> {
    let name = target.to_ascii_lowercase();
    let mut views = views.into_iter();
    let first = views.next().expect("a checkout stages a version");
    let later: Vec<VersionView<'a>> = views.collect();
    let reads = |view: &VersionView<'_>, source| match view.rows {
        ViewRows::Slots { table, .. } => std::ptr::eq(table, source),
        ViewRows::Replayed(_) => false,
    };
    match first.rows {
        ViewRows::Slots {
            table,
            width,
            mut slots,
        } if later.iter().all(|view| reads(view, table)) => {
            for view in later {
                if let ViewRows::Slots { slots: more, .. } = view.rows {
                    slots.extend(more);
                }
            }
            Ok(table.select(name, 1 + width, slots))
        }
        rows => {
            let first = VersionView {
                rids: first.rids,
                rows,
            };
            let views = std::iter::once(&first).chain(&later);
            staged_table(cvd, name, views.flat_map(VersionView::iter))
        }
    }
}

/// A table `name` of the CVD's staged schema holding `records`, rid first
/// and each null-extended to the current schema.
pub(crate) fn staged_table<'v>(
    cvd: &Cvd,
    name: String,
    records: impl Iterator<Item = (i64, &'v [Value])>,
) -> Result<Table> {
    let mut staged = Table::new(name, cvd.staged_schema());
    let width = staged.schema.arity();
    staged.insert_many(records.map(|(rid, values)| {
        let mut row = Vec::with_capacity(width);
        row.push(Value::Int(rid));
        row.extend_from_slice(values);
        row.resize(width, Value::Null);
        row
    }))?;
    Ok(staged)
}

/// The views a checkout of `vids` stages, in order (Section 2.2): the
/// first-listed version's records, then each later version's records
/// whose rids no earlier one holds, each in rid order and a rid listed
/// twice taken once. With a primary key, a later record whose key a staged
/// one holds is dropped: the first-listed version wins (each version holds
/// a key once, as init and commit check). On the layouts whose versions
/// share one table ([`rid_table`]) every view reads it, the first
/// into a slot buffer reserved for the whole merge, so [`stage`]
/// selects them all as one overlay. Beside the views, the merge holds
/// O(records the later versions add).
pub(crate) fn merge_versions<'a>(
    engine: &'a Database,
    cvd: &'a Cvd,
    vids: &[Vid],
) -> Result<Vec<VersionView<'a>>> {
    let rlists: Vec<&[i64]> = vids
        .iter()
        .map(|&v| cvd.rids_of(v))
        .collect::<Result<_>>()?;
    let mut first = Cow::Borrowed(rlists[0]);
    if first.windows(2).any(|w| w[0] == w[1]) {
        first.to_mut().dedup();
    }
    let added: Vec<Vec<i64>> = (1..vids.len())
        .map(|i| {
            let mut rids = sorted_difference(rlists[i], &first);
            for earlier in &rlists[1..i] {
                rids = sorted_difference(&rids, earlier);
            }
            rids.dedup();
            rids
        })
        .collect();
    let shared = rid_table(engine, cvd)?;
    let view = |vid, rids: Cow<'a, [i64]>, capacity| match shared {
        Some((t, width)) => VersionView::in_table(t, width, rids, Vec::with_capacity(capacity)),
        None => VersionView::of(engine, cvd, vid, rids),
    };
    let capacity = first.len() + added.iter().map(Vec::len).sum::<usize>();
    let mut views = Vec::with_capacity(vids.len());
    views.push(view(vids[0], first, capacity)?);
    let pk = &cvd.schema.primary_key;
    let key = |values: &'a [Value]| pk.iter().map(move |&c| &values[c]);
    for (&vid, rids) in vids[1..].iter().zip(added) {
        let capacity = rids.len();
        let mut later = view(vid, Cow::Owned(rids), capacity)?;
        if !pk.is_empty() && !later.is_empty() {
            // Look each staged record's key up among the new ones', by hash.
            let mut new: Vec<(u64, usize)> = (0..later.len())
                .map(|i| (hash_values(key(later.row(i))), i))
                .collect();
            new.sort_unstable();
            let mut dropped = vec![false; new.len()];
            for (_, staged) in views.iter().flat_map(VersionView::iter) {
                let hash = hash_values(key(staged));
                let same = &new[new.partition_point(|&(h, _)| h < hash)..];
                for &(_, i) in same.iter().take_while(|&&(h, _)| h == hash) {
                    dropped[i] |= key(later.row(i)).eq(key(staged));
                }
            }
            later.drop_where(&dropped);
        }
        views.push(later);
    }
    Ok(views)
}

/// Hash a sequence of values with the engine's `Value` hashing rules
/// (numerically equal ints and doubles hash identically).
pub(crate) fn hash_values<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// The records of a version's parents, each rid read from the first parent
/// holding it (Section 2.2's precedence): what a commit compares a staged
/// row with and what the copying layouts keep. Each parent's view is
/// walked with a cursor after its last match and searched by rid only when
/// the cursor misses, so ascending rids cost one comparison each.
pub(crate) struct ParentRecords<'a> {
    parents: Vec<(VersionView<'a>, usize)>,
}

impl<'a> ParentRecords<'a> {
    pub(crate) fn new(db: &'a Database, cvd: &'a Cvd, parents: &[Vid]) -> Result<Self> {
        let parents = (parents.iter())
            .map(|&p| Ok((VersionView::new(db, cvd, p)?, 0)))
            .collect::<Result<_>>()?;
        Ok(ParentRecords { parents })
    }

    /// The data values of `rid` in the first parent that holds it.
    pub(crate) fn record(&mut self, rid: i64) -> Option<&'a [Value]> {
        self.parents.iter_mut().find_map(|(view, next)| {
            let i = match view.rids.get(*next) {
                Some(&r) if r == rid => *next,
                _ => view.rids.binary_search(&rid).ok()?,
            };
            *next = i + 1;
            Some(view.row(i))
        })
    }
}

/// The one rid-indexed table a layout can read every version from
/// (combined's, or the split models' global data table) and its
/// [`attr_prefix_len`], which a merged checkout reads all its versions in;
/// `None` for the layouts with a table per version.
fn rid_table<'a>(db: &'a Database, cvd: &Cvd) -> Result<Option<(&'a Table, usize)>> {
    let (table, trailing) = match cvd.model {
        ModelKind::CombinedTable => (cvd.combined_table(), 1),
        ModelKind::SplitByVlist | ModelKind::SplitByRlist => (cvd.data_table(), 0),
        ModelKind::TablePerVersion | ModelKind::DeltaBased => return Ok(None),
    };
    let t = db.table(&table)?;
    Ok(Some((t, attr_prefix_len(t, cvd, trailing)?)))
}

/// Width of the `rid + data attributes` prefix of a backing table's rows:
/// `n` when the columns are `[rid, a0..a(n-1), <trailing>..]` with
/// `a0..a(n-1)` a prefix of the CVD schema in order (`trailing` is the
/// count of versioning columns at the tail — combined's `vlist`, delta's
/// `tombstone`). Tables frozen before a schema evolution hold a shorter
/// prefix; any other layout is refused with an error naming the table.
pub(crate) fn attr_prefix_len(table: &Table, cvd: &Cvd, trailing: usize) -> Result<usize> {
    let columns = &table.schema.columns;
    columns
        .len()
        .checked_sub(1 + trailing)
        .filter(|&n| {
            n <= cvd.schema.arity()
                && columns[0].name.eq_ignore_ascii_case("rid")
                && columns[1..=n]
                    .iter()
                    .zip(&cvd.schema.columns)
                    .all(|(c, a)| c.name.eq_ignore_ascii_case(&a.name))
        })
        .ok_or_else(|| {
            CoreError::Invalid(format!(
                "backing table {} no longer matches the schema of CVD {}",
                table.name, cvd.name
            ))
        })
}

fn no_rid_index(table: &Table) -> CoreError {
    CoreError::Invalid(format!("backing table {} has no rid index", table.name))
}

/// The error of a read whose backing `table` lacks records the version
/// lists.
pub(crate) fn lacks(table: &str) -> CoreError {
    CoreError::Invalid(format!(
        "backing table {table} lacks records of the version"
    ))
}

/// Whether the record-access path reads this version ([`VersionView`]).
/// Tests use it to assert a layout reads.
pub fn version_readable(db: &Database, cvd: &Cvd, vid: Vid) -> bool {
    VersionView::new(db, cvd, vid).is_ok()
}

/// Total backing storage (heap + indexes) in bytes.
pub fn storage_bytes(db: &Database, cvd: &Cvd) -> u64 {
    let tables = backing_tables(cvd);
    tables
        .iter()
        .filter_map(|t| db.table(t).ok())
        .map(|t| t.storage_bytes() as u64)
        .sum()
}

/// Names of the model's backing tables (existing ones only are counted by
/// [`storage_bytes`]).
pub fn backing_tables(cvd: &Cvd) -> Vec<String> {
    match cvd.model {
        ModelKind::TablePerVersion => (1..=cvd.num_versions() as u64)
            .map(|v| cvd.version_table(Vid(v)))
            .collect(),
        ModelKind::CombinedTable => vec![cvd.combined_table()],
        ModelKind::SplitByVlist => vec![cvd.data_table(), cvd.vlist_table()],
        ModelKind::SplitByRlist => vec![cvd.data_table(), cvd.rlist_table()],
        ModelKind::DeltaBased => {
            let mut v: Vec<String> = (1..=cvd.num_versions() as u64)
                .map(|v| cvd.delta_table(Vid(v)))
                .collect();
            v.push(cvd.precedent_table());
            v
        }
    }
}

/// Every table of the CVD's physical layout: the model's backing tables
/// and, once `optimize` has run, the partition pairs. What a schema change
/// or a `drop` must reach.
pub fn layout_tables(cvd: &Cvd) -> Vec<String> {
    let mut tables = backing_tables(cvd);
    tables.extend(
        cvd.partition_pairs()
            .flat_map(|(data, rlist)| [data, rlist]),
    );
    tables
}

/// Drop the whole physical layout (used by `drop <cvd>`).
pub fn drop_storage(db: &mut Database, cvd: &Cvd) {
    for t in layout_tables(cvd) {
        let _ = db.drop_table(&t);
    }
}

// -- helpers shared by the model implementations ------------------------------

/// Render a comma-separated int list (for `IN (...)` and `ARRAY[...]`).
/// Nothing in this crate renders one any more; it stays `pub` for the
/// frozen `perf_ledger`, whose engine rung still times SQL text, until the
/// ledger takes its own copy.
pub fn int_list(ids: &[i64]) -> String {
    let mut s = String::with_capacity(ids.len() * 8);
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&id.to_string());
    }
    s
}

/// Insert rows through the table API (schema check and unique probe
/// included); stops at the first violation.
pub(crate) fn insert_rows(db: &mut Database, table: &str, rows: Vec<Vec<Value>>) -> Result<()> {
    db.table_mut(table)?.insert_many(rows)?;
    Ok(())
}

/// Data-table rows of `records`: each rid followed by its attribute values.
pub(crate) fn rid_rows(records: &[(i64, Vec<Value>)]) -> Vec<Vec<Value>> {
    records
        .iter()
        .map(|(rid, values)| {
            let mut row = Vec::with_capacity(values.len() + 1);
            row.push(Value::Int(*rid));
            row.extend(values.iter().cloned());
            row
        })
        .collect()
}

/// Column-name list of a CVD's data attributes, prefixed with `rid`.
pub fn rid_and_attrs(cvd: &Cvd) -> String {
    let mut cols = vec!["rid".to_string()];
    cols.extend(cvd.schema.columns.iter().map(|c| c.name.clone()));
    cols.join(", ")
}

/// Append `vid` to the `vlist` of each row of `table` whose rid is in
/// `kept` — the expensive array-append commit of the combined-table and
/// split-by-vlist models (Table 1's `UPDATE … SET vlist = vlist + vid`).
/// The rows are found through the rid index, not by a scan.
pub(crate) fn append_vid_to_vlist(
    db: &mut Database,
    table: &str,
    vid: Vid,
    kept: &[i64],
) -> Result<()> {
    if kept.is_empty() {
        return Ok(());
    }
    // A duplicated staged row keeps its rid twice; like `WHERE rid IN`,
    // each row is appended to once.
    let mut rids = kept.to_vec();
    rids.sort_unstable();
    rids.dedup();
    let t = db.table_mut(table)?;
    let rid_col = t.schema.column_index("rid")?;
    let vlist_col = t.schema.column_index("vlist")?;
    let slots = t
        .resolve_int_keys(rid_col, &rids)
        .ok_or_else(|| CoreError::Invalid(format!("table {table} has no rid index")))?;
    for (_, slot) in slots {
        let mut row = t.row(slot).to_vec();
        if let Value::IntArray(vlist) = &mut row[vlist_col] {
            // The copied row shares the cell's buffer (and an older
            // snapshot of the table may too): append to a private copy.
            Arc::make_mut(vlist).push(vid.0 as i64);
        }
        t.replace_row(slot, row)?;
    }
    Ok(())
}

/// Shared fixtures for the per-model unit tests: a tiny CVD with schema
/// `(name TEXT PRIMARY KEY, score INT)` and a value-diffing commit helper
/// that exercises the real persistence paths.
#[cfg(test)]
pub(crate) mod testutil {
    use std::collections::HashMap;

    use orpheus_engine::{Column, DataType, Database, Schema, Value};

    use crate::cvd::{Cvd, VersionMeta};
    use crate::ids::Vid;
    use crate::model::{self, CommitData, ModelKind};

    pub fn record(name: &str, score: i64) -> Vec<Value> {
        vec![Value::Text(name.to_string()), Value::Int(score)]
    }

    pub fn make_cvd(model: ModelKind) -> (Database, Cvd) {
        let schema = Schema::new(vec![
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Int),
        ])
        .with_primary_key(&["name"])
        .unwrap();
        let mut db = Database::new();
        let cvd = Cvd::new("t", schema, model);
        model::init_storage(&mut db, &cvd).unwrap();
        (db, cvd)
    }

    /// Commit `rows` as a new version: rows matching a parent record by
    /// value keep that record's rid; everything else gets a fresh rid.
    pub fn commit(db: &mut Database, cvd: &mut Cvd, rows: &[Vec<Value>], parents: &[Vid]) -> Vid {
        let vid = Vid(cvd.num_versions() as u64 + 1);
        // Parent record map: values → rid (first parent wins).
        let mut val2rid: HashMap<Vec<Value>, i64> = HashMap::new();
        for p in parents {
            for (rid, values) in model::version_rows(db, cvd, *p).unwrap() {
                val2rid.entry(values).or_insert(rid);
            }
        }
        let mut kept = Vec::new();
        let mut new_records = Vec::new();
        let mut fresh = cvd.alloc_rids(rows.len()).into_iter();
        for row in rows {
            match val2rid.get(row) {
                Some(&rid) => kept.push(rid),
                None => new_records.push((fresh.next().unwrap(), row.clone())),
            }
        }
        kept.sort_unstable();
        let mut rlist: Vec<i64> = kept.clone();
        rlist.extend(new_records.iter().map(|(r, _)| *r));
        rlist.sort_unstable();
        // One overlap pass per parent serves both the base-parent choice
        // and the stored weights (mirrors the production commit core).
        let parent_weights = cvd.parent_overlaps(&rlist, parents);
        let base = crate::db::base_parent(parents, &parent_weights);
        let deleted_from_base = match base {
            Some(b) => crate::cvd::sorted_difference(cvd.rids_of(b).unwrap(), &rlist),
            None => Vec::new(),
        };
        let rlist = std::sync::Arc::new(rlist);
        let data = CommitData {
            vid,
            rlist: Vec::new(),
            kept,
            new_records,
            all_records: Vec::new(),
            base,
            deleted_from_base,
        };
        model::persist_version(db, cvd, parents, &data, &rlist).unwrap();
        let attributes = {
            let schema = cvd.schema.clone();
            cvd.attrs.intern_schema(&schema)
        };
        cvd.push_version(
            VersionMeta {
                vid,
                parents: parents.to_vec(),
                parent_weights,
                checkout_t: None,
                commit_t: vid.0,
                message: format!("commit {vid}"),
                attributes,
                num_records: rlist.len() as u64,
                base,
            },
            rlist,
        );
        vid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_roundtrip() {
        for m in ModelKind::ALL {
            assert_eq!(ModelKind::parse(m.name()), Some(m));
        }
        assert_eq!(ModelKind::parse("rlist"), Some(ModelKind::SplitByRlist));
        assert_eq!(ModelKind::parse("bogus"), None);
        assert_eq!(ModelKind::default(), ModelKind::SplitByRlist);
    }

    #[test]
    fn int_list_rendering() {
        assert_eq!(int_list(&[]), "");
        assert_eq!(int_list(&[1]), "1");
        assert_eq!(int_list(&[1, 2, 3]), "1, 2, 3");
    }
}

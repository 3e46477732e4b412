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
//! **record-access path** ([`version_row_refs`], [`checkout_into`]): a
//! version's sorted rlist resolves to heap slots through the backing
//! table's rid index and rows are borrowed in place, with no SQL
//! parse/plan/join; delta replays its lineage over the delta-table heaps.
//! The path is total: every layout the models create reads this way —
//! combined keeps `vlist` last through schema evolution and snapshot
//! loads (`combined::keep_vlist_last`) — and a backing table whose
//! columns no longer match the CVD schema (only a hand-run `ALTER` makes
//! one) is refused with [`CoreError::Invalid`] naming it.
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
/// `parents` that holds it and null-extended to the CVD's current width:
/// what a-table-per-version and delta copy for the records a version
/// keeps.
pub(crate) fn kept_records(
    db: &mut Database,
    cvd: &Cvd,
    parents: &[Vid],
    rids: &[i64],
) -> Result<Vec<(i64, Vec<Value>)>> {
    let width = cvd.schema.arity();
    let mut found: Vec<Option<Vec<Value>>> = vec![None; rids.len()];
    for &parent in parents {
        if found.iter().all(Option::is_some) {
            break;
        }
        let mut rows = version_rows(db, cvd, parent)?;
        rows.sort_by_key(|(rid, _)| *rid);
        for (slot, rid) in found.iter_mut().zip(rids) {
            if slot.is_none() {
                if let Ok(i) = rows.binary_search_by_key(rid, |(r, _)| *r) {
                    let mut values = rows[i].1.clone();
                    values.resize(width, Value::Null);
                    *slot = Some(values);
                }
            }
        }
    }
    rids.iter()
        .zip(found)
        .map(|(&rid, values)| {
            let values = values.ok_or_else(|| {
                CoreError::Invalid(format!(
                    "kept record {rid} is in none of the parents {parents:?}"
                ))
            })?;
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
/// by the record-access path: the version's records are copied out of the
/// table that holds them — the version's own table for
/// a-table-per-version, the rlist's records of the rid-indexed table
/// otherwise, less combined's trailing `vlist` — or, for delta, replayed
/// from its lineage ([`delta::checkout`]). [`checkout_into_sql`] is the
/// spec it must match.
pub fn checkout_into(db: &mut Database, cvd: &Cvd, vid: Vid, target: &str) -> Result<()> {
    let rlist = cvd.rids_of(vid)?;
    let (source, rlist, trailing) = match cvd.model {
        ModelKind::TablePerVersion => (cvd.version_table(vid), None, 0),
        ModelKind::CombinedTable => (cvd.combined_table(), Some(rlist), 1),
        ModelKind::SplitByVlist => (cvd.data_table(), Some(rlist), 0),
        // Only the pair holding the version is touched.
        ModelKind::SplitByRlist => (cvd.rlist_pair(vid)?.0, Some(rlist), 0),
        ModelKind::DeltaBased => return delta::checkout(db, cvd, vid, target),
    };
    checkout_resolved(db, &source, cvd, rlist, trailing, target)
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

/// The records of a version as owned (rid, data values) pairs: the rows
/// of [`version_row_refs`], copied.
pub fn version_rows(db: &Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    Ok(version_row_refs(db, cvd, vid)?
        .into_iter()
        .map(|(rid, values)| (rid, values.to_vec()))
        .collect())
}

/// The data values of the records of `vid` whose rids sorted `other` lacks,
/// in rlist order and with the rlist's multiplicity: [`version_rows`]
/// filtered by rid, at the cost of the records kept. The rid-indexed
/// layouts resolve only the rids `other` lacks; the others borrow the
/// version through [`version_row_refs`] and copy only what they keep.
pub fn version_rows_absent_from(
    db: &Database,
    cvd: &Cvd,
    vid: Vid,
    other: &[i64],
) -> Result<Vec<Vec<Value>>> {
    let rlist = cvd.rids_of(vid)?;
    let refs = match rid_table(db, cvd)? {
        Some((t, width)) => rid_index_rows(t, width, &sorted_difference(rlist, other))?,
        None => version_row_refs(db, cvd, vid)?,
    };
    Ok(refs
        .into_iter()
        .filter(|(rid, _)| other.binary_search(rid).is_err())
        .map(|(_, values)| values.to_vec())
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

/// Borrowed `(rid, data values)` pairs — the return shape of the
/// record-access path.
pub type RowRefs<'a> = Vec<(i64, &'a [Value])>;

/// Borrowed `(rid, data values)` pairs of one version, resolved without
/// SQL: the rlist comes from the version manager's sorted cache
/// ([`Cvd::rids_of`]), records from direct heap-slot lookup through the
/// backing table's rid index ([`orpheus_engine::Table::resolve_int_keys`]).
/// A backing table that is missing, has no rid index or no longer matches
/// the CVD schema is an error naming it.
///
/// Value slices may be *narrower* than the current schema for models that
/// freeze per-version tables (a-table-per-version, delta) — exactly what
/// their SQL `SELECT *` returns; consumers null-extend.
pub fn version_row_refs<'a>(db: &'a Database, cvd: &Cvd, vid: Vid) -> Result<RowRefs<'a>> {
    let rlist = cvd.rids_of(vid)?;
    match rid_table(db, cvd)? {
        Some((t, width)) => rid_index_rows(t, width, rlist),
        None if cvd.model == ModelKind::DeltaBased => delta::version_row_refs(db, cvd, vid),
        None => table_per_version::version_row_refs(db, cvd, vid),
    }
}

/// The one rid-indexed table a layout reads every version from (combined's,
/// or split-by-vlist's and split-by-rlist's global data table) and its
/// [`attr_prefix_len`]; `None` for the layouts with a table per version.
pub(crate) fn rid_table<'a>(db: &'a Database, cvd: &Cvd) -> Result<Option<(&'a Table, usize)>> {
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

/// A backing table's row: its rid, checked to be an INT.
pub(crate) fn row_rid(table: &Table, row: &[Value]) -> Result<i64> {
    match row[0] {
        Value::Int(rid) => Ok(rid),
        _ => Err(CoreError::Invalid(format!(
            "backing table {} holds a row whose rid is not an INT",
            table.name
        ))),
    }
}

/// `slots` with the heap slots of a sorted rlist's records appended, in
/// rlist order, resolved through `t`'s rid index.
pub(crate) fn resolve_slots(t: &Table, rlist: &[i64], mut slots: Vec<usize>) -> Result<Vec<usize>> {
    t.lookup_keys(
        &[0],
        rlist.iter().map(|&rid| [Value::Int(rid)]),
        |_, found| slots.extend_from_slice(found),
    )
    .map_err(|_| no_rid_index(t))?;
    Ok(slots)
}

fn no_rid_index(table: &Table) -> CoreError {
    CoreError::Invalid(format!("backing table {} has no rid index", table.name))
}

/// Resolve a sorted rlist to borrowed rows, their first `width` attributes,
/// through `t`'s rid index.
fn rid_index_rows<'a>(t: &'a Table, width: usize, rlist: &[i64]) -> Result<RowRefs<'a>> {
    let pairs = t
        .resolve_int_keys(0, rlist)
        .ok_or_else(|| no_rid_index(t))?;
    Ok(pairs
        .into_iter()
        .map(|(rid, slot)| (rid, &t.row(slot)[1..1 + width]))
        .collect())
}

/// Stage the resolved rows of one version from `source` as a fresh
/// `target` with exactly the shape `SELECT .. INTO` produces (source
/// column types, no primary key, everything nullable), without copying a
/// cell: `target` is an overlay over `source`'s rows
/// ([`orpheus_engine::Table::select`]). `rlist` of `None` selects the whole
/// table (a-table-per-version). The rlist resolves by the positional walk
/// of [`orpheus_engine::Table::lookup_keys`]: one index probe on a data
/// table whose heap ascends in rid, the global one or a partition's, and a
/// few more where a migration appended records out of rid order. So a
/// checkout costs the rid walk, O(|rlist|) integers and the schema, not
/// the records' width; a discard frees the slot list. Writes to `target`
/// copy only the rows they write, into the overlay's tail, and the
/// overlay pins `source`'s chunks as a snapshot does until its commit
/// detaches it. A source that cannot be read is refused before `target`
/// is created.
pub(crate) fn checkout_resolved(
    db: &mut Database,
    source: &str,
    cvd: &Cvd,
    rlist: Option<&[i64]>,
    trailing: usize,
    target: &str,
) -> Result<()> {
    let t = db.table(source)?;
    let width = attr_prefix_len(t, cvd, trailing)?;
    let slots = match rlist {
        Some(rids) => resolve_slots(t, rids, Vec::with_capacity(rids.len()))?,
        None => (0..t.len()).collect(),
    };
    let staged = t.select(target.to_ascii_lowercase(), 1 + width, slots);
    db.add_table(staged)?;
    Ok(())
}

/// Whether the record-access path reads this version: false only when
/// the version is unknown or a backing table it reads is missing or no
/// longer matches the CVD schema. Tests use it to assert a layout reads.
pub fn version_readable(db: &Database, cvd: &Cvd, vid: Vid) -> bool {
    version_row_refs(db, cvd, vid).is_ok()
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

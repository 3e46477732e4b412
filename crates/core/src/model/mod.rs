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
//! of Table 1 — the "bolt-on" property — and the read statements remain
//! the documented spec path ([`version_rows_sql`], the per-model
//! `checkout_sql`; `tests/table1_sql.rs` pins the commit side). The
//! versioning layer's own reads, however, take a **record-access fast
//! path** ([`version_row_refs`]) that resolves a version's sorted rlist to
//! heap slots through the backing table's rid index and borrows rows in
//! place, skipping SQL parse/plan/join entirely; it falls back to the SQL
//! formulation whenever the physical layout has drifted from what
//! `init_storage` created (`tests/fastpath_equivalence.rs` pins
//! row-for-row equality; the ledger's `model.*.version_rows_us` measures
//! the path).
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

use orpheus_engine::{Database, Schema, Value};

use crate::cvd::Cvd;
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

/// Everything a model needs to persist one committed version.
#[derive(Debug, Clone)]
pub struct CommitData {
    pub vid: Vid,
    /// All rids of the new version, sorted.
    pub rlist: Vec<i64>,
    /// Rids inherited unchanged from parent versions.
    pub kept: Vec<i64>,
    /// Freshly created records: (rid, data attribute values).
    pub new_records: Vec<(i64, Vec<Value>)>,
    /// Full contents of the new version (needed by a-table-per-version).
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
/// write path for `init`, `commit` and WAL replay alike.
///
/// `_bulk` is ignored: it once chose between that path and rendering the
/// rows as Table 1 `INSERT` text. It stays only because the frozen
/// `perf_ledger` calls this with four arguments; the `[benchmark]` PR that
/// next touches the ledger drops it.
pub fn persist_commit(db: &mut Database, cvd: &Cvd, data: &CommitData, _bulk: bool) -> Result<()> {
    match cvd.model {
        ModelKind::TablePerVersion => table_per_version::persist(db, cvd, data),
        ModelKind::CombinedTable => combined::persist(db, cvd, data),
        ModelKind::SplitByVlist => split_vlist::persist(db, cvd, data),
        ModelKind::SplitByRlist => split_rlist::persist(db, cvd, data),
        ModelKind::DeltaBased => delta::persist(db, cvd, data),
    }
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
            let mut new_row = row.clone();
            new_row[vlist_col] = Value::IntArray(stripped);
            updates.push((slot, new_row));
        }
    }
    for (slot, row) in updates {
        let _ = t.replace_row(slot, row);
    }
    t.delete_slots(deletes);
}

/// Materialize a single version into `target` (the checkout of Table 1).
/// Each model tries its record-access fast path first and falls back to
/// the Table 1 SQL statement (see [`checkout_into_sql`]) when the layout
/// cannot be fast-read.
pub fn checkout_into(db: &mut Database, cvd: &Cvd, vid: Vid, target: &str) -> Result<()> {
    cvd.check_version(vid)?;
    match cvd.model {
        ModelKind::TablePerVersion => table_per_version::checkout(db, cvd, vid, target),
        ModelKind::CombinedTable => combined::checkout(db, cvd, vid, target),
        ModelKind::SplitByVlist => split_vlist::checkout(db, cvd, vid, target),
        ModelKind::SplitByRlist => split_rlist::checkout(db, cvd, vid, target),
        ModelKind::DeltaBased => delta::checkout(db, cvd, vid, target),
    }
}

/// The checkout of Table 1 executed verbatim through the SQL layer — the
/// documented spec path, kept callable so the equivalence tests and the
/// latency benchmark can compare the fast path against it. (The delta
/// model has no single-statement checkout; its SQL formulation is the
/// per-table `SELECT *` lineage replay.)
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

/// The records of a version as (rid, data values) pairs: the record-access
/// fast path when the layout admits it, the Table 1 SQL formulation
/// otherwise.
pub fn version_rows(db: &mut Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    cvd.check_version(vid)?;
    if let Some(refs) = version_row_refs(db, cvd, vid)? {
        return Ok(refs
            .into_iter()
            .map(|(rid, values)| (rid, values.to_vec()))
            .collect());
    }
    version_rows_sql(db, cvd, vid)
}

/// The records of a version via the model's SQL formulation (Table 1) —
/// the retained spec path the fast path is checked against.
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

// -- the record-access fast path ----------------------------------------------

/// Borrowed `(rid, data values)` pairs — the return shape of the
/// record-access fast path.
pub type RowRefs<'a> = Vec<(i64, &'a [Value])>;

/// Borrowed `(rid, data values)` pairs of one version, resolved without
/// SQL: the rlist comes from the version manager's sorted cache
/// ([`Cvd::rids_of`]), records from direct heap-slot lookup through the
/// backing table's rid index ([`orpheus_engine::Table::resolve_int_keys`]).
/// Returns
/// `Ok(None)` when the physical layout cannot be fast-read (missing table
/// or index, schema drift such as a data column appended after combined's
/// `vlist`) — callers then fall back to [`version_rows_sql`].
///
/// Value slices may be *narrower* than the current schema for models that
/// freeze per-version tables (a-table-per-version, delta) — exactly what
/// their SQL `SELECT *` returns; consumers null-extend.
pub fn version_row_refs<'a>(db: &'a Database, cvd: &Cvd, vid: Vid) -> Result<Option<RowRefs<'a>>> {
    cvd.check_version(vid)?;
    let rlist = cvd.rids_of(vid)?;
    Ok(match cvd.model {
        ModelKind::TablePerVersion => table_per_version::version_row_refs(db, cvd, vid),
        ModelKind::CombinedTable => rid_index_rows(db, &cvd.combined_table(), cvd, rlist, 1),
        ModelKind::SplitByVlist | ModelKind::SplitByRlist => {
            rid_index_rows(db, &cvd.data_table(), cvd, rlist, 0)
        }
        ModelKind::DeltaBased => delta::version_row_refs(db, cvd, vid),
    })
}

/// Width of the `rid + data attributes` prefix of a backing table's rows:
/// `Some(n)` when the columns are `[rid, a0..a(n-1), <trailing>..]` with
/// `a0..a(n-1)` matching a prefix of the CVD schema in order (`trailing`
/// is the count of versioning columns at the tail — combined's `vlist`,
/// delta's `tombstone`). `None` marks layout drift and sends the caller to
/// the SQL path.
pub(crate) fn attr_prefix_len(table: &Schema, cvd: &Cvd, trailing: usize) -> Option<usize> {
    let n = table.arity().checked_sub(1 + trailing)?;
    if n > cvd.schema.arity() || !table.columns[0].name.eq_ignore_ascii_case("rid") {
        return None;
    }
    for i in 0..n {
        if !table.columns[i + 1]
            .name
            .eq_ignore_ascii_case(&cvd.schema.columns[i].name)
        {
            return None;
        }
    }
    Some(n)
}

/// Resolve a sorted rlist to borrowed rows through `table`'s rid index.
pub(crate) fn rid_index_rows<'a>(
    db: &'a Database,
    table: &str,
    cvd: &Cvd,
    rlist: &[i64],
    trailing: usize,
) -> Option<RowRefs<'a>> {
    let t = db.table(table).ok()?;
    let width = attr_prefix_len(&t.schema, cvd, trailing)?;
    let pairs = t.resolve_int_keys(0, rlist)?;
    Some(
        pairs
            .into_iter()
            .map(|(rid, slot)| (rid, &t.row(slot)[1..1 + width]))
            .collect(),
    )
}

/// Fast-path checkout: copy the resolved rows of one version from `source`
/// into a fresh `target` with exactly the shape `SELECT .. INTO` produces
/// (source column types, no primary key, everything nullable). `rlist` of
/// `None` copies the whole table (a-table-per-version). Returns `false` —
/// having touched nothing — when the layout cannot be fast-read, so the
/// caller can run the Table 1 statement instead.
pub(crate) fn checkout_resolved(
    db: &mut Database,
    source: &str,
    cvd: &Cvd,
    rlist: Option<&[i64]>,
    trailing: usize,
    target: &str,
) -> Result<bool> {
    let (schema, rows) = {
        let Ok(t) = db.table(source) else {
            return Ok(false);
        };
        let Some(width) = attr_prefix_len(&t.schema, cvd, trailing) else {
            return Ok(false);
        };
        let rows: Vec<Vec<Value>> = match rlist {
            Some(rids) => {
                let Some(pairs) = t.resolve_int_keys(0, rids) else {
                    return Ok(false);
                };
                pairs
                    .into_iter()
                    .map(|(_, slot)| t.row(slot)[..=width].to_vec())
                    .collect()
            }
            None => t.rows().map(|r| r[..=width].to_vec()).collect(),
        };
        let mut schema = t.schema.project(&(0..=width).collect::<Vec<_>>());
        schema.primary_key.clear();
        for c in &mut schema.columns {
            c.nullable = true;
        }
        (schema, rows)
    };
    db.create_table(target, schema)?;
    db.table_mut(target)?.insert_many(rows)?;
    Ok(true)
}

/// Whether the record-access fast path would engage for this version right
/// now (used by tests and the latency benchmark to assert the timed arm
/// actually exercised the fast path).
pub fn fast_path_ready(db: &Database, cvd: &Cvd, vid: Vid) -> bool {
    matches!(version_row_refs(db, cvd, vid), Ok(Some(_)))
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
        let mut row = t.row(slot).clone();
        if let Value::IntArray(vlist) = &mut row[vlist_col] {
            vlist.push(vid.0 as i64);
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
        let mut all_records = Vec::new();
        let mut fresh = cvd.alloc_rids(rows.len()).into_iter();
        for row in rows {
            match val2rid.get(row) {
                Some(&rid) => {
                    kept.push(rid);
                    all_records.push((rid, row.clone()));
                }
                None => {
                    let rid = fresh.next().unwrap();
                    new_records.push((rid, row.clone()));
                    all_records.push((rid, row.clone()));
                }
            }
        }
        let mut rlist: Vec<i64> = all_records.iter().map(|(r, _)| *r).collect();
        rlist.sort_unstable();
        // One overlap pass per parent serves both the base-parent choice
        // and the stored weights (mirrors the production commit core).
        let parent_weights = cvd.parent_overlaps(&rlist, parents);
        let base = crate::db::base_parent(parents, &parent_weights);
        let deleted_from_base = match base {
            Some(b) => crate::cvd::sorted_difference(cvd.rids_of(b).unwrap(), &rlist),
            None => Vec::new(),
        };
        let data = CommitData {
            vid,
            rlist: rlist.clone(),
            kept,
            new_records,
            all_records,
            base,
            deleted_from_base,
        };
        model::persist_commit(db, cvd, &data, false).unwrap();
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

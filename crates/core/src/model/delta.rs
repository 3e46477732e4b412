//! Delta-based model (Section 3.1, Approach 4): each version stores only
//! its modifications relative to a *base* parent, as a per-version table
//! with a `tombstone` flag for deletions, plus a precedent metadata table
//! `(vid PK, base)`.
//!
//! Checkout replays the lineage from the version back to the root,
//! discarding records already seen (deleted-or-superseded semantics).
//! Advanced cross-version queries cannot be rewritten against this model
//! without reconstructing versions — the qualitative drawback the paper
//! weighs against its storage economy.

use std::collections::HashSet;

use orpheus_engine::{Column, DataType, Database, Schema, Value};

use crate::cvd::Cvd;
use crate::error::Result;
use crate::ids::Vid;
use crate::model::{self, insert_rows, CommitData};

/// Schema of a delta table: rid PK ++ attrs ++ tombstone flag.
pub fn delta_schema(cvd: &Cvd) -> Schema {
    let mut cols = vec![Column::new("rid", DataType::Int).not_null()];
    cols.extend(cvd.schema.columns.iter().cloned());
    cols.push(Column::new("tombstone", DataType::Bool).not_null());
    let mut s = Schema::new(cols);
    s.primary_key = vec![0];
    s
}

pub fn init(db: &mut Database, cvd: &Cvd) -> Result<()> {
    db.execute(&format!(
        "CREATE TABLE {} (vid INT PRIMARY KEY, base INT)",
        cvd.precedent_table()
    ))?;
    Ok(())
}

pub fn persist(db: &mut Database, cvd: &Cvd, data: &CommitData) -> Result<()> {
    let table = cvd.delta_table(data.vid);
    db.create_table(&table, delta_schema(cvd))?;
    let attr_count = cvd.schema.arity();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    // The delta stores every record not present in the base parent — for a
    // merge that includes records inherited from the *other* parent, since
    // reconstruction only walks the base lineage.
    let base_set: std::collections::HashSet<i64> = match data.base {
        Some(b) => cvd.rids_of(b)?.iter().copied().collect(),
        None => std::collections::HashSet::new(),
    };
    for (rid, values) in &data.all_records {
        if base_set.contains(rid) {
            continue;
        }
        let mut row = Vec::with_capacity(attr_count + 2);
        row.push(Value::Int(*rid));
        row.extend(values.iter().cloned());
        row.push(Value::Bool(false));
        rows.push(row);
    }
    for rid in &data.deleted_from_base {
        let mut row = Vec::with_capacity(attr_count + 2);
        row.push(Value::Int(*rid));
        row.resize(attr_count + 1, Value::Null);
        row.push(Value::Bool(true));
        rows.push(row);
    }
    insert_rows(db, &table, rows)?;
    db.table_mut(&cvd.precedent_table())?.insert(vec![
        Value::Int(data.vid.0 as i64),
        data.base.map_or(Value::Null, |b| Value::Int(b.0 as i64)),
    ])?;
    Ok(())
}

/// Reconstruct a version by tracing the `base` lineage back to the root
/// (Section 3.1: "if an incoming record has occurred before, it is
/// discarded; otherwise, if it is marked as insert, insert it").
pub fn reconstruct(db: &mut Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    let mut chain = Vec::new();
    let mut cur = Some(vid);
    while let Some(v) = cur {
        chain.push(v);
        cur = cvd.meta(v)?.base;
    }
    let mut seen: HashSet<i64> = HashSet::new();
    let mut out: Vec<(i64, Vec<Value>)> = Vec::new();
    for v in chain {
        let r = db.query(&format!("SELECT * FROM {}", cvd.delta_table(v)))?;
        for mut row in r.rows {
            let tombstone = row.pop().expect("tombstone column").as_bool()?;
            let values = row.split_off(1);
            let rid = row.pop().expect("rid column").as_int()?;
            if seen.insert(rid) && !tombstone {
                out.push((rid, values));
            }
        }
    }
    out.sort_by_key(|(rid, _)| *rid);
    Ok(out)
}

/// Fast lineage replay: the same base-chain walk as [`reconstruct`], but
/// reading delta-table heaps directly through the table API — no SQL
/// parse/plan per chain link. `None` (fallback to [`reconstruct`]) when a
/// chain table is missing or has drifted from the delta layout.
pub fn version_row_refs<'a>(db: &'a Database, cvd: &Cvd, vid: Vid) -> Option<model::RowRefs<'a>> {
    let mut chain = Vec::new();
    let mut cur = Some(vid);
    while let Some(v) = cur {
        chain.push(v);
        cur = cvd.meta(v).ok()?.base;
    }
    let mut seen: HashSet<i64> = HashSet::new();
    let mut out: model::RowRefs<'a> = Vec::new();
    for v in chain {
        let t = db.table(&cvd.delta_table(v)).ok()?;
        let width = model::attr_prefix_len(&t.schema, cvd, 1)?;
        for row in t.rows() {
            let Value::Int(rid) = row[0] else { return None };
            let Value::Bool(tombstone) = row[width + 1] else {
                return None;
            };
            if seen.insert(rid) && !tombstone {
                out.push((rid, &row[1..1 + width]));
            }
        }
    }
    out.sort_by_key(|(rid, _)| *rid);
    Some(out)
}

pub fn checkout(db: &mut Database, cvd: &Cvd, vid: Vid, target: &str) -> Result<()> {
    let records: Vec<(i64, Vec<Value>)> = match version_row_refs(db, cvd, vid) {
        Some(refs) => refs
            .into_iter()
            .map(|(rid, values)| (rid, values.to_vec()))
            .collect(),
        None => reconstruct(db, cvd, vid)?,
    };
    materialize(db, cvd, records, target)
}

/// The SQL-layer checkout formulation: lineage replay through per-table
/// `SELECT *` statements (the delta model has no single Table 1
/// statement), materialized like [`checkout`].
pub fn checkout_sql_replay(db: &mut Database, cvd: &Cvd, vid: Vid, target: &str) -> Result<()> {
    let records = reconstruct(db, cvd, vid)?;
    materialize(db, cvd, records, target)
}

fn materialize(
    db: &mut Database,
    cvd: &Cvd,
    records: Vec<(i64, Vec<Value>)>,
    target: &str,
) -> Result<()> {
    db.create_table(target, cvd.staged_schema())?;
    let width = cvd.schema.arity() + 1;
    let rows: Vec<Vec<Value>> = records
        .into_iter()
        .map(|(rid, values)| {
            let mut row = Vec::with_capacity(width);
            row.push(Value::Int(rid));
            row.extend(values);
            // Records replayed from tables frozen before a schema
            // evolution are narrower; the staged table carries NULL for
            // the attributes they predate.
            row.resize(width, Value::Null);
            row
        })
        .collect();
    insert_rows(db, target, rows)
}

/// The replay read via the SQL layer ([`reconstruct`]) — the spec path.
pub fn version_rows_sql(db: &mut Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    reconstruct(db, cvd, vid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{commit, make_cvd, record};
    use crate::model::{storage_bytes, ModelKind};

    #[test]
    fn unchanged_commit_is_nearly_free() {
        let (mut db, mut cvd) = make_cvd(ModelKind::DeltaBased);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        let s1 = storage_bytes(&db, &cvd);
        // Identical content: delta table is empty.
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("b", 2)],
            &[Vid(1)],
        );
        let s2 = storage_bytes(&db, &cvd);
        assert!(s2 - s1 < 64, "empty delta should cost almost nothing");
        assert_eq!(model::version_rows(&mut db, &cvd, Vid(2)).unwrap().len(), 2);
    }

    #[test]
    fn deletions_become_tombstones() {
        let (mut db, mut cvd) = make_cvd(ModelKind::DeltaBased);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[Vid(1)]);
        // The delta table of v2 holds one tombstone.
        let r = db
            .query(&format!(
                "SELECT count(*) FROM {} WHERE tombstone = TRUE",
                cvd.delta_table(Vid(2))
            ))
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
        let rows = model::version_rows(&mut db, &cvd, Vid(2)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[0], Value::Text("a".into()));
    }

    #[test]
    fn lineage_replay_across_three_versions() {
        let (mut db, mut cvd) = make_cvd(ModelKind::DeltaBased);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("b", 2)],
            &[Vid(1)],
        );
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 7), record("b", 2), record("c", 3)],
            &[Vid(2)],
        );
        let rows = model::version_rows(&mut db, &cvd, Vid(3)).unwrap();
        assert_eq!(rows.len(), 3);
        // "a" was modified: its reconstructed score is the new one.
        let a = rows
            .iter()
            .find(|(_, v)| v[0] == Value::Text("a".into()))
            .unwrap();
        assert_eq!(a.1[1], Value::Int(7));

        checkout(&mut db, &cvd, Vid(3), "t3").unwrap();
        let r = db.query("SELECT count(*) FROM t3").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn precedent_table_records_bases() {
        let (mut db, mut cvd) = make_cvd(ModelKind::DeltaBased);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("b", 2)],
            &[Vid(1)],
        );
        let r = db
            .query(&format!(
                "SELECT base FROM {} WHERE vid = 2",
                cvd.precedent_table()
            ))
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
        let r = db
            .query(&format!(
                "SELECT base FROM {} WHERE vid = 1",
                cvd.precedent_table()
            ))
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
    }
}

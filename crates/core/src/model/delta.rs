//! Delta-based model (Section 3.1, Approach 4): each version stores only
//! its modifications relative to a *base* parent, as a per-version table
//! with a `tombstone` flag for deletions, plus a precedent metadata table
//! `(vid PK, base)`.
//!
//! Checkout replays the lineage from the version back to the root,
//! discarding records already seen (deleted-or-superseded semantics):
//! reads walk the delta-table heaps (`view`); the per-table `SELECT *`
//! replay ([`reconstruct`]) is the spec.
//! Advanced cross-version queries cannot be rewritten against this model
//! without reconstructing versions — the qualitative drawback the paper
//! weighs against its storage economy.

use std::borrow::Cow;
use std::collections::HashSet;

use orpheus_engine::{Column, DataType, Database, Schema, Value};

use crate::cvd::Cvd;
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::model::{self, insert_rows, CommitData, VersionView, ViewRows};

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

pub fn persist(db: &mut Database, cvd: &Cvd, parents: &[Vid], data: &CommitData) -> Result<()> {
    // The delta stores every record not present in the base parent — for a
    // merge that includes records kept from the *other* parent, since
    // reconstruction only walks the base lineage.
    let mut off_base = match data.base {
        Some(b) => crate::cvd::sorted_difference(&data.kept, cvd.rids_of(b)?),
        None => data.kept.clone(),
    };
    off_base.dedup();
    let off_base = model::kept_records(db, cvd, parents, &off_base)?;
    let table = cvd.delta_table(data.vid);
    db.create_table(&table, delta_schema(cvd))?;
    let attr_count = cvd.schema.arity();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for (rid, values) in off_base.iter().chain(&data.new_records) {
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
    let mut seen: HashSet<i64> = HashSet::new();
    let mut out: Vec<(i64, Vec<Value>)> = Vec::new();
    for v in lineage(cvd, vid)? {
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

/// The view of `vid`'s records at the sorted `rids`: the record-access
/// lineage replay, the same base-chain walk as [`reconstruct`] reading
/// the delta-table heaps directly through the table API — no SQL
/// parse/plan per chain link — and then the replayed record of each rid.
/// A chain table that is missing or has drifted from the delta layout, or
/// a rid the replay lacks, is an error naming the table.
pub(crate) fn view<'a>(
    db: &'a Database,
    cvd: &Cvd,
    vid: Vid,
    rids: Cow<'a, [i64]>,
) -> Result<VersionView<'a>> {
    let mut seen: HashSet<i64> = HashSet::new();
    let mut replayed: Vec<(i64, &'a [Value])> = Vec::new();
    for v in lineage(cvd, vid)? {
        let t = db.table(&cvd.delta_table(v))?;
        let width = model::attr_prefix_len(t, cvd, 1)?;
        for row in t.rows() {
            let (Value::Int(rid), Value::Bool(tombstone)) = (&row[0], &row[width + 1]) else {
                return Err(CoreError::Invalid(format!(
                    "delta table {} holds a row whose rid is not an INT or whose \
                     tombstone is not a BOOL",
                    t.name
                )));
            };
            if seen.insert(*rid) && !tombstone {
                replayed.push((*rid, &row[1..=width]));
            }
        }
    }
    replayed.sort_unstable_by_key(|&(rid, _)| rid);
    let mut rows = Vec::with_capacity(rids.len());
    for &rid in rids.iter() {
        let i = replayed.partition_point(|&(r, _)| r < rid);
        match replayed.get(i) {
            Some(&(r, values)) if r == rid => rows.push(values),
            _ => return Err(model::lacks(&cvd.delta_table(vid))),
        }
    }
    let rows = ViewRows::Replayed(rows);
    Ok(VersionView { rids, rows })
}

/// `vid` and its base chain back to the root, newest first.
fn lineage(cvd: &Cvd, vid: Vid) -> Result<Vec<Vid>> {
    let mut chain = vec![vid];
    while let Some(base) = cvd.meta(chain[chain.len() - 1])?.base {
        chain.push(base);
    }
    Ok(chain)
}

/// The SQL-layer checkout formulation: lineage replay through per-table
/// `SELECT *` statements (the delta model has no single Table 1
/// statement), materialized as the record-access checkout stages a
/// replayed version.
pub fn checkout_sql_replay(db: &mut Database, cvd: &Cvd, vid: Vid, target: &str) -> Result<()> {
    let records = reconstruct(db, cvd, vid)?;
    let records = records
        .iter()
        .map(|(rid, values)| (*rid, values.as_slice()));
    let staged = model::staged_table(cvd, target.to_ascii_lowercase(), records)?;
    db.add_table(staged)?;
    Ok(())
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
        assert_eq!(model::version_rows(&db, &cvd, Vid(2)).unwrap().len(), 2);
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
        let rows = model::version_rows(&db, &cvd, Vid(2)).unwrap();
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
        let rows = model::version_rows(&db, &cvd, Vid(3)).unwrap();
        assert_eq!(rows.len(), 3);
        // "a" was modified: its reconstructed score is the new one.
        let a = rows
            .iter()
            .find(|(_, v)| v[0] == Value::Text("a".into()))
            .unwrap();
        assert_eq!(a.1[1], Value::Int(7));

        model::checkout_into(&mut db, &cvd, Vid(3), "t3").unwrap();
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

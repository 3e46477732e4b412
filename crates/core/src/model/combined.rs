//! Combined-table (Figure 1b): a single table `(rid PK, attrs..., vlist)`
//! where each record carries the array of versions containing it. Checkout
//! is a containment scan; commit appends the new vid to every inherited
//! record's vlist — the expensive operation that motivates the split
//! models (Section 3.2).

use orpheus_engine::{Column, DataType, Database, Schema, Value};

use crate::cvd::Cvd;
use crate::error::Result;
use crate::ids::Vid;
use crate::model::{
    self, append_vid_to_vlist, insert_rows, rid_and_attrs, split_rlist::rows_to_records, CommitData,
};

/// Physical schema: rid PK ++ data attrs ++ vlist.
pub fn physical_schema(cvd: &Cvd) -> Schema {
    let mut cols = vec![Column::new("rid", DataType::Int).not_null()];
    cols.extend(cvd.schema.columns.iter().cloned());
    cols.push(Column::new("vlist", DataType::IntArray));
    let mut s = Schema::new(cols);
    s.primary_key = vec![0];
    s
}

pub fn init(db: &mut Database, cvd: &Cvd) -> Result<()> {
    db.create_table(&cvd.combined_table(), physical_schema(cvd))?;
    Ok(())
}

pub fn persist(db: &mut Database, cvd: &Cvd, data: &CommitData) -> Result<()> {
    append_vid_to_vlist(db, &cvd.combined_table(), data.vid, &data.kept)?;
    if !data.new_records.is_empty() {
        // Build rows in the table's *physical* column order: schema
        // evolution appends new data columns after `vlist`, so the
        // rid ++ attrs ++ vlist layout cannot be assumed. The name
        // resolution is loop-invariant — map each physical column to its
        // source once, not per row.
        enum Source {
            Rid,
            Vlist,
            Attr(usize),
            Missing,
        }
        let sources: Vec<Source> = {
            let columns = &db.table(&cvd.combined_table())?.schema.columns;
            columns
                .iter()
                .map(|c| {
                    if c.name.eq_ignore_ascii_case("rid") {
                        Source::Rid
                    } else if c.name.eq_ignore_ascii_case("vlist") {
                        Source::Vlist
                    } else {
                        match cvd.schema.column_index(&c.name) {
                            Ok(i) => Source::Attr(i),
                            Err(_) => Source::Missing,
                        }
                    }
                })
                .collect()
        };
        let rows: Vec<Vec<Value>> = data
            .new_records
            .iter()
            .map(|(rid, values)| {
                sources
                    .iter()
                    .map(|s| match s {
                        Source::Rid => Value::Int(*rid),
                        Source::Vlist => Value::IntArray(vec![data.vid.0 as i64]),
                        Source::Attr(i) => values.get(*i).cloned().unwrap_or(Value::Null),
                        Source::Missing => Value::Null,
                    })
                    .collect()
            })
            .collect();
        insert_rows(db, &cvd.combined_table(), rows)?;
    }
    Ok(())
}

/// The Table 1 checkout statement (projecting away the versioning
/// attribute so the staged table matches the logical schema).
pub fn checkout_sql(cvd: &Cvd, vid: Vid, target: &str) -> String {
    format!(
        "SELECT {} INTO {target} FROM {} WHERE ARRAY[{}] <@ vlist",
        rid_and_attrs(cvd),
        cvd.combined_table(),
        vid.0
    )
}

/// Checkout: rid-index fast path over the combined table (the trailing
/// `vlist` column is projected away, exactly like the SQL statement); the
/// Table 1 containment scan is the fallback — and the only path once
/// schema evolution has appended a data column after `vlist`.
pub fn checkout(db: &mut Database, cvd: &Cvd, vid: Vid, target: &str) -> Result<()> {
    let rlist = cvd.rids_of(vid)?;
    if model::checkout_resolved(db, &cvd.combined_table(), cvd, Some(rlist), 1, target)? {
        return Ok(());
    }
    db.execute(&checkout_sql(cvd, vid, target))?;
    Ok(())
}

/// The Table 1 read formulation, executed through the SQL layer.
pub fn version_rows_sql(db: &mut Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    let r = db.query(&format!(
        "SELECT {} FROM {} WHERE ARRAY[{}] <@ vlist",
        rid_and_attrs(cvd),
        cvd.combined_table(),
        vid.0
    ))?;
    rows_to_records(r.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{commit, make_cvd, record};
    use crate::model::ModelKind;

    #[test]
    fn roundtrip_with_modified_record() {
        let (mut db, mut cvd) = make_cvd(ModelKind::CombinedTable);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        // Modify b's score: becomes a *new* record (immutability).
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("b", 99)],
            &[Vid(1)],
        );

        checkout(&mut db, &cvd, Vid(1), "t1").unwrap();
        checkout(&mut db, &cvd, Vid(2), "t2").unwrap();
        let r1 = db.query("SELECT score FROM t1 ORDER BY name").unwrap();
        let r2 = db.query("SELECT score FROM t2 ORDER BY name").unwrap();
        assert_eq!(r1.rows[1][0], Value::Int(2));
        assert_eq!(r2.rows[1][0], Value::Int(99));

        // The combined table holds 3 records: a, b(2), b(99); a's vlist
        // covers both versions.
        let r = db
            .query(&format!("SELECT count(*) FROM {}", cvd.combined_table()))
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
        let r = db
            .query(&format!(
                "SELECT vlist FROM {} WHERE name = 'a'",
                cvd.combined_table()
            ))
            .unwrap();
        assert_eq!(r.rows[0][0], Value::IntArray(vec![1, 2]));
    }

    #[test]
    fn a_record_kept_twice_lists_the_version_once() {
        let (mut db, mut cvd) = make_cvd(ModelKind::CombinedTable);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        // A duplicated staged row keeps its rid twice; the vlist append
        // still adds the version once, as Table 1's `WHERE rid IN (…)`.
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("a", 1)],
            &[Vid(1)],
        );
        let t = db.table(&cvd.combined_table()).unwrap();
        let vlists: Vec<&Value> = t.rows().map(|row| &row[3]).collect();
        assert_eq!(vlists, [&Value::IntArray(vec![1, 2])]);
    }

    #[test]
    fn checkout_excludes_vlist_column() {
        let (mut db, mut cvd) = make_cvd(ModelKind::CombinedTable);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        checkout(&mut db, &cvd, Vid(1), "t1").unwrap();
        let schema = &db.table("t1").unwrap().schema;
        assert!(!schema.has_column("vlist"));
        assert!(schema.has_column("rid"));
    }

    #[test]
    fn version_rows_by_containment() {
        let (mut db, mut cvd) = make_cvd(ModelKind::CombinedTable);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        commit(&mut db, &mut cvd, &[record("b", 2)], &[Vid(1)]);
        assert_eq!(model::version_rows(&mut db, &cvd, Vid(2)).unwrap().len(), 1);
        // The fast path strips the vlist column, like the SQL projection.
        let fast: Vec<(i64, Vec<Value>)> = model::version_row_refs(&db, &cvd, Vid(1))
            .unwrap()
            .expect("fast path ready")
            .into_iter()
            .map(|(r, vals)| (r, vals.to_vec()))
            .collect();
        let mut sql = version_rows_sql(&mut db, &cvd, Vid(1)).unwrap();
        sql.sort_by_key(|(r, _)| *r);
        assert_eq!(fast, sql);
        assert!(fast.iter().all(|(_, vals)| vals.len() == 2));
    }

    #[test]
    fn layout_drift_falls_back_to_sql() {
        let (mut db, mut cvd) = make_cvd(ModelKind::CombinedTable);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        // Simulate schema evolution appending a data column *after* the
        // combined table's vlist: the prefix check must refuse the fast
        // path and both reads route through the containment scan.
        db.execute(&format!(
            "ALTER TABLE {} ADD COLUMN extra INT",
            cvd.combined_table()
        ))
        .unwrap();
        cvd.schema
            .columns
            .push(orpheus_engine::Column::new("extra", DataType::Int));
        assert!(!model::fast_path_ready(&db, &cvd, Vid(1)));
        let rows = model::version_rows(&mut db, &cvd, Vid(1)).unwrap();
        assert_eq!(rows.len(), 1);
        checkout(&mut db, &cvd, Vid(1), "fallback_t").unwrap();
        let r = db.query("SELECT count(*) FROM fallback_t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }
}

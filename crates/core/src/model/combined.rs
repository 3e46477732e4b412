//! Combined-table (Figure 1b): a single table `(rid PK, attrs..., vlist)`
//! where each record carries the array of versions containing it. Table 1's
//! checkout is a containment scan; commit appends the new vid to every
//! inherited record's vlist — the expensive operation that motivates the
//! split models (Section 3.2). Reads resolve the version's rlist through
//! the rid index ([`crate::model::version_row_refs`]), which needs the
//! layout to stay [`physical_schema`]: schema evolution keeps `vlist` last
//! (`keep_vlist_last`).

use orpheus_engine::{Column, DataType, Database, Schema, Table, Value};

use crate::cvd::Cvd;
use crate::error::Result;
use crate::ids::Vid;
use crate::model::{
    append_vid_to_vlist, insert_rows, rid_and_attrs, split_rlist::rows_to_records, CommitData,
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
    let width = cvd.schema.arity() + 1;
    let rows: Vec<Vec<Value>> = data
        .new_records
        .iter()
        .map(|(rid, values)| {
            let mut row = Vec::with_capacity(width + 1);
            row.push(Value::Int(*rid));
            row.extend(values.iter().cloned());
            row.resize(width, Value::Null);
            row.push(Value::from(vec![data.vid.0 as i64]));
            row
        })
        .collect();
    insert_rows(db, &cvd.combined_table(), rows)
}

/// Rebuild the combined table with `vlist` as its last column when it is
/// not: `ALTER TABLE … ADD COLUMN` appends a new data column after it, and
/// snapshots written before evolution kept `vlist` last still hold such a
/// table. The rebuilt table keeps the name, every record in heap order
/// and every index (the rid one and any created by hand, rebuilt on the
/// same columns), so the layout is [`physical_schema`] again and reads
/// resolve through the rid index.
pub(crate) fn keep_vlist_last(db: &mut Database, cvd: &Cvd) -> Result<()> {
    let old = db.table(&cvd.combined_table())?.clone();
    let at = old.schema.column_index("vlist")?;
    if at + 1 == old.schema.arity() {
        return Ok(());
    }
    let mut schema = (*old.schema).clone();
    let vlist = schema.columns.remove(at);
    schema.columns.push(vlist);
    let mut rebuilt = Table::new(old.name.to_string(), schema);
    rebuilt.insert_many(old.rows().map(|row| {
        let mut row = row.to_vec();
        let vlist = row.remove(at);
        row.push(vlist);
        row
    }))?;
    for index in old.indexes() {
        if rebuilt.index_named(&index.name).is_none() {
            let columns: Vec<&str> = index
                .columns
                .iter()
                .map(|&c| old.schema.columns[c].name.as_str())
                .collect();
            rebuilt.create_index(index.name.clone(), &columns, index.unique)?;
        }
    }
    db.drop_table(&old.name)?;
    db.add_table(rebuilt)?;
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
    use crate::error::CoreError;
    use crate::model::testutil::{commit, make_cvd, record};
    use crate::model::{self, ModelKind};

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

        model::checkout_into(&mut db, &cvd, Vid(1), "t1").unwrap();
        model::checkout_into(&mut db, &cvd, Vid(2), "t2").unwrap();
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
        assert_eq!(r.rows[0][0], Value::IntArray(vec![1, 2].into()));
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
        assert_eq!(vlists, [&Value::IntArray(vec![1, 2].into())]);
    }

    #[test]
    fn checkout_excludes_vlist_column() {
        let (mut db, mut cvd) = make_cvd(ModelKind::CombinedTable);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        model::checkout_into(&mut db, &cvd, Vid(1), "t1").unwrap();
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
            .into_iter()
            .map(|(r, vals)| (r, vals.to_vec()))
            .collect();
        let mut sql = version_rows_sql(&mut db, &cvd, Vid(1)).unwrap();
        sql.sort_by_key(|(r, _)| *r);
        assert_eq!(fast, sql);
        assert!(fast.iter().all(|(_, vals)| vals.len() == 2));
    }

    #[test]
    fn layout_drift_is_refused_by_name() {
        let (mut db, mut cvd) = make_cvd(ModelKind::CombinedTable);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        // A hand-run ALTER appends a data column *after* the combined
        // table's vlist — a layout no commit makes. Reads and checkout
        // refuse it with a typed error naming the table, and run no SQL.
        db.execute(&format!(
            "ALTER TABLE {} ADD COLUMN extra INT",
            cvd.combined_table()
        ))
        .unwrap();
        cvd.schema
            .columns
            .push(orpheus_engine::Column::new("extra", DataType::Int));
        let scanned = db.stats.rows_scanned();
        let table = cvd.combined_table();
        let refused = |e: CoreError| matches!(&e, CoreError::Invalid(m) if m.contains(&table));
        assert!(!model::fast_path_ready(&db, &cvd, Vid(1)));
        assert!(refused(
            model::version_rows(&mut db, &cvd, Vid(1)).unwrap_err()
        ));
        assert!(refused(
            model::version_rows_absent_from(&db, &cvd, Vid(1), &[]).unwrap_err()
        ));
        assert!(refused(
            model::checkout_into(&mut db, &cvd, Vid(1), "drift_t").unwrap_err()
        ));
        assert!(!db.has_table("drift_t"));
        assert_eq!(db.stats.rows_scanned(), scanned);
    }

    #[test]
    fn a_column_after_vlist_moves_ahead_of_it() {
        let (mut db, mut cvd) = make_cvd(ModelKind::CombinedTable);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        db.table_mut(&cvd.combined_table())
            .unwrap()
            .create_index("by_score", &["score"], false)
            .unwrap();
        db.execute(&format!(
            "ALTER TABLE {} ADD COLUMN extra INT",
            cvd.combined_table()
        ))
        .unwrap();
        cvd.schema.columns.push(Column::new("extra", DataType::Int));
        keep_vlist_last(&mut db, &cvd).unwrap();
        let t = db.table(&cvd.combined_table()).unwrap();
        assert_eq!(*t.schema, physical_schema(&cvd));
        // A hand-made index follows its column.
        assert_eq!(t.index_named("by_score").unwrap().columns, [2]);
        let rows: Vec<&[Value]> = t.rows().collect();
        assert_eq!(rows[1][3], Value::Null);
        assert_eq!(rows[1][4], Value::IntArray(vec![1].into()));
        // The rid index was rebuilt with the table: reads resolve again.
        let read = model::version_rows(&mut db, &cvd, Vid(1)).unwrap();
        assert_eq!(
            read[1].1,
            [Value::Text("b".into()), Value::Int(2), Value::Null]
        );
    }
}

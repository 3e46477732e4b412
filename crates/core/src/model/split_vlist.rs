//! Split-by-vlist (Figure 1c.i): data table `(rid PK, attrs...)` plus a
//! versioning table `(rid PK, vlist INT[])` mapping each record to the
//! versions containing it. Commit must append the new vid to many vlist
//! arrays (expensive, like combined-table); Table 1's checkout scans the
//! versioning table with a containment check, then joins with the data
//! table. Reads resolve the version's sorted rlist — the membership that
//! scan would discover — through the data table's rid index instead
//! ([`crate::model::version_row_refs`]).

use orpheus_engine::{Database, Value};

use crate::cvd::Cvd;
use crate::error::Result;
use crate::ids::Vid;
use crate::model::{
    append_vid_to_vlist, insert_rows, rid_rows, split_rlist::rows_to_records, CommitData,
};

pub fn init(db: &mut Database, cvd: &Cvd) -> Result<()> {
    db.create_table(&cvd.data_table(), cvd.physical_data_schema())?;
    db.execute(&format!(
        "CREATE TABLE {} (rid INT PRIMARY KEY, vlist INT[])",
        cvd.vlist_table()
    ))?;
    Ok(())
}

pub fn persist(db: &mut Database, cvd: &Cvd, data: &CommitData) -> Result<()> {
    // Append vid to the vlist of every inherited record (Table 1's
    // expensive UPDATE).
    append_vid_to_vlist(db, &cvd.vlist_table(), data.vid, &data.kept)?;
    // New records: data rows plus fresh vlist entries.
    insert_rows(db, &cvd.data_table(), rid_rows(&data.new_records))?;
    let vlist_rows: Vec<Vec<Value>> = data
        .new_records
        .iter()
        .map(|(rid, _)| vec![Value::Int(*rid), Value::from(vec![data.vid.0 as i64])])
        .collect();
    insert_rows(db, &cvd.vlist_table(), vlist_rows)
}

/// The Table 1 checkout statement for this model.
pub fn checkout_sql(cvd: &Cvd, vid: Vid, target: &str) -> String {
    format!(
        "SELECT d.* INTO {target} FROM {} AS d, \
         (SELECT rid AS rid_tmp FROM {} WHERE ARRAY[{}] <@ vlist) AS tmp \
         WHERE d.rid = rid_tmp",
        cvd.data_table(),
        cvd.vlist_table(),
        vid.0
    )
}

/// The Table 1 read formulation, executed through the SQL layer.
pub fn version_rows_sql(db: &mut Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    let r = db.query(&format!(
        "SELECT d.* FROM {} AS d, \
         (SELECT rid AS rid_tmp FROM {} WHERE ARRAY[{}] <@ vlist) AS tmp \
         WHERE d.rid = rid_tmp",
        cvd.data_table(),
        cvd.vlist_table(),
        vid.0
    ))?;
    rows_to_records(r.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{commit, make_cvd, record};
    use crate::model::{self, ModelKind};

    #[test]
    fn roundtrip_and_vlist_growth() {
        let (mut db, mut cvd) = make_cvd(ModelKind::SplitByVlist);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        // v2 keeps "a", drops "b", adds "c".
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("c", 3)],
            &[Vid(1)],
        );

        model::checkout_into(&mut db, &cvd, Vid(2), "t2").unwrap();
        let r = db.query("SELECT name FROM t2 ORDER BY name").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[1][0], Value::Text("c".into()));

        // Record "a" now lists both versions.
        let r = db
            .query(&format!(
                "SELECT count(*) FROM {} WHERE ARRAY[1, 2] <@ vlist",
                cvd.vlist_table()
            ))
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn version_rows_and_counts() {
        let (mut db, mut cvd) = make_cvd(ModelKind::SplitByVlist);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("b", 2)],
            &[Vid(1)],
        );
        assert_eq!(model::version_rows(&mut db, &cvd, Vid(1)).unwrap().len(), 1);
        assert_eq!(model::version_rows(&mut db, &cvd, Vid(2)).unwrap().len(), 2);
        // Fast path and containment-scan SQL agree record-for-record.
        for v in [Vid(1), Vid(2)] {
            let fast: Vec<(i64, Vec<Value>)> = model::version_row_refs(&db, &cvd, v)
                .unwrap()
                .into_iter()
                .map(|(r, vals)| (r, vals.to_vec()))
                .collect();
            let mut sql = version_rows_sql(&mut db, &cvd, v).unwrap();
            sql.sort_by_key(|(r, _)| *r);
            assert_eq!(fast, sql, "{v}");
        }
        // Deduplicated storage: 2 data rows, 2 vlist rows.
        let r = db
            .query(&format!("SELECT count(*) FROM {}", cvd.vlist_table()))
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }
}

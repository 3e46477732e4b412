//! Split-by-rlist (Figure 1c.ii) — the paper's chosen model.
//!
//! Two tables: the **data table** `(rid PK, attrs...)` holding every record
//! appearing in any version, and the **versioning table** `(vid PK,
//! rlist INT[])` mapping each version to its records. Commit appends *one*
//! tuple to the versioning table; checkout resolves the version's rlist via
//! the primary-key index on `vid`, unnests it, and hash-joins with the data
//! table (Table 1, right column). That join is the spec; reads short-circuit
//! it: the sorted rlist resolves to data-table heap slots directly through
//! the rid primary-key index ([`crate::model::VersionView`]).

use std::sync::Arc;

use orpheus_engine::{Database, Value};

use crate::cvd::Cvd;
use crate::error::Result;
use crate::ids::Vid;
use crate::model::{insert_rows, rid_rows, CommitData};

pub fn init(db: &mut Database, cvd: &Cvd) -> Result<()> {
    create_pair(db, cvd, &cvd.data_table(), &cvd.rlist_table())
}

/// Create one empty `(data, rlist)` table pair: the CVD's global pair, or
/// the pair of one partition (see [`Cvd::rlist_pair`]).
pub(crate) fn create_pair(db: &mut Database, cvd: &Cvd, data: &str, rlist: &str) -> Result<()> {
    db.create_table(data, cvd.physical_data_schema())?;
    create_rlist_table(db, rlist)
}

pub(crate) fn create_rlist_table(db: &mut Database, rlist: &str) -> Result<()> {
    db.execute(&format!(
        "CREATE TABLE {rlist} (vid INT PRIMARY KEY, rlist INT[])"
    ))?;
    Ok(())
}

pub fn persist(
    db: &mut Database,
    cvd: &Cvd,
    data: &CommitData,
    rlist: &Arc<Vec<i64>>,
) -> Result<()> {
    // New records go into the data table.
    insert_rows(db, &cvd.data_table(), rid_rows(&data.new_records))?;
    // One tuple into the versioning table — the cheap commit of Table 1.
    // Its cell shares the rlist with the catalog.
    db.table_mut(&cvd.rlist_table())?
        .insert(rlist_tuple(data.vid, rlist))?;
    Ok(())
}

/// The `(vid, rlist)` tuple of a version, sharing `rlist`'s buffer.
pub(crate) fn rlist_tuple(vid: Vid, rlist: &Arc<Vec<i64>>) -> Vec<Value> {
    vec![Value::Int(vid.0 as i64), Value::IntArray(Arc::clone(rlist))]
}

/// The Table 1 join of this model: the records of `vid`, out of the table
/// pair that holds the version. `into` is empty or ` INTO <target>`.
fn table1_sql(cvd: &Cvd, vid: Vid, into: &str) -> Result<String> {
    let (data, rlist) = cvd.rlist_pair(vid)?;
    Ok(format!(
        "SELECT d.*{into} FROM {data} AS d, \
         (SELECT unnest(rlist) AS rid_tmp FROM {rlist} WHERE vid = {}) AS tmp \
         WHERE rid = rid_tmp",
        vid.0
    ))
}

/// The Table 1 checkout statement for this model.
pub fn checkout_sql(cvd: &Cvd, vid: Vid, target: &str) -> Result<String> {
    table1_sql(cvd, vid, &format!(" INTO {target}"))
}

/// The Table 1 read formulation, executed through the SQL layer.
pub fn version_rows_sql(db: &mut Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    let r = db.query(&table1_sql(cvd, vid, "")?)?;
    rows_to_records(r.rows)
}

/// Split engine rows (rid ++ attrs) into (rid, attrs) pairs.
pub fn rows_to_records(rows: Vec<Vec<Value>>) -> Result<Vec<(i64, Vec<Value>)>> {
    let mut out = Vec::with_capacity(rows.len());
    for mut row in rows {
        let rest = row.split_off(1);
        let rid = row.pop().expect("rid column").as_int()?;
        out.push((rid, rest));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{commit, make_cvd, record};
    use crate::model::{self, ModelKind};

    #[test]
    fn init_creates_both_tables() {
        let (db, cvd) = make_cvd(ModelKind::SplitByRlist);
        assert!(db.has_table(&cvd.data_table()));
        assert!(db.has_table(&cvd.rlist_table()));
    }

    #[test]
    fn commit_and_checkout_roundtrip() {
        let (mut db, mut cvd) = make_cvd(ModelKind::SplitByRlist);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("c", 3)],
            &[Vid(1)],
        );

        model::checkout_into(&mut db, &cvd, Vid(1), "t1").unwrap();
        let r = db
            .query("SELECT name, score FROM t1 ORDER BY name")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[1][0], Value::Text("b".into()));

        model::checkout_into(&mut db, &cvd, Vid(2), "t2").unwrap();
        let r = db.query("SELECT name FROM t2 ORDER BY name").unwrap();
        assert_eq!(r.rows[0][0], Value::Text("a".into()));
        assert_eq!(r.rows[1][0], Value::Text("c".into()));
    }

    #[test]
    fn version_rows_match_rlist() {
        let (mut db, mut cvd) = make_cvd(ModelKind::SplitByRlist);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        let rows = model::version_rows(&db, &cvd, Vid(1)).unwrap();
        assert_eq!(rows.len(), 2);
        let rids: Vec<i64> = rows.iter().map(|(r, _)| *r).collect();
        assert_eq!(rids, cvd.rids_of(Vid(1)).unwrap());
    }

    #[test]
    fn fast_path_matches_sql_formulation() {
        let (mut db, mut cvd) = make_cvd(ModelKind::SplitByRlist);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("c", 3)],
            &[Vid(1)],
        );
        for v in [Vid(1), Vid(2)] {
            assert!(model::version_readable(&db, &cvd, v));
            let fast = model::version_rows(&db, &cvd, v).unwrap();
            let mut sql = version_rows_sql(&mut db, &cvd, v).unwrap();
            sql.sort_by_key(|(r, _)| *r);
            assert_eq!(fast, sql, "{v}");
        }
    }

    #[test]
    fn versioning_table_has_one_row_per_version() {
        let (mut db, mut cvd) = make_cvd(ModelKind::SplitByRlist);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("b", 2)],
            &[Vid(1)],
        );
        let r = db
            .query(&format!("SELECT count(*) FROM {}", cvd.rlist_table()))
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
        // Shared records are stored once in the data table.
        let r = db
            .query(&format!("SELECT count(*) FROM {}", cvd.data_table()))
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }
}

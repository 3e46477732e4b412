//! A-table-per-version (Section 3.1, Approach 5): every version is its own
//! table. Minimal checkout cost, maximal storage — the paper includes it as
//! the baseline both extremes are compared against (Figure 3).

use orpheus_engine::{Database, Value};

use crate::cvd::Cvd;
use crate::error::Result;
use crate::ids::Vid;
use crate::model::{self, insert_rows, rid_rows, split_rlist::rows_to_records, CommitData};

pub fn init(_db: &mut Database, _cvd: &Cvd) -> Result<()> {
    // Tables are created per commit.
    Ok(())
}

/// The only model that copies every record of a version: the kept ones
/// from the parents' tables, in rid order, then the new ones.
pub fn persist(db: &mut Database, cvd: &Cvd, parents: &[Vid], data: &CommitData) -> Result<()> {
    let kept = model::kept_records(db, cvd, parents, &data.kept)?;
    let table = cvd.version_table(data.vid);
    db.create_table(&table, cvd.physical_data_schema())?;
    insert_rows(db, &table, rid_rows(&kept))?;
    insert_rows(db, &table, rid_rows(&data.new_records))
}

/// Checkout is a plain table copy.
pub fn checkout_sql(cvd: &Cvd, vid: Vid, target: &str) -> String {
    format!("SELECT * INTO {target} FROM {}", cvd.version_table(vid))
}

/// Checkout: straight table-API copy of the version's table (no SQL
/// parse/plan for a plain `SELECT * INTO`); SQL fallback on layout drift.
pub fn checkout(db: &mut Database, cvd: &Cvd, vid: Vid, target: &str) -> Result<()> {
    if model::checkout_resolved(db, &cvd.version_table(vid), cvd, None, 0, target)? {
        return Ok(());
    }
    db.execute(&checkout_sql(cvd, vid, target))?;
    Ok(())
}

/// The Table 1 read formulation, executed through the SQL layer.
pub fn version_rows_sql(db: &mut Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    let r = db.query(&format!("SELECT * FROM {}", cvd.version_table(vid)))?;
    rows_to_records(r.rows)
}

/// Fast read: the version's table holds exactly its records; borrow them
/// in heap order (what `SELECT *` returns). Old tables frozen before a
/// schema evolution yield narrower slices, as their SQL reads do.
pub fn version_row_refs<'a>(db: &'a Database, cvd: &Cvd, vid: Vid) -> Option<model::RowRefs<'a>> {
    let t = db.table(&cvd.version_table(vid)).ok()?;
    let width = model::attr_prefix_len(&t.schema, cvd, 0)?;
    let mut out = Vec::with_capacity(t.len());
    for row in t.rows() {
        let Value::Int(rid) = row[0] else { return None };
        out.push((rid, &row[1..1 + width]));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testutil::{commit, make_cvd, record};
    use crate::model::{storage_bytes, ModelKind};

    #[test]
    fn each_version_is_a_table() {
        let (mut db, mut cvd) = make_cvd(ModelKind::TablePerVersion);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("b", 2)],
            &[Vid(1)],
        );
        assert!(db.has_table(&cvd.version_table(Vid(1))));
        assert!(db.has_table(&cvd.version_table(Vid(2))));
    }

    #[test]
    fn storage_grows_with_redundancy() {
        // Committing the identical content repeatedly doubles storage each
        // time — the 10× blow-up of Figure 3a in miniature.
        let (mut db, mut cvd) = make_cvd(ModelKind::TablePerVersion);
        commit(&mut db, &mut cvd, &[record("a", 1), record("b", 2)], &[]);
        let s1 = storage_bytes(&db, &cvd);
        commit(
            &mut db,
            &mut cvd,
            &[record("a", 1), record("b", 2)],
            &[Vid(1)],
        );
        let s2 = storage_bytes(&db, &cvd);
        assert!(s2 >= 2 * s1 - 16, "s1={s1} s2={s2}");
    }

    #[test]
    fn checkout_copies_one_table() {
        let (mut db, mut cvd) = make_cvd(ModelKind::TablePerVersion);
        commit(&mut db, &mut cvd, &[record("a", 1)], &[]);
        checkout(&mut db, &cvd, Vid(1), "t1").unwrap();
        let r = db.query("SELECT name, score FROM t1").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(model::version_rows(&mut db, &cvd, Vid(1)).unwrap().len(), 1);
        // Fast read equals the SELECT * formulation, row for row.
        let fast: Vec<(i64, Vec<Value>)> = version_row_refs(&db, &cvd, Vid(1))
            .expect("fast path ready")
            .into_iter()
            .map(|(r, vals)| (r, vals.to_vec()))
            .collect();
        assert_eq!(fast, version_rows_sql(&mut db, &cvd, Vid(1)).unwrap());
    }
}

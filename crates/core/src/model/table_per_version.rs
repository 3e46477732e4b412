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

/// The Table 1 checkout: a plain table copy.
pub fn checkout_sql(cvd: &Cvd, vid: Vid, target: &str) -> String {
    format!("SELECT * INTO {target} FROM {}", cvd.version_table(vid))
}

/// The Table 1 read formulation, executed through the SQL layer.
pub fn version_rows_sql(db: &mut Database, cvd: &Cvd, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
    let r = db.query(&format!("SELECT * FROM {}", cvd.version_table(vid)))?;
    rows_to_records(r.rows)
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
        model::checkout_into(&mut db, &cvd, Vid(1), "t1").unwrap();
        let r = db.query("SELECT name, score FROM t1").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(model::version_rows(&db, &cvd, Vid(1)).unwrap().len(), 1);
        // Fast read equals the SELECT * formulation, row for row.
        let fast = model::version_rows(&db, &cvd, Vid(1)).unwrap();
        assert_eq!(fast, version_rows_sql(&mut db, &cvd, Vid(1)).unwrap());
    }
}

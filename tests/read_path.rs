//! Every runtime read takes the record-access path, for all five
//! `ModelKind`s and through schema evolution: after a history with an
//! `ADD COLUMN` commit, each version's checkout, `version_rows`, a merged
//! checkout, a diff and a commit run no SQL scan (`rows_scanned` does not
//! move), and what they read equals the Table 1 SQL spec — before and
//! after a snapshot round trip. A combined table keeps `vlist` last
//! through the evolution, so its reads stay O(|version|), not O(|R|).

use orpheusdb::core::model::{self, ModelKind};
use orpheusdb::prelude::*;

const CVD: &str = "prot";

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("protein1", DataType::Text),
        Column::new("protein2", DataType::Text),
        Column::new("score", DataType::Int),
    ])
    .with_primary_key(&["protein1", "protein2"])
    .unwrap()
}

fn rows() -> Vec<Vec<Value>> {
    (0..12)
        .map(|i| {
            vec![
                Value::Text(format!("p{i}")),
                Value::Text(format!("q{i}")),
                Value::Int(i * 10),
            ]
        })
        .collect()
}

/// Edits, deletes, inserts, a branch, a two-parent merge, then a commit
/// that adds a column: five versions, the last one a schema evolution.
fn evolved_history(model: ModelKind) -> OrpheusDB {
    let mut odb = OrpheusDB::new();
    odb.init_cvd(CVD, schema(), rows(), Some(model)).unwrap();
    odb.checkout(CVD, &[Vid(1)], "w2").unwrap();
    odb.engine
        .execute("UPDATE w2 SET score = 999 WHERE protein1 = 'p1'")
        .unwrap();
    odb.engine
        .execute("DELETE FROM w2 WHERE protein1 = 'p2'")
        .unwrap();
    odb.engine
        .execute("INSERT INTO w2 VALUES (NULL, 'n1', 'm1', 5)")
        .unwrap();
    odb.commit("w2", "edit").unwrap();
    odb.checkout(CVD, &[Vid(1)], "w3").unwrap();
    odb.engine
        .execute("INSERT INTO w3 VALUES (NULL, 'n2', 'm2', 6)")
        .unwrap();
    odb.commit("w3", "branch").unwrap();
    odb.checkout(CVD, &[Vid(2), Vid(3)], "w4").unwrap();
    odb.commit("w4", "merge").unwrap();
    odb.checkout(CVD, &[Vid(4)], "evo").unwrap();
    odb.engine
        .execute("ALTER TABLE evo ADD COLUMN extra INT")
        .unwrap();
    odb.engine
        .execute("UPDATE evo SET extra = 1 WHERE protein1 = 'p3'")
        .unwrap();
    odb.commit("evo", "evolve").unwrap();
    odb
}

fn sorted_rows(mut rows: Vec<(i64, Vec<Value>)>) -> Vec<(i64, Vec<Value>)> {
    rows.sort_by_key(|(rid, _)| *rid);
    rows
}

fn table_rows_by_rid(odb: &mut OrpheusDB, table: &str) -> Vec<Vec<Value>> {
    odb.engine
        .query(&format!("SELECT * FROM {table} ORDER BY rid"))
        .unwrap()
        .rows
}

/// Run `read` and fail if it moved the engine's sequential-scan counter.
fn scans_nothing<T>(odb: &mut OrpheusDB, what: &str, read: impl FnOnce(&mut OrpheusDB) -> T) -> T {
    let before = odb.engine.stats.rows_scanned();
    let out = read(odb);
    assert_eq!(
        odb.engine.stats.rows_scanned(),
        before,
        "{what} ran a sequential scan"
    );
    out
}

/// Every version reads without a scan and as the spec does; so do a merged
/// checkout, a diff and an identity commit of the newest version.
fn assert_reads_walk(odb: &mut OrpheusDB, what: &str) {
    let cvd = odb.cvd(CVD).unwrap().clone();
    let versions = cvd.num_versions() as u64;
    for v in 1..=versions {
        let at = format!("{what} v{v}");
        let rows = scans_nothing(odb, &at, |odb| odb.version_rows(CVD, Vid(v)).unwrap());
        assert!(model::fast_path_ready(&odb.engine, &cvd, Vid(v)), "{at}");
        let spec = model::version_rows_sql(&mut odb.engine, &cvd, Vid(v)).unwrap();
        assert_eq!(sorted_rows(rows), sorted_rows(spec), "{at}");

        let (walk_t, spec_t) = (format!("walk_{v}"), format!("spec_{v}"));
        scans_nothing(odb, &at, |odb| {
            odb.checkout(CVD, &[Vid(v)], &walk_t).unwrap()
        });
        model::checkout_into_sql(&mut odb.engine, &cvd, Vid(v), &spec_t).unwrap();
        assert_eq!(
            table_rows_by_rid(odb, &walk_t),
            table_rows_by_rid(odb, &spec_t),
            "{at}"
        );
        odb.discard(&walk_t).unwrap();
        odb.engine.drop_table(&spec_t).unwrap();
    }
    scans_nothing(odb, what, |odb| {
        odb.checkout(CVD, &[Vid(versions), Vid(1)], "merged")
            .unwrap();
        odb.diff(CVD, Vid(1), Vid(versions)).unwrap();
        odb.checkout(CVD, &[Vid(versions)], "idem").unwrap();
        let next = odb.commit("idem", "identity").unwrap();
        let cvd = odb.cvd(CVD).unwrap();
        assert_eq!(
            cvd.rids_of(next).unwrap(),
            cvd.rids_of(Vid(versions)).unwrap()
        );
    });
    odb.discard("merged").unwrap();
}

#[test]
fn evolved_reads_take_the_walk_for_every_model() {
    for model in ModelKind::ALL {
        let mut odb = evolved_history(model);
        assert_reads_walk(&mut odb, model.name());
    }
}

#[test]
fn evolved_reads_take_the_walk_after_a_snapshot_reload() {
    let dir = std::env::temp_dir().join(format!("orpheus-read-path-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for model in ModelKind::ALL {
        let path = dir.join(format!("{}.snap", model.name()));
        evolved_history(model).save_to(&path).unwrap();
        let mut again = OrpheusDB::load_from(&path).unwrap();
        assert_reads_walk(&mut again, &format!("{} reloaded", model.name()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_combined_table_keeps_vlist_last_through_evolution() {
    let odb = evolved_history(ModelKind::CombinedTable);
    let cvd = odb.cvd(CVD).unwrap();
    let table = odb.engine.table(&cvd.combined_table()).unwrap();
    let names: Vec<&str> = table
        .schema
        .columns
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(
        names,
        ["rid", "protein1", "protein2", "score", "extra", "vlist"]
    );
    assert_eq!(*table.schema, model::combined::physical_schema(cvd));
}

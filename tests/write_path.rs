//! The write path stores what was staged. A commit hands the engine the
//! `Value`s of the staged rows; it used to render them as `INSERT` text and
//! parse that back, which refused `NaN` and `±inf` (read back as column
//! names) and `i64::MIN` (out of range as a positive literal) even though
//! `init` stored them. Every data model, both commit flavours, and the WAL
//! replay of the commit must give back the very bits that went in.

use std::path::{Path, PathBuf};

use orpheusdb::core::{model, recovery};
use orpheusdb::prelude::*;

const CVD: &str = "vals";

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("d", DataType::Double),
        Column::new("i", DataType::Int),
    ])
}

/// `(id, d, i)` of the records both flavours commit: every double and
/// integer a text round trip gets wrong.
const EDGES: [(i64, f64, i64); 4] = [
    (1, f64::NAN, i64::MIN),
    (2, f64::INFINITY, i64::MAX),
    (3, f64::NEG_INFINITY, 0),
    (4, -0.0, -1),
];

/// What `init -f` reads; the same values as [`EDGES`].
const INIT_CSV: &str = "id,d,i\n\
                        1,NaN,-9223372036854775808\n\
                        2,inf,9223372036854775807\n\
                        3,-inf,0\n\
                        4,-0.0,-1\n";

/// Bit patterns, so `NaN` equals itself and `-0.0` differs from `0.0`.
fn bits(id: i64, d: f64, i: i64) -> (i64, u64, i64) {
    (id, d.to_bits(), i)
}

/// The records of `vid`, as bit patterns sorted by id.
fn stored(odb: &mut OrpheusDB, vid: Vid) -> Vec<(i64, u64, i64)> {
    let cvd = odb.cvd(CVD).expect("cvd exists").clone();
    let mut out: Vec<(i64, u64, i64)> = model::version_rows(&mut odb.engine, &cvd, vid)
        .expect("version rows")
        .into_iter()
        .map(|(_, values)| match values.as_slice() {
            [Value::Int(id), Value::Double(d), Value::Int(i)] => bits(*id, *d, *i),
            other => panic!("unexpected record {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

fn tmp_dir(tag: &str, model: ModelKind) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "orpheus-writepath-{tag}-{}-{}",
        model.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Under a WAL in `dir`: `stage_and_commit` creates version 1 and commits
/// version 2, whose records must read back as `expected` — live, and again
/// after a reopen has replayed the log.
fn assert_committed_bit_identical(
    dir: &Path,
    model: ModelKind,
    expected: &[(i64, u64, i64)],
    stage_and_commit: impl FnOnce(&mut OrpheusDB) -> Vid,
) {
    let name = model.name();
    let mut odb = recovery::open(dir).expect("open");
    let vid = stage_and_commit(&mut odb);
    assert_eq!(vid, Vid(2), "{name}");
    assert_eq!(stored(&mut odb, vid), expected, "{name}: live");
    drop(odb);

    let mut again = recovery::open(dir).expect("reopen");
    assert_eq!(again.cvd(CVD).unwrap().num_versions(), 2, "{name}");
    assert_eq!(stored(&mut again, vid), expected, "{name}: replayed");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_staged_table_commits_its_values_bit_identical_on_every_model() {
    // The staged edit shifts every id, so each record is a new one and
    // goes through the model's insert path, not the kept-rid path.
    let expected: Vec<(i64, u64, i64)> = EDGES
        .iter()
        .map(|&(id, d, i)| bits(id + 10, d, i))
        .collect();
    for model in ModelKind::ALL {
        let dir = tmp_dir("staged", model);
        assert_committed_bit_identical(&dir, model, &expected, |odb| {
            let rows = EDGES
                .iter()
                .map(|&(id, d, i)| vec![Value::Int(id), Value::Double(d), Value::Int(i)])
                .collect();
            odb.init_cvd(CVD, schema(), rows, Some(model))
                .expect("init");
            odb.checkout(CVD, &[Vid(1)], "work").expect("checkout");
            odb.run("UPDATE work SET id = id + 10").expect("edit");
            odb.commit("work", "shift ids").expect("commit")
        });
    }
}

#[test]
fn a_csv_commit_stores_what_init_accepted_on_every_model() {
    // The text `init -f` accepted, with an empty `rid` column: every row
    // is a new record.
    let commit_csv: String = INIT_CSV.lines().map(|line| format!(",{line}\n")).collect();
    let commit_csv = format!("rid{commit_csv}");
    let expected: Vec<(i64, u64, i64)> = EDGES.iter().map(|&(id, d, i)| bits(id, d, i)).collect();
    for model in ModelKind::ALL {
        let dir = tmp_dir("csv", model);
        assert_committed_bit_identical(&dir, model, &expected, |odb| {
            odb.init_cvd_from_csv(CVD, INIT_CSV, schema(), Some(model))
                .expect("init -f");
            odb.checkout_csv(CVD, &[Vid(1)], "vals.csv")
                .expect("checkout -f");
            odb.commit_csv("vals.csv", &commit_csv, "csv round trip", None)
                .expect("commit -f")
        });
    }
}

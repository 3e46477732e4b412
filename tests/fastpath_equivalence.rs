//! The record-access fast path must be invisible: checkout, commit, and
//! diff must produce identical version graphs, rlists, and materialized
//! rows whether versions are read through the rid-index fast path or the
//! retained Table 1 SQL formulation — for all five `ModelKind`s,
//! partitioned CVDs (`optimize` run), and multi-version merge checkouts.
//! Versioned queries (`VERSION v OF CVD`) must answer, row for row and in
//! the same order, what the Table 1 join they used to translate to does.

use orpheusdb::bench::differential::{replay, Ctx, CVD};
use orpheusdb::bench::generator::{HistoryGen, HistoryParams};
use orpheusdb::core::model::{self, ModelKind};
use orpheusdb::core::persist;
use orpheusdb::prelude::*;

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

/// Build a history through the public API: edits, deletes, inserts, and a
/// two-parent merge — the shapes the fast path has to get right.
fn build_history(model: ModelKind) -> OrpheusDB {
    let mut odb = OrpheusDB::new();
    odb.init_cvd("prot", schema(), rows(), Some(model)).unwrap();
    // v2: update one record, delete one, insert one.
    odb.checkout("prot", &[Vid(1)], "w2").unwrap();
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
    // v3: branch from v1 again.
    odb.checkout("prot", &[Vid(1)], "w3").unwrap();
    odb.engine
        .execute("INSERT INTO w3 VALUES (NULL, 'n2', 'm2', 6)")
        .unwrap();
    odb.commit("w3", "branch").unwrap();
    // v4: merge checkout of v2 and v3 (v2's records win PK conflicts).
    odb.checkout("prot", &[Vid(2), Vid(3)], "w4").unwrap();
    odb.commit("w4", "merge").unwrap();
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

#[test]
fn version_rows_match_sql_for_all_models_and_versions() {
    for model in ModelKind::ALL {
        let mut odb = build_history(model);
        let versions = odb.cvd("prot").unwrap().num_versions();
        for v in 1..=versions as u64 {
            let cvd = odb.cvd("prot").unwrap().clone();
            assert!(
                model::version_readable(&odb.engine, &cvd, Vid(v)),
                "{} v{v} should be fast-readable",
                model.name()
            );
            let fast = sorted_rows(model::version_rows(&odb.engine, &cvd, Vid(v)).unwrap());
            let sql = sorted_rows(model::version_rows_sql(&mut odb.engine, &cvd, Vid(v)).unwrap());
            assert_eq!(fast, sql, "{} v{v}", model.name());
            // The rids agree with the version manager's sorted rlist.
            let rids: Vec<i64> = fast.iter().map(|(r, _)| *r).collect();
            assert_eq!(rids, cvd.rids_of(Vid(v)).unwrap(), "{} v{v}", model.name());
        }
    }
}

#[test]
fn checkout_tables_match_sql_formulation() {
    for model in ModelKind::ALL {
        let mut odb = build_history(model);
        let versions = odb.cvd("prot").unwrap().num_versions();
        for v in 1..=versions as u64 {
            let cvd = odb.cvd("prot").unwrap().clone();
            let fast_t = format!("fast_{v}");
            let sql_t = format!("sql_{v}");
            model::checkout_into(&mut odb.engine, &cvd, Vid(v), &fast_t).unwrap();
            model::checkout_into_sql(&mut odb.engine, &cvd, Vid(v), &sql_t).unwrap();
            assert_eq!(
                table_rows_by_rid(&mut odb, &fast_t),
                table_rows_by_rid(&mut odb, &sql_t),
                "{} v{v}",
                model.name()
            );
        }
    }
}

#[test]
fn version_graphs_agree_across_all_models() {
    // The same edit script must commit identical graphs whatever the model
    // (and therefore whichever read path its commits classified against).
    let reference: Vec<_> = {
        let odb = build_history(ModelKind::SplitByRlist);
        let cvd = odb.cvd("prot").unwrap();
        cvd.versions
            .iter()
            .map(|m| {
                (
                    m.vid,
                    m.parents.clone(),
                    m.parent_weights.clone(),
                    m.num_records,
                )
            })
            .collect()
    };
    for model in ModelKind::ALL {
        let odb = build_history(model);
        let cvd = odb.cvd("prot").unwrap();
        let got: Vec<_> = cvd
            .versions
            .iter()
            .map(|m| {
                (
                    m.vid,
                    m.parents.clone(),
                    m.parent_weights.clone(),
                    m.num_records,
                )
            })
            .collect();
        assert_eq!(got, reference, "{}", model.name());
        // rlists are identical too (same rid allocation order).
        assert_eq!(
            cvd.version_rids,
            build_history(ModelKind::SplitByRlist)
                .cvd("prot")
                .unwrap()
                .version_rids,
            "{}",
            model.name()
        );
    }
}

#[test]
fn merge_checkout_precedence_is_first_listed_wins() {
    for model in ModelKind::ALL {
        let mut odb = build_history(model);
        // v2 changed p1's score to 999; v1 still has 10. Listing v2 first
        // must keep 999, listing v1 first must keep 10.
        odb.checkout("prot", &[Vid(2), Vid(1)], "m21").unwrap();
        let r = odb
            .engine
            .query("SELECT score FROM m21 WHERE protein1 = 'p1'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(999)]], "{}", model.name());
        odb.checkout("prot", &[Vid(1), Vid(2)], "m12").unwrap();
        let r = odb
            .engine
            .query("SELECT score FROM m12 WHERE protein1 = 'p1'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(10)]], "{}", model.name());
        // And the merge matches a manual first-wins dedup over the SQL
        // formulation's rows.
        let cvd = odb.cvd("prot").unwrap().clone();
        let mut expect: Vec<(i64, Vec<Value>)> = Vec::new();
        let mut seen_pk: std::collections::HashSet<(Value, Value)> = Default::default();
        for v in [Vid(2), Vid(1)] {
            for (rid, vals) in model::version_rows_sql(&mut odb.engine, &cvd, v).unwrap() {
                if seen_pk.insert((vals[0].clone(), vals[1].clone())) {
                    expect.push((rid, vals));
                }
            }
        }
        let expect = sorted_rows(expect);
        let got: Vec<(i64, Vec<Value>)> = table_rows_by_rid(&mut odb, "m21")
            .into_iter()
            .map(|mut row| {
                let vals = row.split_off(1);
                let Value::Int(rid) = row[0] else { panic!() };
                (rid, vals)
            })
            .collect();
        assert_eq!(got, expect, "{}", model.name());
    }
}

/// A history with the shapes a merged checkout has to get right: v2
/// edits, deletes and inserts; v3 branches from v1 and, without a primary
/// key, keeps one record twice (a duplicated staged row); v4 adds a
/// column on top of v2. A-table-per-version keys its version tables on
/// the rid and refuses the duplicate; [`lists_a_rid_twice`] says where
/// v3 holds it.
fn merge_history(model: ModelKind, with_pk: bool) -> OrpheusDB {
    let mut odb = OrpheusDB::new();
    merge_history_into(&mut odb, model, with_pk);
    odb
}

/// [`merge_history`], built in `odb`.
fn merge_history_into(odb: &mut OrpheusDB, model: ModelKind, with_pk: bool) {
    let mut schema = schema();
    if !with_pk {
        schema.primary_key.clear();
    }
    odb.init_cvd("prot", schema, rows(), Some(model)).unwrap();
    odb.checkout("prot", &[Vid(1)], "w2").unwrap();
    for sql in [
        "UPDATE w2 SET score = 999 WHERE protein1 = 'p1'",
        "DELETE FROM w2 WHERE protein1 = 'p2'",
        "INSERT INTO w2 VALUES (NULL, 'n1', 'm1', 5)",
    ] {
        odb.engine.execute(sql).unwrap();
    }
    odb.commit("w2", "edit").unwrap();
    odb.checkout("prot", &[Vid(1)], "w3").unwrap();
    odb.engine
        .execute("INSERT INTO w3 VALUES (NULL, 'n2', 'm2', 6)")
        .unwrap();
    if lists_a_rid_twice(model, with_pk) {
        odb.engine
            .execute("INSERT INTO w3 SELECT * FROM w3 WHERE protein1 = 'p5'")
            .unwrap();
    }
    odb.commit("w3", "branch").unwrap();
    odb.checkout("prot", &[Vid(2)], "w4").unwrap();
    odb.engine
        .execute("ALTER TABLE w4 ADD COLUMN extra INT")
        .unwrap();
    odb.engine
        .execute("UPDATE w4 SET extra = 1 WHERE protein1 = 'p3'")
        .unwrap();
    odb.commit("w4", "evolve").unwrap();
}

/// Whether [`merge_history`]'s v3 keeps a record twice.
fn lists_a_rid_twice(model: ModelKind, with_pk: bool) -> bool {
    !with_pk && model != ModelKind::TablePerVersion
}

/// The merge of `vids` as a checkout must stage it: each version's
/// records in `version_rows` order, first listed wins a primary key (the
/// rid without one, including a rid a version lists twice), rid first and
/// NULL-padded to the current schema.
fn reference_merge(odb: &mut OrpheusDB, vids: &[Vid]) -> Vec<Vec<Value>> {
    let cvd = odb.cvd("prot").unwrap().clone();
    let pk = &cvd.schema.primary_key;
    let width = 1 + cvd.schema.arity();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for &v in vids {
        for (rid, values) in model::version_rows(&odb.engine, &cvd, v).unwrap() {
            let key: Vec<Value> = if pk.is_empty() {
                vec![Value::Int(rid)]
            } else {
                pk.iter().map(|&c| values[c].clone()).collect()
            };
            if seen.insert(key) {
                let mut row = vec![Value::Int(rid)];
                row.extend(values);
                row.resize(width, Value::Null);
                out.push(row);
            }
        }
    }
    out
}

/// Merged checkouts stage exactly the reference merge, row for row in heap
/// order: 2- and 3-version merges in both precedence orders, across an
/// `ADD COLUMN`, and over a version that lists a rid twice — for all five
/// models, with and without a primary key.
#[test]
fn merged_checkouts_keep_rows_order_and_precedence() {
    let merges: [&[u64]; 7] = [
        &[2, 3],
        &[3, 2],
        &[3, 2, 1],
        &[1, 3, 2],
        &[4, 1],
        &[1, 4],
        &[4, 3, 2],
    ];
    for model in ModelKind::ALL {
        for with_pk in [true, false] {
            let mut odb = merge_history(model, with_pk);
            let what = format!("{} pk={with_pk}", model.name());
            let rids = odb.cvd("prot").unwrap().rids_of(Vid(3)).unwrap();
            assert_eq!(
                rids.windows(2).any(|w| w[0] == w[1]),
                lists_a_rid_twice(model, with_pk),
                "{what}: v3 lists a rid twice"
            );
            for (i, vids) in merges.iter().enumerate() {
                let vids: Vec<Vid> = vids.iter().map(|&v| Vid(v)).collect();
                let table = format!("m{i}");
                odb.checkout("prot", &vids, &table).unwrap();
                let got: Vec<Vec<Value>> = odb
                    .engine
                    .table(&table)
                    .unwrap()
                    .rows()
                    .map(<[_]>::to_vec)
                    .collect();
                let want = reference_merge(&mut odb, &vids);
                assert_eq!(got, want, "{what}: merge of {vids:?}");
                // Value equality lets 1 and 1.0 pass for each other; the
                // staged cells must keep their types too.
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: {vids:?}");
            }
        }
    }
}

/// The rows of staged table `table`, typed: `Value` equality lets 1 and
/// 1.0 pass for each other.
fn staged_rows(odb: &OrpheusDB, table: &str) -> String {
    let rows: Vec<&[Value]> = odb.engine.table(table).unwrap().rows().collect();
    format!("{rows:?}")
}

/// A merged checkout on a layout that reads every version from one
/// rid-indexed table (split-by-rlist, a partitioned one included,
/// split-by-vlist, combined) is a selection of that table's slots, and
/// must stand for the copy of the merge it replaced — a table of the
/// staged schema holding the reference merge's rows. While it is live,
/// another commit appends records to the table it selects from and
/// widens that table (`ADD COLUMN`): the checkout still reads exactly the
/// merge it took, as does a snapshot reloaded from the instance. Then a
/// `DELETE` and an `INSERT` on it commit the version that the same edit
/// of the copy commits. With and without a primary key.
#[test]
fn a_merged_checkout_reads_and_commits_as_the_copy_it_stands_for() {
    let layouts = [
        (ModelKind::SplitByRlist, false),
        (ModelKind::SplitByRlist, true),
        (ModelKind::SplitByVlist, false),
        (ModelKind::CombinedTable, false),
    ];
    let vids = [Vid(3), Vid(4)];
    for (model, partitioned) in layouts {
        for with_pk in [true, false] {
            let what = format!("{} partitioned={partitioned} pk={with_pk}", model.name());
            // One history twice: `odb` stages the merge itself, `copy`
            // stages the reference merge's rows as a copy.
            let [mut odb, mut copy] = [(); 2].map(|()| {
                let mut odb = merge_history(model, with_pk);
                if partitioned {
                    odb.optimize("prot").unwrap();
                }
                odb
            });
            odb.checkout("prot", &vids, "m").unwrap();
            let want = reference_merge(&mut odb, &vids);
            let schema = odb.cvd("prot").unwrap().staged_schema();
            assert_eq!(*odb.engine.table("m").unwrap().schema, schema, "{what}");
            copy.checkout("prot", &vids, "m").unwrap();
            copy.engine.drop_table("m").unwrap();
            copy.engine.create_table("m", schema).unwrap();
            let staged = copy.engine.table_mut("m").unwrap();
            staged.insert_many(want.iter().map(Vec::as_slice)).unwrap();
            let want = format!("{:?}", want.iter().map(Vec::as_slice).collect::<Vec<_>>());
            assert_eq!(staged_rows(&odb, "m"), want, "{what}: as taken");
            for odb in [&mut odb, &mut copy] {
                odb.checkout("prot", &[Vid(2)], "w5").unwrap();
                for sql in [
                    "INSERT INTO w5 VALUES (NULL, 'n5', 'm5', 50, 5)",
                    "INSERT INTO w5 VALUES (NULL, 'n6', 'm6', 60, 6)",
                    "ALTER TABLE w5 ADD COLUMN later INT",
                ] {
                    odb.engine.execute(sql).unwrap();
                }
                assert_eq!(odb.commit("w5", "append and widen").unwrap(), Vid(5));
            }
            assert_eq!(staged_rows(&odb, "m"), want, "{what}: after a commit");
            let reloaded = persist::deserialize(&persist::serialize(&odb)).unwrap();
            assert_eq!(staged_rows(&reloaded, "m"), want, "{what}: reloaded");
            for odb in [&mut odb, &mut copy] {
                for sql in [
                    "DELETE FROM m WHERE protein1 = 'p4'",
                    "INSERT INTO m VALUES (NULL, 'n9', 'm9', 90, 9)",
                ] {
                    odb.engine.execute(sql).unwrap();
                }
                assert_eq!(odb.commit("m", "edit the merge").unwrap(), Vid(6));
            }
            let version = |odb: &OrpheusDB| {
                let cvd = odb.cvd("prot").unwrap();
                let meta = cvd.meta(Vid(6)).unwrap();
                let rows = model::version_rows(&odb.engine, cvd, Vid(6)).unwrap();
                format!(
                    "{:?} {:?} {rows:?}",
                    meta.parents,
                    cvd.rids_of(Vid(6)).unwrap()
                )
            };
            assert_eq!(version(&odb), version(&copy), "{what}: the committed merge");
        }
    }
}

/// `vid` of the CVD `prot` as its parents, rlist and records.
fn committed(odb: &OrpheusDB, vid: Vid) -> String {
    let cvd = odb.cvd("prot").unwrap();
    let meta = cvd.meta(vid).unwrap();
    let rows = model::version_rows(&odb.engine, cvd, vid).unwrap();
    format!(
        "{:?} {:?} {rows:?}",
        meta.parents,
        cvd.rids_of(vid).unwrap()
    )
}

/// Replace the staged table `table` by a table of the same schema that
/// stores the same rows: the copy a checkout stood for before staged
/// tables were overlays.
fn store_staged(odb: &mut OrpheusDB, table: &str) {
    let staged = odb.engine.table(table).unwrap();
    let schema = (*staged.schema).clone();
    let rows: Vec<Vec<Value>> = staged.rows().map(<[Value]>::to_vec).collect();
    odb.engine.drop_table(table).unwrap();
    odb.engine.create_table(table, schema).unwrap();
    let copy = odb.engine.table_mut(table).unwrap();
    copy.insert_many(rows.iter().map(Vec::as_slice)).unwrap();
    assert!(copy.overlay_rows().is_none());
}

/// A commit of a staged overlay keeps its unwritten rows by their rids and
/// classifies only the rows it wrote; it must publish exactly the version
/// the same edits of the stored copy publish, whose every row is compared
/// with its parent record. For all five models (a-table-per-version stages
/// an overlay of its version table, delta a stored table), with and
/// without a primary key, on a history that widened the schema: edits
/// that delete, insert, update, and update a row back to its values (it
/// keeps its rid), then the same after an `ADD COLUMN`. The instance is a
/// snapshot round trip of one opened on a write-ahead log, and its commits
/// replay from that log to the same versions. A written row whose key an
/// unwritten one holds is refused with the copy's error, and the table
/// stays staged.
#[test]
fn an_overlay_commit_publishes_the_version_its_copy_commits() {
    let edits: [&[&str]; 2] = [
        &[
            "DELETE FROM w WHERE protein1 = 'p4'",
            "INSERT INTO w VALUES (NULL, 'n7', 'm7', 70, 7)",
            "UPDATE w SET score = 61 WHERE protein1 = 'p6'",
            "UPDATE w SET score = 60 WHERE protein1 = 'p6'",
            "UPDATE w SET extra = 8 WHERE protein1 = 'p8'",
        ],
        &[
            "ALTER TABLE w ADD COLUMN z INT",
            "UPDATE w SET z = 9 WHERE protein1 = 'p9'",
            "INSERT INTO w VALUES (NULL, 'n8', 'm8', 80, 8, 88)",
            "DELETE FROM w WHERE protein1 = 'p7'",
        ],
    ];
    for model in ModelKind::ALL {
        for with_pk in [true, false] {
            let what = format!("{} pk={with_pk}", model.name());
            let dir = std::env::temp_dir().join(format!(
                "orpheus-overlay-commit-{}-{with_pk}-{}",
                model.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut logged = orpheusdb::core::recovery::open(&dir).unwrap();
            merge_history_into(&mut logged, model, with_pk);
            let mut copy = persist::deserialize(&persist::serialize(&logged)).unwrap();
            let mut odb = persist::deserialize(&persist::serialize(&logged)).unwrap();
            for (round, edits) in edits.iter().enumerate() {
                let vid = Vid(5 + round as u64);
                for (odb, stored) in [(&mut logged, false), (&mut odb, false), (&mut copy, true)] {
                    odb.checkout("prot", &[Vid(4)], "w").unwrap();
                    if stored {
                        store_staged(odb, "w");
                    }
                    for sql in *edits {
                        odb.engine.execute(sql).unwrap();
                    }
                    assert_eq!(odb.commit("w", "edit").unwrap(), vid, "{what}");
                }
                assert_eq!(committed(&odb, vid), committed(&copy, vid), "{what}: {vid}");
                assert_eq!(
                    committed(&logged, vid),
                    committed(&copy, vid),
                    "{what}: {vid}"
                );
            }
            // The row updated back to its values kept its rid.
            let cvd = copy.cvd("prot").unwrap();
            let rid_of = |vid: Vid| {
                let rows = model::version_rows(&copy.engine, cvd, vid).unwrap();
                rows.iter().find(|(_, r)| r[0] == "p6".into()).unwrap().0
            };
            assert_eq!(rid_of(Vid(5)), rid_of(Vid(4)), "{what}: an update undone");
            drop(logged);
            let replayed = orpheusdb::core::recovery::open(&dir).unwrap();
            for vid in [Vid(5), Vid(6)] {
                assert_eq!(
                    committed(&replayed, vid),
                    committed(&copy, vid),
                    "{what}: replayed"
                );
            }
            drop(replayed);
            let _ = std::fs::remove_dir_all(&dir);
            if !with_pk {
                continue;
            }
            let refused: Vec<String> = [(&mut odb, false), (&mut copy, true)]
                .into_iter()
                .map(|(odb, stored)| {
                    odb.checkout("prot", &[Vid(6)], "d").unwrap();
                    if stored {
                        store_staged(odb, "d");
                    }
                    odb.engine
                        .execute("INSERT INTO d VALUES (NULL, 'p5', 'q5', 1, 1, 1)")
                        .unwrap();
                    let err = odb.commit("d", "duplicate").unwrap_err().to_string();
                    assert!(odb.engine.has_table("d"), "{what}: the table stays staged");
                    err
                })
                .collect();
            assert!(
                refused[0].contains("duplicate key"),
                "{what}: {}",
                refused[0]
            );
            assert_eq!(refused[0], refused[1], "{what}");
        }
    }
}

/// A diff keeps each side's records whose rid the other side lacks, as
/// `version_rows` lists them: in rlist order, a rid listed twice kept
/// twice — for every ordered pair of versions, across an `ADD COLUMN`, for
/// all five models, with and without a primary key.
#[test]
fn diffs_keep_rlist_order_and_multiplicity() {
    for model in ModelKind::ALL {
        for with_pk in [true, false] {
            let mut odb = merge_history(model, with_pk);
            // v5 drops the record v3 lists twice.
            odb.checkout("prot", &[Vid(2)], "w5").unwrap();
            odb.engine
                .execute("DELETE FROM w5 WHERE protein1 = 'p5'")
                .unwrap();
            odb.commit("w5", "drop p5").unwrap();
            if model == ModelKind::SplitByRlist && !with_pk {
                let twice = odb.diff("prot", Vid(3), Vid(5)).unwrap().only_in_first;
                let p5 = Value::Text("p5".into());
                assert_eq!(twice.iter().filter(|row| row[0] == p5).count(), 2);
            }
            let cvd = odb.cvd("prot").unwrap().clone();
            let reference = |odb: &mut OrpheusDB, a: u64, b: u64| -> Vec<Vec<Value>> {
                let other = cvd.rids_of(Vid(b)).unwrap();
                model::version_rows(&odb.engine, &cvd, Vid(a))
                    .unwrap()
                    .into_iter()
                    .filter(|(rid, _)| !other.contains(rid))
                    .map(|(_, values)| values)
                    .collect()
            };
            for a in 1..=5 {
                for b in 1..=5 {
                    let d = odb.diff("prot", Vid(a), Vid(b)).unwrap();
                    let want = (reference(&mut odb, a, b), reference(&mut odb, b, a));
                    assert_eq!(
                        format!("{:?}", (&d.only_in_first, &d.only_in_second)),
                        format!("{:?}", (&want.0, &want.1)),
                        "{} pk={with_pk}: diff v{a} v{b}",
                        model.name()
                    );
                }
            }
        }
    }
}

#[test]
fn partitioned_checkout_matches_sql_and_unpartitioned() {
    let mut odb = build_history(ModelKind::SplitByRlist);
    let mut plain = build_history(ModelKind::SplitByRlist);
    odb.optimize("prot").unwrap();
    let versions = odb.cvd("prot").unwrap().num_versions();
    for v in 1..=versions as u64 {
        let cvd = odb.cvd("prot").unwrap().clone();
        // Partitioned fast path (what `checkout` routes to)...
        let part_t = format!("part_{v}");
        odb.checkout("prot", &[Vid(v)], &part_t).unwrap();
        // ...against its partition's Table 1 statement and the same
        // version of an instance that never ran `optimize`.
        let model_t = format!("model_{v}");
        model::checkout_into_sql(&mut odb.engine, &cvd, Vid(v), &model_t).unwrap();
        assert_eq!(
            table_rows_by_rid(&mut odb, &part_t),
            table_rows_by_rid(&mut odb, &model_t),
            "v{v}"
        );
        plain.checkout("prot", &[Vid(v)], &part_t).unwrap();
        assert_eq!(
            table_rows_by_rid(&mut odb, &part_t),
            table_rows_by_rid(&mut plain, &part_t),
            "v{v} against the unpartitioned instance"
        );
        odb.discard(&part_t).unwrap();
    }
    // Committing on the partitioned layout keeps the graphs identical to
    // the unpartitioned instance driven by the same script.
    odb.checkout("prot", &[Vid(4)], "w5").unwrap();
    odb.engine
        .execute("INSERT INTO w5 VALUES (NULL, 'n3', 'm3', 7)")
        .unwrap();
    odb.commit("w5", "post-optimize").unwrap();
    let cvd = odb.cvd("prot").unwrap();
    assert_eq!(cvd.num_versions(), 5);
    assert_eq!(
        cvd.version_rids.iter().take(4).collect::<Vec<_>>(),
        plain
            .cvd("prot")
            .unwrap()
            .version_rids
            .iter()
            .collect::<Vec<_>>()
    );
}

#[test]
fn schema_evolution_keeps_fast_and_sql_paths_equal() {
    for model in ModelKind::ALL {
        let mut odb = build_history(model);
        odb.checkout("prot", &[Vid(4)], "evo").unwrap();
        odb.engine
            .execute("ALTER TABLE evo ADD COLUMN extra INT")
            .unwrap();
        odb.engine
            .execute("UPDATE evo SET extra = 1 WHERE protein1 = 'p3'")
            .unwrap();
        odb.commit("evo", "evolve").unwrap();
        let versions = odb.cvd("prot").unwrap().num_versions() as u64;
        for v in 1..=versions {
            let cvd = odb.cvd("prot").unwrap().clone();
            let fast = sorted_rows(model::version_rows(&odb.engine, &cvd, Vid(v)).unwrap());
            let sql = sorted_rows(model::version_rows_sql(&mut odb.engine, &cvd, Vid(v)).unwrap());
            assert_eq!(fast, sql, "{} v{v} after evolution", model.name());
        }
        // An identity re-commit after evolution must keep every record
        // (null-extended comparison): no fresh rids.
        let before = odb.cvd("prot").unwrap().next_rid;
        odb.checkout("prot", &[Vid(versions)], "idem").unwrap();
        let v_next = odb.commit("idem", "identity").unwrap();
        let cvd = odb.cvd("prot").unwrap();
        assert_eq!(
            cvd.rids_of(v_next).unwrap(),
            cvd.rids_of(Vid(versions)).unwrap(),
            "{}",
            model.name()
        );
        assert_eq!(cvd.next_rid, before, "{}", model.name());
    }
}

/// `init` → one commit → (optionally) `optimize` → `ADD COLUMN` commit →
/// `INT → DOUBLE` commit. `partition` is the (γ factor, µ) to optimize
/// with; `None` leaves the CVD unpartitioned — the reference.
fn evolved_after_optimize(partition: Option<(f64, f64)>) -> OrpheusDB {
    let mut odb = OrpheusDB::new();
    odb.init_cvd("prot", schema(), rows(), Some(ModelKind::SplitByRlist))
        .unwrap();
    odb.checkout("prot", &[Vid(1)], "w2").unwrap();
    odb.engine
        .execute("INSERT INTO w2 VALUES (NULL, 'n1', 'm1', 5)")
        .unwrap();
    odb.commit("w2", "grow").unwrap();
    if let Some((gamma, mu)) = partition {
        odb.optimize_with("prot", gamma, mu).unwrap();
    }
    odb.checkout("prot", &[Vid(2)], "evo").unwrap();
    odb.engine
        .execute("ALTER TABLE evo ADD COLUMN extra INT")
        .unwrap();
    odb.engine
        .execute("UPDATE evo SET extra = 1 WHERE protein1 = 'p3'")
        .unwrap();
    odb.commit("evo", "add a column").unwrap();
    odb.checkout("prot", &[Vid(3)], "wide").unwrap();
    odb.engine
        .execute("ALTER TABLE wide ALTER COLUMN score TYPE DOUBLE")
        .unwrap();
    odb.engine
        .execute("UPDATE wide SET score = 0.5 WHERE protein1 = 'p4'")
        .unwrap();
    odb.commit("wide", "widen a column").unwrap();
    odb
}

/// Schema evolution on a partitioned CVD: the partition data tables are
/// widened and retyped with the global one, whether the evolved version
/// opens a partition of its own (default γ) or joins its parent's (γ = 1,
/// no storage slack), so every version checks out and answers versioned
/// queries exactly as it does unpartitioned.
#[test]
fn schema_evolution_reaches_the_partitions() {
    let mut plain = evolved_after_optimize(None);
    for (gamma, mu) in [(2.0, 1.5), (1.0, 100.0)] {
        let mut parted = evolved_after_optimize(Some((gamma, mu)));
        assert!(parted.cvd("prot").unwrap().partition.is_some());
        assert_eq!(parted.cvd("prot").unwrap().num_versions(), 4);
        for v in 1..=4u64 {
            let checked_out = |odb: &mut OrpheusDB| {
                odb.checkout("prot", &[Vid(v)], "t").unwrap();
                let q = odb.engine.query("SELECT * FROM t ORDER BY rid").unwrap();
                odb.discard("t").unwrap();
                (q.schema.columns.len(), q.rows)
            };
            assert_eq!(
                checked_out(&mut parted),
                checked_out(&mut plain),
                "γ={gamma}: checkout of v{v}"
            );
            for predicate in ["extra = 1", "score > 0.4 AND score < 0.6"] {
                let sql = format!("SELECT count(*) FROM VERSION {v} OF CVD prot WHERE {predicate}");
                assert_eq!(
                    parted.run(&sql).unwrap().rows,
                    plain.run(&sql).unwrap().rows,
                    "γ={gamma}: {sql}"
                );
            }
            let cvd = parted.cvd("prot").unwrap().clone();
            let fast = sorted_rows(model::version_rows(&parted.engine, &cvd, Vid(v)).unwrap());
            let sql =
                sorted_rows(model::version_rows_sql(&mut parted.engine, &cvd, Vid(v)).unwrap());
            assert_eq!(
                fast, sql,
                "γ={gamma}: v{v} fast path vs its partition's Table 1"
            );
        }
    }
}

/// A refused commit changes no schema — not the CVD's and not that of any
/// table of the (partitioned) layout, rows untouched — whatever evolution
/// its staged table asked for, including widenings to TEXT that no
/// coercion could take back; and the same table commits once repaired.
#[test]
fn a_refused_commit_changes_no_schema() {
    let state = |odb: &mut OrpheusDB| {
        let cvd = odb.cvd("prot").unwrap().clone();
        let tables: Vec<(String, Schema)> = model::layout_tables(&cvd)
            .into_iter()
            .map(|t| {
                let schema = (*odb.engine.table(&t).unwrap().schema).clone();
                (t, schema)
            })
            .collect();
        let rows: Vec<_> = (1..=4)
            .map(|v| sorted_rows(model::version_rows_sql(&mut odb.engine, &cvd, Vid(v)).unwrap()))
            .collect();
        (cvd.schema, tables, rows)
    };
    // (score's new type, a staged row repeating the primary key of p3/q3)
    for (widened, duplicate) in [
        ("DOUBLE", "(NULL, 'p3', 'q3', 1.5, 1)"),
        ("TEXT", "(NULL, 'p3', 'q3', 'high', 1)"),
    ] {
        let mut odb = build_history(ModelKind::SplitByRlist);
        odb.optimize("prot").unwrap();
        let before = state(&mut odb);
        assert!(before.1.len() > 2, "the layout has partition tables");

        odb.checkout("prot", &[Vid(4)], "evo").unwrap();
        odb.engine
            .execute("ALTER TABLE evo ADD COLUMN extra INT")
            .unwrap();
        odb.engine
            .execute(&format!(
                "ALTER TABLE evo ALTER COLUMN score TYPE {widened}"
            ))
            .unwrap();
        odb.engine
            .execute(&format!("INSERT INTO evo VALUES {duplicate}"))
            .unwrap();
        let err = odb.commit("evo", "refused").unwrap_err();
        assert!(matches!(err, CoreError::PrimaryKeyViolation(_)), "{err}");
        assert_eq!(state(&mut odb), before, "score → {widened}");
        // Nothing is left half-evolved: the optimizer still reads every table.
        odb.optimize("prot").unwrap();

        odb.engine
            .execute("DELETE FROM evo WHERE rid IS NULL")
            .unwrap();
        let v5 = odb.commit("evo", "repaired").unwrap();
        assert_eq!(odb.cvd("prot").unwrap().schema.arity(), 4);
        assert_eq!(odb.version_rows("prot", v5).unwrap()[0].1.len(), 4);
    }

    // DOUBLE → TEXT: refused next to a duplicate key, applied without it.
    let mut odb = OrpheusDB::new();
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("ratio", DataType::Double),
    ])
    .with_primary_key(&["id"])
    .unwrap();
    let rows = vec![
        vec![Value::Int(1), Value::Double(0.5)],
        vec![Value::Int(2), Value::Double(1.5)],
    ];
    odb.init_cvd("m", schema, rows, Some(ModelKind::SplitByRlist))
        .unwrap();
    odb.optimize("m").unwrap();
    let snapshot = |odb: &mut OrpheusDB| {
        let cvd = odb.cvd("m").unwrap().clone();
        let data = cvd.rlist_pair(Vid(1)).unwrap().0;
        let stored = (*odb.engine.table(&data).unwrap().schema).clone();
        (cvd.schema, stored, odb.version_rows("m", Vid(1)).unwrap())
    };
    let before = snapshot(&mut odb);
    odb.checkout("m", &[Vid(1)], "w").unwrap();
    odb.engine
        .execute("ALTER TABLE w ALTER COLUMN ratio TYPE TEXT")
        .unwrap();
    odb.engine
        .execute("INSERT INTO w VALUES (NULL, 1, 'dup')")
        .unwrap();
    assert!(odb.commit("w", "refused").is_err());
    assert_eq!(snapshot(&mut odb), before);
    odb.engine
        .execute("DELETE FROM w WHERE rid IS NULL")
        .unwrap();
    odb.commit("w", "widened").unwrap();
    let after = snapshot(&mut odb);
    assert_eq!(after.0.columns[1].dtype, DataType::Text);
    assert_eq!(after.1.columns.last().unwrap().dtype, DataType::Text);
}

#[test]
fn diff_matches_sql_set_difference() {
    for model in ModelKind::ALL {
        let mut odb = build_history(model);
        let cvd = odb.cvd("prot").unwrap().clone();
        let d = odb.diff("prot", Vid(1), Vid(2)).unwrap();
        let rows_a = model::version_rows_sql(&mut odb.engine, &cvd, Vid(1)).unwrap();
        let rows_b = model::version_rows_sql(&mut odb.engine, &cvd, Vid(2)).unwrap();
        let rids_a: std::collections::HashSet<i64> = rows_a.iter().map(|(r, _)| *r).collect();
        let rids_b: std::collections::HashSet<i64> = rows_b.iter().map(|(r, _)| *r).collect();
        let mut only_first: Vec<Vec<Value>> = rows_a
            .into_iter()
            .filter(|(r, _)| !rids_b.contains(r))
            .map(|(_, v)| v)
            .collect();
        let mut only_second: Vec<Vec<Value>> = rows_b
            .into_iter()
            .filter(|(r, _)| !rids_a.contains(r))
            .map(|(_, v)| v)
            .collect();
        only_first.sort();
        only_second.sort();
        let mut got_first = d.only_in_first.clone();
        let mut got_second = d.only_in_second.clone();
        got_first.sort();
        got_second.sort();
        assert_eq!(got_first, only_first, "{}", model.name());
        assert_eq!(got_second, only_second, "{}", model.name());
    }
}

/// A generated history with merges and `ADD COLUMN` commits, replayed
/// into `odb` as CVD [`CVD`] under `model`: versions `skip + 1..=versions`
/// (histories differing only in `versions` share their prefix).
fn replay_history(odb: &mut OrpheusDB, model: ModelKind, versions: usize, skip: usize) {
    let params = HistoryParams {
        versions,
        branches: 5,
        fork_every: 3,
        base_rows: 120,
        inserts: 10,
        attrs: 3,
        insert_fraction: 0.8,
        merge_prob: 0.3,
        skew: 0.5,
        evolve_every: 7,
        seed: 7,
    };
    let ctx = Ctx::for_test("versioned-queries", model, params.seed);
    let mut gen = HistoryGen::new(params);
    gen.by_ref().take(skip).for_each(drop);
    replay(odb, gen, model, false, &ctx).unwrap();
}

/// The Table 1 join that `VERSION v OF CVD` translated to before versioned
/// queries became a rid-index semi-join: the data table (of the version's
/// partition, once optimized) hash-joined against the version's rids.
fn table1_version_join(cvd: &Cvd, v: u64) -> String {
    match cvd.model {
        ModelKind::SplitByRlist => {
            let (data, rlist) = cvd.rlist_pair(Vid(v)).unwrap();
            format!(
                "(SELECT d.* FROM {data} AS d, \
                 (SELECT unnest(rlist) AS __rid FROM {rlist} WHERE vid = {v}) AS __t \
                 WHERE d.rid = __rid)"
            )
        }
        ModelKind::SplitByVlist => format!(
            "(SELECT d.* FROM {} AS d, \
             (SELECT rid AS __rid FROM {} WHERE ARRAY[{v}] <@ vlist) AS __t \
             WHERE d.rid = __rid)",
            cvd.data_table(),
            cvd.vlist_table()
        ),
        other => panic!("no Table 1 join for {}", other.name()),
    }
}

/// The Table 1 join behind `FROM CVD` (every version, with a `vid`).
fn table1_whole_cvd_join(cvd: &Cvd) -> String {
    match cvd.model {
        ModelKind::SplitByRlist => format!(
            "(SELECT d.*, __t.vid FROM {} AS d, \
             (SELECT vid, unnest(rlist) AS __rid FROM {}) AS __t \
             WHERE d.rid = __t.__rid)",
            cvd.data_table(),
            cvd.rlist_table()
        ),
        ModelKind::SplitByVlist => format!(
            "(SELECT d.*, __t.vid FROM {} AS d, \
             (SELECT rid AS __rid, unnest(vlist) AS vid FROM {}) AS __t \
             WHERE d.rid = __t.__rid)",
            cvd.data_table(),
            cvd.vlist_table()
        ),
        other => panic!("no Table 1 join for {}", other.name()),
    }
}

/// Every versioned query shape against the join text it stood for, run
/// straight through the engine: rows, their order and the column names.
fn versioned_queries_match_table1(odb: &mut OrpheusDB, what: &str) {
    let cvd = odb.cvd(CVD).unwrap().clone();
    let versions = cvd.num_versions() as u64;
    let last = format!("a{}", cvd.schema.arity() - 1);
    let mut same = |versioned: String, table1: String| {
        let got = odb.run(&versioned).unwrap();
        let want = odb.engine.query(&table1).unwrap();
        assert_eq!(got.rows, want.rows, "{what}: {versioned}");
        assert_eq!(
            got.schema.column_names(),
            want.schema.column_names(),
            "{what}: {versioned}"
        );
    };
    for v in 1..=versions {
        let join = table1_version_join(&cvd, v);
        same(
            format!("SELECT * FROM VERSION {v} OF CVD {CVD}"),
            format!("SELECT * FROM {join} AS {CVD}"),
        );
        let aggregate = format!("SELECT count(*), sum(a0), count({last}) FROM");
        same(
            format!("{aggregate} VERSION {v} OF CVD {CVD} WHERE a1 < 5000"),
            format!("{aggregate} {join} AS {CVD} WHERE a1 < 5000"),
        );
        let other = v.div_ceil(2);
        let pairs = "SELECT x.rid, x.a0, y.a1, y.rid FROM";
        same(
            format!(
                "{pairs} VERSION {v} OF CVD {CVD} AS x, VERSION {other} OF CVD {CVD} AS y \
                 WHERE x.rid = y.rid"
            ),
            format!(
                "{pairs} {join} AS x, {} AS y WHERE x.rid = y.rid",
                table1_version_join(&cvd, other)
            ),
        );
    }
    same(
        format!("SELECT vid, count(*), sum(a0) FROM CVD {CVD} GROUP BY vid ORDER BY vid"),
        format!(
            "SELECT vid, count(*), sum(a0) FROM {} AS {CVD} GROUP BY vid ORDER BY vid",
            table1_whole_cvd_join(&cvd)
        ),
    );
}

/// Versioned queries read a version's records through the rid index now;
/// what they return — rows, order, columns — is what the Table 1 join
/// returned, at every version of a history with merges and schema
/// evolution, on both array models, and on a partitioned CVD both for the
/// versions `Optimize` placed and for those online maintenance placed.
#[test]
fn versioned_queries_answer_as_the_table1_join_did() {
    for model in [ModelKind::SplitByRlist, ModelKind::SplitByVlist] {
        let mut odb = OrpheusDB::new();
        replay_history(&mut odb, model, 30, 0);
        let cvd = odb.cvd(CVD).unwrap();
        assert!(cvd.versions.iter().any(|m| m.parents.len() > 1), "merges");
        assert!(cvd.schema.arity() > 3, "ADD COLUMN commits");
        versioned_queries_match_table1(&mut odb, model.name());
    }
    let mut odb = OrpheusDB::new();
    replay_history(&mut odb, ModelKind::SplitByRlist, 24, 0);
    odb.optimize_with(CVD, 1.5, 1.5).unwrap();
    replay_history(&mut odb, ModelKind::SplitByRlist, 30, 24);
    let partitions = odb.cvd(CVD).unwrap().partition.as_ref().unwrap();
    assert!(
        partitions.assignment().iter().any(|&k| k > 0),
        "partitioned"
    );
    versioned_queries_match_table1(&mut odb, "partitioned");
}

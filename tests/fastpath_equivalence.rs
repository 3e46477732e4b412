//! The record-access fast path must be invisible: checkout, commit, and
//! diff must produce identical version graphs, rlists, and materialized
//! rows whether versions are read through the rid-index fast path or the
//! retained Table 1 SQL formulation — for all five `ModelKind`s,
//! partitioned CVDs (`optimize` run), and multi-version merge checkouts.

use orpheusdb::core::model::{self, ModelKind};
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
                model::fast_path_ready(&odb.engine, &cvd, Vid(v)),
                "{} v{v} should be fast-readable",
                model.name()
            );
            let fast = sorted_rows(model::version_rows(&mut odb.engine, &cvd, Vid(v)).unwrap());
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
        cvd.version_rids[..4],
        plain.cvd("prot").unwrap().version_rids[..]
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
            let fast = sorted_rows(model::version_rows(&mut odb.engine, &cvd, Vid(v)).unwrap());
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
            let fast = sorted_rows(model::version_rows(&mut parted.engine, &cvd, Vid(v)).unwrap());
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

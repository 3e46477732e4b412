//! Cross-crate integration tests: full version-control workflows through
//! the facade crate, exercising engine + core + partition together. Every
//! command is issued through the typed request bus (builders +
//! [`Executor`]); plain SQL edits go straight to the engine, exactly as
//! the paper intends.

use orpheusdb::bench::generator::{Workload, WorkloadParams};
use orpheusdb::bench::loader::load_workload;
use orpheusdb::core::commands::{run_command, MemFiles};
use orpheusdb::prelude::*;

fn protein_schema() -> Schema {
    Schema::new(vec![
        Column::new("protein1", DataType::Text),
        Column::new("protein2", DataType::Text),
        Column::new("neighborhood", DataType::Int),
        Column::new("cooccurrence", DataType::Int),
        Column::new("coexpression", DataType::Int),
    ])
    .with_primary_key(&["protein1", "protein2"])
    .unwrap()
}

fn figure1_rows() -> Vec<Vec<Value>> {
    vec![
        vec![
            "ENSP273047".into(),
            "ENSP261890".into(),
            0.into(),
            53.into(),
            0.into(),
        ],
        vec![
            "ENSP273047".into(),
            "ENSP235932".into(),
            0.into(),
            87.into(),
            0.into(),
        ],
        vec![
            "ENSP300413".into(),
            "ENSP274242".into(),
            426.into(),
            0.into(),
            164.into(),
        ],
        vec![
            "ENSP309334".into(),
            "ENSP346022".into(),
            0.into(),
            227.into(),
            975.into(),
        ],
        vec![
            "ENSP332973".into(),
            "ENSP300134".into(),
            0.into(),
            0.into(),
            83.into(),
        ],
        vec![
            "ENSP472847".into(),
            "ENSP365773".into(),
            225.into(),
            0.into(),
            73.into(),
        ],
    ]
}

fn commit_vid(odb: &mut OrpheusDB, table: &str, message: &str) -> Vid {
    odb.dispatch(Commit::table(table).message(message))
        .unwrap()
        .version()
        .unwrap()
}

/// Reproduce the branch/merge history of Figure 1 / Figure 4 and verify
/// version contents and graph structure under every data model.
#[test]
fn figure1_history_under_every_model() {
    for model in ModelKind::ALL {
        let mut odb = OrpheusDB::new();
        odb.dispatch(
            Init::cvd("protein")
                .schema(protein_schema())
                .rows(figure1_rows())
                .model(model),
        )
        .unwrap();

        // v2 (from v1): modify one record's coexpression.
        odb.dispatch(Checkout::of("protein").version(1u64).into_table("w2"))
            .unwrap();
        odb.engine
            .execute("UPDATE w2 SET coexpression = 83 WHERE protein2 = 'ENSP261890'")
            .unwrap();
        let v2 = commit_vid(&mut odb, "w2", "fix coexpression");

        // v3 (from v1): delete one record.
        odb.dispatch(Checkout::of("protein").version(1u64).into_table("w3"))
            .unwrap();
        odb.engine
            .execute("DELETE FROM w3 WHERE protein1 = 'ENSP309334'")
            .unwrap();
        let v3 = commit_vid(&mut odb, "w3", "drop noisy pair");

        // v4: merge v2 and v3 (v2 wins conflicts).
        odb.dispatch(Checkout::of("protein").versions([v2, v3]).into_table("w4"))
            .unwrap();
        let v4 = commit_vid(&mut odb, "w4", "merge");

        let cvd = odb.cvd("protein").unwrap().clone();
        assert_eq!(cvd.num_versions(), 4, "model {}", model.name());
        assert_eq!(cvd.meta(v4).unwrap().parents, vec![v2, v3]);
        // The merged version has all 6 records (v2 has 6, v3 has 5; union
        // with PK precedence keeps v2's update).
        assert_eq!(odb.version_rows("protein", v4).unwrap().len(), 6);

        // Version graph structure: v2 and v3 both descend from v1.
        assert_eq!(cvd.ancestors(v4).unwrap(), vec![Vid(1), v2, v3]);
        assert_eq!(cvd.descendants(Vid(1)).unwrap(), vec![v2, v3, v4]);

        // Diff v1 vs v2 over the bus: exactly one record replaced.
        match odb
            .dispatch(Diff::of("protein").between(Vid(1), v2))
            .unwrap()
        {
            Response::Diffed { diff, from, to, .. } => {
                assert_eq!((from, to), (Vid(1), v2));
                assert_eq!(diff.only_in_first.len(), 1);
                assert_eq!(diff.only_in_second.len(), 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
}

/// All five data models materialize byte-identical version contents for a
/// generated workload, and storage ranks the way Figure 3a says.
#[test]
fn model_equivalence_and_storage_ranking() {
    let w = Workload::generate(WorkloadParams::sci(25, 5, 40));
    let mut storages = std::collections::HashMap::new();
    let mut reference: Option<Vec<Vec<i64>>> = None;
    for model in ModelKind::ALL {
        let mut odb = OrpheusDB::new();
        load_workload(&mut odb, "w", &w, model).unwrap();
        storages.insert(model, odb.storage_bytes("w").unwrap());
        let contents: Vec<Vec<i64>> = (1..=25u64)
            .map(|v| {
                let mut rids: Vec<i64> = odb
                    .version_rows("w", Vid(v))
                    .unwrap()
                    .into_iter()
                    .map(|(r, _)| r)
                    .collect();
                rids.sort_unstable();
                rids
            })
            .collect();
        match &reference {
            None => reference = Some(contents),
            Some(r) => assert_eq!(&contents, r, "model {} differs", model.name()),
        }
    }
    // Figure 3a ordering: TPV is the most expensive by a wide margin.
    let tpv = storages[&ModelKind::TablePerVersion];
    for (m, s) in &storages {
        if *m != ModelKind::TablePerVersion {
            assert!(tpv > 2 * s, "TPV {tpv} should dwarf {} ({s})", m.name());
        }
    }
}

/// Partitioned and unpartitioned layouts return identical checkouts, and
/// online maintenance keeps working across commits and migrations.
#[test]
fn partitioned_checkout_equivalence_with_online_commits() {
    let w = Workload::generate(WorkloadParams::sci(60, 10, 50));
    let mut odb = OrpheusDB::new();
    load_workload(&mut odb, "w", &w, ModelKind::SplitByRlist).unwrap();

    // Capture pre-partitioning contents.
    let before: Vec<Vec<i64>> = (1..=60u64)
        .map(|v| {
            let mut rids: Vec<i64> = odb
                .version_rows("w", Vid(v))
                .unwrap()
                .into_iter()
                .map(|(r, _)| r)
                .collect();
            rids.sort_unstable();
            rids
        })
        .collect();

    odb.dispatch(Optimize::cvd("w").gamma(2.0).mu(1.2)).unwrap();

    for v in [1u64, 15, 30, 45, 60] {
        let t = format!("chk{v}");
        odb.dispatch(Checkout::of("w").version(v).into_table(&t))
            .unwrap();
        let r = odb
            .engine
            .query(&format!("SELECT rid FROM {t} ORDER BY rid"))
            .unwrap();
        let rids: Vec<i64> = r.rows.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(rids, before[v as usize - 1], "version {v}");
        odb.dispatch(Discard::table(&t)).unwrap();
    }

    // Stream several commits through online maintenance.
    for i in 0..8 {
        let latest = odb.cvd("w").unwrap().latest().unwrap();
        let t = format!("cont{i}");
        odb.dispatch(Checkout::of("w").version(latest).into_table(&t))
            .unwrap();
        odb.engine
            .execute(&format!("UPDATE {t} SET a0 = {i} WHERE a1 < 20"))
            .unwrap();
        commit_vid(&mut odb, &t, "stream");
    }
    let state = odb.cvd("w").unwrap().partition.as_ref().unwrap();
    assert_eq!(state.assignment().len(), 68);
    // Checkout of the newest version still matches its recorded rids.
    let latest = odb.cvd("w").unwrap().latest().unwrap();
    odb.dispatch(Checkout::of("w").version(latest).into_table("final"))
        .unwrap();
    let n = odb.engine.query("SELECT count(*) FROM final").unwrap();
    assert_eq!(
        n.scalar().unwrap().as_int().unwrap() as usize,
        odb.cvd("w").unwrap().rids_of(latest).unwrap().len()
    );
}

/// A realistic multi-user session: two users share one instance through
/// the session layer, with ownership enforced between them.
#[test]
fn shared_session_with_two_users() {
    let mut odb = OrpheusDB::new();
    let csv = "id,score\n1,10\n2,20\n3,30\n";
    let schema = "id:int!pk\nscore:int\n";
    odb.dispatch(InitFromCsv::cvd("scores").csv(csv).schema_text(schema))
        .unwrap();

    let shared = SharedOrpheusDB::new(odb);
    let mut alice = shared.session("alice").unwrap();
    let mut bob = shared.session("bob").unwrap();

    alice
        .dispatch(Checkout::of("scores").version(1u64).into_table("alice_t"))
        .unwrap();
    alice
        .run("UPDATE alice_t SET score = 11 WHERE id = 1")
        .unwrap();

    // Bob cannot commit Alice's table.
    let err = bob
        .dispatch(Commit::table("alice_t").message("steal"))
        .unwrap_err();
    assert!(matches!(err, CoreError::PermissionDenied(_)), "{err}");

    alice
        .dispatch(Commit::table("alice_t").message("alice edit"))
        .unwrap();

    let rows = alice
        .dispatch(Run::sql(
            "SELECT vid, sum(score) AS total FROM CVD scores GROUP BY vid ORDER BY vid",
        ))
        .unwrap()
        .into_rows()
        .unwrap()
        .rows;
    assert_eq!(rows[0][1], Value::Int(60));
    assert_eq!(rows[1][1], Value::Int(61));
}

/// The same workflow driven through the string front-end: command lines
/// parse into the identical typed requests and run on the same bus.
#[test]
fn command_line_session_via_string_front_end() {
    let mut odb = OrpheusDB::new();
    let mut files = MemFiles::default();
    files
        .files
        .insert("d.csv".into(), "id,score\n1,10\n2,20\n3,30\n".into());
    files
        .files
        .insert("d.schema".into(), "id:int!pk\nscore:int\n".into());

    let run = |odb: &mut OrpheusDB, files: &mut MemFiles, cmd: &str| {
        run_command(odb, files, cmd).unwrap_or_else(|e| panic!("{cmd}: {e}"))
    };

    run(&mut odb, &mut files, "init scores -f d.csv -s d.schema");
    run(&mut odb, &mut files, "create_user alice");
    run(&mut odb, &mut files, "create_user bob");

    run(&mut odb, &mut files, "config alice");
    run(&mut odb, &mut files, "checkout scores -v 1 -t alice_t");
    odb.engine
        .execute("UPDATE alice_t SET score = 11 WHERE id = 1")
        .unwrap();

    // Bob cannot commit Alice's table.
    run(&mut odb, &mut files, "config bob");
    assert!(run_command(&mut odb, &mut files, "commit -t alice_t -m steal").is_err());

    run(&mut odb, &mut files, "config alice");
    let response = run(&mut odb, &mut files, "commit -t alice_t -m 'alice edit'");
    assert_eq!(response.version(), Some(Vid(2)));

    let out = run(
        &mut odb,
        &mut files,
        "run SELECT vid, sum(score) AS total FROM CVD scores GROUP BY vid ORDER BY vid",
    );
    let rows = out.into_rows().unwrap().rows;
    assert_eq!(rows[0][1], Value::Int(60));
    assert_eq!(rows[1][1], Value::Int(61));
}

/// Failure injection: the error paths users actually hit.
#[test]
fn failure_modes_are_clean_errors() {
    let mut odb = OrpheusDB::new();
    odb.dispatch(Init::cvd("d").schema(protein_schema()).rows(figure1_rows()))
        .unwrap();

    // Unknown version / CVD, as structured errors.
    let err = odb
        .dispatch(Checkout::of("d").version(9u64).into_table("x"))
        .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::VersionNotFound {
                version: Vid(9),
                ..
            }
        ),
        "{err}"
    );
    let err = odb
        .dispatch(Checkout::of("nope").version(1u64).into_table("x"))
        .unwrap_err();
    assert!(matches!(err, CoreError::CvdNotFound(_)), "{err}");
    // A checkout with no versions is rejected before touching storage.
    let err = odb.dispatch(Checkout::of("d").into_table("x")).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::BadRequest {
                command: CommandKind::Checkout,
                ..
            }
        ),
        "{err}"
    );
    // Committing a table that was never checked out.
    odb.engine.execute("CREATE TABLE rogue (a INT)").unwrap();
    assert!(matches!(
        odb.dispatch(Commit::table("rogue").message("m")),
        Err(CoreError::NotStaged(_))
    ));
    // Duplicate CVD.
    assert!(matches!(
        odb.dispatch(Init::cvd("d").schema(protein_schema())),
        Err(CoreError::CvdExists(_))
    ));
    // Checkout into an existing table name.
    assert!(odb
        .dispatch(Checkout::of("d").version(1u64).into_table("rogue"))
        .is_err());
    // Incompatible schema change (TEXT cannot generalize with INT[]).
    odb.dispatch(Checkout::of("d").version(1u64).into_table("w"))
        .unwrap();
    odb.engine.execute("DROP TABLE w").unwrap();
    odb.engine
        .execute("CREATE TABLE w (rid INT, protein1 INT[], protein2 TEXT, neighborhood INT, cooccurrence INT, coexpression INT)")
        .unwrap();
    assert!(matches!(
        odb.dispatch(Commit::table("w").message("bad schema")),
        Err(CoreError::SchemaMismatch(_))
    ));
}

/// The versioned query translator composes with ordinary SQL features.
#[test]
fn versioned_queries_compose() {
    let mut odb = OrpheusDB::new();
    odb.dispatch(Init::cvd("d").schema(protein_schema()).rows(figure1_rows()))
        .unwrap();
    odb.dispatch(Checkout::of("d").version(1u64).into_table("w"))
        .unwrap();
    odb.engine
        .execute("DELETE FROM w WHERE coexpression = 0")
        .unwrap();
    commit_vid(&mut odb, "w", "prune");

    // Subquery + aggregate over one version.
    let r = odb
        .dispatch(Run::sql(
            "SELECT count(*) FROM VERSION 2 OF CVD d \
             WHERE cooccurrence IN (SELECT cooccurrence FROM VERSION 1 OF CVD d)",
        ))
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(4)));

    // Across-version difference via joins: records of v1 absent in v2.
    let r = odb
        .dispatch(Run::sql(
            "SELECT v1.protein1 FROM VERSION 1 OF CVD d AS v1 \
             WHERE v1.protein2 NOT IN (SELECT protein2 FROM VERSION 2 OF CVD d)",
        ))
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

/// EXPLAIN composes with the versioned-query translator: users can inspect
/// the physical plan of a versioned query without executing it.
#[test]
fn explain_versioned_queries() {
    let mut odb = OrpheusDB::new();
    odb.dispatch(
        Init::cvd("protein")
            .schema(protein_schema())
            .rows(figure1_rows()),
    )
    .unwrap();
    let r = odb
        .dispatch(Run::sql(
            "EXPLAIN SELECT count(*) FROM VERSION 1 OF CVD protein",
        ))
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(r.schema.columns[0].name, "QUERY PLAN");
    let text = r
        .rows
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    // The split-by-rlist translation shows up physically: the version's six
    // rids (read from the versioning table while planning) probe the data
    // table's rid index, and nothing scans the data table.
    assert!(
        text.contains("Index Lookup on protein__data (cols [0], 6 keys)"),
        "{text}"
    );
    assert!(!text.contains("Seq Scan on protein__data"), "{text}");
    assert!(text.contains("Aggregate"), "{text}");
}

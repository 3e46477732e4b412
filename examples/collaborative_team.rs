//! Collaborative analysis: several data scientists working concurrently on
//! one shared CVD — the deployment scenario of the paper's introduction —
//! with sessions as the entry point: every scientist drives the same typed
//! command bus under their own identity, ownership is enforced between
//! sessions, and a durable snapshot carries the instance across restarts.
//!
//! Run with `cargo run --example collaborative_team`.

use orpheusdb::prelude::*;

fn main() {
    // The shared protein-interaction dataset (Figure 1's running example).
    let mut odb = OrpheusDB::new();
    let schema = Schema::new(vec![
        Column::new("protein1", DataType::Text),
        Column::new("protein2", DataType::Text),
        Column::new("coexpression", DataType::Int),
    ])
    .with_primary_key(&["protein1", "protein2"])
    .expect("schema");
    let rows: Vec<Vec<Value>> = (0..50)
        .map(|i| {
            vec![
                format!("ENSP{:06}", i).into(),
                format!("ENSP{:06}", i + 1000).into(),
                Value::Int(i % 100),
            ]
        })
        .collect();
    odb.dispatch(Init::cvd("ppi").schema(schema).rows(rows))
        .expect("init");

    // Share the instance; each scientist opens a named session.
    let shared = SharedOrpheusDB::new(odb);

    std::thread::scope(|scope| {
        for scientist in ["alice", "bob", "carol", "dave"] {
            let shared = shared.clone();
            scope.spawn(move || {
                let mut session = shared.session(scientist).expect("session");
                let table = session.private_table("analysis");

                // Everyone branches from v1, applies their own cleaning
                // step, and commits — concurrently, over one bus.
                session
                    .dispatch(Checkout::of("ppi").version(1u64).into_table(&table))
                    .expect("checkout");
                session
                    .run(&format!(
                        "DELETE FROM {table} WHERE coexpression < {}",
                        scientist.len() * 5 // each scientist's own threshold
                    ))
                    .expect("clean");
                let vid = session
                    .dispatch(Commit::table(&table).message(format!("{scientist}'s cleaning pass")))
                    .expect("commit")
                    .version()
                    .expect("version");
                println!("{scientist:>6} committed {vid}");
            });
        }
    });

    // Ownership is enforced between sessions: eve cannot touch a table that
    // alice checks out.
    let mut alice = shared.session("alice").expect("session");
    let eve = shared.session("eve").expect("session");
    alice
        .dispatch(Checkout::of("ppi").version(1u64).into_table("alice_wip"))
        .expect("checkout");
    let denied = eve.run("SELECT * FROM alice_wip");
    println!("eve reading alice's checkout: {}", denied.unwrap_err());
    // The bus is no way around the rule either: a `Run` request hits the
    // same guard.
    let mut eve = eve;
    let denied = eve.dispatch(Run::sql("UPDATE alice_wip SET coexpression = 0"));
    println!("eve writing via Run request:  {}", denied.unwrap_err());
    alice
        .dispatch(Discard::table("alice_wip"))
        .expect("discard");

    // Global statistics across everyone's versions, straight from SQL.
    let per_version = alice
        .dispatch(Run::sql(
            "SELECT vid, count(*) FROM CVD ppi GROUP BY vid ORDER BY vid",
        ))
        .expect("versioned query")
        .into_rows()
        .expect("rows");
    println!("\nrecords per version:");
    for row in &per_version.rows {
        println!("  v{} -> {} records", row[0], row[1]);
    }

    // Persist the whole instance and prove the restart roundtrip.
    let path = std::env::temp_dir().join("collaborative_team.orpheus");
    shared.save_to(&path).expect("save");
    let restored = OrpheusDB::load_from(&path).expect("load");
    let cvd = restored.cvd("ppi").expect("cvd");
    println!(
        "\nreloaded snapshot: {} versions, latest = {:?}",
        cvd.num_versions(),
        cvd.latest().expect("versions exist")
    );
    assert_eq!(cvd.num_versions(), 5); // v1 + four concurrent commits
    std::fs::remove_file(&path).ok();
}

//! Multi-threaded session integration tests for the per-CVD locking
//! scheme: disjoint-CVD commits must behave exactly like a sequential run
//! (no lost updates, identical version graphs), and same-CVD conflicts
//! must still serialize with ownership checks intact.
//!
//! Every test name starts with `concurrent_` so CI's stress job can select
//! the whole suite with `cargo test -- concurrent_`. Iteration counts are
//! modest by default and scale up under `ORPHEUS_STRESS=1` (the CI stress
//! job), so lock-ordering bugs surface there rather than in production.

use orpheusdb::prelude::*;

/// Iteration multiplier: 1 normally, larger under `ORPHEUS_STRESS=1`.
fn stress(base: usize) -> usize {
    match std::env::var("ORPHEUS_STRESS").as_deref() {
        Ok("1") => base * 12,
        _ => base,
    }
}

fn cvd_schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .with_primary_key(&["k"])
    .unwrap()
}

fn instance_with_cvds(names: &[String]) -> OrpheusDB {
    let mut odb = OrpheusDB::new();
    for name in names {
        let rows: Vec<Vec<Value>> = (0..12).map(|i| vec![i.into(), 0.into()]).collect();
        odb.init_cvd(name, cvd_schema(), rows, None).unwrap();
    }
    odb
}

/// The per-thread editing script: `rounds` checkout → edit → commit cycles
/// against one CVD, via the typed bus.
fn edit_rounds(session: &mut Session, cvd: &str, who: &str, rounds: usize) {
    for i in 0..rounds {
        let table = session.private_table(&format!("{cvd}_{i}"));
        session
            .dispatch(Checkout::of(cvd).version(1u64).into_table(&table))
            .unwrap();
        session
            .run(&format!("UPDATE {table} SET v = {i} WHERE k = 0"))
            .unwrap();
        session
            .dispatch(Commit::table(&table).message(format!("{who} round {i}")))
            .unwrap();
    }
}

/// K sessions commit to K disjoint CVDs concurrently: (a) no lost updates,
/// (b) each CVD's version graph matches the sequential run's, (c) all
/// staged tables are consumed.
#[test]
fn concurrent_disjoint_cvd_commits_match_the_sequential_run() {
    const USERS: usize = 4;
    let rounds = stress(3);
    let names: Vec<String> = (0..USERS).map(|u| format!("cvd{u}")).collect();

    // Sequential reference run.
    let sequential = SharedOrpheusDB::new(instance_with_cvds(&names));
    for (u, cvd) in names.iter().enumerate() {
        let mut s = sequential.session(&format!("user{u}")).unwrap();
        edit_rounds(&mut s, cvd, &format!("user{u}"), rounds);
    }

    // Concurrent run: same scripts, one thread per user/CVD.
    let shared = SharedOrpheusDB::new(instance_with_cvds(&names));
    std::thread::scope(|scope| {
        for (u, cvd) in names.iter().enumerate() {
            let shared = shared.clone();
            scope.spawn(move || {
                let mut s = shared.session(&format!("user{u}")).unwrap();
                edit_rounds(&mut s, cvd, &format!("user{u}"), rounds);
            });
        }
    });

    // Version graphs agree per CVD: count, parents, messages, record counts.
    for cvd in &names {
        let reference: Vec<(Vid, Vec<Vid>, String, u64)> = sequential.read(|odb| {
            odb.cvd(cvd)
                .unwrap()
                .versions
                .iter()
                .map(|m| (m.vid, m.parents.clone(), m.message.clone(), m.num_records))
                .collect()
        });
        let concurrent: Vec<(Vid, Vec<Vid>, String, u64)> = shared.read(|odb| {
            odb.cvd(cvd)
                .unwrap()
                .versions
                .iter()
                .map(|m| (m.vid, m.parents.clone(), m.message.clone(), m.num_records))
                .collect()
        });
        assert_eq!(reference, concurrent, "{cvd}");
    }
    shared.read(|odb| assert!(odb.staged().is_empty()));
}

/// Conflicting commits to the *same* CVD still serialize: every commit
/// lands as a distinct version, and no thread can touch another's staged
/// table (owner checks stay intact under contention).
#[test]
fn concurrent_same_cvd_commits_serialize_with_owner_checks_intact() {
    const USERS: usize = 6;
    let rounds = stress(2);
    let names = vec!["hot".to_string()];
    let shared = SharedOrpheusDB::new(instance_with_cvds(&names));

    std::thread::scope(|scope| {
        for u in 0..USERS {
            let shared = shared.clone();
            scope.spawn(move || {
                let s = shared.session(&format!("user{u}")).unwrap();
                let rival = format!("user{}", (u + 1) % USERS);
                for i in 0..rounds {
                    let mine = s.private_table(&format!("w{i}"));
                    s.checkout("hot", &[Vid(1)], &mine).unwrap();
                    // A rival's session cannot commit or read my table.
                    let rival_session = shared.session(&rival).unwrap();
                    let err = rival_session.commit(&mine, "steal").unwrap_err();
                    assert!(matches!(err, CoreError::PermissionDenied(_)), "{err}");
                    let err = rival_session
                        .run(&format!("SELECT count(*) FROM {mine}"))
                        .unwrap_err();
                    assert!(matches!(err, CoreError::PermissionDenied(_)), "{err}");
                    s.commit(&mine, &format!("user{u} round {i}")).unwrap();
                }
            });
        }
    });

    shared.read(|odb| {
        let cvd = odb.cvd("hot").unwrap();
        assert_eq!(cvd.num_versions(), 1 + USERS * rounds);
        // Every commit message is present exactly once — no lost updates.
        let mut messages: Vec<&str> = cvd
            .versions
            .iter()
            .skip(1)
            .map(|m| m.message.as_str())
            .collect();
        messages.sort_unstable();
        let mut expected: Vec<String> = (0..USERS)
            .flat_map(|u| (0..rounds).map(move |i| format!("user{u} round {i}")))
            .collect();
        expected.sort();
        assert_eq!(
            messages,
            expected.iter().map(|s| s.as_str()).collect::<Vec<_>>()
        );
        assert!(odb.staged().is_empty());
    });
}

/// Mixed traffic under stress: writers on disjoint CVDs, readers running
/// versioned queries and logs against all of them, a catalog churner
/// creating and dropping CVDs — no deadlocks, no identity leaks.
#[test]
fn concurrent_mixed_catalog_and_shard_traffic_stays_consistent() {
    let names: Vec<String> = (0..3).map(|u| format!("cvd{u}")).collect();
    let shared = SharedOrpheusDB::new(instance_with_cvds(&names));
    let rounds = stress(3);

    std::thread::scope(|scope| {
        // Writers.
        for (u, cvd) in names.iter().enumerate() {
            let shared = shared.clone();
            scope.spawn(move || {
                let mut s = shared.session(&format!("writer{u}")).unwrap();
                edit_rounds(&mut s, cvd, &format!("writer{u}"), rounds);
            });
        }
        // Readers.
        for r in 0..2 {
            let shared = shared.clone();
            let names = names.clone();
            scope.spawn(move || {
                let mut s = shared.session(&format!("reader{r}")).unwrap();
                for _ in 0..rounds * 4 {
                    for cvd in &names {
                        let n = s
                            .run(&format!("SELECT count(*) FROM VERSION 1 OF CVD {cvd}"))
                            .unwrap();
                        assert_eq!(n.scalar(), Some(&Value::Int(12)));
                        let log = s.dispatch(Log::of(cvd.as_str())).unwrap();
                        assert!(matches!(log, Response::Log { .. }));
                    }
                }
            });
        }
        // Catalog churn: create and drop scratch CVDs while shard traffic
        // runs — exercises catalog/shard lock handoff.
        {
            let shared = shared.clone();
            scope.spawn(move || {
                let mut s = shared.session("churner").unwrap();
                for i in 0..rounds * 2 {
                    let name = format!("scratch{i}");
                    s.dispatch(
                        Init::cvd(&name)
                            .schema(cvd_schema())
                            .row(vec![1.into(), 1.into()]),
                    )
                    .unwrap();
                    s.dispatch(DropCvd::named(&name)).unwrap();
                }
            });
        }
    });

    // The instance identity never leaked a session user.
    assert_eq!(
        shared.read(|odb| odb.access.whoami().to_string()),
        "default"
    );
    shared.read(|odb| {
        assert_eq!(odb.ls().len(), names.len());
        for cvd in &names {
            assert_eq!(odb.cvd(cvd).unwrap().num_versions(), 1 + rounds);
        }
    });
}

/// Four creators race for one side-table name each round: `SELECT … INTO`
/// from two different CVDs, a checkout into the name and `CREATE TABLE`.
/// Exactly one wins, every loser is told the name is taken, and the
/// instance-wide paths that merge every shard — `read`, `write` and
/// `save_to` — keep working, so no name ended up in two shards.
#[test]
fn concurrent_side_table_names_have_one_creator() {
    let names: Vec<String> = (0..2).map(|u| format!("cvd{u}")).collect();
    let shared = SharedOrpheusDB::new(instance_with_cvds(&names));
    let rounds = stress(4);
    type Creator = fn(&Session, &str) -> Result<(), CoreError>;
    let creators: [Creator; 4] = [
        |s, x| {
            s.run(&format!("SELECT * INTO {x} FROM VERSION 1 OF CVD cvd0"))
                .map(drop)
        },
        |s, x| {
            s.run(&format!("SELECT * INTO {x} FROM VERSION 1 OF CVD cvd1"))
                .map(drop)
        },
        |s, x| s.checkout("cvd0", &[Vid(1)], x),
        |s, x| s.run(&format!("CREATE TABLE {x} (k INT)")).map(drop),
    ];
    let barrier = std::sync::Barrier::new(creators.len());
    // Outcomes are judged after the join: a thread that panicked inside a
    // round would leave the others waiting at the barrier.
    let outcomes: Vec<Vec<Result<(), CoreError>>> = std::thread::scope(|scope| {
        let threads: Vec<_> = creators
            .iter()
            .map(|create| {
                let (shared, barrier) = (shared.clone(), &barrier);
                scope.spawn(move || {
                    let s = shared.session("racer").unwrap();
                    (0..rounds)
                        .map(|r| {
                            barrier.wait();
                            create(&s, &format!("x{r}"))
                        })
                        .collect()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for r in 0..rounds {
        let mut winners = 0;
        for outcome in &outcomes {
            match &outcome[r] {
                Ok(()) => winners += 1,
                Err(e) => assert!(e.to_string().contains("already"), "round {r}: {e}"),
            }
        }
        assert_eq!(winners, 1, "round {r}: {winners} creators of x{r}");
    }
    shared.read(|odb| {
        for r in 0..rounds {
            assert!(odb.engine.has_table(&format!("x{r}")), "x{r} is missing");
        }
    });
    shared.write(|odb| assert_eq!(odb.ls(), names));
    let path = std::env::temp_dir().join(format!(
        "orpheus-one-creator-{}.orpheus",
        std::process::id()
    ));
    shared.save_to(&path).unwrap();
    std::fs::remove_file(&path).ok();
}

//! End-to-end durability tests: the write-ahead log + crash recovery
//! layer (`crates/core/src/wal.rs`, `crates/core/src/recovery.rs`)
//! exercised through the public API — open, mutate, drop without any
//! snapshot save, reopen, and demand the acknowledged state back
//! bit-for-bit. File-surgery cases (torn tails, bit flips) corrupt the
//! log on disk and check the documented policy: a torn final record is
//! truncated silently, everything else is a typed error, never a panic.
//!
//! Iteration counts are modest by default and scale up under
//! `ORPHEUS_STRESS=1` (the CI stress job).

use std::fs::OpenOptions;
use std::path::PathBuf;

use orpheusdb::core::wal::{self, read_segment, CommitRecord, WalOp};
use orpheusdb::core::{recovery, CoreError, LogEntry};
use orpheusdb::engine::storage::crc32;
use orpheusdb::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orpheus-walrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Iteration multiplier: 1 normally, larger under `ORPHEUS_STRESS=1`.
fn stress_factor() -> usize {
    match std::env::var("ORPHEUS_STRESS").as_deref() {
        Ok("1") => 10,
        _ => 1,
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("grade", DataType::Int),
    ])
}

fn rows(n: i64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
        .collect()
}

/// Seed a CVD and run one checkout → edit → commit cycle through the
/// command bus, returning the committed version.
fn seed_and_commit(odb: &mut OrpheusDB) -> Vid {
    odb.execute(
        Init::cvd("grades")
            .schema(schema())
            .rows(rows(6))
            .model(ModelKind::SplitByRlist)
            .into(),
    )
    .expect("init");
    odb.execute(
        Checkout::of("grades")
            .version(1u64)
            .into_table("work")
            .into(),
    )
    .expect("checkout");
    odb.execute(Run::sql("INSERT INTO work (id, grade) VALUES (100, 1000)").into())
        .expect("insert");
    match odb
        .execute(Commit::table("work").message("curved").into())
        .expect("commit")
    {
        Response::Committed { version, .. } => version,
        other => panic!("expected Committed, got {other:?}"),
    }
}

/// The comparable durable state of one CVD: version metadata + rlists.
fn graph(odb: &OrpheusDB, name: &str) -> (Vec<String>, Vec<Vec<i64>>) {
    let cvd = odb.cvd(name).expect("cvd exists");
    (
        cvd.versions.iter().map(|m| format!("{m:?}")).collect(),
        cvd.version_rids.iter().map(|r| (**r).clone()).collect(),
    )
}

#[test]
fn acknowledged_commits_survive_reopen_without_any_snapshot_save() {
    let dir = tmp_dir("ack");
    let mut odb = recovery::open(&dir).expect("open fresh");
    let vid = seed_and_commit(&mut odb);
    assert_eq!(vid, Vid(2));
    let before = graph(&odb, "grades");
    drop(odb); // no save_to, no checkpoint: the log is all there is

    let again = recovery::open(&dir).expect("reopen");
    assert_eq!(again.ls(), vec!["grades".to_string()]);
    assert_eq!(graph(&again, "grades"), before);
    // The edited row made it: version 2 has one record more than v1.
    assert_eq!(
        again.cvd("grades").unwrap().rids_of(Vid(2)).unwrap().len(),
        7
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_commit_is_invisible_after_replay() {
    let dir = tmp_dir("failed");
    let mut odb = recovery::open(&dir).expect("open fresh");
    odb.execute(
        Init::cvd("grades")
            .schema(schema())
            .rows(rows(4))
            .model(ModelKind::SplitByRlist)
            .into(),
    )
    .expect("init");
    // Committing a table that was never checked out must fail...
    assert!(odb
        .execute(Commit::table("no_such_staged").message("nope").into())
        .is_err());
    let before = graph(&odb, "grades");
    drop(odb);

    // ...and must not leave a partial record for replay to trip over:
    // the log holds exactly the init, nothing else.
    let scan = read_segment(&wal::segment_path(&dir, 1), 1).expect("scan log");
    assert_eq!(scan.records.len(), 1);
    assert!(!scan.truncated_tail);

    let again = recovery::open(&dir).expect("reopen");
    assert_eq!(graph(&again, "grades"), before);
    assert_eq!(again.cvd("grades").unwrap().num_versions(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each default has one definition: an `Init` without a model builds a
/// split-by-rlist CVD (`ModelKind::default`), and `optimize` without γ or
/// µ runs with γ = 2|R| and µ = 1.5 (`OnlineConfig::default`) — the same
/// run as `optimize_with(cvd, 2.0, 1.5)`, logged with the values it used.
#[test]
fn init_and_optimize_take_the_defaults_and_log_what_they_used() {
    fn seed(odb: &mut OrpheusDB) {
        odb.execute(Init::cvd("grades").schema(schema()).rows(rows(6)).into())
            .expect("init without a model");
        odb.checkout("grades", &[Vid(1)], "w").expect("checkout");
        odb.execute(Run::sql("DELETE FROM w WHERE id > 2").into())
            .expect("delete");
        odb.commit("w", "smaller").expect("commit");
    }
    let mut odb = OrpheusDB::new();
    seed(&mut odb);
    assert_eq!(odb.cvd("grades").unwrap().model, ModelKind::SplitByRlist);
    let mut twin = odb.clone();
    let defaulted = odb.optimize("grades").expect("optimize");
    let explicit = twin
        .optimize_with("grades", 2.0, 1.5)
        .expect("optimize_with");
    assert_eq!(format!("{defaulted:?}"), format!("{explicit:?}"));

    let dir = tmp_dir("defaults");
    let mut logged = recovery::open(&dir).expect("open fresh");
    seed(&mut logged);
    logged.optimize("grades").expect("optimize");
    drop(logged);
    let scan = read_segment(&wal::segment_path(&dir, 1), 1).expect("scan log");
    let params: Vec<_> = scan
        .records
        .iter()
        .filter_map(|r| match &r.op {
            WalOp::Request(Request::Optimize(o)) => Some((o.gamma, o.mu)),
            _ => None,
        })
        .collect();
    assert_eq!(params, vec![(Some(2.0), Some(1.5))]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_rotates_generations_and_later_commits_still_replay() {
    let dir = tmp_dir("ckpt");
    let mut odb = recovery::open(&dir).expect("open fresh");
    seed_and_commit(&mut odb);

    let gen = recovery::checkpoint(&mut odb).expect("checkpoint");
    assert_eq!(gen, 2);
    assert_eq!(wal::read_current(&dir).unwrap(), Some(2));
    // The old generation's files are swept.
    assert!(!wal::segment_path(&dir, 1).exists());
    assert!(!wal::snapshot_path(&dir, 1).exists());
    assert!(wal::segment_path(&dir, 2).exists());
    assert!(wal::snapshot_path(&dir, 2).exists());

    // Mutations after the rotation land in the new segment and replay
    // on top of the new snapshot.
    odb.execute(Checkout::of("grades").version(2u64).into_table("w2").into())
        .expect("checkout");
    odb.execute(Commit::table("w2").message("post-rotation").into())
        .expect("commit");
    let before = graph(&odb, "grades");
    drop(odb);

    let again = recovery::open(&dir).expect("reopen");
    assert_eq!(graph(&again, "grades"), before);
    assert_eq!(again.cvd("grades").unwrap().num_versions(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_record_is_truncated_and_the_prefix_recovers() {
    let dir = tmp_dir("torn");
    let mut odb = recovery::open(&dir).expect("open fresh");
    seed_and_commit(&mut odb);
    let full = graph(&odb, "grades");
    drop(odb);

    // Tear the last record: chop the segment mid-frame, simulating a
    // crash during the final append.
    let path = wal::segment_path(&dir, 1);
    let len = std::fs::metadata(&path).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let again = recovery::open(&dir).expect("a torn tail is not fatal");
    // The commit (the last logged record) is gone; the init survived.
    assert_eq!(again.ls(), vec!["grades".to_string()]);
    assert_eq!(again.cvd("grades").unwrap().num_versions(), 1);
    assert_ne!(graph(&again, "grades"), full);

    // The reopened instance reattached cleanly: new commits append and
    // survive another reopen.
    let mut again = again;
    let vid = seed_and_commit_on_existing(&mut again);
    let after = graph(&again, "grades");
    drop(again);
    let third = recovery::open(&dir).expect("reopen after reattach");
    assert_eq!(graph(&third, "grades"), after);
    assert_eq!(vid, Vid(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Optimize` and the online placements after it are replayed, not
/// stored: a log holding both must rebuild the same partitioned layout —
/// from the log alone, and from a checkpoint snapshot (which keeps the
/// assignment but not the maintainer's tree) plus the log's tail.
#[test]
fn optimize_and_online_commits_replay_to_the_same_partition_state() {
    /// One commit that keeps little of version 1: a weak edge, so online
    /// maintenance has partitions to open.
    fn diverge(odb: &mut OrpheusDB, i: i64) {
        let t = format!("d{i}");
        odb.execute(Checkout::of("grades").version(1u64).into_table(&t).into())
            .expect("checkout");
        odb.execute(Run::sql(format!("DELETE FROM {t} WHERE id > 0")).into())
            .expect("delete");
        for j in 0..8 {
            let id = 1000 * i + j;
            odb.execute(Run::sql(format!("INSERT INTO {t} (id, grade) VALUES ({id}, {j})")).into())
                .expect("insert");
        }
        odb.execute(Commit::table(&t).message("diverge").into())
            .expect("commit");
    }
    fn layout(odb: &OrpheusDB) -> (Vec<usize>, usize, usize, usize) {
        let state = odb.cvd("grades").unwrap().partition.as_ref().unwrap();
        (
            state.assignment().to_vec(),
            state.num_partitions(),
            state.generation,
            state.maintainer().migrations_triggered(),
        )
    }
    fn checkouts(odb: &mut OrpheusDB) -> Vec<usize> {
        (1..=odb.cvd("grades").unwrap().num_versions() as u64)
            .map(|v| {
                odb.checkout("grades", &[Vid(v)], "probe")
                    .expect("checkout");
                let n = odb.engine.table("probe").unwrap().len();
                odb.discard("probe").expect("discard");
                n
            })
            .collect()
    }

    let dir = tmp_dir("optimize");
    let mut odb = recovery::open(&dir).expect("open fresh");
    seed_and_commit(&mut odb);
    diverge(&mut odb, 1);
    odb.execute(Optimize::cvd("grades").gamma(3.0).mu(1.2).into())
        .expect("optimize");
    for i in 2..6 {
        diverge(&mut odb, i);
    }
    let (before, sizes) = (layout(&odb), checkouts(&mut odb));
    assert!(before.1 > 1, "the layout has several partitions");
    drop(odb);

    let mut again = recovery::open(&dir).expect("reopen from the log");
    assert_eq!(layout(&again), before);
    assert_eq!(checkouts(&mut again), sizes);

    // Snapshot + tail: the commits after the checkpoint are placed by a
    // maintainer resumed from the snapshot.
    recovery::checkpoint(&mut again).expect("checkpoint");
    diverge(&mut again, 6);
    seed_and_commit_on_existing(&mut again);
    let (before, sizes) = (layout(&again), checkouts(&mut again));
    drop(again);
    let mut third = recovery::open(&dir).expect("reopen from snapshot + log");
    assert_eq!(layout(&third), before);
    assert_eq!(checkouts(&mut third), sizes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkout → commit cycle against an already-seeded `grades` CVD.
fn seed_and_commit_on_existing(odb: &mut OrpheusDB) -> Vid {
    odb.execute(Checkout::of("grades").version(1u64).into_table("w").into())
        .expect("checkout");
    match odb
        .execute(Commit::table("w").message("reattached").into())
        .expect("commit")
    {
        Response::Committed { version, .. } => version,
        other => panic!("expected Committed, got {other:?}"),
    }
}

#[test]
fn bit_flip_mid_log_is_a_typed_error_not_a_panic() {
    let dir = tmp_dir("flip");
    let mut odb = recovery::open(&dir).expect("open fresh");
    seed_and_commit(&mut odb); // two records: init + commit
    drop(odb);

    // Flip one byte inside the FIRST record's payload — mid-file
    // corruption, not a torn tail, so recovery must refuse loudly.
    let path = wal::segment_path(&dir, 1);
    let mut bytes = std::fs::read(&path).unwrap();
    let idx = wal::HEADER_LEN as usize + 8 + 4;
    bytes[idx] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    match recovery::open(&dir) {
        Err(CoreError::Protocol(msg)) => {
            assert!(msg.contains("checksum"), "unexpected message: {msg}")
        }
        other => panic!("expected a Protocol error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_and_async_sessions_recover_identically() {
    let dir = tmp_dir("shared");
    {
        let shared = recovery::open_shared(&dir).expect("open fresh");
        let mut alice = shared.session("alice").expect("session");
        alice
            .execute(
                Init::cvd("grades")
                    .schema(schema())
                    .rows(rows(5))
                    .model(ModelKind::SplitByRlist)
                    .into(),
            )
            .expect("init");
        // Drive a second CVD through the async executor: coordinator +
        // worker pool, the service stack's execution path.
        let pool = AsyncExecutor::new(shared.clone());
        let mut bob = pool.handle("bob").expect("handle");
        bob.execute(
            Init::cvd("marks")
                .schema(schema())
                .rows(rows(3))
                .model(ModelKind::SplitByRlist)
                .into(),
        )
        .expect("init via async");
        bob.execute(Checkout::of("marks").version(1u64).into_table("mw").into())
            .expect("checkout");
        bob.execute(Commit::table("mw").message("async commit").into())
            .expect("commit");
        drop(pool);
    } // dropped without any snapshot save

    let again = recovery::open(&dir).expect("reopen");
    assert_eq!(again.ls(), vec!["grades".to_string(), "marks".to_string()]);
    assert_eq!(again.cvd("grades").unwrap().num_versions(), 1);
    assert_eq!(again.cvd("marks").unwrap().num_versions(), 2);
    // Commit ownership replays under the recorded identity.
    let log = again.log_entries("marks").expect("log");
    assert_eq!(log.last().unwrap().message, "async commit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_stress_many_commits_across_checkpoints() {
    let rounds = 8 * stress_factor();
    let dir = tmp_dir("stress");
    let mut odb = recovery::open(&dir).expect("open fresh");
    odb.execute(
        Init::cvd("grades")
            .schema(schema())
            .rows(rows(8))
            .model(ModelKind::SplitByRlist)
            .into(),
    )
    .expect("init");
    for i in 0..rounds {
        let table = format!("w{i}");
        odb.execute(
            Checkout::of("grades")
                .version(1u64)
                .into_table(&table)
                .into(),
        )
        .expect("checkout");
        odb.execute(Commit::table(&table).message(format!("round {i}")).into())
            .expect("commit");
        if i % 3 == 2 {
            recovery::checkpoint(&mut odb).expect("checkpoint");
        }
    }
    let before = graph(&odb, "grades");
    drop(odb);

    let again = recovery::open(&dir).expect("reopen");
    assert_eq!(graph(&again, "grades"), before);
    assert_eq!(again.cvd("grades").unwrap().num_versions(), rounds + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_and_recreate_replays_cleanly() {
    let dir = tmp_dir("dropcvd");
    let mut odb = recovery::open(&dir).expect("open fresh");
    seed_and_commit(&mut odb);
    odb.execute(DropCvd::named("grades").into()).expect("drop");
    odb.execute(
        Init::cvd("grades")
            .schema(schema())
            .rows(rows(2))
            .model(ModelKind::SplitByRlist)
            .into(),
    )
    .expect("re-init");
    let before = graph(&odb, "grades");
    drop(odb);

    let again = recovery::open(&dir).expect("reopen");
    assert_eq!(graph(&again, "grades"), before);
    assert_eq!(again.cvd("grades").unwrap().num_versions(), 1);
    assert_eq!(
        again.cvd("grades").unwrap().rids_of(Vid(1)).unwrap().len(),
        2
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a reopened instance must reproduce of one CVD: its `log`, its
/// version graph and rlists, and every version's rows.
type Observed = (
    Vec<LogEntry>,
    (Vec<String>, Vec<Vec<i64>>),
    Vec<Vec<(i64, Vec<Value>)>>,
);

fn observe(odb: &mut OrpheusDB, name: &str) -> Observed {
    let log = odb.log_entries(name).expect("log");
    let rows = (1..=log.len() as u64)
        .map(|v| odb.version_rows(name, Vid(v)).expect("version rows"))
        .collect();
    (log, graph(odb, name), rows)
}

/// Run `setup` then `commit` on a fresh WAL directory and demand the live
/// state back twice: reopened from the log alone, and — on a second
/// directory — from a checkpoint cut between the two plus the log's tail.
fn replays_like_the_live_commit(
    tag: &str,
    setup: impl Fn(&mut OrpheusDB),
    commit: impl Fn(&mut OrpheusDB),
) -> Observed {
    let mut live = Vec::new();
    for checkpoint in [false, true] {
        let dir = tmp_dir(&format!("{tag}-{checkpoint}"));
        let mut odb = recovery::open(&dir).expect("open fresh");
        setup(&mut odb);
        if checkpoint {
            recovery::checkpoint(&mut odb).expect("checkpoint");
        }
        commit(&mut odb);
        let before = observe(&mut odb, "grades");
        drop(odb);
        let mut again = recovery::open(&dir).expect("reopen");
        assert_eq!(
            observe(&mut again, "grades"),
            before,
            "{tag}: replay diverged (checkpoint first: {checkpoint})"
        );
        let _ = std::fs::remove_dir_all(&dir);
        live.push(before);
    }
    assert_eq!(
        live[0], live[1],
        "{tag}: the checkpoint changed the outcome"
    );
    live.pop().unwrap()
}

/// `grades` with six records: ids 0..5 under rids 1..=6.
fn seed(odb: &mut OrpheusDB) {
    odb.execute(
        Init::cvd("grades")
            .schema(schema())
            .rows(rows(6))
            .model(ModelKind::SplitByRlist)
            .into(),
    )
    .expect("init");
}

/// Check out `versions` as `w`, run `edits` on it and commit.
fn edit_and_commit(odb: &mut OrpheusDB, versions: &[u64], edits: &[&str]) {
    odb.execute(
        Checkout::of("grades")
            .versions(versions.iter().copied())
            .into_table("w")
            .into(),
    )
    .expect("checkout");
    for sql in edits {
        odb.execute(Run::sql(*sql).into()).expect(sql);
    }
    odb.execute(Commit::table("w").message("edit").into())
        .expect("commit");
}

#[test]
fn a_rid_kept_twice_replays_with_both_occurrences() {
    // id 1 is rid 2: a second, identical staged row keeps that rid again.
    let (_, (_, rlists), _) = replays_like_the_live_commit("twice", seed, |odb| {
        edit_and_commit(odb, &[1], &["INSERT INTO w VALUES (2, 1, 10)"])
    });
    assert_eq!(rlists[1], vec![1, 2, 2, 3, 4, 5, 6]);
}

#[test]
fn a_merge_that_adopts_rids_from_the_second_parent_replays() {
    let (_, (_, rlists), _) = replays_like_the_live_commit(
        "merge",
        |odb| {
            seed(odb);
            edit_and_commit(
                odb,
                &[1],
                &[
                    "DELETE FROM w WHERE id >= 4",
                    "INSERT INTO w (id, grade) VALUES (9, 90)",
                ],
            );
        },
        // v2 dropped rids 5 and 6; the merge keeps them from v1.
        |odb| edit_and_commit(odb, &[2, 1], &[]),
    );
    assert_eq!(rlists[2], vec![1, 2, 3, 4, 5, 6, 7]);
}

#[test]
fn a_schema_changing_commit_replays() {
    let (log, _, rows) = replays_like_the_live_commit("evolve", seed, |odb| {
        edit_and_commit(
            odb,
            &[1],
            &[
                "ALTER TABLE w ADD COLUMN note INT",
                "ALTER TABLE w ALTER COLUMN grade TYPE DOUBLE",
                "UPDATE w SET note = 7 WHERE id = 2",
            ],
        )
    });
    assert_eq!(log.len(), 2);
    assert!(rows[1]
        .iter()
        .any(|(_, v)| v == &vec![2.into(), Value::Double(20.0), 7.into()]));
}

#[test]
fn a_csv_commit_replays() {
    replays_like_the_live_commit("csv", seed, |odb| {
        let text = odb
            .checkout_csv("grades", &[Vid(1)], "grades.csv")
            .expect("checkout -f");
        let edited: String = text
            .lines()
            .filter(|line| !line.starts_with("3,"))
            .map(|line| format!("{line}\n"))
            .collect::<String>()
            + ",42,420\n";
        odb.commit_csv("grades.csv", &edited, "from csv", None)
            .expect("commit -f");
    });
}

#[test]
fn an_in_place_update_replays() {
    let (_, (_, rlists), _) = replays_like_the_live_commit("update", seed, |odb| {
        edit_and_commit(odb, &[1], &["UPDATE w SET grade = grade + 1 WHERE id < 2"])
    });
    // Two records replaced by fresh ones, four kept.
    assert_eq!(rlists[1], vec![3, 4, 5, 6, 7, 8]);
}

#[test]
fn a_commit_that_deletes_every_row_replays() {
    let (log, (_, rlists), _) = replays_like_the_live_commit("empty", seed, |odb| {
        edit_and_commit(odb, &[1], &["DELETE FROM w"])
    });
    assert_eq!(log[1].num_records, 0);
    assert!(rlists[1].is_empty());
}

/// Check out `version` of `grades` as `w` and write nothing to it: the
/// staged table is a selection over the data table's rows.
fn stage(odb: &mut OrpheusDB, version: u64) {
    odb.execute(
        Checkout::of("grades")
            .version(version)
            .into_table("w")
            .into(),
    )
    .expect("checkout");
}

/// The schema, rows and byte count of the staged table `w`.
fn staged_w(odb: &OrpheusDB) -> (Schema, Vec<Vec<Value>>, usize) {
    let t = odb.engine.table("w").expect("w is staged");
    let rows = t.rows().map(<[Value]>::to_vec).collect();
    ((*t.schema).clone(), rows, t.storage_bytes())
}

/// Committing a checkout nothing wrote to publishes its parent's rlist:
/// every staged row keeps its record. The commit record replays to the
/// same version from the log alone, and from a checkpoint cut while the
/// unwritten checkout was staged plus the log's tail.
#[test]
fn an_unedited_checkout_commits_its_parents_rlist_and_replays() {
    let (log, (_, rlists), rows) = replays_like_the_live_commit(
        "unedited",
        |odb| {
            seed(odb);
            edit_and_commit(odb, &[1], &["DELETE FROM w WHERE id = 2"]);
            stage(odb, 2);
        },
        |odb| {
            odb.execute(Commit::table("w").message("as is").into())
                .expect("commit");
        },
    );
    assert_eq!(log.len(), 3);
    assert_eq!(rlists[2], rlists[1]);
    assert_eq!(rlists[1], vec![1, 2, 4, 5, 6]);
    assert_eq!(rows[2], rows[1]);
}

/// A checkpoint cut while an unwritten checkout is staged stores its rows
/// as they read: the reopened instance holds the same schema, rows and
/// bytes under the staged name, and committing it publishes the parent's
/// rlist as the live commit would.
#[test]
fn a_checkpoint_reloads_an_unwritten_checkout_row_for_row() {
    let dir = tmp_dir("staged-selection");
    let mut odb = recovery::open(&dir).expect("open fresh");
    seed(&mut odb);
    edit_and_commit(
        &mut odb,
        &[1],
        &[
            "DELETE FROM w WHERE id >= 4",
            "INSERT INTO w (id, grade) VALUES (9, 90)",
        ],
    );
    stage(&mut odb, 2);
    let live = staged_w(&odb);
    assert_eq!(live.1.len(), 5);
    recovery::checkpoint(&mut odb).expect("checkpoint");
    assert_eq!(staged_w(&odb), live, "the checkpoint moved the staged rows");
    drop(odb);

    let mut again = recovery::open(&dir).expect("reopen");
    assert_eq!(staged_w(&again), live);
    again
        .execute(Commit::table("w").message("as is").into())
        .expect("commit");
    let cvd = again.cvd("grades").unwrap();
    assert_eq!(cvd.rids_of(Vid(3)).unwrap(), cvd.rids_of(Vid(2)).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// In every data model, a commit of an unwritten checkout publishes the
/// parent's rlist and the parent's records.
#[test]
fn an_unedited_checkout_commits_its_parents_rlist_in_every_model() {
    for model in ModelKind::ALL {
        let mut odb = OrpheusDB::new();
        odb.execute(
            Init::cvd("grades")
                .schema(schema())
                .rows(rows(100))
                .model(model)
                .into(),
        )
        .expect("init");
        edit_and_commit(
            &mut odb,
            &[1],
            &[
                "DELETE FROM w WHERE id % 3 = 0",
                "UPDATE w SET grade = -1 WHERE id % 5 = 0",
            ],
        );
        stage(&mut odb, 2);
        odb.execute(Commit::table("w").message("as is").into())
            .expect("commit");
        let cvd = odb.cvd("grades").unwrap();
        assert_eq!(
            cvd.rids_of(Vid(3)).unwrap(),
            cvd.rids_of(Vid(2)).unwrap(),
            "{model:?}"
        );
        assert_eq!(
            odb.version_rows("grades", Vid(3)).unwrap(),
            odb.version_rows("grades", Vid(2)).unwrap(),
            "{model:?}"
        );
    }
}

/// A commit record whose delta does not fit the recovered parents is
/// corruption: reopening refuses it with a typed `Protocol` error.
#[test]
fn a_hostile_delta_is_a_typed_error_on_reopen() {
    type Corruption = fn(&mut CommitRecord);
    let hostile: [(&str, Corruption); 4] = [
        // v2 replaced rid 2 (id 1): v1 holds it, the first parent v2 not.
        ("dropped", |c| c.dropped = vec![2]),
        ("adopted", |c| c.adopted = vec![999]),
        ("width", |c| c.new_rows[0].push(Value::Int(0))),
        ("parent", |c| c.parents.push(Vid(99))),
    ];
    for (tag, corrupt) in hostile {
        let dir = tmp_dir(&format!("hostile-{tag}"));
        let mut odb = recovery::open(&dir).expect("open fresh");
        seed(&mut odb);
        edit_and_commit(&mut odb, &[1], &["UPDATE w SET grade = 0 WHERE id = 1"]);
        edit_and_commit(
            &mut odb,
            &[2],
            &[
                "DELETE FROM w WHERE id = 5",
                "INSERT INTO w (id, grade) VALUES (7, 70)",
            ],
        );
        drop(odb);

        // Rewrite the last commit record in place.
        let path = wal::segment_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        let mut records = read_segment(&path, 1).unwrap().records;
        match &mut records.last_mut().unwrap().op {
            WalOp::Commit(c) => corrupt(c),
            other => panic!("the last record is the commit, not {other:?}"),
        }
        let mut rewritten = bytes[..wal::HEADER_LEN as usize].to_vec();
        for record in &records {
            let payload = record.encode();
            rewritten.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            rewritten.extend_from_slice(&crc32(&payload).to_le_bytes());
            rewritten.extend_from_slice(&payload);
        }
        std::fs::write(&path, rewritten).unwrap();

        match recovery::open(&dir) {
            Err(CoreError::Protocol(msg)) => assert!(msg.contains("WAL commit record"), "{msg}"),
            other => panic!("{tag}: expected a Protocol error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

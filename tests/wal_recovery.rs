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

use orpheusdb::core::wal::{self, read_segment};
use orpheusdb::core::{recovery, CoreError};
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

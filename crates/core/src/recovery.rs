//! Crash recovery: open a WAL directory back into a live instance, and
//! checkpoint live instances into fresh generations.
//!
//! # Opening
//!
//! [`open`] reads the `CURRENT` pointer, loads that generation's
//! snapshot with [`crate::persist::load`], scans its log segment with
//! [`crate::wal::read_segment`], and re-applies every record on top of
//! the snapshot. A torn tail (the unfinished last append of a crashed
//! process) is truncated away; its operation was never acknowledged, so
//! dropping it is correct. Replay pins the logical clock to each
//! record's `clock_before` and runs the op under the recorded identity,
//! so the recovered instance is bit-for-bit the acknowledged pre-crash
//! state — version graphs, rlists, and logical timestamps included.
//!
//! A fresh (empty) directory is initialized as generation 1: an empty
//! snapshot, an empty segment, then `CURRENT` — in that order, so a
//! crash mid-initialization is indistinguishable from no directory.
//!
//! # Checkpoints
//!
//! [`checkpoint`] writes generation `g+1`: snapshot (atomic rename via
//! the engine's `write_atomically`), new empty segment, then the
//! `CURRENT` flip — which is the commit point. Only after `CURRENT` is
//! durable does the sink switch segments and delete generation `g`. A
//! crash at *any* interior point leaves `CURRENT` naming a complete
//! generation; stale files from an abandoned checkpoint — other
//! generations' snapshots and segments, and the temp files of a snapshot
//! or `CURRENT` write that never got renamed — are swept on the next
//! [`open`]. The snapshot is streamed to its temp file
//! ([`crate::persist::save`]), so a checkpoint's extra memory is a 64 KiB
//! write buffer, not a copy of the instance. Checkpointing requires
//! exclusive access, which is what makes the snapshot/segment boundary an
//! exact cut of the operation stream: `&mut`, or for a shared instance
//! [`SharedOrpheusDB::write`] — one shard transaction that holds the
//! catalog lock exclusively and every shard's lock, and writes a merge of
//! O(tables) clones of their states. It moves no shard's state, so the
//! reservations of statements in flight survive a checkpoint.
//!
//! # What is durable
//!
//! Everything that flows through the command bus is WAL-durable:
//! init/drop, commits (logged as their delta — see
//! [`crate::wal::CommitRecord`]), discard, optimize, create_user/login.
//! Staged *edits* — raw SQL against checkout tables — live in engine
//! heaps and become durable when the commit happens (the record carries
//! what they changed) or at the next checkpoint (snapshots include staged
//! tables); a crash between checkout and commit can therefore lose
//! uncommitted edits, exactly like losing a working copy. Direct
//! mutation of a shared instance via
//! [`SharedOrpheusDB::write`] closures bypasses the bus and is
//! checkpoint-durable only.

use std::path::Path;

use crate::concurrent::SharedOrpheusDB;
use crate::db::OrpheusDB;
use crate::error::{CoreError, Result};
use crate::persist;
use crate::request::{Executor, Request};
use crate::wal::{self, WalOp, WalRecord, WalSink};

/// Open (or create) a WAL-backed instance from `dir`.
pub fn open(dir: &Path) -> Result<OrpheusDB> {
    std::fs::create_dir_all(dir).map_err(|e| {
        CoreError::Storage(format!(
            "cannot create WAL directory {}: {e}",
            dir.display()
        ))
    })?;
    let gen = match wal::read_current(dir)? {
        Some(gen) => gen,
        None => {
            // Fresh directory: persist an empty generation 1 before
            // CURRENT names it.
            let fresh = OrpheusDB::new();
            persist::save(&fresh, &wal::snapshot_path(dir, 1))?;
            wal::create_segment(dir, 1, 0)?;
            wal::write_current(dir, 1)?;
            1
        }
    };
    let mut odb = persist::load(&wal::snapshot_path(dir, gen))?;
    let scan = wal::read_segment(&wal::segment_path(dir, gen), gen)?;
    let next_seq = scan.base_seq + scan.records.len() as u64 + 1;
    let valid_len = scan.valid_len;
    for record in scan.records {
        apply(&mut odb, record)?;
    }
    // Belt and braces: never let the logical clock run behind a
    // timestamp that is already persisted.
    odb.clock = odb.clock.max(max_timestamp(&odb));
    odb.wal = Some(WalSink::attach(dir, gen, valid_len, next_seq)?);
    sweep_stale(dir, gen);
    Ok(odb)
}

/// Open a WAL directory straight into a shared (concurrent) instance.
/// The sink travels into every shard, so appends happen inside shard
/// locks and catalog mutations log under the catalog lock.
pub fn open_shared(dir: &Path) -> Result<SharedOrpheusDB> {
    Ok(SharedOrpheusDB::new(open(dir)?))
}

/// Write a checkpoint: snapshot the instance as generation `g+1`,
/// rotate the log, and delete generation `g`. Returns the new
/// generation. The `&mut` receiver is the quiesce guarantee — no
/// operation can apply or append while the cut is taken.
pub fn checkpoint(odb: &mut OrpheusDB) -> Result<u64> {
    let sink = odb
        .wal
        .clone()
        .ok_or_else(|| CoreError::Storage("no write-ahead log attached".into()))?;
    let dir = sink.dir().to_path_buf();
    let old_gen = sink.generation();
    let new_gen = old_gen + 1;
    if sink.fault_fires("rotate") {
        // A rotate fault fails the checkpoint before it writes anything:
        // the old generation keeps serving (and a degraded sink stays
        // degraded — recovery needs a disk that works again).
        return Err(CoreError::Storage(format!(
            "checkpoint of {} failed: injected I/O fault (rotate)",
            dir.display()
        )));
    }
    wal::kill_here("pre-snapshot");
    persist::save(odb, &wal::snapshot_path(&dir, new_gen))?;
    wal::create_segment(&dir, new_gen, sink.next_seq() - 1)?;
    wal::kill_here("pre-current");
    wal::write_current(&dir, new_gen)?;
    wal::kill_here("post-current");
    sink.switch_to(new_gen)?;
    // The old generation is now unreachable; removal is best-effort
    // (open() sweeps leftovers).
    let _ = std::fs::remove_file(wal::snapshot_path(&dir, old_gen));
    let _ = std::fs::remove_file(wal::segment_path(&dir, old_gen));
    Ok(new_gen)
}

/// Checkpoint a shared instance in one shard transaction over every
/// shard ([`SharedOrpheusDB::write`]).
pub fn checkpoint_shared(shared: &SharedOrpheusDB) -> Result<u64> {
    shared.write(checkpoint)
}

/// Checkpoint if the live segment has outgrown the threshold
/// ([`wal::WalSink::should_checkpoint`]). Returns the new generation if
/// one was cut. A degraded sink is skipped: leaving degraded mode is an
/// *operator* decision (an explicit [`checkpoint`]), not something a
/// background ticker should do silently the moment the disk answers
/// again.
pub fn maybe_checkpoint(odb: &mut OrpheusDB) -> Result<Option<u64>> {
    match &odb.wal {
        Some(sink) if !sink.is_degraded() && sink.should_checkpoint() => checkpoint(odb).map(Some),
        _ => Ok(None),
    }
}

/// [`maybe_checkpoint`] for a shared instance: peeks at the sink without
/// quiescing, and only takes the write lock when a checkpoint is due.
pub fn maybe_checkpoint_shared(shared: &SharedOrpheusDB) -> Result<Option<u64>> {
    match shared.wal_sink() {
        Some(sink) if !sink.is_degraded() && sink.should_checkpoint() => {
            shared.write(checkpoint).map(Some)
        }
        _ => Ok(None),
    }
}

/// Re-apply one log record. The clock is pinned to the recorded value
/// and the op runs under the recorded identity, mirroring the live
/// apply exactly.
fn apply(odb: &mut OrpheusDB, record: WalRecord) -> Result<()> {
    odb.clock = record.clock_before;
    // A logged Login *is* an identity change — applying it under the
    // recorded identity and then restoring would undo it.
    if let WalOp::Request(Request::Login(_)) = &record.op {
        return apply_op(odb, record.op);
    }
    let prior = odb.access.whoami().to_string();
    odb.access.ensure_user(&record.user)?;
    odb.access.login(&record.user)?;
    let outcome = apply_op(odb, record.op);
    let _ = odb.access.login(&prior);
    outcome
}

fn apply_op(odb: &mut OrpheusDB, op: WalOp) -> Result<()> {
    match op {
        WalOp::Commit(commit) => match odb.replay_commit(commit) {
            // The CVD was dropped concurrently after the commit applied
            // live (the drop's record follows in the log, or the drop
            // won the race to the log). Either way the commit's effects
            // were discarded live too.
            Err(CoreError::CvdNotFound(_)) => Ok(()),
            other => other.map(|_| ()),
        },
        WalOp::Request(request) => {
            let shard_scoped = matches!(request, Request::Optimize(_) | Request::Discard(_));
            match odb.execute(request) {
                // Same drop race as above: shard-scoped ops tolerate
                // their target having vanished.
                Err(CoreError::CvdNotFound(_) | CoreError::NotStaged(_)) if shard_scoped => Ok(()),
                other => other.map(|_| ()),
            }
        }
    }
}

/// Largest logical timestamp persisted anywhere in the instance.
fn max_timestamp(odb: &OrpheusDB) -> u64 {
    let mut max = 0;
    for cvd in odb.cvds.values() {
        for v in &cvd.versions {
            max = max.max(v.commit_t).max(v.checkout_t.unwrap_or(0));
        }
    }
    for entry in odb.staging.list() {
        max = max.max(entry.created_at);
    }
    max
}

/// Remove snapshot/segment files from other generations (leftovers of a
/// checkpoint that crashed before or after its `CURRENT` flip), and the
/// temp files of snapshot and `CURRENT` writes a killed process never
/// renamed: `.snapshot-*.orpheus.tmp.*` and `.CURRENT.tmp.*`, each a
/// full-size snapshot or a stray pointer that nothing else deletes.
fn sweep_stale(dir: &Path, live_gen: u64) {
    let keep = [
        wal::segment_path(dir, live_gen),
        wal::snapshot_path(dir, live_gen),
    ];
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let generation = (name.starts_with("wal-") && name.ends_with(".log"))
            || (name.starts_with("snapshot-") && name.ends_with(".orpheus"));
        let temp = name.starts_with(".CURRENT.tmp.")
            || (name.starts_with(".snapshot-") && name.contains(".orpheus.tmp."));
        if temp || (generation && !keep.contains(&path)) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Init, Request};
    use orpheus_engine::{Column, DataType, Schema, Value};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("orpheus-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("grape", DataType::Text),
        ])
    }

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (1..=n)
            .map(|i| vec![Value::Int(i), Value::Text(format!("g{i}"))])
            .collect()
    }

    #[test]
    fn fresh_open_reopen_empty() {
        let dir = temp_dir("fresh");
        let odb = open(&dir).unwrap();
        assert!(odb.wal.is_some());
        drop(odb);
        let again = open(&dir).unwrap();
        assert_eq!(again.ls().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn init_and_commit_survive_reopen() {
        let dir = temp_dir("basic");
        {
            let mut odb = open(&dir).unwrap();
            odb.execute(Request::Init(Init {
                cvd: "wines".into(),
                schema: schema(),
                rows: rows(3),
                model: None,
            }))
            .unwrap();
            odb.checkout("wines", &[crate::ids::Vid(1)], "work")
                .unwrap();
            odb.engine
                .execute("INSERT INTO work (id, grape) VALUES (4, 'syrah')")
                .unwrap();
            odb.commit("work", "add syrah").unwrap();
        }
        let reopened = open(&dir).unwrap();
        let cvd = reopened.cvd("wines").unwrap();
        assert_eq!(cvd.num_versions(), 2);
        assert_eq!(cvd.rids_of(crate::ids::Vid(2)).unwrap().len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_matches_live_instance_exactly() {
        let dir = temp_dir("exact");
        let live = {
            let mut odb = open(&dir).unwrap();
            odb.execute(Request::Init(Init {
                cvd: "wines".into(),
                schema: schema(),
                rows: rows(5),
                model: None,
            }))
            .unwrap();
            odb.checkout("wines", &[crate::ids::Vid(1)], "w1").unwrap();
            odb.engine.execute("DELETE FROM w1 WHERE id > 3").unwrap();
            odb.commit("w1", "trim").unwrap();
            odb.checkout("wines", &[crate::ids::Vid(1), crate::ids::Vid(2)], "w2")
                .unwrap();
            odb.commit("w2", "merge").unwrap();
            odb
        };
        let replayed = open(&dir).unwrap();
        let a = live.cvd("wines").unwrap();
        let b = replayed.cvd("wines").unwrap();
        assert_eq!(a.versions, b.versions);
        assert_eq!(a.version_rids, b.version_rids);
        assert_eq!(live.clock, replayed.clock);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotates_and_reopens() {
        let dir = temp_dir("ckpt");
        {
            let mut odb = open(&dir).unwrap();
            odb.execute(Request::Init(Init {
                cvd: "wines".into(),
                schema: schema(),
                rows: rows(2),
                model: None,
            }))
            .unwrap();
            let gen = checkpoint(&mut odb).unwrap();
            assert_eq!(gen, 2);
            // Old generation files are gone; new ones exist.
            assert!(!wal::segment_path(&dir, 1).exists());
            assert!(wal::segment_path(&dir, 2).exists());
            assert!(wal::snapshot_path(&dir, 2).exists());
            // Post-checkpoint mutations land in the new segment.
            odb.checkout("wines", &[crate::ids::Vid(1)], "work")
                .unwrap();
            odb.commit("work", "post-checkpoint").unwrap();
        }
        let reopened = open(&dir).unwrap();
        assert_eq!(reopened.cvd("wines").unwrap().num_versions(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A killed process can leave the temp file of a snapshot or `CURRENT`
    /// write behind; opening the directory removes them, and the live
    /// generation still opens whole.
    #[test]
    fn open_sweeps_temp_files_a_killed_save_left() {
        let dir = temp_dir("sweep-temp");
        {
            let mut odb = open(&dir).unwrap();
            odb.execute(Request::Init(Init {
                cvd: "wines".into(),
                schema: schema(),
                rows: rows(3),
                model: None,
            }))
            .unwrap();
            assert_eq!(checkpoint(&mut odb).unwrap(), 2);
        }
        let planted = [
            ".snapshot-000003.orpheus.tmp.4242.0",
            ".snapshot-000002.orpheus.tmp.17.3",
            ".CURRENT.tmp.4242.1",
        ];
        for name in planted {
            std::fs::write(dir.join(name), b"half a file").unwrap();
        }
        let reopened = open(&dir).unwrap();
        assert_eq!(reopened.cvd("wines").unwrap().num_versions(), 1);
        for name in planted {
            assert!(!dir.join(name).exists(), "{name} survived the open");
        }
        assert!(wal::snapshot_path(&dir, 2).exists());
        assert!(wal::segment_path(&dir, 2).exists());
        assert_eq!(wal::read_current(&dir).unwrap(), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_commit_leaves_no_record() {
        let dir = temp_dir("failed-commit");
        {
            let mut odb = open(&dir).unwrap();
            odb.execute(Request::Init(Init {
                cvd: "wines".into(),
                schema: schema(),
                rows: rows(2),
                model: None,
            }))
            .unwrap();
            // Committing a table that was never checked out fails live
            // and therefore must not be logged.
            assert!(odb.commit("nope", "bad").is_err());
            let seq_after = odb.wal.as_ref().unwrap().next_seq();
            // Only the init record landed (seq 1); next is 2.
            assert_eq!(seq_after, 2);
        }
        let reopened = open(&dir).unwrap();
        assert_eq!(reopened.cvd("wines").unwrap().num_versions(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

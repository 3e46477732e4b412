//! The write-ahead log: durable records of every mutating operation.
//!
//! OrpheusDB keeps all state in memory and snapshots it with
//! [`crate::persist`]; before this module, a crash between snapshots lost
//! every commit since the last save. The WAL closes that window with the
//! classic logical-logging contract:
//!
//! 1. The operation is applied in memory (so its outcome — including a
//!    rejection — is known).
//! 2. On success, a record describing the operation is appended to the
//!    current log segment and **fsync'd before the call returns**. Only
//!    then is the operation acknowledged to the caller.
//! 3. On reopen, [`crate::recovery::open`] loads the latest snapshot and
//!    re-applies the log's records on top. Failed operations were never
//!    logged, so a failed commit can never resurface after a crash
//!    (PR 4's in-memory commit rollback is thereby durable).
//!
//! # On-disk layout
//!
//! A WAL directory holds *generations*. Generation `g` is one snapshot
//! (`snapshot-<g>.orpheus`, written by [`crate::persist::save`]) plus one
//! log segment (`wal-<g>.log`) containing everything applied since that
//! snapshot. The `CURRENT` file names the live generation and is updated
//! with an atomic rename, so a crash mid-checkpoint leaves the previous
//! generation intact and complete.
//!
//! A segment is a fixed 32-byte header (magic, format version,
//! generation, base sequence number, header CRC) followed by framed
//! records. Each frame is `[u32 len][u32 crc32(payload)][payload]` — the
//! same length-prefixed, checksummed idiom as the TCP wire protocol, and
//! the payload reuses the [`crate::codec`] vocabulary outright (a
//! [`WalOp::Request`] embeds an encoded [`Request`]). A record payload
//! carries `(seq, clock_before, user, op)`: `seq` is a monotonically
//! increasing sequence number (contiguous across generations), and
//! `clock_before` pins the instance's logical clock before replay of the
//! op, which makes recovered `commit_t`/`checkout_t` timestamps
//! bit-identical to the pre-crash instance.
//!
//! # Commit records
//!
//! A commit is logged as its delta, not as the version it produced
//! ([`CommitRecord`]). Besides the parents, owner, staged schema, message
//! and vid, a record carries the kept set — the rids dropped from the
//! first parent's rlist plus the rids adopted beyond it — and only the
//! rows that got fresh rids. CSV commits and schema-changing commits log
//! the same shape. Replay validates the delta against the recovered
//! parents (a dropped rid the first parent lacks, an adopted rid no parent
//! holds or a new row of the wrong width is a [`CoreError::Protocol`]) and
//! feeds it into the code the live commit ran after classifying its staged
//! rows, so nothing is classified twice. A ~20-row edit of a ~870-row
//! version (the ledger's `commit_durable` commit) logs ~2.6 KB instead of
//! the ~100 KB of its whole staged table, so the default 4 MiB checkpoint
//! threshold now holds roughly 40× more commits. Segments of format version 1, which logged whole staged
//! tables, are refused by name ([`WAL_VERSION`]).
//!
//! # Torn tails vs. corruption
//!
//! Appends are sequential, so a crash can only damage the *end* of the
//! live segment. [`read_segment`] therefore treats an incomplete final
//! frame (file ends inside a frame header or payload, or the checksum of
//! the very last frame fails) as a **torn tail**: the damaged suffix is
//! ignored and truncated away on reattach, and replay keeps everything
//! before it. Anything else — a bad checksum *followed by more data*, a
//! hostile length, an undecodable payload, a broken header — cannot come
//! from a torn append and is reported as a typed [`CoreError::Protocol`]
//! / [`CoreError::Storage`] error, never a panic.
//!
//! # Fault-injection hooks
//!
//! [`arm_kill`]`(point, n)` makes the process abort at the `n`-th
//! crossing of a named kill point (`pre-append`, `torn-append`,
//! `post-append`, `pre-snapshot`, `pre-current`, `post-current`). The
//! `torn-append` point writes *half* a frame and syncs it first, which
//! simulates exactly the torn write the recovery path must survive.
//! Nothing in a production process calls it: the `fault_storm` bench's
//! server process arms it from its argv, and the CI `fault-storm` job
//! drives every point (plus plain `kill -9`) and verifies the reopened
//! instance against what each client was told.
//!
//! Kill points model a dying *process*; [`WalSink::arm_fault`] models a
//! dying *disk*: the `n`-th crossing of a named fault point (`append`,
//! `fsync`, `rotate`) fails with an injected I/O error instead of
//! aborting. Both arm the same [`IoFaultInjector`], which fires exactly
//! once. An `append`/`fsync` failure — injected or real — flips the sink
//! into **degraded mode**: the failing operation
//! returns [`CoreError::Degraded`] to its caller (never an ack, never a
//! panic), and every later mutation is refused up front by
//! [`crate::db::OrpheusDB`] before touching memory, while reads and
//! checkouts keep serving. Recovery is explicit: a successful
//! [`crate::recovery::checkpoint`] snapshots the full in-memory state
//! onto a fresh generation and the private `WalSink::switch_to` clears the
//! degraded flag. A `rotate` fault fails the checkpoint itself and
//! leaves the previous generation serving.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use orpheus_engine::storage::{
    crc32, fsync_dir, put_i64, put_schema, put_str, put_u32, put_u64, read_schema, write_atomically,
};
use orpheus_engine::{Schema, Value};

use crate::codec::{self, Reader};
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::request::Request;
use crate::staging::StagedKind;

/// Magic bytes opening every segment file.
const MAGIC: &[u8; 8] = b"ORPHWAL\0";

/// Segment format version. Bump together with any payload layout change
/// (the payloads share [`crate::codec`] with the wire protocol, so a
/// codec change bumps both this and `orpheus-net`'s `PROTOCOL_VERSION`).
/// Version 1 logged a commit as its whole staged table; version 2 logs
/// its delta ([`CommitRecord`]). A segment of any other version is
/// refused by name: there is one record shape and one replay path.
pub const WAL_VERSION: u32 = 2;

/// Fixed size of the segment header.
pub const HEADER_LEN: u64 = 32;

/// Upper bound on one record's payload. Frames claiming more are
/// corruption (a torn append cannot fabricate a length — it can only cut
/// a frame short), so larger lengths are a typed error, not a torn tail.
pub const MAX_RECORD: u32 = 1 << 28;

/// Log-segment size that makes [`WalSink::should_checkpoint`] report
/// true (4 MiB).
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 4 << 20;

// ---------------------------------------------------------------------------
// Kill points (fault injection)
// ---------------------------------------------------------------------------

/// The process's armed kill point, if any (see [`arm_kill`]).
static KILL: OnceLock<IoFaultInjector> = OnceLock::new();

/// Crash-harness hook: abort the process on the `n`-th crossing of the
/// named kill point (`pre-append`, `torn-append`, `post-append`,
/// `pre-snapshot`, `pre-current`, `post-current`). A process arms at
/// most one kill point; later calls are ignored.
#[doc(hidden)]
pub fn arm_kill(point: &str, n: u64) {
    let _ = KILL.set(IoFaultInjector::new(point, n));
}

/// True exactly once: on the `n`-th crossing of the armed kill point.
fn kill_armed(point: &str) -> bool {
    KILL.get().is_some_and(|kill| kill.fires(point))
}

/// Abort the process here if the armed kill point says so.
pub(crate) fn kill_here(point: &str) {
    if kill_armed(point) {
        std::process::abort();
    }
}

// ---------------------------------------------------------------------------
// I/O fault points (disk-fault injection)
// ---------------------------------------------------------------------------

/// Fires once, on the `n`-th crossing of one named point. Armed per sink
/// through [`WalSink::arm_fault`], it makes an I/O point (`append`,
/// `fsync`, `rotate`) *fail* with an injected error instead of performing
/// the operation — a dying disk. Armed per process through [`arm_kill`],
/// it aborts at a kill point — a dying process.
#[derive(Debug)]
pub struct IoFaultInjector {
    point: String,
    countdown: AtomicU64,
}

impl IoFaultInjector {
    /// Arm a fault at the `n`-th crossing (`n >= 1`) of `point`.
    pub fn new(point: &str, n: u64) -> IoFaultInjector {
        IoFaultInjector {
            point: point.trim().to_string(),
            countdown: AtomicU64::new(n.max(1)),
        }
    }

    /// True exactly once: on the `n`-th crossing of the armed point.
    fn fires(&self, point: &str) -> bool {
        self.point == point && self.countdown.fetch_sub(1, Ordering::SeqCst) == 1
    }
}

// ---------------------------------------------------------------------------
// Paths and the CURRENT pointer
// ---------------------------------------------------------------------------

/// The `CURRENT` pointer file naming the live generation.
pub fn current_path(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

/// The log segment of generation `gen`.
pub fn segment_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:06}.log"))
}

/// The snapshot of generation `gen`.
pub fn snapshot_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snapshot-{gen:06}.orpheus"))
}

/// Read the live generation, or `None` for a fresh directory.
pub fn read_current(dir: &Path) -> Result<Option<u64>> {
    let path = current_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(CoreError::Storage(format!(
                "cannot read {}: {e}",
                path.display()
            )))
        }
    };
    text.trim().parse::<u64>().map(Some).map_err(|_| {
        CoreError::Protocol(format!(
            "{} does not name a WAL generation: {text:?}",
            path.display()
        ))
    })
}

/// Atomically point `CURRENT` at `gen` (write-tmp + fsync + rename +
/// directory fsync, via the engine's `write_atomically`).
pub fn write_current(dir: &Path, gen: u64) -> Result<()> {
    write_atomically(&current_path(dir), format!("{gen}\n").as_bytes()).map_err(CoreError::from)
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A commit as its delta: what the live commit *did* to its parents, not
/// the version it produced. Staged-table edits happen through raw SQL the
/// log never sees, so the commit's classification is what gets logged:
/// which of the parents' records the new version keeps, and the rows that
/// needed fresh rids. Replay feeds exactly that into the code the live
/// commit ran after classifying, so a 20-row edit of a 1 000-row version
/// logs 20 rows and a few rids.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// Target CVD (normalized key, as stored in the staging entry).
    pub cvd: String,
    /// Staged table name or CSV path being committed.
    pub staged_name: String,
    /// Whether the staged artifact was a table or a CSV file.
    pub kind: StagedKind,
    /// Parent versions, in precedence order.
    pub parents: Vec<Vid>,
    /// Owner of the staged artifact (commits replay under this user).
    pub owner: String,
    /// Logical checkout timestamp of the staged artifact.
    pub created_at: u64,
    /// Schema of the staged data (after any in-place `ALTER`s); replay
    /// plans the same schema evolution from it.
    pub schema: Schema,
    /// Rids of the first parent's rlist the new version does not keep,
    /// sorted. Each cancels one occurrence.
    pub dropped: Vec<i64>,
    /// Rids the new version keeps beyond the first parent's rlist, sorted:
    /// records adopted from another parent, or a second occurrence of a
    /// record a duplicated staged row kept twice.
    pub adopted: Vec<i64>,
    /// The rows that got fresh rids, in the order they got them, each in
    /// the CVD's column order after the commit's schema evolution.
    pub new_rows: Vec<Vec<Value>>,
    /// Commit message.
    pub message: String,
    /// The version id the live commit produced; replay asserts it gets
    /// the same one.
    pub vid: Vid,
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A self-contained command-bus request (init, drop, optimize,
    /// create_user, login, discard, ...), replayed through
    /// [`crate::Executor::execute`].
    Request(Request),
    /// A commit, as its delta.
    Commit(CommitRecord),
}

/// One log record: `op` was applied by `user` when the instance's
/// logical clock read `clock_before`.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotonic sequence number, contiguous across generations.
    pub seq: u64,
    /// Logical clock value immediately before the op applied; replay
    /// pins the clock to this so recovered timestamps match exactly.
    pub clock_before: u64,
    /// Identity the op ran under.
    pub user: String,
    /// The operation itself.
    pub op: WalOp,
}

const OP_REQUEST: u8 = 1;
const OP_COMMIT: u8 = 2;
const KIND_TABLE: u8 = 0;
const KIND_CSV: u8 = 1;

/// Append a record payload — `(seq, clock_before, user, op)` — to `out`,
/// from borrowed fields: the sink frames an op without copying it.
fn put_payload(out: &mut Vec<u8>, seq: u64, clock_before: u64, user: &str, op: &WalOp) {
    put_u64(out, seq);
    put_u64(out, clock_before);
    put_str(out, user);
    match op {
        WalOp::Request(request) => {
            out.push(OP_REQUEST);
            codec::put_request(out, request);
        }
        WalOp::Commit(c) => {
            out.push(OP_COMMIT);
            put_str(out, &c.cvd);
            put_str(out, &c.staged_name);
            out.push(match c.kind {
                StagedKind::Table => KIND_TABLE,
                StagedKind::Csv => KIND_CSV,
            });
            codec::put_vids(out, &c.parents);
            put_str(out, &c.owner);
            put_u64(out, c.created_at);
            put_schema(out, &c.schema);
            put_rids(out, &c.dropped);
            put_rids(out, &c.adopted);
            codec::put_rows(out, &c.new_rows);
            put_str(out, &c.message);
            put_u64(out, c.vid.0);
        }
    }
}

/// A rid list: a `u32` count, then the rids.
fn put_rids(out: &mut Vec<u8>, rids: &[i64]) {
    put_u32(out, rids.len() as u32);
    for &rid in rids {
        put_i64(out, rid);
    }
}

fn read_rids(r: &mut Reader<'_>) -> Result<Vec<i64>> {
    let n = r.count("rid")?;
    Ok(r.u64s(n)?.map(|rid| rid as i64).collect())
}

/// One whole frame, `[len][crc][payload]`, built in a single buffer.
fn encode_frame(seq: u64, clock_before: u64, user: &str, op: &WalOp) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(&[0; 8]);
    put_payload(&mut buf, seq, clock_before, user, op);
    let len = (buf.len() - 8) as u32;
    let crc = crc32(&buf[8..]);
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    buf
}

impl WalRecord {
    /// Encode the record payload (frame header not included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_payload(&mut out, self.seq, self.clock_before, &self.user, &self.op);
        out
    }

    /// Decode one record payload. Every malformation is a typed
    /// [`CoreError::Protocol`] error.
    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let clock_before = r.u64()?;
        let user = r.str()?;
        let op = match r.u8()? {
            OP_REQUEST => WalOp::Request(codec::read_request(&mut r)?),
            OP_COMMIT => {
                let cvd = r.str()?;
                let staged_name = r.str()?;
                let kind = match r.u8()? {
                    KIND_TABLE => StagedKind::Table,
                    KIND_CSV => StagedKind::Csv,
                    other => {
                        return Err(CoreError::Protocol(format!(
                            "unknown staged-artifact kind {other} in WAL commit record"
                        )))
                    }
                };
                let parents = codec::read_vids(&mut r)?;
                let owner = r.str()?;
                let created_at = r.u64()?;
                let schema = read_schema(&mut r)?;
                let dropped = read_rids(&mut r)?;
                let adopted = read_rids(&mut r)?;
                let new_rows = codec::read_rows(&mut r)?;
                let message = r.str()?;
                let vid = Vid(r.u64()?);
                WalOp::Commit(CommitRecord {
                    cvd,
                    staged_name,
                    kind,
                    parents,
                    owner,
                    created_at,
                    schema,
                    dropped,
                    adopted,
                    new_rows,
                    message,
                    vid,
                })
            }
            other => return Err(CoreError::Protocol(format!("unknown WAL op tag {other}"))),
        };
        r.finish("WAL record")?;
        Ok(WalRecord {
            seq,
            clock_before,
            user,
            op,
        })
    }
}

fn encode_header(gen: u64, base_seq: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&gen.to_le_bytes());
    h[20..28].copy_from_slice(&base_seq.to_le_bytes());
    let crc = crc32(&h[8..28]);
    h[28..32].copy_from_slice(&crc.to_le_bytes());
    h
}

// ---------------------------------------------------------------------------
// Segment scanning (the recovery read path)
// ---------------------------------------------------------------------------

/// The result of scanning one segment.
#[derive(Debug)]
pub struct SegmentScan {
    /// Decoded records, in log order.
    pub records: Vec<WalRecord>,
    /// Sequence number the segment's snapshot already covers; records
    /// start at `base_seq + 1`.
    pub base_seq: u64,
    /// Byte length of the valid prefix (header + intact frames).
    pub valid_len: u64,
    /// Whether a torn tail (incomplete final frame) was ignored.
    pub truncated_tail: bool,
}

/// The `N` bytes of `bytes` starting at `at`, or `None` past the end.
fn le_bytes<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// Scan a segment, verifying the header, every frame checksum, and
/// record sequence contiguity. A torn tail is tolerated and reported via
/// [`SegmentScan::truncated_tail`]; everything else is a typed error.
pub fn read_segment(path: &Path, expected_gen: u64) -> Result<SegmentScan> {
    let bytes = std::fs::read(path).map_err(|e| {
        CoreError::Storage(format!("cannot read WAL segment {}: {e}", path.display()))
    })?;
    let corrupt =
        |what: &str| CoreError::Protocol(format!("corrupt WAL segment {}: {what}", path.display()));
    // The length checks below keep every fixed-width read in range; should
    // one ever not, the answer is the corruption error, not a panic.
    let short = |at: usize| corrupt(&format!("file ends inside the field at byte {at}"));
    let le_u32 = |at| {
        le_bytes(&bytes, at)
            .map(u32::from_le_bytes)
            .ok_or_else(|| short(at))
    };
    let le_u64 = |at| {
        le_bytes(&bytes, at)
            .map(u64::from_le_bytes)
            .ok_or_else(|| short(at))
    };
    if bytes.len() < HEADER_LEN as usize {
        return Err(corrupt("file shorter than the segment header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = le_u32(8)?;
    if version != WAL_VERSION {
        return Err(CoreError::Protocol(format!(
            "WAL segment {} is format version {version}; this build reads only version \
             {WAL_VERSION}, whose commit records are deltas",
            path.display()
        )));
    }
    let gen = le_u64(12)?;
    let base_seq = le_u64(20)?;
    let crc = le_u32(28)?;
    if crc != crc32(&bytes[8..28]) {
        return Err(corrupt("header checksum mismatch"));
    }
    if gen != expected_gen {
        return Err(corrupt(&format!(
            "header names generation {gen}, CURRENT names {expected_gen}"
        )));
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut truncated_tail = false;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            // The file ends inside a frame header: a torn append.
            truncated_tail = true;
            break;
        }
        let len = le_u32(pos)?;
        if len > MAX_RECORD {
            return Err(corrupt(&format!(
                "frame at byte {pos} claims {len} bytes (max {MAX_RECORD})"
            )));
        }
        let crc = le_u32(pos + 4)?;
        let end = pos + 8 + len as usize;
        if end > bytes.len() {
            // The file ends inside the payload: a torn append.
            truncated_tail = true;
            break;
        }
        let payload = &bytes[pos + 8..end];
        if crc32(payload) != crc {
            if end == bytes.len() {
                // A final frame whose tail sector never made it to disk.
                truncated_tail = true;
                break;
            }
            return Err(corrupt(&format!(
                "checksum mismatch in frame at byte {pos} (not the final frame)"
            )));
        }
        let record = WalRecord::decode(payload)?;
        let expected_seq = base_seq + records.len() as u64 + 1;
        if record.seq != expected_seq {
            return Err(corrupt(&format!(
                "record sequence jumped to {} where {expected_seq} was expected",
                record.seq
            )));
        }
        records.push(record);
        pos = end;
    }
    Ok(SegmentScan {
        records,
        base_seq,
        valid_len: pos as u64,
        truncated_tail,
    })
}

/// Create (truncating if present) the segment file for `gen`, fsync it
/// and its directory. Called before `CURRENT` ever names `gen`.
pub(crate) fn create_segment(dir: &Path, gen: u64, base_seq: u64) -> Result<()> {
    let path = segment_path(dir, gen);
    let io = |what: &str, e: std::io::Error| {
        CoreError::Storage(format!("cannot {what} {}: {e}", path.display()))
    };
    let mut file = File::create(&path).map_err(|e| io("create", e))?;
    file.write_all(&encode_header(gen, base_seq))
        .map_err(|e| io("write header of", e))?;
    file.sync_all().map_err(|e| io("fsync", e))?;
    fsync_dir(dir).map_err(CoreError::from)
}

// ---------------------------------------------------------------------------
// The sink (the write path)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct WalState {
    file: File,
    gen: u64,
    /// Sequence number the next record gets.
    next_seq: u64,
    /// Current segment length in bytes.
    bytes: u64,
    /// Set when an append or fsync failed: the log's tail is suspect, so
    /// further appends are refused ([`CoreError::Degraded`]) until a
    /// checkpoint rotates onto a fresh segment. Carries the original
    /// I/O failure.
    poisoned: Option<String>,
    /// Armed I/O fault, if any ([`WalSink::arm_fault`]).
    fault: Option<IoFaultInjector>,
}

#[derive(Debug)]
struct WalInner {
    dir: PathBuf,
    state: Mutex<WalState>,
    /// Lock-free mirror of `poisoned.is_some()`, so every mutating
    /// operation can check writability up front without taking the
    /// append mutex.
    degraded: std::sync::atomic::AtomicBool,
}

/// Handle to the live log segment. Cloning shares the underlying file
/// (the handle is attached to an `OrpheusDB` and travels with its
/// shards), and a mutex serializes appends, so records land in apply
/// order for any one shard or the catalog.
#[derive(Debug, Clone)]
pub struct WalSink {
    inner: Arc<WalInner>,
}

impl WalSink {
    /// Attach to generation `gen`'s segment for appending, truncating a
    /// torn tail down to `valid_len` first. `next_seq` numbers the next
    /// record.
    pub(crate) fn attach(dir: &Path, gen: u64, valid_len: u64, next_seq: u64) -> Result<WalSink> {
        let path = segment_path(dir, gen);
        let io = |what: &str, e: std::io::Error| {
            CoreError::Storage(format!("cannot {what} {}: {e}", path.display()))
        };
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io("open", e))?;
        let on_disk = file.metadata().map_err(|e| io("stat", e))?.len();
        if on_disk > valid_len {
            file.set_len(valid_len).map_err(|e| io("truncate", e))?;
            file.sync_all().map_err(|e| io("fsync", e))?;
        }
        Ok(WalSink {
            inner: Arc::new(WalInner {
                dir: dir.to_path_buf(),
                state: Mutex::new(WalState {
                    file,
                    gen,
                    next_seq,
                    bytes: valid_len,
                    poisoned: None,
                    fault: None,
                }),
                degraded: std::sync::atomic::AtomicBool::new(false),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalState> {
        // A panic mid-append leaves `poisoned` set in WalState itself;
        // the mutex's own poison flag adds nothing.
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The WAL directory this sink appends under.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The live generation.
    pub fn generation(&self) -> u64 {
        self.lock().gen
    }

    /// Sequence number the next record will get.
    pub fn next_seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// Bytes in the live segment (header included).
    pub fn log_bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Whether the live segment has outgrown the checkpoint threshold
    /// ([`DEFAULT_CHECKPOINT_BYTES`]).
    pub fn should_checkpoint(&self) -> bool {
        self.lock().bytes >= DEFAULT_CHECKPOINT_BYTES
    }

    /// Arm an I/O fault on this sink. Points: `append` (the write
    /// fails before any byte lands), `fsync` (the write lands in the page
    /// cache but the sync fails), `rotate` (the next checkpoint's segment
    /// rotation fails).
    pub fn arm_fault(&self, point: &str, n: u64) {
        self.lock().fault = Some(IoFaultInjector::new(point, n));
    }

    /// The recorded I/O failure, when the sink is degraded.
    pub fn degraded(&self) -> Option<String> {
        if !self.is_degraded() {
            return None;
        }
        self.lock().poisoned.clone()
    }

    /// Whether the sink refuses appends after an I/O failure. Lock-free;
    /// checked by every mutating operation before it touches memory.
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::SeqCst)
    }

    /// Whether the armed fault (if any) fires at this crossing of
    /// `point`. Consumes one crossing.
    pub(crate) fn fault_fires(&self, point: &str) -> bool {
        match &self.lock().fault {
            Some(fault) => fault.fires(point),
            None => false,
        }
    }

    /// Record an I/O failure and flip the sink into degraded mode.
    fn degrade(st: &mut WalState, inner: &WalInner, why: String) -> CoreError {
        st.poisoned = Some(why.clone());
        inner.degraded.store(true, Ordering::SeqCst);
        CoreError::Degraded(why)
    }

    /// Append one record and fsync it. The caller has already applied
    /// the op in memory and must propagate an error from here to the
    /// client instead of acknowledging. On an I/O failure — injected or
    /// real — the sink degrades: this call returns
    /// [`CoreError::Degraded`] (the op's outcome is indeterminate — its
    /// in-memory effect stays visible and would become durable at the
    /// recovery checkpoint, but it was never acked), and every later
    /// mutation is refused up front until a checkpoint rotates the log.
    pub(crate) fn append(&self, user: &str, clock_before: u64, op: &WalOp) -> Result<()> {
        let mut st = self.lock();
        if let Some(why) = st.poisoned.clone() {
            return Err(CoreError::Degraded(why));
        }
        let buf = encode_frame(st.next_seq, clock_before, user, op);
        kill_here("pre-append");
        if kill_armed("torn-append") {
            // Simulate a torn write: half the frame reaches disk, then
            // the process dies.
            let _ = st.file.write_all(&buf[..buf.len() / 2 + 1]);
            let _ = st.file.sync_data();
            std::process::abort();
        }
        let path = segment_path(&self.inner.dir, st.gen);
        if st.fault.as_ref().is_some_and(|f| f.fires("append")) {
            let why = format!(
                "append to {} failed: injected I/O fault (append)",
                path.display()
            );
            return Err(WalSink::degrade(&mut st, &self.inner, why));
        }
        if let Err(e) = st.file.write_all(&buf) {
            let why = format!("append to {} failed: {e}", path.display());
            return Err(WalSink::degrade(&mut st, &self.inner, why));
        }
        let synced = if st.fault.as_ref().is_some_and(|f| f.fires("fsync")) {
            Err(std::io::Error::other("injected I/O fault (fsync)"))
        } else {
            st.file.sync_data()
        };
        if let Err(e) = synced {
            let why = format!("fsync of {} failed: {e}", path.display());
            return Err(WalSink::degrade(&mut st, &self.inner, why));
        }
        kill_here("post-append");
        st.next_seq += 1;
        st.bytes += buf.len() as u64;
        Ok(())
    }

    /// Swap this sink onto generation `new_gen`'s (already created and
    /// fsync'd) segment after a checkpoint. Sequence numbers continue;
    /// the old segment is left for the caller to delete. Only called
    /// with the instance quiesced, so no append can interleave.
    pub(crate) fn switch_to(&self, new_gen: u64) -> Result<()> {
        let path = segment_path(&self.inner.dir, new_gen);
        let io = |what: &str, e: std::io::Error| {
            CoreError::Storage(format!("cannot {what} {}: {e}", path.display()))
        };
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io("open", e))?;
        let bytes = file.metadata().map_err(|e| io("stat", e))?.len();
        let mut st = self.lock();
        st.file = file;
        st.gen = new_gen;
        st.bytes = bytes;
        // Rotating onto a fresh, fully-synced generation is the explicit
        // recovery path out of degraded mode: the snapshot that preceded
        // this switch captured the whole in-memory state, so the suspect
        // tail of the old segment no longer matters.
        st.poisoned = None;
        self.inner.degraded.store(false, Ordering::SeqCst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Init;
    use orpheus_engine::schema::Column;
    use orpheus_engine::types::DataType;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("orpheus-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ])
    }

    fn request_record(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            clock_before: seq * 7,
            user: "alice".into(),
            op: WalOp::Request(Request::Init(Init {
                cvd: "wines".into(),
                schema: sample_schema(),
                rows: vec![vec![Value::Int(1), Value::Text("red".into())]],
                model: None,
            })),
        }
    }

    fn commit_record(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            clock_before: 42,
            user: "bob".into(),
            op: WalOp::Commit(CommitRecord {
                cvd: "wines".into(),
                staged_name: "wines_work".into(),
                kind: StagedKind::Table,
                parents: vec![Vid(1), Vid(3)],
                owner: "bob".into(),
                created_at: 9,
                schema: sample_schema(),
                dropped: vec![4, 9],
                adopted: vec![7],
                new_rows: vec![
                    vec![Value::Int(1), Value::Text("red".into())],
                    vec![Value::Int(2), Value::Null],
                ],
                message: "tweak".into(),
                vid: Vid(4),
            }),
        }
    }

    #[test]
    fn record_roundtrip() {
        for rec in [request_record(1), commit_record(2)] {
            let decoded = WalRecord::decode(&rec.encode()).unwrap();
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut payload = request_record(1).encode();
        payload.push(0xAB);
        assert!(matches!(
            WalRecord::decode(&payload),
            Err(CoreError::Protocol(_))
        ));
    }

    #[test]
    fn decode_rejects_unknown_op_tag() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 0);
        put_str(&mut payload, "alice");
        payload.push(99);
        assert!(matches!(
            WalRecord::decode(&payload),
            Err(CoreError::Protocol(_))
        ));
    }

    fn write_segment(dir: &Path, gen: u64, records: &[WalRecord]) -> PathBuf {
        create_segment(dir, gen, records.first().map_or(0, |r| r.seq - 1)).unwrap();
        let path = segment_path(dir, gen);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        for rec in records {
            file.write_all(&encode_frame(rec.seq, rec.clock_before, &rec.user, &rec.op))
                .unwrap();
        }
        file.sync_all().unwrap();
        path
    }

    #[test]
    fn segment_roundtrip_and_scan() {
        let dir = temp_dir("scan");
        let records = vec![request_record(1), commit_record(2), request_record(3)];
        let path = write_segment(&dir, 1, &records);
        let scan = read_segment(&path, 1).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.base_seq, 0);
        assert!(!scan.truncated_tail);
        assert_eq!(scan.valid_len, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = temp_dir("torn");
        let records = vec![request_record(1), request_record(2)];
        let path = write_segment(&dir, 1, &records);
        let full = std::fs::metadata(&path).unwrap().len();
        // End of the first frame = where a clean one-record segment ends.
        let one = HEADER_LEN + 8 + records[0].encode().len() as u64;
        // Chop bytes off the final frame one at a time: every cut must
        // scan to exactly the first record and report a torn tail.
        for cut in (one + 1)..full {
            let bytes = std::fs::read(&path).unwrap();
            let clipped = &bytes[..cut as usize];
            let clipped_path = dir.join("clipped.log");
            std::fs::write(&clipped_path, clipped).unwrap();
            let scan = read_segment(&clipped_path, 1).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut} of {full}");
            assert!(scan.truncated_tail);
            assert_eq!(scan.valid_len, one);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_mid_file_is_a_typed_error() {
        let dir = temp_dir("flip");
        let records = vec![request_record(1), request_record(2)];
        let path = write_segment(&dir, 1, &records);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the *first* frame's payload: a checksum
        // mismatch that is not the final frame must be a hard error.
        let idx = HEADER_LEN as usize + 12;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_segment(&path, 1),
            Err(CoreError::Protocol(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_length_is_a_typed_error() {
        let dir = temp_dir("hostile");
        let path = write_segment(&dir, 1, &[request_record(1)]);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        let mut bogus = Vec::new();
        put_u32(&mut bogus, MAX_RECORD + 1);
        put_u32(&mut bogus, 0);
        bogus.extend_from_slice(&[0u8; 16]);
        file.write_all(&bogus).unwrap();
        drop(file);
        assert!(matches!(
            read_segment(&path, 1),
            Err(CoreError::Protocol(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_corruption_is_a_typed_error() {
        let dir = temp_dir("header");
        let path = write_segment(&dir, 1, &[request_record(1)]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[13] ^= 0x01; // inside the generation field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_segment(&path, 1),
            Err(CoreError::Protocol(_))
        ));
        // Wrong expected generation is also typed.
        let path2 = write_segment(&dir, 2, &[]);
        assert!(matches!(
            read_segment(&path2, 7),
            Err(CoreError::Protocol(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_gap_is_a_typed_error() {
        let dir = temp_dir("seqgap");
        let path = write_segment(&dir, 1, &[request_record(1), request_record(5)]);
        assert!(matches!(
            read_segment(&path, 1),
            Err(CoreError::Protocol(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_appends_scan_back() {
        let dir = temp_dir("sink");
        create_segment(&dir, 1, 0).unwrap();
        let sink = WalSink::attach(&dir, 1, HEADER_LEN, 1).unwrap();
        let rec = request_record(1);
        sink.append(&rec.user, rec.clock_before, &rec.op).unwrap();
        let rec2 = commit_record(2);
        sink.append(&rec2.user, rec2.clock_before, &rec2.op)
            .unwrap();
        assert_eq!(sink.next_seq(), 3);
        let scan = read_segment(&segment_path(&dir, 1), 1).unwrap();
        assert_eq!(scan.records, vec![rec, rec2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_append_fault_degrades_the_sink() {
        let dir = temp_dir("fault-append");
        create_segment(&dir, 1, 0).unwrap();
        let sink = WalSink::attach(&dir, 1, HEADER_LEN, 1).unwrap();
        sink.arm_fault("append", 2);
        let rec = request_record(1);
        // First append crosses the point without firing.
        sink.append(&rec.user, rec.clock_before, &rec.op).unwrap();
        assert!(!sink.is_degraded());
        let rec2 = commit_record(2);
        let err = sink
            .append(&rec2.user, rec2.clock_before, &rec2.op)
            .unwrap_err();
        assert!(matches!(err, CoreError::Degraded(_)), "{err}");
        assert!(sink.is_degraded());
        assert!(sink.degraded().unwrap().contains("injected"));
        // Later appends are refused with the recorded cause; nothing hit
        // the file (the first record is still the only one).
        let err = sink
            .append(&rec2.user, rec2.clock_before, &rec2.op)
            .unwrap_err();
        assert!(matches!(err, CoreError::Degraded(_)));
        let scan = read_segment(&segment_path(&dir, 1), 1).unwrap();
        assert_eq!(scan.records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fsync_fault_degrades_and_rotation_recovers() {
        let dir = temp_dir("fault-fsync");
        create_segment(&dir, 1, 0).unwrap();
        let sink = WalSink::attach(&dir, 1, HEADER_LEN, 1).unwrap();
        sink.arm_fault("fsync", 1);
        let rec = request_record(1);
        let err = sink
            .append(&rec.user, rec.clock_before, &rec.op)
            .unwrap_err();
        assert!(matches!(err, CoreError::Degraded(_)), "{err}");
        assert!(sink.is_degraded());
        // The sequence number did not advance past the failed record.
        assert_eq!(sink.next_seq(), 1);
        // Rotating onto a fresh generation clears degraded mode.
        create_segment(&dir, 2, 0).unwrap();
        sink.switch_to(2).unwrap();
        assert!(!sink.is_degraded());
        sink.append(&rec.user, rec.clock_before, &rec.op).unwrap();
        assert_eq!(sink.next_seq(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_injector_fires_once_on_the_nth_crossing() {
        let f = IoFaultInjector::new("rotate", 3);
        assert!(!f.fires("append"));
        assert!(!f.fires("rotate"));
        assert!(!f.fires("rotate"));
        assert!(f.fires("rotate"));
        assert!(!f.fires("rotate"));
    }

    #[test]
    fn current_pointer_roundtrip() {
        let dir = temp_dir("current");
        assert_eq!(read_current(&dir).unwrap(), None);
        write_current(&dir, 3).unwrap();
        assert_eq!(read_current(&dir).unwrap(), Some(3));
        std::fs::write(current_path(&dir), "not-a-gen").unwrap();
        assert!(matches!(read_current(&dir), Err(CoreError::Protocol(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

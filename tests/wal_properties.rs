//! Property-based tests (proptest) over the WAL's on-disk format
//! (`crates/core/src/wal.rs`): record encode/decode round-trips for
//! arbitrary logged operations, and hostile-bytes / file-surgery
//! corpora pinning the documented failure policy — arbitrary input
//! never panics the decoder, a damaged segment either recovers a clean
//! prefix of its records (torn tail) or fails with a typed error.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use orpheusdb::core::wal::{self, read_segment, CommitRecord, WalOp, WalRecord, HEADER_LEN};
use orpheusdb::core::{recovery, staging::StagedKind, CoreError};
use orpheusdb::engine::storage::crc32;
use orpheusdb::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only: NaN breaks PartialEq, not the codec.
        (-1e12f64..1e12).prop_map(Value::Double),
        "[a-z0-9 ]{0,12}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_schema_and_rows() -> impl Strategy<Value = (Schema, Vec<Vec<Value>>)> {
    (
        1usize..4,
        proptest::collection::vec(proptest::collection::vec(arb_value(), 3..4), 0..5),
    )
        .prop_map(|(cols, raw)| {
            let schema = Schema::new(
                (0..cols)
                    .map(|c| Column::new(format!("c{c}"), DataType::Int))
                    .collect(),
            );
            // Every generated row carries 3 cells; trim to the schema
            // width so rows and schema always agree.
            let rows = raw
                .into_iter()
                .map(|mut row| {
                    row.truncate(cols);
                    row
                })
                .collect();
            (schema, rows)
        })
}

/// A sorted rid list, as a commit record's `dropped` and `adopted` are.
fn arb_rids() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(any::<i64>(), 0..4).prop_map(|mut rids| {
        rids.sort_unstable();
        rids
    })
}

fn arb_op() -> impl Strategy<Value = WalOp> {
    let request = prop_oneof![
        "[a-z]{1,10}".prop_map(|n| Request::from(DropCvd::named(n))),
        "[a-z]{1,10}".prop_map(|n| Request::from(Discard::table(n))),
        "[a-z]{1,10}".prop_map(|n| Request::from(CreateUser::named(n))),
        "[a-z]{1,10}".prop_map(|n| Request::from(Login::as_user(n))),
    ]
    .prop_map(WalOp::Request);
    let commit = (
        (
            "[a-z]{1,10}",
            "[a-z0-9_./]{1,16}",
            any::<bool>(),
            proptest::collection::vec(1u64..100, 1..4),
        ),
        (
            "[a-z]{1,8}",
            any::<u64>(),
            arb_schema_and_rows(),
            (arb_rids(), arb_rids()),
            "[a-z0-9 ]{0,30}",
            1u64..1000,
        ),
    )
        .prop_map(
            |(
                (cvd, staged_name, is_csv, parents),
                (owner, created_at, (schema, new_rows), (dropped, adopted), message, vid),
            )| {
                WalOp::Commit(CommitRecord {
                    cvd,
                    staged_name,
                    kind: if is_csv {
                        StagedKind::Csv
                    } else {
                        StagedKind::Table
                    },
                    parents: parents.into_iter().map(Vid).collect(),
                    owner,
                    created_at,
                    schema,
                    dropped,
                    adopted,
                    new_rows,
                    message,
                    vid: Vid(vid),
                })
            },
        );
    prop_oneof![request, commit]
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    (any::<u64>(), any::<u64>(), "[a-z]{1,10}", arb_op()).prop_map(
        |(seq, clock_before, user, op)| WalRecord {
            seq,
            clock_before,
            user,
            op,
        },
    )
}

/// Build a real 3-record segment (init + two checkout → edit → commit
/// cycles, each logging a delta with a dropped rid and a new row) and
/// return its raw bytes plus the decoded records.
fn segment_fixture(tag: &str) -> (Vec<u8>, Vec<WalRecord>) {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "orpheus-walprop-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut odb = recovery::open(&dir).expect("open fresh");
    let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
    let rows: Vec<Vec<Value>> = (0..4).map(|i| vec![Value::Int(i)]).collect();
    odb.execute(
        Init::cvd("t")
            .schema(schema)
            .rows(rows)
            .model(ModelKind::SplitByRlist)
            .into(),
    )
    .expect("init");
    for i in 0..2 {
        let table = format!("w{i}");
        odb.execute(Checkout::of("t").version(1u64).into_table(&table).into())
            .expect("checkout");
        odb.execute(Run::sql(format!("DELETE FROM {table} WHERE id = {i}")).into())
            .expect("delete");
        odb.execute(Run::sql(format!("INSERT INTO {table} (id) VALUES ({})", 100 + i)).into())
            .expect("insert");
        odb.execute(Commit::table(&table).message(format!("c{i}")).into())
            .expect("commit");
    }
    drop(odb);
    let path = wal::segment_path(&dir, 1);
    let bytes = std::fs::read(&path).expect("segment bytes");
    let scan = read_segment(&path, 1).expect("pristine segment scans");
    assert_eq!(scan.records.len(), 3);
    assert!(!scan.truncated_tail);
    let _ = std::fs::remove_dir_all(&dir);
    (bytes, scan.records)
}

/// Write `bytes` as generation-1 segment of a scratch dir and scan it.
fn scan_bytes(tag: &str, bytes: &[u8]) -> orpheusdb::core::Result<wal::SegmentScan> {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "orpheus-walscan-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = wal::segment_path(&dir, 1);
    std::fs::write(&path, bytes).expect("write surgered segment");
    let result = read_segment(&path, 1);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn is_prefix(records: &[WalRecord], of: &[WalRecord]) -> bool {
    records.len() <= of.len() && records.iter().zip(of.iter()).all(|(a, b)| a == b)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// encode ∘ decode is the identity for every representable record.
    #[test]
    fn wal_record_roundtrip(record in arb_record()) {
        let encoded = record.encode();
        let decoded = WalRecord::decode(&encoded).expect("own encoding decodes");
        prop_assert_eq!(decoded, record);
    }

    /// The decoder never panics on arbitrary bytes — hostile input is a
    /// typed error (or, vanishingly, a valid record), never a crash.
    #[test]
    fn decode_of_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = WalRecord::decode(&bytes);
    }

    /// Flipping record bytes must not produce a decode panic either —
    /// this corpus starts from *valid* encodings, so it explores the
    /// decoder's deep paths (length prefixes, value tags) rather than
    /// dying at the first tag check.
    #[test]
    fn decode_of_damaged_encoding_never_panics(
        record in arb_record(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = record.encode();
        let idx = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[idx] ^= 1 << bit;
        let _ = WalRecord::decode(&bytes);
    }
}

proptest! {
    // File surgery rebuilds a real WAL per case; keep the corpus small.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Cutting a segment at ANY byte offset either recovers a clean
    /// prefix of its records (the torn-tail policy) or fails with a
    /// typed error (cuts inside the segment header) — never a panic,
    /// never invented records.
    #[test]
    fn truncation_at_any_offset_recovers_a_prefix_or_errors(cut_frac in 0.0f64..1.0) {
        let (bytes, records) = segment_fixture("cut");
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        match scan_bytes("cut", &bytes[..cut]) {
            Ok(scan) => {
                prop_assert!(is_prefix(&scan.records, &records));
                // Anything shorter than the full file must flag the tail.
                prop_assert!(scan.records.len() == records.len() || scan.truncated_tail);
            }
            Err(e) => {
                prop_assert!((cut as u64) < HEADER_LEN, "unexpected error past the header: {e}");
            }
        }
    }

    /// Flipping ANY single bit of a segment never panics the scanner:
    /// damage in the final record is truncated (prefix), damage anywhere
    /// else is a typed error.
    #[test]
    fn bit_flip_anywhere_is_contained(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let (mut bytes, records) = segment_fixture("flip");
        let idx = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[idx] ^= 1 << bit;
        if let Ok(scan) = scan_bytes("flip", &bytes) {
            prop_assert!(is_prefix(&scan.records, &records));
        }
    }
}

/// A WAL directory holding an init of rids 1..=4 (version 1) and a commit
/// that dropped rid 1 and added rid 5 (version 2), then `record` appended
/// as seq 3.
fn delta_dir_with(tag: &str, record: &WalRecord) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "orpheus-waldelta-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut odb = recovery::open(&dir).expect("open fresh");
    odb.execute(
        Init::cvd("t")
            .schema(Schema::new(vec![Column::new("id", DataType::Int)]))
            .rows((0..4).map(|i| vec![Value::Int(i)]).collect())
            .model(ModelKind::SplitByRlist)
            .into(),
    )
    .expect("init");
    odb.execute(Checkout::of("t").version(1u64).into_table("w").into())
        .expect("checkout");
    odb.execute(Run::sql("DELETE FROM w WHERE id = 0").into())
        .expect("delete");
    odb.execute(Run::sql("INSERT INTO w (id) VALUES (100)").into())
        .expect("insert");
    odb.execute(Commit::table("w").message("v2").into())
        .expect("commit");
    drop(odb);
    let payload = record.encode();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    let path = wal::segment_path(&dir, 1);
    let mut bytes = std::fs::read(&path).expect("segment bytes");
    bytes.extend_from_slice(&frame);
    std::fs::write(&path, bytes).expect("append the crafted record");
    dir
}

/// Sorted `a` minus sorted `b`, as multisets.
fn multiset_minus(a: &[i64], b: &[i64]) -> Vec<i64> {
    let mut out = a.to_vec();
    for x in b {
        if let Some(i) = out.iter().position(|y| y == x) {
            out.remove(i);
        }
    }
    out
}

proptest! {
    // Each case builds and reopens a real WAL directory.
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Replay of an arbitrary delta against real parents: a delta whose
    /// dropped rids all occur in the first parent, whose adopted rids are
    /// all held by some parent and whose new rows have the schema's width
    /// reopens to exactly the version it describes; any other is a typed
    /// `Protocol` error on reopen — never a panic, never a wrong version.
    #[test]
    fn a_logged_delta_replays_exactly_or_is_refused(
        dropped in proptest::collection::vec(0i64..8, 0..4),
        adopted in proptest::collection::vec(0i64..8, 0..3),
        // Mostly the schema's width (1), sometimes one too few or too many.
        widths in proptest::collection::vec(prop_oneof![Just(1usize), Just(1), Just(0), Just(2)], 0..3),
        merge in any::<bool>(),
    ) {
        let (mut dropped, mut adopted) = (dropped, adopted);
        dropped.sort_unstable();
        adopted.sort_unstable();
        let parents = if merge { vec![Vid(2), Vid(1)] } else { vec![Vid(2)] };
        let new_rows: Vec<Vec<Value>> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| vec![Value::Int(200 + i as i64); w])
            .collect();
        let record = WalRecord {
            seq: 3,
            clock_before: 9,
            user: "alice".into(),
            op: WalOp::Commit(CommitRecord {
                cvd: "t".into(),
                staged_name: "hostile".into(),
                kind: StagedKind::Table,
                parents: parents.clone(),
                owner: "alice".into(),
                created_at: 8,
                schema: Schema::new(vec![
                    Column::new("rid", DataType::Int),
                    Column::new("id", DataType::Int),
                ]),
                dropped: dropped.clone(),
                adopted: adopted.clone(),
                new_rows: new_rows.clone(),
                message: "crafted".into(),
                vid: Vid(3),
            }),
        };
        let (v1, v2) = ([1, 2, 3, 4], [2, 3, 4, 5]);
        let valid = multiset_minus(&dropped, &v2).is_empty()
            && adopted.iter().all(|r| v2.contains(r) || (merge && v1.contains(r)))
            && widths.iter().all(|&w| w == 1);
        let dir = delta_dir_with("hostile", &record);
        let outcome = recovery::open(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        match outcome {
            Ok(odb) => {
                prop_assert!(valid, "an invalid delta replayed: {record:?}");
                let mut want = multiset_minus(&v2, &dropped);
                want.extend_from_slice(&adopted);
                want.extend(6..6 + new_rows.len() as i64);
                want.sort_unstable();
                prop_assert_eq!(odb.cvd("t").unwrap().rids_of(Vid(3)).unwrap(), &want[..]);
            }
            Err(CoreError::Protocol(_)) => prop_assert!(!valid, "a valid delta was refused"),
            Err(e) => prop_assert!(false, "not a Protocol error: {e}"),
        }
    }
}

//! Byte pins for every encoding the system writes: wire frames, a WAL
//! segment, an engine snapshot and an instance snapshot. Each item is
//! pinned as `(length, CRC-32)` of its bytes, then decoded and checked
//! against what it was encoded from. A refactor of the encoders that moves
//! one byte — on the wire, in the log or on disk — fails here, and a log or
//! snapshot written before it would no longer load.

use std::path::PathBuf;

use orpheusdb::core::persist;
use orpheusdb::core::staging::StagedKind;
use orpheusdb::core::wal::{read_segment, CommitRecord, WalOp, WalRecord, HEADER_LEN, WAL_VERSION};
use orpheusdb::engine::storage::{self, crc32};
use orpheusdb::engine::{JoinStrategy, Table};
use orpheusdb::net::{Frame, PROTOCOL_VERSION};
use orpheusdb::prelude::*;

mod wire_corpus;

use wire_corpus::{error_corpus, request_corpus, response_corpus};

type Pin = (usize, u32);

fn pin(bytes: &[u8]) -> Pin {
    (bytes.len(), crc32(bytes))
}

fn assert_pins(what: &str, actual: &[Pin], expected: &[Pin]) {
    assert!(
        actual == expected,
        "{what}: the encoding moved; pins now read\n{actual:?}"
    );
}

#[test]
fn format_versions_are_unchanged() {
    assert_eq!(WAL_VERSION, 2);
    assert_eq!(PROTOCOL_VERSION, 2);
    assert_eq!(storage::FORMAT_VERSION, 1);
}

// -- wire frames --------------------------------------------------------------

/// The corpus as frames: one `Req` per request, one `Resp` per response
/// and per error, then the whole corpus as one `Batch` and one `BatchResp`.
fn corpus_frames() -> Vec<Frame> {
    let mut frames: Vec<Frame> = request_corpus()
        .into_iter()
        .zip(1u64..)
        .map(|(request, id)| Frame::Req { id, request })
        .collect();
    let outcomes = || {
        response_corpus()
            .into_iter()
            .map(Ok)
            .chain(error_corpus().into_iter().map(Err))
    };
    frames.extend(outcomes().zip(1u64..).map(|(outcome, id)| Frame::Resp {
        id,
        outcome: Box::new(outcome),
    }));
    frames.push(Frame::Batch {
        id: u64::MAX,
        requests: request_corpus(),
    });
    frames.push(Frame::BatchResp {
        id: 3,
        outcomes: outcomes().collect(),
    });
    frames
}

const FRAME_PINS: &[Pin] = &[
    (73, 3442396858),
    (188, 652583917),
    (56, 203924972),
    (54, 3652702193),
    (49, 3837289698),
    (77, 4263336753),
    (36, 1696620422),
    (36, 202235592),
    (58, 509409431),
    (10, 2471023065),
    (20, 3393885524),
    (19, 903263299),
    (26, 3897365644),
    (74, 1005772463),
    (21, 952892489),
    (21, 1060596514),
    (10, 1421781056),
    (21, 1184142650),
    (29, 3194359026),
    (49, 4263795463),
    (71, 1130347308),
    (27, 2149067596),
    (64, 1453780269),
    (81, 1209153081),
    (34, 2132598482),
    (15, 2467399007),
    (114, 1959071445),
    (21, 30976256),
    (53, 1362073067),
    (22, 2555313288),
    (22, 2620470137),
    (22, 2478266389),
    (22, 3365831151),
    (17, 2976825146),
    (17, 3562732814),
    (17, 4174757525),
    (17, 2648833185),
    (17, 2594511211),
    (17, 3976053513),
    (17, 869003738),
    (17, 1459598318),
    (17, 1140016883),
    (17, 564838622),
    (17, 2269137577),
    (17, 521597415),
    (17, 42516560),
    (19, 539897235),
    (21, 3606707607),
    (29, 4191494573),
    (19, 308810895),
    (17, 1694895326),
    (29, 1526855332),
    (24, 1323518296),
    (25, 3022946444),
    (26, 3972568364),
    (20, 2146364408),
    (25, 3703173574),
    (17, 2140184789),
    (18, 1565957146),
    (22, 3420240852),
    (25, 2107112779),
    (19, 2783804592),
    (22, 2674896938),
    (22, 1080359249),
    (24, 1511373686),
    (19, 968323768),
    (19, 1324437857),
    (28, 2118646727),
    (45, 439206361),
    (700, 1445689076),
    (955, 1450639746),
];

#[test]
fn wire_frames_are_pinned_and_decode_to_their_source() {
    let frames = corpus_frames();
    let payloads: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let pins: Vec<Pin> = payloads.iter().map(|p| pin(p)).collect();
    assert_pins("wire frames", &pins, FRAME_PINS);
    for (frame, payload) in frames.iter().zip(&payloads) {
        let decoded = Frame::decode(payload).expect("a pinned frame decodes");
        // Frames have no `PartialEq`; `Debug` covers every field.
        assert_eq!(format!("{decoded:?}"), format!("{frame:?}"));
        assert_eq!(&decoded.encode(), payload);
    }
}

// -- WAL segment ----------------------------------------------------------------

fn wal_schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("d", DataType::Double),
        Column::new("s", DataType::Text),
        Column::new("b", DataType::Bool),
        Column::new("a", DataType::IntArray),
    ])
    .with_primary_key(&["k"])
    .unwrap()
}

fn wal_rows() -> Vec<Vec<Value>> {
    vec![
        vec![
            Value::Int(i64::MIN),
            Value::Double(f64::NAN),
            "naïve".into(),
            Value::Bool(true),
            Value::IntArray(vec![i64::MIN, 0, i64::MAX]),
        ],
        vec![
            Value::Int(0),
            Value::Double(-0.0),
            Value::Null,
            Value::Bool(false),
            Value::IntArray(Vec::new()),
        ],
        vec![
            Value::Int(i64::MAX),
            Value::Double(f64::NEG_INFINITY),
            "".into(),
            Value::Null,
            Value::Null,
        ],
    ]
}

/// One request record and one commit record, as the sink appends them.
fn wal_records() -> Vec<WalRecord> {
    vec![
        WalRecord {
            seq: 1,
            clock_before: 0,
            user: "alice".into(),
            op: WalOp::Request(
                Init::cvd("cells")
                    .schema(wal_schema())
                    .rows(wal_rows())
                    .model(ModelKind::SplitByRlist)
                    .into(),
            ),
        },
        WalRecord {
            seq: 2,
            clock_before: 3,
            user: "bob".into(),
            op: WalOp::Commit(CommitRecord {
                cvd: "cells".into(),
                staged_name: "work".into(),
                kind: StagedKind::Table,
                parents: vec![Vid(1), Vid(3)],
                owner: "bob".into(),
                created_at: 2,
                schema: wal_schema(),
                dropped: vec![2, 2, 9],
                adopted: vec![5],
                new_rows: wal_rows(),
                message: "δ edit".into(),
                vid: Vid(4),
            }),
        },
    ]
}

/// A generation-1 segment holding `records`: the 32-byte header (magic,
/// version, generation, base seq, header CRC), then `[len][crc][payload]`
/// per record.
fn segment_bytes(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"ORPHWAL\0");
    out.extend_from_slice(&WAL_VERSION.to_le_bytes());
    out.extend_from_slice(&1u64.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    let header_crc = crc32(&out[8..28]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    assert_eq!(out.len() as u64, HEADER_LEN);
    for record in records {
        let payload = record.encode();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

const WAL_PINS: &[Pin] = &[(211, 3458607904), (310, 1872588744), (569, 893574913)];

#[test]
fn a_wal_segment_is_pinned_and_scans_back_to_its_records() {
    let records = wal_records();
    let bytes = segment_bytes(&records);
    let mut pins: Vec<Pin> = records.iter().map(|r| pin(&r.encode())).collect();
    pins.push(pin(&bytes));
    assert_pins("WAL segment", &pins, WAL_PINS);

    let dir = std::env::temp_dir().join(format!("orpheus-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("wal-000001.log");
    std::fs::write(&path, &bytes).unwrap();
    let scan = read_segment(&path, 1).expect("the pinned segment scans");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!scan.truncated_tail);
    assert_eq!(scan.valid_len, bytes.len() as u64);
    // NaN cells defeat `PartialEq`; `Debug` plus the re-encoding cover it.
    assert_eq!(format!("{:?}", scan.records), format!("{records:?}"));
    assert_eq!(segment_bytes(&scan.records), bytes);
}

/// A segment whose header says format version 1 — the layout that logged a
/// commit's whole staged table — is refused up front, by name.
#[test]
fn a_version_one_wal_segment_is_refused_by_name() {
    let mut bytes = segment_bytes(&wal_records());
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let header_crc = crc32(&bytes[8..28]);
    bytes[28..32].copy_from_slice(&header_crc.to_le_bytes());

    let dir = std::env::temp_dir().join(format!("orpheus-pins-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("wal-000001.log");
    std::fs::write(&path, &bytes).unwrap();
    let err = read_segment(&path, 1).expect_err("a version-1 segment is refused");
    std::fs::remove_dir_all(&dir).ok();
    let msg = err.to_string();
    assert!(
        msg.contains("version 1") && msg.contains("version 2"),
        "the refusal names both versions: {msg}"
    );
}

// -- engine snapshot ------------------------------------------------------------

/// Every value type (with `NaN`, `-0.0`, `±inf`, `i64::MIN`, nulls and
/// non-ASCII text), a secondary index, a clustered table, a `NOT NULL`
/// column, an empty table and a non-default join strategy.
fn fixed_database() -> Database {
    let mut db = Database::new();
    db.settings.join_strategy = JoinStrategy::Merge;
    let mut cells = Table::new("cells", wal_schema());
    for row in wal_rows() {
        cells.insert(row).unwrap();
    }
    cells
        .insert(vec![
            Value::Int(-1),
            Value::Double(f64::INFINITY),
            "πρωτεΐνη".into(),
            Value::Bool(true),
            Value::IntArray(vec![7]),
        ])
        .unwrap();
    cells.create_index("cells_s", &["s"], false).unwrap();
    db.add_table(cells).unwrap();

    db.execute("CREATE TABLE ordered (rid INT, v TEXT, PRIMARY KEY (rid))")
        .unwrap();
    for i in [5i64, 3, 1, 4, 2] {
        db.execute(&format!("INSERT INTO ordered VALUES ({i}, 'x{i}')"))
            .unwrap();
    }
    db.table_mut("ordered")
        .unwrap()
        .cluster_by(&["rid"])
        .unwrap();

    let strict = Schema::new(vec![
        Column::new("x", DataType::Int).not_null(),
        Column::new("y", DataType::Text),
    ]);
    db.add_table(Table::new("empty_t", strict)).unwrap();
    db
}

const ENGINE_PINS: &[Pin] = &[(516, 3671246340)];

#[test]
fn an_engine_snapshot_is_pinned_and_loads_back() {
    let db = fixed_database();
    let bytes = storage::serialize_database(&db);
    assert_pins("engine snapshot", &[pin(&bytes)], ENGINE_PINS);
    let back = storage::deserialize_database(&bytes).expect("the pinned snapshot loads");
    assert_eq!(back.table_names(), db.table_names());
    assert_eq!(back.settings.join_strategy, JoinStrategy::Merge);
    for name in db.table_names() {
        let (a, b) = (db.table(&name).unwrap(), back.table(&name).unwrap());
        assert_eq!(a.schema, b.schema);
        assert_eq!(
            format!("{:?}", a.rows().collect::<Vec<_>>()),
            format!("{:?}", b.rows().collect::<Vec<_>>())
        );
        assert_eq!(a.clustered_on(), b.clustered_on());
    }
    assert_eq!(storage::serialize_database(&back), bytes);
}

// -- instance snapshot ----------------------------------------------------------

/// Two users, two CVDs under different models, a branch and a merge, a
/// staged table left open and a partitioned layout.
fn fixed_instance() -> OrpheusDB {
    let mut odb = OrpheusDB::new();
    odb.dispatch(CreateUser::named("alice")).unwrap();
    odb.dispatch(Login::as_user("alice")).unwrap();
    let schema = Schema::new(vec![
        Column::new("p1", DataType::Text),
        Column::new("p2", DataType::Text),
        Column::new("score", DataType::Int),
        Column::new("weight", DataType::Double),
    ])
    .with_primary_key(&["p1", "p2"])
    .unwrap();
    let rows: Vec<Vec<Value>> = vec![
        vec![
            "a".into(),
            "b".into(),
            Value::Int(i64::MIN),
            Value::Double(f64::NAN),
        ],
        vec!["a".into(), "c".into(), 2.into(), Value::Double(-0.0)],
        vec!["b".into(), "c".into(), 3.into(), Value::Null],
    ];
    odb.dispatch(
        Init::cvd("protein")
            .schema(schema)
            .rows(rows)
            .model(ModelKind::SplitByRlist),
    )
    .unwrap();
    let edit = |odb: &mut OrpheusDB, parents: &[u64], table: &str, sql: &str, message: &str| {
        odb.dispatch(
            Checkout::of("protein")
                .versions(parents.iter().copied())
                .into_table(table),
        )
        .unwrap();
        if !sql.is_empty() {
            odb.engine.execute(sql).unwrap();
        }
        odb.dispatch(Commit::table(table).message(message)).unwrap();
    };
    edit(
        &mut odb,
        &[1],
        "w1",
        "UPDATE w1 SET score = 10 WHERE p1 = 'a' AND p2 = 'b'",
        "bump",
    );
    edit(
        &mut odb,
        &[1],
        "w2",
        "DELETE FROM w2 WHERE score = 3",
        "drop c",
    );
    edit(&mut odb, &[2, 3], "w3", "", "merge");
    odb.dispatch(
        Init::cvd("notes")
            .schema(Schema::new(vec![Column::new("k", DataType::Int)]))
            .rows(vec![vec![1.into()], vec![2.into()]])
            .model(ModelKind::DeltaBased),
    )
    .unwrap();
    odb.dispatch(
        Checkout::of("protein")
            .version(4u64)
            .into_table("open_work"),
    )
    .unwrap();
    odb.dispatch(Optimize::cvd("protein")).unwrap();
    odb
}

const INSTANCE_PINS: &[Pin] = &[(4297, 2557784549)];

#[test]
fn an_instance_snapshot_is_pinned_and_loads_back() {
    let odb = fixed_instance();
    let bytes = persist::serialize(&odb);
    assert_pins("instance snapshot", &[pin(&bytes)], INSTANCE_PINS);
    let back = persist::deserialize(&bytes).expect("the pinned snapshot loads");
    assert_eq!(back.ls(), odb.ls());
    for name in odb.ls() {
        let (a, b) = (odb.cvd(&name).unwrap(), back.cvd(&name).unwrap());
        assert_eq!(a.num_versions(), b.num_versions());
        for v in 1..=a.num_versions() as u64 {
            assert_eq!(a.rids_of(Vid(v)).unwrap(), b.rids_of(Vid(v)).unwrap());
            assert_eq!(
                a.meta(Vid(v)).unwrap().parents,
                b.meta(Vid(v)).unwrap().parents
            );
        }
    }
    assert_eq!(persist::serialize(&back), bytes);
}

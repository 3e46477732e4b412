//! Property-based tests for the engine substrate: total ordering of
//! values, SQL print→parse fixpoints, join-algorithm equivalence, and
//! index/scan agreement under random data.

use proptest::prelude::*;

use orpheusdb::engine::sql::parser::parse_statement;
use orpheusdb::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Double),
        any::<bool>().prop_map(Value::Bool),
        "[a-z]{0,8}".prop_map(Value::Text),
        proptest::collection::vec(-100i64..100, 0..6).prop_map(Value::IntArray),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// total_cmp is a total order: antisymmetric and transitive on triples,
    /// and equal values hash equally.
    #[test]
    fn value_total_order_laws(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
        if a == b {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    /// Sorting values never panics and produces a nondecreasing sequence.
    #[test]
    fn sorting_values_is_stable(mut vs in proptest::collection::vec(arb_value(), 0..30)) {
        vs.sort();
        for w in vs.windows(2) {
            prop_assert_ne!(w[0].total_cmp(&w[1]), std::cmp::Ordering::Greater);
        }
    }

    /// Printed statements re-parse to the identical AST for a family of
    /// generated SELECTs.
    #[test]
    fn sql_print_parse_fixpoint(
        col in "[a-z]{1,6}",
        table in "[a-z]{1,6}",
        n in any::<i32>(),
        desc in any::<bool>(),
        limit in proptest::option::of(0u64..1000),
    ) {
        // Prefix the generated names: reserved words ("on", "as", ...) are
        // not valid identifiers in the dialect, and a whole-word prefix
        // guarantees we never collide with one.
        let col = format!("c_{col}");
        let table = format!("t_{table}");
        let mut sql = format!(
            "SELECT {col}, count(*) AS n FROM {table} WHERE ({col} > {n}) GROUP BY {col} ORDER BY n{}",
            if desc { " DESC" } else { "" }
        );
        if let Some(l) = limit {
            sql.push_str(&format!(" LIMIT {l}"));
        }
        let ast = parse_statement(&sql).unwrap();
        let printed = ast.to_string();
        let reparsed = parse_statement(&printed).unwrap();
        prop_assert_eq!(ast, reparsed);
    }

    /// All three join strategies agree with each other and with a
    /// predicate-filtered cross join, on random key distributions.
    #[test]
    fn join_strategies_agree(
        left_keys in proptest::collection::vec(0i64..20, 1..40),
        right_keys in proptest::collection::vec(0i64..20, 1..40),
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE l (k INT, tag INT)").unwrap();
        db.execute("CREATE TABLE r (k INT PRIMARY KEY, tag INT)").unwrap();
        for (i, k) in left_keys.iter().enumerate() {
            db.execute(&format!("INSERT INTO l VALUES ({k}, {i})")).unwrap();
        }
        // The indexed side needs unique keys; dedup preserves distribution.
        let mut seen = std::collections::HashSet::new();
        for (i, k) in right_keys.iter().enumerate() {
            if seen.insert(*k) {
                db.execute(&format!("INSERT INTO r VALUES ({k}, {i})")).unwrap();
            }
        }
        let mut counts = Vec::new();
        for strategy in ["hash", "merge", "inl"] {
            db.execute(&format!("SET join_strategy = '{strategy}'")).unwrap();
            let res = db
                .query("SELECT count(*) FROM l, r WHERE l.k = r.k")
                .unwrap();
            counts.push(res.scalar().unwrap().as_int().unwrap());
        }
        prop_assert_eq!(counts[0], counts[1]);
        prop_assert_eq!(counts[0], counts[2]);
        // Ground truth from the raw key vectors.
        let expected = left_keys
            .iter()
            .filter(|k| seen.contains(k))
            .count() as i64;
        prop_assert_eq!(counts[0], expected);
    }

    /// Aggregates computed by the engine match a straightforward
    /// re-computation in Rust.
    #[test]
    fn aggregates_match_reference(xs in proptest::collection::vec(-1000i64..1000, 1..50)) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        for x in &xs {
            db.execute(&format!("INSERT INTO t VALUES ({x})")).unwrap();
        }
        let r = db
            .query("SELECT count(*), sum(x), min(x), max(x) FROM t")
            .unwrap();
        let row = &r.rows[0];
        prop_assert_eq!(row[0].as_int().unwrap(), xs.len() as i64);
        prop_assert_eq!(row[1].as_int().unwrap(), xs.iter().sum::<i64>());
        prop_assert_eq!(row[2].as_int().unwrap(), *xs.iter().min().unwrap());
        prop_assert_eq!(row[3].as_int().unwrap(), *xs.iter().max().unwrap());
    }

    /// Array containment `<@` matches set semantics for random arrays.
    #[test]
    fn containment_matches_set_semantics(
        needle in proptest::collection::vec(0i64..15, 0..5),
        hay in proptest::collection::vec(0i64..15, 0..12),
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT[])").unwrap();
        let lit = |v: &Vec<i64>| {
            format!("ARRAY[{}]", v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", "))
        };
        db.execute(&format!("INSERT INTO t VALUES ({})", lit(&hay))).unwrap();
        let r = db
            .query(&format!("SELECT count(*) FROM t WHERE {} <@ a", lit(&needle)))
            .unwrap();
        let expected = needle.iter().all(|x| hay.contains(x));
        prop_assert_eq!(r.scalar().unwrap().as_int().unwrap() == 1, expected);
    }

    /// Index point lookups agree with full scans after random inserts,
    /// deletes and updates.
    #[test]
    fn index_agrees_with_scan(ops in proptest::collection::vec((0u8..3, 0i64..30), 1..40)) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)").unwrap();
        for (op, k) in &ops {
            match op {
                0 => { let _ = db.execute(&format!("INSERT INTO t VALUES ({k}, 0)")); }
                1 => { db.execute(&format!("DELETE FROM t WHERE k = {k}")).unwrap(); }
                _ => { db.execute(&format!("UPDATE t SET v = v + 1 WHERE k = {k}")).unwrap(); }
            }
        }
        for k in 0..30 {
            // Index path: equality on the PK column.
            let by_index = db
                .query(&format!("SELECT v FROM t WHERE k = {k}"))
                .unwrap()
                .rows;
            // Scan path: disable index promotion by obfuscating the predicate.
            let by_scan = db
                .query(&format!("SELECT v FROM t WHERE k + 0 = {k}"))
                .unwrap()
                .rows;
            prop_assert_eq!(by_index, by_scan);
        }
    }
}

/// An `IN (…)` list rendering `elems`: `None` as `NULL`, an integer
/// flagged `true` as its exactly-integral double (`3.0`).
fn in_list(elems: &[(Option<i64>, bool)]) -> String {
    let items: Vec<String> = elems
        .iter()
        .map(|e| match e {
            (None, _) => "NULL".to_string(),
            (Some(k), false) => k.to_string(),
            (Some(k), true) => format!("{k}.0"),
        })
        .collect();
    format!("({})", items.join(", "))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `col IN (set)` on an indexed column is answered by index probes,
    /// and returns the rows of the scan filtered by the same set, in the
    /// same order: whatever the heap order (appends, clustering, updates
    /// that move a row to another key, deletes), on a unique and a
    /// non-unique index, with NULLs and doubles in the set and NULLs and
    /// duplicates in the column, with and without a residual conjunct.
    #[test]
    fn in_set_index_lookup_matches_the_filtered_scan(
        ks in proptest::collection::vec(proptest::option::of(-4i64..12), 0..50),
        moves in proptest::collection::vec((any::<usize>(), -4i64..12), 0..4),
        cluster in any::<bool>(),
        deletes in proptest::collection::vec(any::<usize>(), 0..4),
        set in proptest::collection::vec((proptest::option::of(-4i64..60), any::<bool>()), 1..8),
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)").unwrap();
        db.execute("CREATE INDEX ON t (k)").unwrap();
        let t = db.table_mut("t").unwrap();
        for (i, k) in ks.iter().enumerate() {
            let v = (i as i64 * 37) % 101;
            t.insert(vec![Value::Int(i as i64), k.map_or(Value::Null, Value::Int), Value::Int(v)])
                .unwrap();
        }
        for (slot, k) in &moves {
            if !t.is_empty() {
                let slot = slot % t.len();
                let mut row = t.row(slot).to_vec();
                row[1] = Value::Int(*k);
                t.replace_row(slot, row).unwrap();
            }
        }
        if cluster {
            t.cluster_by(&["v"]).unwrap();
        }
        if !t.is_empty() {
            t.delete_slots(deletes.iter().map(|s| s % t.len()).collect());
        }
        let set = in_list(&set);
        for (col, residual) in [("k", ""), ("id", ""), ("k", " AND v > 40"), ("id", " AND k < 6")] {
            let lookup = format!("SELECT * FROM t WHERE {col} IN {set}{residual}");
            let scan = format!("SELECT * FROM t WHERE coalesce({col}) IN {set}{residual}");
            let plan = db.query(&format!("EXPLAIN {lookup}")).unwrap();
            prop_assert!(
                plan.rows.iter().any(|r| r[0].to_string().contains("Index Lookup on t ")),
                "{}: {:?}", lookup, plan.rows
            );
            let before = db.stats.snapshot();
            let got = db.query(&lookup).unwrap().rows;
            prop_assert_eq!(db.stats.snapshot().rows_scanned, before.rows_scanned);
            let want = db.query(&scan).unwrap().rows;
            prop_assert!(got == want, "{}: {:?} vs the scan's {:?}", lookup, got, want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A database snapshot roundtrips exactly: schemas, rows, clustering,
    /// and storage accounting all survive serialize → deserialize.
    #[test]
    fn storage_snapshot_roundtrip(
        rows in proptest::collection::vec(
            (any::<i64>(), -1e9f64..1e9, "[a-zA-Zα-ω]{0,10}", any::<bool>(),
             proptest::collection::vec(any::<i64>(), 0..5)),
            0..40,
        ),
        cluster in any::<bool>(),
        strategy in 0u8..4,
    ) {
        use orpheusdb::engine::storage::{deserialize_database, serialize_database};
        use orpheusdb::engine::JoinStrategy;

        let mut db = Database::new();
        db.settings.join_strategy = match strategy {
            0 => JoinStrategy::Auto,
            1 => JoinStrategy::Hash,
            2 => JoinStrategy::Merge,
            _ => JoinStrategy::IndexNestedLoop,
        };
        db.execute("CREATE TABLE t (k INT, d DOUBLE, s TEXT, b BOOL, a INT[], PRIMARY KEY (k))")
            .unwrap();
        {
            let t = db.table_mut("t").unwrap();
            for (k, d, s, b, a) in &rows {
                // Duplicate keys are rejected by the PK index; skip them so the
                // inserted multiset is exactly what the snapshot must preserve.
                let _ = t.insert(vec![
                    Value::Int(*k),
                    Value::Double(*d),
                    Value::Text(s.clone()),
                    Value::Bool(*b),
                    Value::IntArray(a.clone()),
                ]);
            }
            if cluster {
                t.cluster_by(&["k"]).unwrap();
            }
        }

        let back = deserialize_database(&serialize_database(&db)).unwrap();
        let orig_t = db.table("t").unwrap();
        let back_t = back.table("t").unwrap();
        prop_assert_eq!(back.settings.join_strategy, db.settings.join_strategy);
        prop_assert_eq!(&back_t.schema, &orig_t.schema);
        prop_assert!(back_t.rows().eq(orig_t.rows()));
        prop_assert_eq!(back_t.heap_bytes(), orig_t.heap_bytes());
        prop_assert_eq!(back_t.storage_bytes(), orig_t.storage_bytes());
        prop_assert_eq!(back_t.clustered_on(), orig_t.clustered_on());
    }

    /// Clones of a table are frozen: whatever sequence of writes the
    /// original goes through afterwards — across heap-chunk and index-leaf
    /// boundaries — every clone keeps answering exactly as a plain
    /// `Vec<Row>` copied at clone time would, and so does the original.
    #[test]
    fn table_clones_match_a_naive_model_frozen_at_clone_time(
        ops in proptest::collection::vec((0u8..8, any::<u16>(), -50i64..400), 1..60),
    ) {
        use orpheusdb::engine::Table;

        fn row(k: i64) -> Vec<Value> {
            vec![Value::Int(k), Value::Text(format!("g{}", k.rem_euclid(7)))]
        }
        fn agree(t: &Table, model: &[Vec<Value>], what: &str) -> Result<(), TestCaseError> {
            prop_assert!(t.len() == model.len(), "{}: {} rows, model {}", what, t.len(), model.len());
            prop_assert!(t.rows().eq(model), "{}: rows differ", what);
            for (slot, r) in model.iter().enumerate() {
                prop_assert!(t.row(slot) == r, "{}: slot {}", what, slot);
                prop_assert!(
                    t.index_lookup(&[0], &r[..1]) == Some(&[slot][..]),
                    "{}: key of slot {}",
                    what,
                    slot
                );
            }
            prop_assert_eq!(t.index_lookup(&[0], &[Value::Int(-1_000)]), Some(&[][..]));
            if let Some(by_tag) = t.index_named("t_tag") {
                for tag in 0..7 {
                    let key = [Value::Text(format!("g{tag}"))];
                    let mut got = by_tag.lookup(&key).to_vec();
                    got.sort_unstable();
                    let want: Vec<usize> =
                        (0..model.len()).filter(|&s| model[s][1] == key[0]).collect();
                    prop_assert!(got == want, "{}: tag {}: {:?} vs {:?}", what, tag, got, want);
                }
            }
            Ok(())
        }

        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("tag", DataType::Text),
        ])
        .with_primary_key(&["k"])
        .unwrap();
        let mut t = Table::new("t", schema);
        let mut model: Vec<Vec<Value>> = Vec::new();
        // Start past two heap chunks and one index leaf.
        for k in 500..650 {
            t.insert(row(k)).unwrap();
            model.push(row(k));
        }
        let mut next_bulk = 10_000;
        let mut clones: Vec<(Table, Vec<Vec<Value>>)> = Vec::new();
        for (kind, a, b) in ops {
            let a = a as usize;
            let taken = |k: i64, but: Option<usize>| {
                model.iter().enumerate().any(|(s, r)| r[0] == Value::Int(k) && Some(s) != but)
            };
            match kind {
                0 | 1 => {
                    let clash = taken(b, None);
                    prop_assert_eq!(t.insert(row(b)).is_err(), clash);
                    if !clash {
                        model.push(row(b));
                    }
                }
                2 if !model.is_empty() => {
                    let slot = a % model.len();
                    let clash = taken(b, Some(slot));
                    prop_assert_eq!(t.replace_row(slot, row(b)).is_err(), clash);
                    if !clash {
                        model[slot] = row(b);
                    }
                }
                3 if !model.is_empty() => {
                    let slots = vec![a % model.len(), (a / 7) % model.len(), (a / 3) % model.len()];
                    let mut gone = slots.clone();
                    gone.sort_unstable();
                    gone.dedup();
                    prop_assert_eq!(t.delete_slots(slots), gone.len());
                    for s in gone.into_iter().rev() {
                        model.remove(s);
                    }
                }
                4 => {
                    t.cluster_by(&["k"]).unwrap();
                    model.sort_by(|x, y| x[0].cmp(&y[0]));
                }
                5 => clones.push((t.clone(), model.clone())),
                6 => {
                    for k in next_bulk..next_bulk + 70 {
                        t.insert(row(k)).unwrap();
                        model.push(row(k));
                    }
                    next_bulk += 70;
                }
                7 if a % 8 == 0 => {
                    t.truncate();
                    model.clear();
                }
                7 if t.index_named("t_tag").is_none() => {
                    t.create_index("t_tag", &["tag"], false).unwrap();
                }
                _ => {}
            }
        }
        agree(&t, &model, "live table")?;
        for (i, (clone, frozen)) in clones.iter().enumerate() {
            agree(clone, frozen, &format!("clone {i}"))?;
        }
    }

    /// Any mutation of a serialized snapshot either fails to load or loads
    /// to a database (never panics); single-byte corruption in the payload
    /// region is always detected by the checksum.
    #[test]
    fn storage_snapshot_detects_corruption(pos_seed in any::<usize>(), delta in 1u8..=255) {
        use orpheusdb::engine::storage::{deserialize_database, serialize_database};

        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, s TEXT)").unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'row{i}')")).unwrap();
        }
        let bytes = serialize_database(&db);
        // Corrupt one byte anywhere in the payload (between the 16-byte
        // header and the 4-byte trailing CRC).
        let payload_len = bytes.len() - 20;
        let pos = 16 + pos_seed % payload_len;
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= delta;
        prop_assert!(deserialize_database(&corrupted).is_err());
    }
}

/// The payload of an engine or instance snapshot (between the 16-byte
/// header and the 4-byte CRC).
fn payload_of(snapshot: &[u8]) -> Vec<u8> {
    snapshot[16..snapshot.len() - 4].to_vec()
}

/// A database holding every value type, a secondary index and a clustered
/// table, whose snapshot payload the mutation property edits.
fn snapshot_fixture() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, d DOUBLE, s TEXT, b BOOL, a INT[])")
        .unwrap();
    for i in 0..6 {
        db.execute(&format!(
            "INSERT INTO t VALUES ({i}, {i}.5, 'row{i}', {}, ARRAY[{i}, 7])",
            i % 2 == 0
        ))
        .unwrap();
    }
    db.table_mut("t")
        .unwrap()
        .create_index("t_s", &["s"], false)
        .unwrap();
    db.table_mut("t").unwrap().cluster_by(&["s"]).unwrap();
    db
}

/// A small versioned instance: one CVD with a branch, a staged table and a
/// partitioned layout.
fn instance_fixture() -> OrpheusDB {
    let mut odb = OrpheusDB::new();
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Text),
    ])
    .with_primary_key(&["k"])
    .unwrap();
    let rows = (0..4).map(|i| vec![Value::Int(i), Value::Text(format!("v{i}"))]);
    odb.dispatch(Init::cvd("c").schema(schema).rows(rows.collect()))
        .unwrap();
    odb.dispatch(Checkout::of("c").version(1u64).into_table("w"))
        .unwrap();
    odb.engine.execute("DELETE FROM w WHERE k = 2").unwrap();
    odb.dispatch(Commit::table("w").message("m")).unwrap();
    odb.dispatch(Checkout::of("c").version(2u64).into_table("open"))
        .unwrap();
    odb.dispatch(Optimize::cvd("c")).unwrap();
    odb
}

/// Apply `edits` to `payload`: overwrite a byte, cut the tail, insert a
/// byte, or stamp eight `0xff` bytes (a hostile count or length).
fn mutate(payload: &mut Vec<u8>, edits: &[(usize, u8, u8)]) {
    for &(pos_seed, byte, kind) in edits {
        let pos = pos_seed % (payload.len() + 1);
        match kind {
            0 if pos < payload.len() => payload[pos] = byte,
            1 => payload.truncate(pos),
            2 => payload.insert(pos, byte),
            _ => {
                let end = (pos + 8).min(payload.len());
                payload[pos..end].fill(0xff);
            }
        }
    }
}

/// The 31-byte payload of one table `z` with no columns that declares
/// `rows` rows: nothing after the count, since a row of no values is empty.
fn zero_column_payload(rows: u64) -> Vec<u8> {
    let mut p = vec![0]; // join strategy: auto
    p.extend_from_slice(&1u32.to_le_bytes()); // one table
    p.extend_from_slice(&1u32.to_le_bytes());
    p.push(b'z');
    p.extend_from_slice(&0u32.to_le_bytes()); // no columns
    p.extend_from_slice(&0u32.to_le_bytes()); // no primary key
    p.extend_from_slice(&0u32.to_le_bytes()); // no indexes
    p.push(0); // not clustered
    p.extend_from_slice(&rows.to_le_bytes());
    p
}

/// A snapshot whose one table has no columns but declares rows used to
/// load (5 000 000 empty rows from 51 bytes), and a count near `u64::MAX`
/// grew memory without bound. SQL cannot create such a table; the loader
/// refuses it, and bounds every row count by the bytes left.
#[test]
fn a_table_that_declares_rows_but_no_columns_is_refused() {
    use orpheusdb::engine::storage::{deserialize_database, serialize_database, wrap_envelope};

    for rows in [1, 5_000_000, u64::MAX - 1] {
        let snapshot = wrap_envelope(&zero_column_payload(rows));
        assert_eq!(snapshot.len(), 51);
        let err = deserialize_database(&snapshot).err();
        assert!(
            matches!(&err, Some(orpheusdb::engine::EngineError::Storage(m)) if m.contains("no columns")),
            "{rows} rows: {err:?}"
        );
    }
    // The same table holding no rows is a valid (if useless) snapshot.
    let empty = deserialize_database(&wrap_envelope(&zero_column_payload(0))).unwrap();
    assert_eq!(empty.table("z").unwrap().len(), 0);

    // A row count the remaining bytes cannot hold is refused before any
    // row is decoded, and an instance snapshot embedding either fails too.
    let mut payload = payload_of(&serialize_database(&snapshot_fixture()));
    let six_rows = payload
        .windows(8)
        .position(|w| w == 6u64.to_le_bytes())
        .expect("the row count of t");
    payload[six_rows..six_rows + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let err = deserialize_database(&wrap_envelope(&payload)).unwrap_err();
    assert!(err.to_string().contains("row(s) in"), "{err}");
}

/// Every byte of both snapshot payloads, stamped in turn with hostile
/// values (small tags, sign bits, `u32`/`u64` counts of all ones) inside a
/// valid envelope, loads or fails cleanly. This is what found that an
/// instance whose version metadata names a parent that does not precede
/// the version (or shares more records than either holds) panicked while
/// rebuilding the version tree, and that a partition count past the
/// version count or a record count its rlist does not hold made loading
/// a partitioned CVD allocate or overflow; the loader now refuses them.
#[test]
fn every_payload_byte_stamped_hostile_loads_or_fails_cleanly() {
    use orpheusdb::core::persist;
    use orpheusdb::engine::storage::{deserialize_database, serialize_database, wrap_envelope};

    let engine = payload_of(&serialize_database(&snapshot_fixture()));
    let instance = payload_of(&persist::serialize(&instance_fixture()));
    let stamps = [
        (0u8, 1),
        (1, 1),
        (2, 1),
        (7, 1),
        (0x7f, 1),
        (0x80, 1),
        (0xff, 1),
        (0xff, 4),
        (0xff, 8),
    ];
    let mut panicked = Vec::new();
    for (which, base) in [(0, &engine), (1, &instance)] {
        for pos in 0..base.len() {
            for (byte, width) in stamps {
                let mut payload = base.clone();
                let end = (pos + width).min(payload.len());
                payload[pos..end].fill(byte);
                let snapshot = wrap_envelope(&payload);
                let load = std::panic::catch_unwind(|| match which {
                    0 => deserialize_database(&snapshot).is_ok(),
                    _ => persist::deserialize(&snapshot).is_ok(),
                });
                if load.is_err() {
                    panicked.push((which, pos, byte, width));
                }
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "(payload, offset, byte, width) that panicked: {panicked:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The snapshot decoders' own checks, past the checksum: edited
    /// payloads are re-wrapped in a *valid* envelope (`wrap_envelope`
    /// recomputes the CRC), so every edit reaches the engine's and the
    /// instance's decoders. Each must return — a database or an error —
    /// without panicking, hanging or allocating what the bytes cannot
    /// hold.
    #[test]
    fn snapshot_decoders_survive_edited_payloads_in_a_valid_envelope(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), 0u8..4), 1..4),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use orpheusdb::core::persist;
        use orpheusdb::engine::storage::{deserialize_database, serialize_database, wrap_envelope};

        let mut engine = payload_of(&serialize_database(&snapshot_fixture()));
        mutate(&mut engine, &edits);
        let _ = deserialize_database(&wrap_envelope(&engine));

        let mut instance = payload_of(&persist::serialize(&instance_fixture()));
        mutate(&mut instance, &edits);
        let _ = persist::deserialize(&wrap_envelope(&instance));

        // Pure noise, and noise behind a valid instance section header.
        let _ = deserialize_database(&wrap_envelope(&noise));
        let mut headed = instance[..20.min(instance.len())].to_vec();
        headed.extend_from_slice(&noise);
        let _ = persist::deserialize(&wrap_envelope(&headed));
        for zero_columns in [zero_column_payload(5_000_000), zero_column_payload(u64::MAX)] {
            prop_assert!(deserialize_database(&wrap_envelope(&zero_columns)).is_err());
        }
    }
}

/// Reserved words are rejected as identifiers everywhere — the flip side
/// of the print→parse fixpoint above (found by the fixpoint property when
/// the generator emitted `on` as a column name).
#[test]
fn reserved_words_are_rejected_as_identifiers() {
    for kw in [
        "on", "as", "from", "where", "select", "group", "order", "limit",
    ] {
        assert!(
            parse_statement(&format!("SELECT {kw} FROM t")).is_err(),
            "column {kw}"
        );
        assert!(
            parse_statement(&format!("SELECT x FROM {kw}")).is_err(),
            "table {kw}"
        );
    }
    // Near-misses are fine.
    parse_statement("SELECT onx, fromage FROM selects").unwrap();
}

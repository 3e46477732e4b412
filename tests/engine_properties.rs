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
        proptest::collection::vec(-100i64..100, 0..6).prop_map(|a| Value::IntArray(a.into())),
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
    // Cheap cases, and the rarer heap shapes a wrong search window shows on
    // need many of them.
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// `Table::resolve_int_keys` — a positional walk wherever a unique
    /// index lets it guess a slot — returns exactly the `(key, slot)` pairs
    /// of one `index_lookup` per key, in key order: for sorted and unsorted
    /// key lists with gaps, misses, repeats, negative and extreme keys, and
    /// for sorted subsets of the heap's keys with misses and repeats, on a
    /// unique and a non-unique index, whatever appends, deletes, a
    /// key-moving replace and clustering on another column did to the heap.
    /// Partition-shaped heaps are among them: ascending keys with irregular
    /// gaps (a keep-mask), deletes in the middle, and a tail of mostly lower
    /// keys appended after the rest, as a migration leaves a partition table
    /// it reuses.
    ///
    /// The number of keys `Table::lookup_keys` sends to the index is pinned
    /// too. A key must be probed unless its slot is the one the previous
    /// match predicts, or lies in the window after that match an ascending
    /// heap could hold it in, `(slot, slot + key − previous key]`; only
    /// those keys may skip the probe, and on a heap ascending in the key
    /// all of them do.
    #[test]
    fn resolve_int_keys_matches_one_index_lookup_per_key(
        n in 0usize..200,
        unique in any::<bool>(),
        step in 1i64..4,
        partition_shaped in any::<bool>(),
        keep in proptest::collection::vec(0u8..4, 280..281),
        moves in proptest::collection::vec((any::<usize>(), -60i64..700), 0..4),
        cluster in any::<bool>(),
        deletes in proptest::collection::vec(any::<usize>(), 0..6),
        appends in 0usize..80,
        migrated in any::<bool>(),
        tail in proptest::collection::vec(-12i64..6, 0..12),
        picks in proptest::collection::vec(-70i64..800, 0..80),
        sorted in any::<bool>(),
        subset in proptest::collection::vec((0u8..4, 0usize..8), 1..40),
    ) {
        use orpheusdb::engine::Table;

        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("tag", DataType::Int),
        ]);
        let mut t = Table::new("t", schema);
        t.create_index("t_k", &["k"], unique).unwrap();
        // Keys from -40 up by `step`; a non-unique index holds each twice.
        // A partition-shaped heap keeps about three rows in four.
        let key = |i: usize| -40 + step * if unique { i } else { i / 2 } as i64;
        let kept = |i: usize| !partition_shaped || keep[i] != 0;
        let row = |k: i64, i: usize| vec![Value::Int(k), Value::Int((i as i64 * 37) % 11)];
        for i in (0..n).filter(|&i| kept(i)) {
            t.insert(row(key(i), i)).unwrap();
        }
        if !partition_shaped {
            for (slot, k) in &moves {
                if !t.is_empty() {
                    let slot = slot % t.len();
                    let mut moved = t.row(slot).to_vec();
                    moved[0] = Value::Int(*k);
                    // A move onto a key a unique index holds is refused.
                    let _ = t.replace_row(slot, moved);
                }
            }
            if cluster {
                t.cluster_by(&["tag"]).unwrap();
            }
        }
        if !t.is_empty() {
            t.delete_slots(deletes.iter().map(|s| s % t.len()).collect());
        }
        for i in (n..n + appends).filter(|&i| kept(i)) {
            let _ = t.insert(row(key(i), i));
        }
        // A run of keys appended in ascending order, most of them below the
        // heap's largest, as a migration appends records to a partition
        // table it reuses.
        if partition_shaped && migrated {
            let top = t.rows().map(|r| r[0].as_int().unwrap()).max().unwrap_or(0);
            let mut tail = tail;
            tail.sort_unstable();
            for (i, k) in tail.into_iter().enumerate() {
                let _ = t.insert(row(top + k, i));
            }
        }

        let heap: Vec<i64> = t.rows().map(|r| r[0].as_int().unwrap()).collect();
        let ascending = heap.windows(2).all(|w| w[0] < w[1]);
        let mut keys = picks;
        keys.extend([i64::MIN, i64::MAX]);
        if sorted {
            keys.sort_unstable();
        }
        // Sorted subsets of the heap's keys, from three starting keys: a key
        // is taken, taken twice, taken with the key after it or replaced by
        // that key (which the heap may lack), then up to seven are skipped.
        let mut held = heap.clone();
        held.sort_unstable();
        held.dedup();
        let subsets = (0..3).map(|start| {
            let (mut sub, mut j) = (Vec::new(), start);
            for &(take, skip) in subset.iter().cycle() {
                let Some(&k) = held.get(j) else { break };
                match take {
                    0 => sub.push(k),
                    1 => sub.extend([k, k]),
                    2 => sub.extend([k, k + 1]),
                    _ => sub.push(k + 1),
                }
                j += 1 + skip;
            }
            sub.sort_unstable();
            sub
        });
        // Every key in heap order is the walk's best case, one guess per row.
        for keys in [keys, heap].into_iter().chain(subsets) {
            let mut want = Vec::new();
            let (mut must, mut may) = (0, 0);
            let mut last: Option<(i64, usize)> = None;
            for &k in &keys {
                let slots = t.index_lookup(&[0], &[Value::Int(k)]).unwrap();
                want.extend(slots.iter().map(|&slot| (k, slot)));
                // `Some(true)`: the predicted slot; `Some(false)`: in the
                // window before it; `None`: the index must be probed.
                let skips = match (last, slots) {
                    (Some((last_key, last_slot)), &[slot]) if unique => {
                        let (reach, slot, last_slot) =
                            (k as i128 - last_key as i128, slot as i128, last_slot as i128);
                        if slot == last_slot + reach {
                            Some(true)
                        } else if reach > 0 && last_slot < slot && slot <= last_slot + reach {
                            Some(false)
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                match skips {
                    Some(true) => {}
                    Some(false) => may += 1,
                    None => must += 1,
                }
                if let &[slot] = slots {
                    last = Some((k, slot));
                }
            }
            let got = t.resolve_int_keys(0, &keys).unwrap();
            prop_assert!(got == want, "{:?}: {:?} vs {:?}", keys, got, want);
            let probes = t
                .lookup_keys(&[0], keys.iter().map(|&k| [Value::Int(k)]), |_, _| {})
                .unwrap();
            prop_assert!(
                must <= probes && probes <= must + may,
                "{:?}: {} probes, {} to {} expected", keys, probes, must, must + may
            );
            if ascending {
                prop_assert_eq!(probes, must);
            }
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
                    Value::IntArray(a.clone().into()),
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// An overlay (`Table::select`) reads as the table `copy_rows` of the
    /// same slots builds, whatever is written to it or to its source, in
    /// any order: after every step its length, rows stepped, folded and by
    /// slot, storage bytes, average row width, clustering and indexes
    /// (names and lookups) equal those of that copy, which takes every
    /// write the overlay takes — inserts and updates into its tail,
    /// deletes, `ADD COLUMN`, and the writes that store it. Its page row
    /// width is the copy's once no unwritten source row is left, and until
    /// then charges each source row the source's average (the cost model's
    /// rule). Writes to the source (insert, `replace_row`, `delete_slots`,
    /// `add_column`, `alter_column_type`, `cluster_by`) never show through
    /// it, and no write to the overlay changes the source. Some overlays
    /// are taken over an overlay of the source.
    #[test]
    fn a_selection_reads_as_the_copy_it_stands_for(
        n in 0usize..150,
        picks in proptest::collection::vec(any::<u16>(), 0..140),
        width in 1usize..4,
        nested in any::<bool>(),
        ops in proptest::collection::vec((0u8..17, any::<u16>(), -50i64..400), 1..24),
    ) {
        use orpheusdb::engine::{Held, Table};

        fn source_row(t: &Table, rid: i64, k: i64) -> Vec<Value> {
            let mut row = vec![
                Value::Int(rid),
                if k % 5 == 0 { Value::Null } else { Value::Text(format!("t{}", k % 13)) },
                Value::Int(k % 17),
                Value::Double(k as f64 / 4.0),
            ];
            row.resize(t.schema.arity(), Value::Null);
            row
        }
        fn staged_row(t: &Table, k: i64) -> Vec<Value> {
            let mut row = vec![Value::Int(k), Value::Text(format!("s{}", k % 7)), Value::Int(k % 5)];
            row.resize(t.schema.arity(), Value::Null);
            row
        }
        fn rows_of(t: &Table) -> Vec<Vec<Value>> {
            t.rows().map(<[Value]>::to_vec).collect()
        }
        fn agree(sel: &Table, copy: &Table, source_avg: usize, what: &str) -> Result<(), TestCaseError> {
            prop_assert!(sel.len() == copy.len(), "{}: {} rows, copy {}", what, sel.len(), copy.len());
            prop_assert!(sel.schema == copy.schema, "{}: {:?} vs {:?}", what, sel.schema, copy.schema);
            let rows = rows_of(copy);
            prop_assert!(sel.rows().eq(copy.rows()), "{}: rows differ", what);
            prop_assert!(sel.rows().len() == rows.len(), "{}: {:?} vs {:?}", what, sel.rows().len(), rows.len());
            let folded = sel.rows().fold(Vec::new(), |mut all, row| {
                all.push(row.to_vec());
                all
            });
            prop_assert!(folded == rows, "{}: folded rows differ", what);
            for (slot, row) in rows.iter().enumerate() {
                prop_assert!(sel.row(slot) == &row[..], "{}: slot {}", what, slot);
            }
            prop_assert!(sel.heap_bytes() == copy.heap_bytes(), "{}: {:?} vs {:?}", what, sel.heap_bytes(), copy.heap_bytes());
            prop_assert!(sel.storage_bytes() == copy.storage_bytes(), "{}: {:?} vs {:?}", what, sel.storage_bytes(), copy.storage_bytes());
            prop_assert!(sel.avg_row_bytes() == copy.avg_row_bytes(), "{}: {:?} vs {:?}", what, sel.avg_row_bytes(), copy.avg_row_bytes());
            prop_assert!(sel.clustered_on() == copy.clustered_on(), "{}: {:?} vs {:?}", what, sel.clustered_on(), copy.clustered_on());
            let names = |t: &Table| t.indexes().iter().map(|i| i.name.clone()).collect::<Vec<_>>();
            prop_assert!(names(sel) == names(copy), "{}: {:?} vs {:?}", what, names(sel), names(copy));
            for idx in copy.indexes() {
                let own = sel.index_named(&idx.name).unwrap();
                for row in &rows {
                    let key = idx.key_of(row);
                    prop_assert!(own.lookup(&key) == idx.lookup(&key), "{}: {} at {:?}", what, idx.name, key);
                }
            }
            // The page row width: the copy's, or with unwritten source
            // rows left, the source's average for each of them (plus the
            // NULLs it reads past its cells) and the tail rows' own bytes.
            let held: Vec<Held> = sel.overlay_rows().map_or_else(Vec::new, Iterator::collect);
            let sources = held.iter().filter(|h| matches!(h, Held::Source(_))).count();
            let page_row_bytes = if sources == 0 {
                copy.page_row_bytes()
            } else {
                let charged: usize = held.iter().map(|h| match h {
                    Held::Source(cells) => source_avg + sel.schema.arity() - cells.len(),
                    Held::Tail(cells) => cells.iter().map(Value::storage_bytes).sum(),
                }).sum();
                (charged / held.len()).max(1)
            };
            prop_assert!(sel.page_row_bytes() == page_row_bytes, "{}: {} vs {}", what, sel.page_row_bytes(), page_row_bytes);
            Ok(())
        }

        let schema = Schema::new(vec![
            Column::new("rid", DataType::Int).not_null(),
            Column::new("a", DataType::Text),
            Column::new("b", DataType::Int),
            Column::new("c", DataType::Double),
        ])
        .with_primary_key(&["rid"])
        .unwrap();
        let mut source = Table::new("src", schema);
        for rid in 0..n as i64 {
            let row = source_row(&source, rid, rid * 7);
            source.insert(row).unwrap();
        }
        let slots: Vec<usize> = if n == 0 {
            Vec::new()
        } else {
            picks.iter().map(|&p| p as usize % n).collect()
        };
        let (mut sel, mut copy) = if nested && n > 0 {
            // A selection of every row, reversed, and one over it.
            let outer = source.select("outer", 4, (0..n).rev().collect());
            let sel = outer.select("sel", width, slots.clone());
            let mut copy = Table::new("sel", (*sel.schema).clone());
            copy.copy_rows(&outer, slots.iter().copied()).unwrap();
            (sel, copy)
        } else {
            let sel = source.select("sel", width, slots.clone());
            let mut copy = Table::new("sel", (*sel.schema).clone());
            copy.copy_rows(&source, slots.iter().copied()).unwrap();
            (sel, copy)
        };
        // The average row width of the payload every overlay here reads.
        let source_avg = source.heap_bytes().checked_div(source.len()).unwrap_or(0);
        agree(&sel, &copy, source_avg, "taken")?;

        let mut next_rid = n as i64;
        for (step, (kind, a, b)) in ops.into_iter().enumerate() {
            let a = a as usize;
            let what = format!("step {step}: op {kind}");
            if kind < 6 {
                // A write to the source.
                match kind {
                    0 => {
                        let row = source_row(&source, next_rid, b);
                        source.insert(row).unwrap();
                        next_rid += 1;
                    }
                    1 if !source.is_empty() => {
                        let slot = a % source.len();
                        let rid = source.row(slot)[0].clone();
                        let mut row = source_row(&source, 0, b);
                        row[0] = rid;
                        source.replace_row(slot, row).unwrap();
                    }
                    2 if !source.is_empty() => {
                        source.delete_slots(vec![a % source.len(), (a / 3) % source.len()]);
                    }
                    3 => {
                        let name = format!("x{}", source.schema.arity());
                        source.add_column(Column::new(name, DataType::Int)).unwrap();
                    }
                    4 => {
                        let (col, to) = if a % 2 == 0 { ("b", DataType::Double) } else { ("c", DataType::Text) };
                        source.alter_column_type(col, to).unwrap();
                    }
                    5 => source.cluster_by(&[["a", "b", "c"][a % 3]]).unwrap(),
                    _ => {}
                }
            } else {
                // The same write to the selection and to its copy; the
                // source must not move.
                let before = (rows_of(&source), source.storage_bytes(), source.schema.clone());
                let arity = copy.schema.arity();
                let col = copy.schema.columns[a % arity].name.clone();
                let (got, want): (Result<String, String>, Result<String, String>) = {
                    let write = |t: &mut Table| -> Result<String, String> {
                        let text = |r: orpheusdb::engine::Result<usize>| {
                            r.map(|n| n.to_string()).map_err(|e| e.to_string())
                        };
                        let unit = |r: orpheusdb::engine::Result<()>| text(r.map(|_| 0));
                        match kind {
                            6 => unit(t.insert(staged_row(t, b))),
                            7 => {
                                let rows = [staged_row(t, b), staged_row(t, b + 1)];
                                text(t.insert_many(rows.iter().map(Vec::as_slice)))
                            }
                            8 if !t.is_empty() => unit(t.replace_row(a % t.len(), staged_row(t, b))),
                            10 if a % 4 == 0 => {
                                t.truncate();
                                Ok(String::new())
                            }
                            // About one row in seven, the first row in a
                            // third of the cases, and one more, unsorted.
                            9 | 10 if !t.is_empty() => {
                                let len = t.len();
                                let mut doomed: Vec<usize> = (0..len)
                                    .filter(|&i| (i * 3 + a) % 7 == 0 || i == a % 3)
                                    .collect();
                                doomed.push(b as usize % len);
                                doomed.reverse();
                                Ok(t.delete_slots(doomed).to_string())
                            }
                            11 => unit(t.create_index(format!("i{b}"), &[col.as_str()], a % 3 == 0)),
                            12 => unit(t.cluster_by(&[col.as_str()])),
                            13 => unit(t.add_column(Column::new(format!("y{}", t.schema.arity()), DataType::Int))),
                            14 => unit(t.alter_column_type(&col, DataType::Text)),
                            15 => {
                                t.rename(&format!("sel{b}"));
                                Ok(t.name.to_string())
                            }
                            16 if !source.is_empty() => {
                                let from: Vec<usize> = vec![a % source.len(), b as usize % source.len()];
                                text(t.copy_rows(&source, from))
                            }
                            _ => Ok(String::new()),
                        }
                    };
                    (write(&mut sel), write(&mut copy))
                };
                prop_assert!(got == want, "{}: {:?} vs {:?}", what, got, want);
                prop_assert!(rows_of(&source) == before.0, "{}: the source's rows moved", what);
                prop_assert!(source.storage_bytes() == before.1, "{}: {:?} vs {:?}", what, source.storage_bytes(), before.1);
                prop_assert!(source.schema == before.2, "{}: {:?} vs {:?}", what, source.schema, before.2);
            }
            agree(&sel, &copy, source_avg, &what)?;
        }
    }
}

/// The payload of an engine or instance snapshot (between the 16-byte
/// header and the 4-byte CRC).
fn payload_of(snapshot: &[u8]) -> Vec<u8> {
    snapshot[16..snapshot.len() - 4].to_vec()
}

/// `payload` in a valid snapshot envelope, its CRC computed afresh.
fn wrap_envelope(payload: &[u8]) -> Vec<u8> {
    use orpheusdb::engine::storage::{put_envelope, Sink};

    let mut out = Vec::new();
    put_envelope(&mut out, payload.len() as u64, |s| s.put(payload));
    out
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
    use orpheusdb::engine::storage::{deserialize_database, serialize_database};

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
    use orpheusdb::engine::storage::{deserialize_database, serialize_database};

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
        use orpheusdb::engine::storage::{deserialize_database, serialize_database};

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

//! The served stack's cost model, as allocation counts: what one commit
//! cycle and one snapshot checkout cost must not depend on how many
//! versions the CVD has or how many records its data table holds — only
//! on the version being read and the rows being written.
//!
//! A `SharedOrpheusDB` publishes an immutable snapshot of a shard after
//! every write and serves every read from a clone of it. Before the
//! engine's heap and indexes were chunked, that clone was followed by a
//! deep copy of every row, index entry and `VersionMeta` of the CVD on
//! the next write; these tests fail on that design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use orpheusdb::prelude::*;

/// Counts allocation calls per thread, so tests running in parallel do
/// not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell`, which allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const CVD: &str = "ledger";

/// A served CVD whose first version has `base_rows` rows, cut down to
/// `kept_rows` by the second, and then grown to `versions` versions by
/// two-row commit cycles on the latest one.
fn served(base_rows: i64, kept_rows: i64, versions: u64) -> (SharedOrpheusDB, Session) {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .with_primary_key(&["k"])
    .unwrap();
    let rows = (0..base_rows)
        .map(|k| vec![k.into(), (k * 7).into()])
        .collect();
    let mut odb = OrpheusDB::new();
    odb.init_cvd(CVD, schema, rows, None).unwrap();
    let shared = SharedOrpheusDB::new(odb);
    let session = shared.session("writer").unwrap();
    session.checkout(CVD, &[Vid(1)], "work").unwrap();
    session
        .run(&format!("DELETE FROM work WHERE k >= {kept_rows}"))
        .unwrap();
    assert_eq!(session.commit("work", "cut").unwrap(), Vid(2));
    for v in 3..=versions {
        assert_eq!(cycle(&session, v - 1), Vid(v));
    }
    (shared, session)
}

/// One commit cycle on version `parent`: check it out, swap two rows for
/// two new ones, commit.
fn cycle(session: &Session, parent: u64) -> Vid {
    let fresh = 1_000_000 + 2 * parent as i64;
    session.checkout(CVD, &[Vid(parent)], "work").unwrap();
    session
        .run(&format!(
            "INSERT INTO work VALUES (NULL, {fresh}, 1), (NULL, {}, 2)",
            fresh + 1
        ))
        .unwrap();
    if parent > 2 {
        session
            .run(&format!(
                "DELETE FROM work WHERE k >= {} AND k < {fresh}",
                fresh - 2
            ))
            .unwrap();
    }
    session.commit("work", "cycle").unwrap()
}

/// `(allocations of a snapshot checkout, allocations of a commit cycle)`
/// on the latest of `versions` versions.
fn costs(base_rows: i64, kept_rows: i64, versions: u64) -> (u64, u64) {
    let (_shared, session) = served(base_rows, kept_rows, versions);
    // One unmeasured cycle first: lazily sized buffers are warm after it.
    cycle(&session, versions);
    let latest = versions + 1;
    let checkout = allocs_of(|| session.checkout(CVD, &[Vid(latest)], "peek").unwrap());
    session.discard("peek").unwrap();
    let commit = allocs_of(|| {
        cycle(&session, latest);
    });
    (checkout, commit)
}

fn assert_within_15_percent(what: &str, small: u64, large: u64) {
    assert!(
        (large as f64) < small as f64 * 1.15,
        "{what}: {small} allocations on the small CVD, {large} on the large one"
    );
}

#[test]
fn a_served_commit_and_checkout_do_not_pay_for_the_version_count() {
    let few = costs(50, 50, 100);
    let many = costs(50, 50, 1_000);
    assert_within_15_percent("checkout, 100 vs 1000 versions", few.0, many.0);
    assert_within_15_percent("commit cycle, 100 vs 1000 versions", few.1, many.1);
}

#[test]
fn a_served_commit_and_checkout_do_not_pay_for_the_record_count() {
    let small = costs(2_000, 200, 3);
    let large = costs(20_000, 200, 3);
    assert_within_15_percent("checkout, 2k vs 20k records", small.0, large.0);
    assert_within_15_percent("commit cycle, 2k vs 20k records", small.1, large.1);
}

/// Allocations per new record of a split-by-rlist commit on a 1 000-row
/// parent whose records have `attrs` INT attributes: a commit adding 200
/// records minus one adding 20, over 180.
fn commit_slope(attrs: i64) -> f64 {
    let commit_allocs = |new_rows: i64| {
        let schema = Schema::new(
            (0..attrs)
                .map(|i| Column::new(format!("a{i}"), DataType::Int))
                .collect(),
        );
        let row = |k: i64| (0..attrs).map(|i| Value::Int(k * attrs + i)).collect();
        let mut odb = OrpheusDB::new();
        odb.init_cvd(CVD, schema, (0..1_000).map(row).collect(), None)
            .unwrap();
        odb.checkout(CVD, &[Vid(1)], "work").unwrap();
        let staged = odb.engine.table_mut("work").unwrap();
        for k in 1_000..1_000 + new_rows {
            let mut values: Vec<Value> = row(k);
            values.insert(0, Value::Null);
            staged.insert(values).unwrap();
        }
        allocs_of(|| {
            odb.commit("work", "grow").unwrap();
        })
    };
    (commit_allocs(200) - commit_allocs(20)) as f64 / 180.0
}

/// A committed record is handed to the engine as the `Value`s it already
/// is: what it costs to persist does not grow with its attribute count, as
/// it did while every cell was rendered as SQL text and parsed back.
#[test]
fn a_commit_does_not_pay_per_attribute_of_a_new_record() {
    let narrow = commit_slope(3);
    let wide = commit_slope(13);
    assert!(
        wide <= narrow * 1.25,
        "{wide:.1} allocations per new record with 13 INT attributes, {narrow:.1} with 3"
    );
}

/// `INSERT INTO work VALUES (NULL, k, 1), …` for `rows` fresh keys.
fn insert_sql(next_key: &mut i64, rows: i64) -> String {
    let values: Vec<String> = (*next_key..*next_key + rows)
        .map(|k| format!("(NULL, {k}, 1)"))
        .collect();
    *next_key += rows;
    format!("INSERT INTO work VALUES {}", values.join(", "))
}

/// Allocations per inserted row, as `run` executes multi-row INSERTs into
/// a staged `work`: a 200-row statement minus a 20-row one, over 180.
fn per_row_slope(mut run: impl FnMut(&str)) -> f64 {
    let mut next_key = 1_000_000;
    // Unmeasured first: lazily sized buffers are warm after it.
    run(&insert_sql(&mut next_key, 200));
    let (small, large) = (
        insert_sql(&mut next_key, 20),
        insert_sql(&mut next_key, 200),
    );
    let small = allocs_of(|| run(&small));
    let large = allocs_of(|| run(&large));
    (large - small) as f64 / 180.0
}

/// The bolt-on bargain (Section 2.2): the middleware lexes a `Run` once and
/// the engine parses those tokens, so what a statement costs per row is
/// what the engine charges for it — not a multiple, however many layers
/// (routing, the access guard, the translator) look at it on the way.
#[test]
fn the_middleware_does_not_multiply_what_the_engine_charges_per_row() {
    let staged = || {
        let (shared, session) = served(50, 50, 2);
        session.checkout(CVD, &[Vid(2)], "work").unwrap();
        (shared, session)
    };

    let (shared, _session) = staged();
    let mut odb = shared.read(|odb| odb.clone());
    let engine = per_row_slope(|sql| drop(odb.engine.execute(sql).unwrap()));
    let in_process = per_row_slope(|sql| drop(odb.execute(Run::sql(sql).into()).unwrap()));

    // Served, with another user's staged table in the shard: the access
    // guard has identifiers to compare on every statement.
    let (shared, session) = staged();
    let other = shared.session("other").unwrap();
    other.checkout(CVD, &[Vid(2)], "theirs").unwrap();
    let served = per_row_slope(|sql| drop(session.run(sql).unwrap()));

    for (path, slope) in [
        ("OrpheusDB::execute(Run)", in_process),
        ("Session::run", served),
    ] {
        assert!(
            slope <= engine * 1.25,
            "{path}: {slope:.1} allocations per inserted row, the engine alone {engine:.1}"
        );
    }
}

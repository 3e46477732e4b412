//! The served stack's cost model, as allocation counts: what one commit
//! cycle and one snapshot checkout cost must not depend on how many
//! versions the CVD has or how many records its data table holds — only
//! on the version being read and the rows being written.
//!
//! A `SharedOrpheusDB` publishes an immutable snapshot of a shard after
//! every write — a clone of the shard — and serves every read from that
//! snapshot, borrowed. Before the engine's heap and indexes were chunked,
//! the publish was followed by a deep copy of every row, index entry and
//! `VersionMeta` of the CVD on the next write; these tests fail on that
//! design.
//!
//! A commit to a partitioned CVD also pays for the Section 4.3 check: the
//! maintainer reruns the budget search on every commit (`check_every:
//! 1`). That must stay a handful of buffers per search plus a few per
//! Algorithm-1 run — not a member list per component, a children list per
//! version or a hash map per partition, which made it grow with the
//! version count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use orpheusdb::bench::generator::{Workload, WorkloadParams};
use orpheusdb::core::{recovery, wal};
use orpheusdb::partition::lyresplit::{lyresplit_for_budget, EdgePick};
use orpheusdb::partition::online::{OnlineConfig, OnlineMaintainer};
use orpheusdb::partition::VersionTree;
use orpheusdb::prelude::*;

/// Counts allocation calls, the bytes allocated minus the bytes freed,
/// and the highest that live count has reached, per thread, so tests
/// running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(bytes: i64) {
    let live = LIVE.with(|n| {
        n.set(n.get() + bytes);
        n.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialized thread-local `Cell`s, which allocate nothing
// themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        track(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        track(new_size as i64 - layout.size() as i64);
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

/// Heap bytes `f` allocates on this thread, whatever it frees again.
fn bytes_of(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// Heap bytes `f` leaves allocated: what it allocated on this thread
/// minus what it freed.
fn live_bytes_of(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    f();
    LIVE.with(Cell::get) - before
}

/// How far `f` raises this thread's live heap above where it started, at
/// its highest.
fn peak_rise_of(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    f();
    PEAK.with(Cell::get) - before
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

/// The statements of one commit cycle on version `parent`, run on its
/// checkout `work`: two new rows in, and past version 2 the two the
/// previous cycle added out.
fn cycle_sql(parent: u64) -> Vec<String> {
    let fresh = 1_000_000 + 2 * parent as i64;
    let mut sql = vec![format!(
        "INSERT INTO work VALUES (NULL, {fresh}, 1), (NULL, {}, 2)",
        fresh + 1
    )];
    if parent > 2 {
        sql.push(format!(
            "DELETE FROM work WHERE k >= {} AND k < {fresh}",
            fresh - 2
        ));
    }
    sql
}

/// One commit cycle on version `parent`: check it out, swap two rows for
/// two new ones, commit.
fn cycle(session: &Session, parent: u64) -> Vid {
    session.checkout(CVD, &[Vid(parent)], "work").unwrap();
    for sql in cycle_sql(parent) {
        session.run(&sql).unwrap();
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

/// An in-process CVD of 50 rows grown to `versions` versions by the commit
/// cycles [`served`] runs through a session: only what is measured needs
/// one.
fn grown(versions: u64) -> OrpheusDB {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .with_primary_key(&["k"])
    .unwrap();
    let rows = (0..50i64).map(|k| vec![k.into(), (k * 7).into()]);
    let mut odb = OrpheusDB::new();
    odb.init_cvd(CVD, schema, rows.collect(), None).unwrap();
    for parent in 1..versions {
        odb.checkout(CVD, &[Vid(parent)], "work").unwrap();
        for sql in cycle_sql(parent) {
            odb.run(&sql).unwrap();
        }
        assert_eq!(odb.commit("work", "cycle").unwrap(), Vid(parent + 1));
    }
    odb
}

/// Bytes allocated, on the latest of `versions` versions, by a served
/// commit cycle and by a served `diff` against its parent. Each runs once
/// unmeasured first.
fn served_bytes(versions: u64) -> [u64; 2] {
    let shared = SharedOrpheusDB::new(grown(versions));
    let session = shared.session("writer").unwrap();
    cycle(&session, versions);
    let latest = versions + 1;
    let commit = bytes_of(|| {
        cycle(&session, latest);
    });
    let (latest, parent) = (Vid(latest + 1), Vid(latest));
    let diff = || drop(session.diff(CVD, latest, parent).unwrap());
    diff();
    [commit, bytes_of(diff)]
}

/// Every served write publishes a snapshot of its shard and every served
/// read borrows one; neither copies a pointer per version. The bytes a
/// commit cycle and a `diff` allocate stay flat from 100 to 4 000
/// versions: 117 478 and 99 002 B for the cycle, 512 B for the `diff` at
/// both (2 134 B while each served read ran on a private clone of the
/// snapshot). While each publish and snapshot read cloned the two version
/// lists whole, that was 59 B more per version for the cycle and 16 B
/// more for the `diff`. The allocation-call pin above cannot see it: a
/// whole-list clone is one call at any length.
#[test]
fn a_served_request_allocates_no_bytes_per_version() {
    let few = served_bytes(100);
    let many = served_bytes(4_000);
    for (i, what) in ["commit cycle", "diff"].into_iter().enumerate() {
        assert!(
            (many[i] as f64) < few[i] as f64 * 1.15,
            "{what}: {} bytes allocated at 100 versions, {} at 4 000",
            few[i],
            many[i]
        );
    }
}

/// Bytes one clone of the CVD's catalog entry allocates — its share of
/// every publish — once `optimize` has
/// partitioned its `versions` versions.
fn partitioned_clone_bytes(versions: u64) -> u64 {
    let mut odb = grown(versions);
    odb.optimize(CVD).unwrap();
    let cvd = odb.cvd(CVD).unwrap();
    bytes_of(|| drop(cvd.clone()))
}

/// A partitioned CVD's version lists and partition state are shared by
/// its clones, not copied: 80 B per clone at either size, against 5 744 B
/// at 100 versions and 226 128 B at 4 000 while the lists were pointer
/// vectors and the state was cloned with its per-version arrays.
/// (The engine's own clone still costs a little per table, and LyreSplit
/// gives this history more partitions, so more tables, the longer it
/// grows; that is the engine's share, not the CVD's.)
#[test]
fn a_partitioned_cvd_clones_without_its_versions() {
    let few = partitioned_clone_bytes(100);
    let many = partitioned_clone_bytes(4_000);
    assert_eq!(few, many, "bytes of one clone at 100 versions and at 4 000");
}

/// Bytes allocated, on the latest of `versions` versions once `optimize`
/// has partitioned them, by a served `diff` against its parent and by a
/// served `SELECT count(*)` of it. Each runs once unmeasured first.
fn served_partitioned_read_bytes(versions: u64) -> [u64; 2] {
    let mut odb = grown(versions);
    odb.optimize(CVD).unwrap();
    let shared = SharedOrpheusDB::new(odb);
    let session = shared.session("reader").unwrap();
    let diff = || drop(session.diff(CVD, Vid(versions), Vid(versions - 1)).unwrap());
    let sql = format!("SELECT count(*) FROM VERSION {versions} OF CVD {CVD}");
    // The 50 first rows, and the pairs the last two cycles added.
    let select = || assert_eq!(session.run(&sql).unwrap().scalar(), Some(&Value::Int(54)));
    diff();
    select();
    [bytes_of(diff), bytes_of(select)]
}

/// A served read borrows its shard's published snapshot, so what it
/// allocates does not grow with the shard's table count — which grows
/// with history here, because LyreSplit gives this chain 4 partitions at
/// 100 versions and 128 at 4 000, each two engine tables. While every
/// served read ran on a private clone of the snapshot, a `diff` allocated
/// 2 646 B at 100 versions and 39 518 B at 4 000, and the `SELECT`
/// 34 793 B and 71 713 B; borrowing, 512 B at both, and 32 659 B and
/// 32 707 B.
#[test]
fn a_served_read_allocates_no_bytes_per_partition() {
    let few = served_partitioned_read_bytes(100);
    let many = served_partitioned_read_bytes(4_000);
    for (i, what) in ["diff", "SELECT"].into_iter().enumerate() {
        assert!(
            (many[i] as f64) < few[i] as f64 * 1.15,
            "{what}: {} bytes allocated at 100 versions, {} at 4 000",
            few[i],
            many[i]
        );
    }
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

/// Allocation calls `execute` takes for a `Checkout`, a `Discard` and a
/// `Commit` on a fresh 50-row CVD, in that order — after one unmeasured
/// round, so lazily sized buffers are warm.
fn request_costs(mut execute: impl FnMut(Request)) -> [u64; 3] {
    let checkout = |table: &str| Request::from(Checkout::of(CVD).version(1u64).into_table(table));
    let insert = || Request::from(Run::sql("INSERT INTO work VALUES (NULL, 1000, 1)"));
    let commit = || Request::from(Commit::table("work").message("one row"));
    execute(checkout("peek"));
    execute(Discard::table("peek").into());
    execute(checkout("work"));
    execute(insert());
    execute(commit());

    let checkout_allocs = allocs_of(|| execute(checkout("peek")));
    let discard_allocs = allocs_of(|| execute(Discard::table("peek").into()));
    execute(checkout("work"));
    execute(insert());
    let commit_allocs = allocs_of(|| execute(commit()));
    [checkout_allocs, discard_allocs, commit_allocs]
}

/// A `Session` routes a single request under one catalog read and runs
/// it: what it adds to the `OrpheusDB` it wraps is the routing, the
/// identity swap, the staged-index bookkeeping and the snapshot publish —
/// not a batch plan for a batch of one. 41 / 37 / 147 allocation calls
/// over the bare instance for these three requests (debug and release
/// alike); 58 / 48 / 158 while every single request built a plan.
#[test]
fn a_single_request_pays_for_no_plan() {
    let fresh = || {
        let (shared, _) = served(50, 50, 1);
        shared.read(|odb| odb.clone())
    };
    let mut odb = fresh();
    let bare = request_costs(|request| drop(odb.execute(request).unwrap()));
    let shared = SharedOrpheusDB::new(fresh());
    let mut session = shared.session("writer").unwrap();
    let served = request_costs(|request| drop(session.execute(request).unwrap()));

    for (i, (what, bound)) in [("checkout", 43), ("discard", 39), ("commit", 149)]
        .into_iter()
        .enumerate()
    {
        let added = served[i] - bare[i];
        assert!(
            added <= bound,
            "a Session adds {added} allocation calls to a {what} ({} served, {} bare)",
            served[i],
            bare[i]
        );
    }
}

/// Heap bytes a checkout of version 1 and its unchanged commit leave
/// allocated, on an in-process CVD whose version 1 holds `records`
/// records: the staged table comes and goes, so what stays is the new
/// version, which keeps every record.
fn kept_version_bytes(records: i64) -> i64 {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .with_primary_key(&["k"])
    .unwrap();
    let rows = (0..records).map(|k| vec![k.into(), (k * 7).into()]);
    let mut odb = OrpheusDB::new();
    odb.init_cvd(CVD, schema, rows.collect(), None).unwrap();
    let mut keep_all = || {
        odb.checkout(CVD, &[Vid(1)], "work").unwrap();
        odb.commit("work", "keep").unwrap();
    };
    // Unmeasured first: lazily sized buffers are warm after it.
    keep_all();
    live_bytes_of(keep_all)
}

/// Split-by-rlist stores a version as one rlist: 8 bytes per kept record,
/// held once, by the catalog and the rlist table cell alike. 16 bytes per
/// kept record while the cell held a copy of the catalog's rlist.
#[test]
fn a_version_holds_its_rlist_once() {
    let (small, large) = (kept_version_bytes(1_000), kept_version_bytes(10_000));
    let per_record = (large - small) as f64 / 9_000.0;
    assert!(
        per_record <= 9.0,
        "a version keeping every record grows the live heap by {per_record:.1} B per record \
         ({small} B on 1 000 records, {large} B on 10 000)"
    );
}

/// `(peak heap rise, snapshot bytes)` of a checkpoint of a WAL-backed
/// instance whose CVD holds `records` records in three versions that keep
/// them all.
fn checkpoint_cost(records: i64) -> (i64, u64) {
    let dir = std::env::temp_dir().join(format!(
        "orpheus-checkpoint-peak-{records}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .with_primary_key(&["k"])
    .unwrap();
    let rows = (0..records).map(|k| vec![k.into(), (k * 7).into()]);
    let mut odb = recovery::open(&dir).unwrap();
    odb.init_cvd(CVD, schema, rows.collect(), None).unwrap();
    for parent in 1..3 {
        odb.checkout(CVD, &[Vid(parent)], "work").unwrap();
        odb.commit("work", "keep").unwrap();
    }
    let peak = peak_rise_of(|| {
        assert_eq!(recovery::checkpoint(&mut odb).unwrap(), 2);
    });
    let file = std::fs::metadata(wal::snapshot_path(&dir, 2))
        .unwrap()
        .len();
    drop(odb);
    let _ = std::fs::remove_dir_all(&dir);
    (peak, file)
}

/// A checkpoint streams its snapshot to disk through a 64 KiB buffer: the
/// heap it needs does not grow with the instance. About twice the file
/// while the snapshot was built in memory, envelope copies and all.
#[test]
fn a_checkpoint_does_not_hold_its_snapshot_in_memory() {
    for records in [1_000, 10_000] {
        let (peak, file) = checkpoint_cost(records);
        assert!(
            peak <= 256 * 1024,
            "a checkpoint of {records} records raised the peak live heap by {peak} B \
             (the snapshot is {file} B)"
        );
    }
}

/// The first `n` versions of `tree`.
fn prefix(tree: &VersionTree, n: usize) -> VersionTree {
    VersionTree {
        parent: tree.parent[..n].to_vec(),
        weight_to_parent: tree.weight_to_parent[..n].to_vec(),
        records: tree.records[..n].to_vec(),
    }
}

/// Allocation calls of the commit of version `n - 1` of an SCI tree of `n`
/// versions, onto the layout `Optimize` leaves on the other `n - 1`.
fn commit_allocs(n: usize) -> u64 {
    let tree = Workload::generate(WorkloadParams::sci(n, 10, 10))
        .version_graph()
        .to_tree();
    let config = OnlineConfig::default();
    let before = prefix(&tree, n - 1);
    let gamma = (config.gamma_factor * before.total_records() as f64) as u64;
    let best = lyresplit_for_budget(&before, gamma, EdgePick::BalancedVersions).0;
    let cavg_star = best.partitioning.checkout_cost_tree(&before);
    let mut m =
        OnlineMaintainer::resume(config, before, best.partitioning, best.delta, cavg_star, 0);
    let v = n - 1;
    let parent = tree.parent[v].expect("an SCI tree has one root");
    allocs_of(|| {
        m.commit(parent, tree.weight_to_parent[v], tree.records[v]);
    })
}

/// 1 000 versions: 105 allocation calls; 271 930 while every split
/// allocated four version-sized vectors and a children list per version,
/// every one of the search's 31 runs was a fresh one, and storage and
/// `Cavg` grouped every partition through a hash map.
#[test]
fn a_partitioned_commit_allocates_per_run_not_per_version() {
    let allocs = commit_allocs(1_000);
    assert!(
        allocs <= 250,
        "one OnlineMaintainer::commit on 1 000 versions: {allocs} allocation calls"
    );
}

/// Allocation calls of a versioned aggregate over version 1 — 1 000
/// records — once `grow - 1` more versions of 1 000 records each, none of
/// them version 1's, have grown the data table to `grow` × 1 000 records.
fn versioned_query_allocs(grow: i64) -> u64 {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .with_primary_key(&["k"])
    .unwrap();
    let rows = (0..1_000).map(|k| vec![k.into(), (k * 7).into()]);
    let mut odb = OrpheusDB::new();
    odb.init_cvd(CVD, schema, rows.collect(), None).unwrap();
    for batch in 1..grow {
        odb.checkout(CVD, &[Vid(1)], "work").unwrap();
        let staged = odb.engine.table_mut("work").unwrap();
        staged.truncate();
        for k in batch * 1_000..(batch + 1) * 1_000 {
            staged
                .insert(vec![Value::Null, k.into(), (k * 7).into()])
                .unwrap();
        }
        odb.commit("work", "unrelated").unwrap();
    }
    let sql = format!("SELECT count(*), sum(v) FROM VERSION 1 OF CVD {CVD} WHERE v < 5000");
    // Unmeasured first: lazily sized buffers are warm after it.
    let first = odb.run(&sql).unwrap();
    assert_eq!(
        first.rows,
        vec![vec![Value::Int(715), Value::Int(1_786_785)]]
    );
    allocs_of(|| {
        odb.run(&sql).unwrap();
    })
}

/// A query of one version reads that version's records through the rid
/// index: what it costs does not grow with the records other versions
/// added to the data table, as it did while the version was a hash join
/// against a copy of the whole table.
#[test]
fn a_versioned_query_does_not_pay_for_other_versions_records() {
    let alone = versioned_query_allocs(1);
    let among_ten = versioned_query_allocs(10);
    assert!(
        (among_ten as f64) <= alone as f64 * 1.1,
        "{alone} allocations with 1 000 records in the data table, {among_ten} with 10 000"
    );
}

/// A CVD of 8 INT attributes (keyed on `a0` when `with_pk`) whose v1
/// holds `rows` records and whose v2 rewrote the first `rewrite` of them,
/// so they carry fresh rids.
fn rewritten(rows: i64, rewrite: i64, with_pk: bool) -> OrpheusDB {
    let schema = Schema::new(
        (0..8)
            .map(|i| Column::new(format!("a{i}"), DataType::Int))
            .collect(),
    );
    let schema = if with_pk {
        schema.with_primary_key(&["a0"]).unwrap()
    } else {
        schema
    };
    let records = (0..rows)
        .map(|k| (0..8).map(|i| Value::Int(k * 8 + i)).collect())
        .collect();
    let mut odb = OrpheusDB::new();
    odb.init_cvd(CVD, schema, records, None).unwrap();
    odb.checkout(CVD, &[Vid(1)], "work").unwrap();
    odb.engine
        .execute(&format!(
            "UPDATE work SET a1 = -1 WHERE a0 < {}",
            rewrite * 8
        ))
        .unwrap();
    odb.commit("work", "rewrite").unwrap();
    odb
}

/// `(allocation calls, rows staged)` of a checkout of `vids` from a CVD
/// whose v2 rewrote half of v1's `rows` records ([`rewritten`]). An
/// unmeasured checkout of the same versions runs first, so lazily sized
/// buffers are warm.
fn checkout_cost(rows: i64, with_pk: bool, vids: &[Vid]) -> (u64, usize) {
    let mut odb = rewritten(rows, rows / 2, with_pk);
    odb.checkout(CVD, vids, "warm").unwrap();
    odb.discard("warm").unwrap();
    let allocs = allocs_of(|| odb.checkout(CVD, vids, "peek").unwrap());
    (allocs, odb.engine.table("peek").unwrap().len())
}

/// Allocation calls per record staged by a checkout of `vids`, as the
/// slope between a 1 000-record and a 2 000-record v1 (see
/// [`checkout_cost`]).
fn checkout_slope(with_pk: bool, vids: &[Vid]) -> f64 {
    let (small, small_rows) = checkout_cost(1_000, with_pk, vids);
    let (large, large_rows) = checkout_cost(2_000, with_pk, vids);
    (large - small) as f64 / (large_rows - small_rows) as f64
}

/// The paper's checkout is `SELECT … INTO` over the version's records
/// (Table 1). A single-version checkout stages a selection of the data
/// table's rows: the one allocation that grows with the records is the
/// slot list — 0.016 per record while it cloned the cells into the staged
/// table's chunks, one allocation per 64 records, 1.03 while each staged
/// row was its own vector, 2.03 while the write check copied it again.
#[test]
fn a_single_version_checkout_allocates_per_chunk_not_per_record() {
    for with_pk in [true, false] {
        let per_record = checkout_slope(with_pk, &[Vid(2)]);
        assert!(
            per_record <= 0.05,
            "checkout of v2 (primary key: {with_pk}): {per_record:.3} allocation calls \
             per record staged"
        );
    }
}

/// `(allocation calls, bytes allocated)` of a checkout of v1 and its
/// discard, on an in-process CVD of `attrs` INT attributes whose v1 holds
/// `rows` records. An unmeasured checkout and discard run first, so lazily
/// sized buffers are warm.
fn checkout_and_discard_cost(rows: i64, attrs: i64) -> (u64, u64) {
    let schema = Schema::new(
        (0..attrs)
            .map(|i| Column::new(format!("a{i}"), DataType::Int))
            .collect(),
    );
    let records = (0..rows)
        .map(|k| (0..attrs).map(|i| Value::Int(k * attrs + i)).collect())
        .collect();
    let mut odb = OrpheusDB::new();
    odb.init_cvd(CVD, schema, records, None).unwrap();
    let mut stage = || {
        odb.checkout(CVD, &[Vid(1)], "peek").unwrap();
        assert_eq!(odb.engine.table("peek").unwrap().len(), rows as usize);
        odb.discard("peek").unwrap();
    };
    stage();
    let allocs = allocs_of(&mut stage);
    (allocs, bytes_of(stage))
}

/// A single-version checkout copies no cell, so what it allocates does
/// not grow with the records' width: the slot list and the staged schema,
/// not a chunk of cells per 64 records. While it copied the cells, the
/// 32-attribute CVD's checkout allocated 3.5 times the 8-attribute one's
/// bytes (830 kB against 239 kB; now 9.6 kB against 8.7 kB).
#[test]
fn a_checkout_allocates_the_same_bytes_whatever_the_width_of_its_records() {
    let (_, narrow) = checkout_and_discard_cost(1_000, 8);
    let (_, wide) = checkout_and_discard_cost(1_000, 32);
    assert!(
        (wide as f64) < narrow as f64 * 1.15,
        "checkout + discard of 1 000 records: {narrow} bytes at 8 attributes, {wide} at 32"
    );
}

/// A checkout and its discard take the same allocation calls whatever the
/// version holds: the selection's slot list is one buffer, reserved once,
/// and dropping it frees it: 37 calls at 1 000 records and at 8 000.
/// While the checkout copied the cells, they took about two calls per
/// 64-row chunk (74 and 295).
#[test]
fn a_checkout_and_its_discard_take_a_constant_number_of_allocation_calls() {
    let (small, _) = checkout_and_discard_cost(1_000, 8);
    let (large, _) = checkout_and_discard_cost(8_000, 8);
    assert_eq!(
        small, large,
        "checkout + discard: {small} allocation calls at 1 000 records, {large} at 8 000"
    );
}

/// A merged checkout copies no record: it stages a selection of the data
/// table's slots, so its allocation calls do not grow with the records
/// staged (see the pin below) — 1.04 per record while it built each
/// merged row once and inserted it, 5.04 while the merge copied each
/// record, gave it a hash bucket and rebuilt it. Here v2 rewrote half of
/// v1, so with a primary key the merge resolves that half of v1 again and
/// drops it.
#[test]
fn a_checkout_copies_each_record_once() {
    for with_pk in [true, false] {
        let per_record = checkout_slope(with_pk, &[Vid(2), Vid(1)]);
        assert!(
            per_record <= 1.1,
            "merged checkout (primary key: {with_pk}): {per_record:.2} allocation calls \
             per record staged"
        );
    }
}

/// `(allocation calls, bytes allocated, rows staged)` of a merged checkout
/// of v2 and v1 and its discard, on a CVD whose v2 rewrote 10 of v1's
/// `rows` records ([`rewritten`]). An unmeasured checkout and discard run
/// first, so lazily sized buffers are warm.
fn merged_checkout_cost(rows: i64, with_pk: bool) -> (u64, u64, usize) {
    let mut odb = rewritten(rows, 10, with_pk);
    let mut staged = 0;
    let mut stage = || {
        odb.checkout(CVD, &[Vid(2), Vid(1)], "peek").unwrap();
        staged = odb.engine.table("peek").unwrap().len();
        odb.discard("peek").unwrap();
    };
    stage();
    let allocs = allocs_of(&mut stage);
    let bytes = bytes_of(stage);
    (allocs, bytes, staged)
}

/// A merged checkout stages a selection of the data table's slots, as a
/// single-version one does: the merge walks the rlists as integers,
/// resolves the records it keeps straight into the slot list, and checks
/// a primary key by hashing only the records the later version adds. So
/// it and its discard take the same allocation calls at 100 records and
/// at 1 000, and what the larger allocates beyond the smaller is its
/// longer slot list: one `usize` per extra record staged. While the merge
/// built each staged row as its own vector and inserted it, both grew by
/// about one allocation call, and a vector of the row's cells, per
/// record.
#[test]
fn a_merged_checkout_allocates_its_slot_list_and_no_more_per_record() {
    for with_pk in [true, false] {
        let (small, small_bytes, small_rows) = merged_checkout_cost(100, with_pk);
        let (large, large_bytes, large_rows) = merged_checkout_cost(1_000, with_pk);
        let slot_list = std::mem::size_of::<usize>() * (large_rows - small_rows);
        assert_eq!(
            small, large,
            "merged checkout + discard (primary key: {with_pk}): {small} allocation calls \
             at 100 records, {large} at 1 000"
        );
        assert!(
            large_bytes - small_bytes <= slot_list as u64,
            "merged checkout + discard (primary key: {with_pk}): {small_bytes} bytes at 100 \
             records, {large_bytes} at 1 000, {slot_list} more bytes of slot list"
        );
    }
}

/// Allocation calls per row of a staged checkout of version 1 that the
/// SQL statement `sql` costs on it (see [`per_record_slope`]).
fn staged_statement_slope(sql: &str) -> f64 {
    per_record_slope(|odb| {
        odb.checkout(CVD, &[Vid(1)], "w").unwrap();
        let spent = allocs_of(|| drop(odb.run(sql).unwrap()));
        odb.discard("w").unwrap();
        spent
    })
}

/// `ADD COLUMN` on a staged checkout widens the overlay and copies no
/// row (see the pin above); a table that stores its rows rebuilds its heap
/// one chunk at a time, one cell wider. Either way no `realloc` per row
/// (1.00 while every row was its own vector).
#[test]
fn widening_a_staged_checkout_allocates_per_chunk() {
    let slope = staged_statement_slope("ALTER TABLE w ADD COLUMN z INT");
    assert!(slope <= 0.05, "{slope:.3} allocation calls per row widened");
}

/// `(allocation calls of an ADD COLUMN, of a 20-row INSERT and its
/// commit)` on an unwritten checkout of a `rows`-record version of an
/// 8-attribute CVD. An unmeasured round of each runs first, so lazily
/// sized buffers are warm.
fn overlay_write_costs(rows: i64) -> (u64, u64) {
    let mut odb = rewritten(rows, 0, false);
    let values: Vec<String> = (0..20)
        .map(|k| {
            let cells: Vec<String> = (0..8).map(|i| (-k * 8 - i).to_string()).collect();
            format!("(NULL, {})", cells.join(", "))
        })
        .collect();
    let insert = format!("INSERT INTO w VALUES {}", values.join(", "));
    let mut widen = || {
        odb.checkout(CVD, &[Vid(1)], "w").unwrap();
        let spent = allocs_of(|| drop(odb.run("ALTER TABLE w ADD COLUMN z INT").unwrap()));
        odb.discard("w").unwrap();
        spent
    };
    widen();
    let widened = widen();
    let mut cycle = |vid: u64| {
        odb.checkout(CVD, &[Vid(vid)], "w").unwrap();
        allocs_of(|| {
            odb.run(&insert).unwrap();
            odb.commit("w", "twenty more").unwrap();
        })
    };
    cycle(1);
    (widened, cycle(2))
}

/// `ADD COLUMN` on an unwritten checkout widens the overlay: its source
/// rows read NULL in the new column, and nothing is copied, so it takes
/// the same allocation calls at 1 000 records and at 8 000. While the
/// first write stored the selection, it copied every cell twice, once to
/// store it and once to widen it: about two calls per 64-row chunk.
#[test]
fn adding_a_column_to_an_unwritten_checkout_copies_no_row() {
    let (small, _) = overlay_write_costs(1_000);
    let (large, _) = overlay_write_costs(8_000);
    assert_eq!(
        small, large,
        "ADD COLUMN: {small} allocation calls at 1 000 records, {large} at 8 000"
    );
}

/// A staged `INSERT` appends to the overlay's tail, and the commit keeps
/// every row the overlay did not write by its rid and classifies only the
/// 20 it did: the two take the same allocation calls at 1 000 records and
/// at 8 168 (852 each). The sizes differ by 7 × 1 024 records, so the 20
/// records the commit appends to the data table land at the same place of
/// its last heap chunk and index leaf; elsewhere the count moves by a few
/// calls as they fill one. While the first write stored the selection and
/// the commit compared every staged row with its parent record, the
/// INSERT alone took a call per 64-row chunk.
#[test]
fn a_staged_insert_and_its_commit_copy_no_kept_row() {
    let (_, small) = overlay_write_costs(1_000);
    let (_, large) = overlay_write_costs(8_168);
    assert_eq!(
        small, large,
        "INSERT 20 + commit: {small} allocation calls at 1 000 records, {large} at 8 168"
    );
}

/// `DELETE` on a staged checkout drops entries of the overlay's row list;
/// on a table that stores its rows it compacts the heap by moving the
/// cells after the first deleted row down into new chunks. Allocation
/// calls follow the chunks at most, not the rows.
#[test]
fn deleting_from_a_staged_checkout_allocates_per_chunk() {
    let slope = staged_statement_slope("DELETE FROM w WHERE k < 10");
    assert!(
        slope <= 0.05,
        "{slope:.3} allocation calls per row compacted"
    );
}

/// `(allocation calls, WAL bytes)` of one durable commit of the same
/// 20-row edit — 3 deletes, 1 update, 16 inserts — on a checkout of a
/// `rows`-record version. An unmeasured cycle runs first, so lazily sized
/// buffers are warm.
fn durable_edit_cost(rows: i64) -> (u64, u64) {
    let dir = std::env::temp_dir().join(format!(
        "orpheus-publish-cost-{rows}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let shared = orpheusdb::core::recovery::open_shared(&dir).unwrap();
    let sink = shared.wal_sink().unwrap();
    let cost = shared.write(|odb| {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ])
        .with_primary_key(&["k"])
        .unwrap();
        let records = (0..rows).map(|k| vec![k.into(), (k * 7).into()]).collect();
        odb.init_cvd(CVD, schema, records, None).unwrap();
        let mut cost = (0, 0);
        for round in 0..2i64 {
            odb.checkout(CVD, &[Vid(round as u64 + 1)], "work").unwrap();
            let low = 4 * round;
            odb.engine
                .execute(&format!(
                    "DELETE FROM work WHERE k >= {low} AND k < {}",
                    low + 3
                ))
                .unwrap();
            odb.engine
                .execute(&format!("UPDATE work SET v = -1 WHERE k = {}", low + 3))
                .unwrap();
            let staged = odb.engine.table_mut("work").unwrap();
            for k in 0..16 {
                let k = rows + 16 * round + k;
                staged
                    .insert(vec![Value::Null, k.into(), 1.into()])
                    .unwrap();
            }
            let bytes = sink.log_bytes();
            let allocs = allocs_of(|| {
                odb.commit("work", "edit").unwrap();
            });
            cost = (allocs, sink.log_bytes() - bytes);
        }
        cost
    });
    drop(shared);
    let _ = std::fs::remove_dir_all(&dir);
    cost
}

/// A commit classifies the staged rows where they lie and logs its delta:
/// what it allocates and what it appends to the log follow the 20 rows it
/// changed, not the 1 000 or 10 000 it keeps — as they did while every
/// staged row was copied four times and the record carried them all.
#[test]
fn a_commit_does_not_pay_for_the_records_it_keeps() {
    let small = durable_edit_cost(1_000);
    let large = durable_edit_cost(10_000);
    assert_within_15_percent("durable commit, 1k vs 10k kept records", small.0, large.0);
    assert!(
        (large.1 as f64) < small.1 as f64 * 1.15,
        "durable commit: {} WAL bytes on the 1k-record version, {} on the 10k one",
        small.1,
        large.1
    );
}

/// A CVD of two INT attributes whose version 1 holds `rows` records.
fn one_version(rows: i64) -> OrpheusDB {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let records = (0..rows).map(|k| vec![k.into(), (k * 7).into()]).collect();
    let mut odb = OrpheusDB::new();
    odb.init_cvd(CVD, schema, records, None).unwrap();
    odb
}

/// Allocation calls per record of version 1, as the slope between a
/// 1 000-record and a 2 000-record version, of what `measure` measures —
/// it returns the allocation calls — after one unmeasured call, so lazily
/// sized buffers are warm.
fn per_record_slope(mut measure: impl FnMut(&mut OrpheusDB) -> u64) -> f64 {
    let mut allocs = |rows: i64| {
        let mut odb = one_version(rows);
        measure(&mut odb);
        measure(&mut odb) as f64
    };
    (allocs(2_000) - allocs(1_000)) / 1_000.0
}

/// A versioned aggregate reads the version's records where they lie in
/// the data table: what it allocates per record is the version's rid set
/// (one row per rid out of `unnest`), not a copy of each record at every
/// plan node: 1.0 allocation calls per record, 3.0 while the executor
/// cloned its rows at the index lookup and again at the derived table's
/// `*`.
#[test]
fn a_versioned_aggregate_copies_no_record() {
    let sql = format!("SELECT count(*), sum(v) FROM VERSION 1 OF CVD {CVD} WHERE v < 5000");
    let slope = per_record_slope(|odb| allocs_of(|| drop(odb.run(&sql).unwrap())));
    assert!(
        slope <= 1.5,
        "{slope:.2} allocation calls per record of the version"
    );
}

/// `SELECT count(*)` over a staged checkout folds the table's rows where
/// they lie: no allocation call per row, 1.0 while the scan cloned each
/// one.
#[test]
fn counting_a_staged_table_copies_no_row() {
    let slope = per_record_slope(|odb| {
        odb.checkout(CVD, &[Vid(1)], "work").unwrap();
        let counted = allocs_of(|| drop(odb.run("SELECT count(*) FROM work").unwrap()));
        odb.discard("work").unwrap();
        counted
    });
    assert!(slope <= 0.05, "{slope:.3} allocation calls per row counted");
}

/// Allocation calls of a diff between version 1 — `shared` + 10 records —
/// and version 2, which drops 10 of them and adds 10: the two share
/// `shared` records and differ by 20. An unmeasured diff runs first.
fn diff_allocs(shared: i64) -> u64 {
    let mut odb = one_version(shared + 10);
    odb.checkout(CVD, &[Vid(1)], "work").unwrap();
    odb.run("DELETE FROM work WHERE k < 10").unwrap();
    let staged = odb.engine.table_mut("work").unwrap();
    for k in 0..10 {
        staged
            .insert(vec![Value::Null, (-1 - k).into(), k.into()])
            .unwrap();
    }
    odb.commit("work", "swap ten").unwrap();
    let diff = odb.diff(CVD, Vid(2), Vid(1)).unwrap();
    assert_eq!(
        (diff.only_in_first.len(), diff.only_in_second.len()),
        (10, 10)
    );
    allocs_of(|| drop(odb.diff(CVD, Vid(2), Vid(1)).unwrap()))
}

/// A diff walks the two rlists as integers and copies only the records
/// one side lacks: what it costs follows the 20 records that differ, not
/// the 1 000 or 10 000 the versions share (36 allocation calls on both:
/// per side, the rids the other lacks, the data table's name and its
/// catalog key, the view's slot list, the result and one vector per
/// record; 2 034 and 20 034 while both versions were copied whole and
/// then filtered).
#[test]
fn a_diff_does_not_pay_for_the_records_both_versions_share() {
    assert_within_15_percent(
        "diff, 1k vs 10k shared records",
        diff_allocs(1_000),
        diff_allocs(10_000),
    );
}

/// Heap bytes the commit of a checkout of version 1 allocates after one of
/// its `rows` records was `UPDATE`d: a written row that carries a rid, so
/// the commit reads the parent's records to classify it. An unmeasured
/// cycle on a copy of the CVD runs first, so lazily sized buffers are warm.
fn classifying_commit_bytes(rows: i64) -> u64 {
    let mut odb = one_version(rows);
    let cycle = |odb: &mut OrpheusDB| {
        odb.checkout(CVD, &[Vid(1)], "work").unwrap();
        odb.run("UPDATE work SET v = -1 WHERE k = 0").unwrap();
        bytes_of(|| {
            odb.commit("work", "one update").unwrap();
        })
    };
    cycle(&mut odb.clone());
    cycle(&mut odb)
}

/// A commit that classifies a written row reads its parent through the
/// parent's view: one 8-byte slot per parent record, borrowed rows, no
/// re-sort. What the commit allocates per record of the parent is then
/// 56 bytes between a 1 000-record and a 2 000-record parent: the slot,
/// and the 48 bytes of kept rids and row lists a commit that classifies
/// no row builds too. It was 88 while the parent's records were resolved
/// to 16-byte `(rid, slot)` pairs and then to 24-byte borrowed `(rid,
/// values)` rows.
#[test]
fn a_classifying_commit_reads_its_parent_as_one_slot_per_record() {
    let (small, large) = (
        classifying_commit_bytes(1_000),
        classifying_commit_bytes(2_000),
    );
    let per_record = (large as f64 - small as f64) / 1_000.0;
    assert!(
        per_record <= 64.0,
        "commit of one UPDATE: {per_record:.1} bytes per parent record \
         ({small} at 1 000 records, {large} at 2 000)"
    );
}

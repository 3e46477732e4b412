//! What a checkout, its discard and the staged table's first write cost
//! on history H (the `perf_ledger` read workloads' history: a
//! schema-evolving tree of 1 000-row versions that gains a column every 60
//! versions), replayed to 160 and to 1 100 versions as split-by-rlist on
//! an in-process `OrpheusDB`.
//!
//! At each size, 600 single-version checkouts are drawn from the latest
//! 160 versions. Each is timed with the discard of the unwritten staged
//! table; then the draws are checked out again, and each staged table's
//! first write (one `replace_row` of a staged row with itself, which puts
//! one row in the overlay's tail) is timed with the discard after it.
//! Printed per size: the p50 of each in raw µs, the mean bytes the
//! checkout and the first write allocate, and the mean cells per staged
//! row.
//!
//! Then 600 merged checkouts of two of those versions, drawn as the
//! workloads' `Merged` op draws them (the older listed first), are each
//! timed without the discard after it; printed are their p50 in raw µs
//! and the mean bytes they allocate. Each staged table is checked, outside
//! the timing, against the first-wins merge of the two versions' rows as
//! their `model::VersionView`s borrow them (H has no primary key, so a rid
//! staged once stays once).
//!
//! Also printed, as the next read-path target: the p50 of the workloads'
//! versioned aggregate, `SELECT count(*), sum(a1) FROM VERSION v OF CVD
//! diff WHERE a0 < 5000`, against the same fold over the version's rows
//! borrowed through its `model::VersionView`.
//!
//! Last, a second table: 200 commit cycles per size on the same draws,
//! each a checkout, a `DELETE` of 20 of its records by rid, an `INSERT` of
//! 20 new ones and the commit, and beside each the commit of an unwritten
//! checkout of the same version. Printed are the p50 of each step and of
//! the whole 40-record cycle, in raw µs. Each committed version is
//! checked, outside the timing, against the oracle: its parent's records
//! as `model::version_rows` reads them, minus the deleted ones, plus the
//! inserted rows under fresh rids, in insert order.
//!
//! It times, so it is a probe, not a test:
//!
//! ```sh
//! cargo run --release -p orpheus-bench --example checkout_probe
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use orpheus_bench::differential::{replay, Ctx, CVD};
use orpheus_bench::generator::{HistoryGen, HistoryParams};
use orpheus_core::model::{self, VersionView};
use orpheus_core::{ModelKind, OrpheusDB, Vid};
use orpheus_engine::Value;

/// Counts the bytes allocated (not net of frees), process-wide.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// static atomic, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// History H, as `perf_ledger/src/load.rs` defines it.
fn history_h(versions: usize) -> HistoryParams {
    HistoryParams {
        versions,
        branches: 10,
        fork_every: 12,
        base_rows: 1_000,
        inserts: 20,
        attrs: 8,
        insert_fraction: 0.85,
        merge_prob: 0.0,
        skew: 0.8,
        evolve_every: 60,
        seed: 1,
    }
}

const DRAWS: usize = 600;
const CYCLES: usize = 200;
const STAGED: &str = "peek";

/// `f` timed, in µs, and the bytes it allocated.
fn measured<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let bytes = ALLOCATED.load(Ordering::Relaxed);
    let start = Instant::now();
    let out = f();
    let us = start.elapsed().as_secs_f64() * 1e6;
    (out, us, ALLOCATED.load(Ordering::Relaxed) - bytes)
}

fn p50(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    println!(
        "| versions | cells per row | checkout p50 µs | discard p50 µs | checkout bytes \
         | first write p50 µs | first-write bytes | discard after it p50 µs \
         | merged checkout p50 µs | merged checkout bytes | query p50 µs \
         | `VersionView` fold p50 µs |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    let mut cycles = Vec::new();
    for versions in [160, 1_100] {
        let mut odb = OrpheusDB::new();
        let ctx = Ctx::for_test("probe", ModelKind::SplitByRlist, 1);
        let history = HistoryGen::new(history_h(versions));
        replay(&mut odb, history, ModelKind::SplitByRlist, false, &ctx).unwrap();
        let draw = |i: usize| Vid((versions - (i * 7_919) % 160) as u64);

        // A checkout and the discard of the unwritten staged table.
        let (mut checkout, mut discard, mut checkout_bytes) = (Vec::new(), Vec::new(), 0);
        for i in 0..DRAWS {
            let ((), us, bytes) = measured(|| odb.checkout(CVD, &[draw(i)], STAGED).unwrap());
            checkout.push(us);
            checkout_bytes += bytes;
            let ((), us, _) = measured(|| odb.discard(STAGED).unwrap());
            discard.push(us);
        }
        // The first write to a checkout, and the discard of what it stored.
        let (mut write, mut write_discard, mut write_bytes, mut cells) =
            (Vec::new(), Vec::new(), 0, 0);
        for i in 0..DRAWS {
            odb.checkout(CVD, &[draw(i)], STAGED).unwrap();
            let staged = odb.engine.table_mut(STAGED).unwrap();
            let first = staged.row(0).to_vec();
            cells += first.len();
            let ((), us, bytes) = measured(|| staged.replace_row(0, first).unwrap());
            write.push(us);
            write_bytes += bytes;
            let ((), us, _) = measured(|| odb.discard(STAGED).unwrap());
            write_discard.push(us);
        }

        // A merged checkout of two versions, checked against the
        // first-wins merge of their borrowed rows.
        let (mut merged, mut merged_bytes) = (Vec::new(), 0);
        for i in 0..DRAWS {
            let (a, b) = (draw(i), draw(i + 1));
            let vids = [a.min(b), a.max(b)];
            let ((), us, bytes) = measured(|| odb.checkout(CVD, &vids, STAGED).unwrap());
            merged.push(us);
            merged_bytes += bytes;
            let cvd = odb.cvd(CVD).unwrap();
            assert!(cvd.schema.primary_key.is_empty(), "H has no primary key");
            let mut seen = HashSet::new();
            let mut want = Vec::new();
            for &vid in &vids {
                for (rid, values) in VersionView::new(&odb.engine, cvd, vid).unwrap().iter() {
                    if seen.insert(rid) {
                        let mut row = vec![Value::Int(rid)];
                        row.extend_from_slice(values);
                        row.resize(1 + cvd.schema.arity(), Value::Null);
                        want.push(row);
                    }
                }
            }
            let staged = odb.engine.table(STAGED).unwrap();
            assert_eq!(*staged.schema, cvd.staged_schema(), "merge of {vids:?}");
            assert!(
                staged.rows().eq(want.iter().map(Vec::as_slice)),
                "merge of {vids:?}"
            );
            odb.discard(STAGED).unwrap();
        }

        let (mut query, mut fold) = (Vec::new(), Vec::new());
        for i in 0..DRAWS {
            let vid = draw(i);
            let sql = format!(
                "SELECT count(*), sum(a1) FROM VERSION {} OF CVD {CVD} WHERE a0 < 5000",
                vid.0
            );
            let (rows, us, _) = measured(|| odb.run(&sql).unwrap());
            query.push(us);
            let cvd = odb.cvd(CVD).unwrap();
            let (folded, us, _) = measured(|| {
                let view = VersionView::new(&odb.engine, cvd, vid).unwrap();
                view.iter()
                    .filter(|(_, row)| matches!(row[0], Value::Int(a0) if a0 < 5_000))
                    .fold((0i64, 0i64), |(n, sum), (_, row)| {
                        (n + 1, sum + row[1].as_int().unwrap_or(0))
                    })
            });
            fold.push(us);
            let want = vec![Value::Int(folded.0), Value::Int(folded.1)];
            assert_eq!(rows.rows, vec![want], "v{}", vid.0);
        }

        let mean = |total: u64| total / DRAWS as u64;
        println!(
            "| {versions} | {} | {:.1} | {:.1} | {} | {:.1} | {} | {:.1} | {:.1} | {} | {:.1} \
             | {:.1} |",
            cells / DRAWS,
            p50(checkout),
            p50(discard),
            mean(checkout_bytes),
            p50(write),
            mean(write_bytes),
            p50(write_discard),
            p50(merged),
            mean(merged_bytes),
            p50(query),
            p50(fold),
        );
        cycles.push(commit_cycles(&mut odb, versions, draw));
    }
    println!();
    println!(
        "| versions | commit of an unwritten checkout p50 µs | checkout p50 µs \
         | `DELETE` 20 p50 µs | `INSERT` 20 p50 µs | commit after them p50 µs \
         | 40-record cycle p50 µs |"
    );
    println!("|---|---|---|---|---|---|---|");
    for line in cycles {
        println!("{line}");
    }
}

/// [`CYCLES`] commit cycles on the draws (see the module docs), each
/// version checked against the oracle; the row of the second table.
fn commit_cycles(odb: &mut OrpheusDB, versions: usize, draw: impl Fn(usize) -> Vid) -> String {
    let (mut bare, mut checkout, mut delete, mut insert, mut commit, mut cycle) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for i in 0..CYCLES {
        let parent = draw(i);
        let cvd = odb.cvd(CVD).unwrap();
        let before = model::version_rows(&odb.engine, cvd, parent).unwrap();
        let width = cvd.schema.arity();

        odb.checkout(CVD, &[parent], STAGED).unwrap();
        let (vid, us, _) = measured(|| odb.commit(STAGED, "unwritten").unwrap());
        bare.push(us);
        let cvd = odb.cvd(CVD).unwrap();
        assert_eq!(model::version_rows(&odb.engine, cvd, vid).unwrap(), before);

        let doomed: Vec<i64> = (0..20).map(|k| before[k * before.len() / 20].0).collect();
        let rids: Vec<String> = doomed.iter().map(i64::to_string).collect();
        let delete_sql = format!("DELETE FROM {STAGED} WHERE rid IN ({})", rids.join(", "));
        let inserted: Vec<Vec<Value>> = (0..20)
            .map(|k| {
                (0..width)
                    .map(|c| Value::Int(-((i * 20 + k) as i64) * 100 - c as i64))
                    .collect()
            })
            .collect();
        let tuples: Vec<String> = inserted
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(Value::to_string).collect();
                format!("(NULL, {})", cells.join(", "))
            })
            .collect();
        let insert_sql = format!("INSERT INTO {STAGED} VALUES {}", tuples.join(", "));
        let ((), a, _) = measured(|| odb.checkout(CVD, &[parent], STAGED).unwrap());
        let (_, b, _) = measured(|| odb.run(&delete_sql).unwrap());
        let (_, c, _) = measured(|| odb.run(&insert_sql).unwrap());
        let (vid, d, _) = measured(|| odb.commit(STAGED, "edit").unwrap());
        checkout.push(a);
        delete.push(b);
        insert.push(c);
        commit.push(d);
        cycle.push(a + b + c + d);

        // The oracle: the parent's records minus the deleted ones, then
        // the inserted rows under fresh rids, ascending in insert order.
        let cvd = odb.cvd(CVD).unwrap();
        let got = model::version_rows(&odb.engine, cvd, vid).unwrap();
        let newest = before.iter().map(|&(rid, _)| rid).max().unwrap_or(0);
        let (kept, fresh): (Vec<_>, Vec<_>) = got.into_iter().partition(|(rid, _)| *rid <= newest);
        let want: Vec<_> = before
            .into_iter()
            .filter(|(rid, _)| !doomed.contains(rid))
            .collect();
        assert_eq!(kept, want, "v{}: the kept records", vid.0);
        assert!(fresh.windows(2).all(|w| w[0].0 < w[1].0), "v{}", vid.0);
        let fresh: Vec<Vec<Value>> = fresh.into_iter().map(|(_, row)| row).collect();
        assert_eq!(fresh, inserted, "v{}: the inserted records", vid.0);
        assert_eq!(cvd.meta(vid).unwrap().parents, vec![parent]);
    }
    format!(
        "| {versions} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |",
        p50(bare),
        p50(checkout),
        p50(delete),
        p50(insert),
        p50(commit),
        p50(cycle),
    )
}

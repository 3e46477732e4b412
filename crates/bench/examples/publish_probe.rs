//! What a served request pays for the version count: a checkout + discard
//! of the latest version and a `diff` of it against its parent, on an
//! `OrpheusDB` and through a `Session` of a `SharedOrpheusDB` wrapping the
//! same instance, at 100, 1 000 and 4 000 versions of an SCI history
//! (`WorkloadParams::sci(n, 10, 40)`, split-by-rlist).
//!
//! A session's write publishes a snapshot of its shard when it releases
//! the lock, and a session's read borrows that snapshot, so the gap
//! between the two columns of a pair is what publishing and routing
//! cost. Also printed: one `Cvd::clone`, and the bytes the
//! session's checkout + discard allocates.
//!
//! Each time is the best of 50 runs for checkouts and of 200 for the
//! rest, in µs. It times, so it is a probe, not a test:
//!
//! ```sh
//! cargo run --release -p orpheus-bench --example publish_probe
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use orpheus_bench::generator::{Workload, WorkloadParams};
use orpheus_bench::loader::load_workload;
use orpheus_core::{ModelKind, OrpheusDB, SharedOrpheusDB, Vid};

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

const CVD: &str = "probe";

/// The fastest of `runs` runs of `f`, in µs.
fn best_us(runs: usize, mut f: impl FnMut()) -> f64 {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    println!(
        "| versions | `Cvd::clone` | checkout + discard, `OrpheusDB` | same, `Session` \
         | `diff`, `OrpheusDB` | same, `Session` | bytes allocated by the session pair |"
    );
    println!("|---|---|---|---|---|---|---|");
    for versions in [100, 1_000, 4_000] {
        let workload = Workload::generate(WorkloadParams::sci(versions, 10, 40));
        let mut odb = OrpheusDB::new();
        load_workload(&mut odb, CVD, &workload, ModelKind::SplitByRlist).unwrap();
        let latest = Vid(versions as u64);
        let parent = odb.cvd(CVD).unwrap().meta(latest).unwrap().parents[0];

        let cvd = odb.cvd(CVD).unwrap().clone();
        let clone = best_us(200, || drop(cvd.clone()));
        let local_checkout = best_us(50, || {
            odb.checkout(CVD, &[latest], "peek").unwrap();
            odb.discard("peek").unwrap();
        });
        let local_diff = best_us(200, || drop(odb.diff(CVD, latest, parent).unwrap()));

        let shared = SharedOrpheusDB::new(odb);
        let session = shared.session("prober").unwrap();
        let pair = || {
            session.checkout(CVD, &[latest], "peek").unwrap();
            session.discard("peek").unwrap();
        };
        let served_checkout = best_us(50, pair);
        let before = ALLOCATED.load(Ordering::Relaxed);
        pair();
        let pair_bytes = ALLOCATED.load(Ordering::Relaxed) - before;
        let served_diff = best_us(200, || drop(session.diff(CVD, latest, parent).unwrap()));

        println!(
            "| {versions} | {clone:.1} | {local_checkout:.1} | {served_checkout:.1} \
             | {local_diff:.1} | {served_diff:.1} | {pair_bytes} |"
        );
    }
}

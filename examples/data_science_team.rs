//! A data-science team workflow at benchmark scale (the SCI workload of
//! Section 5.1): hundreds of versions accumulate, checkouts slow down as
//! the data table grows, and the partition optimizer restores
//! near-table-per-version latency at a bounded storage overhead
//! (Figures 12/13 in miniature).
//!
//! The checkout workload runs through the typed command bus via the
//! benchmark harness's [`drive`]/[`checkout_storm`] helpers — the same
//! stream a batching or async executor would be measured with.
//!
//! Run with `cargo run --release --example data_science_team`.

use std::time::Instant;

use orpheusdb::bench::generator::{Workload, WorkloadParams};
use orpheusdb::bench::harness::{checkout_storm, drive};
use orpheusdb::bench::loader::load_workload;
use orpheusdb::prelude::*;

fn avg_checkout_ms(odb: &mut OrpheusDB, versions: &[u64]) -> f64 {
    let stats = drive(odb, checkout_storm("science", versions)).expect("bus workload");
    stats.total_ms / versions.len() as f64
}

fn main() {
    // ~150 versions of an evolving dataset across 15 branches.
    let workload = Workload::generate(WorkloadParams::sci(150, 15, 300));
    println!(
        "generated SCI workload: {} versions, {} distinct records, {} memberships",
        workload.num_versions(),
        workload.num_records,
        workload.num_edges()
    );

    let mut odb = OrpheusDB::new();
    let start = Instant::now();
    load_workload(&mut odb, "science", &workload, ModelKind::SplitByRlist).expect("load");
    println!("loaded in {:.1}ms", start.elapsed().as_secs_f64() * 1e3);

    let samples: Vec<u64> = (1..=10).map(|i| (i * 15) as u64).collect();
    let before = avg_checkout_ms(&mut odb, &samples);
    let storage_before = odb.storage_bytes("science").expect("storage");
    println!(
        "before partitioning: avg checkout {before:.2}ms, storage {:.2}MB",
        storage_before as f64 / 1e6
    );

    // Run the partition optimizer with the paper's γ = 2|R| budget.
    let report = match odb
        .dispatch(Optimize::cvd("science").gamma(2.0).mu(1.5))
        .expect("optimize")
    {
        Response::Optimized { report, .. } => report,
        other => panic!("unexpected response {other:?}"),
    };
    println!(
        "LyreSplit: {} partitions, est. checkout cost {:.0} records (δ = {:.3})",
        report.num_partitions, report.cavg, report.delta
    );

    let after = avg_checkout_ms(&mut odb, &samples);
    let storage_after = odb.partitioned_storage_bytes("science").expect("storage");
    println!(
        "after partitioning:  avg checkout {after:.2}ms, storage {:.2}MB",
        storage_after as f64 / 1e6
    );
    println!(
        "=> {:.1}x faster checkouts for {:.1}x storage",
        before / after.max(1e-9),
        storage_after as f64 / storage_before as f64
    );

    // Work continues: new commits are placed by online maintenance, and
    // drifting too far from LyreSplit's best triggers migration (§4.3).
    let latest = Vid(workload.num_versions() as u64);
    odb.dispatch(Checkout::of("science").version(latest).into_table("cont"))
        .expect("checkout");
    odb.engine
        .execute("UPDATE cont SET a0 = a0 + 1 WHERE a1 < 50")
        .expect("edit");
    let v = odb
        .dispatch(Commit::table("cont").message("post-optimization commit"))
        .expect("commit")
        .version()
        .expect("version");
    let state = odb
        .cvd("science")
        .expect("cvd")
        .partition
        .as_ref()
        .expect("state");
    println!(
        "\ncommitted {v}; online maintenance placed it in partition {} of {} (migrations so far: {})",
        state.assignment()[v.index()],
        state.num_partitions(),
        state.maintainer().migrations_triggered()
    );
}

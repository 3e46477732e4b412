//! `Optimize` → N commit cycles placed by online maintenance → `Optimize`
//! again. The second optimization migrates the layout the first one built
//! and the commits since extended; it must succeed for every N, and every
//! version must check out of the migrated partitions exactly as it does
//! from the unpartitioned data table.

use orpheusdb::bench::differential::{replay, Ctx};
use orpheusdb::bench::generator::{HistoryGen, HistoryParams};
use orpheusdb::core::model;
use orpheusdb::prelude::*;

/// The CVD name `replay` drives.
const CVD: &str = "diff";
const PREFIX: usize = 60;

/// A tree-shaped history (many branches, no merges, no schema change):
/// the shape LyreSplit partitions. Histories differing only in `versions`
/// share their prefix.
fn history(versions: usize) -> HistoryParams {
    HistoryParams {
        versions,
        branches: 8,
        fork_every: 4,
        base_rows: 300,
        inserts: 12,
        attrs: 4,
        insert_fraction: 0.85,
        merge_prob: 0.0,
        skew: 0.8,
        evolve_every: 0,
        seed: 1,
    }
}

fn optimize(odb: &mut OrpheusDB) -> Result<Response, CoreError> {
    odb.execute(Optimize::cvd(CVD).gamma(2.0).mu(1.5).into())
}

fn sorted_by_rid(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| a[0].cmp(&b[0]));
    rows
}

fn reoptimize_after(online_commits: usize) {
    let ctx = Ctx::for_test("reoptimize", ModelKind::SplitByRlist, 1);
    let mut odb = OrpheusDB::new();
    let prefix = HistoryGen::new(history(PREFIX));
    replay(&mut odb, prefix, ModelKind::SplitByRlist, false, &ctx).unwrap();
    optimize(&mut odb).unwrap();

    let mut rest = HistoryGen::new(history(PREFIX + online_commits));
    rest.by_ref().take(PREFIX).for_each(drop);
    replay(&mut odb, rest, ModelKind::SplitByRlist, false, &ctx).unwrap();
    let generation = |odb: &OrpheusDB| odb.cvd(CVD).unwrap().partition.as_ref().unwrap().generation;
    let before = generation(&odb);

    optimize(&mut odb)
        .unwrap_or_else(|e| panic!("second Optimize after {online_commits} commits: {e}"));
    assert_eq!(generation(&odb), before + 1, "the layout migrated");

    for v in 1..=(PREFIX + online_commits) as u64 {
        odb.checkout(CVD, &[Vid(v)], "parted").unwrap();
        let parted = odb
            .engine
            .table("parted")
            .unwrap()
            .rows()
            .cloned()
            .collect();
        odb.discard("parted").unwrap();
        let cvd = odb.cvd(CVD).unwrap().clone();
        let plain = model::version_rows(&mut odb.engine, &cvd, Vid(v))
            .unwrap()
            .into_iter()
            .map(|(rid, mut values)| {
                values.insert(0, Value::Int(rid));
                values
            })
            .collect();
        assert_eq!(
            sorted_by_rid(parted),
            sorted_by_rid(plain),
            "version {v} after {online_commits} online commits"
        );
    }
}

#[test]
fn reoptimize_after_4_online_commits() {
    reoptimize_after(4);
}

#[test]
fn reoptimize_after_8_online_commits() {
    reoptimize_after(8);
}

#[test]
fn reoptimize_after_12_online_commits() {
    reoptimize_after(12);
}

#[test]
fn reoptimize_after_20_online_commits() {
    reoptimize_after(20);
}

#[test]
fn reoptimize_after_32_online_commits() {
    reoptimize_after(32);
}

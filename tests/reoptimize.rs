//! `Optimize` → N commit cycles placed by online maintenance → `Optimize`
//! again. The second optimization migrates the layout the first one built
//! and the commits since extended; it must succeed for every N, and every
//! version must check out of the migrated partitions exactly as it does
//! from the unpartitioned data table.

use orpheusdb::bench::differential::{replay, verify_against, Ctx};
use orpheusdb::bench::generator::{HistoryGen, HistoryParams};
use orpheusdb::bench::oracle::Oracle;
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

/// `Optimize`, `online_commits` commits, `Optimize` again; then every
/// version's fast checkout and its `SELECT * FROM VERSION v OF CVD` equal
/// its partition's Table 1 checkout and the same version of an instance
/// that never ran `optimize`. Returns how many keys beyond the first the
/// versions' rid walks sent to the index: a migration appends records to
/// a partition table it reuses, so that table's heap may no longer ascend
/// in rid, and those keys take the index probe a positional walk falls
/// back to.
fn reoptimize_after(online_commits: usize) -> usize {
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
    let mut plain = OrpheusDB::new();
    let history = HistoryGen::new(history(PREFIX + online_commits));
    replay(&mut plain, history, ModelKind::SplitByRlist, false, &ctx).unwrap();

    let cvd = odb.cvd(CVD).unwrap().clone();
    let mut fallbacks = 0;
    for v in 1..=(PREFIX + online_commits) as u64 {
        let what = format!("version {v} after {online_commits} online commits");
        let (data, _) = cvd.rlist_pair(Vid(v)).unwrap();
        let rids = cvd.rids_of(Vid(v)).unwrap();
        let probes = odb
            .engine
            .table(&data)
            .unwrap()
            .lookup_keys(&[0], rids.iter().map(|&r| [Value::Int(r)]), |_, _| {})
            .unwrap();
        fallbacks += probes.saturating_sub(1);

        odb.checkout(CVD, &[Vid(v)], "parted").unwrap();
        let parted = table_rows(&odb, "parted");
        odb.discard("parted").unwrap();
        model::checkout_into_sql(&mut odb.engine, &cvd, Vid(v), "table1").unwrap();
        let table1 = table_rows(&odb, "table1");
        odb.engine.execute("DROP TABLE table1").unwrap();
        let query = format!("SELECT * FROM VERSION {v} OF CVD {CVD}");
        let queried = sorted_by_rid(odb.run(&query).unwrap().rows);
        plain.checkout(CVD, &[Vid(v)], "plain").unwrap();
        let unpartitioned = table_rows(&plain, "plain");
        plain.discard("plain").unwrap();

        assert_eq!(parted, table1, "{what}: checkout vs Table 1");
        assert_eq!(queried, table1, "{what}: {query} vs Table 1");
        assert_eq!(
            parted, unpartitioned,
            "{what}: against the unpartitioned instance"
        );
    }
    fallbacks
}

/// The rows of `table`, sorted by rid.
fn table_rows(odb: &OrpheusDB, table: &str) -> Vec<Vec<Value>> {
    let t = odb.engine.table(table).unwrap();
    sorted_by_rid(t.rows().map(<[_]>::to_vec).collect())
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
    // The migration appends to a reused partition table rids below ones
    // it holds, so some version's rid walk leaves the positional path.
    let fallbacks = reoptimize_after(12);
    assert!(fallbacks > 0, "no partition heap out of rid order");
}

#[test]
fn reoptimize_after_20_online_commits() {
    reoptimize_after(20);
}

#[test]
fn reoptimize_after_32_online_commits() {
    reoptimize_after(32);
}

/// The partitioned layout under the oracle, on a history LyreSplit does
/// not get to choose: merges (a DAG, so the tree drops edges) and `ADD
/// COLUMN` commits (so partition tables are widened online). `Optimize`
/// after the prefix, online commits, `Optimize` again; then graph, rlist
/// and rows at every version equal the oracle's, and versioned queries
/// answer as the same history replayed unpartitioned does.
#[test]
fn partitioned_history_with_merges_and_add_column_matches_the_oracle() {
    const ONLINE: usize = 30;
    let evolving = |versions| HistoryParams {
        merge_prob: 0.2,
        evolve_every: 15,
        ..history(versions)
    };
    let ctx = Ctx::for_test("reoptimize-evolving", ModelKind::SplitByRlist, 1);
    let replay_into = |odb: &mut OrpheusDB, versions: usize, skip: usize| {
        let mut gen = HistoryGen::new(evolving(versions));
        gen.by_ref().take(skip).for_each(drop);
        replay(odb, gen, ModelKind::SplitByRlist, false, &ctx).unwrap();
    };

    let mut parted = OrpheusDB::new();
    replay_into(&mut parted, PREFIX, 0);
    optimize(&mut parted).unwrap();
    replay_into(&mut parted, PREFIX + ONLINE, PREFIX);
    optimize(&mut parted).unwrap();
    let mut plain = OrpheusDB::new();
    replay_into(&mut plain, PREFIX + ONLINE, 0);

    let oracle = Oracle::replay(HistoryGen::new(evolving(PREFIX + ONLINE)));
    let merges = (1..=oracle.num_versions() as u64)
        .filter(|&v| oracle.version(v).parents.len() > 1)
        .count();
    let widths = |odb: &OrpheusDB| odb.cvd(CVD).unwrap().schema.arity();
    assert!(merges > 0, "the history has merges");
    assert!(widths(&parted) > 4, "the history added columns");
    assert_eq!(widths(&parted), widths(&plain));

    let every_version: Vec<u64> = (1..=(PREFIX + ONLINE) as u64).collect();
    verify_against(&mut parted, &oracle, &every_version, &ctx).unwrap();
    let last_column = widths(&parted) - 1;
    for v in every_version {
        let sql = format!(
            "SELECT count(*), count(a{last_column}), sum(a0) FROM VERSION {v} OF CVD {CVD}"
        );
        assert_eq!(
            parted.run(&sql).unwrap().rows,
            plain.run(&sql).unwrap().rows,
            "{sql}"
        );
    }
}

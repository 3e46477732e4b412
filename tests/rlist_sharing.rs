//! One rlist per version. Under split-by-rlist a version's sorted rid list
//! is held by the catalog (`Cvd::version_rids`) and by the version's cell
//! in the rlist table — and, once the CVD is partitioned, by its cell in
//! the rlist table of its partition. All of them are one reference-counted
//! buffer: these tests pin that with `Arc::ptr_eq` after every path that
//! creates or reloads a rlist, and pin that array expressions over those
//! cells, and the vlist appends of split-by-vlist and combined-table
//! commits, copy a shared buffer instead of writing through it. Since a
//! snapshot whose cells differ from the catalog does not load, the last
//! tests pin that nothing writes one: `run` refuses to alter a rlist
//! table, and `save` and checkpoints refuse an out-of-step cell.

use std::path::PathBuf;
use std::sync::Arc;

use orpheusdb::core::{persist, recovery};
use orpheusdb::prelude::*;

const CVD: &str = "kv";

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ])
    .with_primary_key(&["k"])
    .unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orpheus-rlists-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Initialize `kv` with 20 records `(k, 10k)` under `model`.
fn init(odb: &mut OrpheusDB, model: ModelKind) {
    let rows = (0..20).map(|k| vec![k.into(), (k * 10).into()]).collect();
    odb.execute(
        Init::cvd(CVD)
            .schema(schema())
            .rows(rows)
            .model(model)
            .into(),
    )
    .unwrap();
}

/// Check out `parents`, run `statements` on the staged table and commit
/// it, all through the command bus (so a WAL logs every step).
fn commit(odb: &mut OrpheusDB, parents: &[u64], statements: &[String]) -> Vid {
    let checkout = Checkout::of(CVD).versions(parents.iter().map(|&p| Vid(p)));
    odb.execute(checkout.into_table("work").into()).unwrap();
    for sql in statements {
        odb.execute(Run::sql(sql).into()).unwrap();
    }
    match odb
        .execute(Commit::table("work").message("edit").into())
        .unwrap()
    {
        Response::Committed { version, .. } => version,
        other => panic!("expected Committed, got {other:?}"),
    }
}

/// A child of `parent` with one record changed and one added.
fn edit(odb: &mut OrpheusDB, parent: u64, n: i64) -> Vid {
    let statements = [
        format!("UPDATE work SET v = {n} WHERE k = {}", n % 20),
        format!("INSERT INTO work VALUES (NULL, {}, {n})", 100 + n),
    ];
    commit(odb, &[parent], &statements)
}

/// The buffer of `vid`'s rlist cell in `table`.
fn cell(odb: &OrpheusDB, table: &str, vid: Vid) -> Arc<Vec<i64>> {
    let t = odb.engine.table(table).unwrap();
    t.rows()
        .find_map(|row| match row {
            [Value::Int(v), Value::IntArray(a), ..] if *v == vid.0 as i64 => Some(Arc::clone(a)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{table} holds no rlist for version {vid}"))
}

/// Every version's catalog rlist is the buffer of its cell in the global
/// rlist table and, once partitioned, of its cell in its partition's.
fn assert_one_rlist_per_version(odb: &OrpheusDB, after: &str) {
    let cvd = odb.cvd(CVD).unwrap();
    assert!(cvd.num_versions() > 0);
    for (i, rids) in cvd.version_rids.iter().enumerate() {
        let vid = Vid(i as u64 + 1);
        let mut tables = vec![cvd.rlist_table()];
        if cvd.partition.is_some() {
            tables.push(cvd.rlist_pair(vid).unwrap().1);
        }
        for table in tables {
            let held = cell(odb, &table, vid);
            assert_eq!(**rids, *held, "after {after}: version {vid} in {table}");
            assert!(
                Arc::ptr_eq(rids, &held),
                "after {after}: version {vid}'s cell in {table} holds a copy of its rlist"
            );
        }
    }
}

/// A seven-version history under split-by-rlist: a chain, a branch and
/// a merge of the two.
fn history(odb: &mut OrpheusDB) {
    init(odb, ModelKind::SplitByRlist);
    for n in 1..=3 {
        edit(odb, n, n as i64);
    }
    edit(odb, 2, 20);
    edit(odb, 5, 21);
    commit(odb, &[4, 6], &[]);
    assert_eq!(odb.cvd(CVD).unwrap().num_versions(), 7);
}

#[test]
fn a_live_commit_and_a_merge_share_their_rlist_with_the_catalog() {
    let mut odb = OrpheusDB::new();
    init(&mut odb, ModelKind::SplitByRlist);
    assert_one_rlist_per_version(&odb, "init");
    edit(&mut odb, 1, 1);
    assert_one_rlist_per_version(&odb, "a commit");
    edit(&mut odb, 1, 2);
    commit(&mut odb, &[2, 3], &[]);
    assert_one_rlist_per_version(&odb, "a merge commit");
}

#[test]
fn wal_replay_shares_each_rlist() {
    let dir = tmp_dir("replay");
    let mut odb = recovery::open(&dir).unwrap();
    history(&mut odb);
    let before = odb.cvd(CVD).unwrap().version_rids.clone();
    drop(odb);

    let again = recovery::open(&dir).unwrap();
    assert_eq!(again.cvd(CVD).unwrap().version_rids, before);
    assert_one_rlist_per_version(&again, "recovery::open replaying the WAL");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_reopen_shares_each_rlist() {
    let dir = tmp_dir("snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.snap");
    let mut odb = OrpheusDB::new();
    history(&mut odb);
    odb.save_to(&path).unwrap();
    let again = OrpheusDB::load_from(&path).unwrap();
    assert_one_rlist_per_version(&again, "a snapshot reopen");

    // A partitioned CVD's partition rlist tables share the buffer too.
    odb.optimize_with(CVD, 1.5, 1.5).unwrap();
    odb.save_to(&path).unwrap();
    let again = OrpheusDB::load_from(&path).unwrap();
    assert!(again.cvd(CVD).unwrap().partition.is_some());
    assert_one_rlist_per_version(&again, "a partitioned snapshot reopen");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partition_rlist_tables_share_each_rlist() {
    let mut odb = OrpheusDB::new();
    history(&mut odb);
    odb.optimize_with(CVD, 1.5, 1.5).unwrap();
    assert_one_rlist_per_version(&odb, "Optimize");
    edit(&mut odb, 7, 30);
    edit(&mut odb, 3, 31);
    assert_one_rlist_per_version(&odb, "commits to a partitioned CVD");
    let generation = |odb: &OrpheusDB| odb.cvd(CVD).unwrap().partition.as_ref().unwrap().generation;
    let before = generation(&odb);
    odb.optimize_with(CVD, 1.5, 1.5).unwrap();
    assert_eq!(generation(&odb), before + 1, "the layout migrated");
    assert_one_rlist_per_version(&odb, "a re-Optimize migration");
}

/// An rlist table cell that disagrees with the catalog's rlist — here
/// edited through the public engine handle, which no guard covers — is
/// refused by name on both sides: `save` will not write it (and leaves the
/// previous file loadable), and bytes that hold it do not load, rather
/// than loading with two answers to "which records does version 2 hold".
#[test]
fn an_rlist_cell_that_differs_from_the_catalog_is_neither_saved_nor_loaded() {
    let dir = tmp_dir("mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.snap");
    let mut odb = OrpheusDB::new();
    history(&mut odb);
    odb.save_to(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    odb.engine
        .execute("UPDATE kv__rlist SET rlist = array_append(rlist, 0) WHERE vid = 2")
        .unwrap();
    let names_the_version = |msg: &str| {
        assert!(msg.contains("CVD kv"), "{msg}");
        assert!(msg.contains("version 2"), "{msg}");
    };

    match odb.save_to(&path) {
        Err(CoreError::Storage(msg)) => {
            assert!(msg.contains("refusing to save"), "{msg}");
            names_the_version(&msg);
        }
        other => panic!("a mismatched rlist was saved: {other:?}"),
    }
    assert_eq!(std::fs::read(&path).unwrap(), saved, "the old file stays");
    assert_one_rlist_per_version(&OrpheusDB::load_from(&path).unwrap(), "a refused save");

    match persist::deserialize(&persist::serialize(&odb)) {
        Err(CoreError::Storage(msg)) => {
            assert!(msg.contains("snapshot corrupt"), "{msg}");
            names_the_version(&msg);
        }
        Err(other) => panic!("refused as {other:?}, not as corruption"),
        Ok(_) => panic!("a snapshot with a mismatched rlist loaded"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A statement that would change a rlist table — global or partition, in
/// any spelling — is refused on every `run` path, before it touches the
/// table; reading one, or copying it into a table of one's own, is not.
/// So a WAL directory that served such requests still checkpoints and
/// opens.
#[test]
fn a_run_that_alters_a_rlist_table_is_refused_and_the_store_still_opens() {
    let dir = tmp_dir("run-guard");
    let mut odb = recovery::open(&dir).unwrap();
    history(&mut odb);
    odb.optimize_with(CVD, 1.5, 1.5).unwrap();
    let partition = odb.cvd(CVD).unwrap().rlist_pair(Vid(2)).unwrap().1;
    let statements = |table: &str| {
        [
            format!("UPDATE {table} SET rlist = array_append(rlist, 0) WHERE vid = 2"),
            format!("INSERT INTO {table} VALUES (99, ARRAY[1])"),
            format!("DELETE FROM {table} WHERE vid = 2"),
            format!("TRUNCATE {table}"),
            format!("ALTER TABLE {table} ADD COLUMN note INT"),
            format!("DROP TABLE {table}"),
        ]
    };
    let refused = |result: Result<Response, CoreError>, sql: &str| match result {
        Err(CoreError::BadRequest { reason, .. }) => {
            assert!(reason.contains("rlists of CVD kv"), "{sql}: {reason}")
        }
        other => panic!("{sql} was not refused: {other:?}"),
    };
    for table in ["kv__rlist", "KV__Rlist", partition.as_str()] {
        for sql in statements(table) {
            refused(odb.execute(Run::sql(&sql).into()), &sql);
        }
    }
    let shared = SharedOrpheusDB::new(odb);
    let mut session = shared.session("default").unwrap();
    for sql in statements("kv__rlist") {
        refused(session.execute(Run::sql(&sql).into()), &sql);
    }
    for sql in [
        "SELECT * INTO rcopy FROM kv__rlist",
        "UPDATE rcopy SET rlist = array_append(rlist, 0)",
    ] {
        session.execute(Run::sql(sql).into()).unwrap();
    }
    recovery::checkpoint_shared(&shared).unwrap();
    drop((session, shared));

    let again = recovery::open(&dir).unwrap();
    assert_one_rlist_per_version(&again, "refused rlist writes and a checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint is a `save`: one that meets a mismatched rlist fails
/// before it writes, and the generation it would have replaced keeps
/// serving the next open.
#[test]
fn a_checkpoint_of_a_mismatched_rlist_fails_and_the_old_generation_opens() {
    let dir = tmp_dir("checkpoint-guard");
    let mut odb = recovery::open(&dir).unwrap();
    history(&mut odb);
    let before = odb.cvd(CVD).unwrap().version_rids.clone();
    odb.engine
        .execute("UPDATE kv__rlist SET rlist = array_append(rlist, 0) WHERE vid = 2")
        .unwrap();
    match recovery::checkpoint(&mut odb) {
        Err(CoreError::Storage(msg)) => assert!(msg.contains("version 2"), "{msg}"),
        other => panic!("the checkpoint wrote a mismatched rlist: {other:?}"),
    }
    drop(odb);

    let again = recovery::open(&dir).unwrap();
    assert_eq!(again.cvd(CVD).unwrap().version_rids, before);
    assert_one_rlist_per_version(&again, "a refused checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a reader sees of version `vid`: its checkout, its rlist and (under
/// split-by-rlist) its rlist cell.
fn observed(odb: &mut OrpheusDB, vid: Vid) -> (Vec<Vec<Value>>, Vec<i64>, Option<Vec<i64>>) {
    odb.execute(Checkout::of(CVD).version(vid.0).into_table("peek").into())
        .unwrap();
    let mut rows = odb.engine.query("SELECT * FROM peek").unwrap().rows;
    rows.sort();
    odb.execute(Discard::table("peek").into()).unwrap();
    let cvd = odb.cvd(CVD).unwrap();
    let rids = cvd.rids_of(vid).unwrap().to_vec();
    let cell = (cvd.model == ModelKind::SplitByRlist)
        .then(|| cell(odb, &odb.cvd(CVD).unwrap().rlist_table(), vid).to_vec());
    (rows, rids, cell)
}

#[test]
fn array_expressions_over_rlist_cells_leave_the_version_unchanged() {
    let mut odb = OrpheusDB::new();
    history(&mut odb);
    let before = observed(&mut odb, Vid(2));

    let r = odb
        .engine
        .query("SELECT array_append(rlist, 0), rlist || 7, rlist || rlist FROM kv__rlist WHERE vid = 2")
        .unwrap();
    let rids = &before.1;
    let appended = |tail: &[i64]| Value::from([rids.as_slice(), tail].concat());
    assert_eq!(r.rows[0][0], appended(&[0]));
    assert_eq!(r.rows[0][1], appended(&[7]));
    assert_eq!(r.rows[0][2], appended(rids));
    assert_eq!(
        observed(&mut odb, Vid(2)),
        before,
        "after array_append and ||"
    );

    odb.engine
        .execute("SELECT * INTO rcopy FROM kv__rlist")
        .unwrap();
    odb.engine
        .execute("UPDATE rcopy SET rlist = array_append(rlist, 0)")
        .unwrap();
    let copied = odb
        .engine
        .query("SELECT rlist FROM rcopy WHERE vid = 2")
        .unwrap();
    assert_eq!(copied.rows[0][0], appended(&[0]));
    assert_eq!(
        observed(&mut odb, Vid(2)),
        before,
        "after an UPDATE of a copy"
    );
    assert_one_rlist_per_version(&odb, "array expressions over rlist cells");
}

#[test]
fn a_vlist_append_does_not_write_through_a_shared_vlist() {
    for (model, table) in [
        (ModelKind::SplitByVlist, "kv__vlist"),
        (ModelKind::CombinedTable, "kv__combined"),
    ] {
        let mut odb = OrpheusDB::new();
        init(&mut odb, model);
        // A copy of the table, and a clone of the whole instance, share
        // every vlist buffer with the live table.
        odb.engine
            .execute(&format!("SELECT * INTO vcopy FROM {table}"))
            .unwrap();
        let mut snapshot = odb.clone();
        let before = observed(&mut odb, Vid(1));
        let vlists = |odb: &mut OrpheusDB, table: &str| {
            let sql = format!("SELECT vlist FROM {table}");
            let mut cells = odb.engine.query(&sql).unwrap().rows;
            cells.sort();
            cells
        };
        let only_v1 = vec![vec![Value::from(vec![1])]; 20];
        assert_eq!(vlists(&mut odb, table), only_v1);

        edit(&mut odb, 1, 1);
        assert_eq!(observed(&mut odb, Vid(1)), before, "{model:?}");
        assert_eq!(vlists(&mut odb, "vcopy"), only_v1, "{model:?}: the copy");
        assert_eq!(
            vlists(&mut snapshot, table),
            only_v1,
            "{model:?}: the clone"
        );
        assert_eq!(
            observed(&mut snapshot, Vid(1)),
            before,
            "{model:?}: the clone"
        );
        let live = vlists(&mut odb, table);
        let both = live
            .iter()
            .filter(|row| row[0] == Value::from(vec![1, 2]))
            .count();
        assert_eq!(both, 19, "{model:?}: v2 keeps 19 of v1's records");
    }
}

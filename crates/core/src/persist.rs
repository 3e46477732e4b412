//! Whole-instance snapshots: persist an [`OrpheusDB`] — the backing engine
//! database *and* all middleware state (CVD catalog, version graphs,
//! attribute registries, staging provenance, users, partition layouts) —
//! to a single file, and restore it.
//!
//! The paper assumes PostgreSQL's durability; this module supplies the
//! equivalent for the from-scratch substrate so the `orpheus` command-line
//! client can span process invocations. The file reuses the engine
//! snapshot envelope (magic / format version / length / CRC-32, see
//! [`orpheus_engine::storage`]): the payload begins with a middleware
//! section marker followed by the embedded engine snapshot and the
//! serialized middleware state. Corruption anywhere is detected by the
//! envelope checksum before any state is reconstructed.

use std::collections::HashMap;
use std::path::Path;

use orpheus_engine::storage::{
    self, verify_envelope, wrap_envelope, write_atomically, ByteReader, ByteWriter,
};
use orpheus_engine::{Column, DataType, Schema};
use orpheus_partition::online::{OnlineConfig, OnlineMaintainer};
use orpheus_partition::{Partitioning, VersionTree};

use crate::cvd::{AttrEntry, AttributeRegistry, Cvd, VersionMeta};
use crate::db::{OrpheusConfig, OrpheusDB};
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::model::ModelKind;
use crate::partition_store::PartitionState;
use crate::staging::{StagedEntry, StagedKind, StagingArea};

/// Marker distinguishing middleware snapshots from bare engine snapshots.
const SECTION: &str = "orpheus-core";
/// Version of the middleware section layout.
const CORE_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Encoding helpers.
// ---------------------------------------------------------------------------

fn model_tag(m: ModelKind) -> u8 {
    match m {
        ModelKind::TablePerVersion => 0,
        ModelKind::CombinedTable => 1,
        ModelKind::SplitByVlist => 2,
        ModelKind::SplitByRlist => 3,
        ModelKind::DeltaBased => 4,
    }
}

fn model_from_tag(tag: u8) -> Result<ModelKind> {
    match tag {
        0 => Ok(ModelKind::TablePerVersion),
        1 => Ok(ModelKind::CombinedTable),
        2 => Ok(ModelKind::SplitByVlist),
        3 => Ok(ModelKind::SplitByRlist),
        4 => Ok(ModelKind::DeltaBased),
        t => Err(corrupt(format!("unknown data model tag {t}"))),
    }
}

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Storage(format!("snapshot corrupt: {}", msg.into()))
}

fn put_vids(w: &mut ByteWriter, vids: &[Vid]) {
    w.put_u32(vids.len() as u32);
    for v in vids {
        w.put_u64(v.0);
    }
}

fn get_vids(r: &mut ByteReader<'_>) -> Result<Vec<Vid>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(Vid(r.get_u64()?));
    }
    Ok(out)
}

fn put_u64s(w: &mut ByteWriter, xs: &[u64]) {
    w.put_u32(xs.len() as u32);
    for &x in xs {
        w.put_u64(x);
    }
}

fn get_u64s(r: &mut ByteReader<'_>) -> Result<Vec<u64>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(r.get_u64()?);
    }
    Ok(out)
}

fn put_i64s(w: &mut ByteWriter, xs: &[i64]) {
    w.put_u64(xs.len() as u64);
    for &x in xs {
        w.put_i64(x);
    }
}

fn get_i64s(r: &mut ByteReader<'_>) -> Result<Vec<i64>> {
    let n = r.get_u64()? as usize;
    if n.saturating_mul(8) > r.remaining() {
        return Err(corrupt(format!(
            "rid list length {n} exceeds remaining bytes"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_i64()?);
    }
    Ok(out)
}

fn put_opt_u64(w: &mut ByteWriter, v: Option<u64>) {
    match v {
        Some(x) => {
            w.put_u8(1);
            w.put_u64(x);
        }
        None => w.put_u8(0),
    }
}

fn get_opt_u64(r: &mut ByteReader<'_>) -> Result<Option<u64>> {
    Ok(if r.get_u8()? != 0 {
        Some(r.get_u64()?)
    } else {
        None
    })
}

fn put_schema(w: &mut ByteWriter, schema: &Schema) {
    w.put_u32(schema.columns.len() as u32);
    for c in &schema.columns {
        w.put_str(&c.name);
        w.put_str(c.dtype.sql_name());
        w.put_u8(c.nullable as u8);
    }
    w.put_u32(schema.primary_key.len() as u32);
    for &i in &schema.primary_key {
        w.put_u32(i as u32);
    }
}

fn get_schema(r: &mut ByteReader<'_>) -> Result<Schema> {
    let ncols = r.get_u32()? as usize;
    let mut cols = Vec::with_capacity(ncols.min(r.remaining()));
    for _ in 0..ncols {
        let name = r.get_str()?;
        let dtype = DataType::parse(&r.get_str()?).map_err(CoreError::from)?;
        let nullable = r.get_u8()? != 0;
        let mut c = Column::new(name, dtype);
        if !nullable {
            c = c.not_null();
        }
        cols.push(c);
    }
    let npk = r.get_u32()? as usize;
    let mut pk = Vec::with_capacity(npk.min(r.remaining()));
    for _ in 0..npk {
        let i = r.get_u32()? as usize;
        if i >= cols.len() {
            return Err(corrupt(format!("primary-key index {i} out of range")));
        }
        pk.push(i);
    }
    let mut s = Schema::new(cols);
    s.primary_key = pk;
    Ok(s)
}

// ---------------------------------------------------------------------------
// Section writers.
// ---------------------------------------------------------------------------

fn put_version_meta(w: &mut ByteWriter, m: &VersionMeta) {
    w.put_u64(m.vid.0);
    put_vids(w, &m.parents);
    put_u64s(w, &m.parent_weights);
    put_opt_u64(w, m.checkout_t);
    w.put_u64(m.commit_t);
    w.put_str(&m.message);
    w.put_u32(m.attributes.len() as u32);
    for &a in &m.attributes {
        w.put_u32(a);
    }
    w.put_u64(m.num_records);
    put_opt_u64(w, m.base.map(|b| b.0));
}

fn get_version_meta(r: &mut ByteReader<'_>) -> Result<VersionMeta> {
    let vid = Vid(r.get_u64()?);
    let parents = get_vids(r)?;
    let parent_weights = get_u64s(r)?;
    if parent_weights.len() != parents.len() {
        return Err(corrupt("parent weight list length mismatch"));
    }
    let checkout_t = get_opt_u64(r)?;
    let commit_t = r.get_u64()?;
    let message = r.get_str()?;
    let nattrs = r.get_u32()? as usize;
    let mut attributes = Vec::with_capacity(nattrs.min(r.remaining()));
    for _ in 0..nattrs {
        attributes.push(r.get_u32()?);
    }
    let num_records = r.get_u64()?;
    let base = get_opt_u64(r)?.map(Vid);
    Ok(VersionMeta {
        vid,
        parents,
        parent_weights,
        checkout_t,
        commit_t,
        message,
        attributes,
        num_records,
        base,
    })
}

fn put_partition_state(w: &mut ByteWriter, p: &PartitionState) {
    let m = p.maintainer();
    w.put_u32(p.assignment().len() as u32);
    for &a in p.assignment() {
        w.put_u32(a as u32);
    }
    w.put_u32(p.num_partitions() as u32);
    w.put_u32(p.generation as u32);
    w.put_f64(m.delta_star());
    w.put_f64(m.cavg_star());
    w.put_f64(m.config().gamma_factor);
    w.put_f64(m.config().mu);
    w.put_u32(m.migrations_triggered() as u32);
}

/// The partition state of a CVD whose version tree is `tree` (the
/// maintainer's tree is not stored: it is the CVD's).
fn get_partition_state(r: &mut ByteReader<'_>, tree: VersionTree) -> Result<PartitionState> {
    let n = r.get_u32()? as usize;
    let mut assignment = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        assignment.push(r.get_u32()? as usize);
    }
    let num_partitions = r.get_u32()? as usize;
    let generation = r.get_u32()? as usize;
    let delta_star = r.get_f64()?;
    let cavg_star = r.get_f64()?;
    let config = OnlineConfig {
        gamma_factor: r.get_f64()?,
        mu: r.get_f64()?,
        ..OnlineConfig::default()
    };
    let migrations = r.get_u32()? as usize;
    if assignment.len() != tree.num_versions() {
        return Err(corrupt(format!(
            "partition assignment covers {} versions, the CVD has {}",
            assignment.len(),
            tree.num_versions()
        )));
    }
    if let Some(p) = assignment.iter().find(|&&p| p >= num_partitions) {
        return Err(corrupt(format!(
            "partition assignment names partition {p} of {num_partitions}"
        )));
    }
    let partitioning = Partitioning {
        assignment,
        num_partitions,
    };
    Ok(PartitionState {
        maintainer: OnlineMaintainer::resume(
            config,
            tree,
            partitioning,
            delta_star,
            cavg_star,
            migrations,
        ),
        generation,
    })
}

fn put_cvd(w: &mut ByteWriter, cvd: &Cvd) {
    w.put_str(&cvd.name);
    put_schema(w, &cvd.schema);
    w.put_u8(model_tag(cvd.model));
    w.put_u32(cvd.versions.len() as u32);
    for m in &cvd.versions {
        put_version_meta(w, m);
    }
    for rids in &cvd.version_rids {
        put_i64s(w, rids);
    }
    w.put_u64(cvd.next_rid);
    w.put_u32(cvd.attrs.entries().len() as u32);
    for e in cvd.attrs.entries() {
        w.put_u32(e.id);
        w.put_str(&e.name);
        w.put_str(e.dtype.sql_name());
    }
    match &cvd.partition {
        Some(p) => {
            w.put_u8(1);
            put_partition_state(w, p);
        }
        None => w.put_u8(0),
    }
}

fn get_cvd(r: &mut ByteReader<'_>) -> Result<Cvd> {
    let name = r.get_str()?;
    let schema = get_schema(r)?;
    let model = model_from_tag(r.get_u8()?)?;
    let nvers = r.get_u32()? as usize;
    let mut versions = Vec::with_capacity(nvers.min(r.remaining()));
    for _ in 0..nvers {
        versions.push(std::sync::Arc::new(get_version_meta(r)?));
    }
    let mut version_rids = Vec::with_capacity(nvers.min(r.remaining()));
    for _ in 0..nvers {
        version_rids.push(std::sync::Arc::new(get_i64s(r)?));
    }
    let next_rid = r.get_u64()?;
    let nattrs = r.get_u32()? as usize;
    let mut entries = Vec::with_capacity(nattrs.min(r.remaining()));
    for _ in 0..nattrs {
        let id = r.get_u32()?;
        let name = r.get_str()?;
        let dtype = DataType::parse(&r.get_str()?).map_err(CoreError::from)?;
        entries.push(AttrEntry { id, name, dtype });
    }
    let mut cvd = Cvd::new(&name, schema, model);
    cvd.versions = versions;
    cvd.version_rids = version_rids;
    cvd.next_rid = next_rid;
    cvd.attrs = AttributeRegistry::from_entries(entries);
    if r.get_u8()? != 0 {
        cvd.partition = Some(get_partition_state(r, cvd.version_tree())?);
    }
    Ok(cvd)
}

fn put_staged(w: &mut ByteWriter, e: &StagedEntry) {
    w.put_str(&e.name);
    w.put_str(&e.cvd);
    put_vids(w, &e.parents);
    w.put_str(&e.owner);
    w.put_u64(e.created_at);
    w.put_u8(matches!(e.kind, StagedKind::Csv) as u8);
}

fn get_staged(r: &mut ByteReader<'_>) -> Result<StagedEntry> {
    Ok(StagedEntry {
        name: r.get_str()?,
        cvd: r.get_str()?,
        parents: get_vids(r)?,
        owner: r.get_str()?,
        created_at: r.get_u64()?,
        kind: if r.get_u8()? != 0 {
            StagedKind::Csv
        } else {
            StagedKind::Table
        },
    })
}

// ---------------------------------------------------------------------------
// Top-level serialize / deserialize.
// ---------------------------------------------------------------------------

/// Serialize a full OrpheusDB instance into a checksummed snapshot.
pub fn serialize(odb: &OrpheusDB) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(SECTION);
    w.put_u32(CORE_VERSION);

    // Embedded engine snapshot (with its own envelope; integrity of the
    // whole file is still guaranteed by the outer CRC).
    let engine_bytes = storage::serialize_database(&odb.engine);
    w.put_u64(engine_bytes.len() as u64);
    w.put_raw(&engine_bytes);

    // Config + logical clock.
    w.put_u8(model_tag(odb.config.default_model));
    w.put_f64(odb.config.gamma_factor);
    w.put_f64(odb.config.mu);
    w.put_u64(odb.clock);

    // Users and session identity.
    let users = odb.access.users();
    w.put_u32(users.len() as u32);
    for u in &users {
        w.put_str(u);
    }
    w.put_str(odb.access.whoami());

    // Staging provenance.
    let staged = odb.staging.list();
    w.put_u32(staged.len() as u32);
    for e in staged {
        put_staged(&mut w, e);
    }

    // CVD catalog, in sorted order for deterministic bytes.
    let mut names: Vec<&String> = odb.cvds.keys().collect();
    names.sort();
    w.put_u32(names.len() as u32);
    for name in names {
        put_cvd(&mut w, &odb.cvds[name]);
    }

    wrap_envelope(&w.into_bytes())
}

/// Reconstruct an OrpheusDB instance from snapshot bytes.
pub fn deserialize(bytes: &[u8]) -> Result<OrpheusDB> {
    let payload = verify_envelope(bytes).map_err(CoreError::from)?;
    let mut r = ByteReader::new(payload);

    // A bare engine snapshot shares the envelope but its payload does not
    // begin with the middleware section marker; fail with guidance rather
    // than a generic corruption error.
    if r.get_str().ok().as_deref() != Some(SECTION) {
        return Err(CoreError::Storage(
            "not an OrpheusDB instance snapshot (bare engine snapshots \
             load via orpheus_engine::storage::load_database)"
                .into(),
        ));
    }
    let version = r.get_u32()?;
    if version > CORE_VERSION {
        return Err(CoreError::Storage(format!(
            "middleware section version {version} is newer than supported {CORE_VERSION}"
        )));
    }

    let engine_len = r.get_u64()? as usize;
    if engine_len > r.remaining() {
        return Err(corrupt("embedded engine snapshot length exceeds payload"));
    }
    let engine = storage::deserialize_database(r.get_raw(engine_len)?)?;

    let default_model = model_from_tag(r.get_u8()?)?;
    let gamma_factor = r.get_f64()?;
    let mu = r.get_f64()?;
    let clock = r.get_u64()?;

    let nusers = r.get_u32()? as usize;
    let mut users = Vec::with_capacity(nusers.min(r.remaining()));
    for _ in 0..nusers {
        users.push(r.get_str()?);
    }
    let current = r.get_str()?;

    let nstaged = r.get_u32()? as usize;
    let mut staging = StagingArea::default();
    for _ in 0..nstaged {
        staging.register(get_staged(&mut r)?)?;
    }

    let ncvds = r.get_u32()? as usize;
    let mut cvds = HashMap::with_capacity(ncvds.min(r.remaining()));
    for _ in 0..ncvds {
        let cvd = get_cvd(&mut r)?;
        if cvd.versions.len() != cvd.version_rids.len() {
            return Err(corrupt(format!(
                "CVD {}: version metadata and rid lists disagree",
                cvd.name
            )));
        }
        cvds.insert(cvd.name.clone(), cvd);
    }
    if !r.is_exhausted() {
        return Err(corrupt(format!("{} trailing bytes", r.remaining())));
    }

    let mut odb = OrpheusDB::with_config(OrpheusConfig {
        default_model,
        gamma_factor,
        mu,
    });
    odb.engine = engine;
    for u in users {
        if u != "default" {
            odb.access.create_user(&u)?;
        }
    }
    odb.access.login(&current)?;
    odb.staging = staging;
    odb.clock = clock;

    // Validate that every CVD's backing tables exist in the engine before
    // accepting the catalog (a corrupt snapshot must not half-load).
    for cvd in cvds.values() {
        for t in crate::model::backing_tables(cvd) {
            if !odb.engine.has_table(&t) {
                return Err(corrupt(format!(
                    "CVD {} references missing backing table {t}",
                    cvd.name
                )));
            }
        }
    }
    odb.cvds = cvds;
    Ok(odb)
}

/// Save an OrpheusDB snapshot to `path` atomically.
pub fn save(odb: &OrpheusDB, path: &Path) -> Result<()> {
    write_atomically(path, &serialize(odb)).map_err(CoreError::from)
}

/// Load an OrpheusDB snapshot from `path`.
pub fn load(path: &Path) -> Result<OrpheusDB> {
    let bytes = std::fs::read(path)
        .map_err(|e| CoreError::Storage(format!("cannot read {}: {e}", path.display())))?;
    deserialize(&bytes)
}

/// Load a snapshot straight into a [`crate::SharedOrpheusDB`], splitting
/// it into per-CVD shards for concurrent sessions. Snapshots are one flat
/// format either way: a file saved by [`OrpheusDB::save_to`] and one saved
/// by [`crate::SharedOrpheusDB::save_to`] (which merges its shards first)
/// are interchangeable.
pub fn load_shared(path: &Path) -> Result<crate::SharedOrpheusDB> {
    Ok(crate::SharedOrpheusDB::new(load(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_engine::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("protein1", DataType::Text),
            Column::new("protein2", DataType::Text),
            Column::new("score", DataType::Int),
        ])
        .with_primary_key(&["protein1", "protein2"])
        .unwrap()
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec!["a".into(), "b".into(), 1.into()],
            vec!["a".into(), "c".into(), 2.into()],
            vec!["b".into(), "c".into(), 3.into()],
        ]
    }

    /// Build an instance exercising every persisted feature: two CVDs under
    /// different models, a branch + merge history, an open staged table, a
    /// CSV export, extra users, and a partitioned layout.
    fn populated() -> OrpheusDB {
        let mut odb = OrpheusDB::new();
        odb.access.create_user("alice").unwrap();
        odb.access.login("alice").unwrap();

        odb.init_cvd("protein", schema(), rows(), Some(ModelKind::SplitByRlist))
            .unwrap();
        odb.checkout("protein", &[Vid(1)], "w1").unwrap();
        odb.engine
            .execute("UPDATE w1 SET score = 10 WHERE protein1 = 'a' AND protein2 = 'b'")
            .unwrap();
        let v2 = odb.commit("w1", "bump score").unwrap();
        odb.checkout("protein", &[Vid(1)], "w2").unwrap();
        odb.engine
            .execute("DELETE FROM w2 WHERE score = 3")
            .unwrap();
        let v3 = odb.commit("w2", "drop c").unwrap();
        odb.checkout("protein", &[v2, v3], "w3").unwrap();
        odb.commit("w3", "merge").unwrap();

        odb.init_cvd(
            "notes",
            Schema::new(vec![Column::new("k", DataType::Int)]),
            vec![vec![1.into()], vec![2.into()]],
            Some(ModelKind::DeltaBased),
        )
        .unwrap();

        // Leave one staged table open across the snapshot.
        odb.checkout("protein", &[Vid(4)], "open_work").unwrap();
        // And a CSV export.
        odb.checkout_csv("protein", &[Vid(1)], "/tmp/export.csv")
            .unwrap();
        // Partition the CVD so PartitionState roundtrips.
        odb.optimize("protein").unwrap();
        odb
    }

    #[test]
    fn full_instance_roundtrip() {
        let odb = populated();
        let bytes = serialize(&odb);
        let back = deserialize(&bytes).unwrap();

        assert_eq!(back.ls(), odb.ls());
        assert_eq!(back.access.whoami(), "alice");
        assert_eq!(back.access.users(), odb.access.users());
        assert_eq!(back.config.gamma_factor, odb.config.gamma_factor);

        // Version graph and contents identical.
        let orig = odb.cvd("protein").unwrap();
        let loaded = back.cvd("protein").unwrap();
        assert_eq!(loaded.num_versions(), orig.num_versions());
        assert_eq!(loaded.next_rid, orig.next_rid);
        for v in 1..=orig.num_versions() as u64 {
            assert_eq!(
                loaded.rids_of(Vid(v)).unwrap(),
                orig.rids_of(Vid(v)).unwrap()
            );
            let a = loaded.meta(Vid(v)).unwrap();
            let b = orig.meta(Vid(v)).unwrap();
            assert_eq!(a.parents, b.parents);
            assert_eq!(a.message, b.message);
            assert_eq!(a.commit_t, b.commit_t);
        }
        // Attribute registry and partition state survive.
        assert_eq!(loaded.attrs.entries(), orig.attrs.entries());
        let lp = loaded.partition.as_ref().unwrap();
        let op = orig.partition.as_ref().unwrap();
        assert_eq!(lp.partitioning(), op.partitioning());
        assert_eq!(lp.generation, op.generation);
        let (lm, om) = (lp.maintainer(), op.maintainer());
        assert_eq!(lm.delta_star(), om.delta_star());
        assert_eq!(lm.cavg_star(), om.cavg_star());
        assert_eq!(lm.migrations_triggered(), om.migrations_triggered());
        // The tree is not stored: it is rebuilt from the CVD's versions.
        assert_eq!(lm.tree().parent, om.tree().parent);
        assert_eq!(lm.tree().weight_to_parent, om.tree().weight_to_parent);
        assert_eq!(lm.tree().records, om.tree().records);
        // Staged artifacts preserved.
        assert_eq!(back.staged().len(), odb.staged().len());
    }

    #[test]
    fn load_shared_splits_the_snapshot_into_working_shards() {
        let odb = populated();
        let path = std::env::temp_dir().join(format!(
            "orpheus-persist-shared-{}.orpheus",
            std::process::id()
        ));
        save(&odb, &path).unwrap();

        let shared = load_shared(&path).unwrap();
        shared.read(|back| {
            assert_eq!(back.ls(), odb.ls());
            assert_eq!(back.staged().len(), odb.staged().len());
        });
        // The open staged table survived the split and commits under its
        // owner's session; the partitioned CVD still checks out.
        let alice = shared.session("alice").unwrap();
        let v5 = alice.commit("open_work", "post-restore commit").unwrap();
        assert_eq!(v5, Vid(5));
        alice.checkout("protein", &[Vid(2)], "reload_co").unwrap();
        let res = alice
            .run("SELECT count(*) FROM VERSION 5 OF CVD protein")
            .unwrap();
        assert_eq!(res.scalar(), Some(&Value::Int(3)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reloaded_instance_keeps_working() {
        let odb = populated();
        let mut back = deserialize(&serialize(&odb)).unwrap();

        // The open staged table can still be committed by its owner.
        back.engine
            .execute("UPDATE open_work SET score = 99 WHERE protein1 = 'a' AND protein2 = 'c'")
            .unwrap();
        let v5 = back.commit("open_work", "post-restore commit").unwrap();
        assert_eq!(v5, Vid(5));

        // Fresh rids continue after the saved next_rid (no collisions): the
        // updated record must have received a brand-new rid.
        let max_rid_before = odb.cvd("protein").unwrap().next_rid;
        assert!(back.cvd("protein").unwrap().next_rid > max_rid_before);

        // Versioned queries still work after restore.
        let res = back
            .run("SELECT count(*) FROM VERSION 5 OF CVD protein")
            .unwrap();
        assert_eq!(res.scalar(), Some(&Value::Int(3)));

        // Logical clock advanced past all persisted commit times.
        let (latest, t) = back.cvd("protein").unwrap().last_modified().unwrap();
        assert_eq!(latest, Vid(5));
        assert!(t > 0);
    }

    #[test]
    fn checkout_from_reloaded_partitioned_cvd() {
        let odb = populated();
        let mut back = deserialize(&serialize(&odb)).unwrap();
        // The partitioned layout's physical tables came back through the
        // engine snapshot; a partition-served checkout must agree with the
        // logical version contents.
        back.checkout("protein", &[Vid(2)], "replay").unwrap();
        let n = back.engine.query("SELECT count(*) FROM replay").unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn save_and_load_via_file() {
        let dir = std::env::temp_dir().join(format!("orpheus-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("instance.orpheus");
        let odb = populated();
        save(&odb, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.ls(), odb.ls());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected_before_state_is_built() {
        let bytes = serialize(&populated());
        for pos in [17, 40, bytes.len() / 2, bytes.len() - 6] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            let err = deserialize(&bad).unwrap_err();
            assert!(
                matches!(err, CoreError::Storage(_) | CoreError::Engine(_)),
                "flip at {pos}: {err}"
            );
        }
    }

    /// A partition state that does not fit its CVD is refused at load —
    /// too short or too long an assignment, or a partition id past the
    /// count — before any checkout can index out of it.
    #[test]
    fn a_partition_state_that_does_not_cover_its_cvd_is_rejected() {
        let odb = populated();
        let cvd = odb.cvd("protein").unwrap();
        let state = cvd.partition.as_ref().unwrap();
        let encode = |assignment: &[usize], num_partitions: usize| {
            let mut w = ByteWriter::new();
            w.put_u32(assignment.len() as u32);
            for &a in assignment {
                w.put_u32(a as u32);
            }
            w.put_u32(num_partitions as u32);
            w.put_u32(0);
            for x in [0.5, 3.0, 2.0, 1.5] {
                w.put_f64(x);
            }
            w.put_u32(0);
            w.into_bytes()
        };
        let load =
            |bytes: &[u8]| get_partition_state(&mut ByteReader::new(bytes), cvd.version_tree());
        let (good, k) = (state.assignment(), state.num_partitions());
        assert_eq!(load(&encode(good, k)).unwrap().assignment(), good);

        let mut long = good.to_vec();
        long.push(0);
        let mut out_of_range = good.to_vec();
        out_of_range[0] = k;
        for bad in [&good[1..], &long[..], &out_of_range[..]] {
            let err = load(&encode(bad, k)).unwrap_err();
            assert!(
                matches!(&err, CoreError::Storage(m) if m.contains("partition assignment")),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn bare_engine_snapshot_is_rejected_with_guidance() {
        let engine_only = storage::serialize_database(&populated().engine);
        let err = deserialize(&engine_only).unwrap_err();
        assert!(err.to_string().contains("bare engine"), "{err}");
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let bytes = serialize(&populated());
        for cut in [0, 10, 16, bytes.len() / 3, bytes.len() - 1] {
            assert!(deserialize(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn empty_instance_roundtrip() {
        let odb = OrpheusDB::new();
        let back = deserialize(&serialize(&odb)).unwrap();
        assert!(back.ls().is_empty());
        assert_eq!(back.access.whoami(), "default");
    }
}

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
//!
//! [`save`] — and so every checkpoint — streams the file: a counting pass
//! learns both envelope lengths, then one encoding pass writes straight
//! into a buffered temp file while both CRCs are folded in as the bytes
//! pass. No whole-file buffer exists; [`serialize`] is the same encoder
//! run into a `Vec`.
//!
//! The paper's split-by-rlist model keeps one rlist array per version, and
//! so does the file: such a CVD's rlists live only in its rlist table
//! cells, and loading builds the catalog from them. That is
//! `CORE_VERSION` 2; a version-1 file, which stored every rlist in the
//! catalog as well, is refused by name.
//!
//! The bytes are the engine's one vocabulary, with the codec's version-id
//! lists and model tags ([`crate::codec`]). The one layout of its own is
//! the CVD schema, which stores each column's type by SQL name rather than
//! by tag. Anything the decoders refuse is [`CoreError::Storage`] (or
//! [`CoreError::Engine`] from the embedded engine snapshot).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use orpheus_engine::storage::{
    self, encoded_len, put_bool, put_envelope, put_f64, put_i64, put_str, put_u32, put_u64,
    verify_envelope, write_atomically_with, Reader, Sink, ENVELOPE_LEN,
};
use orpheus_engine::{Column, DataType, Database, Schema, Value};
use orpheus_partition::online::{OnlineConfig, OnlineMaintainer};
use orpheus_partition::{Partitioning, VersionTree};

use crate::codec::{put_model, put_vids, read_model, read_vids};
use crate::cvd::{AttrEntry, AttributeRegistry, Cvd, VersionMeta};
use crate::db::{OrpheusConfig, OrpheusDB};
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::model::split_rlist::rlist_tuple;
use crate::model::ModelKind;
use crate::partition_store::PartitionState;
use crate::staging::{StagedEntry, StagedKind, StagingArea};

/// Marker distinguishing middleware snapshots from bare engine snapshots.
const SECTION: &str = "orpheus-core";
/// Version of the middleware section layout.
const CORE_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// Encoding helpers.
// ---------------------------------------------------------------------------

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Storage(format!("snapshot corrupt: {}", msg.into()))
}

/// A rid list: a `u64` count, then the rids.
fn put_i64s<S: Sink + ?Sized>(out: &mut S, xs: &[i64]) {
    put_u64(out, xs.len() as u64);
    for &x in xs {
        put_i64(out, x);
    }
}

fn read_i64s(r: &mut Reader<'_>) -> Result<Vec<i64>> {
    let n = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
    Ok(r.u64s(n)?.map(|x| x as i64).collect())
}

fn put_u32s<S: Sink + ?Sized>(out: &mut S, xs: impl ExactSizeIterator<Item = u32>) {
    put_u32(out, xs.len() as u32);
    for x in xs {
        put_u32(out, x);
    }
}

fn read_u32s(r: &mut Reader<'_>, what: &str) -> Result<Vec<u32>> {
    let n = r.count(what)?;
    (0..n).map(|_| Ok(r.u32()?)).collect()
}

fn put_opt_u64<S: Sink + ?Sized>(out: &mut S, v: Option<u64>) {
    match v {
        Some(x) => {
            out.put_u8(1);
            put_u64(out, x);
        }
        None => out.put_u8(0),
    }
}

fn read_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>> {
    Ok(if r.bool()? { Some(r.u64()?) } else { None })
}

/// The CVD schema, types by SQL name (the engine's encoding tags them).
fn put_cvd_schema<S: Sink + ?Sized>(out: &mut S, schema: &Schema) {
    put_u32(out, schema.columns.len() as u32);
    for c in &schema.columns {
        put_str(out, &c.name);
        put_str(out, c.dtype.sql_name());
        put_bool(out, c.nullable);
    }
    put_u32s(out, schema.primary_key.iter().map(|&i| i as u32));
}

fn read_cvd_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let ncols = r.count("column")?;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = r.str()?;
        let c = Column::new(name, DataType::parse(&r.str()?)?);
        cols.push(if r.bool()? { c } else { c.not_null() });
    }
    let mut s = Schema::new(cols);
    for i in read_u32s(r, "primary key column")? {
        if i as usize >= s.arity() {
            return Err(corrupt(format!("primary-key index {i} out of range")));
        }
        s.primary_key.push(i as usize);
    }
    Ok(s)
}

// ---------------------------------------------------------------------------
// Section writers.
// ---------------------------------------------------------------------------

fn put_version_meta<S: Sink + ?Sized>(out: &mut S, m: &VersionMeta) {
    put_u64(out, m.vid.0);
    put_vids(out, &m.parents);
    put_u32(out, m.parent_weights.len() as u32);
    for &w in &m.parent_weights {
        put_u64(out, w);
    }
    put_opt_u64(out, m.checkout_t);
    put_u64(out, m.commit_t);
    put_str(out, &m.message);
    put_u32s(out, m.attributes.iter().copied());
    put_u64(out, m.num_records);
    put_opt_u64(out, m.base.map(|b| b.0));
}

fn read_version_meta(r: &mut Reader<'_>) -> Result<VersionMeta> {
    let vid = Vid(r.u64()?);
    let parents = read_vids(r)?;
    let n = r.count("parent weight")?;
    let parent_weights: Vec<u64> = r.u64s(n)?.collect();
    if parent_weights.len() != parents.len() {
        return Err(corrupt("parent weight list length mismatch"));
    }
    Ok(VersionMeta {
        vid,
        parents,
        parent_weights,
        checkout_t: read_opt_u64(r)?,
        commit_t: r.u64()?,
        message: r.str()?,
        attributes: read_u32s(r, "attribute")?,
        num_records: r.u64()?,
        base: read_opt_u64(r)?.map(Vid),
    })
}

fn put_partition_state<S: Sink + ?Sized>(out: &mut S, p: &PartitionState) {
    let m = p.maintainer();
    put_u32s(out, p.assignment().iter().map(|&a| a as u32));
    put_u32(out, p.num_partitions() as u32);
    put_u32(out, p.generation as u32);
    put_f64(out, m.delta_star());
    put_f64(out, m.cavg_star());
    put_f64(out, m.config().gamma_factor);
    put_f64(out, m.config().mu);
    put_u32(out, m.migrations_triggered() as u32);
}

/// The partition state of a CVD whose version tree is `tree` (the
/// maintainer's tree is not stored: it is the CVD's).
fn read_partition_state(r: &mut Reader<'_>, tree: VersionTree) -> Result<PartitionState> {
    let assignment: Vec<usize> = read_u32s(r, "partition assignment")?
        .into_iter()
        .map(|a| a as usize)
        .collect();
    let num_partitions = r.u32()? as usize;
    let generation = r.u32()? as usize;
    let delta_star = r.f64()?;
    let cavg_star = r.f64()?;
    let config = OnlineConfig {
        gamma_factor: r.f64()?,
        mu: r.f64()?,
        ..OnlineConfig::default()
    };
    let migrations = r.u32()? as usize;
    if assignment.len() != tree.num_versions() {
        return Err(corrupt(format!(
            "partition assignment covers {} versions, the CVD has {}",
            assignment.len(),
            tree.num_versions()
        )));
    }
    // Every partition holds a version, and loading sizes one counter per
    // partition: a count past the versions is corrupt, not a reason to
    // allocate it.
    if num_partitions > assignment.len() {
        return Err(corrupt(format!(
            "partition assignment spreads {} versions over {num_partitions} partitions",
            assignment.len()
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

/// A CVD's catalog entry. A split-by-rlist CVD's rlists are not in it:
/// each is stored once, in its version's rlist table cell.
fn put_cvd<S: Sink + ?Sized>(out: &mut S, cvd: &Cvd) {
    put_str(out, &cvd.name);
    put_cvd_schema(out, &cvd.schema);
    put_model(out, cvd.model);
    put_u32(out, cvd.versions.len() as u32);
    for m in &cvd.versions {
        put_version_meta(out, m);
    }
    if cvd.model != ModelKind::SplitByRlist {
        for rids in &cvd.version_rids {
            put_i64s(out, rids);
        }
    }
    put_u64(out, cvd.next_rid);
    put_u32(out, cvd.attrs.entries().len() as u32);
    for e in cvd.attrs.entries() {
        put_u32(out, e.id);
        put_str(out, &e.name);
        put_str(out, e.dtype.sql_name());
    }
    match &cvd.partition {
        Some(p) => {
            out.put_u8(1);
            put_partition_state(out, p);
        }
        None => out.put_u8(0),
    }
}

/// A CVD's catalog entry, read over the engine snapshot loaded before it:
/// a split-by-rlist CVD's rlists are its rlist table cells.
fn read_cvd(r: &mut Reader<'_>, engine: &Database) -> Result<Cvd> {
    let name = r.str()?;
    let schema = read_cvd_schema(r)?;
    let model = read_model(r)?;
    let nvers = r.count("version")?;
    let mut versions: Vec<std::sync::Arc<VersionMeta>> = Vec::with_capacity(nvers);
    for i in 0..nvers {
        let m = read_version_meta(r)?;
        // The version graph is rebuilt from these: ids are dense and every
        // parent precedes its child, sharing no more records than either.
        let vid = Vid::from_index(i);
        if m.vid != vid {
            return Err(corrupt(format!("version {} stored as {}", vid.0, m.vid.0)));
        }
        for (p, &w) in m.parents.iter().zip(&m.parent_weights) {
            let Some(parent) = versions.get(p.0.wrapping_sub(1) as usize) else {
                return Err(corrupt(format!("version {} names parent {}", vid.0, p.0)));
            };
            if w > parent.num_records.max(m.num_records) {
                return Err(corrupt(format!(
                    "version {} shares {w} records with parent {}",
                    vid.0, p.0
                )));
            }
        }
        versions.push(std::sync::Arc::new(m));
    }
    let mut cvd = Cvd::new(&name, schema, model);
    cvd.versions = versions;
    // The record counts feed the version tree's sums (the partition state
    // below builds one): they must be what the rlists hold.
    cvd.version_rids = if model == ModelKind::SplitByRlist {
        cell_rlists(engine, &cvd)?
    } else {
        let mut version_rids = Vec::with_capacity(nvers);
        for m in &cvd.versions {
            let rids = read_i64s(r)?;
            if m.num_records != rids.len() as u64 {
                return Err(corrupt(format!(
                    "version {} counts {} records, its rlist holds {}",
                    m.vid.0,
                    m.num_records,
                    rids.len()
                )));
            }
            version_rids.push(Arc::new(rids));
        }
        version_rids
    };
    cvd.next_rid = r.u64()?;
    let nattrs = r.count("attribute entry")?;
    let mut entries = Vec::with_capacity(nattrs);
    for _ in 0..nattrs {
        entries.push(AttrEntry {
            id: r.u32()?,
            name: r.str()?,
            dtype: DataType::parse(&r.str()?)?,
        });
    }
    cvd.attrs = AttributeRegistry::from_entries(entries);
    if r.bool()? {
        cvd.partition = Some(read_partition_state(r, cvd.version_tree())?);
    }
    Ok(cvd)
}

fn put_staged<S: Sink + ?Sized>(out: &mut S, e: &StagedEntry) {
    put_str(out, &e.name);
    put_str(out, &e.cvd);
    put_vids(out, &e.parents);
    put_str(out, &e.owner);
    put_u64(out, e.created_at);
    put_bool(out, matches!(e.kind, StagedKind::Csv));
}

fn read_staged(r: &mut Reader<'_>) -> Result<StagedEntry> {
    Ok(StagedEntry {
        name: r.str()?,
        cvd: r.str()?,
        parents: read_vids(r)?,
        owner: r.str()?,
        created_at: r.u64()?,
        kind: if r.bool()? {
            StagedKind::Csv
        } else {
            StagedKind::Table
        },
    })
}

// ---------------------------------------------------------------------------
// Top-level serialize / deserialize.
// ---------------------------------------------------------------------------

/// Serialize a full OrpheusDB instance into a checksummed snapshot in
/// memory: the encoder [`save`] streams to disk, run into a `Vec`.
pub fn serialize(odb: &OrpheusDB) -> Vec<u8> {
    let lens = PayloadLens::of(odb);
    let mut out = Vec::with_capacity((ENVELOPE_LEN + lens.core) as usize);
    put_snapshot(&mut out, odb, lens);
    out
}

/// The payload lengths of the file's two envelopes — the instance
/// snapshot's and the engine snapshot embedded in it — from one counting
/// pass over the instance.
#[derive(Clone, Copy)]
struct PayloadLens {
    engine: u64,
    core: u64,
}

impl PayloadLens {
    fn of(odb: &OrpheusDB) -> PayloadLens {
        let engine = storage::payload_len(&odb.engine);
        let rest = encoded_len(|counter| {
            put_head(counter, engine);
            put_state(counter, odb);
        });
        PayloadLens {
            engine,
            core: rest + ENVELOPE_LEN + engine,
        }
    }
}

/// The whole file: the envelope around the middleware section, which
/// embeds the engine snapshot (with its own envelope; integrity of the
/// whole file is still guaranteed by the outer CRC).
fn put_snapshot<S: Sink + ?Sized>(out: &mut S, odb: &OrpheusDB, lens: PayloadLens) {
    put_envelope(out, lens.core, |payload| {
        put_head(payload, lens.engine);
        storage::put_database(payload, &odb.engine, lens.engine);
        put_state(payload, odb);
    });
}

/// The section marker and version, then the length of the embedded engine
/// snapshot that follows them.
fn put_head<S: Sink + ?Sized>(out: &mut S, engine_len: u64) {
    put_str(out, SECTION);
    put_u32(out, CORE_VERSION);
    put_u64(out, ENVELOPE_LEN + engine_len);
}

/// Everything after the engine snapshot: config, clock, users, staging
/// and the CVD catalog.
fn put_state<S: Sink + ?Sized>(out: &mut S, odb: &OrpheusDB) {
    // Config + logical clock.
    put_model(out, odb.config.default_model);
    put_f64(out, odb.config.gamma_factor);
    put_f64(out, odb.config.mu);
    put_u64(out, odb.clock);

    // Users and session identity.
    let users = odb.access.users();
    put_u32(out, users.len() as u32);
    for u in &users {
        put_str(out, u);
    }
    put_str(out, odb.access.whoami());

    // Staging provenance.
    let staged = odb.staging.list();
    put_u32(out, staged.len() as u32);
    for e in staged {
        put_staged(out, e);
    }

    // CVD catalog, in sorted order for deterministic bytes.
    let mut names: Vec<&String> = odb.cvds.keys().collect();
    names.sort();
    put_u32(out, names.len() as u32);
    for name in names {
        put_cvd(out, &odb.cvds[name]);
    }
}

/// Reconstruct an OrpheusDB instance from snapshot bytes.
pub fn deserialize(bytes: &[u8]) -> Result<OrpheusDB> {
    let payload = verify_envelope(bytes)?;
    deserialize_payload(payload).map_err(|e| match e {
        // Bytes the shared decoders refuse are a protocol error on the wire
        // and corruption here.
        CoreError::Protocol(m) => corrupt(m),
        e => e,
    })
}

fn deserialize_payload(payload: &[u8]) -> Result<OrpheusDB> {
    let mut r = Reader::new(payload);

    // A bare engine snapshot shares the envelope but its payload does not
    // begin with the middleware section marker; fail with guidance rather
    // than a generic corruption error.
    if r.str().ok().as_deref() != Some(SECTION) {
        return Err(CoreError::Storage(
            "not an OrpheusDB instance snapshot (bare engine snapshots \
             load via orpheus_engine::storage::load_database)"
                .into(),
        ));
    }
    let version = r.u32()?;
    if version > CORE_VERSION {
        return Err(CoreError::Storage(format!(
            "middleware section version {version} is newer than supported {CORE_VERSION}"
        )));
    }
    if version < CORE_VERSION {
        return Err(CoreError::Storage(format!(
            "middleware section version {version} is no longer supported: it stored each \
             split-by-rlist rlist twice; this build reads version {CORE_VERSION} only"
        )));
    }

    let engine_len = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
    let engine = storage::deserialize_database(r.bytes(engine_len)?)?;

    let default_model = read_model(&mut r)?;
    let gamma_factor = r.f64()?;
    let mu = r.f64()?;
    let clock = r.u64()?;

    let nusers = r.count("user")?;
    let users = (0..nusers)
        .map(|_| r.str())
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let current = r.str()?;

    let mut staging = StagingArea::default();
    for _ in 0..r.count("staged entry")? {
        staging.register(read_staged(&mut r)?)?;
    }

    let ncvds = r.count("CVD")?;
    let mut cvds = HashMap::with_capacity(ncvds);
    for _ in 0..ncvds {
        let cvd = read_cvd(&mut r, &engine)?;
        cvds.insert(cvd.name.clone(), cvd);
    }
    r.finish("the instance snapshot")?;

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
        share_partition_rlists(&mut odb.engine, cvd)?;
        if cvd.model == ModelKind::CombinedTable {
            crate::model::combined::keep_vlist_last(&mut odb.engine, cvd)?;
        }
    }
    odb.cvds = cvds;
    Ok(odb)
}

/// Why `cvd`'s rlist tables disagree with its catalog, or `None` when
/// they agree. Under split-by-rlist each version's rlist is held by the
/// catalog and by one cell of the global rlist table (and, once
/// partitioned, of its partition's). A cell that differs from the
/// catalog's rlist, a cell for a version the catalog lacks, a global
/// table without one cell per version, and a missing partition rlist
/// table all disagree. [`save`] refuses to write such an instance: the
/// file keeps only the cells, so a cell edited through the public `engine`
/// handle would otherwise become the version on reload.
fn rlist_mismatch(engine: &Database, cvd: &Cvd) -> Option<String> {
    if cvd.model != ModelKind::SplitByRlist {
        return None;
    }
    let global = cvd.rlist_table();
    let tables = std::iter::once(global.clone()).chain(cvd.partition_pairs().map(|(_, r)| r));
    for table in tables {
        let Ok(t) = engine.table(&table) else {
            return Some(format!("CVD {} references missing table {table}", cvd.name));
        };
        for row in t.rows() {
            if let Err(msg) = checked_rlist(cvd, &table, row) {
                return Some(msg);
            }
        }
        if table == global && t.len() != cvd.num_versions() {
            return Some(format!(
                "CVD {}: {} versions, but {global} holds {} rlists",
                cvd.name,
                cvd.num_versions(),
                t.len()
            ));
        }
    }
    None
}

/// A split-by-rlist CVD's rlists, which the snapshot stores only in its
/// global rlist table cells: the catalog adopts each cell's buffer.
/// Refused as corruption: a missing table, a row that is not `(vid,
/// rlist)`, a cell for a version the catalog lacks, a version with no cell
/// or two, and a cell whose length is not the version's record count.
fn cell_rlists(engine: &Database, cvd: &Cvd) -> Result<Vec<Arc<Vec<i64>>>> {
    let global = cvd.rlist_table();
    let table = engine.table(&global).map_err(|_| {
        corrupt(format!(
            "CVD {} references missing backing table {global}",
            cvd.name
        ))
    })?;
    let mut cells: Vec<Option<Arc<Vec<i64>>>> = vec![None; cvd.num_versions()];
    for row in table.rows() {
        let (vid, cell) = rlist_cell(cvd, &global, row).map_err(corrupt)?;
        let counted = cvd.versions[vid.index()].num_records;
        if cell.len() as u64 != counted {
            return Err(corrupt(format!(
                "CVD {}: version {} counts {counted} records, its rlist in {global} holds {}",
                cvd.name,
                vid.0,
                cell.len()
            )));
        }
        if cells[vid.index()].replace(cell).is_some() {
            return Err(corrupt(format!(
                "CVD {}: {global} holds two rlists for version {}",
                cvd.name, vid.0
            )));
        }
    }
    cells
        .into_iter()
        .zip(1..)
        .map(|(cell, v)| {
            cell.ok_or_else(|| {
                corrupt(format!(
                    "CVD {}: {global} holds no rlist for version {v}",
                    cvd.name
                ))
            })
        })
        .collect()
}

/// Point each partition rlist table cell of a split-by-rlist CVD at the
/// catalog's buffer for its version, so every rlist is held once, as a
/// live commit holds it. A partition cell that differs from the catalog's
/// rlist is refused as corruption.
fn share_partition_rlists(engine: &mut Database, cvd: &Cvd) -> Result<()> {
    if cvd.model != ModelKind::SplitByRlist {
        return Ok(());
    }
    for (_, table) in cvd.partition_pairs() {
        let t = engine.table_mut(&table)?;
        for slot in 0..t.len() {
            let (vid, _) = checked_rlist(cvd, &table, t.row(slot)).map_err(corrupt)?;
            t.replace_row(slot, rlist_tuple(vid, &cvd.version_rids[vid.index()]))?;
        }
    }
    Ok(())
}

/// The version and rlist buffer of one `(vid, rlist)` row of `table`,
/// refused unless the catalog holds that version.
fn rlist_cell(
    cvd: &Cvd,
    table: &str,
    row: &[Value],
) -> std::result::Result<(Vid, Arc<Vec<i64>>), String> {
    let [Value::Int(v), Value::IntArray(cell), ..] = row else {
        return Err(format!(
            "CVD {}: {table} holds a row that is not (vid, rlist)",
            cvd.name
        ));
    };
    let vid = Vid(u64::try_from(*v).unwrap_or(0));
    if !cvd.has_version(vid) {
        return Err(format!(
            "CVD {}: {table} holds an rlist for version {v}, which the catalog lacks",
            cvd.name
        ));
    }
    Ok((vid, Arc::clone(cell)))
}

/// [`rlist_cell`], refused unless the cell holds exactly the catalog's
/// rlist of its version.
fn checked_rlist(
    cvd: &Cvd,
    table: &str,
    row: &[Value],
) -> std::result::Result<(Vid, Arc<Vec<i64>>), String> {
    let (vid, cell) = rlist_cell(cvd, table, row)?;
    let held = &cvd.version_rids[vid.index()];
    if Arc::ptr_eq(held, &cell) || held == &cell {
        Ok((vid, cell))
    } else {
        Err(format!(
            "CVD {}: the rlist of version {} in {table} differs from the catalog's",
            cvd.name, vid.0
        ))
    }
}

/// Save an OrpheusDB snapshot to `path` atomically, streamed: a counting
/// pass sizes the two envelopes, and a second pass encodes straight into
/// the temp file, computing both CRCs as the bytes pass. An instance whose
/// rlist tables disagree with its catalog (see `rlist_mismatch`) would
/// not load back, so it is refused and the file at `path` is left as it
/// was.
pub fn save(odb: &OrpheusDB, path: &Path) -> Result<()> {
    if let Some(msg) = odb
        .cvds
        .values()
        .find_map(|cvd| rlist_mismatch(&odb.engine, cvd))
    {
        return Err(CoreError::Storage(format!(
            "refusing to save {}: {msg}",
            path.display()
        )));
    }
    let lens = PayloadLens::of(odb);
    write_atomically_with(path, ENVELOPE_LEN + lens.core, |file| {
        put_snapshot(file, odb, lens)
    })
    .map_err(CoreError::from)
}

/// Load an OrpheusDB snapshot from `path`.
pub fn load(path: &Path) -> Result<OrpheusDB> {
    let bytes = std::fs::read(path)
        .map_err(|e| CoreError::Storage(format!("cannot read {}: {e}", path.display())))?;
    deserialize(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
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

        // One flat format: a file saved by `save` loads as a shared
        // instance, split into per-CVD shards.
        let shared = crate::SharedOrpheusDB::load_from(&path).unwrap();
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

    /// Saves racing to one path each write a temp file of their own, so
    /// the file left is one complete instance and no temp file remains.
    #[test]
    fn concurrent_saves_to_one_path_leave_one_whole_snapshot() {
        let dir = std::env::temp_dir().join(format!("orpheus-persist-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("instance.orpheus");
        let instances: Vec<OrpheusDB> = (0..8)
            .map(|i| {
                let mut odb = OrpheusDB::new();
                let rows = (0..=i).map(|k| vec![k.into()]).collect();
                let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
                odb.init_cvd(&format!("c{i}"), schema, rows, None).unwrap();
                odb
            })
            .collect();
        std::thread::scope(|scope| {
            for odb in &instances {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..20 {
                        save(odb, path).unwrap();
                    }
                });
            }
        });
        let bytes = std::fs::read(&path).unwrap();
        let back = deserialize(&bytes).unwrap();
        assert!(
            instances.iter().any(|odb| serialize(odb) == bytes),
            "the file is none of the saved instances: {:?}",
            back.ls()
        );
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["instance.orpheus"]);
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
    /// too short or too long an assignment, a partition id past the count,
    /// or more partitions than versions — before any checkout can index
    /// out of it.
    #[test]
    fn a_partition_state_that_does_not_cover_its_cvd_is_rejected() {
        let odb = populated();
        let cvd = odb.cvd("protein").unwrap();
        let state = cvd.partition.as_ref().unwrap();
        let encode = |assignment: &[usize], num_partitions: usize| {
            let mut out = Vec::new();
            put_u32s(&mut out, assignment.iter().map(|&a| a as u32));
            put_u32(&mut out, num_partitions as u32);
            put_u32(&mut out, 0);
            for x in [0.5, 3.0, 2.0, 1.5] {
                put_f64(&mut out, x);
            }
            put_u32(&mut out, 0);
            out
        };
        let load = |bytes: &[u8]| read_partition_state(&mut Reader::new(bytes), cvd.version_tree());
        let (good, k) = (state.assignment(), state.num_partitions());
        assert_eq!(load(&encode(good, k)).unwrap().assignment(), good);

        let mut long = good.to_vec();
        long.push(0);
        let mut out_of_range = good.to_vec();
        out_of_range[0] = k;
        let cases = [
            (&good[1..], k),
            (&long[..], k),
            (&out_of_range[..], k),
            (good, good.len() + 1),
            (good, u32::MAX as usize),
        ];
        for (bad, k) in cases {
            let err = load(&encode(bad, k)).unwrap_err();
            assert!(
                matches!(&err, CoreError::Storage(m) if m.contains("partition assignment")),
                "{bad:?} over {k}: {err}"
            );
        }
    }

    /// A split-by-rlist CVD's rlists are stored once, in its rlist table
    /// cells, and loading builds the catalog from them: a snapshot whose
    /// cells cannot be that catalog is refused as corrupt, naming the CVD
    /// and the version.
    #[test]
    fn rlist_cells_that_cannot_be_the_catalog_are_refused() {
        let refused = |what: &str, edit: &dyn Fn(&mut OrpheusDB)| {
            let mut odb = populated();
            edit(&mut odb);
            match deserialize(&serialize(&odb)) {
                Err(CoreError::Storage(msg)) => {
                    assert!(msg.starts_with("snapshot corrupt"), "{what}: {msg}");
                    assert!(msg.contains("CVD protein"), "{what}: {msg}");
                    assert!(msg.contains("version 2"), "{what}: {msg}");
                }
                Err(other) => panic!("{what}: refused as {other:?}, not as corruption"),
                Ok(_) => panic!("{what}: the snapshot loaded"),
            }
        };
        let run = |odb: &mut OrpheusDB, sql: &str| {
            odb.engine.execute(sql).unwrap();
        };

        refused("a version with no cell", &|odb| {
            run(odb, "DELETE FROM protein__rlist WHERE vid = 2");
        });
        refused("a cell whose length is not the record count", &|odb| {
            run(
                odb,
                "UPDATE protein__rlist SET rlist = array_append(rlist, 0) WHERE vid = 2",
            );
        });
        refused("two cells for one version", &|odb| {
            // The rlist table keys its cells by vid; a table without that
            // key is what it takes to store a second cell.
            let cvd = odb.cvd("protein").unwrap().clone();
            run(odb, "DROP TABLE protein__rlist");
            let schema = Schema::new(vec![
                Column::new("vid", DataType::Int),
                Column::new("rlist", DataType::IntArray),
            ]);
            let mut table = orpheus_engine::Table::new("protein__rlist", schema);
            for (i, rlist) in cvd.version_rids.iter().enumerate() {
                table
                    .insert(rlist_tuple(Vid::from_index(i), rlist))
                    .unwrap();
            }
            table
                .insert(rlist_tuple(Vid(2), &cvd.version_rids[1]))
                .unwrap();
            odb.engine.add_table(table).unwrap();
        });
        refused(
            "a partition cell that differs from the global one",
            &|odb| {
                let cvd = odb.cvd("protein").unwrap();
                let partition = cvd.rlist_pair(Vid(2)).unwrap().1;
                let mut other = cvd.version_rids[1].to_vec();
                other[0] = -1;
                let t = odb.engine.table_mut(&partition).unwrap();
                let slot = (0..t.len())
                    .find(|&slot| t.row(slot)[0] == Value::Int(2))
                    .unwrap();
                t.replace_row(slot, rlist_tuple(Vid(2), &Arc::new(other)))
                    .unwrap();
            },
        );
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

    #[test]
    fn a_combined_table_saved_with_a_column_after_vlist_loads_with_vlist_last() {
        // Schema evolution once appended new data columns after `vlist`,
        // and snapshots written then hold that layout.
        let mut odb = OrpheusDB::new();
        odb.init_cvd("c", schema(), rows(), Some(ModelKind::CombinedTable))
            .unwrap();
        odb.engine
            .execute("ALTER TABLE c__combined ADD COLUMN extra INT")
            .unwrap();
        let cvd = odb.cvds.get_mut("c").unwrap();
        cvd.schema.columns.push(Column::new("extra", DataType::Int));
        assert!(odb.version_rows("c", Vid(1)).is_err());

        let mut back = deserialize(&serialize(&odb)).unwrap();
        let cvd = back.cvd("c").unwrap();
        let table = back.engine.table(&cvd.combined_table()).unwrap();
        assert_eq!(*table.schema, crate::model::combined::physical_schema(cvd));
        let read = back.version_rows("c", Vid(1)).unwrap();
        assert_eq!(read.len(), 3);
        assert!(read.iter().all(|(_, values)| values[3] == Value::Null));
    }
}

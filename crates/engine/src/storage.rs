//! Durable snapshots: serialize a whole [`Database`] to a single file and
//! load it back, including schemas, rows, index definitions, physical
//! clustering, and session settings.
//!
//! The paper's backend (PostgreSQL) is durable; this module gives the
//! from-scratch substrate the same property so the `orpheus` command-line
//! client can operate across process invocations. The format is a
//! self-contained binary snapshot:
//!
//! ```text
//! magic      b"ORPH"            4 bytes
//! version    u32 LE             format version (currently 1)
//! length     u64 LE             payload length in bytes
//! payload    [u8]               settings + catalog + rows (see below)
//! checksum   u32 LE             CRC-32 (IEEE) of the payload
//! ```
//!
//! Integrity failures (truncation, bit flips, wrong magic, or a snapshot
//! written by a future format version) are reported as
//! [`EngineError::Storage`] rather than yielding a half-loaded database.
//! Saves are atomic: the snapshot is written to a sibling temporary file
//! and renamed over the target, so a crash mid-save never corrupts an
//! existing snapshot.
//!
//! Secondary indexes are persisted as *definitions* and rebuilt on load;
//! row data is the source of truth. Runtime statistics
//! ([`crate::stats::ExecStats`]) are deliberately not persisted.

use std::io::Write as _;
use std::path::Path;

use crate::db::Database;
use crate::error::{EngineError, Result};
use crate::exec::join::JoinStrategy;
use crate::schema::{Column, Schema};
use crate::table::Table;
use crate::types::{DataType, Row, Value};

/// Snapshot file magic bytes.
pub const MAGIC: &[u8; 4] = b"ORPH";
/// Current snapshot format version.
pub const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven.
// ---------------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// CRC-32 (IEEE) checksum of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Byte-level primitives, shared with the middleware's snapshot writer.
// ---------------------------------------------------------------------------

/// Little-endian binary writer over a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consume the writer, returning the bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (NaN-safe).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Little-endian binary reader over a byte slice. All reads are
/// bounds-checked and report [`EngineError::Storage`] on underrun, so a
/// truncated or corrupted snapshot fails cleanly instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice for reading.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when all bytes have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(EngineError::Storage(format!(
                "snapshot truncated: need {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string. The declared length is checked
    /// against the remaining bytes before allocating, so corrupt lengths
    /// cannot trigger huge allocations.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(EngineError::Storage(format!(
                "snapshot corrupt: string length {len} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| EngineError::Storage("snapshot corrupt: invalid UTF-8".into()))
    }

    /// Read `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

// ---------------------------------------------------------------------------
// Value / schema encoding.
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_INT_ARRAY: u8 = 5;

/// Encode one value into the writer.
pub fn put_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.put_u8(TAG_NULL),
        Value::Int(i) => {
            w.put_u8(TAG_INT);
            w.put_i64(*i);
        }
        Value::Double(d) => {
            w.put_u8(TAG_DOUBLE);
            w.put_f64(*d);
        }
        Value::Text(s) => {
            w.put_u8(TAG_TEXT);
            w.put_str(s);
        }
        Value::Bool(b) => {
            w.put_u8(TAG_BOOL);
            w.put_u8(*b as u8);
        }
        Value::IntArray(a) => {
            w.put_u8(TAG_INT_ARRAY);
            w.put_u32(a.len() as u32);
            for x in a {
                w.put_i64(*x);
            }
        }
    }
}

/// Decode one value from the reader.
pub fn get_value(r: &mut ByteReader<'_>) -> Result<Value> {
    match r.get_u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(r.get_i64()?)),
        TAG_DOUBLE => Ok(Value::Double(r.get_f64()?)),
        TAG_TEXT => Ok(Value::Text(r.get_str()?)),
        TAG_BOOL => Ok(Value::Bool(r.get_u8()? != 0)),
        TAG_INT_ARRAY => {
            let len = r.get_u32()? as usize;
            if len.saturating_mul(8) > r.remaining() {
                return Err(EngineError::Storage(format!(
                    "snapshot corrupt: array length {len} exceeds remaining bytes"
                )));
            }
            let mut a = Vec::with_capacity(len);
            for _ in 0..len {
                a.push(r.get_i64()?);
            }
            Ok(Value::IntArray(a))
        }
        tag => Err(EngineError::Storage(format!(
            "snapshot corrupt: unknown value tag {tag}"
        ))),
    }
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::IntArray => 4,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Double),
        2 => Ok(DataType::Text),
        3 => Ok(DataType::Bool),
        4 => Ok(DataType::IntArray),
        t => Err(EngineError::Storage(format!(
            "snapshot corrupt: unknown data type tag {t}"
        ))),
    }
}

fn put_schema(w: &mut ByteWriter, schema: &Schema) {
    w.put_u32(schema.columns.len() as u32);
    for c in &schema.columns {
        w.put_str(&c.name);
        w.put_u8(dtype_tag(c.dtype));
        w.put_u8(c.nullable as u8);
    }
    w.put_u32(schema.primary_key.len() as u32);
    for &i in &schema.primary_key {
        w.put_u32(i as u32);
    }
}

fn get_schema(r: &mut ByteReader<'_>) -> Result<Schema> {
    let ncols = r.get_u32()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(r.remaining()));
    for _ in 0..ncols {
        let name = r.get_str()?;
        let dtype = dtype_from_tag(r.get_u8()?)?;
        let nullable = r.get_u8()? != 0;
        let mut col = Column::new(name, dtype);
        if !nullable {
            col = col.not_null();
        }
        columns.push(col);
    }
    let npk = r.get_u32()? as usize;
    let mut primary_key = Vec::with_capacity(npk.min(r.remaining()));
    for _ in 0..npk {
        let i = r.get_u32()? as usize;
        if i >= columns.len() {
            return Err(EngineError::Storage(format!(
                "snapshot corrupt: primary-key column index {i} out of range"
            )));
        }
        primary_key.push(i);
    }
    let mut s = Schema::new(columns);
    s.primary_key = primary_key;
    Ok(s)
}

fn join_strategy_tag(j: JoinStrategy) -> u8 {
    match j {
        JoinStrategy::Auto => 0,
        JoinStrategy::Hash => 1,
        JoinStrategy::Merge => 2,
        JoinStrategy::IndexNestedLoop => 3,
    }
}

fn join_strategy_from_tag(tag: u8) -> Result<JoinStrategy> {
    match tag {
        0 => Ok(JoinStrategy::Auto),
        1 => Ok(JoinStrategy::Hash),
        2 => Ok(JoinStrategy::Merge),
        3 => Ok(JoinStrategy::IndexNestedLoop),
        t => Err(EngineError::Storage(format!(
            "snapshot corrupt: unknown join strategy tag {t}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Table / database encoding.
// ---------------------------------------------------------------------------

fn put_table(w: &mut ByteWriter, table: &Table) {
    w.put_str(&table.name);
    put_schema(w, &table.schema);
    // Index definitions (data is rebuilt on load).
    w.put_u32(table.indexes().len() as u32);
    for idx in table.indexes() {
        w.put_str(&idx.name);
        w.put_u32(idx.columns.len() as u32);
        for &c in &idx.columns {
            w.put_u32(c as u32);
        }
        w.put_u8(idx.unique as u8);
        // Format 1 keeps a byte here: it named the index kind when there
        // were two.
        w.put_u8(0);
    }
    // Physical clustering, if any.
    match table.clustered_on() {
        Some(cols) => {
            w.put_u8(1);
            w.put_u32(cols.len() as u32);
            for &c in cols {
                w.put_u32(c as u32);
            }
        }
        None => w.put_u8(0),
    }
    // Rows.
    w.put_u64(table.len() as u64);
    for row in table.rows() {
        for v in row {
            put_value(w, v);
        }
    }
}

struct IndexDef {
    name: String,
    columns: Vec<usize>,
    unique: bool,
}

fn get_table(r: &mut ByteReader<'_>) -> Result<Table> {
    let name = r.get_str()?;
    let schema = get_schema(r)?;
    let arity = schema.arity();

    let nidx = r.get_u32()? as usize;
    let mut index_defs = Vec::with_capacity(nidx.min(r.remaining()));
    for _ in 0..nidx {
        let idx_name = r.get_str()?;
        let ncols = r.get_u32()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(r.remaining()));
        for _ in 0..ncols {
            let c = r.get_u32()? as usize;
            if c >= arity {
                return Err(EngineError::Storage(format!(
                    "snapshot corrupt: index column {c} out of range for {name}"
                )));
            }
            columns.push(c);
        }
        let unique = r.get_u8()? != 0;
        r.get_u8()?; // the retired index-kind byte
        index_defs.push(IndexDef {
            name: idx_name,
            columns,
            unique,
        });
    }

    let clustered = if r.get_u8()? != 0 {
        let n = r.get_u32()? as usize;
        let mut cols = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let c = r.get_u32()? as usize;
            if c >= arity {
                return Err(EngineError::Storage(format!(
                    "snapshot corrupt: clustering column {c} out of range for {name}"
                )));
            }
            cols.push(c);
        }
        Some(cols)
    } else {
        None
    };

    let mut table = Table::new(name, schema);
    let nrows = r.get_u64()?;
    for _ in 0..nrows {
        let mut row: Row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(get_value(r)?);
        }
        table.insert(row)?;
    }

    // Rebuild secondary indexes (the PK index is created by Table::new).
    for def in index_defs {
        if table.index_named(&def.name).is_some() {
            continue;
        }
        let col_names: Vec<String> = def
            .columns
            .iter()
            .map(|&c| table.schema.column(c).name.clone())
            .collect();
        let refs: Vec<&str> = col_names.iter().map(|s| s.as_str()).collect();
        table.create_index(def.name, &refs, def.unique)?;
    }

    // Restore physical clustering. The saved heap is already in clustered
    // order and the re-sort is stable, so row order is preserved exactly.
    if let Some(cols) = clustered {
        let col_names: Vec<String> = cols
            .iter()
            .map(|&c| table.schema.column(c).name.clone())
            .collect();
        let refs: Vec<&str> = col_names.iter().map(|s| s.as_str()).collect();
        table.cluster_by(&refs)?;
    }
    Ok(table)
}

/// Serialize a database into the snapshot payload (no header/checksum).
fn serialize_payload(db: &Database) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(join_strategy_tag(db.settings.join_strategy));
    let names = db.table_names();
    w.put_u32(names.len() as u32);
    for name in &names {
        put_table(&mut w, db.table(name).expect("catalog listed the table"));
    }
    w.into_bytes()
}

fn deserialize_payload(payload: &[u8]) -> Result<Database> {
    let mut r = ByteReader::new(payload);
    let mut db = Database::new();
    db.settings.join_strategy = join_strategy_from_tag(r.get_u8()?)?;
    let ntables = r.get_u32()? as usize;
    for _ in 0..ntables {
        db.add_table(get_table(&mut r)?)?;
    }
    if !r.is_exhausted() {
        return Err(EngineError::Storage(format!(
            "snapshot corrupt: {} trailing bytes after catalog",
            r.remaining()
        )));
    }
    Ok(db)
}

/// Serialize a database into a complete snapshot (header + payload + CRC).
pub fn serialize_database(db: &Database) -> Vec<u8> {
    let payload = serialize_payload(db);
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crc32(&payload);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parse a complete snapshot produced by [`serialize_database`].
pub fn deserialize_database(bytes: &[u8]) -> Result<Database> {
    let payload = verify_envelope(bytes)?;
    deserialize_payload(payload)
}

/// Validate the snapshot envelope (magic, version, length, checksum) and
/// return the payload slice. Exposed so higher layers embedding their own
/// sections in the same envelope can reuse the integrity checks.
pub fn verify_envelope(bytes: &[u8]) -> Result<&[u8]> {
    if bytes.len() < 16 {
        return Err(EngineError::Storage(
            "snapshot truncated: shorter than header".into(),
        ));
    }
    if &bytes[0..4] != MAGIC {
        return Err(EngineError::Storage(
            "not an OrpheusDB snapshot (bad magic)".into(),
        ));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version > FORMAT_VERSION {
        return Err(EngineError::Storage(format!(
            "snapshot format version {version} is newer than supported {FORMAT_VERSION}"
        )));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let expected_total = 16usize.saturating_add(len).saturating_add(4);
    if bytes.len() != expected_total {
        return Err(EngineError::Storage(format!(
            "snapshot truncated: header declares {len} payload bytes, file holds {}",
            bytes.len().saturating_sub(20)
        )));
    }
    let payload = &bytes[16..16 + len];
    let stored_crc = u32::from_le_bytes(bytes[16 + len..].try_into().unwrap());
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(EngineError::Storage(format!(
            "snapshot checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    Ok(payload)
}

/// Wrap an already-serialized payload in the snapshot envelope.
pub fn wrap_envelope(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Save a database snapshot to `path` atomically (write temp + rename).
pub fn save_database(db: &Database, path: &Path) -> Result<()> {
    write_atomically(path, &serialize_database(db))
}

/// Load a database snapshot from `path`.
pub fn load_database(path: &Path) -> Result<Database> {
    let bytes = std::fs::read(path)
        .map_err(|e| EngineError::Storage(format!("cannot read {}: {e}", path.display())))?;
    deserialize_database(&bytes)
}

/// Write `bytes` to `path` via a sibling temp file and atomic rename,
/// then fsync the parent directory so the rename itself is durable.
///
/// The directory fsync is the step naive write-tmp-and-rename schemes
/// skip: without it a crash shortly after the rename can leave the
/// directory entry pointing at the *old* file — or at nothing — even
/// though the data blocks of the new file hit disk. Snapshot checkpoints
/// (and the WAL's `CURRENT` pointer) rely on rename being a durable
/// commit point, so the entry must be forced out too.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = match dir {
        Some(d) => d.join(format!(
            ".{}.tmp.{}",
            path.file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("snapshot"),
            std::process::id()
        )),
        None => Path::new(&format!(".orpheus.tmp.{}", std::process::id())).to_path_buf(),
    };
    let io_err = |e: std::io::Error| EngineError::Storage(format!("cannot write snapshot: {e}"));
    {
        let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(bytes).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(io_err(e));
    }
    fsync_dir(dir.unwrap_or_else(|| Path::new(".")))
}

/// Force a directory's entries to stable storage (fsync on the directory
/// handle). Needed after creating, renaming, or removing files whose
/// *existence* is load-bearing for crash recovery. Platforms whose
/// filesystems cannot sync directory handles report the open/sync error.
pub fn fsync_dir(dir: &Path) -> Result<()> {
    let d = std::fs::File::open(dir).map_err(|e| {
        EngineError::Storage(format!("cannot open directory {}: {e}", dir.display()))
    })?;
    d.sync_all()
        .map_err(|e| EngineError::Storage(format!("cannot fsync directory {}: {e}", dir.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE protein (p1 TEXT, p2 TEXT, score INT, weight DOUBLE, \
             flag BOOL, vlist INT[], PRIMARY KEY (p1, p2))",
        )
        .unwrap();
        db.execute(
            "INSERT INTO protein VALUES \
             ('a', 'b', 1, 1.5, true, ARRAY[1,2,3]), \
             ('a', 'c', 2, NULL, false, ARRAY[]), \
             ('δ', 'é', -7, 0.0, true, ARRAY[9])",
        )
        .unwrap();
        db.execute("CREATE TABLE empty_t (x INT)").unwrap();
        db
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn byte_writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(u32::MAX);
        w.put_u64(u64::MAX - 1);
        w.put_i64(i64::MIN);
        w.put_f64(f64::NAN);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), u32::MAX);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), i64::MIN);
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert!(r.is_exhausted());
        assert!(r.get_u8().is_err());
    }

    #[test]
    fn value_roundtrip_all_types() {
        let values = vec![
            Value::Null,
            Value::Int(i64::MIN),
            Value::Double(f64::INFINITY),
            Value::Double(-0.0),
            Value::Text(String::new()),
            Value::Text("πρωτεΐνη".into()),
            Value::Bool(true),
            Value::IntArray(vec![]),
            Value::IntArray(vec![i64::MIN, 0, i64::MAX]),
        ];
        let mut w = ByteWriter::new();
        for v in &values {
            put_value(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in &values {
            let back = get_value(&mut r).unwrap();
            assert_eq!(back.to_string(), v.to_string());
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn database_roundtrip_preserves_catalog_rows_and_settings() {
        let mut db = sample_db();
        db.settings.join_strategy = JoinStrategy::Merge;
        let bytes = serialize_database(&db);
        let back = deserialize_database(&bytes).unwrap();

        assert_eq!(back.settings.join_strategy, JoinStrategy::Merge);
        assert_eq!(back.table_names(), db.table_names());
        let orig = db.table("protein").unwrap();
        let loaded = back.table("protein").unwrap();
        assert_eq!(loaded.schema, orig.schema);
        assert!(loaded.rows().eq(orig.rows()));
        assert_eq!(loaded.heap_bytes(), orig.heap_bytes());
        assert_eq!(loaded.indexes().len(), orig.indexes().len());
        assert_eq!(back.table("empty_t").unwrap().len(), 0);
    }

    #[test]
    fn roundtrip_rebuilds_usable_pk_index() {
        let db = sample_db();
        let mut back = deserialize_database(&serialize_database(&db)).unwrap();
        // The unique index must reject duplicates after reload.
        let err = back
            .execute("INSERT INTO protein VALUES ('a','b',9,9.0,false,ARRAY[])")
            .unwrap_err();
        assert!(matches!(err, EngineError::UniqueViolation(_)));
        // And serve lookups.
        let res = back
            .query("SELECT score FROM protein WHERE p1 = 'a' AND p2 = 'c'")
            .unwrap();
        assert_eq!(res.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn roundtrip_preserves_secondary_indexes_and_clustering() {
        let mut db = Database::new();
        db.execute("CREATE TABLE d (rid INT, v TEXT, PRIMARY KEY (rid))")
            .unwrap();
        for i in [5i64, 3, 1, 4, 2] {
            db.execute(&format!("INSERT INTO d VALUES ({i}, 'x{i}')"))
                .unwrap();
        }
        db.table_mut("d")
            .unwrap()
            .create_index("d_v", &["v"], false)
            .unwrap();
        db.table_mut("d").unwrap().cluster_by(&["rid"]).unwrap();

        let back = deserialize_database(&serialize_database(&db)).unwrap();
        let t = back.table("d").unwrap();
        assert!(t.is_clustered_on(&[0]));
        let keys: Vec<i64> = t.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        let idx = t.index_named("d_v").unwrap();
        assert_eq!(idx.lookup(&["x3".into()]).len(), 1);

        // A snapshot written while there were two index kinds carries a 1
        // for `USING BTREE` in the byte after `unique`: it loads the same.
        let mut payload = serialize_payload(&db);
        let def = [b"d_v".as_slice(), &[1, 0, 0, 0, 1, 0, 0, 0, 0]].concat();
        let kind_at = payload
            .windows(def.len())
            .position(|w| w == def)
            .expect("d_v: one column, column 1, not unique")
            + def.len();
        assert_eq!(payload[kind_at], 0);
        payload[kind_at] = 1;
        let old = deserialize_database(&wrap_envelope(&payload)).unwrap();
        let idx = old.table("d").unwrap().index_named("d_v").unwrap();
        assert_eq!(idx.lookup(&["x3".into()]).len(), 1);
    }

    #[test]
    fn empty_database_roundtrip() {
        let db = Database::new();
        let back = deserialize_database(&serialize_database(&db)).unwrap();
        assert!(back.table_names().is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = serialize_database(&sample_db());
        bytes[0] = b'X';
        let err = deserialize_database(&bytes).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn rejects_future_format_version() {
        let mut bytes = serialize_database(&sample_db());
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = deserialize_database(&bytes).unwrap_err();
        assert!(err.to_string().contains("newer than supported"), "{err}");
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        let bytes = serialize_database(&sample_db());
        // Every strict prefix must fail, never panic or half-load.
        for cut in [0, 3, 8, 15, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                deserialize_database(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly loaded"
            );
        }
    }

    #[test]
    fn rejects_single_bit_flips_in_payload() {
        let bytes = serialize_database(&sample_db());
        // Flip one bit in several payload positions; CRC must catch each.
        for pos in [16, 20, 40, bytes.len() - 6] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x01;
            let err = deserialize_database(&corrupted).unwrap_err();
            assert!(
                matches!(err, EngineError::Storage(_)),
                "flip at {pos}: {err}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = serialize_database(&sample_db());
        bytes.extend_from_slice(b"junk");
        assert!(deserialize_database(&bytes).is_err());
    }

    #[test]
    fn save_and_load_via_file_atomically() {
        let dir = std::env::temp_dir().join(format!("orpheus-storage-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.orpheus");

        let db = sample_db();
        save_database(&db, &path).unwrap();
        let back = load_database(&path).unwrap();
        assert_eq!(back.table_names(), db.table_names());

        // Overwriting an existing snapshot leaves no temp files behind.
        save_database(&back, &path).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_file_is_a_storage_error() {
        let err = load_database(Path::new("/nonexistent/orpheus.snapshot")).unwrap_err();
        assert!(matches!(err, EngineError::Storage(_)));
    }

    #[test]
    fn envelope_helpers_roundtrip_custom_payloads() {
        let payload = b"middleware section".to_vec();
        let enveloped = wrap_envelope(&payload);
        assert_eq!(verify_envelope(&enveloped).unwrap(), payload.as_slice());
        let mut bad = enveloped.clone();
        let n = bad.len();
        bad[n - 7] ^= 0xFF;
        assert!(verify_envelope(&bad).is_err());
    }
}

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
//!
//! This module also holds the system's one byte vocabulary: the
//! bounds-checked [`Reader`], the `put_*` writers over a `Vec<u8>` and the
//! [`Value`] / [`DataType`] / [`Schema`] encoding. Everything that writes
//! bytes speaks it — this snapshot, the middleware's instance snapshot, its
//! wire codec and its write-ahead log — so one layout and one set of
//! hostile-input checks serve them all. Integers are little-endian,
//! strings and sequences carry a `u32` length or count, enums a `u8` tag.
//! The one documented exception is the instance snapshot's CVD schema,
//! which stores each column's type by SQL name (`orpheus_core::persist`).

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
// CRC-32 (IEEE 802.3), slicing-by-8.
// ---------------------------------------------------------------------------

/// The slicing-by-8 tables. `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[k][b]` is the CRC state of byte `b` followed by `k`
/// zero bytes, so eight table lookups fold eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = tables[k - 1][i];
            tables[k][i] = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) checksum of a byte slice: eight bytes per step, then the
/// tail a byte at a time. The values are those of the byte-wise loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// The byte vocabulary: one reader, one set of writers, one `Value` /
// `DataType` / `Schema` encoding, shared by every format in the system.
// ---------------------------------------------------------------------------

/// A malformed encoding, as [`Reader`] reports it. What it means is up to
/// the layer reading: a corrupt snapshot here ([`EngineError::Storage`]), a
/// protocol violation in the middleware's codec and log. A boxed `str`
/// keeps a `Decoded<u64>` at two words, returned in registers: with a
/// `String` here, decoding rows of ints ran about 15 % slower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub Box<str>);

/// The result of a decode step.
pub type Decoded<T> = std::result::Result<T, DecodeError>;

impl From<DecodeError> for EngineError {
    fn from(e: DecodeError) -> EngineError {
        EngineError::Storage(format!("snapshot corrupt: {}", e.0))
    }
}

/// The error for an enum byte that names no variant.
pub fn bad_tag(what: &str, tag: u8) -> DecodeError {
    DecodeError(format!("unknown {what} tag {tag}").into())
}

fn truncated(what: &str) -> DecodeError {
    DecodeError(format!("truncated payload while decoding {what}").into())
}

/// Bounds-checked little-endian reader over an encoded buffer. Decoding
/// never panics and never allocates more than the input could hold: every
/// read checks the bytes left, every `u32` count is checked against them
/// before anything is sized by it, a bool is 0 or 1, strings are UTF-8, and
/// [`Reader::finish`] refuses trailing bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decoding must consume the buffer exactly; trailing bytes mean the
    /// writer and we disagree about the layout.
    pub fn finish(self, what: &str) -> Decoded<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError(
                format!("{n} trailing byte(s) after decoding {what}").into(),
            )),
        }
    }

    #[inline]
    fn take(&mut self, n: usize, what: &str) -> Decoded<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| truncated(what))?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| truncated(what))?;
        self.pos = end;
        Ok(slice)
    }

    /// `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Decoded<&'a [u8]> {
        self.take(n, "raw bytes")
    }

    #[inline]
    pub fn u8(&mut self) -> Decoded<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| truncated("u8"))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    pub fn u16(&mut self) -> Decoded<u16> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    #[inline]
    pub fn u32(&mut self) -> Decoded<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    #[inline]
    pub fn u64(&mut self) -> Decoded<u64> {
        Ok(le_u64(self.take(8, "u64")?))
    }

    #[inline]
    pub fn i64(&mut self) -> Decoded<i64> {
        Ok(self.u64()? as i64)
    }

    /// An `f64` from its IEEE-754 bit pattern (`NaN` payloads and `-0.0`
    /// survive).
    #[inline]
    pub fn f64(&mut self) -> Decoded<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    #[inline]
    pub fn bool(&mut self) -> Decoded<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad_tag("bool", b)),
        }
    }

    /// A `u32` element count, bounded by the bytes actually left: every
    /// element costs at least one byte, so a count beyond them is hostile
    /// (or corrupt) and is refused before any allocation sized by it.
    #[inline]
    pub fn count(&mut self, what: &str) -> Decoded<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(DecodeError(
                format!(
                    "{what} count {n} exceeds the {} byte(s) left in the payload",
                    self.remaining()
                )
                .into(),
            ));
        }
        Ok(n)
    }

    /// `n` little-endian `u64`s, bounds-checked as one run before any is
    /// decoded.
    #[inline]
    pub fn u64s(&mut self, n: usize) -> Decoded<impl ExactSizeIterator<Item = u64> + 'a> {
        Ok(self
            .take(n.saturating_mul(8), "u64 list")?
            .chunks_exact(8)
            .map(le_u64))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Decoded<String> {
        let n = self.count("string byte")?;
        let bytes = self.take(n, "string")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError("string payload is not UTF-8".into()))
    }
}

#[inline]
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// An `f64` as its IEEE-754 bit pattern.
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// A `u32` byte length, then the UTF-8 bytes.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// One value: a tag byte, then its payload.
#[inline]
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_i64(out, *i);
        }
        Value::Double(d) => {
            out.push(2);
            put_f64(out, *d);
        }
        Value::Text(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(4);
            put_bool(out, *b);
        }
        Value::IntArray(a) => {
            out.push(5);
            put_u32(out, a.len() as u32);
            for i in a {
                put_i64(out, *i);
            }
        }
    }
}

#[inline]
pub fn read_value(r: &mut Reader<'_>) -> Decoded<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.i64()?),
        2 => Value::Double(r.f64()?),
        3 => Value::Text(r.str()?),
        4 => Value::Bool(r.bool()?),
        5 => {
            let n = r.count("int array")?;
            Value::IntArray(r.u64s(n)?.map(|x| x as i64).collect())
        }
        t => return Err(bad_tag("value", t)),
    })
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

fn read_dtype(r: &mut Reader<'_>) -> Decoded<DataType> {
    Ok(match r.u8()? {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::IntArray,
        t => return Err(bad_tag("data type", t)),
    })
}

/// Columns (name, type tag, nullable), then the primary-key positions.
pub fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.columns.len() as u32);
    for c in &schema.columns {
        put_str(out, &c.name);
        out.push(dtype_tag(c.dtype));
        put_bool(out, c.nullable);
    }
    put_positions(out, &schema.primary_key);
}

pub fn read_schema(r: &mut Reader<'_>) -> Decoded<Schema> {
    let n = r.count("column")?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let dtype = read_dtype(r)?;
        let column = Column::new(name, dtype);
        columns.push(if r.bool()? { column } else { column.not_null() });
    }
    let mut schema = Schema::new(columns);
    schema.primary_key = read_positions(r, schema.arity(), "primary key column")?;
    Ok(schema)
}

/// A `u32` count of `u32` column positions, each below `arity`.
fn read_positions(r: &mut Reader<'_>, arity: usize, what: &str) -> Decoded<Vec<usize>> {
    let n = r.count(what)?;
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        let i = r.u32()? as usize;
        if i >= arity {
            return Err(DecodeError(
                format!("{what} {i} out of range for {arity} column(s)").into(),
            ));
        }
        positions.push(i);
    }
    Ok(positions)
}

fn put_positions(out: &mut Vec<u8>, positions: &[usize]) {
    put_u32(out, positions.len() as u32);
    for &i in positions {
        put_u32(out, i as u32);
    }
}

fn join_strategy_tag(j: JoinStrategy) -> u8 {
    match j {
        JoinStrategy::Auto => 0,
        JoinStrategy::Hash => 1,
        JoinStrategy::Merge => 2,
        JoinStrategy::IndexNestedLoop => 3,
    }
}

fn read_join_strategy(r: &mut Reader<'_>) -> Decoded<JoinStrategy> {
    Ok(match r.u8()? {
        0 => JoinStrategy::Auto,
        1 => JoinStrategy::Hash,
        2 => JoinStrategy::Merge,
        3 => JoinStrategy::IndexNestedLoop,
        t => return Err(bad_tag("join strategy", t)),
    })
}

// ---------------------------------------------------------------------------
// Table / database encoding.
// ---------------------------------------------------------------------------

fn put_table(out: &mut Vec<u8>, table: &Table) {
    put_str(out, &table.name);
    put_schema(out, &table.schema);
    // Index definitions (data is rebuilt on load).
    put_u32(out, table.indexes().len() as u32);
    for idx in table.indexes() {
        put_str(out, &idx.name);
        put_positions(out, &idx.columns);
        put_bool(out, idx.unique);
        // Format 1 keeps a byte here: it named the index kind when there
        // were two.
        out.push(0);
    }
    // Physical clustering, if any.
    match table.clustered_on() {
        Some(cols) => {
            out.push(1);
            put_positions(out, cols);
        }
        None => out.push(0),
    }
    put_u64(out, table.len() as u64);
    for row in table.rows() {
        for v in row {
            put_value(out, v);
        }
    }
}

fn read_table(r: &mut Reader<'_>) -> Result<Table> {
    let name = r.str()?;
    let schema = read_schema(r)?;
    let arity = schema.arity();

    let nidx = r.count("index")?;
    let mut index_defs = Vec::with_capacity(nidx);
    for _ in 0..nidx {
        let idx_name = r.str()?;
        let columns = read_positions(r, arity, "index column")?;
        let unique = r.bool()?;
        r.u8()?; // the retired index-kind byte
        index_defs.push((idx_name, columns, unique));
    }
    let clustered = if r.bool()? {
        Some(read_positions(r, arity, "clustering column")?)
    } else {
        None
    };

    // Every value costs at least its tag byte, so a row costs at least
    // `arity` bytes; a table without columns holds no rows.
    let nrows = r.u64()?;
    if nrows > 0 && arity == 0 {
        return Err(EngineError::Storage(format!(
            "snapshot corrupt: table {name} declares {nrows} row(s) but no columns"
        )));
    }
    if nrows > (r.remaining() / arity.max(1)) as u64 {
        return Err(EngineError::Storage(format!(
            "snapshot corrupt: table {name} declares {nrows} row(s) in {} byte(s)",
            r.remaining()
        )));
    }
    let mut table = Table::new(name, schema);
    for _ in 0..nrows {
        let mut row: Row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(read_value(r)?);
        }
        table.insert(row)?;
    }

    let names = |table: &Table, cols: &[usize]| -> Vec<String> {
        cols.iter()
            .map(|&c| table.schema.column(c).name.clone())
            .collect()
    };
    // Rebuild secondary indexes (the PK index is created by Table::new).
    for (idx_name, columns, unique) in index_defs {
        if table.index_named(&idx_name).is_none() {
            let cols = names(&table, &columns);
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            table.create_index(idx_name, &refs, unique)?;
        }
    }
    // Restore physical clustering. The saved heap is already in clustered
    // order and the re-sort is stable, so row order is preserved exactly.
    if let Some(columns) = clustered {
        let cols = names(&table, &columns);
        let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        table.cluster_by(&refs)?;
    }
    Ok(table)
}

/// Serialize a database into the snapshot payload (no header/checksum).
fn serialize_payload(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(join_strategy_tag(db.settings.join_strategy));
    let names = db.table_names();
    put_u32(&mut out, names.len() as u32);
    for name in &names {
        put_table(&mut out, db.table(name).expect("catalog listed the table"));
    }
    out
}

fn deserialize_payload(payload: &[u8]) -> Result<Database> {
    let mut r = Reader::new(payload);
    let mut db = Database::new();
    db.settings.join_strategy = read_join_strategy(&mut r)?;
    for _ in 0..r.count("table")? {
        db.add_table(read_table(&mut r)?)?;
    }
    r.finish("the catalog")?;
    Ok(db)
}

/// Serialize a database into a complete snapshot (header + payload + CRC).
pub fn serialize_database(db: &Database) -> Vec<u8> {
    wrap_envelope(&serialize_payload(db))
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

    /// The byte-at-a-time loop `crc32` replaced: the reference it must
    /// agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slicing-by-8 equals the byte-wise loop on random bytes at random
    /// lengths (every remainder mod 8) and misalignments (every start
    /// offset mod 8).
    #[test]
    fn crc32_slicing_matches_the_bytewise_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let buf: Vec<u8> = (0..4096).map(|_| next() as u8).collect();
        for _ in 0..2_000 {
            let start = (next() % 64) as usize;
            let len = (next() % 1_024) as usize;
            let slice = &buf[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "start {start} len {len}"
            );
        }
    }

    #[test]
    fn byte_writer_reader_roundtrip() {
        let mut out = vec![7];
        put_u16(&mut out, u16::MAX);
        put_u32(&mut out, u32::MAX);
        put_u64(&mut out, u64::MAX - 1);
        put_i64(&mut out, i64::MIN);
        put_f64(&mut out, f64::NAN);
        put_bool(&mut out, true);
        put_str(&mut out, "héllo");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), u16::MAX);
        assert_eq!(r.u32().unwrap(), u32::MAX);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.u8().is_err());
        r.finish("the buffer").unwrap();

        // The strict checks: a bool is 0 or 1, a count fits the bytes left,
        // strings are UTF-8, and nothing may trail.
        assert!(Reader::new(&[2]).bool().is_err());
        let hostile = [&u32::MAX.to_le_bytes()[..], &[0; 8]].concat();
        let err = Reader::new(&hostile).count("row").unwrap_err();
        assert!(err.0.contains("exceeds"), "{err:?}");
        assert!(Reader::new(&[2, 0, 0, 0, 0xff, 0xfe]).str().is_err());
        let err = Reader::new(&[0]).finish("nothing").unwrap_err();
        assert!(err.0.contains("trailing"), "{err:?}");
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
        let mut out = Vec::new();
        for v in &values {
            put_value(&mut out, v);
        }
        let mut r = Reader::new(&out);
        for v in &values {
            let back = read_value(&mut r).unwrap();
            assert_eq!(back.to_string(), v.to_string());
        }
        r.finish("the values").unwrap();
        // An int array longer than the bytes left is refused before it is
        // allocated.
        let hostile = [&[5][..], &1000u32.to_le_bytes(), &[0; 1000]].concat();
        assert!(read_value(&mut Reader::new(&hostile)).is_err());
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

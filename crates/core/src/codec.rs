//! Hand-rolled binary encoding for everything that rides the wire — and,
//! since PR 7, the write-ahead log: the full [`Request`] and [`Response`]
//! corpus, [`CoreError`] (including its wrapped [`EngineError`]), and the
//! engine vocabulary they carry ([`Value`], [`Schema`], [`QueryResult`]).
//!
//! The workspace builds offline — no serde, no derive macros — so the
//! codec is explicit: one `encode_*`/`decode_*` pair per type, all
//! little-endian, strings as `u32` length + UTF-8 bytes, sequences as
//! `u32` count + elements, enums as a `u8` tag + payload. Decoding never
//! panics on hostile input: every read is bounds-checked and every
//! failure surfaces as [`CoreError::Protocol`], which the connection
//! layers turn into a clean error frame or connection close.
//!
//! This module lives in `orpheus-core` (it moved down from `orpheus-net`)
//! because two consumers now share it: the TCP wire protocol
//! (`crates/net`, which re-exports it unchanged) and the durability log
//! ([`crate::wal`]), whose records embed encoded requests. One encoding,
//! one hostile-input discipline, one test corpus.
//!
//! Compatibility discipline: tags are append-only. A new request,
//! response, error, or value variant takes the next free tag; existing
//! tags never change meaning. Payload layout changes require bumping
//! `orpheus-net`'s `PROTOCOL_VERSION` (and [`crate::wal`]'s segment
//! version) instead, which handshake and recovery reject up front.

use crate::request::{
    Checkout, CheckoutCsv, Commit, CommitCsv, CreateUser, Diff, Discard, DropCvd, Init,
    InitFromCsv, Log, Login, Optimize, Run,
};
use crate::response::LogEntry;
use crate::{CommandKind, CoreError, ModelKind, Request, Response, Result, VersionDiff, Vid};
use orpheus_engine::{Column, DataType, EngineError, QueryResult, Schema, Value};

use crate::partition_store::OptimizeReport;

/// Bounds-checked reader over a received payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated(what: &str) -> CoreError {
    CoreError::Protocol(format!("truncated payload while decoding {what}"))
}

fn bad_tag(what: &str, tag: u8) -> CoreError {
    CoreError::Protocol(format!("unknown {what} tag {tag}"))
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Decoding must consume the payload exactly; trailing bytes mean the
    /// peer and we disagree about the layout.
    pub fn finish(self, what: &str) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CoreError::Protocol(format!(
                "{} trailing byte(s) after decoding {what}",
                self.buf.len() - self.pos
            )))
        }
    }

    pub fn u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| truncated("u8"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| truncated(what))?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| truncated(what))?;
        self.pos = end;
        Ok(slice)
    }

    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad_tag("bool", b)),
        }
    }

    /// A `u32` element count, sanity-bounded by the bytes actually left:
    /// every element costs at least one byte, so a count beyond the
    /// remaining payload is hostile (or corrupt) and is rejected before
    /// any allocation sized by it.
    pub fn count(&mut self, what: &str) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(CoreError::Protocol(format!(
                "{what} count {n} exceeds the {} byte(s) left in the payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    pub fn str(&mut self) -> Result<String> {
        let n = self.count("string byte")?;
        let bytes = self.take(n, "string")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CoreError::Protocol("string payload is not UTF-8".to_string()))
    }
}

pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn read_opt_str(r: &mut Reader<'_>) -> Result<Option<String>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.str()?)),
        b => Err(bad_tag("option", b)),
    }
}

// -- engine vocabulary --------------------------------------------------------

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
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
                put_u64(out, *i as u64);
            }
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.i64()?),
        2 => Value::Double(r.f64()?),
        3 => Value::Text(r.str()?),
        4 => Value::Bool(r.bool()?),
        5 => {
            let n = r.count("int array")?;
            let mut a = Vec::with_capacity(n);
            for _ in 0..n {
                a.push(r.i64()?);
            }
            Value::IntArray(a)
        }
        t => return Err(bad_tag("value", t)),
    })
}

fn put_row(out: &mut Vec<u8>, row: &[Value]) {
    put_u32(out, row.len() as u32);
    for v in row {
        put_value(out, v);
    }
}

fn read_row(r: &mut Reader<'_>) -> Result<Vec<Value>> {
    let n = r.count("row value")?;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(read_value(r)?);
    }
    Ok(row)
}

pub(crate) fn put_rows(out: &mut Vec<u8>, rows: &[Vec<Value>]) {
    put_u32(out, rows.len() as u32);
    for row in rows {
        put_row(out, row);
    }
}

pub(crate) fn read_rows(r: &mut Reader<'_>) -> Result<Vec<Vec<Value>>> {
    let n = r.count("row")?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(read_row(r)?);
    }
    Ok(rows)
}

fn datatype_tag(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::IntArray => 4,
    }
}

fn read_datatype(r: &mut Reader<'_>) -> Result<DataType> {
    Ok(match r.u8()? {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::IntArray,
        t => return Err(bad_tag("data type", t)),
    })
}

pub(crate) fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.columns.len() as u32);
    for c in &schema.columns {
        put_str(out, &c.name);
        out.push(datatype_tag(c.dtype));
        put_bool(out, c.nullable);
    }
    put_u32(out, schema.primary_key.len() as u32);
    for i in &schema.primary_key {
        put_u32(out, *i as u32);
    }
}

pub(crate) fn read_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let n = r.count("column")?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let dtype = read_datatype(r)?;
        let nullable = r.bool()?;
        let column = Column::new(name, dtype);
        columns.push(if nullable { column } else { column.not_null() });
    }
    let mut schema = Schema::new(columns);
    let pk = r.count("primary key column")?;
    let mut primary_key = Vec::with_capacity(pk);
    for _ in 0..pk {
        let idx = r.u32()? as usize;
        if idx >= schema.columns.len() {
            return Err(CoreError::Protocol(format!(
                "primary key index {idx} out of range for {} column(s)",
                schema.columns.len()
            )));
        }
        primary_key.push(idx);
    }
    schema.primary_key = primary_key;
    Ok(schema)
}

pub(crate) fn put_vids(out: &mut Vec<u8>, vids: &[Vid]) {
    put_u32(out, vids.len() as u32);
    for v in vids {
        put_u64(out, v.0);
    }
}

pub(crate) fn read_vids(r: &mut Reader<'_>) -> Result<Vec<Vid>> {
    let n = r.count("version id")?;
    let mut vids = Vec::with_capacity(n);
    for _ in 0..n {
        vids.push(Vid(r.u64()?));
    }
    Ok(vids)
}

fn model_tag(m: ModelKind) -> u8 {
    match m {
        ModelKind::TablePerVersion => 0,
        ModelKind::CombinedTable => 1,
        ModelKind::SplitByVlist => 2,
        ModelKind::SplitByRlist => 3,
        ModelKind::DeltaBased => 4,
    }
}

pub(crate) fn put_opt_model(out: &mut Vec<u8>, m: &Option<ModelKind>) {
    match m {
        None => out.push(0xff),
        Some(m) => out.push(model_tag(*m)),
    }
}

pub(crate) fn read_opt_model(r: &mut Reader<'_>) -> Result<Option<ModelKind>> {
    let tag = r.u8()?;
    if tag == 0xff {
        return Ok(None);
    }
    Ok(Some(match tag {
        0 => ModelKind::TablePerVersion,
        1 => ModelKind::CombinedTable,
        2 => ModelKind::SplitByVlist,
        3 => ModelKind::SplitByRlist,
        4 => ModelKind::DeltaBased,
        t => return Err(bad_tag("model", t)),
    }))
}

// -- requests -----------------------------------------------------------------

/// Append the encoding of `request` to `out`.
pub fn put_request(out: &mut Vec<u8>, request: &Request) {
    match request {
        Request::Init(r) => {
            out.push(0);
            put_str(out, &r.cvd);
            put_schema(out, &r.schema);
            put_rows(out, &r.rows);
            put_opt_model(out, &r.model);
        }
        Request::InitFromCsv(r) => {
            out.push(1);
            put_str(out, &r.cvd);
            put_str(out, &r.csv);
            put_str(out, &r.schema_text);
            put_opt_model(out, &r.model);
        }
        Request::Checkout(r) => {
            out.push(2);
            put_str(out, &r.cvd);
            put_vids(out, &r.versions);
            put_str(out, &r.table);
        }
        Request::CheckoutCsv(r) => {
            out.push(3);
            put_str(out, &r.cvd);
            put_vids(out, &r.versions);
            put_str(out, &r.path);
        }
        Request::Commit(r) => {
            out.push(4);
            put_str(out, &r.table);
            put_str(out, &r.message);
        }
        Request::CommitCsv(r) => {
            out.push(5);
            put_str(out, &r.path);
            put_str(out, &r.csv);
            put_str(out, &r.message);
            put_opt_str(out, &r.schema_text);
        }
        Request::Diff(r) => {
            out.push(6);
            put_str(out, &r.cvd);
            put_u64(out, r.from.0);
            put_u64(out, r.to.0);
        }
        Request::Run(r) => {
            out.push(7);
            put_str(out, r.text());
        }
        Request::Ls => out.push(8),
        Request::Log(r) => {
            out.push(9);
            put_str(out, &r.cvd);
        }
        Request::Drop(r) => {
            out.push(10);
            put_str(out, &r.cvd);
        }
        Request::Optimize(r) => {
            out.push(11);
            put_str(out, &r.cvd);
            match r.gamma {
                None => put_bool(out, false),
                Some(g) => {
                    put_bool(out, true);
                    put_f64(out, g);
                }
            }
            match r.mu {
                None => put_bool(out, false),
                Some(m) => {
                    put_bool(out, true);
                    put_f64(out, m);
                }
            }
            put_u32(out, r.weights.len() as u32);
            for (vid, freq) in &r.weights {
                put_u64(out, vid.0);
                put_u64(out, *freq);
            }
        }
        Request::CreateUser(r) => {
            out.push(12);
            put_str(out, &r.user);
        }
        Request::Login(r) => {
            out.push(13);
            put_str(out, &r.user);
        }
        Request::Whoami => out.push(14),
        Request::Discard(r) => {
            out.push(15);
            put_str(out, &r.table);
        }
    }
}

/// Decode one request from `r`.
pub fn read_request(r: &mut Reader<'_>) -> Result<Request> {
    Ok(match r.u8()? {
        0 => Request::Init(Init {
            cvd: r.str()?,
            schema: read_schema(r)?,
            rows: read_rows(r)?,
            model: read_opt_model(r)?,
        }),
        1 => Request::InitFromCsv(InitFromCsv {
            cvd: r.str()?,
            csv: r.str()?,
            schema_text: r.str()?,
            model: read_opt_model(r)?,
        }),
        2 => Request::Checkout(Checkout {
            cvd: r.str()?,
            versions: read_vids(r)?,
            table: r.str()?,
        }),
        3 => Request::CheckoutCsv(CheckoutCsv {
            cvd: r.str()?,
            versions: read_vids(r)?,
            path: r.str()?,
        }),
        4 => Request::Commit(Commit {
            table: r.str()?,
            message: r.str()?,
        }),
        5 => Request::CommitCsv(CommitCsv {
            path: r.str()?,
            csv: r.str()?,
            message: r.str()?,
            schema_text: read_opt_str(r)?,
        }),
        6 => Request::Diff(Diff {
            cvd: r.str()?,
            from: Vid(r.u64()?),
            to: Vid(r.u64()?),
        }),
        7 => Request::Run(Run::sql(r.str()?)),
        8 => Request::Ls,
        9 => Request::Log(Log { cvd: r.str()? }),
        10 => Request::Drop(DropCvd { cvd: r.str()? }),
        11 => {
            let cvd = r.str()?;
            let gamma = if r.bool()? { Some(r.f64()?) } else { None };
            let mu = if r.bool()? { Some(r.f64()?) } else { None };
            let n = r.count("optimize weight")?;
            let mut weights = Vec::with_capacity(n);
            for _ in 0..n {
                weights.push((Vid(r.u64()?), r.u64()?));
            }
            Request::Optimize(Optimize {
                cvd,
                gamma,
                mu,
                weights,
            })
        }
        12 => Request::CreateUser(CreateUser { user: r.str()? }),
        13 => Request::Login(Login { user: r.str()? }),
        14 => Request::Whoami,
        15 => Request::Discard(Discard { table: r.str()? }),
        t => return Err(bad_tag("request", t)),
    })
}

// -- responses ----------------------------------------------------------------

fn put_query_result(out: &mut Vec<u8>, q: &QueryResult) {
    put_schema(out, &q.schema);
    put_rows(out, &q.rows);
    put_u64(out, q.affected as u64);
}

fn read_query_result(r: &mut Reader<'_>) -> Result<QueryResult> {
    Ok(QueryResult {
        schema: read_schema(r)?,
        rows: read_rows(r)?,
        affected: r.u64()? as usize,
    })
}

/// Append the encoding of `response` to `out`.
pub fn put_response(out: &mut Vec<u8>, response: &Response) {
    match response {
        Response::Initialized { cvd, version } => {
            out.push(0);
            put_str(out, cvd);
            put_u64(out, version.0);
        }
        Response::CheckedOut {
            cvd,
            versions,
            table,
        } => {
            out.push(1);
            put_str(out, cvd);
            put_vids(out, versions);
            put_str(out, table);
        }
        Response::CheckedOutCsv {
            cvd,
            versions,
            path,
            csv,
        } => {
            out.push(2);
            put_str(out, cvd);
            put_vids(out, versions);
            put_str(out, path);
            put_str(out, csv);
        }
        Response::Committed { target, version } => {
            out.push(3);
            put_str(out, target);
            put_u64(out, version.0);
        }
        Response::Diffed {
            cvd,
            from,
            to,
            diff,
        } => {
            out.push(4);
            put_str(out, cvd);
            put_u64(out, from.0);
            put_u64(out, to.0);
            put_rows(out, &diff.only_in_first);
            put_rows(out, &diff.only_in_second);
        }
        Response::Rows(q) => {
            out.push(5);
            put_query_result(out, q);
        }
        Response::CvdList(names) => {
            out.push(6);
            put_u32(out, names.len() as u32);
            for n in names {
                put_str(out, n);
            }
        }
        Response::Log { cvd, entries } => {
            out.push(7);
            put_str(out, cvd);
            put_u32(out, entries.len() as u32);
            for e in entries {
                put_u64(out, e.vid.0);
                put_vids(out, &e.parents);
                put_u64(out, e.commit_t);
                put_u64(out, e.num_records);
                put_str(out, &e.message);
            }
        }
        Response::Dropped { cvd } => {
            out.push(8);
            put_str(out, cvd);
        }
        Response::Optimized { cvd, report } => {
            out.push(9);
            put_str(out, cvd);
            put_u64(out, report.num_partitions as u64);
            put_u64(out, report.storage_records);
            put_f64(out, report.cavg);
            put_f64(out, report.delta);
        }
        Response::UserCreated { user } => {
            out.push(10);
            put_str(out, user);
        }
        Response::LoggedIn { user } => {
            out.push(11);
            put_str(out, user);
        }
        Response::CurrentUser { user } => {
            out.push(12);
            put_str(out, user);
        }
        Response::Discarded { table } => {
            out.push(13);
            put_str(out, table);
        }
    }
}

/// Decode one response from `r`.
pub fn read_response(r: &mut Reader<'_>) -> Result<Response> {
    Ok(match r.u8()? {
        0 => Response::Initialized {
            cvd: r.str()?,
            version: Vid(r.u64()?),
        },
        1 => Response::CheckedOut {
            cvd: r.str()?,
            versions: read_vids(r)?,
            table: r.str()?,
        },
        2 => Response::CheckedOutCsv {
            cvd: r.str()?,
            versions: read_vids(r)?,
            path: r.str()?,
            csv: r.str()?,
        },
        3 => Response::Committed {
            target: r.str()?,
            version: Vid(r.u64()?),
        },
        4 => Response::Diffed {
            cvd: r.str()?,
            from: Vid(r.u64()?),
            to: Vid(r.u64()?),
            diff: VersionDiff {
                only_in_first: read_rows(r)?,
                only_in_second: read_rows(r)?,
            },
        },
        5 => Response::Rows(read_query_result(r)?),
        6 => {
            let n = r.count("CVD name")?;
            let mut names = Vec::with_capacity(n);
            for _ in 0..n {
                names.push(r.str()?);
            }
            Response::CvdList(names)
        }
        7 => {
            let cvd = r.str()?;
            let n = r.count("log entry")?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(LogEntry {
                    vid: Vid(r.u64()?),
                    parents: read_vids(r)?,
                    commit_t: r.u64()?,
                    num_records: r.u64()?,
                    message: r.str()?,
                });
            }
            Response::Log { cvd, entries }
        }
        8 => Response::Dropped { cvd: r.str()? },
        9 => Response::Optimized {
            cvd: r.str()?,
            report: OptimizeReport {
                num_partitions: r.u64()? as usize,
                storage_records: r.u64()?,
                cavg: r.f64()?,
                delta: r.f64()?,
            },
        },
        10 => Response::UserCreated { user: r.str()? },
        11 => Response::LoggedIn { user: r.str()? },
        12 => Response::CurrentUser { user: r.str()? },
        13 => Response::Discarded { table: r.str()? },
        t => return Err(bad_tag("response", t)),
    })
}

// -- errors -------------------------------------------------------------------

fn command_tag(kind: CommandKind) -> u8 {
    match kind {
        CommandKind::Init => 0,
        CommandKind::Checkout => 1,
        CommandKind::Commit => 2,
        CommandKind::Diff => 3,
        CommandKind::Run => 4,
        CommandKind::Ls => 5,
        CommandKind::Log => 6,
        CommandKind::Drop => 7,
        CommandKind::Optimize => 8,
        CommandKind::CreateUser => 9,
        CommandKind::Login => 10,
        CommandKind::Whoami => 11,
        CommandKind::Discard => 12,
    }
}

fn read_command(r: &mut Reader<'_>) -> Result<CommandKind> {
    Ok(match r.u8()? {
        0 => CommandKind::Init,
        1 => CommandKind::Checkout,
        2 => CommandKind::Commit,
        3 => CommandKind::Diff,
        4 => CommandKind::Run,
        5 => CommandKind::Ls,
        6 => CommandKind::Log,
        7 => CommandKind::Drop,
        8 => CommandKind::Optimize,
        9 => CommandKind::CreateUser,
        10 => CommandKind::Login,
        11 => CommandKind::Whoami,
        12 => CommandKind::Discard,
        t => return Err(bad_tag("command kind", t)),
    })
}

fn put_engine_error(out: &mut Vec<u8>, e: &EngineError) {
    let (tag, msg): (u8, &str) = match e {
        EngineError::TableNotFound(m) => (0, m),
        EngineError::TableExists(m) => (1, m),
        EngineError::ColumnNotFound(m) => (2, m),
        EngineError::AmbiguousColumn(m) => (3, m),
        EngineError::TypeMismatch(m) => (4, m),
        EngineError::UniqueViolation(m) => (5, m),
        EngineError::Parse(m) => (6, m),
        EngineError::Plan(m) => (7, m),
        EngineError::Arity(m) => (8, m),
        EngineError::Eval(m) => (9, m),
        EngineError::IndexNotFound(m) => (10, m),
        EngineError::Storage(m) => (11, m),
        EngineError::Invalid(m) => (12, m),
    };
    out.push(tag);
    put_str(out, msg);
}

fn read_engine_error(r: &mut Reader<'_>) -> Result<EngineError> {
    let tag = r.u8()?;
    let msg = r.str()?;
    Ok(match tag {
        0 => EngineError::TableNotFound(msg),
        1 => EngineError::TableExists(msg),
        2 => EngineError::ColumnNotFound(msg),
        3 => EngineError::AmbiguousColumn(msg),
        4 => EngineError::TypeMismatch(msg),
        5 => EngineError::UniqueViolation(msg),
        6 => EngineError::Parse(msg),
        7 => EngineError::Plan(msg),
        8 => EngineError::Arity(msg),
        9 => EngineError::Eval(msg),
        10 => EngineError::IndexNotFound(msg),
        11 => EngineError::Storage(msg),
        12 => EngineError::Invalid(msg),
        t => return Err(bad_tag("engine error", t)),
    })
}

/// Append the encoding of `error` to `out`.
pub fn put_error(out: &mut Vec<u8>, error: &CoreError) {
    match error {
        CoreError::Engine(e) => {
            out.push(0);
            put_engine_error(out, e);
        }
        CoreError::CvdNotFound(m) => {
            out.push(1);
            put_str(out, m);
        }
        CoreError::CvdExists(m) => {
            out.push(2);
            put_str(out, m);
        }
        CoreError::VersionNotFound { cvd, version } => {
            out.push(3);
            put_str(out, cvd);
            put_u64(out, version.0);
        }
        CoreError::NotStaged(m) => {
            out.push(4);
            put_str(out, m);
        }
        CoreError::PrimaryKeyViolation(m) => {
            out.push(5);
            put_str(out, m);
        }
        CoreError::SchemaMismatch(m) => {
            out.push(6);
            put_str(out, m);
        }
        CoreError::PermissionDenied(m) => {
            out.push(7);
            put_str(out, m);
        }
        CoreError::Parse { command, message } => {
            out.push(8);
            match command {
                None => put_bool(out, false),
                Some(c) => {
                    put_bool(out, true);
                    out.push(command_tag(*c));
                }
            }
            put_str(out, message);
        }
        CoreError::UnknownCommand(m) => {
            out.push(9);
            put_str(out, m);
        }
        CoreError::BadRequest { command, reason } => {
            out.push(10);
            out.push(command_tag(*command));
            put_str(out, reason);
        }
        CoreError::Io(m) => {
            out.push(11);
            put_str(out, m);
        }
        CoreError::Csv(m) => {
            out.push(12);
            put_str(out, m);
        }
        CoreError::Storage(m) => {
            out.push(13);
            put_str(out, m);
        }
        CoreError::CrossCvd(cvds) => {
            out.push(14);
            put_u32(out, cvds.len() as u32);
            for c in cvds {
                put_str(out, c);
            }
        }
        CoreError::WorkerPanicked { shard } => {
            out.push(15);
            put_str(out, shard);
        }
        CoreError::Invalid(m) => {
            out.push(16);
            put_str(out, m);
        }
        CoreError::Network(m) => {
            out.push(17);
            put_str(out, m);
        }
        CoreError::Protocol(m) => {
            out.push(18);
            put_str(out, m);
        }
        CoreError::DeadlineExceeded { elapsed_ms } => {
            out.push(19);
            put_u64(out, *elapsed_ms);
        }
        CoreError::Overloaded { retry_after_ms } => {
            out.push(20);
            put_u64(out, *retry_after_ms);
        }
        CoreError::Degraded(m) => {
            out.push(21);
            put_str(out, m);
        }
        CoreError::ResponseTimeout { waited_ms, state } => {
            out.push(22);
            put_u64(out, *waited_ms);
            put_str(out, state);
        }
    }
}

/// Decode one error from `r`.
pub fn read_error(r: &mut Reader<'_>) -> Result<CoreError> {
    Ok(match r.u8()? {
        0 => CoreError::Engine(read_engine_error(r)?),
        1 => CoreError::CvdNotFound(r.str()?),
        2 => CoreError::CvdExists(r.str()?),
        3 => CoreError::VersionNotFound {
            cvd: r.str()?,
            version: Vid(r.u64()?),
        },
        4 => CoreError::NotStaged(r.str()?),
        5 => CoreError::PrimaryKeyViolation(r.str()?),
        6 => CoreError::SchemaMismatch(r.str()?),
        7 => CoreError::PermissionDenied(r.str()?),
        8 => {
            let command = if r.bool()? {
                Some(read_command(r)?)
            } else {
                None
            };
            CoreError::Parse {
                command,
                message: r.str()?,
            }
        }
        9 => CoreError::UnknownCommand(r.str()?),
        10 => CoreError::BadRequest {
            command: read_command(r)?,
            reason: r.str()?,
        },
        11 => CoreError::Io(r.str()?),
        12 => CoreError::Csv(r.str()?),
        13 => CoreError::Storage(r.str()?),
        14 => {
            let n = r.count("CVD name")?;
            let mut cvds = Vec::with_capacity(n);
            for _ in 0..n {
                cvds.push(r.str()?);
            }
            CoreError::CrossCvd(cvds)
        }
        15 => CoreError::WorkerPanicked { shard: r.str()? },
        16 => CoreError::Invalid(r.str()?),
        17 => CoreError::Network(r.str()?),
        18 => CoreError::Protocol(r.str()?),
        19 => CoreError::DeadlineExceeded {
            elapsed_ms: r.u64()?,
        },
        20 => CoreError::Overloaded {
            retry_after_ms: r.u64()?,
        },
        21 => CoreError::Degraded(r.str()?),
        22 => CoreError::ResponseTimeout {
            waited_ms: r.u64()?,
            state: r.str()?,
        },
        t => return Err(bad_tag("error", t)),
    })
}

/// Append the encoding of a per-request outcome to `out`.
pub fn put_outcome(out: &mut Vec<u8>, outcome: &Result<Response>) {
    match outcome {
        Ok(response) => {
            put_bool(out, true);
            put_response(out, response);
        }
        Err(error) => {
            put_bool(out, false);
            put_error(out, error);
        }
    }
}

/// Decode one per-request outcome from `r`.
pub fn read_outcome(r: &mut Reader<'_>) -> Result<Result<Response>> {
    if r.bool()? {
        Ok(Ok(read_response(r)?))
    } else {
        Ok(Err(read_error(r)?))
    }
}

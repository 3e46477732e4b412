//! Hand-rolled binary encoding for everything that rides the wire — and
//! the write-ahead log: the full [`Request`] and [`Response`] corpus,
//! [`CoreError`] (including its wrapped [`EngineError`]), and the query
//! results, rows, version ids and model tags they carry.
//!
//! The workspace builds offline — no serde, no derive macros — so the
//! codec is explicit: one `put_*`/`read_*` pair per type, enums as a `u8`
//! tag + payload. The bytes underneath are the engine's one vocabulary
//! ([`orpheus_engine::storage`]): its bounds-checked [`Reader`], its
//! `put_*` writers and its `Value`/`DataType`/`Schema` encoding, the very
//! layout the engine snapshot stores. Decoding never panics on hostile input:
//! every read is bounds-checked and every failure surfaces as
//! [`CoreError::Protocol`], which the connection layers turn into a clean
//! error frame or connection close.
//!
//! This module lives in `orpheus-core` because two consumers share it: the
//! TCP wire protocol (`crates/net`) and the durability log
//! ([`crate::wal`]), whose records embed encoded requests. The instance
//! snapshot ([`crate::persist`]) borrows its version-id lists and model
//! tags. One encoding, one hostile-input discipline, one test corpus.
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
use orpheus_engine::storage::{
    bad_tag, put_bool, put_f64, put_schema, put_str, put_u32, put_u64, put_value, read_schema,
    read_value, Sink,
};
use orpheus_engine::{EngineError, QueryResult, Value};

use crate::partition_store::OptimizeReport;

pub use orpheus_engine::storage::Reader;

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
        b => Err(bad_tag("option", b).into()),
    }
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

pub(crate) fn put_vids<S: Sink + ?Sized>(out: &mut S, vids: &[Vid]) {
    put_u32(out, vids.len() as u32);
    for v in vids {
        put_u64(out, v.0);
    }
}

pub(crate) fn read_vids(r: &mut Reader<'_>) -> Result<Vec<Vid>> {
    let n = r.count("version id")?;
    Ok(r.u64s(n)?.map(Vid).collect())
}

pub(crate) fn put_model<S: Sink + ?Sized>(out: &mut S, m: ModelKind) {
    out.put_u8(match m {
        ModelKind::TablePerVersion => 0,
        ModelKind::CombinedTable => 1,
        ModelKind::SplitByVlist => 2,
        ModelKind::SplitByRlist => 3,
        ModelKind::DeltaBased => 4,
    });
}

fn model_from_tag(tag: u8) -> Result<ModelKind> {
    Ok(match tag {
        0 => ModelKind::TablePerVersion,
        1 => ModelKind::CombinedTable,
        2 => ModelKind::SplitByVlist,
        3 => ModelKind::SplitByRlist,
        4 => ModelKind::DeltaBased,
        t => return Err(bad_tag("model", t).into()),
    })
}

pub(crate) fn read_model(r: &mut Reader<'_>) -> Result<ModelKind> {
    model_from_tag(r.u8()?)
}

/// A model tag, or `0xff` for none.
fn put_opt_model(out: &mut Vec<u8>, m: &Option<ModelKind>) {
    match m {
        None => out.push(0xff),
        Some(m) => put_model(out, *m),
    }
}

fn read_opt_model(r: &mut Reader<'_>) -> Result<Option<ModelKind>> {
    match r.u8()? {
        0xff => Ok(None),
        tag => model_from_tag(tag).map(Some),
    }
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
        t => return Err(bad_tag("request", t).into()),
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
        t => return Err(bad_tag("response", t).into()),
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
        t => return Err(bad_tag("command kind", t).into()),
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
        EngineError::NotAQuery(m) => (13, m),
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
        13 => EngineError::NotAQuery(msg),
        t => return Err(bad_tag("engine error", t).into()),
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
        t => return Err(bad_tag("error", t).into()),
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

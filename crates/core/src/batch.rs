//! Request routing: the one rule that sends a request to the shard that
//! serves it.
//!
//! [`crate::ConcurrentExecutor`] runs every request that is not a catalog
//! request on the shard [`route`] names: one CVD's shard, or the auxiliary
//! shard for tables that belong to no CVD. A pure read (`log`, `diff`,
//! single-shard SELECTs) is served from the shard's MVCC snapshot, every
//! other request under the shard's write lock. A request no single shard
//! serves — SQL spanning shards — runs across them; one naming an unknown
//! CVD or a staged name nobody holds gets its typed error.
//!
//! A batch is not planned: every executor's [`crate::Executor::batch`]
//! runs its requests one after another, each routed on its own, and an
//! [`crate::AsyncHandle`] runs each submission request by request.

use crate::query::Lexed;
use crate::request::{Request, Target};
use crate::staging::StagedKind;

/// The shard a batched request is routed to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ShardKey {
    /// The auxiliary shard: tables that belong to no CVD (plain-SQL side
    /// tables, orphaned staged artifacts).
    Aux,
    /// One CVD's shard, keyed by lower-cased CVD name.
    Cvd(String),
}

impl ShardKey {
    /// Human-readable shard name for error messages
    /// ([`crate::CoreError::WorkerPanicked`] carries it) — one place
    /// decides how the auxiliary shard renders, for the sync and async
    /// paths alike.
    pub fn label(&self) -> &str {
        match self {
            ShardKey::Aux => "aux",
            ShardKey::Cvd(name) => name,
        }
    }
}

/// Executor-specific routing state [`route`] consults. The concurrent
/// executor's catalog implements it (one read lock per routed request);
/// `route`'s tests plug in a fixed router.
pub trait BatchRouter {
    /// Whether a CVD with this name exists right now.
    fn has_cvd(&self, name: &str) -> bool;

    /// The shard owning a currently staged artifact, if any.
    fn staged_shard(&self, name: &str, kind: StagedKind) -> Option<ShardKey>;

    /// Route one SQL statement: `Some(key)` when it can run under a single
    /// shard, `None` when it needs the sequential path (multi-CVD
    /// statements).
    fn sql_shard(&self, sql: &Lexed) -> Option<ShardKey>;
}

/// Whether a request is a pure read, which [`crate::OrpheusDB::read`]
/// answers on a borrowed MVCC snapshot of its shard. Checkouts mutate the
/// staging area, commits and discards consume it, `optimize` rewrites
/// storage; `log`, `diff`, and SELECTs without `INTO` only read.
pub(crate) fn is_read_only(request: &Request) -> bool {
    match request {
        Request::Log(_) | Request::Diff(_) => true,
        Request::Run(r) => r.is_select(),
        _ => false,
    }
}

/// Key of one staged artifact in a staged-name index (tables
/// case-insensitive, CSV paths case-sensitive — mirroring
/// [`crate::staging::StagingArea`]).
pub(crate) fn staged_key(name: &str, kind: StagedKind) -> String {
    match kind {
        StagedKind::Table => format!("t:{}", name.to_ascii_lowercase()),
        StagedKind::Csv => format!("f:{name}"),
    }
}

/// The staged name `request` claims or consumes, as `(name, kind,
/// claim)`: a checkout claims its target for the CVD in `claim`; a commit
/// or a discard consumes it (`claim` is `None`). Every other request
/// touches no staged name.
pub(crate) fn staged_name(request: &Request) -> Option<(&str, StagedKind, Option<&str>)> {
    match request {
        Request::Checkout(c) => Some((&c.table, StagedKind::Table, Some(&c.cvd))),
        Request::CheckoutCsv(c) => Some((&c.path, StagedKind::Csv, Some(&c.cvd))),
        Request::Commit(c) => Some((&c.table, StagedKind::Table, None)),
        Request::Discard(d) => Some((&d.table, StagedKind::Table, None)),
        Request::CommitCsv(c) => Some((&c.path, StagedKind::Csv, None)),
        _ => None,
    }
}

/// Route one request against `router`: `Some((shard, read_only))` when a
/// single shard serves it, `None` when it needs the sequential path —
/// catalog requests, an unknown CVD, a staged name nobody holds, SQL
/// spanning shards or naming an unknown CVD, and an unlexable statement
/// (whose execution surfaces the error).
pub fn route(router: &dyn BatchRouter, request: &Request) -> Option<(ShardKey, bool)> {
    let key = match request.target() {
        Target::Catalog(_) => None,
        Target::Cvd(cvd) => router
            .has_cvd(cvd)
            .then(|| ShardKey::Cvd(cvd.to_ascii_lowercase())),
        Target::StagedTable(name) => router.staged_shard(name, StagedKind::Table),
        Target::StagedCsv(path) => router.staged_shard(path, StagedKind::Csv),
        // The router resolves the statement's CVDs; its staged names are
        // resolved on top, so a statement on a staged table joins that
        // table's shard — not the auxiliary one — and names landing on
        // two different shards make it cross-shard.
        Target::Sql(run) => run.lexed().ok().and_then(|sql| {
            let mut resolved = router.sql_shard(sql)?;
            for name in sql.idents() {
                if let Some(shard) = router.staged_shard(name, StagedKind::Table) {
                    if resolved == ShardKey::Aux {
                        resolved = shard;
                    } else if resolved != shard {
                        return None;
                    }
                }
            }
            Some(resolved)
        }),
    }?;
    Some((key, is_read_only(request)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{
        Checkout, Commit, CommitCsv, CreateUser, Diff, Discard, DropCvd, Init, Log, Login,
        Optimize, Run,
    };

    fn cvd_key(name: &str) -> ShardKey {
        ShardKey::Cvd(name.to_string())
    }

    /// CVDs `a` and `b`; `t` is staged in `a`, `f.csv` in `b`, `side` in
    /// the auxiliary shard. A statement routes to the CVD whose
    /// `<cvd>__data` table it names, to the auxiliary shard when it names
    /// none, and to no single shard when it names two.
    struct StagingRouter;

    impl BatchRouter for StagingRouter {
        fn has_cvd(&self, name: &str) -> bool {
            ["a", "b"].contains(&name)
        }
        fn staged_shard(&self, name: &str, kind: StagedKind) -> Option<ShardKey> {
            match (name, kind) {
                ("t", StagedKind::Table) => Some(cvd_key("a")),
                ("f.csv", StagedKind::Csv) => Some(cvd_key("b")),
                ("side", StagedKind::Table) => Some(ShardKey::Aux),
                _ => None,
            }
        }
        fn sql_shard(&self, sql: &Lexed) -> Option<ShardKey> {
            let mut cvds = sql.idents().filter_map(|name| name.strip_suffix("__data"));
            match (cvds.next(), cvds.next()) {
                (None, _) => Some(ShardKey::Aux),
                (Some(cvd), None) => Some(cvd_key(cvd)),
                _ => None,
            }
        }
    }

    /// A request goes to one shard, flagged when it only reads, or to
    /// none: catalog requests, an unknown CVD, a staged name nobody
    /// holds, SQL spanning shards and an unlexable statement.
    #[test]
    fn route_sends_a_request_to_its_shard_or_to_none() {
        let a = |read_only| Some((cvd_key("a"), read_only));
        let b = |read_only| Some((cvd_key("b"), read_only));
        let aux = |read_only| Some((ShardKey::Aux, read_only));
        let cases: Vec<(Request, Option<(ShardKey, bool)>)> = vec![
            (CreateUser::named("u").into(), None),
            (Init::cvd("c").into(), None),
            (DropCvd::named("a").into(), None),
            (Login::as_user("u").into(), None),
            (Request::Whoami, None),
            (Request::Ls, None),
            (Log::of("nope").into(), None),
            (
                Checkout::of("nope").version(1u64).into_table("x").into(),
                None,
            ),
            (Commit::table("never_staged").into(), None),
            (Discard::table("never_staged").into(), None),
            (CommitCsv::path("never.csv").into(), None),
            (
                Run::sql("SELECT * FROM a__data JOIN b__data ON a__data.k = b__data.k").into(),
                None,
            ),
            (Run::sql("SELECT 'unterminated").into(), None),
            (Run::sql("SELECT * FROM b__data, t").into(), None),
            (
                Checkout::of("a").version(1u64).into_table("t1").into(),
                a(false),
            ),
            (
                Checkout::of("b").version(1u64).into_csv("g.csv").into(),
                b(false),
            ),
            (Commit::table("t").into(), a(false)),
            (CommitCsv::path("f.csv").into(), b(false)),
            (Discard::table("side").into(), aux(false)),
            (Optimize::cvd("b").into(), b(false)),
            (Log::of("a").into(), a(true)),
            (Diff::of("b").between(1u64, 2u64).into(), b(true)),
            (Run::sql("SELECT * FROM a__data").into(), a(true)),
            (Run::sql("UPDATE t SET v = 1").into(), a(false)),
            (Run::sql("SELECT * FROM side").into(), aux(true)),
            (Run::sql("SELECT 1").into(), aux(true)),
            (Run::sql("INSERT INTO s VALUES (1)").into(), aux(false)),
        ];
        for (request, want) in cases {
            assert_eq!(route(&StagingRouter, &request), want, "{request:?}");
        }
    }
}

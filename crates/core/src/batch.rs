//! Batch planning: partition a request stream by target shard so the
//! async executor can schedule it ([`crate::async_exec`]).
//!
//! OrpheusDB's central bet (Section 2 of the paper) is that versioning
//! overhead amortizes when operations act on *sets* — arrays of record
//! ids, batched checkouts — instead of one record or one request at a
//! time. [`BatchPlan`] carries that bet to the request level as a
//! schedule and nothing more: given a `Vec<Request>`, it routes each
//! request by [`route`] (the rule [`crate::ConcurrentExecutor`] routes a
//! single request by) to group the batch into per-shard sub-batches, so
//! the async executor's coordinator can
//!
//! * resolve staged-name routing and analyze SQL for a whole chunk of
//!   submissions under a single catalog acquisition (the [`BatchRouter`]
//!   is consulted only while the plan is built),
//! * hand each [`Step::Shard`] sub-batch to a worker, which takes its
//!   shard lock once for the sub-batch (or clones its snapshot once, for
//!   reads), and run the mutually independent sub-batches between two
//!   barriers on different workers.
//!
//! A `Session`'s batch is not planned: it is the plain `execute` loop.
//!
//! A plan holds no rows and caches nothing: each request of a step runs
//! exactly as a single `execute` of it would, on the shard it is routed
//! to.
//!
//! # Semantics contract
//!
//! Plans never change *what* a batch means, only how much lock traffic it
//! costs. The coordinator driving a plan must preserve:
//!
//! * **Submission-order responses** — `batch` returns one
//!   `Result<Response>` per request, position `i` answering request `i`.
//! * **Independent failures** — a failing request never aborts the
//!   requests after it.
//! * **Per-shard order** — *writing* requests routed to the same shard
//!   execute in submission order; [`Step::Sequential`] steps are barriers
//!   that order strictly against every step around them. Pure reads
//!   (`log`, `diff`, single-shard SELECTs) split into read-only sub-batches
//!   served from the shard's MVCC snapshot, which may overlap a writing
//!   sub-batch of the same shard — see [`Step::Shard`]'s `read_only` for
//!   the exact guarantee.
//!
//! Requests routed to *different* shards between two barriers may execute
//! in any order relative to each other — they target disjoint state. A
//! plan gives each shard at most one writing and one read-only step
//! between two barriers, so those steps need no ordering among
//! themselves: the async pool runs them from one plain job queue.
//! References whose outcome would depend on another request's runtime
//! result (two checkouts staging the same name inside one batch, a commit
//! of a name the batch already consumed) are routed to the sequential
//! path, where real state resolves them exactly as the plain `execute`
//! loop would.

use std::collections::HashMap;

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

/// One scheduling step of a [`BatchPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Execute request `i` on its own, against live state: catalog
    /// requests (CVD create/drop, user management, `ls`), multi-CVD SQL,
    /// and targets the planner could not resolve. Sequential steps are
    /// barriers — everything scheduled before them completes first, and
    /// nothing scheduled after them starts early.
    Sequential(usize),
    /// One shard's sub-batch: request indices in submission order, all
    /// routed to `key`. Steps between two barriers target disjoint shards
    /// and are mutually independent — except that one shard may contribute
    /// *two* steps, a read-only one and a writing one (see `read_only`).
    Shard {
        key: ShardKey,
        indices: Vec<usize>,
        /// Every request of this sub-batch is a pure read (`log`, `diff`,
        /// single-shard SELECTs). Read-only sub-batches are served from
        /// the shard's MVCC snapshot without taking the shard lock, so
        /// executors may run them concurrently with a *writing* sub-batch
        /// of the same shard: a read submitted before a write to its shard
        /// may observe the shard either before or after that write (each
        /// read still sees one consistent snapshot). Reads submitted
        /// *after* a write to their shard ride in the writing sub-batch,
        /// preserving read-your-writes.
        read_only: bool,
    },
}

/// Executor-specific routing state [`route`] consults. The concurrent
/// executor's catalog implements it (one read lock per routed request, or
/// for a whole plan).
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

/// Whether a shard-routed request is a pure read — executable against an
/// MVCC snapshot of its shard without taking the shard lock. Checkouts
/// mutate the staging area, commits and discards consume it, `optimize`
/// rewrites storage; `log`, `diff`, and single-shard SELECTs only read.
fn is_read_only(request: &Request) -> bool {
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
/// (whose execution surfaces the error). A single request is routed by
/// this alone; [`BatchPlan::build`] routes each request of a batch by it,
/// through the batch's overlay.
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

/// A batch execution plan: the schedule ([`BatchPlan::steps`]). Build
/// once per batch with [`BatchPlan::build`]; the plan holds indices into
/// the request slice it was built from.
#[derive(Debug)]
pub struct BatchPlan {
    steps: Vec<Step>,
}

/// What the planner knows about one staged name after the batch's earlier
/// requests.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Overlay {
    /// Staged by an earlier, shard-routed checkout of this batch.
    Staged(ShardKey),
    /// Consumed by an earlier commit/discard of this batch.
    Consumed,
    /// The name's fate depends on runtime outcomes (same-name checkouts
    /// inside one batch); every later reference goes sequential.
    Uncertain,
}

/// `router` as a batch's later requests see it: a name an earlier request
/// of the batch staged resolves to that checkout's shard, a name it
/// consumed or left uncertain to nothing, every other name through
/// `router`.
struct Overlaid<'a> {
    router: &'a dyn BatchRouter,
    overlay: &'a HashMap<String, Overlay>,
}

impl BatchRouter for Overlaid<'_> {
    fn has_cvd(&self, name: &str) -> bool {
        self.router.has_cvd(name)
    }

    fn staged_shard(&self, name: &str, kind: StagedKind) -> Option<ShardKey> {
        match self.overlay.get(&staged_key(name, kind)) {
            Some(Overlay::Staged(key)) => Some(key.clone()),
            // A consumed name reads as free: if the consuming commit/discard
            // fails at runtime, a checkout reusing the name fails with the
            // same "already staged" error the sequential loop produces.
            Some(Overlay::Consumed | Overlay::Uncertain) => None,
            None => self.router.staged_shard(name, kind),
        }
    }

    fn sql_shard(&self, sql: &Lexed) -> Option<ShardKey> {
        self.router.sql_shard(sql)
    }
}

impl BatchPlan {
    /// Partition `requests` into per-shard sub-batches separated by
    /// sequential barriers. Each request is routed by [`route`] through
    /// `router` *overlaid with the batch itself*: a commit of a table
    /// checked out earlier in the same batch routes to the checkout's
    /// shard even though nothing is staged yet at plan time, and so does
    /// a statement on that table — ordered against the checkout and the
    /// commit. References whose routing would depend on a runtime outcome
    /// — e.g. two checkouts staging the same name in one batch — fall back
    /// to sequential barriers, which execute in exact submission order.
    pub fn build(requests: &[Request], router: &dyn BatchRouter) -> BatchPlan {
        let mut steps: Vec<Step> = Vec::new();
        // Shard groups accumulated since the last barrier, in order of
        // first appearance. A shard may hold two groups: a read-only one
        // (reads before the first write to that shard in this region) and
        // a writing one.
        let mut open: Vec<(ShardKey, bool, Vec<usize>)> = Vec::new();
        let mut overlay: HashMap<String, Overlay> = HashMap::new();

        let flush = |open: &mut Vec<(ShardKey, bool, Vec<usize>)>, steps: &mut Vec<Step>| {
            for (key, read_only, indices) in open.drain(..) {
                steps.push(Step::Shard {
                    key,
                    indices,
                    read_only,
                });
            }
        };

        for (i, request) in requests.iter().enumerate() {
            let staged = staged_name(request);
            let key = staged.map(|(name, kind, _)| staged_key(name, kind));
            let in_batch = key.as_ref().and_then(|key| overlay.get(key));
            let overlaid = Overlaid {
                router,
                overlay: &overlay,
            };
            let (routed, mark) = match (staged, in_batch) {
                // Staged by an earlier checkout of this same batch: whether
                // this checkout succeeds depends on that one's runtime
                // outcome. Go sequential (the barrier flushes the earlier
                // checkout's sub-batch first, so execution order is
                // exactly sequential) and poison the name for everything
                // after.
                (Some((_, _, Some(_))), Some(Overlay::Staged(_) | Overlay::Uncertain)) => {
                    (None, Some(Overlay::Uncertain))
                }
                // A free name is claimed for the checkout's shard, subject
                // to the checkout succeeding — a later commit routed there
                // then fails NotStaged inside the shard, exactly like the
                // sequential loop. A name staged before the batch keeps
                // its holder: the checkout deterministically fails
                // "already staged" in its own shard's reservation phase.
                (Some((name, kind, Some(_))), _) => {
                    let routed = route(&overlaid, request);
                    let free = overlaid.staged_shard(name, kind).is_none();
                    let mark = routed
                        .as_ref()
                        .filter(|_| free)
                        .map(|(shard, _)| Overlay::Staged(shard.clone()));
                    (routed, mark)
                }
                // A commit or discard consumes its name; an uncertain name
                // stays uncertain (the consumer itself went sequential and
                // may fail).
                (Some((_, _, None)), in_batch) => (
                    route(&overlaid, request),
                    (!matches!(in_batch, Some(Overlay::Uncertain))).then_some(Overlay::Consumed),
                ),
                (None, _) => (route(&overlaid, request), None),
            };
            if let (Some(key), Some(mark)) = (key, mark) {
                overlay.insert(key, mark);
            }

            match routed {
                Some((key, read_only)) => {
                    // A read joins its shard's read-only group only while
                    // no write to that shard is open: a read *after* a
                    // write must observe it, so it rides in the write
                    // group instead.
                    let write_open = open.iter().any(|(k, ro, _)| *k == key && !*ro);
                    let read_only = read_only && !write_open;
                    match open
                        .iter_mut()
                        .find(|(k, ro, _)| *k == key && *ro == read_only)
                    {
                        Some((_, _, indices)) => indices.push(i),
                        None => open.push((key, read_only, vec![i])),
                    }
                }
                None => {
                    flush(&mut open, &mut steps);
                    steps.push(Step::Sequential(i));
                }
            }
        }
        flush(&mut open, &mut steps);
        BatchPlan { steps }
    }

    /// The execution schedule. Every request index appears in exactly one
    /// step.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Checkout, Commit, CreateUser, Discard, Log, Run};

    /// A router over a fixed CVD list: staged names resolve to nothing,
    /// SQL routes to the auxiliary shard.
    struct FixedRouter(Vec<&'static str>);

    impl BatchRouter for FixedRouter {
        fn has_cvd(&self, name: &str) -> bool {
            self.0.iter().any(|c| c.eq_ignore_ascii_case(name))
        }
        fn staged_shard(&self, _name: &str, _kind: StagedKind) -> Option<ShardKey> {
            None
        }
        fn sql_shard(&self, _sql: &Lexed) -> Option<ShardKey> {
            Some(ShardKey::Aux)
        }
    }

    fn cvd_key(name: &str) -> ShardKey {
        ShardKey::Cvd(name.to_string())
    }

    #[test]
    fn partitions_by_shard_and_preserves_submission_order_within_one() {
        let requests: Vec<Request> = vec![
            Checkout::of("a").version(1u64).into_table("t1").into(),
            Checkout::of("b").version(1u64).into_table("t2").into(),
            Checkout::of("a").version(1u64).into_table("t3").into(),
            Commit::table("t1").message("m").into(),
            Log::of("b").into(),
        ];
        let plan = BatchPlan::build(&requests, &FixedRouter(vec!["a", "b"]));
        assert_eq!(
            plan.steps(),
            &[
                Step::Shard {
                    key: cvd_key("a"),
                    // The commit of t1 follows its checkout into shard a.
                    indices: vec![0, 2, 3],
                    read_only: false,
                },
                Step::Shard {
                    key: cvd_key("b"),
                    indices: vec![1, 4],
                    read_only: false,
                },
            ]
        );
    }

    #[test]
    fn catalog_requests_are_barriers() {
        let requests: Vec<Request> = vec![
            Checkout::of("a").version(1u64).into_table("t1").into(),
            CreateUser::named("u").into(),
            Checkout::of("a").version(1u64).into_table("t2").into(),
        ];
        let plan = BatchPlan::build(&requests, &FixedRouter(vec!["a"]));
        assert_eq!(
            plan.steps(),
            &[
                Step::Shard {
                    key: cvd_key("a"),
                    indices: vec![0],
                    read_only: false,
                },
                Step::Sequential(1),
                Step::Shard {
                    key: cvd_key("a"),
                    indices: vec![2],
                    read_only: false,
                },
            ]
        );
    }

    #[test]
    fn unknown_cvds_and_unresolved_staged_names_fall_back_to_sequential() {
        let requests: Vec<Request> = vec![
            Checkout::of("nope").version(1u64).into_table("t").into(),
            Commit::table("never_staged").into(),
            Run::sql("SELECT 1").into(),
        ];
        let plan = BatchPlan::build(&requests, &FixedRouter(vec!["a"]));
        assert_eq!(
            plan.steps(),
            &[
                Step::Sequential(0),
                Step::Sequential(1),
                Step::Shard {
                    key: ShardKey::Aux,
                    indices: vec![2],
                    read_only: true,
                },
            ]
        );
    }

    #[test]
    fn in_batch_consumption_sends_reuse_to_the_sequential_path() {
        // discard consumes t; the second commit of t can no longer be
        // routed from plan-time knowledge, so it goes sequential (where
        // the ordinary staged-index resolution gives the right error).
        let requests: Vec<Request> = vec![
            Checkout::of("a").version(1u64).into_table("t").into(),
            Discard::table("t").into(),
            Commit::table("t").message("m").into(),
        ];
        let plan = BatchPlan::build(&requests, &FixedRouter(vec!["a"]));
        assert_eq!(
            plan.steps(),
            &[
                Step::Shard {
                    key: cvd_key("a"),
                    indices: vec![0, 1],
                    read_only: false,
                },
                Step::Sequential(2),
            ]
        );
    }

    #[test]
    fn same_name_checkouts_inside_a_batch_serialize_through_the_sequential_path() {
        // The second checkout of `t` succeeds only if the first one fails
        // at runtime — unknowable at plan time, so it (and the commit of
        // the now-uncertain name) must go sequential, *after* the first
        // checkout's flushed sub-batch.
        let requests: Vec<Request> = vec![
            Checkout::of("a").version(1u64).into_table("t").into(),
            Checkout::of("b").version(1u64).into_table("t").into(),
            Commit::table("t").message("m").into(),
        ];
        let plan = BatchPlan::build(&requests, &FixedRouter(vec!["a", "b"]));
        assert_eq!(
            plan.steps(),
            &[
                Step::Shard {
                    key: cvd_key("a"),
                    indices: vec![0],
                    read_only: false,
                },
                Step::Sequential(1),
                Step::Sequential(2),
            ]
        );
    }

    #[test]
    fn checkouts_into_an_already_staged_name_do_not_reroute_its_commit() {
        /// `t` is staged in CVD `left` before the batch begins.
        struct StagedRouter;
        impl BatchRouter for StagedRouter {
            fn has_cvd(&self, name: &str) -> bool {
                ["left", "right"].contains(&name)
            }
            fn staged_shard(&self, name: &str, _kind: StagedKind) -> Option<ShardKey> {
                (name == "t").then(|| cvd_key("left"))
            }
            fn sql_shard(&self, _sql: &Lexed) -> Option<ShardKey> {
                Some(ShardKey::Aux)
            }
        }
        // The checkout into the taken name deterministically fails in its
        // own shard; the commit keeps resolving to the real holder.
        let requests: Vec<Request> = vec![
            Checkout::of("right").version(1u64).into_table("t").into(),
            Commit::table("t").message("m").into(),
        ];
        let plan = BatchPlan::build(&requests, &StagedRouter);
        assert_eq!(
            plan.steps(),
            &[
                Step::Shard {
                    key: cvd_key("right"),
                    indices: vec![0],
                    read_only: false,
                },
                Step::Shard {
                    key: cvd_key("left"),
                    indices: vec![1],
                    read_only: false,
                },
            ]
        );
    }

    #[test]
    fn reads_before_a_shard_write_split_into_a_read_only_step() {
        let requests: Vec<Request> = vec![
            Log::of("a").into(),                                    // read, shard a
            Checkout::of("a").version(1u64).into_table("t").into(), // write, shard a
            Log::of("a").into(),                                    // read AFTER the write
            Run::sql("SELECT 1").into(),                            // read, aux
            Run::sql("INSERT INTO s VALUES (1)").into(),            // write, aux
        ];
        let plan = BatchPlan::build(&requests, &FixedRouter(vec!["a"]));
        assert_eq!(
            plan.steps(),
            &[
                // The leading read splits off; the trailing read rides in
                // the write group to keep read-your-writes.
                Step::Shard {
                    key: cvd_key("a"),
                    indices: vec![0],
                    read_only: true,
                },
                Step::Shard {
                    key: cvd_key("a"),
                    indices: vec![1, 2],
                    read_only: false,
                },
                Step::Shard {
                    key: ShardKey::Aux,
                    indices: vec![3],
                    read_only: true,
                },
                Step::Shard {
                    key: ShardKey::Aux,
                    indices: vec![4],
                    read_only: false,
                },
            ]
        );
    }

    #[test]
    fn every_index_is_scheduled_exactly_once() {
        let requests: Vec<Request> = vec![
            Checkout::of("a").version(1u64).into_table("t1").into(),
            Run::sql("SELECT 1").into(),
            CreateUser::named("u").into(),
            Checkout::of("b").version(2u64).into_table("t2").into(),
            Commit::table("t2").message("m").into(),
        ];
        let plan = BatchPlan::build(&requests, &FixedRouter(vec!["a", "b"]));
        let mut seen: Vec<usize> = plan
            .steps()
            .iter()
            .flat_map(|s| match s {
                Step::Sequential(i) => vec![*i],
                Step::Shard { indices, .. } => indices.clone(),
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
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

    /// A single `execute` is routed by `route` alone, so a batch of one
    /// must be scheduled exactly as `route` routes its request — or the
    /// two would run differently.
    #[test]
    fn a_batch_of_one_is_scheduled_as_route_routes_its_request() {
        use crate::request::{CommitCsv, Diff, DropCvd, Init, Login, Optimize};

        let multi_cvd = Run::sql("SELECT * FROM a__data JOIN b__data ON a__data.k = b__data.k");
        let unlexable = Run::sql("SELECT 'unterminated");
        // Every request of the planner tests above, then the rest.
        let corpus: Vec<Request> = vec![
            Checkout::of("a").version(1u64).into_table("t1").into(),
            Checkout::of("b").version(1u64).into_table("t2").into(),
            Checkout::of("a").version(1u64).into_table("t3").into(),
            Commit::table("t1").message("m").into(),
            Log::of("b").into(),
            CreateUser::named("u").into(),
            Checkout::of("a").version(1u64).into_table("t2").into(),
            Checkout::of("nope").version(1u64).into_table("t").into(),
            Commit::table("never_staged").into(),
            Run::sql("SELECT 1").into(),
            Checkout::of("a").version(1u64).into_table("t").into(),
            Discard::table("t").into(),
            Commit::table("t").message("m").into(),
            Checkout::of("b").version(1u64).into_table("t").into(),
            Checkout::of("right").version(1u64).into_table("t").into(),
            Log::of("a").into(),
            Run::sql("INSERT INTO s VALUES (1)").into(),
            Checkout::of("b").version(2u64).into_table("t2").into(),
            Commit::table("t2").message("m").into(),
            Init::cvd("c").into(),
            DropCvd::named("a").into(),
            Login::as_user("u").into(),
            Request::Whoami,
            Request::Ls,
            Log::of("nope").into(),
            Diff::of("a").between(1u64, 2u64).into(),
            Optimize::cvd("b").into(),
            Discard::table("never_staged").into(),
            Discard::table("side").into(),
            Checkout::of("b").version(1u64).into_csv("f.csv").into(),
            CommitCsv::path("f.csv").into(),
            CommitCsv::path("never.csv").into(),
            Run::sql("SELECT * FROM a__data").into(),
            Run::sql("UPDATE t SET v = 1").into(),
            Run::sql("SELECT * FROM side").into(),
            Run::sql("SELECT * FROM b__data, t").into(),
            multi_cvd.clone().into(),
            unlexable.clone().into(),
        ];
        let routers: [&dyn BatchRouter; 2] = [&FixedRouter(vec!["a", "b"]), &StagingRouter];
        for router in routers {
            for request in &corpus {
                let alone = match route(router, request) {
                    Some((key, read_only)) => Step::Shard {
                        key,
                        indices: vec![0],
                        read_only,
                    },
                    None => Step::Sequential(0),
                };
                let plan = BatchPlan::build(std::slice::from_ref(request), router);
                assert_eq!(plan.steps(), &[alone], "{request:?}");
            }
        }

        let cases: Vec<(Request, Option<(ShardKey, bool)>)> = vec![
            (Log::of("nope").into(), None),
            (Commit::table("never_staged").into(), None),
            (CommitCsv::path("never.csv").into(), None),
            (multi_cvd.into(), None),
            (unlexable.into(), None),
            (Run::sql("SELECT * FROM b__data, t").into(), None),
            (Commit::table("t").into(), Some((cvd_key("a"), false))),
            (CommitCsv::path("f.csv").into(), Some((cvd_key("b"), false))),
            (
                Run::sql("SELECT * FROM side").into(),
                Some((ShardKey::Aux, true)),
            ),
            (
                Run::sql("UPDATE t SET v = 1").into(),
                Some((cvd_key("a"), false)),
            ),
            (Log::of("a").into(), Some((cvd_key("a"), true))),
        ];
        for (request, want) in cases {
            assert_eq!(route(&StagingRouter, &request), want, "{request:?}");
        }
    }

    /// One generated request over CVDs `a`, `b` and `c` (the first two
    /// known to [`StagingRouter`], the third unknown), staging and
    /// consuming a few reused names: `(kind, cvd, name)`.
    fn generated_request((kind, cvd, name): (usize, usize, usize)) -> Request {
        use crate::request::{CommitCsv, Diff, DropCvd, Init, Login};

        let cvd = ["a", "b", "c"][cvd];
        let other = ["b", "c", "a"][name % 3];
        let table = ["t", "u", "side", "w"][name];
        let csv = ["f.csv", "g.csv", "h.csv", "i.csv"][name];
        match kind {
            0 => Checkout::of(cvd).version(1u64).into_table(table).into(),
            1 => Checkout::of(cvd).version(1u64).into_csv(csv).into(),
            2 => Commit::table(table).message("m").into(),
            3 => CommitCsv::path(csv).into(),
            4 => Discard::table(table).into(),
            5 => Log::of(cvd).into(),
            6 => Diff::of(cvd).between(1u64, 2u64).into(),
            7 => Run::sql(format!("SELECT * FROM {cvd}__data")).into(),
            8 => Run::sql(format!("UPDATE {cvd}__data SET v = 1")).into(),
            9 => Run::sql(format!("SELECT * FROM {table}")).into(),
            10 => Run::sql(format!("UPDATE {table} SET v = 1")).into(),
            11 => Run::sql(format!("SELECT * FROM {cvd}__data, {other}__data")).into(),
            12 => Run::sql(format!(
                "DELETE FROM {cvd}__data WHERE k IN (SELECT k FROM {other}__data)"
            ))
            .into(),
            13 => CreateUser::named(table).into(),
            14 => Init::cvd(cvd).into(),
            15 => DropCvd::named(cvd).into(),
            16 => Login::as_user(table).into(),
            17 => Request::Whoami,
            _ => Request::Ls,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The async pool's single job queue rests on this: between two
        /// barriers a plan holds at most one writing and at most one
        /// read-only step per shard, so no two jobs of one shard that
        /// must stay ordered are ever pending at once. And every request
        /// is scheduled exactly once.
        #[test]
        fn a_region_holds_one_writing_and_one_read_only_step_per_shard(
            batch in proptest::collection::vec((0usize..19, 0usize..3, 0usize..4), 1..32)
        ) {
            let requests: Vec<Request> = batch.into_iter().map(generated_request).collect();
            let routers: [&dyn BatchRouter; 2] =
                [&FixedRouter(vec!["a", "b", "c"]), &StagingRouter];
            for router in routers {
                let plan = BatchPlan::build(&requests, router);
                let mut seen: Vec<usize> = Vec::new();
                let mut region: Vec<(&ShardKey, bool)> = Vec::new();
                for step in plan.steps() {
                    match step {
                        Step::Sequential(i) => {
                            region.clear();
                            seen.push(*i);
                        }
                        Step::Shard { key, indices, read_only } => {
                            proptest::prop_assert!(
                                !region.contains(&(key, *read_only)),
                                "two {} steps of {key:?} in one region: {:?}",
                                if *read_only { "read-only" } else { "writing" },
                                plan.steps()
                            );
                            region.push((key, *read_only));
                            seen.extend(indices);
                        }
                    }
                }
                seen.sort_unstable();
                proptest::prop_assert_eq!(seen, (0..requests.len()).collect::<Vec<_>>());
            }
        }
    }
}

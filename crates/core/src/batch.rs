//! Batch planning: partition a request stream by target shard so
//! executors can coalesce work ([`crate::request::Executor::batch`]).
//!
//! OrpheusDB's central bet (Section 2 of the paper) is that versioning
//! overhead amortizes when operations act on *sets* — arrays of record
//! ids, batched checkouts — instead of one record or one request at a
//! time. [`BatchPlan`] lifts that bet to the request level: given a
//! `Vec<Request>`, it reuses the per-CVD routing of [`Request::target`]
//! (the same table [`crate::ConcurrentExecutor`] dispatches on) to group
//! the batch into per-shard sub-batches, so an executor can
//!
//! * take each shard lock **once per sub-batch** instead of once per
//!   request ([`crate::ConcurrentExecutor`]),
//! * share one version-row scan across all checkouts of the same version
//!   ([`crate::OrpheusDB`], via [`BatchPlan::shared_scans`]),
//! * resolve staged-name routing and analyze SQL for the whole batch under
//!   a single catalog acquisition (the [`BatchRouter`] is consulted only
//!   while the plan is built),
//! * run mutually independent [`Step::Shard`] sub-batches on different
//!   worker threads — the async executor ([`crate::async_exec`]) is
//!   exactly this plan turned into a coordinator plus a per-shard worker
//!   pool.
//!
//! # Semantics contract
//!
//! Plans never change *what* a batch means, only how much lock traffic and
//! rescanning it costs. Executors driving a plan must preserve:
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
//! in any order relative to each other — they target disjoint state.
//! References whose outcome would depend on another request's runtime
//! result (two checkouts staging the same name inside one batch, a commit
//! of a name the batch already consumed) are routed to the sequential
//! path, where real state resolves them exactly as the plain `execute`
//! loop would.

use std::collections::HashMap;

use crate::ids::Vid;
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

/// Executor-specific routing state consulted while a plan is built. The
/// concurrent executor implements this over its catalog (one read lock for
/// the whole plan); the single-threaded instance implements it over its
/// own registries.
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

/// Key of one staged artifact inside the planner's overlay (tables
/// case-insensitive, CSV paths case-sensitive — mirroring
/// [`crate::staging::StagingArea`]).
fn overlay_key(name: &str, kind: StagedKind) -> String {
    match kind {
        StagedKind::Table => format!("t:{}", name.to_ascii_lowercase()),
        StagedKind::Csv => format!("f:{name}"),
    }
}

/// Record a commit/discard consuming a staged name: an uncertain name
/// stays uncertain (the consumer itself went sequential and may fail),
/// everything else reads as free afterwards.
fn consume(overlay: &mut HashMap<String, Overlay>, key: &str) {
    match overlay.get(key) {
        Some(Overlay::Uncertain) => {}
        _ => {
            overlay.insert(key.to_string(), Overlay::Consumed);
        }
    }
}

/// A staged name's plan-time resolution: the batch overlay first, the
/// router's live state otherwise.
fn name_state(
    overlay: &HashMap<String, Overlay>,
    router: &dyn BatchRouter,
    name: &str,
    kind: StagedKind,
) -> NameState {
    match overlay.get(&overlay_key(name, kind)) {
        Some(Overlay::Staged(key)) => NameState::Held {
            shard: key.clone(),
            in_batch: true,
        },
        // A consumed name reads as free: if the consuming commit/discard
        // fails at runtime, a checkout reusing the name fails with the
        // same "already staged" error the sequential loop produces.
        Some(Overlay::Consumed) => NameState::Free,
        Some(Overlay::Uncertain) => NameState::Unknown,
        None => match router.staged_shard(name, kind) {
            Some(key) => NameState::Held {
                shard: key,
                in_batch: false,
            },
            None => NameState::Free,
        },
    }
}

/// Route one checkout-style request and leave its mark on the overlay.
fn route_checkout(
    overlay: &mut HashMap<String, Overlay>,
    router: &dyn BatchRouter,
    cvd: &str,
    kind: StagedKind,
    name: &str,
) -> Option<ShardKey> {
    let shard = router
        .has_cvd(cvd)
        .then(|| ShardKey::Cvd(cvd.to_ascii_lowercase()));
    match name_state(overlay, router, name, kind) {
        // The normal case: the name is free, the checkout claims it
        // (subject to the checkout succeeding — a later commit routed
        // here then fails NotStaged inside the shard, exactly like the
        // sequential loop).
        NameState::Free => {
            if let Some(key) = &shard {
                overlay.insert(overlay_key(name, kind), Overlay::Staged(key.clone()));
            }
            shard
        }
        // Already staged before the batch: the checkout deterministically
        // fails "already staged" in its own shard's reservation phase.
        // The overlay is NOT touched — later references keep resolving to
        // the real holder.
        NameState::Held {
            in_batch: false, ..
        } => shard,
        // Staged by an earlier checkout of this same batch: whether this
        // one succeeds depends on that one's runtime outcome. Go
        // sequential (the barrier flushes the earlier checkout's
        // sub-batch first, so execution order is exactly sequential) and
        // poison the name for everything after.
        NameState::Held { in_batch: true, .. } | NameState::Unknown => {
            overlay.insert(overlay_key(name, kind), Overlay::Uncertain);
            None
        }
    }
}

/// A batch execution plan: the schedule ([`BatchPlan::steps`]) plus scan
/// coalescing hints ([`BatchPlan::shared_scans`]). Build once per batch
/// with [`BatchPlan::build`]; the plan holds indices into the request
/// slice it was built from.
#[derive(Debug)]
pub struct BatchPlan {
    steps: Vec<Step>,
    /// (lower-cased CVD, version list) → number of checkouts in the batch
    /// materializing exactly that version set.
    scan_counts: HashMap<(String, Vec<Vid>), usize>,
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

/// A staged name's plan-time resolution, combining `router` state with the
/// batch overlay.
enum NameState {
    /// Not staged anywhere the planner can see.
    Free,
    /// Staged in `shard`; `in_batch` says an earlier request of this batch
    /// staged it (so the claim only holds if that request succeeds).
    Held { shard: ShardKey, in_batch: bool },
    /// Unknowable at plan time.
    Unknown,
}

impl BatchPlan {
    /// Partition `requests` into per-shard sub-batches separated by
    /// sequential barriers. Staged-artifact targets (`commit`, `discard`)
    /// resolve through `router` *overlaid with the batch itself*: a commit
    /// of a table checked out earlier in the same batch routes to the
    /// checkout's shard even though nothing is staged yet at plan time.
    /// References whose routing would depend on a runtime outcome — e.g.
    /// two checkouts staging the same name in one batch — fall back to
    /// sequential barriers, which execute in exact submission order.
    pub fn build(requests: &[Request], router: &dyn BatchRouter) -> BatchPlan {
        let mut steps: Vec<Step> = Vec::new();
        // Shard groups accumulated since the last barrier, in order of
        // first appearance. A shard may hold two groups: a read-only one
        // (reads before the first write to that shard in this region) and
        // a writing one.
        let mut open: Vec<(ShardKey, bool, Vec<usize>)> = Vec::new();
        let mut overlay: HashMap<String, Overlay> = HashMap::new();
        let mut scan_counts: HashMap<(String, Vec<Vid>), usize> = HashMap::new();

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
            let route: Option<ShardKey> = match request {
                Request::Checkout(c) => {
                    route_checkout(&mut overlay, router, &c.cvd, StagedKind::Table, &c.table)
                }
                Request::CheckoutCsv(c) => {
                    route_checkout(&mut overlay, router, &c.cvd, StagedKind::Csv, &c.path)
                }
                _ => match request.target() {
                    Target::Catalog(_) => None,
                    Target::Cvd(cvd) => router
                        .has_cvd(cvd)
                        .then(|| ShardKey::Cvd(cvd.to_ascii_lowercase())),
                    Target::StagedTable(name) => {
                        match name_state(&overlay, router, name, StagedKind::Table) {
                            NameState::Held { shard, .. } => Some(shard),
                            NameState::Free | NameState::Unknown => None,
                        }
                    }
                    Target::StagedCsv(path) => {
                        match name_state(&overlay, router, path, StagedKind::Csv) {
                            NameState::Held { shard, .. } => Some(shard),
                            NameState::Free | NameState::Unknown => None,
                        }
                    }
                    // The router resolves the statement against the live
                    // catalog; staged tables checked out earlier in this
                    // same batch are invisible to it, so their names are
                    // resolved through the overlay on top. A statement on
                    // a fresh checkout must join that shard's group —
                    // ordered against the checkout and the commit — not
                    // the auxiliary group; names landing on two different
                    // shards make it cross-shard, which goes sequential —
                    // as does an unlexable statement, whose error its
                    // execution surfaces.
                    Target::Sql(run) => run.lexed().ok().and_then(|sql| {
                        let mut resolved = router.sql_shard(sql)?;
                        for name in sql.idents() {
                            let state = name_state(&overlay, router, name, StagedKind::Table);
                            if let NameState::Held { shard, .. } = state {
                                if resolved == ShardKey::Aux {
                                    resolved = shard;
                                } else if resolved != shard {
                                    return None;
                                }
                            }
                        }
                        Some(resolved)
                    }),
                },
            };

            // Consumption marks and the scan-coalescing counts.
            match request {
                Request::Checkout(c) if !c.versions.is_empty() => {
                    *scan_counts
                        .entry((c.cvd.to_ascii_lowercase(), c.versions.clone()))
                        .or_insert(0) += 1;
                }
                Request::CheckoutCsv(c) if !c.versions.is_empty() => {
                    *scan_counts
                        .entry((c.cvd.to_ascii_lowercase(), c.versions.clone()))
                        .or_insert(0) += 1;
                }
                Request::Commit(c) => {
                    consume(&mut overlay, &overlay_key(&c.table, StagedKind::Table));
                }
                Request::Discard(d) => {
                    consume(&mut overlay, &overlay_key(&d.table, StagedKind::Table));
                }
                Request::CommitCsv(c) => {
                    consume(&mut overlay, &overlay_key(&c.path, StagedKind::Csv));
                }
                _ => {}
            }

            match route {
                Some(key) => {
                    // A read joins its shard's read-only group only while
                    // no write to that shard is open: a read *after* a
                    // write must observe it, so it rides in the write
                    // group instead.
                    let write_open = open.iter().any(|(k, ro, _)| *k == key && !*ro);
                    let read_only = is_read_only(request) && !write_open;
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
        BatchPlan { steps, scan_counts }
    }

    /// The execution schedule. Every request index appears in exactly one
    /// step.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// How many checkouts in the batch materialize exactly this
    /// (CVD, version list) pair — the hint behind the shared-scan fast
    /// path: a count above one means the version rows are worth caching.
    pub fn shared_scans(&self, cvd: &str, versions: &[Vid]) -> usize {
        self.scan_counts
            .get(&(cvd.to_ascii_lowercase(), versions.to_vec()))
            .copied()
            .unwrap_or(0)
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
        // Three checkouts of (cvd, v1) split 2/1 across the CVDs.
        assert_eq!(plan.shared_scans("a", &[Vid(1)]), 2);
        assert_eq!(plan.shared_scans("B", &[Vid(1)]), 1);
        assert_eq!(plan.shared_scans("a", &[Vid(2)]), 0);
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
}

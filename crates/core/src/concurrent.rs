//! Multi-user sessions over one shared OrpheusDB instance, with
//! **two-level locking**: a catalog lock for instance-wide state plus one
//! lock per CVD.
//!
//! The paper's deployment has many data scientists talking to one
//! PostgreSQL through the middleware; each user sees their own identity
//! (for the access controller's only-the-owner-may-touch-a-checkout rule,
//! Section 2.3) while commits and checkouts interleave safely. Earlier
//! revisions guarded the whole instance with a single `RwLock<OrpheusDB>`,
//! which made commits to *different* CVDs serialize behind each other.
//! This module removes that bottleneck:
//!
//! * [`SharedOrpheusDB`] splits the instance into **shards** — one
//!   single-CVD [`OrpheusDB`] per CVD (its backing tables, version graph,
//!   and staged artifacts), plus an *auxiliary* shard for tables that
//!   belong to no CVD. Each shard sits behind its own lock.
//! * The **catalog lock** guards instance-wide state: the user registry,
//!   the CVD registry (create/drop), the instance configuration, and the
//!   staged-name index that maps checkout tables and exported CSVs to the
//!   CVD they came from.
//! * [`ConcurrentExecutor`] routes every [`Request`] to the right lock via
//!   [`Request::kind`] + [`Request::target`]: catalog requests take the
//!   catalog lock, CVD-addressed requests take one CVD's lock, staged
//!   requests resolve through the index, and SQL is analyzed for the CVDs
//!   it touches. Commits, checkouts, and diffs against different CVDs run
//!   in parallel; writers to the same CVD still serialize.
//! * [`Session`] is the same type under its user-facing name: an executor
//!   bound to one user. Identity-swap semantics are per-request: the
//!   engine logs the request's user into the shard for the duration of one
//!   operation and restores the previous identity afterwards, so
//!   interleaved sessions can never observe or act under each other's
//!   identity.
//!
//! # MVCC snapshot reads
//!
//! Every shard additionally publishes an immutable **snapshot** of its
//! last acknowledged state through an epoch-swap cell
//! ([`parking_lot::ArcSwap`]): a write guard republishes the shard on
//! release, and read-only requests — diffs, `version_rows`, `log`,
//! single- and multi-CVD `SELECT`s — clone the snapshot instead of taking
//! the shard lock, so they never wait on a commit in flight: they observe
//! the epoch published by the last *completed* writer. A checkout
//! *creates* a table (the paper's `SELECT … INTO T'`), so it is a writer
//! like commit, discard, `optimize` and writing SQL: it takes its shard's
//! lock. See `docs/CONCURRENCY.md` for the full contract.
//!
//! What that costs: **publishing** is an O(tables) clone (a table is
//! three `Arc`s; version metadata, rlists and staging entries are
//! `Arc`-shared per element). The **first write after a publish** copies
//! the chunk directories of the table it touches and then only the heap
//! chunks and index leaves it lands in (see `orpheus_engine::table`) —
//! for a commit, the tail of the data table, not the CVD. A **snapshot
//! read** is another O(tables) clone plus the rows it returns. What
//! still grows with history is pointer copies — one per version, one per
//! 64 rows of a written table — never rows, index entries or metadata.
//!
//! ```
//! use orpheus_core::{OrpheusDB, SharedOrpheusDB, Vid};
//! use orpheus_engine::{Column, DataType, Schema};
//! # fn main() -> orpheus_core::Result<()> {
//! let mut odb = OrpheusDB::new();
//! let schema = Schema::new(vec![Column::new("k", DataType::Int)])
//!     .with_primary_key(&["k"])
//!     .unwrap();
//! odb.init_cvd("data", schema, vec![vec![1.into()], vec![2.into()]], None)?;
//!
//! let shared = SharedOrpheusDB::new(odb);
//! let alice = shared.session("alice")?;
//! // A checkout writes a staged table: it takes the `data` shard's lock.
//! alice.checkout("data", &[Vid(1)], "work")?;
//! // These are snapshot reads: they complete even while another
//! // session's commit holds that lock.
//! assert_eq!(alice.version_rows("data", Vid(1))?.len(), 2);
//! let d = alice.diff("data", Vid(1), Vid(1))?;
//! assert!(d.only_in_first.is_empty() && d.only_in_second.is_empty());
//! alice.discard("work")?;
//! # Ok(())
//! # }
//! ```
//!
//! # Lock order
//!
//! **Catalog before CVD, and multiple CVD locks only in sorted key order
//! with the auxiliary shard last** (the instance-wide quiesce paths do so
//! holding the catalog lock exclusively; cross-CVD write transactions do
//! so holding it shared). Internal single-shard paths release the catalog
//! lock before blocking on a CVD lock, so a stalled commit on one CVD
//! cannot back up into the catalog. A thread-local counter enforces the
//! order in debug builds: acquiring the catalog lock while holding any
//! CVD lock — or reentering the catalog lock — panics loudly instead of
//! deadlocking silently (see [`SharedOrpheusDB::read`] /
//! [`SharedOrpheusDB::write`]).
//!
//! # Cross-CVD SQL
//!
//! A statement that touches a single CVD (the overwhelmingly common case)
//! runs under that CVD's lock alone. A read-only `SELECT` spanning
//! several CVDs runs against a merged snapshot of the involved shards. A
//! *writing* statement spanning CVDs runs as a **cross-CVD write
//! transaction**: the involved shard locks are taken in sorted key order
//! (auxiliary shard last) under a shared catalog lock, the shards are
//! merged, the statement executes once against the merged state, and the
//! shards are split back — atomically with respect to every other path,
//! which always sees either all of the statement's effects or none.
//!
//! # One request engine
//!
//! Every request — a single [`Executor::execute`], a
//! [`ConcurrentExecutor::execute_batch`], a sub-batch on an async worker
//! ([`crate::async_exec`]) — runs through the same crate-internal engine,
//! `ConcurrentExecutor::run_items`: reservations for every checkout of the
//! sub-batch in one catalog write, the requests under one shard-lock
//! acquisition (identity-swapped per request owner, so one sub-batch may
//! carry work from several sessions) or on one snapshot clone when all of
//! them are reads, and the staged-index bookkeeping in one closing catalog
//! write. A panic inside a request is contained there: the panicking
//! request and the rest of its sub-batch fail with
//! [`CoreError::WorkerPanicked`], reservations are released, and the shard
//! itself stays usable (the shim locks do not poison). What no single
//! shard can serve — catalog requests, SQL spanning shards — runs on its
//! own, as a barrier between sub-batches
//! (`ConcurrentExecutor::execute_as`).

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

use parking_lot::{ArcSwap, RwLock};

use orpheus_engine::sql::lexer::Token;
use orpheus_engine::{EngineError, QueryResult, Value};

use crate::access::AccessController;
use crate::batch::{BatchPlan, BatchRouter, ShardKey, Step};
use crate::db::{OrpheusConfig, OrpheusDB, VersionDiff};
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::partition_store::OptimizeReport;
use crate::query::Lexed;
use crate::request::{Checkout, Commit, Diff, Discard, Executor, Optimize, Request, Run, Target};
use crate::response::Response;
use crate::staging::StagedKind;
use crate::wal::{WalOp, WalSink};

// ---------------------------------------------------------------------------
// Lock-order enforcement.
// ---------------------------------------------------------------------------

thread_local! {
    /// `(catalog locks held, CVD locks held)` by this thread.
    static LOCKS_HELD: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// RAII record of one lock acquisition, maintaining the thread-local
/// counters that make lock-order violations panic in debug builds.
struct LockToken {
    catalog: bool,
}

impl LockToken {
    /// Note a catalog acquisition. Panics (debug builds) when the thread
    /// already holds a CVD lock (order is catalog → CVD) or the catalog
    /// lock itself (it is not reentrant).
    fn catalog() -> LockToken {
        let (catalog, shard) = LOCKS_HELD.with(Cell::get);
        debug_assert_eq!(
            shard, 0,
            "lock-order violation: the catalog lock must be acquired before any \
             CVD lock (catalog → CVD), but this thread already holds {shard} CVD lock(s)"
        );
        debug_assert_eq!(
            catalog, 0,
            "lock-order violation: the catalog lock is not reentrant — do not call \
             SharedOrpheusDB or Session operations from inside a `write` closure"
        );
        LOCKS_HELD.with(|c| c.set((catalog + 1, shard)));
        LockToken { catalog: true }
    }

    /// Note a CVD (shard) acquisition. Multiple shard locks are only ever
    /// held by snapshot paths, which acquire them in sorted key order
    /// under an exclusive catalog lock.
    fn shard() -> LockToken {
        let (catalog, shard) = LOCKS_HELD.with(Cell::get);
        LOCKS_HELD.with(|c| c.set((catalog, shard + 1)));
        LockToken { catalog: false }
    }
}

impl Drop for LockToken {
    fn drop(&mut self) {
        LOCKS_HELD.with(|c| {
            let (catalog, shard) = c.get();
            if self.catalog {
                c.set((catalog - 1, shard));
            } else {
                c.set((catalog, shard - 1));
            }
        });
    }
}

/// A lock guard bundled with its [`LockToken`].
struct Held<G> {
    guard: G,
    _token: LockToken,
}

impl<G: Deref> Deref for Held<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Held<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

// ---------------------------------------------------------------------------
// Shards and the catalog.
// ---------------------------------------------------------------------------

/// One CVD's state behind its own lock: a single-CVD [`OrpheusDB`] holding
/// the CVD's backing tables, version graph, and staged artifacts — plus
/// the shard's published MVCC snapshot (see the module docs).
#[derive(Debug)]
struct Shard {
    /// Set when the shard has been replaced (instance-wide `write`) or its
    /// CVD dropped. Operations that acquired the shard `Arc` before the
    /// replacement re-resolve through the catalog instead of mutating
    /// orphaned state.
    retired: AtomicBool,
    db: RwLock<OrpheusDB>,
    /// The shard's last acknowledged state, republished by every
    /// [`ShardWriteGuard`] on release. Read-only paths clone this instead
    /// of taking `db`'s lock, so they never wait on a writer.
    snapshot: ArcSwap<OrpheusDB>,
}

impl Shard {
    fn new(db: OrpheusDB) -> Arc<Shard> {
        Arc::new(Shard {
            retired: AtomicBool::new(false),
            snapshot: ArcSwap::new(Arc::new(db.clone())),
            db: RwLock::new(db),
        })
    }

    fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
    }

    fn is_retired(&self) -> bool {
        self.retired.load(Ordering::SeqCst)
    }

    /// Acquire the shard's write lock. The returned guard republishes the
    /// snapshot when dropped, so everything a writer acknowledged is
    /// visible to subsequent snapshot reads.
    fn write(&self) -> ShardWriteGuard<'_> {
        let token = LockToken::shard();
        ShardWriteGuard {
            shard: self,
            guard: self.db.write(),
            _token: token,
        }
    }

    /// A private clone of this shard's MVCC snapshot, the last published
    /// epoch. No shard lock is taken, so a commit holding the write lock
    /// never delays this. Costs O(tables): the epoch's tables, versions
    /// and staging entries are all `Arc`-shared, so the clone copies
    /// pointers, not rows.
    fn load_snapshot(&self) -> OrpheusDB {
        OrpheusDB::clone(&self.snapshot.load())
    }
}

/// Write guard of a [`Shard`] that maintains the MVCC snapshot: the new
/// epoch is published on release — an O(tables) clone, because
/// everything under a table, a version list or the staging area is
/// `Arc`-shared with the shard proper.
struct ShardWriteGuard<'a> {
    shard: &'a Shard,
    guard: std::sync::RwLockWriteGuard<'a, OrpheusDB>,
    _token: LockToken,
}

impl Deref for ShardWriteGuard<'_> {
    type Target = OrpheusDB;
    fn deref(&self) -> &OrpheusDB {
        &self.guard
    }
}

impl DerefMut for ShardWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut OrpheusDB {
        &mut self.guard
    }
}

impl Drop for ShardWriteGuard<'_> {
    fn drop(&mut self) {
        // A retired shard is unreachable (quiesced into a rebuild or
        // dropped); publishing its emptied state would only confuse a
        // racing snapshot reader's retire re-check.
        if !self.shard.is_retired() {
            self.shard
                .snapshot
                .store(Arc::new(OrpheusDB::clone(&self.guard)));
        }
    }
}

/// Key of the auxiliary shard in the staged-name index (tables that were
/// staged for a CVD that no longer exists live in the auxiliary shard).
const AUX_KEY: &str = "";

/// Instance-wide state behind the catalog lock.
#[derive(Debug)]
struct Catalog {
    /// User registry and the *instance-level* identity (sessions carry
    /// their own identities; this is what non-session tooling sees).
    access: AccessController,
    config: OrpheusConfig,
    /// One shard per CVD, keyed by lower-cased CVD name. `BTreeMap` so
    /// snapshot paths acquire shard locks in a deterministic sorted order.
    shards: BTreeMap<String, Arc<Shard>>,
    /// Tables that belong to no CVD (side tables created through plain
    /// SQL, orphaned staged artifacts).
    aux: Arc<Shard>,
    /// Staged artifact name → owning CVD key ([`AUX_KEY`] for the
    /// auxiliary shard). The routing index for `commit`/`discard` and the
    /// global uniqueness check for checkout target names.
    staged: HashMap<String, String>,
    /// Lower-cased names of the side tables that statements in flight
    /// (`SELECT … INTO`, `CREATE TABLE`) are about to create. A name leaves
    /// when its statement is over: from then on the shard's published
    /// snapshot answers for the table, if it was created.
    creating: HashSet<String>,
    /// Write-ahead log sink, shared with every shard. Catalog-level
    /// mutations (CVD create/drop, user creation) append under the
    /// catalog write lock; shard-level mutations append inside their
    /// shard's write lock via the shard instance's own handle.
    wal: Option<WalSink>,
}

impl Catalog {
    /// Refuse catalog-level mutations while the WAL sink is degraded —
    /// checked **before** any catalog state moves, so a refused drop or
    /// user creation leaves memory exactly where disk left it (the same
    /// contract [`crate::OrpheusDB`] enforces per shard).
    fn ensure_writable(&self) -> Result<()> {
        if let Some(why) = self.wal.as_ref().and_then(|wal| wal.degraded()) {
            return Err(CoreError::Degraded(why));
        }
        Ok(())
    }

    /// Index key for a staged artifact (tables case-insensitive, CSV paths
    /// case-sensitive — mirroring [`crate::staging::StagingArea`]).
    fn staged_key(name: &str, kind: StagedKind) -> String {
        match kind {
            StagedKind::Table => format!("t:{}", name.to_ascii_lowercase()),
            StagedKind::Csv => format!("f:{name}"),
        }
    }

    /// Split a whole instance into per-CVD shards plus the auxiliary
    /// shard, and build the staged-name index.
    fn from_instance(mut odb: OrpheusDB) -> Catalog {
        let mut names: Vec<String> = odb.cvds.keys().cloned().collect();
        names.sort();
        let mut shards = BTreeMap::new();
        let mut staged = HashMap::new();
        for name in names {
            let shard_db = odb
                .detach_cvd(&name)
                // `name` was just read from `odb.cvds`, and the CVD's
                // tables and staged entries move into a fresh, empty
                // instance: neither the lookup nor an insert can fail.
                .expect("detaching a listed CVD into an empty shard cannot fail");
            for entry in shard_db.staged() {
                staged.insert(Catalog::staged_key(&entry.name, entry.kind), name.clone());
            }
            shards.insert(name, Shard::new(shard_db));
        }
        // Whatever is left — side tables, orphaned staged artifacts — is
        // the auxiliary shard.
        for entry in odb.staged() {
            staged.insert(
                Catalog::staged_key(&entry.name, entry.kind),
                AUX_KEY.to_string(),
            );
        }
        let access = odb.access.clone();
        let config = odb.config.clone();
        let wal = odb.wal.clone();
        Catalog {
            access,
            config,
            shards,
            aux: Shard::new(odb),
            staged,
            creating: HashSet::new(),
            wal,
        }
    }

    fn shard(&self, cvd: &str) -> Result<Arc<Shard>> {
        self.shards
            .get(&cvd.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| CoreError::CvdNotFound(cvd.to_string()))
    }

    /// Resolve a staged-index value ([`AUX_KEY`] → auxiliary shard).
    fn shard_by_key(&self, key: &str) -> Result<Arc<Shard>> {
        if key == AUX_KEY {
            Ok(Arc::clone(&self.aux))
        } else {
            self.shard(key)
        }
    }

    /// The CVD whose `<cvd>__` table-name prefix claims `ident`, longest
    /// prefix winning (so `a__b`'s tables are never claimed by `a`).
    fn claim_by_prefix(&self, ident: &str) -> Option<String> {
        self.shards
            .keys()
            .filter(|key| {
                ident.len() > key.len() + 2
                    && ident.starts_with(key.as_str())
                    && ident[key.len()..].starts_with("__")
            })
            .max_by_key(|key| key.len())
            .cloned()
    }

    /// Reserve a staged name for a checkout targeting `cvd` — the catalog
    /// half of every checkout, keeping table names globally unique across
    /// shards without holding the catalog lock during the (expensive)
    /// materialization. Returns the staged-index key inserted; the caller
    /// must remove it again if the checkout fails.
    fn reserve(&mut self, cvd: &str, kind: StagedKind, name: &str) -> Result<String> {
        // CVD existence first (checkout against an unknown CVD is a
        // CvdNotFound error even when the name also collides).
        self.shard(cvd)?;
        let cvd_key = cvd.to_ascii_lowercase();
        let key = Catalog::staged_key(name, kind);
        if self.staged.contains_key(&key) {
            return Err(CoreError::Invalid(format!("{name} is already staged")));
        }
        if kind == StagedKind::Table {
            self.check_table_name(&cvd_key, name)?;
        }
        self.staged.insert(key.clone(), cvd_key);
        Ok(key)
    }

    /// Reserve `name` (lower-cased) for a side table a statement is about
    /// to create in the shard `cat_key` ([`AUX_KEY`] for the auxiliary
    /// shard) — the catalog half of `SELECT … INTO` and `CREATE TABLE`,
    /// under the same rule as a checkout target. The caller removes the
    /// name from `creating` again once the statement is over.
    fn reserve_side_table(&mut self, cat_key: &str, name: &str) -> Result<()> {
        let key = Catalog::staged_key(name, StagedKind::Table);
        if self.staged.contains_key(&key) {
            return Err(CoreError::Invalid(format!("{name} is already staged")));
        }
        self.check_table_name(cat_key, name)?;
        self.creating.insert(name.to_string());
        Ok(())
    }

    /// Table names must stay unique across *all* shards, or merging shards
    /// into one instance would collide. Backing tables are kept apart by
    /// the `<cvd>__` namespaces, staged tables by the staged index; what
    /// is left are side tables plain SQL created (`CREATE TABLE`,
    /// `SELECT … INTO`), which can sit in any shard. For a table about to
    /// be created in the shard `cat_key`, every *other* shard's published
    /// snapshot answers for those lock-free, and `creating` for the ones
    /// not published yet; the target shard answers for its own tables
    /// when the request runs under its lock — it alone knows what the
    /// requests queued ahead of this one will have created or dropped by
    /// then.
    fn check_table_name(&self, cat_key: &str, name: &str) -> Result<()> {
        let lower = name.to_ascii_lowercase();
        if let Some(owner) = self.claim_by_prefix(&lower) {
            return Err(CoreError::Invalid(format!(
                "table name {name} lies in CVD {owner}'s backing-table \
                 namespace ({owner}__*)"
            )));
        }
        let mut others = std::iter::once((AUX_KEY, &self.aux))
            .chain(self.shards.iter().map(|(key, shard)| (key.as_str(), shard)))
            .filter(|(key, _)| *key != cat_key);
        if self.creating.contains(&lower)
            || others.any(|(_, shard)| shard.snapshot.load().engine.has_table(&lower))
        {
            return Err(CoreError::Invalid(format!("table {name} already exists")));
        }
        Ok(())
    }

    /// Merged read snapshot of `shards` plus the auxiliary shard, built
    /// from each shard's published MVCC snapshot — no shard locks, so a
    /// commit in flight never delays it. Each shard's contribution is its
    /// last *acknowledged* state (individually consistent); a writer still
    /// inside its critical section is simply not visible yet.
    fn merge_snapshots<'a>(&self, shards: impl Iterator<Item = &'a Arc<Shard>>) -> OrpheusDB {
        let mut merged = self.aux.load_snapshot();
        merged.access = self.access.clone();
        merged.config = self.config.clone();
        for shard in shards {
            merged
                .absorb(shard.load_snapshot())
                // Shards hold disjoint CVDs by construction. Their table
                // names are disjoint because backing tables live in
                // `<cvd>__` namespaces, staged tables are unique through
                // the staged index, and `Catalog::check_table_name` refuses
                // a checkout, a `SELECT … INTO` or a `CREATE TABLE` whose
                // target is the name of a side table of another shard.
                .expect("disjoint shards merge without collisions");
        }
        merged
    }

    /// Merged read snapshot of the whole instance.
    fn merged_snapshot(&self) -> OrpheusDB {
        self.merge_snapshots(self.shards.values())
    }

    /// Merged snapshot of a *subset* of shards (plus the auxiliary shard),
    /// for read-only SQL spanning several CVDs. Keys whose CVD was dropped
    /// since the statement was analyzed are skipped; the statement then
    /// fails on the missing table.
    fn merged_subset(&self, keys: &BTreeSet<String>) -> OrpheusDB {
        self.merge_snapshots(keys.iter().filter_map(|k| self.shards.get(k)))
    }

    /// Quiesce every shard (write locks in sorted order), retire them, and
    /// move all state back into one instance. Caller holds the catalog
    /// lock exclusively and rebuilds the catalog afterwards.
    fn take_all(&mut self) -> OrpheusDB {
        let arcs: Vec<Arc<Shard>> = self.shards.values().cloned().collect();
        let mut guards: Vec<_> = arcs.iter().map(|s| s.write()).collect();
        let mut aux_guard = self.aux.write();
        // Retire while still holding the write guards: an operation
        // blocked on a shard lock observes `retired` the moment it gets
        // through, instead of running against the emptied shard.
        for arc in &arcs {
            arc.retire();
        }
        self.aux.retire();
        let mut merged = std::mem::take(&mut *aux_guard);
        merged.access = self.access.clone();
        merged.config = self.config.clone();
        for guard in guards.iter_mut() {
            merged
                .absorb(std::mem::take(&mut **guard))
                // Same invariant as `Catalog::merge_snapshots`.
                .expect("disjoint shards merge without collisions");
        }
        merged
    }
}

// ---------------------------------------------------------------------------
// The shared instance.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Inner {
    catalog: RwLock<Catalog>,
}

impl Inner {
    fn catalog_read(&self) -> Held<impl Deref<Target = Catalog> + '_> {
        let token = LockToken::catalog();
        Held {
            guard: self.catalog.read(),
            _token: token,
        }
    }

    fn catalog_write(&self) -> Held<impl DerefMut<Target = Catalog> + '_> {
        let token = LockToken::catalog();
        Held {
            guard: self.catalog.write(),
            _token: token,
        }
    }

    /// Build a [`BatchPlan`] for `requests` under one catalog read.
    fn plan(&self, requests: &[Request]) -> BatchPlan {
        let cat = self.catalog_read();
        BatchPlan::build(requests, &CatalogRouter { catalog: &cat })
    }

    /// Resolve a staged-index value to its shard. The catalog lock is
    /// released before returning, so callers never block on a shard lock
    /// while holding it.
    fn shard_by_key(&self, key: &str) -> Result<Arc<Shard>> {
        self.catalog_read().shard_by_key(key)
    }
}

/// A thread-safe, shareable OrpheusDB instance with per-CVD locking (see
/// the module docs for the locking model).
#[derive(Debug, Clone)]
pub struct SharedOrpheusDB {
    inner: Arc<Inner>,
}

impl Default for SharedOrpheusDB {
    fn default() -> SharedOrpheusDB {
        SharedOrpheusDB::new(OrpheusDB::default())
    }
}

impl SharedOrpheusDB {
    /// Wrap an instance for shared use, splitting it into one shard per
    /// CVD so operations on different CVDs execute in parallel.
    pub fn new(odb: OrpheusDB) -> SharedOrpheusDB {
        SharedOrpheusDB {
            inner: Arc::new(Inner {
                catalog: RwLock::new(Catalog::from_instance(odb)),
            }),
        }
    }

    /// Open a session for `user`, registering the account if it does not
    /// exist yet (the `create_user` + `config` flow in one step).
    pub fn session(&self, user: &str) -> Result<Session> {
        self.executor(user)
    }

    /// A [`ConcurrentExecutor`] for `user`, registering the account if
    /// needed ([`SharedOrpheusDB::session`] under its bus-level name).
    pub fn executor(&self, user: &str) -> Result<ConcurrentExecutor> {
        {
            let mut cat = self.inner.catalog_write();
            cat.access.ensure_user(user)?;
        }
        Ok(ConcurrentExecutor {
            inner: Arc::clone(&self.inner),
            user: user.to_string(),
        })
    }

    /// Run a closure against a consistent read snapshot of the instance
    /// (administrative escape hatch; sessions are the normal path).
    ///
    /// Lock order: takes the catalog lock, then every CVD lock in sorted
    /// order — all released *before* the closure runs, so the closure sees
    /// an immutable merged copy and may freely call back into the shared
    /// instance. The cost is proportional to the instance size; do not
    /// put this on a hot path.
    pub fn read<T>(&self, f: impl FnOnce(&OrpheusDB) -> T) -> T {
        let merged = self.inner.catalog_read().merged_snapshot();
        f(&merged)
    }

    /// Run a closure with exclusive access to the whole instance
    /// (administrative escape hatch; sessions are the normal path).
    ///
    /// Lock order: catalog lock first, then every CVD lock in sorted key
    /// order; the shards are quiesced, merged into one instance, handed to
    /// the closure, and re-split afterwards. The catalog lock is held for
    /// the closure's whole duration — calling any `SharedOrpheusDB` or
    /// [`Session`] operation from inside the closure is a lock-order
    /// violation and panics in debug builds (it would deadlock in
    /// release).
    pub fn write<T>(&self, f: impl FnOnce(&mut OrpheusDB) -> T) -> T {
        let mut cat = self.inner.catalog_write();
        let mut merged = cat.take_all();
        // Index entries with no matching staged artifact at quiesce time
        // are in-flight *reservations*: a checkout resolved its shard
        // before this rebuild and will materialize right after it. They
        // must survive the rebuild (whose index comes from shard staging
        // alone), or the finished checkout would be unroutable and its
        // name leaked forever. Materialized entries are NOT carried — the
        // rebuilt index reflects whatever the closure did to them.
        let materialized: std::collections::HashSet<String> = merged
            .staged()
            .iter()
            .map(|e| Catalog::staged_key(&e.name, e.kind))
            .collect();
        let reservations: Vec<(String, String)> = cat
            .staged
            .iter()
            .filter(|(key, _)| !materialized.contains(*key))
            .map(|(key, cvd)| (key.clone(), cvd.clone()))
            .collect();
        let out = f(&mut merged);
        *cat = Catalog::from_instance(merged);
        for (key, cvd) in reservations {
            if !cat.staged.contains_key(&key) && (cvd == AUX_KEY || cat.shards.contains_key(&cvd)) {
                cat.staged.insert(key, cvd);
            }
        }
        out
    }

    /// Build a [`BatchPlan`] for `requests` under one catalog read — the
    /// routing step the async executor's coordinator runs per chunk
    /// ([`crate::async_exec::AsyncExecutor`]).
    pub(crate) fn plan_batch(&self, requests: &[Request]) -> BatchPlan {
        self.inner.plan(requests)
    }

    /// The instance-level identity (what non-session tooling operates as).
    pub fn instance_user(&self) -> String {
        let cat = self.inner.catalog_read();
        cat.access.whoami().to_string()
    }

    /// A [`ConcurrentExecutor`] without user registration — for internal
    /// plumbing (async workers) whose own identity never executes
    /// anything. [`SharedOrpheusDB::executor`] is the public path.
    pub(crate) fn internal_executor(&self, user: &str) -> ConcurrentExecutor {
        ConcurrentExecutor {
            inner: Arc::clone(&self.inner),
            user: user.to_string(),
        }
    }

    /// The write-ahead log sink, when this instance was opened through
    /// [`crate::recovery::open_shared`] — a cheap peek (catalog read
    /// lock only) used to decide whether a checkpoint is due without
    /// quiescing anything. Public so operators (and fault-injection
    /// tests) can arm faults or inspect degraded state on a served
    /// instance.
    pub fn wal_sink(&self) -> Option<WalSink> {
        let cat = self.inner.catalog_read();
        cat.wal.clone()
    }

    /// The recorded I/O failure when the WAL sink has degraded the
    /// instance to read-only, `None` while healthy (or without a WAL).
    pub fn degraded(&self) -> Option<String> {
        self.wal_sink().and_then(|sink| sink.degraded())
    }

    /// Persist a consistent instance snapshot (see [`crate::persist`]).
    pub fn save_to(&self, path: &std::path::Path) -> Result<()> {
        let merged = self.inner.catalog_read().merged_snapshot();
        merged.save_to(path)
    }

    /// Restore a shared instance previously saved with
    /// [`SharedOrpheusDB::save_to`] (or [`OrpheusDB::save_to`]).
    pub fn load_from(path: &std::path::Path) -> Result<SharedOrpheusDB> {
        Ok(SharedOrpheusDB::new(OrpheusDB::load_from(path)?))
    }
}

// ---------------------------------------------------------------------------
// The request engine.
// ---------------------------------------------------------------------------

/// Swap the shard's identity to `user` for the duration of one operation,
/// restoring the previous identity afterwards — the per-request
/// identity-swap that keeps ownership checks session-scoped.
fn under_identity<T>(
    odb: &mut OrpheusDB,
    user: &str,
    f: impl FnOnce(&mut OrpheusDB) -> Result<T>,
) -> Result<T> {
    odb.access.ensure_user(user)?;
    let prior = odb.access.whoami().to_string();
    odb.access.login(user)?;
    let result = f(odb);
    // Restore the shard-level identity regardless of the outcome.
    let _ = odb.access.login(&prior);
    result
}

/// The CVD keys a statement touches ([`AUX_KEY`] never among them): `CVD
/// <name>` patterns, staged-table names, and backing-table names
/// (`<cvd>__...`). A name is looked up as a table even where it also
/// follows `CVD`: naming a shard too many costs a wider snapshot or lock
/// set, naming one too few a wrong answer.
fn analyze_sql(cat: &Catalog, sql: &Lexed) -> Result<BTreeSet<String>> {
    let mut cvds = BTreeSet::new();
    for pair in sql.tokens().windows(2) {
        if let [cvd_kw, Token::Ident(name)] = pair {
            if cvd_kw.is_kw("cvd") {
                let key = name.to_ascii_lowercase();
                if !cat.shards.contains_key(&key) {
                    return Err(CoreError::CvdNotFound(name.clone()));
                }
                cvds.insert(key);
            }
        }
    }
    for name in sql.idents() {
        let key = name.to_ascii_lowercase();
        if let Some(cvd) = cat
            .staged
            .get(&Catalog::staged_key(&key, StagedKind::Table))
        {
            if cvd != AUX_KEY {
                cvds.insert(cvd.clone());
            }
        } else if let Some(cvd) = cat.claim_by_prefix(&key) {
            cvds.insert(cvd);
        }
    }
    Ok(cvds)
}

/// Fast-path flag for the panic-injection test hook below: checked with
/// one relaxed atomic load per sub-batch request, so the hook costs
/// nothing when disarmed (the overwhelmingly common case).
static PANIC_HOOK_ARMED: AtomicBool = AtomicBool::new(false);
/// Staged-table name that makes sub-batch execution panic right before
/// the matching checkout runs (see [`arm_checkout_panic`]).
static PANIC_HOOK_NAME: StdMutex<Option<String>> = StdMutex::new(None);

/// Test-only: make any sub-batch worker panic immediately before it
/// executes a checkout into `table`. This exercises the panic containment
/// of the request engine (`execute_items`, and through it the async
/// executor's worker poisoning) with a real unwinding panic instead of a
/// simulated error. Disarm with [`disarm_checkout_panic`].
#[doc(hidden)]
pub fn arm_checkout_panic(table: &str) {
    *PANIC_HOOK_NAME.lock().unwrap_or_else(|e| e.into_inner()) = Some(table.to_string());
    PANIC_HOOK_ARMED.store(true, Ordering::SeqCst);
}

/// Test-only: disarm [`arm_checkout_panic`].
#[doc(hidden)]
pub fn disarm_checkout_panic() {
    PANIC_HOOK_ARMED.store(false, Ordering::SeqCst);
    *PANIC_HOOK_NAME.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Fire the injected panic if the hook is armed for this checkout target.
fn maybe_injected_panic(request: &Request) {
    if !PANIC_HOOK_ARMED.load(Ordering::Relaxed) {
        return;
    }
    if let Request::Checkout(c) = request {
        let armed = PANIC_HOOK_NAME.lock().unwrap_or_else(|e| e.into_inner());
        if armed.as_deref() == Some(c.table.as_str()) {
            panic!("injected worker panic on checkout into {}", c.table);
        }
    }
}

/// State of the commit-gate test hook (see [`arm_commit_gate`]).
struct CommitGate {
    table: String,
    entered: bool,
    released: bool,
}

/// Fast-path flag mirroring [`PANIC_HOOK_ARMED`]: one relaxed load per
/// commit when disarmed.
static COMMIT_GATE_ARMED: AtomicBool = AtomicBool::new(false);
static COMMIT_GATE: StdMutex<Option<CommitGate>> = StdMutex::new(None);
static COMMIT_GATE_CV: std::sync::Condvar = std::sync::Condvar::new();

/// Test/bench hook: hold the next `commit` of staged table `table` open
/// **mid-flight, inside the shard's write lock**, until the returned
/// handle is released (or dropped). This is the deterministic way to
/// prove MVCC snapshot reads: arm the gate, start the commit on another
/// thread, [`CommitGateHandle::wait_entered`], perform diffs and SELECTs
/// against the same CVD (they complete — they never touch the held lock;
/// a checkout, from this thread, would wait for the release forever),
/// then [`CommitGateHandle::release`]. Also powers the
/// torn-read tests: a reader during the held window sees the *old* graph,
/// a reader after the commit acknowledges sees the *new* one, never a
/// mixture.
#[doc(hidden)]
pub fn arm_commit_gate(table: &str) -> CommitGateHandle {
    *COMMIT_GATE.lock().unwrap_or_else(|e| e.into_inner()) = Some(CommitGate {
        table: table.to_string(),
        entered: false,
        released: false,
    });
    COMMIT_GATE_ARMED.store(true, Ordering::SeqCst);
    CommitGateHandle { _private: () }
}

/// RAII handle of [`arm_commit_gate`]; dropping it releases the gate.
#[doc(hidden)]
pub struct CommitGateHandle {
    _private: (),
}

impl CommitGateHandle {
    /// Block until a committer is parked inside the gate (holding its
    /// shard's write lock), or the gate was already released.
    pub fn wait_entered(&self) {
        let mut gate = COMMIT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        while gate.as_ref().is_some_and(|g| !g.entered && !g.released) {
            gate = COMMIT_GATE_CV.wait(gate).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Release the held committer and disarm the gate.
    pub fn release(&self) {
        let mut gate = COMMIT_GATE.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(g) = gate.as_mut() {
            g.released = true;
        }
        COMMIT_GATE_ARMED.store(false, Ordering::SeqCst);
        COMMIT_GATE_CV.notify_all();
    }
}

impl Drop for CommitGateHandle {
    fn drop(&mut self) {
        self.release();
    }
}

/// Called by [`OrpheusDB::commit`] with the staged table name: parks the
/// committer inside the gate when armed for that table, signalling
/// [`CommitGateHandle::wait_entered`]. A no-op (one relaxed load) when
/// disarmed.
pub(crate) fn hold_commit_if_gated(table: &str) {
    if !COMMIT_GATE_ARMED.load(Ordering::Relaxed) {
        return;
    }
    let mut gate = COMMIT_GATE.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        match gate.as_mut() {
            Some(g) if g.table.eq_ignore_ascii_case(table) && !g.released => {
                if !g.entered {
                    g.entered = true;
                    COMMIT_GATE_CV.notify_all();
                }
                gate = COMMIT_GATE_CV.wait(gate).unwrap_or_else(|e| e.into_inner());
            }
            _ => return,
        }
    }
}

/// One request of a per-shard sub-batch: the identity it runs under, the
/// request itself (`None` once consumed — executed, or failed before the
/// shard was touched), and its outcome slot. The synchronous
/// [`ConcurrentExecutor::execute_batch`] and the async executor's workers
/// both feed these to [`ConcurrentExecutor::run_items`]; carrying the user
/// per item (rather than per batch) is what lets one worker execute a
/// sub-batch assembled from many sessions' submissions.
#[derive(Debug)]
pub(crate) struct SubItem {
    pub(crate) user: String,
    pub(crate) request: Option<Request>,
    pub(crate) out: Option<Result<Response>>,
}

/// The staged-index value naming `key`'s shard.
fn catalog_key(key: &ShardKey) -> &str {
    match key {
        ShardKey::Aux => AUX_KEY,
        ShardKey::Cvd(k) => k,
    }
}

/// Remove staged-index reservations that still point at `cat_key` (their
/// checkout failed or never ran; entries re-pointed by someone else are
/// left alone), and the `side_tables` whose statements are over.
fn release_reservations(inner: &Inner, cat_key: &str, keys: &[String], side_tables: &[String]) {
    if keys.is_empty() && side_tables.is_empty() {
        return;
    }
    let mut cat = inner.catalog_write();
    for key in keys {
        if cat.staged.get(key).map(String::as_str) == Some(cat_key) {
            cat.staged.remove(key);
        }
    }
    for table in side_tables {
        cat.creating.remove(table);
    }
}

/// The in-shard execution of one `run` statement: the Section 2.3 access
/// guard plus versioned translation.
fn shard_sql(odb: &mut OrpheusDB, user: &str, sql: &Lexed) -> Result<QueryResult> {
    guard_sql(odb, user, sql)?;
    odb.run_lexed(sql)
}

/// The staged-index bookkeeping a request implies for the closing catalog
/// write of a sub-batch: `(key, true)` — entry consumed on success
/// (commit/discard); `(key, false)` — reservation to release on failure
/// (checkout).
fn staged_mark(request: &Request) -> Option<(String, bool)> {
    match request {
        Request::Commit(c) => Some((Catalog::staged_key(&c.table, StagedKind::Table), true)),
        Request::Discard(d) => Some((Catalog::staged_key(&d.table, StagedKind::Table), true)),
        Request::CommitCsv(c) => Some((Catalog::staged_key(&c.path, StagedKind::Csv), true)),
        Request::Checkout(c) => Some((Catalog::staged_key(&c.table, StagedKind::Table), false)),
        Request::CheckoutCsv(c) => Some((Catalog::staged_key(&c.path, StagedKind::Csv), false)),
        _ => None,
    }
}

/// What one pass over a sub-batch's items ([`execute_items`]) leaves for
/// the steps that need the catalog, which must not be taken under a shard
/// lock.
#[derive(Default)]
struct Leftovers {
    /// Staged-index keys of the commits and discards that succeeded.
    consumed: Vec<String>,
    /// Staged-index keys of the checkouts that failed.
    failed_checkouts: Vec<String>,
    /// `(item index, user, statement)` of statements that failed with
    /// `TableNotFound`: they reference tables outside the shard and are
    /// retried across shards ([`ConcurrentExecutor::sql_spanning`]).
    spanning: Vec<(usize, String, Run)>,
}

/// Log `user` into `db`, unless `current` says the previous item already
/// did.
fn switch_identity<'a>(
    db: &mut OrpheusDB,
    current: &mut Option<&'a str>,
    user: &'a str,
) -> Result<()> {
    if *current != Some(user) {
        *current = None;
        db.access.ensure_user(user)?;
        db.access.login(user)?;
        *current = Some(user);
    }
    Ok(())
}

/// Run every pending item of one shard's sub-batch against `db` — the
/// shard itself under its write lock, or a private snapshot clone. Each
/// item runs under its own identity (switched whenever the owner changes;
/// the caller restores the shard's), and checkouts of one version set
/// share a single version-row scan.
///
/// A panic while executing a request is contained here: the panicking
/// request and every item still pending fail with
/// [`CoreError::WorkerPanicked`] rather than running against state of
/// unknown integrity, and already-completed items keep their results.
fn execute_items(
    db: &mut OrpheusDB,
    plan: &BatchPlan,
    key: &ShardKey,
    items: &mut [SubItem],
) -> Leftovers {
    let panicked = || CoreError::WorkerPanicked {
        shard: key.label().to_string(),
    };
    let mut left = Leftovers::default();
    let mut current: Option<&str> = None;
    let mut scan_cache = crate::db::ScanCache::new();
    let mut poisoned = false;
    for (i, item) in items.iter_mut().enumerate() {
        let Some(request) = item.request.take() else {
            continue;
        };
        let mark = staged_mark(&request);
        let user = item.user.as_str();
        let result = if poisoned {
            Err(panicked())
        } else if let Err(e) = switch_identity(db, &mut current, user) {
            Err(e)
        } else {
            let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                maybe_injected_panic(&request);
                match request {
                    // Run goes through the guarded session surface: the
                    // bus must not be a way around the Section 2.3
                    // staged-table access rule.
                    Request::Run(run) => {
                        if !run.is_select() {
                            // Raw SQL can write into backing tables; the
                            // cached scans must not outlive it.
                            scan_cache.clear();
                        }
                        match run.lexed().and_then(|sql| shard_sql(db, user, sql)) {
                            Err(CoreError::Engine(EngineError::TableNotFound(_))) => Err(run),
                            other => Ok(other.map(Response::Rows)),
                        }
                    }
                    other => Ok(db.execute_batch_step(plan, &mut scan_cache, other)),
                }
            }));
            match executed {
                Ok(Ok(result)) => result,
                Ok(Err(run)) => {
                    left.spanning.push((i, item.user.clone(), run));
                    continue;
                }
                Err(_) => {
                    // The shard state this request already touched is
                    // whatever the unwind left behind.
                    poisoned = true;
                    Err(panicked())
                }
            }
        };
        match (&result, mark) {
            (Ok(_), Some((key, true))) => left.consumed.push(key),
            (Err(_), Some((key, false))) => left.failed_checkouts.push(key),
            _ => {}
        }
        item.out = Some(result);
    }
    left
}

/// [`BatchRouter`] over the catalog: one read acquisition resolves the
/// routing of a whole batch (CVD existence, the staged-name index, and
/// per-statement SQL analysis).
struct CatalogRouter<'a> {
    catalog: &'a Catalog,
}

impl BatchRouter for CatalogRouter<'_> {
    fn has_cvd(&self, name: &str) -> bool {
        self.catalog.shards.contains_key(&name.to_ascii_lowercase())
    }

    fn staged_shard(&self, name: &str, kind: StagedKind) -> Option<ShardKey> {
        self.catalog
            .staged
            .get(&Catalog::staged_key(name, kind))
            .map(|key| {
                if key == AUX_KEY {
                    ShardKey::Aux
                } else {
                    ShardKey::Cvd(key.clone())
                }
            })
    }

    fn sql_shard(&self, sql: &Lexed) -> Option<ShardKey> {
        let mut cvds = analyze_sql(self.catalog, sql).ok()?.into_iter();
        match (cvds.next(), cvds.next()) {
            (None, _) => Some(ShardKey::Aux),
            (Some(only), None) => Some(ShardKey::Cvd(only)),
            // Multi-CVD statements (and, above, ones naming an unknown
            // CVD) go sequential: the barrier spans shards or surfaces
            // the error.
            _ => None,
        }
    }
}

/// The shared, multi-user executor with per-CVD lock routing. Each request
/// runs under this executor's identity (acquired-lock identity swap), so
/// ownership checks apply per session while many sessions share one
/// instance.
///
/// There is one request engine: a single [`Executor::execute`] is a
/// sub-batch of one. Requests are planned under a single catalog read
/// ([`BatchPlan`]) into per-shard sub-batches and barriers, by
/// [`Request::target`]:
/// * [`Target::Cvd`] — that CVD's shard; checkouts additionally reserve
///   the target name in the catalog's staged index first, keeping table
///   names globally unique.
/// * [`Target::StagedTable`] / [`Target::StagedCsv`] — the owning CVD is
///   resolved through the staged index.
/// * [`Target::Sql`] — the statement is analyzed; a statement on one CVD
///   joins that shard's sub-batch, one spanning CVDs is a barrier.
/// * [`Target::Catalog`] — a barrier under the catalog lock (CVD
///   create/drop, users, `ls`).
///
/// A sub-batch of pure reads (`log`, `diff`, `SELECT`) runs on a clone of
/// the shard's MVCC snapshot without any shard lock; every other
/// sub-batch — checkouts included — runs under one acquisition of the
/// shard's write lock. Barriers span shards: a multi-CVD `SELECT` runs on
/// a merged lock-free snapshot, a multi-CVD write as a cross-CVD write
/// transaction that locks every involved shard in sorted key order
/// (auxiliary shard last).
///
/// Two variants get session-level semantics instead of instance-level
/// ones: `Whoami` reports the executor's user, and `Login` rebinds *this
/// executor* to another existing user without touching the instance
/// identity other sessions see.
#[derive(Debug, Clone)]
pub struct ConcurrentExecutor {
    inner: Arc<Inner>,
    user: String,
}

/// One user's handle on a [`SharedOrpheusDB`] — the user-facing name of
/// [`ConcurrentExecutor`]. Sessions on different threads interleave
/// without identity leaks, ownership checks (commit, discard) apply per
/// session, and sessions working on *different* CVDs execute in parallel.
pub type Session = ConcurrentExecutor;

/// The typed methods unpack the one [`Response`] variant their request is
/// answered with; any other variant is a bug in the engine, reported to
/// the caller rather than panicked on.
fn mismatched(response: Response) -> CoreError {
    CoreError::Invalid(format!("unexpected response: {}", response.summary()))
}

impl ConcurrentExecutor {
    /// The identity this executor operates under.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// A table name namespaced to this session's user, the conventional way
    /// to avoid staged-table name collisions between users.
    pub fn private_table(&self, name: &str) -> String {
        format!("{}__{}", self.user.to_ascii_lowercase(), name)
    }

    // -- the session-level command surface ----------------------------------
    //
    // Request-build + response-unpack over the bus, for callers that hold
    // the session by shared reference.

    fn request(&self, request: impl Into<Request>) -> Result<Response> {
        self.execute_as(&self.user, request.into())
    }

    /// `checkout` into a private staged table owned by this executor's
    /// user. A checkout creates a table, so it takes the CVD's lock like
    /// any other write.
    pub fn checkout(&self, cvd: &str, vids: &[Vid], table: &str) -> Result<()> {
        let checkout = Checkout::of(cvd)
            .versions(vids.iter().copied())
            .into_table(table);
        self.request(checkout).map(drop)
    }

    /// `commit` a staged table (must be owned by this executor's user).
    pub fn commit(&self, table: &str, message: &str) -> Result<Vid> {
        let response = self.request(Commit::table(table).message(message))?;
        response.version().ok_or_else(|| mismatched(response))
    }

    /// Abandon a staged table without committing.
    pub fn discard(&self, table: &str) -> Result<()> {
        self.request(Discard::table(table)).map(drop)
    }

    /// `diff` two versions of a CVD — read-only, served from the CVD's
    /// MVCC snapshot without taking the shard lock.
    pub fn diff(&self, cvd: &str, a: Vid, b: Vid) -> Result<VersionDiff> {
        match self.request(Diff::of(cvd).between(a, b))? {
            Response::Diffed { diff, .. } => Ok(diff),
            other => Err(mismatched(other)),
        }
    }

    /// The rows `(rid, attributes)` of one version — read-only, served
    /// from the CVD's MVCC snapshot without taking the shard lock. (The
    /// bus has no request for it, so it reads the snapshot directly.)
    pub fn version_rows(&self, cvd: &str, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
        self.snapshot_of(cvd)?.version_rows(cvd, vid)
    }

    /// Run the partition optimizer.
    pub fn optimize(&self, cvd: &str) -> Result<OptimizeReport> {
        match self.request(Optimize::cvd(cvd))? {
            Response::Optimized { report, .. } => Ok(report),
            other => Err(mismatched(other)),
        }
    }

    /// List CVDs (catalog lock only — never blocks behind a commit).
    pub fn ls(&self) -> Vec<String> {
        let cat = self.inner.catalog_read();
        cat.shards.keys().cloned().collect()
    }

    /// Versioned SQL (`VERSION n OF CVD x`, `CVD x`) or plain SQL.
    /// Read-only access to CVDs needs no ownership, but statements
    /// referencing a staged table owned by a *different* user are
    /// rejected — the access rule of Section 2.3 ("only the user who
    /// performed the checkout operation is permitted access to the
    /// materialized table"). `SELECT`s are served from MVCC snapshots.
    pub fn run(&self, sql: &str) -> Result<QueryResult> {
        match self.request(Run::sql(sql))? {
            Response::Rows(rows) => Ok(rows),
            other => Err(mismatched(other)),
        }
    }

    /// SQL against staged tables: [`ConcurrentExecutor::run`] under the
    /// name sessions use for plain statements (`run` passes plain SQL
    /// through untranslated, so it is the same surface; named `sql` so
    /// the bus-level [`Executor::execute`] keeps the `execute` name).
    pub fn sql(&self, sql: &str) -> Result<QueryResult> {
        self.run(sql)
    }

    // -- the engine ---------------------------------------------------------

    /// Execute a batch — the [`Executor::batch`] override. The batch is
    /// planned once under a single catalog read ([`BatchPlan::build`]:
    /// staged-name resolution and SQL analysis for every request), then
    /// each shard's sub-batch runs through `run_items` — a writing
    /// sub-batch under **one** shard-lock acquisition, a read-only one on
    /// one snapshot clone — and everything the plan cannot pin to one
    /// shard runs on its own between sub-batches, exactly as a single
    /// [`Executor::execute`] would. Responses come back in submission
    /// order and failures stay per-request.
    ///
    /// Sub-batches of *different* shards may interleave relative to each
    /// other (they touch disjoint state); within one shard, submission
    /// order is preserved. A statement that turns out to reference tables
    /// outside its shard is retried *after* its sub-batch — reads on a
    /// merged snapshot, writes as a cross-CVD write transaction — so it
    /// may observe later requests of its own sub-batch.
    pub fn execute_batch(&mut self, requests: Vec<Request>) -> Vec<Result<Response>> {
        let plan = self.inner.plan(&requests);
        let mut slots: Vec<Option<Request>> = requests.into_iter().map(Some).collect();
        let mut out: Vec<Option<Result<Response>>> = slots.iter().map(|_| None).collect();
        for step in plan.steps() {
            match step {
                Step::Sequential(i) => {
                    if let Some(request) = slots[*i].take() {
                        out[*i] = Some(self.execute_rebinding(request));
                    }
                }
                Step::Shard {
                    key,
                    indices,
                    read_only,
                } => {
                    let mut items: Vec<SubItem> = indices
                        .iter()
                        .map(|&i| SubItem {
                            user: self.user.clone(),
                            request: slots[i].take(),
                            out: None,
                        })
                        .collect();
                    self.run_items(&plan, key, *read_only, &mut items);
                    for (&i, item) in indices.iter().zip(items) {
                        out[i] = item.out;
                    }
                }
            }
        }
        out.into_iter()
            // A plan schedules every index in exactly one step, and both
            // arms above answer every request they are handed.
            .map(|r| r.expect("every scheduled request is answered"))
            .collect()
    }

    /// Execute one shard's sub-batch — the engine shared by
    /// [`ConcurrentExecutor::execute_batch`] and the async executor's
    /// workers ([`crate::async_exec`]). Each [`SubItem`] carries its own
    /// identity, so one sub-batch may interleave requests from many
    /// sessions. Panics are contained per sub-batch (see
    /// [`execute_items`]); the shard lock itself does not poison (shim
    /// `parking_lot` semantics), so later sub-batches on the same shard
    /// run normally.
    pub(crate) fn run_items(
        &self,
        plan: &BatchPlan,
        key: &ShardKey,
        read_only: bool,
        items: &mut [SubItem],
    ) {
        let cat_key = catalog_key(key);
        let spanning = if read_only {
            // No shard lock, so a writer holding it never delays these.
            let Ok(mut db) = self.snapshot_of(cat_key) else {
                return self.reroute(items);
            };
            execute_items(&mut db, plan, key, items).spanning
        } else {
            let Some(spanning) = self.run_shard_items(plan, key, items) else {
                return self.reroute(items);
            };
            spanning
        };
        for (i, user, run) in spanning {
            items[i].out = Some(self.sql_spanning(&user, cat_key, &run).map(Response::Rows));
        }
    }

    /// A writing sub-batch: reservations for every checkout in one catalog
    /// write, the requests under one acquisition of the shard's write
    /// lock, and the staged-index bookkeeping in one closing catalog
    /// write. Returns the statements left to retry across shards, or
    /// `None` (items untouched) when the shard no longer exists.
    fn run_shard_items(
        &self,
        plan: &BatchPlan,
        key: &ShardKey,
        items: &mut [SubItem],
    ) -> Option<Vec<(usize, String, Run)>> {
        let cat_key = catalog_key(key);

        // Reserve every name the sub-batch is about to create — checkout
        // targets, and the side tables of `SELECT … INTO` and `CREATE
        // TABLE` statements — in one catalog write; a name that cannot be
        // reserved fails its request right here, without touching the
        // shard.
        let mut reserved: Vec<String> = Vec::new();
        let mut side_tables: Vec<String> = Vec::new();
        let side_table = |run: &Run| run.lexed().ok().and_then(Lexed::created_table);
        let creates = |item: &SubItem| match &item.request {
            Some(Request::Checkout(_) | Request::CheckoutCsv(_)) => true,
            Some(Request::Run(r)) => side_table(r).is_some(),
            _ => false,
        };
        if items.iter().any(creates) {
            let mut cat = self.inner.catalog_write();
            for item in items.iter_mut() {
                let reservation = match item.request.as_ref() {
                    Some(Request::Checkout(c)) => cat
                        .reserve(&c.cvd, StagedKind::Table, &c.table)
                        .map(|key| reserved.push(key)),
                    Some(Request::CheckoutCsv(c)) => cat
                        .reserve(&c.cvd, StagedKind::Csv, &c.path)
                        .map(|key| reserved.push(key)),
                    Some(Request::Run(r)) => match side_table(r) {
                        // A name this sub-batch already holds is the
                        // shard's to decide about, in submission order.
                        Some(table) if !side_tables.contains(&table) => cat
                            .reserve_side_table(cat_key, &table)
                            .map(|()| side_tables.push(table)),
                        _ => continue,
                    },
                    _ => continue,
                };
                if let Err(e) = reservation {
                    item.out = Some(Err(e));
                    item.request = None;
                }
            }
        }

        // One shard-lock acquisition for the whole sub-batch. The catalog
        // lock is not held while blocking on the shard lock, so a catalog
        // rebuild can retire the shard in between: re-resolve and retry.
        let left = loop {
            let Ok(shard) = self.inner.shard_by_key(cat_key) else {
                // The CVD was dropped since planning. Release the
                // reservations so re-routing cannot collide with them.
                release_reservations(&self.inner, cat_key, &reserved, &side_tables);
                return None;
            };
            let mut db = shard.write();
            if shard.is_retired() {
                continue;
            }
            let prior = db.access.whoami().to_string();
            let left = execute_items(&mut db, plan, key, items);
            let _ = db.access.login(&prior);
            break left;
        };

        // One closing catalog write: drop the index entries of consumed
        // staged artifacts, release the reservations of failed checkouts
        // and of side tables (created or not: the shard lock is released,
        // so a table that was created is in the published snapshot).
        if !left.consumed.is_empty() {
            let mut cat = self.inner.catalog_write();
            for key in &left.consumed {
                cat.staged.remove(key);
            }
        }
        release_reservations(&self.inner, cat_key, &left.failed_checkouts, &side_tables);
        Some(left.spanning)
    }

    /// A private clone of one shard's MVCC snapshot — the lock-free read
    /// path. Retries when a catalog rebuild retired the shard between
    /// resolution and the load (the load could have observed the emptied
    /// post-quiesce state).
    fn snapshot_of(&self, cat_key: &str) -> Result<OrpheusDB> {
        loop {
            let shard = self.inner.shard_by_key(cat_key)?;
            let db = shard.load_snapshot();
            if !shard.is_retired() {
                return Ok(db);
            }
        }
    }

    /// The shard a sub-batch was planned for is gone (its CVD was dropped
    /// since planning): every request still pending is executed on its
    /// own, against the live catalog.
    fn reroute(&self, items: &mut [SubItem]) {
        for item in items {
            if let Some(request) = item.request.take() {
                item.out = Some(self.execute_as(&item.user, request));
            }
        }
    }

    /// Execute one request on its own, as `user`, against live state: a
    /// single [`Executor::execute`], and what a plan schedules as
    /// [`Step::Sequential`] — there a barrier, ordered strictly against
    /// the sub-batches around it. Catalog requests run under the catalog
    /// lock. Everything else is planned alone — no earlier request of a
    /// batch can leave its routing uncertain — and is a sub-batch of one
    /// for `run_items`; what has no single shard even then is SQL spanning
    /// shards, or gets the typed error (`CvdNotFound`, `NotStaged`).
    pub(crate) fn execute_as(&self, user: &str, request: Request) -> Result<Response> {
        match request {
            // Validation only: rebinding is the caller's business.
            Request::Login(login) => {
                let cat = self.inner.catalog_read();
                if !cat.access.has_user(&login.user) {
                    return Err(CoreError::Invalid(format!("unknown user {}", login.user)));
                }
                Ok(Response::LoggedIn { user: login.user })
            }
            Request::Whoami => Ok(Response::CurrentUser {
                user: user.to_string(),
            }),
            Request::CreateUser(r) => {
                let mut cat = self.inner.catalog_write();
                cat.ensure_writable()?;
                cat.access.create_user(&r.user)?;
                if let Some(wal) = &cat.wal {
                    wal.append(user, 0, &WalOp::Request(Request::CreateUser(r.clone())))?;
                }
                Ok(Response::UserCreated { user: r.user })
            }
            Request::Ls => Ok(Response::CvdList(self.ls())),
            Request::Init(ref r) => {
                let name = r.cvd.clone();
                self.create_cvd(user, &name, request)
            }
            Request::InitFromCsv(ref r) => {
                let name = r.cvd.clone();
                self.create_cvd(user, &name, request)
            }
            Request::Drop(r) => self.drop_cvd(user, &r.cvd),
            other => {
                let plan = self.inner.plan(std::slice::from_ref(&other));
                match (plan.steps(), other) {
                    ([Step::Shard { key, read_only, .. }], other) => {
                        let mut items = [SubItem {
                            user: user.to_string(),
                            request: Some(other),
                            out: None,
                        }];
                        self.run_items(&plan, key, *read_only, &mut items);
                        let [item] = items;
                        // `run_items` answers every item it is handed.
                        item.out.expect("every scheduled request is answered")
                    }
                    (_, Request::Run(run)) => {
                        self.sql_spanning(user, AUX_KEY, &run).map(Response::Rows)
                    }
                    (_, other) => Err(match other.target() {
                        Target::Cvd(cvd) => CoreError::CvdNotFound(cvd.to_string()),
                        Target::StagedTable(name) | Target::StagedCsv(name) => {
                            CoreError::NotStaged(name.to_string())
                        }
                        Target::Catalog(_) | Target::Sql(_) => {
                            CoreError::Invalid(format!("no route for {} request", other.kind()))
                        }
                    }),
                }
            }
        }
    }

    /// [`ConcurrentExecutor::execute_as`] under this executor's identity,
    /// with the session-scoped `Login`: success rebinds *this executor*
    /// without touching the identity other sessions see.
    fn execute_rebinding(&mut self, request: Request) -> Result<Response> {
        let login = match &request {
            Request::Login(login) => Some(login.user.clone()),
            _ => None,
        };
        let result = self.execute_as(&self.user, request);
        if let (Some(user), Ok(_)) = (login, &result) {
            self.user = user;
        }
        result
    }

    /// Run a statement no single shard can serve: it names tables of
    /// several shards, or — routed to its `home` shard — failed there with
    /// `TableNotFound` because it joins tables the analyzer could not
    /// attribute (side tables, another CVD's tables). Re-analyzed against
    /// the live catalog (staged tables materialized earlier in the same
    /// batch have their index entries by now), a `SELECT` runs on a merged
    /// lock-free snapshot of the involved shards plus the auxiliary shard —
    /// of the whole instance when it names no CVD at all — and a writing
    /// statement as a cross-CVD write transaction.
    fn sql_spanning(&self, user: &str, home: &str, run: &Run) -> Result<QueryResult> {
        let sql = run.lexed()?;
        let cat = self.inner.catalog_read();
        let mut cvds = analyze_sql(&cat, sql)?;
        if home != AUX_KEY {
            cvds.insert(home.to_string());
        }
        if !sql.is_select() {
            drop(cat);
            // A table such a statement creates stays behind in the
            // auxiliary shard; reserved like any other side table.
            let side_table = sql.created_table();
            if let Some(table) = &side_table {
                self.inner
                    .catalog_write()
                    .reserve_side_table(AUX_KEY, table)?;
            }
            let result = self.sql_cross_cvd_write(user, &cvds, sql);
            release_reservations(&self.inner, AUX_KEY, &[], side_table.as_slice());
            return result;
        }
        let mut merged = if cvds.is_empty() {
            cat.merged_snapshot()
        } else {
            cat.merged_subset(&cvds)
        };
        drop(cat);
        shard_sql(&mut merged, user, sql)
    }

    /// A writing statement spanning several shards: the **cross-CVD write
    /// transaction**. Under a shared catalog lock (which pins the shard
    /// set — retirement requires the catalog exclusively), the involved
    /// shards' write locks are taken in sorted key order with the
    /// auxiliary shard last — the same global order as the instance-wide
    /// quiesce paths, so no two lock paths can deadlock. The shards are
    /// merged, the statement executes once against the merged state, and
    /// the shards are split back out; every guard republishes its MVCC
    /// snapshot on release, so other paths observe either all of the
    /// statement's effects or none.
    fn sql_cross_cvd_write(
        &self,
        user: &str,
        keys: &BTreeSet<String>,
        sql: &Lexed,
    ) -> Result<QueryResult> {
        let cat = self.inner.catalog_read();
        let shards: Vec<(&String, Arc<Shard>)> = keys
            .iter()
            .map(|k| Ok((k, cat.shard(k)?)))
            .collect::<Result<_>>()?;
        let aux = Arc::clone(&cat.aux);
        let mut guards: Vec<ShardWriteGuard<'_>> =
            shards.iter().map(|(_, shard)| shard.write()).collect();
        let mut aux_guard = aux.write();
        // Merge: the auxiliary shard is the base (its side tables stay
        // put), each CVD shard is absorbed in. The catalog carries the
        // canonical user registry, exactly as in `Catalog::take_all`.
        let mut merged = std::mem::take(&mut *aux_guard);
        merged.access = cat.access.clone();
        merged.config = cat.config.clone();
        for guard in guards.iter_mut() {
            merged
                .absorb(std::mem::take(&mut **guard))
                // Same invariant as `Catalog::merge_snapshots`.
                .expect("disjoint shards merge without collisions");
        }
        let result = under_identity(&mut merged, user, |odb| shard_sql(odb, user, sql));
        // Split back, whether or not the statement succeeded — the merge
        // itself must never be lossy.
        for ((key, _), guard) in shards.iter().zip(guards.iter_mut()) {
            **guard = merged
                .detach_cvd(key)
                // SQL cannot reach the CVD registry, so the CVD absorbed
                // above is still there, and it detaches into a fresh,
                // empty instance.
                .expect("absorbed CVD detaches back out");
        }
        *aux_guard = merged;
        result
    }

    // -- catalog-level requests ----------------------------------------------

    /// `init` / `init -f`: create a new CVD as a fresh shard. The shard is
    /// built *outside* any lock — loading a large CSV must not stall
    /// routing for unrelated CVDs — and published under a brief catalog
    /// write, re-checking the name (a lost race surfaces as `CvdExists`).
    fn create_cvd(&self, user: &str, name: &str, request: Request) -> Result<Response> {
        let key = name.to_ascii_lowercase();
        let (config, access, wal_armed) = {
            let cat = self.inner.catalog_read();
            // Refuse up front while degraded: building the shard is real
            // work, and the append below would refuse it anyway.
            cat.ensure_writable()?;
            if cat.shards.contains_key(&key) {
                return Err(CoreError::CvdExists(name.to_string()));
            }
            (cat.config.clone(), cat.access.clone(), cat.wal.is_some())
        };
        let mut odb = OrpheusDB::with_config(config);
        odb.access = access;
        // The fresh shard is built WAL-less: if the publish below loses
        // its race, nothing must have been logged. The record is
        // appended under the catalog write lock, after the re-check and
        // before the shard becomes reachable.
        let logged = wal_armed.then(|| request.clone());
        let response = under_identity(&mut odb, user, |odb| odb.execute(request))?;
        let mut cat = self.inner.catalog_write();
        if cat.shards.contains_key(&key) {
            return Err(CoreError::CvdExists(name.to_string()));
        }
        if let (Some(wal), Some(request)) = (&cat.wal, logged) {
            // A fresh shard's clock starts at 0 (see OrpheusDB::with_config).
            wal.append(user, 0, &WalOp::Request(request))?;
        }
        odb.wal = cat.wal.clone();
        cat.shards.insert(key, Shard::new(odb));
        Ok(response)
    }

    /// `drop`: remove a CVD's shard (and with it the CVD's backing tables
    /// and staged artifacts) and its staged-index entries.
    fn drop_cvd(&self, user: &str, name: &str) -> Result<Response> {
        let mut cat = self.inner.catalog_write();
        cat.ensure_writable()?;
        let key = name.to_ascii_lowercase();
        let shard = cat
            .shards
            .remove(&key)
            .ok_or_else(|| CoreError::CvdNotFound(name.to_string()))?;
        shard.retire();
        cat.staged.retain(|_, cvd| cvd != &key);
        if let Some(wal) = &cat.wal {
            wal.append(
                user,
                0,
                &WalOp::Request(Request::Drop(crate::request::DropCvd {
                    cvd: name.to_string(),
                })),
            )?;
        }
        Ok(Response::Dropped {
            cvd: name.to_string(),
        })
    }
}

impl Executor for ConcurrentExecutor {
    fn execute(&mut self, request: Request) -> Result<Response> {
        self.execute_rebinding(request)
    }

    fn batch<I: IntoIterator<Item = Request>>(&mut self, requests: I) -> Vec<Result<Response>>
    where
        Self: Sized,
    {
        self.execute_batch(requests.into_iter().collect())
    }
}

/// Reject SQL that references another user's staged table. The check
/// compares the statement's identifiers against the staging registry,
/// which catches direct reads, writes, joins, and subqueries.
fn guard_sql(odb: &OrpheusDB, user: &str, sql: &Lexed) -> Result<()> {
    let foreign: Vec<&crate::staging::StagedEntry> = odb
        .staged()
        .into_iter()
        .filter(|e| e.owner != user && matches!(e.kind, crate::staging::StagedKind::Table))
        .collect();
    if foreign.is_empty() {
        return Ok(());
    }
    for name in sql.idents() {
        if let Some(entry) = foreign.iter().find(|e| e.name.eq_ignore_ascii_case(name)) {
            return Err(CoreError::PermissionDenied(format!(
                "{} belongs to {}, not {user}",
                entry.name, entry.owner
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_engine::{Column, DataType, Schema, Value};

    fn shared_with_cvd() -> SharedOrpheusDB {
        let mut odb = OrpheusDB::new();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ])
        .with_primary_key(&["k"])
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::Int(i), Value::Int(0)])
            .collect();
        odb.init_cvd("data", schema, rows, None).unwrap();
        SharedOrpheusDB::new(odb)
    }

    #[test]
    fn sessions_have_independent_identities() {
        let shared = shared_with_cvd();
        let alice = shared.session("alice").unwrap();
        let bob = shared.session("bob").unwrap();
        assert_eq!(alice.user(), "alice");
        assert_eq!(bob.user(), "bob");
        // Registering the same user twice is fine.
        let alice2 = shared.session("alice").unwrap();
        assert_eq!(alice2.user(), "alice");
        // The instance-level identity is untouched by session creation.
        assert_eq!(
            shared.read(|odb| odb.access.whoami().to_string()),
            "default"
        );
    }

    #[test]
    fn ownership_is_enforced_across_sessions() {
        let shared = shared_with_cvd();
        let alice = shared.session("alice").unwrap();
        let bob = shared.session("bob").unwrap();

        alice.checkout("data", &[Vid(1)], "alice_work").unwrap();
        // Bob cannot commit, discard, or run SQL against Alice's table.
        let err = bob.commit("alice_work", "steal").unwrap_err();
        assert!(matches!(err, CoreError::PermissionDenied(_)), "{err}");
        let err = bob.discard("alice_work").unwrap_err();
        assert!(matches!(err, CoreError::PermissionDenied(_)), "{err}");
        let err = bob.sql("SELECT count(*) FROM alice_work").unwrap_err();
        assert!(matches!(err, CoreError::PermissionDenied(_)), "{err}");
        let err = bob.sql("UPDATE alice_work SET v = 9").unwrap_err();
        assert!(matches!(err, CoreError::PermissionDenied(_)), "{err}");

        // Alice can do all of the above.
        alice
            .sql("UPDATE alice_work SET v = 1 WHERE k = 0")
            .unwrap();
        let vid = alice.commit("alice_work", "mine").unwrap();
        assert_eq!(vid, Vid(2));
    }

    #[test]
    fn identity_is_restored_after_each_operation() {
        let shared = shared_with_cvd();
        shared.write(|odb| {
            odb.access.create_user("root").unwrap();
            odb.access.login("root").unwrap();
        });
        let alice = shared.session("alice").unwrap();
        alice.checkout("data", &[Vid(1)], "w").unwrap();
        // The session operation must not leak alice as the global identity.
        assert_eq!(shared.read(|odb| odb.access.whoami().to_string()), "root");
    }

    #[test]
    fn concurrent_commits_from_many_users_are_all_recorded() {
        let shared = shared_with_cvd();
        const USERS: usize = 8;

        std::thread::scope(|scope| {
            for u in 0..USERS {
                let shared = shared.clone();
                scope.spawn(move || {
                    let session = shared.session(&format!("user{u}")).unwrap();
                    let table = session.private_table("work");
                    session.checkout("data", &[Vid(1)], &table).unwrap();
                    session
                        .sql(&format!("UPDATE {table} SET v = {u} WHERE k = {u}"))
                        .unwrap();
                    let vid = session.commit(&table, &format!("edit by user{u}")).unwrap();
                    // Each commit yields a distinct, valid version readable
                    // by anyone.
                    let n = session
                        .run(&format!(
                            "SELECT count(*) FROM VERSION {} OF CVD data",
                            vid.0
                        ))
                        .unwrap();
                    assert_eq!(n.scalar(), Some(&Value::Int(20)));
                });
            }
        });

        // All commits landed: v1 + one per user, each with 20 records and
        // a distinct message.
        shared.read(|odb| {
            let cvd = odb.cvd("data").unwrap();
            assert_eq!(cvd.num_versions(), 1 + USERS);
            let mut messages: Vec<&str> = cvd
                .versions
                .iter()
                .skip(1)
                .map(|m| m.message.as_str())
                .collect();
            messages.sort();
            let expected: Vec<String> = (0..USERS).map(|u| format!("edit by user{u}")).collect();
            assert_eq!(
                messages,
                expected.iter().map(|s| s.as_str()).collect::<Vec<_>>()
            );
            // No staged tables leak.
            assert!(odb.staged().is_empty());
        });
    }

    #[test]
    fn concurrent_readers_and_writers_interleave_safely() {
        let shared = shared_with_cvd();
        std::thread::scope(|scope| {
            // Writers: each commits 3 versions sequentially.
            for u in 0..3 {
                let shared = shared.clone();
                scope.spawn(move || {
                    let s = shared.session(&format!("w{u}")).unwrap();
                    for i in 0..3 {
                        let t = s.private_table(&format!("t{i}"));
                        s.checkout("data", &[Vid(1)], &t).unwrap();
                        s.commit(&t, "tick").unwrap();
                    }
                });
            }
            // Readers: poll versioned queries while commits happen.
            for _ in 0..3 {
                let shared = shared.clone();
                scope.spawn(move || {
                    let s = shared.session("reader").unwrap();
                    for _ in 0..10 {
                        let n = s.run("SELECT count(*) FROM VERSION 1 OF CVD data").unwrap();
                        assert_eq!(n.scalar(), Some(&Value::Int(20)));
                    }
                });
            }
        });
        shared.read(|odb| {
            assert_eq!(odb.cvd("data").unwrap().num_versions(), 10);
        });
    }

    #[test]
    fn sessions_execute_typed_requests() {
        use crate::request::{Checkout, Commit, Executor, Login, Request, Run};

        let shared = shared_with_cvd();
        let mut alice = shared.session("alice").unwrap();
        let response = alice
            .dispatch(Checkout::of("data").version(1u64).into_table("alice_bus"))
            .unwrap();
        assert_eq!(response.summary(), "checked out v1 into table alice_bus");
        alice.sql("UPDATE alice_bus SET v = 5 WHERE k = 1").unwrap();
        let response = alice
            .dispatch(Commit::table("alice_bus").message("via bus"))
            .unwrap();
        assert_eq!(response.version(), Some(Vid(2)));

        // The commit is attributed to the session user, and other sessions
        // are still denied.
        let mut bob = shared.session("bob").unwrap();
        alice
            .dispatch(Checkout::of("data").version(1u64).into_table("alice_bus2"))
            .unwrap();
        let err = bob
            .dispatch(Commit::table("alice_bus2").message("steal"))
            .unwrap_err();
        assert!(matches!(err, CoreError::PermissionDenied(_)), "{err}");

        // Whoami reports the session identity; Login rebinds the session
        // without touching the shared instance identity.
        let who = bob.execute(Request::Whoami).unwrap();
        assert_eq!(who.summary(), "bob");
        assert!(bob
            .execute(Request::Login(Login::as_user("nobody")))
            .is_err());
        bob.execute(Request::Login(Login::as_user("alice")))
            .unwrap();
        assert_eq!(bob.user(), "alice");
        bob.dispatch(Commit::table("alice_bus2").message("now allowed"))
            .unwrap();
        assert_eq!(
            shared.read(|odb| odb.access.whoami().to_string()),
            "default"
        );

        // Versioned queries flow through the same bus.
        let rows = alice
            .dispatch(Run::sql("SELECT count(*) FROM VERSION 2 OF CVD data"))
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows.scalar(), Some(&Value::Int(20)));
    }

    #[test]
    fn run_cannot_touch_foreign_staged_tables() {
        use crate::request::{Executor, Run};

        let shared = shared_with_cvd();
        let alice = shared.session("alice").unwrap();
        let mut bob = shared.session("bob").unwrap();
        alice.checkout("data", &[Vid(1)], "alice_work").unwrap();

        // Neither the inherent `run` nor the bus `Run` request lets bob
        // read or write alice's staged table with plain pass-through SQL.
        let err = bob.run("UPDATE alice_work SET v = 9").unwrap_err();
        assert!(matches!(err, CoreError::PermissionDenied(_)), "{err}");
        let err = bob
            .dispatch(Run::sql("SELECT count(*) FROM alice_work"))
            .unwrap_err();
        assert!(matches!(err, CoreError::PermissionDenied(_)), "{err}");

        // Versioned queries on the shared CVD remain open to everyone.
        let n = bob
            .dispatch(Run::sql("SELECT count(*) FROM VERSION 1 OF CVD data"))
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(20)));
        // And the owner can still run SQL against their own checkout.
        let n = alice.run("SELECT count(*) FROM alice_work").unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(20)));
    }

    #[test]
    fn name_collisions_between_users_error_cleanly() {
        let shared = shared_with_cvd();
        let alice = shared.session("alice").unwrap();
        let bob = shared.session("bob").unwrap();
        alice.checkout("data", &[Vid(1)], "work").unwrap();
        let err = bob.checkout("data", &[Vid(1)], "work").unwrap_err();
        assert!(
            err.to_string().contains("staged") || err.to_string().contains("exists"),
            "{err}"
        );
        // private_table sidesteps the collision.
        bob.checkout("data", &[Vid(1)], &bob.private_table("work"))
            .unwrap();
    }

    // -- per-CVD locking behavior ------------------------------------------

    /// Two CVDs under one shared instance, 10 rows each.
    fn shared_with_two_cvds() -> SharedOrpheusDB {
        let mut odb = OrpheusDB::new();
        for name in ["left", "right"] {
            let schema = Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ])
            .with_primary_key(&["k"])
            .unwrap();
            let rows: Vec<Vec<Value>> = (0..10)
                .map(|i| vec![Value::Int(i), Value::Int(0)])
                .collect();
            odb.init_cvd(name, schema, rows, None).unwrap();
        }
        SharedOrpheusDB::new(odb)
    }

    #[test]
    fn disjoint_cvd_commits_run_concurrently_and_land() {
        let shared = shared_with_two_cvds();
        std::thread::scope(|scope| {
            for (u, cvd) in [("alice", "left"), ("bob", "right")] {
                let shared = shared.clone();
                scope.spawn(move || {
                    let s = shared.session(u).unwrap();
                    for i in 0..4 {
                        let t = s.private_table(&format!("{cvd}_{i}"));
                        s.checkout(cvd, &[Vid(1)], &t).unwrap();
                        s.sql(&format!("UPDATE {t} SET v = {i} WHERE k = 0"))
                            .unwrap();
                        s.commit(&t, &format!("{u} {i}")).unwrap();
                    }
                });
            }
        });
        shared.read(|odb| {
            assert_eq!(odb.cvd("left").unwrap().num_versions(), 5);
            assert_eq!(odb.cvd("right").unwrap().num_versions(), 5);
            assert!(odb.staged().is_empty());
        });
    }

    #[test]
    fn cross_cvd_selects_and_writes_both_work() {
        let shared = shared_with_two_cvds();
        let session = shared.session("ana").unwrap();

        // A read-only SELECT spanning both CVDs runs on a merged snapshot.
        let n = session
            .run(
                "SELECT count(*) FROM VERSION 1 OF CVD left AS a, \
                 VERSION 1 OF CVD right AS b WHERE a.k = b.k",
            )
            .unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(10)));

        // A write spanning CVDs runs as a cross-CVD write transaction:
        // sorted shard locks, one execution, atomically visible.
        session.checkout("left", &[Vid(1)], "lw").unwrap();
        session.checkout("right", &[Vid(1)], "rw").unwrap();
        session.sql("UPDATE rw SET v = 1 WHERE k < 3").unwrap();
        session
            .sql("UPDATE lw SET v = (SELECT count(*) FROM rw WHERE rw.v = 1)")
            .unwrap();
        let n = session.sql("SELECT sum(v) FROM lw").unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(30)));
        // Both staged tables commit back to their own CVDs afterwards.
        assert_eq!(session.commit("lw", "cross write").unwrap(), Vid(2));
        assert_eq!(session.commit("rw", "edited").unwrap(), Vid(2));
        shared.read(|odb| {
            assert_eq!(odb.cvd("left").unwrap().num_versions(), 2);
            assert_eq!(odb.cvd("right").unwrap().num_versions(), 2);
            assert!(odb.staged().is_empty());
        });
    }

    #[test]
    fn staged_names_stay_globally_unique_across_cvds() {
        let shared = shared_with_two_cvds();
        let s = shared.session("u").unwrap();
        s.checkout("left", &[Vid(1)], "work").unwrap();
        // The same table name cannot be staged from another CVD.
        let err = s.checkout("right", &[Vid(1)], "work").unwrap_err();
        assert!(err.to_string().contains("staged"), "{err}");
        // After a discard the name is free again, for any CVD.
        s.discard("work").unwrap();
        s.checkout("right", &[Vid(1)], "work").unwrap();
        s.commit("work", "reused name").unwrap();
        shared.read(|odb| {
            assert_eq!(odb.cvd("right").unwrap().num_versions(), 2);
        });
    }

    #[test]
    fn checkout_names_cannot_collide_with_side_tables_or_other_shards() {
        let shared = shared_with_two_cvds();
        let s = shared.session("u").unwrap();
        // A plain-SQL side table occupies its name globally: a checkout
        // into it is rejected up front (not discovered as a merge panic
        // later).
        s.sql("CREATE TABLE occupied (k INT)").unwrap();
        let err = s.checkout("left", &[Vid(1)], "occupied").unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        // Another CVD's backing-table namespace is off limits...
        let err = s.checkout("left", &[Vid(1)], "right__data").unwrap_err();
        assert!(err.to_string().contains("namespace"), "{err}");
        // ...while a checkout inside the *target* CVD's namespace that
        // collides with a real backing table still errors in the shard.
        assert!(s.checkout("left", &[Vid(1)], "left__data").is_err());
        // The snapshot paths stay collision-free afterwards.
        shared.read(|odb| assert_eq!(odb.ls().len(), 2));
        shared
            .save_to(
                &std::env::temp_dir()
                    .join(format!("orpheus-collision-{}.orpheus", std::process::id())),
            )
            .unwrap();
    }

    #[test]
    fn a_side_table_in_one_shard_blocks_checkouts_into_its_name_from_another() {
        let shared = shared_with_two_cvds();
        let s = shared.session("u").unwrap();
        s.checkout("left", &[Vid(1)], "w").unwrap();
        // Routes to shard `left` and creates an unregistered table there.
        s.sql("SELECT * INTO clash FROM w").unwrap();
        let err = s.checkout("right", &[Vid(1)], "clash").unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        // The reverse order — checkout first, `SELECT … INTO` second — is
        // refused the same way: the staged index holds the name.
        s.checkout("right", &[Vid(1)], "taken").unwrap();
        let err = s.sql("SELECT * INTO taken FROM w").unwrap_err();
        assert!(err.to_string().contains("already staged"), "{err}");
        // Shards still merge: the instance-wide paths keep working.
        shared.read(|odb| assert_eq!(odb.ls().len(), 2));
        shared.write(|odb| assert!(odb.engine.has_table("clash")));
        let path =
            std::env::temp_dir().join(format!("orpheus-side-table-{}.orpheus", std::process::id()));
        shared.save_to(&path).unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// ROADMAP correctness (d): two shards each creating a side table of one
    /// name used to both succeed, and the next merged read panicked.
    #[test]
    fn a_side_table_name_is_created_in_one_shard_only() {
        let shared = shared_with_two_cvds();
        let s = shared.session("u").unwrap();
        s.checkout("left", &[Vid(1)], "lw").unwrap();
        s.checkout("right", &[Vid(1)], "rw").unwrap();
        s.sql("SELECT * INTO x FROM lw").unwrap();
        let err = s.sql("SELECT * INTO x FROM rw").unwrap_err();
        assert!(err.to_string().contains("table x already exists"), "{err}");
        // `CREATE TABLE` lands in the auxiliary shard — a third place.
        let err = s.sql("CREATE TABLE x (k INT)").unwrap_err();
        assert!(err.to_string().contains("table x already exists"), "{err}");
        // Reservations last only as long as their statement, granted or
        // refused...
        assert!(shared.inner.catalog_read().creating.is_empty());
        // ...and the shard that would hold a table decides about its own
        // names when the statement runs, so dropping and re-creating a
        // table in one batch works.
        s.sql("CREATE TABLE y (k INT)").unwrap();
        let mut batcher = shared.executor("u").unwrap();
        for result in batcher.execute_batch(vec![
            Run::sql("DROP TABLE y").into(),
            Run::sql("CREATE TABLE y (k INT, v INT)").into(),
            Run::sql("INSERT INTO y VALUES (1, 2)").into(),
        ]) {
            result.unwrap();
        }
        // Shards still merge: the instance-wide paths keep working.
        shared.read(|odb| assert!(odb.engine.has_table("x")));
        let path =
            std::env::temp_dir().join(format!("orpheus-into-{}.orpheus", std::process::id()));
        shared.save_to(&path).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writes_joining_shard_and_side_tables_run_as_cross_cvd_transactions() {
        let shared = shared_with_two_cvds();
        let s = shared.session("u").unwrap();
        s.sql("CREATE TABLE side (k INT)").unwrap();
        s.sql("INSERT INTO side VALUES (7)").unwrap();
        s.checkout("left", &[Vid(1)], "work").unwrap();
        // A writing statement mixing a staged table (CVD shard) with a
        // side table (auxiliary shard) cannot run under one CVD lock; it
        // retries as a cross-CVD write transaction that merges the routed
        // shard with the auxiliary shard.
        s.sql("UPDATE work SET v = (SELECT count(*) FROM side)")
            .unwrap();
        let n = s.sql("SELECT count(*) FROM work WHERE v = 1").unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(10)));
        // The side table stays in the auxiliary shard and the staged table
        // in its CVD's shard: both remain usable afterwards.
        s.sql("INSERT INTO side VALUES (8)").unwrap();
        s.sql("UPDATE work SET v = 7 WHERE k = 0").unwrap();
        s.commit("work", "fine").unwrap();
    }

    #[test]
    fn sql_joining_shard_and_side_tables_falls_back_to_snapshot() {
        let shared = shared_with_two_cvds();
        // A side table that belongs to no CVD lives in the auxiliary shard.
        let s = shared.session("u").unwrap();
        s.sql("CREATE TABLE side (k INT)").unwrap();
        s.sql("INSERT INTO side VALUES (1)").unwrap();
        s.sql("INSERT INTO side VALUES (2)").unwrap();
        // Joining it with a CVD's version routes to the CVD shard first,
        // then falls back to the merged snapshot.
        let n = s
            .run(
                "SELECT count(*) FROM VERSION 1 OF CVD left AS a, side \
                 WHERE a.k = side.k",
            )
            .unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn executor_routes_requests_by_target() {
        use crate::request::{Checkout, Commit, Diff, Log, Run};

        let shared = shared_with_two_cvds();
        let mut exec = shared.executor("driver").unwrap();
        exec.dispatch(Checkout::of("left").version(1u64).into_table("t"))
            .unwrap();
        let response = exec.dispatch(Commit::table("t").message("m")).unwrap();
        assert_eq!(response.version(), Some(Vid(2)));
        let response = exec.dispatch(Diff::of("left").between(1u64, 2u64)).unwrap();
        assert_eq!(
            response.summary(),
            "0 record(s) only in v1, 0 record(s) only in v2"
        );
        let response = exec.dispatch(Log::of("right")).unwrap();
        assert!(matches!(response, Response::Log { ref entries, .. } if entries.len() == 1));
        let rows = exec
            .dispatch(Run::sql("SELECT count(*) FROM VERSION 2 OF CVD left"))
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows.scalar(), Some(&Value::Int(10)));
        // Unknown CVDs surface as CvdNotFound through every route.
        assert!(matches!(
            exec.dispatch(Log::of("nope")).unwrap_err(),
            CoreError::CvdNotFound(_)
        ));
        assert!(matches!(
            exec.dispatch(Checkout::of("nope").version(1u64).into_table("x"))
                .unwrap_err(),
            CoreError::CvdNotFound(_)
        ));
        assert!(matches!(
            exec.dispatch(Commit::table("never_staged")).unwrap_err(),
            CoreError::NotStaged(_)
        ));
    }

    #[test]
    fn snapshot_roundtrips_through_persistence() {
        let shared = shared_with_two_cvds();
        let s = shared.session("u").unwrap();
        s.checkout("left", &[Vid(1)], "w").unwrap();
        s.commit("w", "v2").unwrap();

        let path = std::env::temp_dir().join(format!(
            "orpheus-concurrent-snapshot-{}.orpheus",
            std::process::id()
        ));
        shared.save_to(&path).unwrap();
        let restored = SharedOrpheusDB::load_from(&path).unwrap();
        restored.read(|odb| {
            assert_eq!(odb.ls(), vec!["left", "right"]);
            assert_eq!(odb.cvd("left").unwrap().num_versions(), 2);
        });
        // The restored instance is fully operational, per CVD.
        let s = restored.session("u").unwrap();
        s.checkout("right", &[Vid(1)], "w2").unwrap();
        s.commit("w2", "after reload").unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batched_requests_coalesce_per_shard_and_preserve_order() {
        use crate::request::{Checkout, Commit, Run};

        let shared = shared_with_two_cvds();
        let mut session = shared.session("batcher").unwrap();
        let requests: Vec<Request> = vec![
            Checkout::of("left").version(1u64).into_table("l0").into(),
            Checkout::of("right").version(1u64).into_table("r0").into(),
            Commit::table("l0").message("left edit").into(),
            Checkout::of("left").version(1u64).into_table("l1").into(),
            Commit::table("r0").message("right edit").into(),
            Commit::table("l1").message("left second").into(),
            Run::sql("SELECT count(*) FROM VERSION 1 OF CVD left").into(),
        ];
        let results = session.batch(requests);
        assert_eq!(results.len(), 7);
        for (i, r) in results.iter().enumerate() {
            assert!(r.is_ok(), "request {i}: {r:?}");
        }
        // Responses answer their submission positions, even though the
        // sub-batches grouped per CVD.
        assert_eq!(results[2].as_ref().unwrap().version(), Some(Vid(2)));
        assert_eq!(results[4].as_ref().unwrap().version(), Some(Vid(2)));
        assert_eq!(results[5].as_ref().unwrap().version(), Some(Vid(3)));
        assert_eq!(
            results[6].as_ref().unwrap().rows().unwrap().scalar(),
            Some(&Value::Int(10))
        );
        shared.read(|odb| {
            assert_eq!(odb.cvd("left").unwrap().num_versions(), 3);
            assert_eq!(odb.cvd("right").unwrap().num_versions(), 2);
            assert!(odb.staged().is_empty());
        });
    }

    #[test]
    fn batch_failures_release_reservations_and_later_requests_run() {
        use crate::request::{Checkout, Commit};

        let shared = shared_with_cvd();
        let mut session = shared.session("u").unwrap();
        let requests: Vec<Request> = vec![
            // Fails inside the shard (unknown version) after its name was
            // reserved in the catalog.
            Checkout::of("data").version(99u64).into_table("bad").into(),
            Checkout::of("data").version(1u64).into_table("good").into(),
            Commit::table("good").message("fine").into(),
        ];
        let results = session.batch(requests);
        assert!(
            matches!(results[0], Err(CoreError::VersionNotFound { .. })),
            "{:?}",
            results[0]
        );
        assert!(results[1].is_ok());
        assert_eq!(results[2].as_ref().unwrap().version(), Some(Vid(2)));
        // The failed checkout's reservation was released: the name is free
        // again for the very next request.
        session.checkout("data", &[Vid(1)], "bad").unwrap();
        session.discard("bad").unwrap();
        shared.read(|odb| assert!(odb.staged().is_empty()));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn reentering_the_catalog_from_a_write_closure_panics_loudly() {
        let shared = shared_with_cvd();
        let reentrant = shared.clone();
        // `write` holds the catalog lock for the closure's duration;
        // calling back into the shared instance would deadlock silently in
        // release builds — the guard panics instead.
        shared.write(move |_| {
            reentrant.read(|_| ());
        });
    }
}

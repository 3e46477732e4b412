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
//! with the auxiliary shard last** (only a shard transaction holds more
//! than one). Internal single-shard paths release the catalog
//! lock before blocking on a CVD lock, so a stalled commit on one CVD
//! cannot back up into the catalog. A thread-local counter enforces the
//! order in debug builds: acquiring the catalog lock while holding any
//! CVD lock — or reentering the catalog lock — panics loudly instead of
//! deadlocking silently (see [`SharedOrpheusDB::read`] /
//! [`SharedOrpheusDB::write`]).
//!
//! # Shard transactions
//!
//! Work that needs several shards at once runs as one **shard
//! transaction**: it locks the involved shards in sorted key order
//! (auxiliary shard last), merges clones of their states — O(tables),
//! everything under a table is `Arc`-shared — runs once against the
//! merged instance, and detaches each CVD back into its *own* shard, the
//! rest into the auxiliary one. [`SharedOrpheusDB::write`], and so every
//! checkpoint, runs one over every shard under the exclusive catalog
//! lock, then applies to the catalog what its closure changed: CVDs
//! created or dropped, staged artifacts materialized or consumed, the
//! registries. A *writing* statement spanning CVDs runs one over the
//! involved shards under a shared catalog lock (a read-only `SELECT`
//! spanning CVDs runs on a merged snapshot instead). Other paths see all
//! of a transaction's effects or none. No shard is ever emptied or
//! replaced: a shard resolved before a transaction is still the catalog's
//! after it, reservations of statements in flight survive it, and a panic
//! inside it leaves every shard as it was. A shard is retired only when
//! its CVD is dropped; an operation that resolved it earlier re-routes.
//!
//! # One request engine
//!
//! Every request runs through one crate-internal function,
//! `ConcurrentExecutor::execute_as`: a session's `execute` (its batch is
//! the trait's default loop of it) and every request an async worker
//! ([`crate::async_exec`]) runs. Catalog requests take the catalog lock;
//! every other request is routed by one rule, [`crate::batch::route`],
//! under one catalog read. A request routed to a shard takes one
//! reservation of the name it creates (one catalog write), one
//! acquisition of the shard's write lock — or one clone of its snapshot,
//! for a read — and one closing catalog write that settles the
//! staged-name index. A panic inside the request is contained there: it
//! fails with [`CoreError::WorkerPanicked`], its reservation is released,
//! and the shard itself stays usable (the shim locks do not poison). What
//! no single shard can serve — SQL spanning shards — runs across them.

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
use crate::batch::{route, staged_key, staged_name, BatchRouter, ShardKey};
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
    /// held by a shard transaction, which acquires them in sorted key
    /// order under the catalog lock.
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
    /// Set when the shard's CVD is dropped (by a drop request or inside a
    /// `write` closure). Operations that acquired the shard `Arc` before
    /// the drop re-resolve through the catalog instead of mutating
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
        self.shard
            .snapshot
            .store(Arc::new(OrpheusDB::clone(&self.guard)));
    }
}

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
    /// Staged artifact ([`staged_key`]) → the shard holding it (tables
    /// staged for a CVD that no longer exists live in the auxiliary
    /// shard). The routing index for `commit`/`discard` and the global
    /// uniqueness check for checkout target names.
    staged: HashMap<String, ShardKey>,
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

    /// Split a whole instance into per-CVD shards plus the auxiliary
    /// shard, and build the staged-name index: a shard transaction that
    /// changes nothing, run on a catalog whose only shard is the
    /// auxiliary one. Only [`SharedOrpheusDB::new`] builds a catalog;
    /// everything after that changes it in place.
    fn from_instance(odb: OrpheusDB) -> Catalog {
        let mut cat = Catalog {
            access: odb.access.clone(),
            config: odb.config.clone(),
            wal: odb.wal.clone(),
            shards: BTreeMap::new(),
            aux: Shard::new(odb),
            staged: HashMap::new(),
            creating: HashSet::new(),
        };
        let ((), settled) = cat
            .transact(&BTreeSet::new(), |_| ())
            .expect("one instance merges with nothing");
        cat.settle(settled);
        cat
    }

    /// Remove a dropped CVD's shard and its staged-index entries, and
    /// retire the shard so operations that resolved it earlier re-route.
    fn remove_cvd(&mut self, key: &str) -> Option<Arc<Shard>> {
        let shard = self.shards.remove(key)?;
        shard.retire();
        self.staged
            .retain(|_, holder| !matches!(holder, ShardKey::Cvd(cvd) if cvd == key));
        Some(shard)
    }

    fn shard(&self, cvd: &str) -> Result<Arc<Shard>> {
        self.shards
            .get(&cvd.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| CoreError::CvdNotFound(cvd.to_string()))
    }

    fn shard_by_key(&self, key: &ShardKey) -> Result<Arc<Shard>> {
        match key {
            ShardKey::Aux => Ok(Arc::clone(&self.aux)),
            ShardKey::Cvd(cvd) => self.shard(cvd),
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
        let shard = ShardKey::Cvd(cvd.to_ascii_lowercase());
        let key = staged_key(name, kind);
        if self.staged.contains_key(&key) {
            return Err(CoreError::Invalid(format!("{name} is already staged")));
        }
        if kind == StagedKind::Table {
            self.check_table_name(&shard, name)?;
        }
        self.staged.insert(key.clone(), shard);
        Ok(key)
    }

    /// Reserve `name` (lower-cased) for a side table a statement is about
    /// to create in the shard `shard` — the catalog half of `SELECT … INTO`
    /// and `CREATE TABLE`, under the same rule as a checkout target. The
    /// caller removes the name from `creating` again once the statement is
    /// over.
    fn reserve_side_table(&mut self, shard: &ShardKey, name: &str) -> Result<()> {
        let key = staged_key(name, StagedKind::Table);
        if self.staged.contains_key(&key) {
            return Err(CoreError::Invalid(format!("{name} is already staged")));
        }
        self.check_table_name(shard, name)?;
        self.creating.insert(name.to_string());
        Ok(())
    }

    /// Table names must stay unique across *all* shards, or merging shards
    /// into one instance would collide. Backing tables are kept apart by
    /// the `<cvd>__` namespaces, staged tables by the staged index; what
    /// is left are side tables plain SQL created (`CREATE TABLE`,
    /// `SELECT … INTO`), which can sit in any shard. For a table about to
    /// be created in the shard `shard`, every *other* shard's published
    /// snapshot answers for those lock-free, and `creating` for the ones
    /// not published yet; the target shard answers for its own tables
    /// when the request runs under its lock — it alone knows what the
    /// requests queued ahead of this one will have created or dropped by
    /// then.
    fn check_table_name(&self, shard: &ShardKey, name: &str) -> Result<()> {
        let lower = name.to_ascii_lowercase();
        if let Some(owner) = self.claim_by_prefix(&lower) {
            return Err(CoreError::Invalid(format!(
                "table name {name} lies in CVD {owner}'s backing-table \
                 namespace ({owner}__*)"
            )));
        }
        let aux = (*shard != ShardKey::Aux).then_some(&self.aux);
        let mut others = aux.into_iter().chain(
            self.shards
                .iter()
                .filter(|(key, _)| !matches!(shard, ShardKey::Cvd(cvd) if cvd == *key))
                .map(|(_, other)| other),
        );
        if self.creating.contains(&lower)
            || others.any(|other| other.snapshot.load().engine.has_table(&lower))
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
        self.merge(self.aux.load_snapshot(), shards.map(|s| s.load_snapshot()))
            // Shards hold disjoint CVDs by construction. Their table names
            // are disjoint because backing tables live in `<cvd>__`
            // namespaces, staged tables are unique through the staged
            // index, and `Catalog::check_table_name` refuses a checkout, a
            // `SELECT … INTO` or a `CREATE TABLE` whose target is the name
            // of a side table of another shard.
            .expect("disjoint shards merge without collisions")
    }

    /// One instance from the auxiliary shard's state `aux` and the CVD
    /// shards' `parts`, under the catalog's user registry and
    /// configuration: the merge of every snapshot read and every shard
    /// transaction.
    fn merge(
        &self,
        mut aux: OrpheusDB,
        parts: impl Iterator<Item = OrpheusDB>,
    ) -> Result<OrpheusDB> {
        aux.access = self.access.clone();
        aux.config = self.config.clone();
        for part in parts {
            aux.absorb(part)?;
        }
        Ok(aux)
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

    /// Run `f` as one shard transaction over the shards of `keys` and the
    /// auxiliary shard (see the module docs). A shard whose CVD `f`
    /// dropped keeps its state and is retired before its lock is
    /// released. What `f` changed outside the locked shards is returned
    /// for [`Catalog::settle`].
    fn transact<T>(
        &self,
        keys: &BTreeSet<String>,
        f: impl FnOnce(&mut OrpheusDB) -> T,
    ) -> Result<(T, Settled)> {
        let shards: Vec<(&String, Arc<Shard>)> = keys
            .iter()
            .map(|k| Ok((k, self.shard(k)?)))
            .collect::<Result<_>>()?;
        let mut guards: Vec<ShardWriteGuard<'_>> =
            shards.iter().map(|(_, shard)| shard.write()).collect();
        let mut aux = self.aux.write();
        let parts = guards.iter().map(|guard| OrpheusDB::clone(guard));
        let mut merged = self.merge(OrpheusDB::clone(&aux), parts)?;
        let staged_before = index_entries(&merged).map(|(key, _)| key).collect();
        let out = f(&mut merged);
        let mut settled = Settled {
            staged_before,
            staged_after: index_entries(&merged).collect(),
            access: merged.access.clone(),
            config: merged.config.clone(),
            ..Settled::default()
        };
        for ((key, shard), guard) in shards.iter().zip(guards.iter_mut()) {
            if merged.cvds.contains_key(*key) {
                **guard = detach_listed(&mut merged, key);
            } else {
                shard.retire();
                settled.dropped.push(key.to_string());
            }
        }
        for key in merged.ls() {
            let db = detach_listed(&mut merged, &key);
            settled.added.push((key, db));
        }
        *aux = merged;
        Ok((out, settled))
    }

    /// Apply what a shard transaction changed outside the shards it
    /// locked (caller holds the catalog lock exclusively). Reservations of
    /// statements in flight are not artifacts yet, so they stay.
    fn settle(&mut self, settled: Settled) {
        for key in &settled.dropped {
            self.remove_cvd(key);
        }
        self.staged
            .retain(|key, _| !settled.staged_before.contains(key));
        self.staged.extend(settled.staged_after);
        for (key, db) in settled.added {
            self.shards.insert(key, Shard::new(db));
        }
        self.access = settled.access;
        self.config = settled.config;
    }
}

/// What a shard transaction changed beyond the states of the shards it
/// locked (see [`Catalog::settle`]).
#[derive(Default)]
struct Settled {
    added: Vec<(String, OrpheusDB)>,
    dropped: Vec<String>,
    /// Index keys of the artifacts staged before the closure ran, and the
    /// entries of those staged after it.
    staged_before: HashSet<String>,
    staged_after: Vec<(String, ShardKey)>,
    access: AccessController,
    config: OrpheusConfig,
}

/// Detach a CVD that `odb` lists. Its tables and staged entries move
/// into a fresh, empty instance, so neither the lookup nor an insert can
/// fail.
fn detach_listed(odb: &mut OrpheusDB, key: &str) -> OrpheusDB {
    odb.detach_cvd(key)
        .expect("detaching a listed CVD into an empty shard cannot fail")
}

/// The staged-name index entries of `db`'s artifacts, each naming the
/// shard that detaching `db`'s CVDs leaves it in.
fn index_entries(db: &OrpheusDB) -> impl Iterator<Item = (String, ShardKey)> + '_ {
    db.staged().into_iter().map(|e| {
        let holder = match db.cvds.contains_key(&e.cvd) {
            true => ShardKey::Cvd(e.cvd.clone()),
            false => ShardKey::Aux,
        };
        (staged_key(&e.name, e.kind), holder)
    })
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

    /// Resolve a shard key to its shard. The catalog lock is released
    /// before returning, so callers never block on a shard lock while
    /// holding it.
    fn shard_by_key(&self, key: &ShardKey) -> Result<Arc<Shard>> {
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
    /// Merges every shard's published snapshot under a catalog read that
    /// is released *before* the closure runs, so the closure sees an
    /// immutable merged copy and may freely call back into the shared
    /// instance. The cost is O(tables); do not put this on a hot path.
    pub fn read<T>(&self, f: impl FnOnce(&OrpheusDB) -> T) -> T {
        let merged = self.inner.catalog_read().merged_snapshot();
        f(&merged)
    }

    /// Run a closure with exclusive access to the whole instance
    /// (administrative escape hatch; sessions are the normal path).
    ///
    /// The closure runs as one shard transaction over every shard (see
    /// the module docs), under the catalog lock held exclusively for its
    /// whole duration. Calling any `SharedOrpheusDB` or [`Session`]
    /// operation from inside the closure is a lock-order violation and
    /// panics in debug builds (it would deadlock in release).
    pub fn write<T>(&self, f: impl FnOnce(&mut OrpheusDB) -> T) -> T {
        let mut cat = self.inner.catalog_write();
        let keys = cat.shards.keys().cloned().collect();
        let (out, settled) = cat
            .transact(&keys, f)
            // Same invariant as `Catalog::merge_snapshots`.
            .expect("disjoint shards merge without collisions");
        cat.settle(settled);
        out
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

/// The CVD keys a statement touches (never the auxiliary shard): `CVD
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
        match cat.staged.get(&staged_key(name, StagedKind::Table)) {
            Some(ShardKey::Cvd(cvd)) => {
                cvds.insert(cvd.clone());
            }
            Some(ShardKey::Aux) => {}
            None => cvds.extend(cat.claim_by_prefix(&name.to_ascii_lowercase())),
        }
    }
    Ok(cvds)
}

/// Fast-path flag for the panic-injection test hook below: checked with
/// one relaxed atomic load per request run in a shard, so the hook costs
/// nothing when disarmed (the overwhelmingly common case).
static PANIC_HOOK_ARMED: AtomicBool = AtomicBool::new(false);
/// Staged-table name that makes a shard panic right before the matching
/// checkout runs (see [`arm_checkout_panic`]).
static PANIC_HOOK_NAME: StdMutex<Option<String>> = StdMutex::new(None);

/// Test-only: panic immediately before any shard executes a checkout into
/// `table`. This exercises the panic containment of the request engine
/// (`execute_in`, under sessions and async workers alike) with a real
/// unwinding panic instead of a simulated error. Disarm with
/// [`disarm_checkout_panic`].
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

/// Remove the staged-index reservation that still points at `shard`
/// (its checkout failed or never ran; an entry re-pointed by someone else
/// is left alone), and the side table whose statement is over.
fn release_reservations(
    inner: &Inner,
    shard: &ShardKey,
    reserved: Option<&String>,
    side_table: Option<&String>,
) {
    if reserved.is_none() && side_table.is_none() {
        return;
    }
    let mut cat = inner.catalog_write();
    if let Some(key) = reserved {
        if cat.staged.get(key) == Some(shard) {
            cat.staged.remove(key);
        }
    }
    if let Some(table) = side_table {
        cat.creating.remove(table);
    }
}

/// The in-shard execution of one `run` statement: the Section 2.3 access
/// guard plus versioned translation.
fn shard_sql(odb: &mut OrpheusDB, user: &str, sql: &Lexed) -> Result<QueryResult> {
    guard_sql(odb, user, sql)?;
    odb.run_lexed(sql)
}

/// Run one request against `db` — the shard itself under its write lock,
/// or a private snapshot clone — as `user` (the caller restores the
/// shard's identity). A panic while executing the request is contained
/// here and fails it with [`CoreError::WorkerPanicked`]. `Err` hands back
/// a statement that failed with `TableNotFound`: it references tables
/// outside the shard and is retried across shards
/// ([`ConcurrentExecutor::sql_spanning`]).
fn execute_in(
    db: &mut OrpheusDB,
    key: &ShardKey,
    user: &str,
    request: Request,
) -> std::result::Result<Result<Response>, Run> {
    if let Err(e) = db
        .access
        .ensure_user(user)
        .and_then(|()| db.access.login(user))
    {
        return Ok(Err(e));
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        maybe_injected_panic(&request);
        match request {
            // Run goes through the guarded session surface: the bus must
            // not be a way around the Section 2.3 staged-table access rule.
            Request::Run(run) => match run.lexed().and_then(|sql| shard_sql(db, user, sql)) {
                Err(CoreError::Engine(EngineError::TableNotFound(_))) => Err(run),
                other => Ok(other.map(Response::Rows)),
            },
            other => Ok(db.execute(other)),
        }
    }))
    .unwrap_or_else(|_| {
        Ok(Err(CoreError::WorkerPanicked {
            shard: key.label().to_string(),
        }))
    })
}

/// Routing reads the catalog: one read acquisition resolves a request
/// (CVD existence, the staged-name index, and per-statement SQL
/// analysis).
impl BatchRouter for Catalog {
    fn has_cvd(&self, name: &str) -> bool {
        self.shards.contains_key(&name.to_ascii_lowercase())
    }

    fn staged_shard(&self, name: &str, kind: StagedKind) -> Option<ShardKey> {
        self.staged.get(&staged_key(name, kind)).cloned()
    }

    fn sql_shard(&self, sql: &Lexed) -> Option<ShardKey> {
        let mut cvds = analyze_sql(self, sql).ok()?.into_iter();
        match (cvds.next(), cvds.next()) {
            (None, _) => Some(ShardKey::Aux),
            (Some(only), None) => Some(ShardKey::Cvd(only)),
            // Multi-CVD statements (and, above, ones naming an unknown
            // CVD) have no single shard: they run across shards or
            // surface the error.
            _ => None,
        }
    }
}

/// The shared, multi-user executor with per-CVD lock routing. Each request
/// runs under this executor's identity (acquired-lock identity swap), so
/// ownership checks apply per session while many sessions share one
/// instance.
///
/// There is one request engine and one routing rule ([`route`]): a single
/// [`Executor::execute`] is routed under one catalog read, and a batch is
/// the loop of it. Requests route by [`Request::target`]:
/// * [`Target::Cvd`] — that CVD's shard; checkouts additionally reserve
///   the target name in the catalog's staged index first, keeping table
///   names globally unique.
/// * [`Target::StagedTable`] / [`Target::StagedCsv`] — the owning CVD is
///   resolved through the staged index.
/// * [`Target::Sql`] — the statement is analyzed; a statement on one CVD
///   runs on that shard, one spanning CVDs across them.
/// * [`Target::Catalog`] — the catalog lock (CVD create/drop, users,
///   `ls`).
///
/// A pure read (`log`, `diff`, `SELECT`) runs on a clone of the shard's
/// MVCC snapshot without any shard lock; every other request — checkouts
/// included — runs under one acquisition of the shard's write lock. A
/// multi-CVD `SELECT` runs on a merged lock-free snapshot, a multi-CVD
/// write as a cross-CVD write transaction that locks every involved shard
/// in sorted key order (auxiliary shard last).
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
        // The shard lookup folds case; an unknown CVD is reported as named.
        self.snapshot_of(&ShardKey::Cvd(cvd.to_string()))?
            .version_rows(cvd, vid)
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

    /// Run one request on the shard [`route`] sent it to: a read on a
    /// private clone of the shard's MVCC snapshot; a write between one
    /// catalog write that reserves the name it creates — a checkout
    /// target, or the side table of a `SELECT … INTO` or `CREATE TABLE` —
    /// and one that settles the staged-name index, under one acquisition
    /// of the shard's write lock. A statement that needs tables outside
    /// the shard is retried across shards. When the shard is gone (its
    /// CVD was dropped since routing), the request is routed again
    /// against the live catalog.
    fn run_routed(
        &self,
        user: &str,
        key: &ShardKey,
        read_only: bool,
        request: Request,
    ) -> Result<Response> {
        let outcome = if read_only {
            // No shard lock, so a writer holding it never delays this.
            let Ok(mut db) = self.snapshot_of(key) else {
                return self.execute_as(user, request);
            };
            execute_in(&mut db, key, user, request)
        } else {
            let side_table = match &request {
                Request::Run(r) => r.lexed().ok().and_then(Lexed::created_table),
                _ => None,
            };
            let staged = staged_name(&request);
            let consumed = staged
                .filter(|(_, _, claim)| claim.is_none())
                .map(|(name, kind, _)| staged_key(name, kind));
            let reserved = match (&side_table, staged) {
                (Some(table), _) => {
                    self.inner.catalog_write().reserve_side_table(key, table)?;
                    None
                }
                (None, Some((name, kind, Some(cvd)))) => {
                    Some(self.inner.catalog_write().reserve(cvd, kind, name)?)
                }
                _ => None,
            };
            // The catalog lock is not held while blocking on the shard
            // lock, so the shard's CVD can be dropped in between:
            // re-resolve and retry.
            let outcome = loop {
                let Ok(shard) = self.inner.shard_by_key(key) else {
                    // Release the reservations so re-routing cannot
                    // collide with them.
                    release_reservations(&self.inner, key, reserved.as_ref(), side_table.as_ref());
                    return self.execute_as(user, request);
                };
                let mut db = shard.write();
                if shard.is_retired() {
                    continue;
                }
                let prior = db.access.whoami().to_string();
                let outcome = execute_in(&mut db, key, user, request);
                let _ = db.access.login(&prior);
                break outcome;
            };
            // The closing catalog write: drop the index entry of a staged
            // artifact the request consumed, or release the reservation of
            // a failed checkout and of a side table (created or not: the
            // shard lock is released, so a created table is in the
            // published snapshot).
            let done = matches!(outcome, Ok(Ok(_)));
            match consumed {
                Some(consumed) if done => {
                    self.inner.catalog_write().staged.remove(&consumed);
                }
                _ => release_reservations(
                    &self.inner,
                    key,
                    reserved.as_ref().filter(|_| !done),
                    side_table.as_ref(),
                ),
            }
            outcome
        };
        outcome.unwrap_or_else(|run| self.sql_spanning(user, key, &run).map(Response::Rows))
    }

    /// A private clone of one shard's MVCC snapshot — the lock-free read
    /// path. No shard is ever emptied, so the load needs no re-check.
    fn snapshot_of(&self, key: &ShardKey) -> Result<OrpheusDB> {
        Ok(self.inner.shard_by_key(key)?.load_snapshot())
    }

    /// Execute one request as `user` against live state: a single
    /// [`Executor::execute`], and every request an async worker runs.
    /// Catalog requests run under the catalog lock. Everything else is
    /// routed ([`route`], under one catalog read) and runs on its shard
    /// ([`ConcurrentExecutor::run_routed`]); what has no single shard is
    /// SQL spanning shards, or gets the typed error (`CvdNotFound`,
    /// `NotStaged`).
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
                let routed = route(&*self.inner.catalog_read(), &other);
                match (routed, other) {
                    (Some((key, read_only)), other) => {
                        self.run_routed(user, &key, read_only, other)
                    }
                    (None, Request::Run(run)) => self
                        .sql_spanning(user, &ShardKey::Aux, &run)
                        .map(Response::Rows),
                    (None, other) => Err(match other.target() {
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

    /// Run a statement no single shard can serve: it names tables of
    /// several shards, or — routed to its `home` shard — failed there with
    /// `TableNotFound` because it joins tables the analyzer could not
    /// attribute (side tables, another CVD's tables). Re-analyzed against
    /// the live catalog, a `SELECT` runs on a merged
    /// lock-free snapshot of the involved shards plus the auxiliary shard —
    /// of the whole instance when it names no CVD at all — and a writing
    /// statement as a cross-CVD write transaction.
    fn sql_spanning(&self, user: &str, home: &ShardKey, run: &Run) -> Result<QueryResult> {
        let sql = run.lexed()?;
        let cat = self.inner.catalog_read();
        let mut cvds = analyze_sql(&cat, sql)?;
        if let ShardKey::Cvd(home) = home {
            cvds.insert(home.clone());
        }
        if !sql.is_select() {
            // A side table a `SELECT … INTO` left in a CVD's shard is named
            // by no routing rule: that shard's published snapshot answers
            // for it.
            for (key, shard) in &cat.shards {
                let snapshot = shard.snapshot.load();
                if sql.idents().any(|name| snapshot.engine.has_table(name)) {
                    cvds.insert(key.clone());
                }
            }
            drop(cat);
            // A table such a statement creates stays behind in the
            // auxiliary shard; reserved like any other side table.
            let side_table = sql.created_table();
            if let Some(table) = &side_table {
                self.inner
                    .catalog_write()
                    .reserve_side_table(&ShardKey::Aux, table)?;
            }
            // The cross-CVD write transaction: one shard transaction under
            // a shared catalog lock, which pins the shard set. SQL reaches
            // neither the CVD registry nor the staging area, so there is
            // nothing to settle in the catalog.
            let run =
                |odb: &mut OrpheusDB| under_identity(odb, user, |odb| shard_sql(odb, user, sql));
            let result = self.inner.catalog_read().transact(&cvds, run);
            let result = result.and_then(|(rows, _)| rows);
            release_reservations(&self.inner, &ShardKey::Aux, None, side_table.as_ref());
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
        cat.remove_cvd(&name.to_ascii_lowercase())
            .ok_or_else(|| CoreError::CvdNotFound(name.to_string()))?;
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

/// A session's batch is the trait's default loop of `execute`.
impl Executor for ConcurrentExecutor {
    /// The crate-internal `execute_as` under this executor's identity,
    /// with the session-scoped `Login`: success rebinds *this executor*
    /// without touching the identity other sessions see.
    fn execute(&mut self, request: Request) -> Result<Response> {
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
    use crate::async_exec::AsyncExecutor;
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
        // table in one batch works — looped by a session, and as one
        // submission through an async handle.
        s.sql("CREATE TABLE y (k INT)").unwrap();
        let recreate = || -> Vec<Request> {
            vec![
                Run::sql("DROP TABLE y").into(),
                Run::sql("CREATE TABLE y (k INT, v INT)").into(),
                Run::sql("INSERT INTO y VALUES (1, 2)").into(),
            ]
        };
        for result in shared.session("u").unwrap().batch(recreate()) {
            result.unwrap();
        }
        let pool = AsyncExecutor::with_workers(shared.clone(), 2);
        for result in pool.handle("u").unwrap().batch(recreate()) {
            result.unwrap();
        }
        // Shards still merge: the instance-wide paths keep working.
        shared.read(|odb| assert!(odb.engine.has_table("x")));
        let path =
            std::env::temp_dir().join(format!("orpheus-into-{}.orpheus", std::process::id()));
        shared.save_to(&path).unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// ROADMAP item 8: a side table that `SELECT … INTO` left in a CVD's
    /// shard was readable, but no routing rule names that shard, so
    /// `INSERT` and `DROP TABLE` locked the auxiliary shard alone and
    /// answered `TableNotFound`. The fallback write path also locks the
    /// shards whose published snapshot holds a name the statement uses.
    #[test]
    fn a_side_table_left_in_a_cvd_shard_takes_writes_and_drops() {
        let shared = shared_with_two_cvds();
        let s = shared.session("u").unwrap();
        s.sql("SELECT * INTO side FROM VERSION 1 OF CVD left")
            .unwrap();
        s.sql("INSERT INTO side VALUES (100, 10, 1)").unwrap();
        let n = s.sql("SELECT count(*) FROM side").unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(11)));
        s.sql("DROP TABLE side").unwrap();
        assert!(s.sql("SELECT count(*) FROM side").is_err());
        // The name is free again, in a CVD shard and in the auxiliary one.
        s.sql("SELECT * INTO side FROM VERSION 1 OF CVD right")
            .unwrap();
        s.sql("DROP TABLE side").unwrap();
        s.sql("CREATE TABLE side (k INT)").unwrap();
        assert!(shared.inner.catalog_read().creating.is_empty());
        shared.read(|odb| assert!(odb.engine.has_table("side")));
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

    /// Run `requests()` as one batch through a session and through an
    /// async handle, each on a fresh instance from `fresh`: a session
    /// loops over `execute` on the caller's thread, while the handle's
    /// batch runs as one submission on a worker.
    fn batch_both_ways(
        fresh: fn() -> SharedOrpheusDB,
        requests: impl Fn() -> Vec<Request>,
    ) -> Vec<(&'static str, SharedOrpheusDB, Vec<Result<Response>>)> {
        let looped = fresh();
        let looped_results = looped.session("u").unwrap().batch(requests());
        let submitted = fresh();
        let pool = AsyncExecutor::with_workers(submitted.clone(), 2);
        let submitted_results = pool.handle("u").unwrap().batch(requests());
        vec![
            ("session", looped, looped_results),
            ("async", submitted, submitted_results),
        ]
    }

    #[test]
    fn batched_requests_answer_in_submission_order_and_keep_per_shard_order() {
        use crate::request::{Checkout, Commit, Run};

        let requests = || -> Vec<Request> {
            vec![
                Checkout::of("left").version(1u64).into_table("l0").into(),
                Checkout::of("right").version(1u64).into_table("r0").into(),
                Commit::table("l0").message("left edit").into(),
                Checkout::of("left").version(1u64).into_table("l1").into(),
                Commit::table("r0").message("right edit").into(),
                Commit::table("l1").message("left second").into(),
                Run::sql("SELECT count(*) FROM VERSION 1 OF CVD left").into(),
            ]
        };
        for (label, shared, results) in batch_both_ways(shared_with_two_cvds, requests) {
            assert_eq!(results.len(), 7, "{label}");
            for (i, r) in results.iter().enumerate() {
                assert!(r.is_ok(), "{label}: request {i}: {r:?}");
            }
            // Responses answer their submission positions.
            assert_eq!(results[2].as_ref().unwrap().version(), Some(Vid(2)));
            assert_eq!(results[4].as_ref().unwrap().version(), Some(Vid(2)));
            assert_eq!(results[5].as_ref().unwrap().version(), Some(Vid(3)));
            assert_eq!(
                results[6].as_ref().unwrap().rows().unwrap().scalar(),
                Some(&Value::Int(10))
            );
            shared.read(|odb| {
                assert_eq!(odb.cvd("left").unwrap().num_versions(), 3, "{label}");
                assert_eq!(odb.cvd("right").unwrap().num_versions(), 2, "{label}");
                assert!(odb.staged().is_empty(), "{label}");
            });
        }
    }

    #[test]
    fn batch_failures_release_reservations_and_later_requests_run() {
        use crate::request::{Checkout, Commit};

        let requests = || -> Vec<Request> {
            vec![
                // Fails inside the shard (unknown version) after its name
                // was reserved in the catalog.
                Checkout::of("data").version(99u64).into_table("bad").into(),
                Checkout::of("data").version(1u64).into_table("good").into(),
                Commit::table("good").message("fine").into(),
            ]
        };
        for (label, shared, results) in batch_both_ways(shared_with_cvd, requests) {
            assert!(
                matches!(results[0], Err(CoreError::VersionNotFound { .. })),
                "{label}: {:?}",
                results[0]
            );
            assert!(results[1].is_ok(), "{label}: {:?}", results[1]);
            assert_eq!(results[2].as_ref().unwrap().version(), Some(Vid(2)));
            // The failed checkout's reservation was released: the name is
            // free again for the very next request.
            let session = shared.session("u").unwrap();
            session.checkout("data", &[Vid(1)], "bad").unwrap();
            session.discard("bad").unwrap();
            shared.read(|odb| assert!(odb.staged().is_empty(), "{label}"));
        }
    }

    /// `left` and `right` as in [`shared_with_two_cvds`], on a
    /// write-ahead log in `dir`, so the instance can checkpoint.
    fn durable_with_two_cvds(dir: &std::path::Path) -> SharedOrpheusDB {
        let _ = std::fs::remove_dir_all(dir);
        let mut odb = crate::recovery::open(dir).unwrap();
        odb.absorb(shared_with_two_cvds().read(OrpheusDB::clone))
            .unwrap();
        SharedOrpheusDB::new(odb)
    }

    /// A quiesce works in place. The reservations a `SELECT … INTO` and a
    /// checkout take before they lock their shard survive a `write` and a
    /// checkpoint, so no other shard can take the reserved names in the
    /// meantime, and a shard resolved before the quiesce is still the
    /// catalog's after it, so the statements finish where they reserved.
    #[test]
    fn reservations_and_resolved_shards_survive_a_write_and_a_checkpoint() {
        type Quiesce = fn(&SharedOrpheusDB);
        let quiesces: [(&str, Quiesce); 2] = [
            ("write", |shared| shared.write(|_| ())),
            ("checkpoint", |shared| {
                crate::recovery::checkpoint_shared(shared).unwrap();
            }),
        ];
        for (label, quiesce) in quiesces {
            let dir = std::env::temp_dir()
                .join(format!("orpheus-quiesce-{label}-{}", std::process::id()));
            let shared = durable_with_two_cvds(&dir);
            let (left, right) = (ShardKey::Cvd("left".into()), ShardKey::Cvd("right".into()));
            let left_shard = shared.inner.shard_by_key(&left).unwrap();
            let right_shard = shared.inner.shard_by_key(&right).unwrap();
            shared
                .inner
                .catalog_write()
                .reserve_side_table(&left, "x")
                .unwrap();
            let w = shared
                .inner
                .catalog_write()
                .reserve("right", StagedKind::Table, "w")
                .unwrap();

            quiesce(&shared);

            {
                let cat = shared.inner.catalog_read();
                assert!(cat.creating.contains("x"), "{label}");
                assert_eq!(cat.staged.get(&w), Some(&right), "{label}");
            }
            for (key, shard) in [(&left, &left_shard), (&right, &right_shard)] {
                let now = shared.inner.shard_by_key(key).unwrap();
                assert!(Arc::ptr_eq(shard, &now), "{label}: {key:?} was replaced");
            }
            // Another shard cannot take the reserved names.
            let s = shared.session("default").unwrap();
            let err = s.sql("CREATE TABLE x (k INT)").unwrap_err();
            assert!(
                err.to_string().contains("table x already exists"),
                "{label}: {err}"
            );
            let err = s.checkout("left", &[Vid(1)], "w").unwrap_err();
            assert!(err.to_string().contains("already staged"), "{label}: {err}");
            // The statements in flight finish in the shards they resolved.
            left_shard.write().run("CREATE TABLE x (k INT)").unwrap();
            release_reservations(&shared.inner, &left, None, Some(&"x".to_string()));
            right_shard
                .write()
                .checkout("right", &[Vid(1)], "w")
                .unwrap();
            // The instance-wide paths keep working, and `w` commits
            // through the staged index.
            quiesce(&shared);
            shared.read(|odb| assert!(odb.engine.has_table("x"), "{label}"));
            assert_eq!(
                s.commit("w", "after the quiesce").unwrap(),
                Vid(2),
                "{label}"
            );
            assert_eq!(
                s.diff("left", Vid(1), Vid(1)).unwrap().only_in_first.len(),
                0
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_write_closure_creates_and_drops_cvds_and_stages_tables() {
        let shared = shared_with_two_cvds();
        shared.write(|odb| {
            let schema = odb.cvd("left").unwrap().schema.clone();
            let rows = vec![vec![Value::Int(1), Value::Int(1)]];
            odb.init_cvd("fresh", schema, rows, None).unwrap();
            odb.checkout("fresh", &[Vid(1)], "w").unwrap();
            odb.drop_cvd("right").unwrap();
        });
        let s = shared.session("default").unwrap();
        assert_eq!(s.ls(), vec!["fresh", "left"]);
        // The new CVD serves sessions...
        s.checkout("fresh", &[Vid(1)], "w2").unwrap();
        assert_eq!(s.commit("w2", "through a session").unwrap(), Vid(2));
        // ...the table the closure staged commits through the index...
        s.sql("UPDATE w SET v = 2").unwrap();
        assert_eq!(s.commit("w", "staged in the closure").unwrap(), Vid(3));
        assert_eq!(s.version_rows("fresh", Vid(3)).unwrap().len(), 1);
        // ...and the dropped CVD is gone from every route.
        assert!(matches!(
            s.diff("right", Vid(1), Vid(1)),
            Err(CoreError::CvdNotFound(_))
        ));
        assert!(matches!(
            s.checkout("right", &[Vid(1)], "r"),
            Err(CoreError::CvdNotFound(_))
        ));
    }

    #[test]
    fn a_panicking_write_closure_leaves_every_shard_as_it_was() {
        let shared = shared_with_two_cvds();
        let left = shared
            .inner
            .shard_by_key(&ShardKey::Cvd("left".into()))
            .unwrap();
        let outcome = std::panic::catch_unwind(|| {
            shared.write(|odb| {
                odb.drop_cvd("left").unwrap();
                panic!("closure fails mid-way");
            })
        });
        assert!(outcome.is_err());
        let now = shared
            .inner
            .shard_by_key(&ShardKey::Cvd("left".into()))
            .unwrap();
        assert!(Arc::ptr_eq(&left, &now) && !now.is_retired());
        let s = shared.session("u").unwrap();
        assert_eq!(s.version_rows("left", Vid(1)).unwrap().len(), 10);
        s.checkout("left", &[Vid(1)], "w").unwrap();
        assert_eq!(s.commit("w", "still serving").unwrap(), Vid(2));
        shared.read(|odb| assert_eq!(odb.ls(), vec!["left", "right"]));
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

//! The OrpheusDB instance: CVD catalog, checkout/commit/diff, versioned
//! queries, and the partition optimizer hook (Figure 2's middleware,
//! end to end).

use std::collections::HashMap;

use orpheus_engine::{Database, QueryResult, Schema, Value};

use crate::access::AccessController;
use crate::batch::{BatchPlan, BatchRouter, ShardKey};
use crate::csv;
use crate::cvd::{Cvd, VersionMeta};
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::model::{self, CommitData, ModelKind};
use crate::partition_store::{self, OptimizeReport};
use crate::query::{self, Lexed};
use crate::request::{CommandKind, Executor, Request};
use crate::response::{LogEntry, Response};
use crate::staging::{StagedEntry, StagedKind, StagingArea};
use crate::wal::{CommitRecord, WalOp, WalSink};

/// Instance-wide configuration.
#[derive(Debug, Clone)]
pub struct OrpheusConfig {
    /// Data model for newly created CVDs.
    pub default_model: ModelKind,
    /// Storage threshold γ as a multiple of |R| for `optimize`.
    pub gamma_factor: f64,
    /// Migration tolerance factor µ.
    pub mu: f64,
}

impl Default for OrpheusConfig {
    fn default() -> OrpheusConfig {
        OrpheusConfig {
            default_model: ModelKind::SplitByRlist,
            gamma_factor: 2.0,
            mu: 1.5,
        }
    }
}

/// Result of a `diff` between two versions.
#[derive(Debug, Clone)]
pub struct VersionDiff {
    /// Records (attribute values) present in the first version only.
    pub only_in_first: Vec<Vec<Value>>,
    /// Records present in the second version only.
    pub only_in_second: Vec<Vec<Value>>,
}

/// A dataset version control system bolted onto a relational engine.
#[derive(Debug, Clone, Default)]
pub struct OrpheusDB {
    /// The backing relational database. Public: users are free to run
    /// arbitrary SQL against staged tables, exactly as the paper intends.
    pub engine: Database,
    pub(crate) cvds: HashMap<String, Cvd>,
    pub(crate) staging: StagingArea,
    pub access: AccessController,
    pub config: OrpheusConfig,
    pub(crate) clock: u64,
    /// Write-ahead log sink, when the instance was opened through
    /// [`crate::recovery::open`]. Every successful mutating operation
    /// appends (and fsyncs) a record here before returning; `None` means
    /// durability is snapshot-only, exactly as before the WAL existed.
    pub(crate) wal: Option<WalSink>,
}

impl OrpheusDB {
    pub fn new() -> OrpheusDB {
        OrpheusDB::default()
    }

    pub fn with_config(config: OrpheusConfig) -> OrpheusDB {
        OrpheusDB {
            config,
            ..OrpheusDB::default()
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Append one record to the write-ahead log (no-op without one).
    /// Called *after* the in-memory apply succeeded and *before* the
    /// operation returns: the fsync inside [`WalSink::append`] is what
    /// makes the acknowledgement durable. `clock_before` is the logical
    /// clock captured before the op's first tick, so replay can pin it.
    fn wal_append(&self, clock_before: u64, op: &WalOp) -> Result<()> {
        match &self.wal {
            Some(sink) => sink.append(self.access.whoami(), clock_before, op),
            None => Ok(()),
        }
    }

    /// Whether mutations are being logged (used to skip capturing
    /// record material on the hot path when they are not).
    fn wal_armed(&self) -> bool {
        self.wal.is_some()
    }

    /// Refuse a mutation up front while the WAL sink is degraded (an
    /// earlier append or fsync failed). Checking *before* the in-memory
    /// apply is what keeps degraded mode torn-state-free: memory never
    /// advances past the durable log by more than the single operation
    /// whose append failure triggered degradation. Reads and checkouts
    /// skip this check and keep serving.
    fn ensure_writable(&self) -> Result<()> {
        match &self.wal {
            Some(sink) => match sink.degraded() {
                Some(why) => Err(CoreError::Degraded(why)),
                None => Ok(()),
            },
            None => Ok(()),
        }
    }

    /// The recorded I/O failure when the instance is in read-only
    /// degraded mode, `None` while healthy (or without a WAL).
    pub fn degraded(&self) -> Option<String> {
        self.wal.as_ref().and_then(|sink| sink.degraded())
    }

    // -- catalog --------------------------------------------------------------

    pub fn cvd(&self, name: &str) -> Result<&Cvd> {
        lookup(&self.cvds, name)
    }

    /// Register a fully-built CVD whose backing tables already exist in the
    /// engine. This is the bulk-import path used by the benchmark harness
    /// and workload loaders; normal ingestion goes through
    /// [`OrpheusDB::init_cvd`] + [`OrpheusDB::commit`].
    pub fn import_cvd(&mut self, cvd: Cvd) -> Result<()> {
        let key = cvd.name.clone();
        if self.cvds.contains_key(&key) {
            return Err(CoreError::CvdExists(key));
        }
        for t in model::backing_tables(&cvd) {
            if !self.engine.has_table(&t) {
                return Err(CoreError::Invalid(format!(
                    "cannot import {key}: backing table {t} is missing"
                )));
            }
        }
        self.clock = self
            .clock
            .max(cvd.versions.iter().map(|m| m.commit_t).max().unwrap_or(0));
        self.cvds.insert(key, cvd);
        Ok(())
    }

    /// Detach one CVD — its catalog entry, backing tables, and staged
    /// artifacts — into a standalone single-CVD instance. The inverse of
    /// [`OrpheusDB::absorb`]; together they are the shard construction
    /// primitives behind [`crate::SharedOrpheusDB`]'s per-CVD locking.
    ///
    /// Tables are *moved*, not copied: row data changes owner without
    /// being cloned. Staged tables registered for other CVDs are never
    /// claimed, even when their names happen to share this CVD's
    /// `<cvd>__` prefix.
    pub fn detach_cvd(&mut self, name: &str) -> Result<OrpheusDB> {
        let key = name.to_ascii_lowercase();
        let cvd = self
            .cvds
            .remove(&key)
            .ok_or_else(|| CoreError::CvdNotFound(name.to_string()))?;
        let mut shard = OrpheusDB {
            access: self.access.clone(),
            config: self.config.clone(),
            clock: self.clock,
            // Shards share the sink: shard-level mutations append inside
            // the shard lock.
            wal: self.wal.clone(),
            ..OrpheusDB::default()
        };
        // Staged artifacts first, so the prefix claim below can skip
        // staged tables that belong to other CVDs.
        for entry in self.staging.remove_for_cvd(&key) {
            if entry.kind == StagedKind::Table {
                if let Ok(table) = self.engine.take_table(&entry.name) {
                    shard.engine.add_table(table)?;
                }
            }
            shard.staging.register(entry)?;
        }
        // Claim backing tables by the `<cvd>__` naming convention, with a
        // longest-prefix rule so a CVD whose name extends this one (e.g.
        // `a` vs `a__b`) keeps its own tables.
        let prefix = format!("{key}__");
        for t in self.engine.table_names() {
            if !t.starts_with(&prefix) {
                continue;
            }
            let better_claim = self
                .cvds
                .keys()
                .any(|other| other.len() > key.len() && t.starts_with(&format!("{other}__")));
            if better_claim || self.staging.get(&t, StagedKind::Table).is_ok() {
                continue;
            }
            shard.engine.add_table(self.engine.take_table(&t)?)?;
        }
        shard.cvds.insert(key, cvd);
        Ok(shard)
    }

    /// Merge another instance's CVDs, staged artifacts, tables, and user
    /// registry into this one (the inverse of [`OrpheusDB::detach_cvd`]).
    /// Fails on CVD or table name collisions rather than overwriting.
    pub fn absorb(&mut self, mut other: OrpheusDB) -> Result<()> {
        for t in other.engine.table_names() {
            self.engine.add_table(other.engine.take_table(&t)?)?;
        }
        for (key, cvd) in other.cvds.drain() {
            if self.cvds.contains_key(&key) {
                return Err(CoreError::CvdExists(key));
            }
            self.cvds.insert(key, cvd);
        }
        for entry in other.staging.drain() {
            self.staging.register(entry)?;
        }
        for user in other.access.users() {
            self.access.ensure_user(&user)?;
        }
        self.clock = self.clock.max(other.clock);
        Ok(())
    }

    /// `ls`: names of all CVDs.
    pub fn ls(&self) -> Vec<String> {
        let mut names: Vec<String> = self.cvds.keys().cloned().collect();
        names.sort();
        names
    }

    /// `drop`: remove a CVD and all of its backing tables.
    pub fn drop_cvd(&mut self, name: &str) -> Result<()> {
        self.ensure_writable()?;
        let cvd = self
            .cvds
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| CoreError::CvdNotFound(name.to_string()))?;
        model::drop_storage(&mut self.engine, &cvd);
        let _ = self.engine.drop_table(&cvd.meta_table());
        let _ = self.engine.drop_table(&cvd.attr_table());
        self.wal_append(
            self.clock,
            &WalOp::Request(Request::Drop(crate::request::DropCvd {
                cvd: name.to_string(),
            })),
        )?;
        Ok(())
    }

    // -- init -----------------------------------------------------------------

    /// Create a CVD from initial rows (version 1). `rows` contain data
    /// attribute values only (no rid).
    pub fn init_cvd(
        &mut self,
        name: &str,
        schema: Schema,
        rows: Vec<Vec<Value>>,
        model: Option<ModelKind>,
    ) -> Result<Vid> {
        self.ensure_writable()?;
        let key = name.to_ascii_lowercase();
        if self.cvds.contains_key(&key) {
            return Err(CoreError::CvdExists(name.to_string()));
        }
        let model = model.unwrap_or(self.config.default_model);
        let clock_before = self.clock;
        // The rows are consumed below; capture the replayable request up
        // front (only when a WAL is attached — the clone is the price of
        // durability, not of the default path).
        let wal_op = self.wal_armed().then(|| {
            WalOp::Request(Request::Init(crate::request::Init {
                cvd: name.to_string(),
                schema: schema.clone(),
                rows: rows.clone(),
                model: Some(model),
            }))
        });
        let mut cvd = Cvd::new(name, schema, model);
        model::init_storage(&mut self.engine, &cvd)?;
        cvd.create_meta_tables(&mut self.engine)?;

        check_pk_duplicates(&cvd.schema, rows.iter().map(|r| r.as_slice()))?;
        let rids = cvd.alloc_rids(rows.len());
        let all_records: Vec<(i64, Vec<Value>)> = rids.iter().copied().zip(rows).collect();
        let data = CommitData {
            vid: Vid(1),
            rlist: rids.clone(),
            kept: Vec::new(),
            new_records: all_records.clone(),
            all_records,
            base: None,
            deleted_from_base: Vec::new(),
        };
        model::persist_commit(&mut self.engine, &cvd, &data, false)?;
        let commit_t = self.tick();
        let attributes = {
            let schema = cvd.schema.clone();
            cvd.attrs.intern_schema(&schema)
        };
        cvd.push_version(
            VersionMeta {
                vid: Vid(1),
                parents: Vec::new(),
                parent_weights: Vec::new(),
                checkout_t: None,
                commit_t,
                message: "init".to_string(),
                attributes,
                num_records: rids.len() as u64,
                base: None,
            },
            rids,
        );
        cvd.sync_meta_row(&mut self.engine, Vid(1))?;
        self.cvds.insert(key, cvd);
        if let Some(op) = wal_op {
            self.wal_append(clock_before, &op)?;
        }
        Ok(Vid(1))
    }

    /// `init -f`: create a CVD from CSV text plus a schema description.
    pub fn init_cvd_from_csv(
        &mut self,
        name: &str,
        csv_text: &str,
        schema: Schema,
        model: Option<ModelKind>,
    ) -> Result<Vid> {
        let (header, raw) = csv::parse_csv(csv_text)?;
        let rows = csv::typed_rows(&schema, &header, &raw)?;
        self.init_cvd(name, schema, rows, model)
    }

    // -- checkout ---------------------------------------------------------------

    /// `checkout [cvd] -v vids -t table`: materialize one or more versions
    /// into a fresh table. Multiple versions merge with precedence-based
    /// primary-key conflict resolution (Section 2.2).
    ///
    /// The CVD is borrowed in place — only its name is copied for the
    /// staging entry; `version_rids` is never cloned on this path.
    pub fn checkout(&mut self, cvd_name: &str, vids: &[Vid], table: &str) -> Result<()> {
        self.checkout_with(None, cvd_name, vids, table)
    }

    /// [`OrpheusDB::checkout`], with a multi-version merge optionally
    /// served from (and seeding) the batch's shared scans. Only the row
    /// source differs: the rows are identical whichever produced them.
    fn checkout_with(
        &mut self,
        cache: Option<&mut ScanCache>,
        cvd_name: &str,
        vids: &[Vid],
        table: &str,
    ) -> Result<()> {
        require_versions(vids)?;
        if self.engine.has_table(table) {
            return Err(CoreError::Invalid(format!("table {table} already exists")));
        }
        let cvd = lookup_versions(&self.cvds, cvd_name, vids)?;
        if let [vid] = *vids {
            model::checkout_into(&mut self.engine, cvd, vid, table)?;
        } else {
            let rows = merged_rows(&mut self.engine, cache, cvd, vids)?;
            let schema = cvd.staged_schema();
            self.engine.create_table(table, schema)?;
            model::insert_rows(&mut self.engine, table, rows)?;
        }
        let cvd_key = cvd.name.clone();
        self.register_staged(table, cvd_key, vids, StagedKind::Table)
    }

    /// `checkout -f`: export version(s) as CSV text (the caller writes the
    /// file; keeping I/O outside makes the API testable).
    pub fn checkout_csv(&mut self, cvd_name: &str, vids: &[Vid], path: &str) -> Result<String> {
        self.checkout_csv_with(None, cvd_name, vids, path)
    }

    /// CSV-export variant of [`OrpheusDB::checkout_with`].
    fn checkout_csv_with(
        &mut self,
        cache: Option<&mut ScanCache>,
        cvd_name: &str,
        vids: &[Vid],
        path: &str,
    ) -> Result<String> {
        require_versions(vids)?;
        let cvd = lookup_versions(&self.cvds, cvd_name, vids)?;
        let rows = merged_rows(&mut self.engine, cache, cvd, vids)?;
        let text = csv::to_csv(&cvd.staged_schema(), &rows);
        let cvd_key = cvd.name.clone();
        self.register_staged(path, cvd_key, vids, StagedKind::Csv)?;
        Ok(text)
    }

    /// Record a finished checkout in the staging area, under the current
    /// user and the next logical timestamp.
    fn register_staged(
        &mut self,
        name: &str,
        cvd: String,
        parents: &[Vid],
        kind: StagedKind,
    ) -> Result<()> {
        let created_at = self.tick();
        self.staging.register(StagedEntry {
            name: name.to_string(),
            cvd,
            parents: parents.to_vec(),
            owner: self.access.whoami().to_string(),
            created_at,
            kind,
        })
    }

    // -- commit -----------------------------------------------------------------

    /// `commit -t table -m msg`: add the staged table back to its CVD as a
    /// new version.
    pub fn commit(&mut self, table: &str, message: &str) -> Result<Vid> {
        self.ensure_writable()?;
        let entry = self.staging.get(table, StagedKind::Table)?.clone();
        self.access.check_owner(&entry.owner, table)?;
        // Test/bench hook: hold this commit open mid-flight (under the
        // shard write lock when called through the concurrent layer) so
        // MVCC snapshot reads can be demonstrated deterministically.
        crate::concurrent::hold_commit_if_gated(table);
        let staged_schema = self.engine.table(table)?.schema.clone();
        let rows: Vec<Vec<Value>> = self.engine.table(table)?.rows().cloned().collect();
        let clock_before = self.clock;
        // Staged edits happen through raw SQL the log never sees, so the
        // record materializes the final rows (captured only when logging).
        let wal_rows = self.wal_armed().then(|| rows.clone());
        let vid = self.commit_rows(&entry, &staged_schema, rows, message)?;
        self.engine.drop_table(table)?;
        self.staging.remove(table, StagedKind::Table)?;
        if let Some(rows) = wal_rows {
            self.wal_append(
                clock_before,
                &WalOp::Commit(CommitRecord {
                    cvd: entry.cvd,
                    staged_name: entry.name,
                    kind: entry.kind,
                    parents: entry.parents,
                    owner: entry.owner,
                    created_at: entry.created_at,
                    schema: Schema::clone(&staged_schema),
                    rows,
                    message: message.to_string(),
                    vid,
                }),
            )?;
        }
        Ok(vid)
    }

    /// Abandon a staged table without committing: drops the table and its
    /// provenance entry (the inverse of checkout).
    pub fn discard(&mut self, table: &str) -> Result<()> {
        self.ensure_writable()?;
        let entry = self.staging.get(table, StagedKind::Table)?.clone();
        self.access.check_owner(&entry.owner, table)?;
        self.engine.drop_table(table)?;
        self.staging.remove(table, StagedKind::Table)?;
        self.wal_append(
            self.clock,
            &WalOp::Request(Request::Discard(crate::request::Discard {
                table: table.to_string(),
            })),
        )?;
        Ok(())
    }

    /// `commit -f csv -m msg [-s schema]`: commit CSV text previously
    /// exported with [`OrpheusDB::checkout_csv`].
    pub fn commit_csv(
        &mut self,
        path: &str,
        csv_text: &str,
        message: &str,
        schema_text: Option<&str>,
    ) -> Result<Vid> {
        self.ensure_writable()?;
        let entry = self.staging.get(path, StagedKind::Csv)?.clone();
        self.access.check_owner(&entry.owner, path)?;
        let cvd = self.cvd(&entry.cvd)?;
        // The staged schema is rid + data attributes; an explicit schema
        // file (the -s flag) overrides the attribute part.
        let staged_schema = match schema_text {
            Some(text) => {
                let user_schema = csv::parse_schema_file(text)?;
                let mut cols = vec![orpheus_engine::Column::new(
                    "rid",
                    orpheus_engine::DataType::Int,
                )];
                cols.extend(user_schema.columns);
                Schema::new(cols)
            }
            None => cvd.staged_schema(),
        };
        let (header, raw) = csv::parse_csv(csv_text)?;
        let rows = csv::typed_rows(&staged_schema, &header, &raw)?;
        let clock_before = self.clock;
        let wal_rows = self.wal_armed().then(|| rows.clone());
        let vid = self.commit_rows(&entry, &staged_schema, rows, message)?;
        self.staging.remove(path, StagedKind::Csv)?;
        if let Some(rows) = wal_rows {
            self.wal_append(
                clock_before,
                &WalOp::Commit(CommitRecord {
                    cvd: entry.cvd,
                    staged_name: entry.name,
                    kind: entry.kind,
                    parents: entry.parents,
                    owner: entry.owner,
                    created_at: entry.created_at,
                    schema: Schema::clone(&staged_schema),
                    rows,
                    message: message.to_string(),
                    vid,
                }),
            )?;
        }
        Ok(vid)
    }

    /// Shared commit core: diff staged rows against the parent versions and
    /// persist a new version (the no-cross-version-diff rule of §2.2).
    ///
    /// The CVD is never cloned: the diff phase borrows it (and, on the
    /// fast path, the parent rows straight out of the engine's tables via
    /// the rid index), and only then is the catalog entry mutated in
    /// place. Parent overlaps are computed once per parent by sorted-merge
    /// and reused for both base selection and the stored weights.
    fn commit_rows(
        &mut self,
        entry: &StagedEntry,
        staged_schema: &Schema,
        rows: Vec<Vec<Value>>,
        message: &str,
    ) -> Result<Vid> {
        let cvd_key = entry.cvd.to_ascii_lowercase();
        let cvd = lookup(&self.cvds, &cvd_key)?;
        let vid = Vid(cvd.num_versions() as u64 + 1);
        // Plan any schema evolution first (Section 3.3) and check the
        // staged rows against the planned schema: a commit that is
        // refused is refused before storage or catalog are evolved.
        let evolved = evolved_schema(&cvd.schema, staged_schema)?;
        let schema = evolved.as_ref().unwrap_or(&cvd.schema);

        // Staged rows → (Option<rid>, values in cvd-schema order).
        let width = schema.arity();
        let mut staged: Vec<(Option<i64>, Vec<Value>)> = Vec::with_capacity(rows.len());
        let col_map: Vec<Option<usize>> = schema
            .columns
            .iter()
            .map(|c| {
                staged_schema
                    .columns
                    .iter()
                    .position(|sc| sc.name.eq_ignore_ascii_case(&c.name))
            })
            .collect();
        for row in rows {
            let rid = match row.first() {
                Some(Value::Int(r)) => Some(*r),
                Some(Value::Null) | None => None,
                Some(other) => {
                    return Err(CoreError::Invalid(format!(
                        "rid column must be INT or NULL, found {other}"
                    )))
                }
            };
            let mut values = Vec::with_capacity(width);
            for m in &col_map {
                values.push(match m {
                    Some(i) => row.get(*i).cloned().unwrap_or(Value::Null),
                    None => Value::Null,
                });
            }
            staged.push((rid, values));
        }

        check_pk_duplicates(schema, staged.iter().map(|(_, v)| v.as_slice()))?;
        if let Some(new_schema) = evolved {
            self.apply_schema(&cvd_key, new_schema)?;
        }
        let cvd = lookup(&self.cvds, &cvd_key)?;

        // Classify: unchanged rows keep their rid, everything else is new.
        // Parent records are looked up by borrowing rows in place through
        // each model's rid-index fast path; only when a parent cannot be
        // fast-read are its rows materialized via the SQL formulation.
        // First parent takes precedence (immutable records make ties
        // value-identical anyway).
        let keep = {
            let mut fast: Option<Vec<Option<i64>>> = None;
            {
                let engine = &self.engine;
                let mut map: HashMap<i64, &[Value]> = HashMap::new();
                let mut ready = true;
                for p in &entry.parents {
                    match model::version_row_refs(engine, cvd, *p)? {
                        Some(list) => {
                            map.reserve(list.len());
                            for (rid, values) in list {
                                map.entry(rid).or_insert(values);
                            }
                        }
                        None => {
                            ready = false;
                            break;
                        }
                    }
                }
                if ready {
                    fast = Some(classify_staged(&staged, |r| map.get(&r).copied()));
                }
            }
            match fast {
                Some(keep) => keep,
                None => {
                    let mut map: HashMap<i64, Vec<Value>> = HashMap::new();
                    for p in &entry.parents {
                        for (rid, values) in model::version_rows(&mut self.engine, cvd, *p)? {
                            map.entry(rid).or_insert(values);
                        }
                    }
                    classify_staged(&staged, |r| map.get(&r).map(|v| v.as_slice()))
                }
            }
        };

        let new_count = keep.iter().filter(|k| k.is_none()).count();
        // Allocate fresh rids on the catalog entry itself (an error later
        // leaves a harmless gap — rids are never reused anyway).
        let fresh = lookup_mut(&mut self.cvds, &cvd_key)?.alloc_rids(new_count);

        let mut kept = Vec::with_capacity(staged.len() - new_count);
        let mut new_rows: Vec<Vec<Value>> = Vec::with_capacity(new_count);
        let mut all_records: Vec<(i64, Vec<Value>)> = Vec::with_capacity(staged.len());
        for (keep_rid, (_, values)) in keep.into_iter().zip(staged) {
            match keep_rid {
                Some(r) => {
                    kept.push(r);
                    all_records.push((r, values));
                }
                None => new_rows.push(values),
            }
        }
        let new_records: Vec<(i64, Vec<Value>)> = fresh.into_iter().zip(new_rows).collect();
        all_records.extend(new_records.iter().cloned());

        let mut rlist: Vec<i64> = all_records.iter().map(|(r, _)| *r).collect();
        rlist.sort_unstable();

        let cvd = lookup(&self.cvds, &cvd_key)?;
        // One sorted-merge per parent; base selection and parent_weights
        // both come from this single pass.
        let parent_weights = cvd.parent_overlaps(&rlist, &entry.parents);
        let base = base_parent(&entry.parents, &parent_weights);
        let deleted_from_base = match base {
            Some(b) => crate::cvd::sorted_difference(cvd.rids_of(b)?, &rlist),
            None => Vec::new(),
        };

        let data = CommitData {
            vid,
            rlist: rlist.clone(),
            kept,
            new_records,
            all_records,
            base,
            deleted_from_base,
        };
        if let Err(e) = model::persist_commit(&mut self.engine, cvd, &data, false) {
            // Undo any partial backing-storage writes so the vid can be
            // reused by a retried commit.
            model::rollback_commit(&mut self.engine, cvd, &data);
            return Err(e);
        }

        let commit_t = self.tick();
        let cvd = lookup_mut(&mut self.cvds, &cvd_key)?;
        let attributes = {
            let schema = cvd.schema.clone();
            cvd.attrs.intern_schema(&schema)
        };
        cvd.push_version(
            VersionMeta {
                vid,
                parents: entry.parents.clone(),
                parent_weights,
                checkout_t: Some(entry.created_at),
                commit_t,
                message: message.to_string(),
                attributes,
                num_records: rlist.len() as u64,
                base,
            },
            rlist,
        );

        // Finalize: metadata row + online partition maintenance
        // (Section 4.3). The version was just published into the live
        // catalog entry (the clone-free path has no scratch copy to throw
        // away), so a failure here must unpublish it everywhere —
        // catalog *and* backing storage — or a half-committed version
        // would answer checkouts and its vid could never be reused.
        let finalize = lookup(&self.cvds, &cvd_key)
            .and_then(|cvd| cvd.sync_meta_row(&mut self.engine, vid))
            .and_then(|()| {
                let cvd = lookup_mut(&mut self.cvds, &cvd_key)?;
                if cvd.partition.is_some() {
                    partition_store::on_commit(&mut self.engine, cvd, vid)?;
                }
                Ok(())
            });
        if let Err(e) = finalize {
            let cvd = lookup_mut(&mut self.cvds, &cvd_key)?;
            cvd.versions.pop();
            cvd.version_rids.pop();
            model::rollback_commit(&mut self.engine, cvd, &data);
            partition_store::rollback_placement(&mut self.engine, cvd, vid);
            model::delete_keys(&mut self.engine, &cvd.meta_table(), &[vid.0 as i64]);
            return Err(e);
        }
        Ok(vid)
    }

    /// Re-run a logged commit during WAL replay: the staged rows come
    /// from the record (not from a staged table, which may not exist in
    /// the snapshot), and the resulting version id is asserted against
    /// the one the live commit produced. If the snapshot happened to
    /// capture the staged artifact, it is retired exactly as the live
    /// commit retired it.
    pub(crate) fn replay_commit(&mut self, rec: CommitRecord) -> Result<Vid> {
        let entry = StagedEntry {
            name: rec.staged_name,
            cvd: rec.cvd,
            parents: rec.parents,
            owner: rec.owner,
            created_at: rec.created_at,
            kind: rec.kind,
        };
        let vid = self.commit_rows(&entry, &rec.schema, rec.rows, &rec.message)?;
        if vid != rec.vid {
            return Err(CoreError::Storage(format!(
                "WAL replay diverged: commit of {} produced {vid}, the log recorded {}",
                entry.cvd, rec.vid
            )));
        }
        if self.staging.get(&entry.name, entry.kind).is_ok() {
            if entry.kind == StagedKind::Table {
                let _ = self.engine.drop_table(&entry.name);
            }
            let _ = self.staging.remove(&entry.name, entry.kind);
        }
        Ok(vid)
    }

    /// Evolve storage and the catalog entry to `new_schema`, as planned by
    /// [`evolved_schema`]: a column past the current arity is added with
    /// NULLs, one whose type differs is widened — in every table of the
    /// layout that carries data attributes, partition tables included. An
    /// engine failure further down the commit leaves the evolved schema in
    /// place: catalog and storage agree on it and a retry finds it there.
    fn apply_schema(&mut self, cvd_key: &str, new_schema: Schema) -> Result<()> {
        let cvd = lookup(&self.cvds, cvd_key)?;
        for (i, col) in new_schema.columns.iter().enumerate() {
            match cvd.schema.columns.get(i) {
                None => add_model_column(&mut self.engine, cvd, &col.name, col.dtype)?,
                Some(old) if old.dtype != col.dtype => {
                    alter_model_column_type(&mut self.engine, cvd, &col.name, col.dtype)?
                }
                Some(_) => {}
            }
        }
        let cvd = lookup_mut(&mut self.cvds, cvd_key)?;
        cvd.attrs.intern_schema(&new_schema);
        cvd.schema = new_schema;
        Ok(())
    }

    // -- diff, queries, optimizer ------------------------------------------------

    /// `diff`: records in one version but not the other (by record id).
    /// Membership resolves against the sorted rlists — no hash sets, no
    /// CVD clone.
    pub fn diff(&mut self, cvd_name: &str, a: Vid, b: Vid) -> Result<VersionDiff> {
        let cvd = lookup(&self.cvds, cvd_name)?;
        cvd.check_version(a)?;
        cvd.check_version(b)?;
        let rows_a = model::version_rows(&mut self.engine, cvd, a)?;
        let rows_b = model::version_rows(&mut self.engine, cvd, b)?;
        let rids_a = cvd.rids_of(a)?;
        let rids_b = cvd.rids_of(b)?;
        Ok(VersionDiff {
            only_in_first: rows_a
                .into_iter()
                .filter(|(r, _)| rids_b.binary_search(r).is_err())
                .map(|(_, v)| v)
                .collect(),
            only_in_second: rows_b
                .into_iter()
                .filter(|(r, _)| rids_a.binary_search(r).is_err())
                .map(|(_, v)| v)
                .collect(),
        })
    }

    /// `run`: execute SQL with the versioned extensions (`VERSION n OF CVD
    /// x`, `CVD x`) translated to plain SQL (Section 2.2).
    pub fn run(&mut self, sql: &str) -> Result<QueryResult> {
        self.run_lexed(&Lexed::new(sql)?)
    }

    /// [`OrpheusDB::run`] on a statement that is already lexed: the
    /// translator rewrites the token vector and the engine parses it — the
    /// text is never read again.
    pub(crate) fn run_lexed(&mut self, sql: &Lexed) -> Result<QueryResult> {
        let translated = query::translate(self, sql.tokens())?;
        Ok(self.engine.execute_tokens(&translated)?)
    }

    /// `optimize`: run the partition optimizer on a CVD.
    pub fn optimize(&mut self, cvd_name: &str) -> Result<OptimizeReport> {
        self.optimize_weighted(cvd_name, &[])
    }

    /// `optimize` with explicit parameters (storage threshold γ factor and
    /// tolerance µ).
    pub fn optimize_with(
        &mut self,
        cvd_name: &str,
        gamma_factor: f64,
        mu: f64,
    ) -> Result<OptimizeReport> {
        self.optimize_weighted_with(cvd_name, &[], gamma_factor, mu)
    }

    /// `optimize` for a skewed workload (Appendix C.2): `freqs` maps
    /// versions to checkout frequencies; versions not listed default to 1.
    /// The returned report's `cavg` is the *weighted* checkout cost.
    pub fn optimize_weighted(
        &mut self,
        cvd_name: &str,
        freqs: &[(Vid, u64)],
    ) -> Result<OptimizeReport> {
        let (gamma, mu) = (self.config.gamma_factor, self.config.mu);
        self.optimize_weighted_with(cvd_name, freqs, gamma, mu)
    }

    /// The one `optimize`: explicit γ factor and µ, and checkout
    /// frequencies that may be empty. No frequencies means the
    /// *unweighted* optimizer (LyreSplit on the version tree, `cavg` the
    /// tree's Cavg) — not weighted LyreSplit with every frequency 1, whose
    /// `cavg` is the bipartite Cw. The request is logged with `freqs` as
    /// given and replayed through here, so live and replayed runs pick the
    /// same optimizer.
    pub fn optimize_weighted_with(
        &mut self,
        cvd_name: &str,
        freqs: &[(Vid, u64)],
        gamma_factor: f64,
        mu: f64,
    ) -> Result<OptimizeReport> {
        self.ensure_writable()?;
        let clock_before = self.clock;
        let cvd = lookup_mut(&mut self.cvds, cvd_name)?;
        let mut weights = (!freqs.is_empty()).then(|| vec![1u64; cvd.num_versions()]);
        for &(vid, f) in freqs {
            cvd.check_version(vid)?;
            if let Some(w) = &mut weights {
                w[vid.index()] = f;
            }
        }
        let report =
            partition_store::optimize(&mut self.engine, cvd, weights.as_deref(), gamma_factor, mu)?;
        self.wal_append(
            clock_before,
            &WalOp::Request(Request::Optimize(crate::request::Optimize {
                cvd: cvd_name.to_string(),
                gamma: Some(gamma_factor),
                mu: Some(mu),
                weights: freqs.to_vec(),
            })),
        )?;
        Ok(report)
    }

    /// Records of one version (rid + attribute values), for tooling.
    pub fn version_rows(&mut self, cvd_name: &str, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
        let cvd = lookup(&self.cvds, cvd_name)?;
        model::version_rows(&mut self.engine, cvd, vid)
    }

    /// Total model storage for a CVD in bytes (Figure 3a's metric).
    pub fn storage_bytes(&self, cvd_name: &str) -> Result<u64> {
        let cvd = self.cvd(cvd_name)?;
        Ok(model::storage_bytes(&self.engine, cvd))
    }

    /// Storage of the partitioned layout, when present (Figures 12b/13b).
    pub fn partitioned_storage_bytes(&self, cvd_name: &str) -> Result<u64> {
        let cvd = self.cvd(cvd_name)?;
        Ok(partition_store::partition_storage_bytes(&self.engine, cvd))
    }

    /// Staged artifacts (for `ls`-style tooling and tests).
    pub fn staged(&self) -> Vec<&StagedEntry> {
        self.staging.list()
    }

    /// `log`: the version history of a CVD as typed entries.
    pub fn log_entries(&self, cvd_name: &str) -> Result<Vec<LogEntry>> {
        let cvd = self.cvd(cvd_name)?;
        Ok(cvd
            .versions
            .iter()
            .map(|m| LogEntry {
                vid: m.vid,
                parents: m.parents.clone(),
                commit_t: m.commit_t,
                num_records: m.num_records,
                message: m.message.clone(),
            })
            .collect())
    }

    // -- batching ---------------------------------------------------------------

    /// Execute one request of a batch against this instance: the
    /// shared-scan checkout fast path when `plan` says the scan is reused
    /// ([`BatchPlan::shared_scans`]), the ordinary [`Executor::execute`]
    /// otherwise — with `cache` invalidated first whenever the request
    /// could change version contents ([`invalidates_shared_scans`]). Both
    /// the [`OrpheusDB`] batch override and the concurrent executor's
    /// per-shard sub-batches run through this, so a batch coalesces
    /// version-row scans whichever executor drives it.
    ///
    /// Sharing is only engaged where the scan is the dominant cost:
    /// multi-version table checkouts (the version merge happens exactly
    /// once per batch) and CSV exports (no table materialization to pay
    /// for). A *single-version table* checkout goes through the plain
    /// rid→slot fast path even inside a batch: measured on checkout-heavy
    /// streams, caching its rows costs more (row-set clones) than the
    /// already-index-backed scan a cache hit would save — see
    /// [`ScanCache`].
    pub(crate) fn execute_batch_step(
        &mut self,
        plan: &BatchPlan,
        cache: &mut ScanCache,
        request: Request,
    ) -> Result<Response> {
        match request {
            Request::Checkout(c)
                if c.versions.len() > 1 && plan.shared_scans(&c.cvd, &c.versions) > 1 =>
            {
                self.checkout_with(Some(cache), &c.cvd, &c.versions, &c.table)
                    .map(|()| Response::CheckedOut {
                        cvd: c.cvd,
                        versions: c.versions,
                        table: c.table,
                    })
            }
            Request::CheckoutCsv(c) if plan.shared_scans(&c.cvd, &c.versions) > 1 => self
                .checkout_csv_with(Some(cache), &c.cvd, &c.versions, &c.path)
                .map(|csv| Response::CheckedOutCsv {
                    cvd: c.cvd,
                    versions: c.versions,
                    path: c.path,
                    csv,
                }),
            other => {
                if invalidates_shared_scans(&other) {
                    cache.clear();
                }
                self.execute(other)
            }
        }
    }

    /// Persist the whole instance (engine data + middleware state) to a
    /// checksummed snapshot file. See [`crate::persist`].
    pub fn save_to(&self, path: &std::path::Path) -> Result<()> {
        crate::persist::save(self, path)
    }

    /// Restore an instance previously saved with [`OrpheusDB::save_to`].
    pub fn load_from(path: &std::path::Path) -> Result<OrpheusDB> {
        crate::persist::load(path)
    }
}

/// The single-threaded executor: every typed command maps onto the
/// corresponding `OrpheusDB` method. [`crate::Session`] implements the
/// same trait over a shared instance, so CLI, REPL, examples, benches, and
/// tests all drive one bus.
impl Executor for OrpheusDB {
    fn execute(&mut self, request: Request) -> Result<Response> {
        match request {
            Request::Init(r) => {
                let version = self.init_cvd(&r.cvd, r.schema, r.rows, r.model)?;
                Ok(Response::Initialized {
                    cvd: r.cvd,
                    version,
                })
            }
            Request::InitFromCsv(r) => {
                let schema = crate::csv::parse_schema_file(&r.schema_text)?;
                let version = self.init_cvd_from_csv(&r.cvd, &r.csv, schema, r.model)?;
                Ok(Response::Initialized {
                    cvd: r.cvd,
                    version,
                })
            }
            Request::Checkout(r) => {
                self.checkout(&r.cvd, &r.versions, &r.table)?;
                Ok(Response::CheckedOut {
                    cvd: r.cvd,
                    versions: r.versions,
                    table: r.table,
                })
            }
            Request::CheckoutCsv(r) => {
                let csv = self.checkout_csv(&r.cvd, &r.versions, &r.path)?;
                Ok(Response::CheckedOutCsv {
                    cvd: r.cvd,
                    versions: r.versions,
                    path: r.path,
                    csv,
                })
            }
            Request::Commit(r) => {
                let version = self.commit(&r.table, &r.message)?;
                Ok(Response::Committed {
                    target: r.table,
                    version,
                })
            }
            Request::CommitCsv(r) => {
                let version =
                    self.commit_csv(&r.path, &r.csv, &r.message, r.schema_text.as_deref())?;
                Ok(Response::Committed {
                    target: r.path,
                    version,
                })
            }
            Request::Diff(r) => {
                let diff = self.diff(&r.cvd, r.from, r.to)?;
                Ok(Response::Diffed {
                    cvd: r.cvd,
                    from: r.from,
                    to: r.to,
                    diff,
                })
            }
            Request::Run(r) => Ok(Response::Rows(self.run_lexed(r.lexed()?)?)),
            Request::Ls => Ok(Response::CvdList(self.ls())),
            Request::Log(r) => {
                let entries = self.log_entries(&r.cvd)?;
                Ok(Response::Log {
                    cvd: r.cvd,
                    entries,
                })
            }
            Request::Drop(r) => {
                self.drop_cvd(&r.cvd)?;
                Ok(Response::Dropped { cvd: r.cvd })
            }
            Request::Optimize(r) => {
                let gamma = r.gamma.unwrap_or(self.config.gamma_factor);
                let mu = r.mu.unwrap_or(self.config.mu);
                let report = self.optimize_weighted_with(&r.cvd, &r.weights, gamma, mu)?;
                Ok(Response::Optimized { cvd: r.cvd, report })
            }
            Request::CreateUser(r) => {
                self.ensure_writable()?;
                self.access.create_user(&r.user)?;
                self.wal_append(self.clock, &WalOp::Request(Request::CreateUser(r.clone())))?;
                Ok(Response::UserCreated { user: r.user })
            }
            Request::Login(r) => {
                self.ensure_writable()?;
                self.access.login(&r.user)?;
                self.wal_append(self.clock, &WalOp::Request(Request::Login(r.clone())))?;
                Ok(Response::LoggedIn { user: r.user })
            }
            Request::Whoami => Ok(Response::CurrentUser {
                user: self.access.whoami().to_string(),
            }),
            Request::Discard(r) => {
                self.discard(&r.table)?;
                Ok(Response::Discarded { table: r.table })
            }
        }
    }

    /// Batched execution with shared version-row scans: when the batch
    /// checks out the same version set of a CVD more than once
    /// ([`BatchPlan::shared_scans`]), the rows are scanned once and every
    /// later checkout materializes from the cached scan, skipping the
    /// model read path entirely. Requests still execute in submission
    /// order — single-threaded, there is nothing to win by reordering — so
    /// the results equal the sequential [`Executor::execute`] loop
    /// result-for-result. The cache is dropped whenever a request could
    /// change what a version's rows look like (commits and their schema
    /// evolution, CVD create/drop, optimize, non-`SELECT` SQL).
    fn batch<I: IntoIterator<Item = Request>>(&mut self, requests: I) -> Vec<Result<Response>>
    where
        Self: Sized,
    {
        let requests: Vec<Request> = requests.into_iter().collect();
        let plan = BatchPlan::build(&requests, self);
        let mut cache = ScanCache::new();
        requests
            .into_iter()
            .map(|request| self.execute_batch_step(&plan, &mut cache, request))
            .collect()
    }
}

/// Key of one shared scan: (lower-cased CVD, version list).
pub(crate) type ScanKey = (String, Vec<Vid>);

/// The shared version-row scans of one batch: [`ScanKey`] → merged rows,
/// rid first. Dropped when the batch ends or a request invalidates it.
///
/// The cache is only fed where materializing an entry is (close to) free
/// because the merged rows exist anyway — multi-version table checkouts
/// and CSV exports — and only consulted on those same paths. Rows of
/// *single-version table* checkouts are deliberately never cached: the
/// rid→slot fast path ([`model::checkout_into`]) copies records straight
/// into the staged table, which a cache round-trip (materialize, clone,
/// bulk-insert) cannot beat.
///
/// What the cache is worth, measured at PR 15 by forcing
/// [`BatchPlan::shared_scans`] to 0: four clients each pipelining 30
/// rounds of four CSV exports of one version plus a checkout → commit
/// through async handles, 2 000-record CVDs, 2 cores, 4 alternating runs
/// of 3 trials — pipelined throughput over per-request sessions read
/// 1.065 / 1.160 / 1.195 / 1.143 with the cache and 1.002 / 1.056 /
/// 0.969 / 0.977 without: about 10 % on batches that export one version
/// set repeatedly.
#[derive(Debug, Default)]
pub(crate) struct ScanCache {
    rows: HashMap<ScanKey, Vec<Vec<Value>>>,
}

impl ScanCache {
    pub(crate) fn new() -> ScanCache {
        ScanCache::default()
    }

    /// Drop every cached scan (a request changed what versions contain).
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
    }

    fn get(&self, key: &ScanKey) -> Option<&Vec<Vec<Value>>> {
        self.rows.get(key)
    }

    fn insert(&mut self, key: ScanKey, rows: Vec<Vec<Value>>) {
        self.rows.insert(key, rows);
    }
}

/// Routing for [`BatchPlan::build`] on a single-threaded instance. There
/// are no locks to coalesce, so [`OrpheusDB::batch`] consults its plan
/// only for the shared-scan hints — but the routing is still honest
/// (commit/discard resolve through the staging area), so one plan shape
/// serves both executors.
impl BatchRouter for OrpheusDB {
    fn has_cvd(&self, name: &str) -> bool {
        self.cvds.contains_key(&name.to_ascii_lowercase())
    }

    fn staged_shard(&self, name: &str, kind: StagedKind) -> Option<ShardKey> {
        self.staging
            .cvd_of(name, kind)
            .map(|cvd| ShardKey::Cvd(cvd.to_ascii_lowercase()))
    }

    fn sql_shard(&self, _sql: &Lexed) -> Option<ShardKey> {
        // A single-threaded instance runs all SQL in place; grouping it
        // under the auxiliary key keeps plans barrier-free.
        Some(ShardKey::Aux)
    }
}

/// Requests that can change what a version's rows look like, or whether a
/// cached scan's CVD still is the CVD it was scanned from: commits (schema
/// evolution widens or extends every version's staged shape), CVD
/// create/drop (a name can be reused), optimize (repartitions storage),
/// and any SQL that is not a plain `SELECT` (raw SQL can write into a
/// model's backing tables).
fn invalidates_shared_scans(request: &Request) -> bool {
    match request {
        Request::Commit(_)
        | Request::CommitCsv(_)
        | Request::Init(_)
        | Request::InitFromCsv(_)
        | Request::Drop(_)
        | Request::Optimize(_) => true,
        Request::Run(r) => !r.is_select(),
        _ => false,
    }
}

fn alter_model_column_type(
    db: &mut Database,
    cvd: &Cvd,
    column: &str,
    new_type: orpheus_engine::DataType,
) -> Result<()> {
    for t in model::layout_tables(cvd) {
        if let Ok(table) = db.table(&t) {
            if table.schema.has_column(column) {
                db.table_mut(&t)?.alter_column_type(column, new_type)?;
            }
        }
    }
    Ok(())
}

fn add_model_column(
    db: &mut Database,
    cvd: &Cvd,
    column: &str,
    dtype: orpheus_engine::DataType,
) -> Result<()> {
    // Only tables that carry data attributes get the new column; version
    // lists (rlist/vlist tables) are unaffected.
    let targets: Vec<String> = match cvd.model {
        ModelKind::CombinedTable => vec![cvd.combined_table()],
        // The global data table and, on a partitioned CVD, every
        // partition's: old versions check out of those.
        ModelKind::SplitByVlist | ModelKind::SplitByRlist => std::iter::once(cvd.data_table())
            .chain(cvd.partition_pairs().map(|(data, _)| data))
            .collect(),
        // Per-version tables (TPV, delta) incorporate the new column only in
        // future versions' tables; existing tables stay as-is and reads
        // null-extend.
        ModelKind::TablePerVersion | ModelKind::DeltaBased => vec![],
    };
    for t in targets {
        db.table_mut(&t)?
            .add_column(orpheus_engine::Column::new(column.to_string(), dtype))?;
    }
    Ok(())
}

/// The CVD schema once it accommodates a staged table (single-pool scheme
/// of Section 3.3): new attributes are appended, type conflicts widen to
/// the more general type. `None` when the staged schema asks for nothing
/// new. Pure — the whole change is planned (and refused, if it must be)
/// before [`OrpheusDB::apply_schema`] touches anything.
fn evolved_schema(current: &Schema, staged: &Schema) -> Result<Option<Schema>> {
    let mut new_schema = current.clone();
    let mut changed = false;
    for col in &staged.columns {
        if col.name.eq_ignore_ascii_case("rid") {
            continue;
        }
        match new_schema.column_index(&col.name) {
            Ok(i) => {
                let old = new_schema.columns[i].dtype;
                let general = old.generalize(col.dtype).ok_or_else(|| {
                    CoreError::SchemaMismatch(format!(
                        "column {} cannot change from {} to {}",
                        col.name, old, col.dtype
                    ))
                })?;
                if general != old {
                    new_schema.columns[i].dtype = general;
                    changed = true;
                }
            }
            Err(_) => {
                new_schema
                    .columns
                    .push(orpheus_engine::Column::new(col.name.clone(), col.dtype));
                changed = true;
            }
        }
    }
    Ok(changed.then_some(new_schema))
}

/// Borrow a CVD from the catalog map by (case-insensitive) name. Free
/// functions over the field — not `&self` methods — so callers can keep
/// `self.engine` mutably borrowed while the CVD is borrowed (disjoint
/// field borrows don't cross method boundaries).
fn lookup<'a>(cvds: &'a HashMap<String, Cvd>, name: &str) -> Result<&'a Cvd> {
    cvds.get(catalog_key(name).as_ref())
        .ok_or_else(|| CoreError::CvdNotFound(name.to_string()))
}

/// The catalog key of a CVD name: lower-cased — borrowed when it already
/// is, so looking up by a key (as the commit path does, repeatedly)
/// allocates nothing.
fn catalog_key(name: &str) -> std::borrow::Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        name.to_ascii_lowercase().into()
    } else {
        name.into()
    }
}

/// [`lookup`] for a checkout: every listed version must exist.
fn lookup_versions<'a>(
    cvds: &'a HashMap<String, Cvd>,
    cvd_name: &str,
    vids: &[Vid],
) -> Result<&'a Cvd> {
    let cvd = lookup(cvds, cvd_name)?;
    for v in vids {
        cvd.check_version(*v)?;
    }
    Ok(cvd)
}

/// A checkout names at least one version.
fn require_versions(vids: &[Vid]) -> Result<()> {
    if vids.is_empty() {
        return Err(CoreError::bad_request(
            CommandKind::Checkout,
            "checkout requires at least one version",
        ));
    }
    Ok(())
}

/// Mutable variant of [`lookup`].
fn lookup_mut<'a>(cvds: &'a mut HashMap<String, Cvd>, name: &str) -> Result<&'a mut Cvd> {
    cvds.get_mut(catalog_key(name).as_ref())
        .ok_or_else(|| CoreError::CvdNotFound(name.to_string()))
}

/// The merged rows of `vids` — from `cache` when the batch shares scans
/// and an earlier checkout of the same version set already merged them.
fn merged_rows(
    engine: &mut Database,
    cache: Option<&mut ScanCache>,
    cvd: &Cvd,
    vids: &[Vid],
) -> Result<Vec<Vec<Value>>> {
    let Some(cache) = cache else {
        return merge_versions(engine, cvd, vids);
    };
    let key = (cvd.name.to_ascii_lowercase(), vids.to_vec());
    if let Some(rows) = cache.get(&key) {
        return Ok(rows.clone());
    }
    let rows = merge_versions(engine, cvd, vids)?;
    cache.insert(key, rows.clone());
    Ok(rows)
}

/// Merge multiple versions' records with PK precedence (first listed
/// version wins). Dedup is borrow-keyed: the hash is computed over the
/// candidate's PK value slice (rid when there is no PK) and collisions
/// compare element-wise against the rows already merged — no per-row PK
/// tuple allocation.
fn merge_versions(engine: &mut Database, cvd: &Cvd, vids: &[Vid]) -> Result<Vec<Vec<Value>>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    let has_pk = !cvd.schema.primary_key.is_empty();
    // Versions frozen before a schema evolution read back narrower than
    // the current schema (table-per-version and delta); the merged staged
    // table is always current-width, so NULL-extend on the way in.
    let width = 1 + cvd.schema.columns.len();
    // hash → indices into `out` (rows stored rid-first, so data column `c`
    // of a merged row lives at `c + 1`).
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for &vid in vids {
        for (rid, values) in model::version_rows(engine, cvd, vid)? {
            let hash = if has_pk {
                hash_values(cvd.schema.primary_key.iter().map(|&c| &values[c]))
            } else {
                hash_values(std::iter::once(&Value::Int(rid)))
            };
            let bucket = buckets.entry(hash).or_default();
            let duplicate = bucket.iter().any(|&i| {
                let prev = &out[i];
                if has_pk {
                    cvd.schema
                        .primary_key
                        .iter()
                        .all(|&c| prev[c + 1] == values[c])
                } else {
                    prev[0] == Value::Int(rid)
                }
            });
            if duplicate {
                continue;
            }
            bucket.push(out.len());
            let mut row = Vec::with_capacity(width);
            row.push(Value::Int(rid));
            row.extend(values);
            row.resize(width, Value::Null);
            out.push(row);
        }
    }
    Ok(out)
}

/// Hash a sequence of values with the engine's `Value` hashing rules
/// (numerically equal ints and doubles hash identically).
fn hash_values<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// Per staged row: `Some(rid)` when the row carries a rid whose parent
/// record matches it value-for-value (the row is inherited unchanged),
/// `None` when it needs a fresh rid. `lookup` resolves a rid to the parent
/// record's values (possibly narrower than the current schema — older
/// frozen tables — in which case missing trailing attributes match NULL).
fn classify_staged<'a>(
    staged: &[(Option<i64>, Vec<Value>)],
    lookup: impl Fn(i64) -> Option<&'a [Value]>,
) -> Vec<Option<i64>> {
    staged
        .iter()
        .map(|(rid, values)| rid.filter(|r| lookup(*r).is_some_and(|pv| values_match(pv, values))))
        .collect()
}

/// Whether a (possibly narrower) parent record equals a staged row
/// null-extended to the staged width — the comparison the commit core's
/// no-cross-version-diff rule is built on.
fn values_match(parent: &[Value], staged: &[Value]) -> bool {
    if parent.len() > staged.len() {
        return false;
    }
    staged.iter().enumerate().all(|(i, v)| match parent.get(i) {
        Some(p) => p == v,
        None => v.is_null(),
    })
}

/// The base parent for the delta model: the parent sharing the most
/// records with the child, ties broken to the *last* listed — the
/// behavior of the `Iterator::max_by_key` scan it replaces, now fed by
/// one precomputed weight per parent.
pub(crate) fn base_parent(parents: &[Vid], weights: &[u64]) -> Option<Vid> {
    debug_assert_eq!(parents.len(), weights.len());
    let mut best: Option<(usize, u64)> = None;
    for (i, &w) in weights.iter().enumerate() {
        match best {
            Some((_, bw)) if w < bw => {}
            _ => best = Some((i, w)),
        }
    }
    best.map(|(i, _)| parents[i])
}

/// Reject duplicate primary keys among staged rows. Borrow-keyed like
/// [`merged_rows`]: rows are hashed over their PK value slices and
/// compared in place — callers pass borrowed row slices, no copies.
fn check_pk_duplicates<'a>(
    schema: &Schema,
    rows: impl IntoIterator<Item = &'a [Value]>,
) -> Result<()> {
    if schema.primary_key.is_empty() {
        return Ok(());
    }
    let mut buckets: HashMap<u64, Vec<&'a [Value]>> = HashMap::new();
    for row in rows {
        let hash = hash_values(schema.primary_key.iter().map(|&c| &row[c]));
        let bucket = buckets.entry(hash).or_default();
        if bucket
            .iter()
            .any(|prev| schema.primary_key.iter().all(|&c| prev[c] == row[c]))
        {
            let pk: Vec<&Value> = schema.primary_key.iter().map(|&c| &row[c]).collect();
            return Err(CoreError::PrimaryKeyViolation(format!(
                "duplicate key {pk:?}"
            )));
        }
        bucket.push(row);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_engine::{Column, DataType};

    fn protein_schema() -> Schema {
        Schema::new(vec![
            Column::new("protein1", DataType::Text),
            Column::new("protein2", DataType::Text),
            Column::new("cooccurrence", DataType::Int),
        ])
        .with_primary_key(&["protein1", "protein2"])
        .unwrap()
    }

    fn protein_rows() -> Vec<Vec<Value>> {
        vec![
            vec!["p1".into(), "p2".into(), Value::Int(53)],
            vec!["p1".into(), "p3".into(), Value::Int(87)],
            vec!["p4".into(), "p5".into(), Value::Int(0)],
        ]
    }

    fn setup() -> OrpheusDB {
        let mut odb = OrpheusDB::new();
        odb.init_cvd("protein", protein_schema(), protein_rows(), None)
            .unwrap();
        odb
    }

    #[test]
    fn init_creates_version_one() {
        let odb = setup();
        let cvd = odb.cvd("protein").unwrap();
        assert_eq!(cvd.num_versions(), 1);
        assert_eq!(cvd.rids_of(Vid(1)).unwrap().len(), 3);
        assert_eq!(odb.ls(), vec!["protein"]);
    }

    #[test]
    fn checkout_edit_commit_cycle() {
        let mut odb = setup();
        odb.checkout("protein", &[Vid(1)], "work").unwrap();
        // Modify one record and insert a new one through plain SQL.
        odb.engine
            .execute("UPDATE work SET cooccurrence = 99 WHERE protein2 = 'p2'")
            .unwrap();
        odb.engine
            .execute("INSERT INTO work VALUES (NULL, 'p6', 'p7', 12)")
            .unwrap();
        let v2 = odb.commit("work", "tweak scores").unwrap();
        assert_eq!(v2, Vid(2));
        // The staged table is gone after commit.
        assert!(!odb.engine.has_table("work"));

        let cvd = odb.cvd("protein").unwrap();
        assert_eq!(cvd.rids_of(Vid(2)).unwrap().len(), 4);
        // Two records kept, two new (modified + inserted).
        let meta = cvd.meta(Vid(2)).unwrap();
        assert_eq!(meta.parents, vec![Vid(1)]);
        assert_eq!(meta.parent_weights, vec![2]);
        assert_eq!(meta.message, "tweak scores");
    }

    #[test]
    fn immutability_assigns_fresh_rids() {
        let mut odb = setup();
        odb.checkout("protein", &[Vid(1)], "w").unwrap();
        odb.engine
            .execute("UPDATE w SET cooccurrence = 1 WHERE protein2 = 'p2'")
            .unwrap();
        odb.commit("w", "m").unwrap();
        let mut seen = std::collections::HashSet::new();
        let cvd = odb.cvd("protein").unwrap();
        for v in [Vid(1), Vid(2)] {
            for r in cvd.rids_of(v).unwrap() {
                seen.insert(*r);
            }
        }
        // 3 original + 1 replacement.
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn commit_rejects_pk_duplicates() {
        let mut odb = setup();
        odb.checkout("protein", &[Vid(1)], "w").unwrap();
        odb.engine
            .execute("INSERT INTO w VALUES (NULL, 'p1', 'p2', 1)")
            .unwrap();
        let err = odb.commit("w", "dup").unwrap_err();
        assert!(matches!(err, CoreError::PrimaryKeyViolation(_)));
    }

    #[test]
    fn multi_version_checkout_resolves_pk_conflicts_by_precedence() {
        let mut odb = setup();
        // v2: changes p1-p2's score.
        odb.checkout("protein", &[Vid(1)], "a").unwrap();
        odb.engine
            .execute("UPDATE a SET cooccurrence = 100 WHERE protein2 = 'p2'")
            .unwrap();
        odb.commit("a", "v2").unwrap();
        // Merge checkout listing v2 first: its p1-p2 wins.
        odb.checkout("protein", &[Vid(2), Vid(1)], "merged")
            .unwrap();
        let r = odb
            .engine
            .query("SELECT cooccurrence FROM merged WHERE protein2 = 'p2'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(100));
        // Committing the merge records both parents.
        let v3 = odb.commit("merged", "merge").unwrap();
        let cvd = odb.cvd("protein").unwrap();
        assert_eq!(cvd.meta(v3).unwrap().parents, vec![Vid(2), Vid(1)]);
    }

    #[test]
    fn merge_checkout_dedups_by_rid_without_primary_key() {
        // No-PK CVDs dedup merged checkouts by rid; shared records appear
        // once, and the first listed version's rows come first.
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let mut odb = OrpheusDB::new();
        odb.init_cvd(
            "nopk",
            schema,
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            None,
        )
        .unwrap();
        odb.checkout("nopk", &[Vid(1)], "w").unwrap();
        odb.engine
            .execute("INSERT INTO w VALUES (NULL, 3)")
            .unwrap();
        odb.commit("w", "v2").unwrap();
        odb.checkout("nopk", &[Vid(2), Vid(1)], "merged").unwrap();
        let r = odb.engine.query("SELECT count(*) FROM merged").unwrap();
        // v2 = {1, 2, 3}, v1 = {1, 2} — union by rid has 3 records.
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn pk_merge_precedence_with_double_keys() {
        // Doubles hash by numeric value (1 == 1.0 under the engine's
        // rules); the borrow-keyed dedup must land both spellings in one
        // bucket and keep the first listed version's record.
        let schema = Schema::new(vec![
            Column::new("k", DataType::Double),
            Column::new("v", DataType::Int),
        ])
        .with_primary_key(&["k"])
        .unwrap();
        let mut odb = OrpheusDB::new();
        odb.init_cvd(
            "nums",
            schema,
            vec![vec![Value::Double(1.0), Value::Int(10)]],
            None,
        )
        .unwrap();
        odb.checkout("nums", &[Vid(1)], "w").unwrap();
        odb.engine.execute("UPDATE w SET v = 20").unwrap();
        odb.commit("w", "v2").unwrap();
        odb.checkout("nums", &[Vid(2), Vid(1)], "m").unwrap();
        let r = odb.engine.query("SELECT v FROM m").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(20)]]);
    }

    #[test]
    fn diff_reports_both_sides() {
        let mut odb = setup();
        odb.checkout("protein", &[Vid(1)], "w").unwrap();
        odb.engine
            .execute("DELETE FROM w WHERE protein1 = 'p4'")
            .unwrap();
        odb.engine
            .execute("INSERT INTO w VALUES (NULL, 'n1', 'n2', 5)")
            .unwrap();
        odb.commit("w", "v2").unwrap();
        let d = odb.diff("protein", Vid(1), Vid(2)).unwrap();
        assert_eq!(d.only_in_first.len(), 1);
        assert_eq!(d.only_in_second.len(), 1);
        assert_eq!(d.only_in_first[0][0], Value::Text("p4".into()));
        assert_eq!(d.only_in_second[0][0], Value::Text("n1".into()));
    }

    #[test]
    fn csv_checkout_commit_roundtrip() {
        let mut odb = setup();
        let text = odb
            .checkout_csv("protein", &[Vid(1)], "/tmp/protein.csv")
            .unwrap();
        assert!(text.starts_with("rid,protein1,protein2,cooccurrence"));
        // Simulate an external edit: add a row without a rid.
        let edited = format!("{text},n8,n9,42\n");
        let v2 = odb
            .commit_csv("/tmp/protein.csv", &edited, "from csv", None)
            .unwrap();
        assert_eq!(v2, Vid(2));
        assert_eq!(odb.cvd("protein").unwrap().rids_of(v2).unwrap().len(), 4);
    }

    #[test]
    fn schema_evolution_adds_and_widens() {
        let mut odb = setup();
        odb.checkout("protein", &[Vid(1)], "w").unwrap();
        // Add a coexpression column and widen cooccurrence to DOUBLE.
        odb.engine
            .execute("ALTER TABLE w ADD COLUMN coexpression INT")
            .unwrap();
        odb.engine
            .execute("ALTER TABLE w ALTER COLUMN cooccurrence TYPE DOUBLE")
            .unwrap();
        odb.engine
            .execute("UPDATE w SET coexpression = 7 WHERE protein2 = 'p2'")
            .unwrap();
        odb.commit("w", "evolve").unwrap();
        let cvd = odb.cvd("protein").unwrap();
        assert!(cvd.schema.has_column("coexpression"));
        let ci = cvd.schema.column_index("cooccurrence").unwrap();
        assert_eq!(cvd.schema.columns[ci].dtype, DataType::Double);
        // The attribute registry versioned the type change (Figure 5).
        assert!(cvd.attrs.entries().len() >= 5);
        // Old version still reads, with NULL for the new attribute.
        let rows = odb.version_rows("protein", Vid(1)).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn permissions_guard_commits() {
        let mut odb = setup();
        odb.checkout("protein", &[Vid(1)], "mine").unwrap();
        odb.access.create_user("eve").unwrap();
        odb.access.login("eve").unwrap();
        let err = odb.commit("mine", "steal").unwrap_err();
        assert!(matches!(err, CoreError::PermissionDenied(_)));
    }

    #[test]
    fn failed_commit_finalize_unpublishes_the_version() {
        // The clone-free commit mutates the live catalog entry; a failure
        // in the finalize phase (metadata row / partition maintenance)
        // must roll the version back out, exactly like the discarded
        // scratch clone used to.
        let mut odb = setup();
        odb.checkout("protein", &[Vid(1)], "w").unwrap();
        odb.engine.drop_table("protein__meta").unwrap();
        assert!(odb.commit("w", "doomed").is_err());
        let cvd = odb.cvd("protein").unwrap();
        assert_eq!(cvd.num_versions(), 1);
        assert_eq!(cvd.version_rids.len(), 1);
        assert!(odb.version_rows("protein", Vid(2)).is_err());
        // The staged table survives the failed commit.
        assert!(odb.engine.has_table("w"));
        // Backing storage was rolled back too: once the cause is repaired,
        // the retried commit reuses the vid without colliding with
        // leftovers from the aborted attempt.
        odb.engine
            .execute(
                "CREATE TABLE protein__meta (vid INT PRIMARY KEY, parents INT[], \
                 checkout_t INT, commit_t INT, msg TEXT, attributes INT[], num_records INT)",
            )
            .unwrap();
        let v2 = odb.commit("w", "retry").unwrap();
        assert_eq!(v2, Vid(2));
        assert_eq!(odb.version_rows("protein", Vid(2)).unwrap().len(), 3);
    }

    #[test]
    fn failed_partition_maintenance_keeps_state_and_version_count() {
        let mut odb = setup();
        for i in 0..3 {
            let t = format!("w{i}");
            odb.checkout("protein", &[Vid(i + 1)], &t).unwrap();
            odb.engine
                .execute(&format!(
                    "INSERT INTO {t} VALUES (NULL, 'x{i}', 'y{i}', {i})"
                ))
                .unwrap();
            odb.commit(&t, "grow").unwrap();
        }
        odb.optimize("protein").unwrap();
        odb.checkout("protein", &[Vid(4)], "doomed").unwrap();
        let before = odb.cvd("protein").unwrap().partition.clone().unwrap();
        // Sabotage the partitioned layout so on_commit cannot place the
        // next version whichever branch it takes: joining an existing
        // partition hits a dropped rlist table, opening a new one
        // collides with the pre-created blocker.
        for k in 0..before.num_partitions() {
            odb.engine
                .drop_table(&format!("protein__g{}p{}_rlist", before.generation, k))
                .unwrap();
        }
        odb.engine
            .execute(&format!(
                "CREATE TABLE protein__g{}p{}_data (x INT)",
                before.generation,
                before.num_partitions()
            ))
            .unwrap();
        assert!(odb.commit("doomed", "x").is_err());
        let cvd = odb.cvd("protein").unwrap();
        // Version rolled back, partition state restored (not wiped).
        assert_eq!(cvd.num_versions(), 4);
        let after = cvd.partition.as_ref().unwrap();
        assert_eq!(after.assignment(), before.assignment());
        assert_eq!(after.generation, before.generation);
        assert_eq!(after.num_partitions(), before.num_partitions());
        // Repair the layout and retry: the vid is reusable, nothing left
        // over from the aborted placement collides (the blocker table
        // was cleaned up by the rollback itself).
        for k in 0..before.num_partitions() {
            odb.engine
                .execute(&format!(
                    "CREATE TABLE IF NOT EXISTS protein__g{}p{}_rlist \
                     (vid INT PRIMARY KEY, rlist INT[])",
                    before.generation, k
                ))
                .unwrap();
        }
        let v5 = odb.commit("doomed", "retry").unwrap();
        assert_eq!(v5, Vid(5));
        assert_eq!(odb.cvd("protein").unwrap().num_versions(), 5);
    }

    #[test]
    fn drop_cvd_removes_everything() {
        let mut odb = setup();
        odb.drop_cvd("protein").unwrap();
        assert!(odb.ls().is_empty());
        assert!(!odb.engine.has_table("protein__data"));
        assert!(!odb.engine.has_table("protein__meta"));
        assert!(odb.drop_cvd("protein").is_err());
    }

    #[test]
    fn optimize_then_checkout_roundtrip() {
        let mut odb = setup();
        // Build a few versions first.
        for i in 0..4 {
            let t = format!("w{i}");
            odb.checkout("protein", &[Vid(i + 1)], &t).unwrap();
            odb.engine
                .execute(&format!(
                    "INSERT INTO {t} VALUES (NULL, 'x{i}', 'y{i}', {i})"
                ))
                .unwrap();
            odb.commit(&t, "grow").unwrap();
        }
        let report = odb.optimize("protein").unwrap();
        assert!(report.num_partitions >= 1);
        odb.checkout("protein", &[Vid(5)], "post").unwrap();
        let r = odb.engine.query("SELECT count(*) FROM post").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(7)));
    }

    #[test]
    fn works_across_all_models() {
        for model in ModelKind::ALL {
            let mut odb = OrpheusDB::new();
            odb.init_cvd("d", protein_schema(), protein_rows(), Some(model))
                .unwrap();
            odb.checkout("d", &[Vid(1)], "w").unwrap();
            odb.engine
                .execute("INSERT INTO w VALUES (NULL, 'z1', 'z2', 9)")
                .unwrap();
            odb.engine
                .execute("DELETE FROM w WHERE protein1 = 'p4'")
                .unwrap();
            let v2 = odb.commit("w", "edit").unwrap();
            let rows = odb.version_rows("d", v2).unwrap();
            assert_eq!(rows.len(), 3, "model {}", model.name());
            let d = odb.diff("d", Vid(1), Vid(2)).unwrap();
            assert_eq!(d.only_in_first.len(), 1, "model {}", model.name());
            assert_eq!(d.only_in_second.len(), 1, "model {}", model.name());
        }
    }
}

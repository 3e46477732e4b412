//! The OrpheusDB instance: CVD catalog, checkout/commit/diff, versioned
//! queries, and the partition optimizer hook (Figure 2's middleware,
//! end to end).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use orpheus_engine::sql::ast::Statement;
use orpheus_engine::sql::parser::parse_tokens;
use orpheus_engine::{Database, Held, QueryResult, Schema, Table, Value};
use orpheus_partition::online::OnlineConfig;

use crate::access::AccessController;
use crate::batch::is_read_only;
use crate::csv;
use crate::cvd::{
    namespace_owner, sorted_difference, sorted_multiset_difference, Cvd, VersionMeta,
};
use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::model::{self, CommitData, ModelKind, ParentRecords, VersionView};
use crate::partition_store::{self, OptimizeReport};
use crate::query::{self, Lexed};
use crate::request::{CommandKind, Executor, Request};
use crate::response::{LogEntry, Response};
use crate::staging::{StagedEntry, StagedKind, StagingArea};
use crate::wal::{CommitRecord, WalOp, WalSink};

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
        for t in self.engine.table_names() {
            let owner = namespace_owner(self.cvds.keys().chain([&key]), &t);
            if owner != Some(&key) || self.staging.get(&t, StagedKind::Table).is_ok() {
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
        let model = model.unwrap_or_default();
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

        let pk: Vec<Option<usize>> = cvd.schema.primary_key.iter().map(|&c| Some(c)).collect();
        check_pk_duplicates(
            &rows.iter().map(|row| Held::Tail(row)).collect::<Vec<_>>(),
            &pk,
        )?;
        let rids = Arc::new(cvd.alloc_rids(rows.len()));
        let data = CommitData {
            vid: Vid(1),
            rlist: Vec::new(),
            kept: Vec::new(),
            new_records: rids.iter().copied().zip(rows).collect(),
            all_records: Vec::new(),
            base: None,
            deleted_from_base: Vec::new(),
        };
        model::persist_version(&mut self.engine, &cvd, &[], &data, &rids)?;
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

    /// `checkout [cvd] -v vids -t table`: stage one or more versions as a
    /// fresh table. Multiple versions merge with precedence-based
    /// primary-key conflict resolution (Section 2.2, `merge_versions`).
    /// Merged or not, the staged table is an overlay of the slots of the
    /// table holding the records ([`orpheus_engine::Table::select`]) on
    /// every layout but delta (a-table-per-version only for one version):
    /// no cell is copied, later writes copy only the rows they write, and
    /// the commit keeps the rows never written by their rids. The CVD is
    /// borrowed in place.
    pub fn checkout(&mut self, cvd_name: &str, vids: &[Vid], table: &str) -> Result<()> {
        require_versions(vids)?;
        if self.engine.has_table(table) {
            return Err(CoreError::Invalid(format!("table {table} already exists")));
        }
        // A staged name whose table was dropped by hand stays staged: the
        // checkout is refused before it adds a table under that name.
        if self.staging.get(table, StagedKind::Table).is_ok() {
            return Err(CoreError::Invalid(format!("{table} is already staged")));
        }
        let cvd = lookup_versions(&self.cvds, cvd_name, vids)?;
        if let [vid] = *vids {
            model::checkout_into(&mut self.engine, cvd, vid, table)?;
        } else {
            let staged = model::stage(cvd, model::merge_versions(&self.engine, cvd, vids)?, table)?;
            self.engine.add_table(staged)?;
        }
        let cvd_key = cvd.name.clone();
        self.register_staged(table, cvd_key, vids, StagedKind::Table)
    }

    /// `checkout -f`: export version(s) as CSV text (the caller writes the
    /// file; keeping I/O outside makes the API testable), rendered from the
    /// records a checkout stages (`merge_versions`), borrowed.
    pub fn checkout_csv(&mut self, cvd_name: &str, vids: &[Vid], path: &str) -> Result<String> {
        require_versions(vids)?;
        let cvd = lookup_versions(&self.cvds, cvd_name, vids)?;
        let views = model::merge_versions(&self.engine, cvd, vids)?;
        let records = || views.iter().flat_map(VersionView::iter);
        let rids: Vec<Value> = records().map(|(rid, _)| Value::Int(rid)).collect();
        let cells = (rids.iter())
            .zip(records())
            .map(|(rid, (_, values))| [rid].into_iter().chain(values));
        let text = csv::to_csv(&cvd.staged_schema(), cells);
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
    /// new version. The table leaves the engine for the commit, and a
    /// commit that fails puts it back.
    pub fn commit(&mut self, table: &str, message: &str) -> Result<Vid> {
        self.ensure_writable()?;
        let entry = self.staging.get(table, StagedKind::Table)?.clone();
        self.access.check_owner(&entry.owner, table)?;
        // Test/bench hook: hold this commit open mid-flight (under the
        // shard write lock when called through the concurrent layer) so
        // MVCC snapshot reads can be demonstrated deterministically.
        crate::concurrent::hold_commit_if_gated(table);
        let mut staged = Staged::Table(self.engine.take_table(table)?);
        let Staged::Table(t) = &staged else {
            unreachable!("staged as a table above")
        };
        let (name, staged_schema) = (t.name.to_string(), t.schema.clone());
        let clock_before = self.clock;
        let published = self
            .classify_commit(&entry, &staged_schema, &mut staged)
            .and_then(|(cvd_key, kept, new_rows)| {
                self.publish(&entry, &cvd_key, kept, new_rows, message)
            });
        let data = match published {
            Ok(data) => data,
            Err(e) => {
                let cvd = lookup(&self.cvds, &entry.cvd)?;
                let parents = &entry.parents;
                let table = staged.into_table(&self.engine, cvd, parents, &name, &staged_schema)?;
                self.engine.add_table(table)?;
                return Err(e);
            }
        };
        self.staging.remove(table, StagedKind::Table)?;
        self.log_commit(clock_before, entry, &staged_schema, data, message)
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
        let (cvd_key, kept, new_rows) =
            self.classify_commit(&entry, &staged_schema, &mut Staged::Rows(&rows))?;
        let data = self.publish(&entry, &cvd_key, kept, new_rows, message)?;
        self.staging.remove(path, StagedKind::Csv)?;
        self.log_commit(clock_before, entry, &staged_schema, data, message)
    }

    /// Log a published commit as its delta ([`CommitRecord`]): the kept set
    /// as the rids dropped from the first parent's rlist plus those adopted
    /// beyond it, and the new rows, moved out of `data` rather than copied.
    fn log_commit(
        &self,
        clock_before: u64,
        entry: StagedEntry,
        schema: &Schema,
        data: CommitData,
        message: &str,
    ) -> Result<Vid> {
        if !self.wal_armed() {
            return Ok(data.vid);
        }
        let cvd = lookup(&self.cvds, &entry.cvd)?;
        let first: &[i64] = match entry.parents.first() {
            Some(&p) => cvd.rids_of(p)?,
            None => &[],
        };
        let record = CommitRecord {
            dropped: sorted_multiset_difference(first, &data.kept),
            adopted: sorted_multiset_difference(&data.kept, first),
            new_rows: data.new_records.into_iter().map(|(_, row)| row).collect(),
            cvd: entry.cvd,
            staged_name: entry.name,
            kind: entry.kind,
            parents: entry.parents,
            owner: entry.owner,
            created_at: entry.created_at,
            schema: schema.clone(),
            message: message.to_string(),
            vid: data.vid,
        };
        self.wal_append(clock_before, &WalOp::Commit(record))?;
        Ok(data.vid)
    }

    /// Shared commit core of `commit` and `commit -f`: plan the schema
    /// evolution, refuse bad rids and duplicate keys, evolve the schema and
    /// classify the staged rows against the parents. Returns the CVD's
    /// catalog key, the kept rids, sorted, and the new rows in CVD column
    /// order, for [`OrpheusDB::publish`].
    ///
    /// Nothing here copies the staged version. Staged rows are borrowed
    /// where they live (the staged table, or the rows a CSV commit parsed)
    /// and read through `col_map` in the CVD's column order; only the rows
    /// that need fresh rids are copied out. A staged overlay keeps each
    /// source row it has not written by its rid, without reading its other
    /// cells ([`keeps_by_identity`]), and classifies only the rows it
    /// wrote: its commit costs O(delta) plus one rid per unwritten row.
    /// Once its rows are checked it is detached ([`Staged::detached`]), so
    /// no chunk of its source is pinned while the schema evolves and the
    /// version is written (a combined-table commit rewrites the `vlist` of
    /// each record it keeps in place).
    fn classify_commit(
        &mut self,
        entry: &StagedEntry,
        staged_schema: &Schema,
        staged: &mut Staged<'_>,
    ) -> Result<(String, Vec<i64>, Vec<Vec<Value>>)> {
        let cvd_key = entry.cvd.to_ascii_lowercase();
        let cvd = lookup(&self.cvds, &cvd_key)?;
        // Plan any schema evolution first (Section 3.3) and check the
        // staged rows against the planned schema: a commit that is
        // refused is refused before storage or catalog are evolved.
        let evolved = evolved_schema(&cvd.schema, staged_schema)?;
        let schema = evolved.as_ref().unwrap_or(&cvd.schema);
        let col_map = column_map(schema, staged_schema);
        let pk: Vec<Option<usize>> = schema.primary_key.iter().map(|&c| col_map[c]).collect();
        let by_identity = matches!(staged, Staged::Table(t) if keeps_by_identity(t, cvd));
        let detached = {
            let rows = staged.rows(by_identity);
            for row in &rows {
                staged_rid(row.cells())?;
            }
            check_pk_duplicates(&rows, &pk)?;
            by_identity.then(|| Staged::detached(&rows))
        };
        if let Some(detached) = detached {
            *staged = detached;
        }
        if let Some(new_schema) = evolved {
            self.apply_schema(&cvd_key, new_schema)?;
        }
        let cvd = lookup(&self.cvds, &cvd_key)?;
        let (kept, new_rows) =
            classify_staged(&self.engine, cvd, &entry.parents, staged, &col_map)?;
        Ok((cvd_key, kept, new_rows))
    }

    /// Publish a classified commit as the next version: fresh rids for
    /// `new_rows`, the rlist, parent weights and delta base, backing
    /// storage, the catalog entry, the metadata row and online partition
    /// maintenance. `kept` is sorted. A live commit and its WAL replay both
    /// end here; what precedes it is classification, which replay skips.
    ///
    /// The CVD is never cloned: the catalog entry is mutated in place, and
    /// a failure after storage was written unpublishes the version
    /// everywhere so its vid can be reused.
    fn publish(
        &mut self,
        entry: &StagedEntry,
        cvd_key: &str,
        kept: Vec<i64>,
        new_rows: Vec<Vec<Value>>,
        message: &str,
    ) -> Result<CommitData> {
        let cvd = lookup_mut(&mut self.cvds, cvd_key)?;
        let vid = Vid(cvd.num_versions() as u64 + 1);
        // Allocate fresh rids on the catalog entry itself (an error later
        // leaves a harmless gap — rids are never reused anyway).
        let fresh = cvd.alloc_rids(new_rows.len());
        let mut rlist = Vec::with_capacity(kept.len() + fresh.len());
        rlist.extend_from_slice(&kept);
        rlist.extend_from_slice(&fresh);
        rlist.sort_unstable();
        // The version's one rlist: its rlist table cell and the catalog
        // entry share this buffer.
        let rlist = Arc::new(rlist);
        let new_records: Vec<(i64, Vec<Value>)> = fresh.into_iter().zip(new_rows).collect();

        let cvd = lookup(&self.cvds, cvd_key)?;
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
            rlist: Vec::new(),
            kept,
            new_records,
            all_records: Vec::new(),
            base,
            deleted_from_base,
        };
        if let Err(e) = model::persist_version(&mut self.engine, cvd, &entry.parents, &data, &rlist)
        {
            // Undo any partial backing-storage writes so the vid can be
            // reused by a retried commit.
            model::rollback_commit(&mut self.engine, cvd, &data);
            return Err(e);
        }

        let commit_t = self.tick();
        let cvd = lookup_mut(&mut self.cvds, cvd_key)?;
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
        let finalize = lookup(&self.cvds, cvd_key)
            .and_then(|cvd| cvd.sync_meta_row(&mut self.engine, vid))
            .and_then(|()| {
                let cvd = lookup_mut(&mut self.cvds, cvd_key)?;
                if cvd.partition.is_some() {
                    partition_store::on_commit(&mut self.engine, cvd, vid)?;
                }
                Ok(())
            });
        if let Err(e) = finalize {
            let cvd = lookup_mut(&mut self.cvds, cvd_key)?;
            cvd.pop_version();
            model::rollback_commit(&mut self.engine, cvd, &data);
            partition_store::rollback_placement(&mut self.engine, cvd, vid);
            model::delete_keys(&mut self.engine, &cvd.meta_table(), &[vid.0 as i64]);
            return Err(e);
        }
        Ok(data)
    }

    /// Re-run a logged commit during WAL replay: plan the same schema
    /// evolution from the recorded staged schema, rebuild the kept set
    /// from the delta and [`OrpheusDB::publish`] it — no staged table (the
    /// snapshot may not hold one) and no second classification. The delta
    /// is checked against the recovered parents first, and the version id
    /// against the one the live commit produced; a record that fails
    /// either changes nothing. If the snapshot happened to capture the
    /// staged artifact, it is retired exactly as the live commit retired
    /// it.
    pub(crate) fn replay_commit(&mut self, rec: CommitRecord) -> Result<Vid> {
        let entry = StagedEntry {
            name: rec.staged_name,
            cvd: rec.cvd,
            parents: rec.parents,
            owner: rec.owner,
            created_at: rec.created_at,
            kind: rec.kind,
        };
        let cvd_key = entry.cvd.to_ascii_lowercase();
        let cvd = lookup(&self.cvds, &cvd_key)?;
        let vid = Vid(cvd.num_versions() as u64 + 1);
        if vid != rec.vid {
            return Err(CoreError::Storage(format!(
                "WAL replay diverged: commit of {} would produce {vid}, the log recorded {}",
                entry.cvd, rec.vid
            )));
        }
        let evolved = evolved_schema(&cvd.schema, &rec.schema)?;
        let width = evolved.as_ref().unwrap_or(&cvd.schema).arity();
        if let Some(row) = rec.new_rows.iter().find(|row| row.len() != width) {
            return Err(CoreError::Protocol(format!(
                "WAL commit record of {vid}: a new row has {} values, the schema {width}",
                row.len()
            )));
        }
        let kept = logged_kept(cvd, &entry.parents, &rec.dropped, &rec.adopted)?;
        if let Some(new_schema) = evolved {
            self.apply_schema(&cvd_key, new_schema)?;
        }
        self.publish(&entry, &cvd_key, kept, rec.new_rows, &rec.message)?;
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

    /// `diff`: records in one version but not the other (by record id), in
    /// rlist order and multiplicity. The sorted rlists are compared as
    /// integers and each side reads and copies only the records the other
    /// lacks (a [`VersionView`] of those rids), so a diff costs what the two
    /// versions do not share — no hash sets, no CVD clone, no copy of
    /// either version.
    pub fn diff(&self, cvd_name: &str, a: Vid, b: Vid) -> Result<VersionDiff> {
        let cvd = lookup(&self.cvds, cvd_name)?;
        let (rids_a, rids_b) = (cvd.rids_of(a)?, cvd.rids_of(b)?);
        let absent = |vid, rids, other| -> Result<Vec<Vec<Value>>> {
            let rids = Cow::Owned(sorted_difference(rids, other));
            let view = VersionView::of(&self.engine, cvd, vid, rids)?;
            Ok(view.iter().map(|(_, values)| values.to_vec()).collect())
        };
        Ok(VersionDiff {
            only_in_first: absent(a, rids_a, rids_b)?,
            only_in_second: absent(b, rids_b, rids_a)?,
        })
    }

    /// `run`: execute SQL with the versioned extensions (`VERSION n OF CVD
    /// x`, `CVD x`) translated to plain SQL (Section 2.2).
    pub fn run(&mut self, sql: &str) -> Result<QueryResult> {
        self.run_lexed(&Lexed::new(sql)?)
    }

    /// [`OrpheusDB::run`] on a statement that is already lexed: the
    /// translator rewrites the token vector and the engine parses it — the
    /// text is never read again. A statement that would change a
    /// split-by-rlist rlist table is refused: its cells are the catalog's
    /// rlists, and a snapshot in which the two differ does not load.
    pub(crate) fn run_lexed(&mut self, sql: &Lexed) -> Result<QueryResult> {
        let statement = self.parse_lexed(sql)?;
        if let Some(table) = statement.altered_table() {
            if let Some(cvd) = self.cvds.values().find(|cvd| cvd.is_rlist_table(table)) {
                return Err(CoreError::bad_request(
                    CommandKind::Run,
                    format!(
                        "{table} holds the rlists of CVD {}; only commit, optimize and drop change it",
                        cvd.name
                    ),
                ));
            }
        }
        Ok(self.engine.execute_statement(statement)?)
    }

    /// What [`OrpheusDB::read`] answers a `Run` with, on a shared borrow;
    /// the engine refuses a statement that writes.
    pub(crate) fn read_sql(&self, sql: &Lexed) -> Result<QueryResult> {
        Ok(self.engine.query_statement(self.parse_lexed(sql)?)?)
    }

    /// Translate a statement's versioned extensions and parse it.
    fn parse_lexed(&self, sql: &Lexed) -> Result<Statement> {
        Ok(parse_tokens(&query::translate(self, sql.tokens())?)?)
    }

    /// Answer a request that only reads — `log`, `diff`, a `SELECT`
    /// without `INTO`, as routing's `is_read_only` says — on a shared
    /// borrow: no identity is set and nothing is copied, so a served read
    /// runs on the published snapshot itself. Any other request is refused
    /// with [`CoreError::BadRequest`].
    pub fn read(&self, request: Request) -> Result<Response> {
        match request {
            Request::Diff(r) => Ok(Response::Diffed {
                diff: self.diff(&r.cvd, r.from, r.to)?,
                cvd: r.cvd,
                from: r.from,
                to: r.to,
            }),
            Request::Log(r) => Ok(Response::Log {
                entries: self.log_entries(&r.cvd)?,
                cvd: r.cvd,
            }),
            Request::Run(ref run) if is_read_only(&request) => {
                Ok(Response::Rows(self.read_sql(run.lexed()?)?))
            }
            other => Err(CoreError::bad_request(
                other.kind(),
                "only log, diff and a SELECT read",
            )),
        }
    }

    /// Run `f` as `user`, registering the account if needed, and restore
    /// the previous identity whatever `f` returns: the one place a
    /// request's user is set. Only writes need it; reads check no owner.
    pub(crate) fn under_identity<T>(
        &mut self,
        user: &str,
        f: impl FnOnce(&mut OrpheusDB) -> Result<T>,
    ) -> Result<T> {
        self.access.ensure_user(user)?;
        let prior = self.access.whoami().to_string();
        self.access.login(user)?;
        let result = f(self);
        let _ = self.access.login(&prior);
        result
    }

    /// `optimize`: run the partition optimizer on a CVD with the default
    /// storage threshold γ factor and tolerance µ
    /// ([`OnlineConfig::default`]).
    pub fn optimize(&mut self, cvd_name: &str) -> Result<OptimizeReport> {
        let defaults = OnlineConfig::default();
        self.optimize_with(cvd_name, defaults.gamma_factor, defaults.mu)
    }

    /// `optimize` with explicit parameters (storage threshold γ factor and
    /// tolerance µ).
    pub fn optimize_with(
        &mut self,
        cvd_name: &str,
        gamma_factor: f64,
        mu: f64,
    ) -> Result<OptimizeReport> {
        self.run_optimizer(cvd_name, &[], gamma_factor, mu)
    }

    /// The one optimizer run: explicit γ factor and µ, and checkout
    /// frequencies (Appendix C.2; versions not listed default to 1) that
    /// may be empty. No frequencies means the *unweighted* optimizer
    /// (LyreSplit on the version tree, `cavg` the tree's Cavg) — not
    /// weighted LyreSplit with every frequency 1, whose `cavg` is the
    /// bipartite Cw. Frequencies arrive only through [`Request::Optimize`],
    /// which is logged with them as given and replayed through here, so
    /// live and replayed runs pick the same optimizer.
    fn run_optimizer(
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
    pub fn version_rows(&self, cvd_name: &str, vid: Vid) -> Result<Vec<(i64, Vec<Value>)>> {
        model::version_rows(&self.engine, self.cvd(cvd_name)?, vid)
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
        if is_read_only(&request) {
            return self.read(request);
        }
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
            Request::Log(_) | Request::Diff(_) => self.read(request),
            Request::Run(r) => Ok(Response::Rows(self.run_lexed(r.lexed()?)?)),
            Request::Ls => Ok(Response::CvdList(self.ls())),
            Request::Drop(r) => {
                self.drop_cvd(&r.cvd)?;
                Ok(Response::Dropped { cvd: r.cvd })
            }
            Request::Optimize(r) => {
                let defaults = OnlineConfig::default();
                let gamma = r.gamma.unwrap_or(defaults.gamma_factor);
                let mu = r.mu.unwrap_or(defaults.mu);
                let report = self.run_optimizer(&r.cvd, &r.weights, gamma, mu)?;
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
    if cvd.model == ModelKind::CombinedTable {
        // The new column landed after `vlist`; reads need `vlist` last.
        model::combined::keep_vlist_last(db, cvd)?;
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

/// The value a missing cell reads as.
static NULL: Value = Value::Null;

/// A commit's staged rows: the staged table, out of the engine for the
/// commit; the rows a CSV commit parsed; or a staged overlay detached from
/// its source ([`Staged::detached`]).
enum Staged<'a> {
    Table(Table),
    Rows(&'a [Vec<Value>]),
    /// An overlay whose unwritten source rows are kept by identity
    /// ([`keeps_by_identity`]): the rid of each unwritten source row, in
    /// order, and a copy of every other row with its place among the
    /// rows. A source row's first `source_width` cells (rid included) are
    /// what the overlay read; it pins none of its source's chunks any more.
    Detached {
        kept: Vec<i64>,
        written: Vec<(usize, Vec<Value>)>,
        source_width: usize,
    },
}

impl Staged<'_> {
    /// The staged rows, borrowed where they live, rid first. With
    /// `by_identity`, an overlay's rows are given as it holds them; every
    /// other row is [`Held::Tail`], a row to classify.
    fn rows(&self, by_identity: bool) -> Vec<Held<'_>> {
        match self {
            Staged::Table(table) => match table.overlay_rows().filter(|_| by_identity) {
                Some(rows) => rows.collect(),
                None => table.rows().map(Held::Tail).collect(),
            },
            Staged::Rows(rows) => rows.iter().map(|row| Held::Tail(row)).collect(),
            Staged::Detached { .. } => unreachable!("a detached overlay is read by split"),
        }
    }

    /// An overlay's rows ([`Staged::rows`]) detached from it: the rid of
    /// each unwritten source row with an INT rid, and a copy of every
    /// other row. O(rows) integers and the written rows' cells; what lets
    /// the schema evolve and the version be written with the overlay's
    /// table dropped, so none of its source's chunks is pinned.
    fn detached(rows: &[Held<'_>]) -> Staged<'static> {
        let (mut kept, mut written) = (Vec::with_capacity(rows.len()), Vec::new());
        let mut source_width = 0;
        for (i, row) in rows.iter().enumerate() {
            match (row, row.cells().first()) {
                (Held::Source(cells), Some(&Value::Int(rid))) => {
                    source_width = cells.len();
                    kept.push(rid);
                }
                _ => written.push((i, row.cells().to_vec())),
            }
        }
        Staged::Detached {
            kept,
            written,
            source_width,
        }
    }

    /// The rids kept by identity and the rows to classify, in order.
    fn split(&self) -> (&[i64], Vec<&[Value]>) {
        match self {
            Staged::Table(table) => (&[], table.rows().collect()),
            Staged::Rows(rows) => (&[], rows.iter().map(Vec::as_slice).collect()),
            Staged::Detached { kept, written, .. } => (
                kept,
                written.iter().map(|(_, row)| row.as_slice()).collect(),
            ),
        }
    }

    /// The staged table again, after a commit that failed: the table
    /// itself, or, for a detached overlay, a table of the same name, schema
    /// and rows in the same order, its unwritten rows read back from the
    /// parents' records.
    fn into_table(
        self,
        engine: &Database,
        cvd: &Cvd,
        parents: &[Vid],
        name: &str,
        schema: &Schema,
    ) -> Result<Table> {
        let (kept, written, source_width) = match self {
            Staged::Table(table) => return Ok(table),
            Staged::Rows(_) => unreachable!("a CSV commit stages no table"),
            Staged::Detached {
                kept,
                written,
                source_width,
            } => (kept, written, source_width),
        };
        let mut records = ParentRecords::new(engine, cvd, parents)?;
        let mut table = Table::new(name, schema.clone());
        let (mut kept, mut written) = (kept.into_iter(), written.into_iter().peekable());
        for i in 0..kept.len() + written.len() {
            let mut row = match written.next_if(|&(at, _)| at == i) {
                Some((_, cells)) => cells,
                None => {
                    let rid = kept.next().expect("a row is kept or written");
                    let record = records.record(rid).ok_or_else(|| {
                        CoreError::Storage(format!("record {rid} of {name} is gone"))
                    })?;
                    let values = &record[..record.len().min(source_width.saturating_sub(1))];
                    [&[Value::Int(rid)], values].concat()
                }
            };
            row.resize(schema.arity(), Value::Null);
            table.insert(row)?;
        }
        Ok(table)
    }
}

/// Whether a commit may keep each source row a staged overlay has not
/// written by its rid, without comparing its cells: the staged table is an
/// overlay, and each column it reads from its source still has the name
/// and type the CVD gives it. Such a row is a record of a parent, which
/// the checkout selected from an immutable payload, so it equals that
/// record; an `ADD COLUMN` since reads NULL on both sides. A type widened
/// since the checkout (Section 3.3) may have changed the parent record's
/// values, and then every row is classified.
fn keeps_by_identity(staged: &Table, cvd: &Cvd) -> bool {
    let Some(mut rows) = staged.overlay_rows() else {
        return false;
    };
    let width = rows.find_map(|row| match row {
        Held::Source(cells) => Some(cells.len()),
        Held::Tail(_) => None,
    });
    let source = &staged.schema.columns[..width.unwrap_or(0)];
    source.len() <= 1 + cvd.schema.arity()
        && source
            .first()
            .is_none_or(|c| c.name.eq_ignore_ascii_case("rid"))
        && source
            .iter()
            .skip(1)
            .zip(&cvd.schema.columns)
            .all(|(s, c)| s.name.eq_ignore_ascii_case(&c.name) && s.dtype == c.dtype)
}

/// The rid a staged row carries in its first column: `None` for a NULL
/// (an inserted row), an error for anything but an INT.
fn staged_rid(row: &[Value]) -> Result<Option<i64>> {
    match row.first() {
        Some(Value::Int(r)) => Ok(Some(*r)),
        Some(Value::Null) | None => Ok(None),
        Some(other) => Err(CoreError::Invalid(format!(
            "rid column must be INT or NULL, found {other}"
        ))),
    }
}

/// The staged column holding each column of `schema`, if any.
fn column_map(schema: &Schema, staged: &Schema) -> Vec<Option<usize>> {
    schema
        .columns
        .iter()
        .map(|c| {
            staged
                .columns
                .iter()
                .position(|sc| sc.name.eq_ignore_ascii_case(&c.name))
        })
        .collect()
}

/// Classify a commit's staged rows ([`Staged::split`]) against the
/// parents (the no-cross-version-diff rule of §2.2): a detached overlay's
/// unwritten rows are kept by their rids, and any other row keeps its rid
/// when the first parent holding that rid has a record equal to it value
/// for value, the row read in CVD column order through `col_map`; a parent
/// record narrower than the schema (a table frozen before an `ADD COLUMN`)
/// matches NULLs in the columns it predates. Returns the kept rids,
/// sorted, and the other rows copied out in CVD column order — the only
/// rows that are copied.
///
/// Parent records are borrowed in place through the parents' views
/// ([`ParentRecords`]), read only once a row carries a rid: rows inserted
/// with a NULL rid are new whatever the parents hold. A staged table is
/// usually a checkout edited in place, its rows in rid order, which is
/// the order those views find rids fastest in. When the staged columns
/// after the rid are the CVD's in order, a row of the schema's width is
/// compared with its parent record as one slice.
fn classify_staged(
    engine: &Database,
    cvd: &Cvd,
    parents: &[Vid],
    staged: &Staged<'_>,
    col_map: &[Option<usize>],
) -> Result<(Vec<i64>, Vec<Vec<Value>>)> {
    let (by_identity, rows) = staged.split();
    let carries_rid = |row: &&[Value]| matches!(row.first(), Some(Value::Int(_)));
    let read = if rows.iter().any(carries_rid) {
        parents
    } else {
        &[]
    };
    let mut held = ParentRecords::new(engine, cvd, read)?;
    let width = col_map.len();
    let in_order = col_map.iter().enumerate().all(|(c, &i)| i == Some(c + 1));
    let mut kept = Vec::with_capacity(by_identity.len() + rows.len());
    kept.extend_from_slice(by_identity);
    let mut new_rows = Vec::new();
    for row in rows {
        let cell = |c: usize| col_map[c].and_then(|i| row.get(i)).unwrap_or(&NULL);
        let unchanged = staged_rid(row)?.filter(|&rid| {
            held.record(rid).is_some_and(|parent| {
                if in_order && parent.len() == width && row.len() == width + 1 {
                    parent == &row[1..]
                } else {
                    parent.len() <= width
                        && (0..width).all(|c| parent.get(c).unwrap_or(&NULL) == cell(c))
                }
            })
        });
        match unchanged {
            Some(rid) => kept.push(rid),
            None => new_rows.push((0..width).map(|c| cell(c).clone()).collect()),
        }
    }
    kept.sort_unstable();
    Ok((kept, new_rows))
}

/// The kept rids a logged commit names: the first parent's rlist minus
/// `dropped`, plus `adopted`. Both lists must be sorted, every parent must
/// exist, every dropped rid must occur in the first parent's rlist and
/// every adopted one in some parent's; anything else is a corrupt record.
fn logged_kept(cvd: &Cvd, parents: &[Vid], dropped: &[i64], adopted: &[i64]) -> Result<Vec<i64>> {
    let corrupt = |what: String| CoreError::Protocol(format!("WAL commit record: {what}"));
    let sorted = |rids: &[i64]| rids.windows(2).all(|w| w[0] <= w[1]);
    if !sorted(dropped) || !sorted(adopted) {
        return Err(corrupt("rid lists are not sorted".into()));
    }
    if let Some(p) = parents.iter().find(|&&p| !cvd.has_version(p)) {
        return Err(corrupt(format!(
            "parent {p} is not a version of {}",
            cvd.name
        )));
    }
    let first: &[i64] = match parents.first() {
        Some(&p) => cvd.rids_of(p)?,
        None => &[],
    };
    if let Some(rid) = sorted_multiset_difference(dropped, first).first() {
        return Err(corrupt(format!(
            "dropped rid {rid} is not in the first parent's rlist"
        )));
    }
    for rid in adopted {
        let held = parents.iter().any(|&p| {
            cvd.rids_of(p)
                .is_ok_and(|rids| rids.binary_search(rid).is_ok())
        });
        if !held {
            return Err(corrupt(format!("adopted rid {rid} is in no parent")));
        }
    }
    let mut kept = sorted_multiset_difference(first, dropped);
    kept.extend_from_slice(adopted);
    kept.sort_unstable();
    Ok(kept)
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

/// Reject duplicate primary keys among staged rows, naming the first row
/// (in row order) whose key an earlier row already has. `pk` gives the
/// column of each key attribute within a row; `None` reads as NULL (a key
/// column the staged table lacks). Rows are compared in place through
/// their key hashes, sorted, so the check allocates one buffer however
/// many rows there are. An overlay's unwritten source rows
/// ([`Held::Source`]) are parent records, staged key-unique by the
/// checkout, so a duplicate takes a written row: a source row is hashed
/// only when some written row was, and compared only when it shares a
/// written row's hash.
fn check_pk_duplicates(rows: &[Held<'_>], pk: &[Option<usize>]) -> Result<()> {
    fn key<'r>(row: Held<'r>, pk: &'r [Option<usize>]) -> impl Iterator<Item = &'r Value> {
        pk.iter()
            .map(move |c| c.and_then(|i| row.cells().get(i)).unwrap_or(&NULL))
    }
    if pk.is_empty() {
        return Ok(());
    }
    let mut hashed: Vec<(u64, usize)> = (rows.iter().enumerate())
        .filter(|(_, row)| matches!(row, Held::Tail(_)))
        .map(|(i, &row)| (model::hash_values(key(row, pk)), i))
        .collect();
    if hashed.len() < rows.len() && !hashed.is_empty() {
        let mut written: Vec<u64> = hashed.iter().map(|&(hash, _)| hash).collect();
        written.sort_unstable();
        for (i, &row) in rows.iter().enumerate() {
            if let Held::Source(_) = row {
                let hash = model::hash_values(key(row, pk));
                if written.binary_search(&hash).is_ok() {
                    hashed.push((hash, i));
                }
            }
        }
    }
    hashed.sort_unstable();
    let mut first_duplicate: Option<usize> = None;
    for run in hashed.chunk_by(|a, b| a.0 == b.0) {
        // Within a run rows are in row order: the first one equal to an
        // earlier one is this run's first duplicate.
        let duplicate = run.iter().enumerate().find(|&(k, &(_, i))| {
            run[..k]
                .iter()
                .any(|&(_, j)| key(rows[j], pk).eq(key(rows[i], pk)))
        });
        if let Some((_, &(_, i))) = duplicate {
            first_duplicate = Some(first_duplicate.map_or(i, |d| d.min(i)));
        }
    }
    match first_duplicate {
        Some(i) => Err(CoreError::PrimaryKeyViolation(format!(
            "duplicate key {:?}",
            key(rows[i], pk).collect::<Vec<_>>()
        ))),
        None => Ok(()),
    }
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

    /// `read` answers on a shared borrow, so it refuses what writes with a
    /// typed error: a checkout, and a `SELECT … INTO`. Neither leaves a
    /// table behind.
    #[test]
    fn read_refuses_a_request_that_writes() {
        let odb = setup();
        let checkout = crate::request::Checkout::of("protein")
            .version(1u64)
            .into_table("w");
        for (request, command) in [
            (Request::from(checkout), CommandKind::Checkout),
            (
                crate::request::Run::sql("SELECT * INTO w FROM VERSION 1 OF CVD protein").into(),
                CommandKind::Run,
            ),
        ] {
            let err = odb.read(request).unwrap_err();
            assert!(
                matches!(err, CoreError::BadRequest { command: c, .. } if c == command),
                "{err}"
            );
        }
        assert!(!odb.engine.has_table("w") && odb.staged().is_empty());
        let rows = crate::request::Run::sql("SELECT count(*) FROM VERSION 1 OF CVD protein");
        match odb.read(rows.into()).unwrap() {
            Response::Rows(r) => assert_eq!(r.scalar(), Some(&Value::Int(3))),
            other => panic!("unexpected {}", other.summary()),
        }
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
        for sql in [
            "ALTER TABLE w ADD COLUMN note TEXT",
            "UPDATE w SET note = 'edited' WHERE cooccurrence = 87",
            "INSERT INTO w VALUES (NULL, 'NEW', 'ROW', 7, 'added')",
        ] {
            odb.engine.execute(sql).unwrap();
        }
        let staged = |odb: &OrpheusDB| odb.engine.query("SELECT * FROM w").unwrap().rows;
        let before = staged(&odb);
        odb.engine.drop_table("protein__meta").unwrap();
        assert!(odb.commit("w", "doomed").is_err());
        let cvd = odb.cvd("protein").unwrap();
        assert_eq!(cvd.num_versions(), 1);
        assert_eq!(cvd.version_rids.len(), 1);
        assert!(odb.version_rows("protein", Vid(2)).is_err());
        // The staged table survives the failed commit, rows and order.
        assert_eq!(staged(&odb), before);
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
        assert_eq!(odb.version_rows("protein", Vid(2)).unwrap().len(), 4);
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

    /// Every partition data table holds every record of every version
    /// assigned to it, each rid once.
    fn assert_partitions_hold_their_versions(odb: &OrpheusDB, step: &str) {
        let cvd = odb.cvd("kv").unwrap();
        let state = cvd.partition.as_ref().unwrap();
        for k in 0..state.num_partitions() {
            let (data, _) = cvd.partition_pair(state.generation, k);
            let mut held: Vec<i64> = odb
                .engine
                .table(&data)
                .unwrap()
                .rows()
                .map(|row| match row[0] {
                    Value::Int(rid) => rid,
                    ref other => panic!("{step}: rid {other} in {data}"),
                })
                .collect();
            held.sort_unstable();
            assert!(
                held.windows(2).all(|w| w[0] < w[1]),
                "{step}: {data} holds a rid twice"
            );
            for (v, _) in state
                .assignment()
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p == k)
            {
                let missing = crate::cvd::sorted_difference(&cvd.version_rids[v], &held);
                assert!(
                    missing.is_empty(),
                    "{step}: {data} lacks rids {missing:?} of version {}",
                    v + 1
                );
            }
        }
    }

    /// A version placed beside its tree parent copies only what it adds
    /// to that parent, and that is enough: the partitions stay whole
    /// through a merge whose tree parent is its second parent, a
    /// placement that fails and is retried, and migrations.
    #[test]
    fn partition_data_tables_hold_every_record_of_their_versions() {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("x", DataType::Int),
        ])
        .with_primary_key(&["k"])
        .unwrap();
        let mut odb = OrpheusDB::new();
        let rows = (1..6).map(|k| vec![Value::Int(k), Value::Int(0)]);
        odb.init_cvd("kv", schema, rows.collect(), None).unwrap();
        let insert = |odb: &mut OrpheusDB, keys: std::ops::Range<i64>| {
            for k in keys {
                let sql = format!("INSERT INTO w VALUES (NULL, {k}, 0)");
                odb.engine.execute(&sql).unwrap();
            }
        };
        // v2 shares nothing with v1; v3 grows v2. At γ = |R| the layout
        // has no slack to open a partition online.
        odb.checkout("kv", &[Vid(1)], "w").unwrap();
        odb.engine.execute("DELETE FROM w").unwrap();
        insert(&mut odb, 100..200);
        let v2 = odb.commit("w", "replace").unwrap();
        odb.checkout("kv", &[v2], "w").unwrap();
        insert(&mut odb, 200..205);
        let v3 = odb.commit("w", "grow").unwrap();
        odb.optimize_with("kv", 1.0, 100.0).unwrap();
        assert_partitions_hold_their_versions(&odb, "optimize");

        // A merge listing v1 first adopts v3's rids and shares most with
        // v3, its tree parent: it joins v3's partition, which does not
        // hold v1's records.
        odb.checkout("kv", &[Vid(1), v3], "w").unwrap();
        let merge = odb.commit("w", "merge").unwrap();
        let part = |odb: &OrpheusDB, v: Vid| {
            let state = odb.cvd("kv").unwrap().partition.as_ref().unwrap();
            state.partition_of(v).unwrap()
        };
        let parents = &odb.cvd("kv").unwrap().meta(merge).unwrap().parents;
        assert_eq!(parents, &vec![Vid(1), v3]);
        assert_eq!(part(&odb, merge), part(&odb, v3));
        assert_ne!(part(&odb, Vid(1)), part(&odb, v3));
        assert_partitions_hold_their_versions(&odb, "merge");

        // The sabotage of
        // `failed_partition_maintenance_keeps_state_and_version_count`:
        // every rlist table gone and the next partition's name taken, so
        // placement fails either way after copying records. Then the
        // layout is repaired and the commit retried.
        let before = odb.cvd("kv").unwrap().partition.clone().unwrap();
        let rlists: Vec<_> = (0..before.num_partitions())
            .map(|k| {
                let name = format!("kv__g{}p{}_rlist", before.generation, k);
                let table = odb.engine.table(&name).unwrap().clone();
                odb.engine.drop_table(&name).unwrap();
                table
            })
            .collect();
        let blocker = format!(
            "kv__g{}p{}_data",
            before.generation,
            before.num_partitions()
        );
        odb.engine
            .execute(&format!("CREATE TABLE {blocker} (x INT)"))
            .unwrap();
        odb.checkout("kv", &[merge], "w").unwrap();
        insert(&mut odb, 300..310);
        assert!(odb.commit("w", "doomed").is_err());
        assert_partitions_hold_their_versions(&odb, "rolled back");
        for table in rlists {
            odb.engine.add_table(table).unwrap();
        }
        let retried = odb.commit("w", "retry").unwrap();
        assert_eq!(part(&odb, retried), part(&odb, merge));
        assert_partitions_hold_their_versions(&odb, "retried");

        // Migrations: a re-optimize, then online ones at µ = 1.
        odb.optimize_with("kv", 2.0, 1.0).unwrap();
        assert_partitions_hold_their_versions(&odb, "re-optimize");
        let generation = odb
            .cvd("kv")
            .unwrap()
            .partition
            .as_ref()
            .unwrap()
            .generation;
        for i in 0..6i64 {
            let parent = if i % 2 == 0 { retried } else { Vid(1) };
            odb.checkout("kv", &[parent], "w").unwrap();
            insert(&mut odb, 400 + 20 * i..415 + 20 * i);
            odb.commit("w", "drift").unwrap();
            assert_partitions_hold_their_versions(&odb, &format!("drift {i}"));
        }
        let after = odb
            .cvd("kv")
            .unwrap()
            .partition
            .as_ref()
            .unwrap()
            .generation;
        assert!(after > generation, "no online migration happened");
    }

    /// The classification the walk replaced, kept as the reference: each
    /// staged rid binary-searched in each parent's rows, read through SQL,
    /// and compared cell by cell.
    fn classify_by_search(
        engine: &mut Database,
        cvd: &Cvd,
        parents: &[Vid],
        staged: &str,
        col_map: &[Option<usize>],
    ) -> (Vec<i64>, Vec<Vec<Value>>) {
        let parent_rows: Vec<Vec<(i64, Vec<Value>)>> = parents
            .iter()
            .map(|&p| {
                let mut rows = model::version_rows(engine, cvd, p).unwrap();
                rows.sort_by_key(|(rid, _)| *rid);
                rows
            })
            .collect();
        let width = col_map.len();
        let (mut kept, mut new_rows) = (Vec::new(), Vec::new());
        for row in engine.table(staged).unwrap().rows() {
            let cell = |c: usize| col_map[c].and_then(|i| row.get(i)).unwrap_or(&NULL);
            let unchanged = staged_rid(row).unwrap().filter(|rid| {
                parent_rows
                    .iter()
                    .find_map(|rows| {
                        let i = rows.binary_search_by_key(rid, |(r, _)| *r).ok()?;
                        Some(&rows[i].1)
                    })
                    .is_some_and(|parent| {
                        parent.len() <= width
                            && (0..width).all(|c| parent.get(c).unwrap_or(&NULL) == cell(c))
                    })
            });
            match unchanged {
                Some(rid) => kept.push(rid),
                None => new_rows.push((0..width).map(|c| cell(c).clone()).collect()),
            }
        }
        kept.sort_unstable();
        (kept, new_rows)
    }

    /// Classify the staged table `w`, checked out from `parents`, by the
    /// walk and by the reference after evolving the schema as its commit
    /// does; the two must agree. Then commit it. Returns the kept rids.
    fn classify_both_ways_and_commit(odb: &mut OrpheusDB, parents: &[Vid], what: &str) -> Vec<i64> {
        let staged_schema = odb.engine.table("w").unwrap().schema.clone();
        let cvd = lookup(&odb.cvds, "kv").unwrap();
        if let Some(schema) = evolved_schema(&cvd.schema, &staged_schema).unwrap() {
            odb.apply_schema("kv", schema).unwrap();
        }
        let cvd = lookup(&odb.cvds, "kv").unwrap();
        let col_map = column_map(&cvd.schema, &staged_schema);
        let classify = |by_identity| {
            let mut staged = Staged::Table(odb.engine.table("w").unwrap().clone());
            if by_identity {
                staged = Staged::detached(&staged.rows(true));
            }
            classify_staged(&odb.engine, cvd, parents, &staged, &col_map).unwrap()
        };
        let (walked, overlaid) = (classify(false), classify(true));
        let searched = classify_by_search(&mut odb.engine, cvd, parents, "w", &col_map);
        assert_eq!(walked, searched, "{what}, {}", cvd.model.name());
        assert_eq!(overlaid, searched, "{what}, {}", cvd.model.name());
        odb.commit("w", what).unwrap();
        walked.0
    }

    #[test]
    fn classification_by_walk_matches_the_binary_search() {
        for model in ModelKind::ALL {
            classify_staged_tables(model);
        }
    }

    /// Five staged tables of one CVD of `model`; a-table-per-version and
    /// delta freeze parent records narrower than the schema after the
    /// `ADD COLUMN`.
    fn classify_staged_tables(model: ModelKind) {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("x", DataType::Int),
        ])
        .with_primary_key(&["k"])
        .unwrap();
        let rows = (1..=8).map(|k| vec![Value::Int(k), Value::Int(10 * k)]);
        let mut odb = OrpheusDB::new();
        odb.init_cvd("kv", schema, rows.collect(), Some(model))
            .unwrap();
        let rid_of = |odb: &mut OrpheusDB, k: i64| {
            let r = odb
                .engine
                .query(&format!("SELECT rid FROM w WHERE k = {k}"));
            r.unwrap().scalar().cloned().unwrap()
        };
        let run = |odb: &mut OrpheusDB, sql: &str| odb.engine.execute(sql).unwrap();

        // A rid deleted, then re-inserted with its old values: the row
        // moves to the back of the heap, out of rid order.
        odb.checkout("kv", &[Vid(1)], "w").unwrap();
        let rid3 = rid_of(&mut odb, 3);
        run(&mut odb, "DELETE FROM w WHERE k = 3");
        run(&mut odb, &format!("INSERT INTO w VALUES ({rid3}, 3, 30)"));
        run(&mut odb, "UPDATE w SET x = 99 WHERE k = 5");
        let kept = classify_both_ways_and_commit(&mut odb, &[Vid(1)], "out of order");
        assert!(kept.contains(&rid3.as_int().unwrap()) && kept.len() == 7);

        // A repeated rid: a second row carries k = 1's rid.
        odb.checkout("kv", &[Vid(2)], "w").unwrap();
        let rid1 = rid_of(&mut odb, 1);
        run(&mut odb, &format!("INSERT INTO w VALUES ({rid1}, 100, 0)"));
        run(&mut odb, "DELETE FROM w WHERE k = 7");
        let kept = classify_both_ways_and_commit(&mut odb, &[Vid(2)], "repeated rid");
        assert_eq!(kept.len(), 7);

        // Two parents: k = 7 comes back from the second.
        odb.checkout("kv", &[Vid(3), Vid(1)], "w").unwrap();
        run(&mut odb, "UPDATE w SET x = 7 WHERE k = 8");
        let kept = classify_both_ways_and_commit(&mut odb, &[Vid(3), Vid(1)], "two parents");
        assert_eq!(kept.len(), 8);

        // An added column, set on one row.
        odb.checkout("kv", &[Vid(4)], "w").unwrap();
        run(&mut odb, "ALTER TABLE w ADD COLUMN y INT");
        run(&mut odb, "UPDATE w SET y = 1 WHERE k = 2");
        let kept = classify_both_ways_and_commit(&mut odb, &[Vid(4)], "added column");
        assert_eq!(kept.len(), 8);

        // The staged columns in another order than the CVD's.
        odb.checkout("kv", &[Vid(5)], "w").unwrap();
        run(&mut odb, "SELECT rid, y, x, k INTO w2 FROM w");
        let mut reordered = odb.engine.table("w2").unwrap().clone();
        reordered.rename("w");
        odb.engine.drop_table("w2").unwrap();
        odb.engine.drop_table("w").unwrap();
        odb.engine.add_table(reordered).unwrap();
        run(&mut odb, "UPDATE w SET x = 0 WHERE k = 4");
        let kept = classify_both_ways_and_commit(&mut odb, &[Vid(5)], "columns reordered");
        assert_eq!(kept.len(), 8);
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

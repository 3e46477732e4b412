//! Collaborative versioned datasets (CVDs): per-version metadata, the
//! attribute registry for schema evolution (Section 3.3, Figures 4/5), and
//! bridges to the partition crate's graph structures.

use std::collections::HashMap;
use std::sync::Arc;

use orpheus_engine::{Column, DataType, Database, Schema, Value};
use orpheus_partition::{BipartiteGraph, VersionGraph, VersionTree};

use crate::error::{CoreError, Result};
use crate::ids::Vid;
use crate::model::ModelKind;
use crate::partition_store::PartitionState;

/// Attribute registry entry (Figure 5b/c): every distinct (name, type)
/// pair gets a unique id; changing an attribute's type creates a new entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrEntry {
    pub id: u32,
    pub name: String,
    pub dtype: DataType,
}

/// The attribute table of the single-pool schema-evolution scheme.
///
/// `intern` is called for every column of every commit (commits re-intern
/// the whole schema), so lookups go through a `(name, type)` → id map kept
/// alongside `entries` instead of a linear scan — wide evolving schemas
/// would otherwise pay O(n²) interning.
///
/// The registry changes only when a commit brings an attribute nobody has
/// seen, so the whole of it sits behind one [`Arc`]: cloning a `Cvd` — the
/// backbone of MVCC snapshot publication — shares it, and the rare
/// interning of a new attribute copies it once.
#[derive(Debug, Clone, Default)]
pub struct AttributeRegistry {
    shared: Arc<RegistryData>,
}

#[derive(Debug, Clone, Default)]
struct RegistryData {
    entries: Vec<AttrEntry>,
    /// (lower-cased name, type) → id, kept in sync with `entries`.
    by_key: HashMap<(String, DataType), u32>,
}

impl AttributeRegistry {
    /// Get or create the id for an attribute (name, type).
    pub fn intern(&mut self, name: &str, dtype: DataType) -> u32 {
        let key = (name.to_ascii_lowercase(), dtype);
        if let Some(&id) = self.shared.by_key.get(&key) {
            return id;
        }
        let data = Arc::make_mut(&mut self.shared);
        let id = data.entries.len() as u32 + 1;
        data.entries.push(AttrEntry {
            id,
            name: name.to_string(),
            dtype,
        });
        data.by_key.insert(key, id);
        id
    }

    pub fn get(&self, id: u32) -> Option<&AttrEntry> {
        // Ids are dense by construction: intern assigns len + 1 and
        // from_entries requires a previous entries() output. A mismatch
        // means a corrupt registry and reports absence.
        let i = (id as usize).checked_sub(1)?;
        self.shared.entries.get(i).filter(|e| e.id == id)
    }

    pub fn entries(&self) -> &[AttrEntry] {
        &self.shared.entries
    }

    /// Rebuild a registry from saved entries (snapshot restore). Entries
    /// must be the output of a previous [`AttributeRegistry::entries`] call;
    /// ids are preserved verbatim.
    pub fn from_entries(entries: Vec<AttrEntry>) -> AttributeRegistry {
        let by_key = entries
            .iter()
            .map(|e| ((e.name.to_ascii_lowercase(), e.dtype), e.id))
            .collect();
        AttributeRegistry {
            shared: Arc::new(RegistryData { entries, by_key }),
        }
    }

    /// Intern every column of a schema, returning the attribute-id list
    /// recorded in version metadata.
    pub fn intern_schema(&mut self, schema: &Schema) -> Vec<u32> {
        schema
            .columns
            .iter()
            .map(|c| self.intern(&c.name, c.dtype))
            .collect()
    }
}

/// Per-version metadata (the metadata table of Figure 4a).
/// `PartialEq` so recovery tests and the crash-recovery verifier can
/// compare version graphs field-for-field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionMeta {
    pub vid: Vid,
    pub parents: Vec<Vid>,
    /// Shared-record count with each parent (aligned with `parents`).
    pub parent_weights: Vec<u64>,
    /// Logical checkout timestamp (when the source table was materialized).
    pub checkout_t: Option<u64>,
    /// Logical commit timestamp.
    pub commit_t: u64,
    pub message: String,
    /// Attribute ids present in this version (schema evolution).
    pub attributes: Vec<u32>,
    pub num_records: u64,
    /// For the delta model: the parent this version's delta is based on.
    pub base: Option<Vid>,
}

/// A collaborative versioned dataset.
#[derive(Debug, Clone)]
pub struct Cvd {
    pub name: String,
    /// Current logical schema (data attributes only — no `rid`).
    pub schema: Schema,
    pub model: ModelKind,
    /// Metadata per version. A version's metadata and its rlist (below)
    /// are immutable once it commits and are therefore each stored behind
    /// an [`Arc`], so cloning a `Cvd` — the backbone of MVCC snapshot
    /// publication — costs two pointer vectors and a refcount bump per
    /// version instead of copying every message, parent list and rlist.
    /// `PartialEq`/persistence see through the `Arc` transparently.
    pub versions: Vec<Arc<VersionMeta>>,
    /// Sorted rid list per version (the version manager's cache of "which
    /// version contains which records").
    pub version_rids: Vec<Arc<Vec<i64>>>,
    pub next_rid: u64,
    pub attrs: AttributeRegistry,
    /// Partitioned physical layout, if `optimize` has run.
    pub partition: Option<PartitionState>,
}

impl Cvd {
    pub fn new(name: &str, schema: Schema, model: ModelKind) -> Cvd {
        let mut attrs = AttributeRegistry::default();
        attrs.intern_schema(&schema);
        Cvd {
            name: name.to_ascii_lowercase(),
            schema,
            model,
            versions: Vec::new(),
            version_rids: Vec::new(),
            next_rid: 1,
            attrs,
            partition: None,
        }
    }

    // -- table naming -------------------------------------------------------

    pub fn data_table(&self) -> String {
        format!("{}__data", self.name)
    }

    pub fn combined_table(&self) -> String {
        format!("{}__combined", self.name)
    }

    pub fn vlist_table(&self) -> String {
        format!("{}__vlist", self.name)
    }

    pub fn rlist_table(&self) -> String {
        format!("{}__rlist", self.name)
    }

    pub fn version_table(&self, vid: Vid) -> String {
        format!("{}__v{}", self.name, vid.0)
    }

    pub fn delta_table(&self, vid: Vid) -> String {
        format!("{}__delta{}", self.name, vid.0)
    }

    pub fn precedent_table(&self) -> String {
        format!("{}__prec", self.name)
    }

    pub fn meta_table(&self) -> String {
        format!("{}__meta", self.name)
    }

    pub fn attr_table(&self) -> String {
        format!("{}__attrs", self.name)
    }

    /// The `(data, rlist)` tables of partition `k` in migration
    /// generation `generation`: a partition *is* a split-by-rlist table
    /// pair, under its own names.
    pub fn partition_pair(&self, generation: usize, k: usize) -> (String, String) {
        let table = |role| format!("{}__g{}p{}_{role}", self.name, generation, k);
        (table("data"), table("rlist"))
    }

    /// Every partition's table pair (none until `optimize` has run).
    pub fn partition_pairs(&self) -> impl Iterator<Item = (String, String)> + '_ {
        self.partition.iter().flat_map(move |state| {
            (0..state.num_partitions()).map(move |k| self.partition_pair(state.generation, k))
        })
    }

    /// The split-by-rlist `(data, rlist)` pair that holds version `vid`:
    /// the global pair, or the pair of the version's partition once
    /// `optimize` has run. Every Table 1 statement of the model reads
    /// through this, so a checkout touches |Rk| records instead of |R|.
    pub fn rlist_pair(&self, vid: Vid) -> Result<(String, String)> {
        match &self.partition {
            Some(state) => Ok(self.partition_pair(state.generation, state.partition_of(vid)?)),
            None => Ok((self.data_table(), self.rlist_table())),
        }
    }

    // -- versions ------------------------------------------------------------

    pub fn num_versions(&self) -> usize {
        self.versions.len()
    }

    pub fn has_version(&self, vid: Vid) -> bool {
        vid.0 >= 1 && (vid.0 as usize) <= self.versions.len()
    }

    pub fn check_version(&self, vid: Vid) -> Result<()> {
        if self.has_version(vid) {
            Ok(())
        } else {
            Err(CoreError::VersionNotFound {
                cvd: self.name.clone(),
                version: vid,
            })
        }
    }

    /// The most recently committed version.
    pub fn latest(&self) -> Option<Vid> {
        if self.versions.is_empty() {
            None
        } else {
            Some(Vid(self.versions.len() as u64))
        }
    }

    pub fn meta(&self, vid: Vid) -> Result<&VersionMeta> {
        self.check_version(vid)?;
        Ok(&self.versions[vid.index()])
    }

    pub fn rids_of(&self, vid: Vid) -> Result<&[i64]> {
        self.check_version(vid)?;
        Ok(&self.version_rids[vid.index()])
    }

    /// Record a committed version: its metadata and its sorted rlist.
    pub fn push_version(&mut self, meta: VersionMeta, rlist: Vec<i64>) {
        self.versions.push(Arc::new(meta));
        self.version_rids.push(Arc::new(rlist));
    }

    /// Allocate `n` fresh record ids.
    pub fn alloc_rids(&mut self, n: usize) -> Vec<i64> {
        let start = self.next_rid;
        self.next_rid += n as u64;
        (start..start + n as u64).map(|r| r as i64).collect()
    }

    // -- graph bridges -------------------------------------------------------

    /// The version graph (DAG) with record-overlap edge weights.
    pub fn version_graph(&self) -> VersionGraph {
        let mut g = VersionGraph::new();
        for m in &self.versions {
            let parents: Vec<(usize, u64)> = m
                .parents
                .iter()
                .zip(&m.parent_weights)
                .map(|(p, &w)| (p.index(), w))
                .collect();
            g.push_version(parents, m.num_records);
        }
        g
    }

    /// The version tree LyreSplit operates on (max-weight parents kept).
    pub fn version_tree(&self) -> VersionTree {
        self.version_graph().to_tree()
    }

    /// The version-record bipartite graph (for exact cost computations).
    pub fn bipartite(&self) -> BipartiteGraph {
        BipartiteGraph::new(
            self.version_rids
                .iter()
                .map(|rs| rs.iter().map(|&r| r as usize).collect())
                .collect(),
        )
    }

    /// Ancestors of a version (transitive parents).
    pub fn ancestors(&self, vid: Vid) -> Result<Vec<Vid>> {
        self.check_version(vid)?;
        Ok(self
            .version_graph()
            .ancestors(vid.index())
            .into_iter()
            .map(Vid::from_index)
            .collect())
    }

    /// Descendants of a version (transitive children).
    pub fn descendants(&self, vid: Vid) -> Result<Vec<Vid>> {
        self.check_version(vid)?;
        Ok(self
            .version_graph()
            .descendants(vid.index())
            .into_iter()
            .map(Vid::from_index)
            .collect())
    }

    /// The last commit (by logical time) — "the last modification to the
    /// CVD" shortcut.
    pub fn last_modified(&self) -> Option<(Vid, u64)> {
        self.versions
            .iter()
            .max_by_key(|m| m.commit_t)
            .map(|m| (m.vid, m.commit_t))
    }

    // -- metadata tables in the engine ---------------------------------------

    /// Create the engine-side metadata and attribute tables so that users
    /// can query provenance with plain SQL (Figure 4a / Figure 5).
    pub fn create_meta_tables(&self, db: &mut Database) -> Result<()> {
        db.execute(&format!(
            "CREATE TABLE {} (vid INT PRIMARY KEY, parents INT[], checkout_t INT, \
             commit_t INT, msg TEXT, attributes INT[], num_records INT)",
            self.meta_table()
        ))?;
        db.execute(&format!(
            "CREATE TABLE {} (attr_id INT PRIMARY KEY, attr_name TEXT, data_type TEXT)",
            self.attr_table()
        ))?;
        Ok(())
    }

    /// Append one version's metadata row (called on commit) and refresh the
    /// attribute table.
    pub fn sync_meta_row(&self, db: &mut Database, vid: Vid) -> Result<()> {
        let m = self.meta(vid)?;
        let parents: Vec<i64> = m.parents.iter().map(|p| p.0 as i64).collect();
        let attrs: Vec<i64> = m.attributes.iter().map(|&a| a as i64).collect();
        let t = db.table_mut(&self.meta_table())?;
        t.insert(vec![
            Value::Int(m.vid.0 as i64),
            Value::IntArray(parents),
            m.checkout_t
                .map(|t| Value::Int(t as i64))
                .unwrap_or(Value::Null),
            Value::Int(m.commit_t as i64),
            Value::Text(m.message.clone()),
            Value::IntArray(attrs),
            Value::Int(m.num_records as i64),
        ])?;
        // Refresh attribute rows (idempotent upsert by id).
        let at = db.table_mut(&self.attr_table())?;
        for e in self.attrs.entries() {
            let key = vec![Value::Int(e.id as i64)];
            if at
                .index_lookup(&[0], &key)
                .map(|s| s.is_empty())
                .unwrap_or(true)
            {
                at.insert(vec![
                    Value::Int(e.id as i64),
                    Value::Text(e.name.clone()),
                    Value::Text(e.dtype.sql_name().to_string()),
                ])?;
            }
        }
        Ok(())
    }

    /// Physical schema of the data table: hidden `rid` column followed by
    /// the data attributes; primary key on `rid`.
    pub fn physical_data_schema(&self) -> Schema {
        let mut cols = vec![Column::new("rid", DataType::Int).not_null()];
        cols.extend(self.schema.columns.iter().cloned());
        let mut s = Schema::new(cols);
        s.primary_key = vec![0];
        s
    }

    /// Schema of a staged (checked-out) table: same as the physical data
    /// schema but with no constraints — no primary key (commit re-validates
    /// the logical PK) and a nullable `rid` (NULL marks inserted rows).
    pub fn staged_schema(&self) -> Schema {
        let mut s = self.physical_data_schema();
        s.primary_key = Vec::new();
        for c in &mut s.columns {
            c.nullable = true;
        }
        s
    }

    /// Number of records a prospective child (`rids`, sorted) shares with
    /// `parent` — a sorted-merge intersection over the two already-sorted
    /// rid lists, with no hashing and no allocation.
    pub fn shared_with(&self, rids: &[i64], parent: Vid) -> u64 {
        sorted_intersection_count(rids, &self.version_rids[parent.index()]) as u64
    }

    /// Shared-record counts against every parent, aligned with `parents`.
    /// Commit computes this once and derives both the base-parent choice
    /// and the stored `parent_weights` from it, instead of re-counting per
    /// call site.
    pub fn parent_overlaps(&self, rids: &[i64], parents: &[Vid]) -> Vec<u64> {
        parents.iter().map(|p| self.shared_with(rids, *p)).collect()
    }
}

// -- sorted-rlist set algebra -------------------------------------------------
//
// Every rlist in the system is kept sorted (commit sorts before storing,
// the generator emits sorted lists), so version-membership questions are
// merges over sorted slices rather than hash-set rebuilds.

/// Count of elements common to two sorted slices.
pub fn sorted_intersection_count(a: &[i64], b: &[i64]) -> usize {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]), "lhs rlist not sorted");
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "rhs rlist not sorted");
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Elements of sorted `a` absent from sorted `b`, in order.
pub fn sorted_difference(a: &[i64], b: &[i64]) -> Vec<i64> {
    let mut out = Vec::new();
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

/// Sorted `a` minus sorted `b` as multisets: each element of `b` cancels
/// one equal element of `a`, so a rid an rlist holds twice survives one
/// cancellation. Elements of `b` with nothing left to cancel are ignored.
pub(crate) fn sorted_multiset_difference(a: &[i64], b: &[i64]) -> Vec<i64> {
    let mut out = Vec::new();
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j < b.len() && b[j] == x {
            j += 1;
        } else {
            out.push(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protein_schema() -> Schema {
        Schema::new(vec![
            Column::new("protein1", DataType::Text),
            Column::new("protein2", DataType::Text),
            Column::new("neighborhood", DataType::Int),
        ])
        .with_primary_key(&["protein1", "protein2"])
        .unwrap()
    }

    fn cvd_with_versions() -> Cvd {
        let mut cvd = Cvd::new("Protein", protein_schema(), ModelKind::SplitByRlist);
        let attrs = cvd.attrs.intern_schema(&protein_schema());
        // v1: records 1..=3; v2 (parent v1): records 2..=4; v3 merge of 1,2.
        cvd.push_version(
            VersionMeta {
                vid: Vid(1),
                parents: vec![],
                parent_weights: vec![],
                checkout_t: None,
                commit_t: 1,
                message: "init".into(),
                attributes: attrs.clone(),
                num_records: 3,
                base: None,
            },
            vec![1, 2, 3],
        );
        cvd.push_version(
            VersionMeta {
                vid: Vid(2),
                parents: vec![Vid(1)],
                parent_weights: vec![2],
                checkout_t: Some(1),
                commit_t: 2,
                message: "edit".into(),
                attributes: attrs.clone(),
                num_records: 3,
                base: Some(Vid(1)),
            },
            vec![2, 3, 4],
        );
        cvd.push_version(
            VersionMeta {
                vid: Vid(3),
                parents: vec![Vid(1), Vid(2)],
                parent_weights: vec![3, 3],
                checkout_t: Some(2),
                commit_t: 3,
                message: "merge".into(),
                attributes: attrs,
                num_records: 4,
                base: Some(Vid(2)),
            },
            vec![1, 2, 3, 4],
        );
        cvd.next_rid = 5;
        cvd
    }

    #[test]
    fn attribute_registry_interns_and_versions_types() {
        let mut reg = AttributeRegistry::default();
        let a = reg.intern("cooccurrence", DataType::Int);
        let same = reg.intern("cooccurrence", DataType::Int);
        assert_eq!(a, same);
        // Type change creates a *new* attribute id (Figure 5).
        let widened = reg.intern("cooccurrence", DataType::Double);
        assert_ne!(a, widened);
        assert_eq!(reg.entries().len(), 2);
        assert_eq!(reg.get(widened).unwrap().dtype, DataType::Double);
    }

    #[test]
    fn version_lookup_and_lineage() {
        let cvd = cvd_with_versions();
        assert_eq!(cvd.num_versions(), 3);
        assert_eq!(cvd.latest(), Some(Vid(3)));
        assert!(cvd.check_version(Vid(4)).is_err());
        assert_eq!(cvd.ancestors(Vid(3)).unwrap(), vec![Vid(1), Vid(2)]);
        assert_eq!(cvd.descendants(Vid(1)).unwrap(), vec![Vid(2), Vid(3)]);
        assert_eq!(cvd.last_modified().unwrap().0, Vid(3));
    }

    #[test]
    fn graph_bridges_are_consistent() {
        let cvd = cvd_with_versions();
        let g = cvd.version_graph();
        assert_eq!(g.num_versions(), 3);
        assert!(!g.is_tree());
        let t = cvd.version_tree();
        // Merge keeps the max-weight parent; tie (3, 3) breaks to smaller id.
        assert!(t.parent[2].is_some());
        let bip = cvd.bipartite();
        assert_eq!(bip.num_records(), 4);
        assert_eq!(bip.common_records(0, 1), 2);
    }

    #[test]
    fn rid_allocation_is_monotone() {
        let mut cvd = cvd_with_versions();
        let a = cvd.alloc_rids(3);
        let b = cvd.alloc_rids(2);
        assert_eq!(a, vec![5, 6, 7]);
        assert_eq!(b, vec![8, 9]);
    }

    #[test]
    fn physical_schemas() {
        let cvd = cvd_with_versions();
        let p = cvd.physical_data_schema();
        assert_eq!(p.columns[0].name, "rid");
        assert_eq!(p.primary_key, vec![0]);
        assert_eq!(p.arity(), 4);
        let s = cvd.staged_schema();
        assert!(s.primary_key.is_empty());
    }

    #[test]
    fn meta_tables_round_trip() {
        let mut db = Database::new();
        let cvd = cvd_with_versions();
        cvd.create_meta_tables(&mut db).unwrap();
        for v in 1..=3u64 {
            cvd.sync_meta_row(&mut db, Vid(v)).unwrap();
        }
        let r = db
            .query(&format!(
                "SELECT count(*) FROM {} WHERE commit_t >= 2",
                cvd.meta_table()
            ))
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
        // The attribute table holds the three interned attributes.
        let r = db
            .query(&format!("SELECT count(*) FROM {}", cvd.attr_table()))
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn shared_with_counts_overlap() {
        let cvd = cvd_with_versions();
        // Pinned counts from the original hash-based implementation: the
        // sorted-merge rewrite must reproduce them exactly.
        assert_eq!(cvd.shared_with(&[2, 3, 4], Vid(1)), 2);
        assert_eq!(cvd.shared_with(&[2, 3, 4], Vid(2)), 3);
        assert_eq!(cvd.shared_with(&[], Vid(1)), 0);
        assert_eq!(cvd.shared_with(&[5, 6], Vid(3)), 0);
        // And agree with a naive set intersection on every version.
        for v in 1..=3u64 {
            let parent: std::collections::HashSet<i64> =
                cvd.rids_of(Vid(v)).unwrap().iter().copied().collect();
            for rids in [&[2, 3, 4][..], &[1][..], &[1, 2, 3, 4][..], &[][..]] {
                let naive = rids.iter().filter(|r| parent.contains(r)).count() as u64;
                assert_eq!(cvd.shared_with(rids, Vid(v)), naive, "v{v} vs {rids:?}");
            }
        }
        // parent_overlaps is the same computation batched across parents.
        assert_eq!(
            cvd.parent_overlaps(&[2, 3, 4], &[Vid(1), Vid(2)]),
            vec![2, 3]
        );
    }

    #[test]
    fn sorted_set_algebra() {
        assert_eq!(sorted_intersection_count(&[1, 3, 5], &[2, 3, 4, 5]), 2);
        assert_eq!(sorted_intersection_count(&[], &[1]), 0);
        assert_eq!(sorted_difference(&[1, 3, 5], &[2, 3, 4]), vec![1, 5]);
        assert_eq!(sorted_difference(&[1, 2], &[]), vec![1, 2]);
        assert!(sorted_difference(&[1], &[1]).is_empty());
    }

    #[test]
    fn attribute_registry_map_survives_restore() {
        let mut reg = AttributeRegistry::default();
        let a = reg.intern("a", DataType::Int);
        let b = reg.intern("B", DataType::Text);
        // Case-insensitive like the rest of the catalog.
        assert_eq!(reg.intern("A", DataType::Int), a);
        let mut restored = AttributeRegistry::from_entries(reg.entries().to_vec());
        assert_eq!(restored.intern("b", DataType::Text), b);
        assert_eq!(restored.get(a).unwrap().name, "a");
        assert_eq!(restored.get(0), None);
        assert_eq!(restored.get(99), None);
        // New interning after restore continues the dense id sequence.
        let c = restored.intern("c", DataType::Double);
        assert_eq!(c, 3);
        assert_eq!(restored.get(c).unwrap().dtype, DataType::Double);
    }
}

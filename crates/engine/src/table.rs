//! Heap tables: rows stored in insertion (or clustering) order, with
//! attached secondary indexes and storage accounting.
//!
//! Physical clustering matters to the paper's cost model (Appendix D.1):
//! the data table can be clustered on `rid` (checkout-friendly) or on the
//! relation primary key; [`Table::cluster_by`] re-sorts the heap and
//! records which key the heap is ordered by so the cost model can charge
//! sequential vs. random page accesses appropriately.
//!
//! # Chunked copy-on-write storage
//!
//! The heap is a directory of fixed-size row **chunks**, each behind its
//! own [`Arc`]; every index is a directory of `Arc`-shared leaves (see
//! [`crate::index`]). The directories, the clustering state and the byte
//! counters live behind one more `Arc` (the private `TableData`), and the
//! table's name and schema behind theirs. What each step costs:
//!
//! * **Clone** a `Table` — and therefore a whole [`crate::Database`] — is
//!   three reference-count bumps, whatever the table holds.
//! * **First write after a clone** copies the directories (one pointer
//!   per chunk or leaf, via [`Arc::make_mut`] on `TableData`) and then
//!   only the chunks and leaves the write lands in. Appending rows with
//!   growing keys copies the tail chunk and the tail leaf: O(rows
//!   appended), not O(rows stored).
//! * Operations that rewrite the heap — [`Table::delete_slots`],
//!   [`Table::cluster_by`], [`Table::add_column`],
//!   [`Table::alter_column_type`] — cost O(rows stored), shared or not.
//! * **A write** ([`Table::insert`], [`Table::replace_row`]) is validated
//!   in place: the row handed in is the row stored, with only the cells
//!   whose type differs from their column's coerced. Writing a row costs
//!   that one row's allocation (made by the caller) and no copy of it.
//!
//! Readers holding an older clone keep seeing exactly their rows and
//! index entries; this is what `orpheus-core` builds MVCC snapshot reads
//! on.

use std::sync::Arc;

use crate::error::{EngineError, Result};
use crate::index::{Index, IndexKey, Probe};
use crate::schema::Schema;
use crate::types::{Row, Value};

/// Rows per heap chunk: what one write after a clone copies at most, per
/// chunk it touches.
const CHUNK_ROWS: usize = 64;

/// The heap: rows in slot order, cut into `Arc`-shared chunks. Every chunk
/// but the last holds exactly [`CHUNK_ROWS`] rows and none is empty, so
/// slot `s` lives at `chunks[s / CHUNK_ROWS][s % CHUNK_ROWS]`.
#[derive(Debug, Clone, Default)]
struct Heap {
    chunks: Vec<Arc<Vec<Row>>>,
    len: usize,
}

impl Heap {
    fn get(&self, slot: usize) -> &Row {
        &self.chunks[slot / CHUNK_ROWS][slot % CHUNK_ROWS]
    }

    /// The row at `slot`, for writing: copies its chunk if shared.
    fn get_mut(&mut self, slot: usize) -> &mut Row {
        &mut Arc::make_mut(&mut self.chunks[slot / CHUNK_ROWS])[slot % CHUNK_ROWS]
    }

    fn push(&mut self, row: Row) {
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK_ROWS => Arc::make_mut(tail).push(row),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_ROWS);
                chunk.push(row);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    fn iter(&self) -> Rows<'_> {
        Rows {
            chunks: self.chunks.iter(),
            chunk: [].iter(),
            remaining: self.len,
        }
    }

    /// Every row, owned: moved out of chunks nobody else holds, cloned
    /// out of shared ones.
    fn into_rows(self) -> impl Iterator<Item = Row> {
        self.chunks.into_iter().flat_map(Arc::unwrap_or_clone)
    }

    /// Every chunk, for writing: copies the shared ones.
    fn chunks_mut(&mut self) -> impl Iterator<Item = &mut Vec<Row>> {
        self.chunks.iter_mut().map(Arc::make_mut)
    }
}

/// Iterator over a table's rows in slot order ([`Table::rows`]). It knows
/// its length, so collecting a scan reserves once, and it folds chunk by
/// chunk, so `for_each`-style consumers run at slice speed.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    chunks: std::slice::Iter<'a, Arc<Vec<Row>>>,
    chunk: std::slice::Iter<'a, Row>,
    remaining: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        loop {
            if let Some(row) = self.chunk.next() {
                self.remaining -= 1;
                return Some(row);
            }
            self.chunk = self.chunks.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    fn fold<B, F: FnMut(B, &'a Row) -> B>(self, init: B, mut f: F) -> B {
        let acc = self.chunk.fold(init, &mut f);
        self.chunks
            .fold(acc, |acc, chunk| chunk.iter().fold(acc, &mut f))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl FromIterator<Row> for Heap {
    fn from_iter<I: IntoIterator<Item = Row>>(rows: I) -> Heap {
        let mut heap = Heap::default();
        for row in rows {
            heap.push(row);
        }
        heap
    }
}

/// The shared, copy-on-write payload of a [`Table`]: heap and index
/// directories, clustering state, and byte accounting. Clones of a table
/// alias one `TableData` until a writer calls [`Table::data_mut`], which
/// copies the directories but none of the chunks behind them.
#[derive(Debug, Clone, Default)]
struct TableData {
    rows: Heap,
    indexes: Vec<Index>,
    clustered_on: Option<Vec<usize>>,
    row_bytes_total: usize,
}

impl TableData {
    fn rebuild_indexes(&mut self) {
        for idx in &mut self.indexes {
            idx.clear();
        }
        for (slot, row) in self.rows.iter().enumerate() {
            for idx in &mut self.indexes {
                let key = idx.key_of(row);
                // Uniqueness was validated on the way in; rebuild can't fail.
                let _ = idx.insert(key, slot);
            }
        }
    }

    fn recompute_bytes(&mut self) {
        self.row_bytes_total = self.rows.iter().map(row_bytes).sum();
    }
}

/// A heap table with schema, rows, and secondary indexes. Everything is
/// `Arc`-shared (see the module docs), so `Table::clone` is O(1) and
/// clones diverge chunk by chunk.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: Arc<str>,
    pub schema: Arc<Schema>,
    data: Arc<TableData>,
}

/// Name of the primary-key index [`Table::new`] creates.
fn pkey_name(table: &str) -> String {
    format!("{table}_pkey")
}

impl Table {
    /// Create an empty table. If the schema declares a primary key, a unique
    /// hash index named `<table>_pkey` is created automatically, mirroring
    /// the "physical primary key index" setup of Section 3.2.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        let name = name.into();
        let mut data = TableData::default();
        if !schema.primary_key.is_empty() {
            let cols = schema.primary_key.clone();
            data.indexes.push(Index::new(pkey_name(&name), cols, true));
        }
        Table {
            name: name.into(),
            schema: Arc::new(schema),
            data: Arc::new(data),
        }
    }

    /// Give the table a new name; the primary-key index follows it.
    pub fn rename(&mut self, new_name: &str) {
        let old_pkey = pkey_name(&self.name);
        if let Some(i) = self.data.indexes.iter().position(|i| i.name == old_pkey) {
            self.data_mut().indexes[i].name = pkey_name(new_name);
        }
        self.name = new_name.into();
    }

    /// The copy-on-write escape hatch every mutating method goes through:
    /// [`Arc::make_mut`] returns the unique payload, copying its
    /// directories first if a clone still aliases it. Borrowing only the
    /// `data` field keeps `self.name`/`self.schema` readable during a
    /// mutation.
    fn data_mut(&mut self) -> &mut TableData {
        Arc::make_mut(&mut self.data)
    }

    pub fn len(&self) -> usize {
        self.data.rows.len
    }

    pub fn is_empty(&self) -> bool {
        self.data.rows.len == 0
    }

    /// Every row, in slot order.
    pub fn rows(&self) -> Rows<'_> {
        self.data.rows.iter()
    }

    pub fn row(&self, slot: usize) -> &Row {
        self.data.rows.get(slot)
    }

    /// Column indices the heap is currently physically sorted by, if any.
    pub fn clustered_on(&self) -> Option<&[usize]> {
        self.data.clustered_on.as_deref()
    }

    /// True if the heap is clustered on exactly the given columns.
    pub fn is_clustered_on(&self, cols: &[usize]) -> bool {
        self.data.clustered_on.as_deref() == Some(cols)
    }

    /// Average row width in bytes (used by the page cost model).
    pub fn avg_row_bytes(&self) -> usize {
        if self.is_empty() {
            64
        } else {
            (self.data.row_bytes_total / self.len()).max(1)
        }
    }

    /// Total storage footprint: heap bytes plus all index bytes, matching
    /// the paper's convention of counting index size in storage numbers.
    pub fn storage_bytes(&self) -> usize {
        self.data.row_bytes_total
            + self
                .data
                .indexes
                .iter()
                .map(|i| i.storage_bytes())
                .sum::<usize>()
    }

    /// Heap-only storage footprint.
    pub fn heap_bytes(&self) -> usize {
        self.data.row_bytes_total
    }

    /// `row`'s key in every index, in index order — built once per write,
    /// for the uniqueness probe and the insert both.
    fn keys_of(&self, row: &Row) -> Vec<IndexKey> {
        self.data.indexes.iter().map(|i| i.key_of(row)).collect()
    }

    /// Refuse `keys` (from [`Table::keys_of`]) when one of them is already
    /// held, in a unique index, by a slot other than `own_slot`. Checked
    /// on all unique indexes before any is mutated.
    fn check_unique(&self, keys: &[IndexKey], own_slot: Option<usize>) -> Result<()> {
        for (idx, key) in self.data.indexes.iter().zip(keys) {
            if idx.unique && idx.lookup(key).iter().any(|&s| Some(s) != own_slot) {
                return Err(EngineError::UniqueViolation(format!(
                    "table {}: duplicate key {:?} for index {}",
                    self.name, key, idx.name
                )));
            }
        }
        Ok(())
    }

    /// Insert one row (validated and coerced against the schema, in place).
    pub fn insert(&mut self, row: Row) -> Result<()> {
        let row = self.schema.check_row(row)?;
        let keys = self.keys_of(&row);
        self.check_unique(&keys, None)?;
        let data = Arc::make_mut(&mut self.data);
        let slot = data.rows.len;
        for (idx, key) in data.indexes.iter_mut().zip(keys) {
            idx.insert(key, slot)?;
        }
        data.row_bytes_total += row_bytes(&row);
        data.rows.push(row);
        // Appends invalidate physical clustering unless the table is empty.
        if data.rows.len > 1 {
            data.clustered_on = None;
        }
        Ok(())
    }

    /// Bulk insert; stops at the first constraint violation.
    pub fn insert_many<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<usize> {
        let mut n = 0;
        for r in rows {
            self.insert(r)?;
            n += 1;
        }
        Ok(n)
    }

    /// Replace the row at `slot`, keeping indexes in sync.
    pub fn replace_row(&mut self, slot: usize, new_row: Row) -> Result<()> {
        let new_row = self.schema.check_row(new_row)?;
        // Uniqueness: the new key must not collide with a *different* slot.
        let new_keys = self.keys_of(&new_row);
        self.check_unique(&new_keys, Some(slot))?;
        let data = Arc::make_mut(&mut self.data);
        let old = std::mem::replace(data.rows.get_mut(slot), new_row);
        for (idx, new_key) in data.indexes.iter_mut().zip(new_keys) {
            let old_key = idx.key_of(&old);
            if old_key != new_key {
                idx.remove(&old_key, slot);
                idx.insert(new_key, slot)?;
            }
        }
        data.row_bytes_total =
            data.row_bytes_total + row_bytes(data.rows.get(slot)) - row_bytes(&old);
        Ok(())
    }

    /// Delete all rows at the given slots; compacts the heap and rebuilds
    /// indexes. Returns the number of rows removed.
    pub fn delete_slots(&mut self, mut slots: Vec<usize>) -> usize {
        if slots.is_empty() {
            return 0;
        }
        slots.sort_unstable();
        slots.dedup();
        let data = self.data_mut();
        let mut del_iter = slots.iter().peekable();
        data.rows = std::mem::take(&mut data.rows)
            .into_rows()
            .enumerate()
            .filter(|(i, _)| del_iter.next_if_eq(&i).is_none())
            .map(|(_, row)| row)
            .collect();
        data.rebuild_indexes();
        data.recompute_bytes();
        data.clustered_on = None;
        slots.len()
    }

    /// Remove every row, keeping schema and index definitions.
    pub fn truncate(&mut self) {
        let data = self.data_mut();
        data.rows = Heap::default();
        for idx in &mut data.indexes {
            idx.clear();
        }
        data.row_bytes_total = 0;
        data.clustered_on = None;
    }

    /// Create a secondary index over the named columns.
    pub fn create_index(
        &mut self,
        index_name: impl Into<String>,
        columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        let index_name = index_name.into();
        if self.data.indexes.iter().any(|i| i.name == index_name) {
            return Err(EngineError::Invalid(format!(
                "index {index_name} already exists on {}",
                self.name
            )));
        }
        let cols: Result<Vec<usize>> = columns
            .iter()
            .map(|c| self.schema.column_index(c))
            .collect();
        let mut idx = Index::new(index_name, cols?, unique);
        for (slot, row) in self.data.rows.iter().enumerate() {
            let key = idx.key_of(row);
            idx.insert(key, slot)?;
        }
        self.data_mut().indexes.push(idx);
        Ok(())
    }

    /// Find an index whose leading columns cover exactly `cols`.
    pub fn index_on(&self, cols: &[usize]) -> Option<&Index> {
        self.data.indexes.iter().find(|i| i.columns == cols)
    }

    /// Find an index by name.
    pub fn index_named(&self, name: &str) -> Option<&Index> {
        self.data.indexes.iter().find(|i| i.name == name)
    }

    pub fn indexes(&self) -> &[Index] {
        &self.data.indexes
    }

    /// Physically sort the heap by the given columns and rebuild indexes,
    /// mirroring PostgreSQL's `CLUSTER`. Lookups on the clustering key are
    /// then charged (mostly) sequential I/O by the cost model.
    pub fn cluster_by(&mut self, columns: &[&str]) -> Result<()> {
        let cols: Result<Vec<usize>> = columns
            .iter()
            .map(|c| self.schema.column_index(c))
            .collect();
        let cols = cols?;
        let data = self.data_mut();
        let mut rows: Vec<Row> = std::mem::take(&mut data.rows).into_rows().collect();
        rows.sort_by(|a, b| {
            for &c in &cols {
                let ord = a[c].total_cmp(&b[c]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        data.rows = rows.into_iter().collect();
        data.rebuild_indexes();
        data.clustered_on = Some(cols);
        Ok(())
    }

    /// Add a new nullable column (ALTER TABLE ... ADD COLUMN); existing
    /// rows get NULL, as in the schema-evolution scheme of Section 3.3.
    pub fn add_column(&mut self, col: crate::schema::Column) -> Result<()> {
        if self.schema.has_column(&col.name) {
            return Err(EngineError::Invalid(format!(
                "column {} already exists on {}",
                col.name, self.name
            )));
        }
        if !col.nullable {
            return Err(EngineError::Invalid(
                "added columns must be nullable (existing rows receive NULL)".into(),
            ));
        }
        Arc::make_mut(&mut self.schema).columns.push(col);
        let data = self.data_mut();
        for row in data.rows.chunks_mut().flatten() {
            row.push(Value::Null);
        }
        data.row_bytes_total += data.rows.len; // 1 byte per NULL
        Ok(())
    }

    /// Change a column to a more general type (int → double → text),
    /// converting stored values. Used by single-pool schema evolution.
    pub fn alter_column_type(
        &mut self,
        name: &str,
        new_type: crate::types::DataType,
    ) -> Result<()> {
        let ci = self.schema.column_index(name)?;
        let old = self.schema.columns[ci].dtype;
        if old == new_type {
            return Ok(());
        }
        if old.generalize(new_type) != Some(new_type) {
            return Err(EngineError::TypeMismatch(format!(
                "cannot narrow column {name} from {old} to {new_type}"
            )));
        }
        let data = Arc::make_mut(&mut self.data);
        for row in data.rows.chunks_mut().flatten() {
            row[ci] = row[ci].coerce_to(new_type)?;
        }
        Arc::make_mut(&mut self.schema).columns[ci].dtype = new_type;
        data.rebuild_indexes();
        data.recompute_bytes();
        Ok(())
    }

    /// Slots matching a key on the index covering `cols`, if one exists.
    pub fn index_lookup(&self, cols: &[usize], key: &[Value]) -> Option<&[usize]> {
        self.index_on(cols).map(|idx| idx.lookup(key))
    }

    /// Resolve many integer keys to heap slots in one call through the
    /// index covering `col` — the multi-key point-lookup that turns an
    /// rlist into row slots without going through SQL. Returns the matched
    /// `(key, slot)` pairs in key order (keys without a match are skipped,
    /// keys matching several slots emit one pair per slot), or `None` when
    /// no index covers `col`.
    pub fn resolve_int_keys(&self, col: usize, keys: &[i64]) -> Option<Vec<(i64, usize)>> {
        let idx = self.index_on(&[col])?;
        let mut out = Vec::with_capacity(keys.len());
        // One reusable key buffer and one remembered position: an rlist
        // is sorted and mostly runs of neighbouring rids, so the usual
        // lookup is one comparison with the entry after the previous one,
        // not an allocation or a directory walk.
        let mut key = [Value::Int(0)];
        let mut probe = Probe::default();
        for &k in keys {
            key[0] = Value::Int(k);
            for &slot in idx.lookup_near(&mut probe, &key) {
                out.push((k, slot));
            }
        }
        Some(out)
    }
}

fn row_bytes(row: &Row) -> usize {
    row.iter().map(|v| v.storage_bytes()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::types::DataType;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::new("rid", DataType::Int),
            Column::new("val", DataType::Text),
        ])
        .with_primary_key(&["rid"])
        .unwrap();
        Table::new("t", schema)
    }

    #[test]
    fn insert_and_pk_enforcement() {
        let mut t = table();
        t.insert(vec![Value::Int(1), "a".into()]).unwrap();
        t.insert(vec![Value::Int(2), "b".into()]).unwrap();
        let err = t.insert(vec![Value::Int(1), "dup".into()]).unwrap_err();
        assert!(matches!(err, EngineError::UniqueViolation(_)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pk_index_lookup() {
        let mut t = table();
        for i in 0..10 {
            t.insert(vec![Value::Int(i), format!("v{i}").into()])
                .unwrap();
        }
        let slots = t.index_lookup(&[0], &[Value::Int(7)]).unwrap();
        assert_eq!(slots, &[7]);
        assert_eq!(t.row(slots[0])[1], Value::Text("v7".into()));
    }

    #[test]
    fn replace_row_keeps_indexes_consistent() {
        let mut t = table();
        t.insert(vec![Value::Int(1), "a".into()]).unwrap();
        t.insert(vec![Value::Int(2), "b".into()]).unwrap();
        t.replace_row(0, vec![Value::Int(10), "a2".into()]).unwrap();
        assert!(t.index_lookup(&[0], &[Value::Int(1)]).unwrap().is_empty());
        assert_eq!(t.index_lookup(&[0], &[Value::Int(10)]).unwrap(), &[0]);
        // Replacing with an existing other key is rejected.
        let err = t
            .replace_row(0, vec![Value::Int(2), "x".into()])
            .unwrap_err();
        assert!(matches!(err, EngineError::UniqueViolation(_)));
        // Replacing a row with its own key is fine (no-op key change).
        t.replace_row(1, vec![Value::Int(2), "b2".into()]).unwrap();
    }

    #[test]
    fn an_insert_stores_the_row_it_is_handed() {
        let mut t = table();
        let text = String::from("kept in place");
        let buffer = text.as_ptr();
        let row = vec![Value::Int(1), Value::Text(text)];
        let cells = row.as_ptr();
        t.insert(row).unwrap();
        // Neither the row nor its text cell was copied by the write check.
        assert_eq!(t.row(0).as_ptr(), cells);
        let Value::Text(stored) = &t.row(0)[1] else {
            panic!("a text cell")
        };
        assert_eq!(stored.as_ptr(), buffer);
    }

    #[test]
    fn replace_row_still_coerces_and_refuses() {
        let schema = Schema::new(vec![
            Column::new("rid", DataType::Int).not_null(),
            Column::new("score", DataType::Double),
            Column::new("label", DataType::Text),
        ])
        .with_primary_key(&["rid"])
        .unwrap();
        let mut t = Table::new("t", schema);
        t.insert(vec![Value::Int(1), Value::Int(2), Value::Bool(true)])
            .unwrap();
        assert_eq!(
            format!("{:?}", t.row(0)),
            "[Int(1), Double(2.0), Text(\"true\")]"
        );
        t.replace_row(
            0,
            vec![Value::Double(1.0), Value::Int(5), Value::Double(0.5)],
        )
        .unwrap();
        assert_eq!(
            format!("{:?}", t.row(0)),
            "[Int(1), Double(5.0), Text(\"0.5\")]"
        );
        assert_eq!(t.index_lookup(&[0], &[Value::Int(1)]).unwrap(), &[0]);
        // A refused write leaves the row as it was.
        for bad in [
            vec![Value::Null, Value::Int(5), Value::Null],
            vec![Value::Int(1), Value::Int(5)],
            vec![Value::Int(1), "x".into(), Value::Null],
        ] {
            assert!(t.replace_row(0, bad).is_err());
        }
        assert_eq!(
            format!("{:?}", t.row(0)),
            "[Int(1), Double(5.0), Text(\"0.5\")]"
        );
    }

    #[test]
    fn delete_slots_compacts_and_rebuilds() {
        let mut t = table();
        for i in 0..5 {
            t.insert(vec![Value::Int(i), format!("v{i}").into()])
                .unwrap();
        }
        let n = t.delete_slots(vec![1, 3]);
        assert_eq!(n, 2);
        assert_eq!(t.len(), 3);
        // Remaining keys still resolvable post-compaction.
        for k in [0i64, 2, 4] {
            let slots = t.index_lookup(&[0], &[Value::Int(k)]).unwrap();
            assert_eq!(slots.len(), 1);
            assert_eq!(t.row(slots[0])[0], Value::Int(k));
        }
        assert!(t.index_lookup(&[0], &[Value::Int(1)]).unwrap().is_empty());
    }

    #[test]
    fn clustering_orders_heap_and_is_invalidated_by_insert() {
        let mut t = table();
        for i in [5i64, 1, 3, 2, 4] {
            t.insert(vec![Value::Int(i), "x".into()]).unwrap();
        }
        assert!(t.clustered_on().is_none());
        t.cluster_by(&["rid"]).unwrap();
        assert!(t.is_clustered_on(&[0]));
        let keys: Vec<i64> = t.rows().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        t.insert(vec![Value::Int(0), "x".into()]).unwrap();
        assert!(t.clustered_on().is_none());
    }

    #[test]
    fn add_column_fills_nulls() {
        let mut t = table();
        t.insert(vec![Value::Int(1), "a".into()]).unwrap();
        t.add_column(Column::new("extra", DataType::Int)).unwrap();
        assert_eq!(t.schema.arity(), 3);
        assert!(t.row(0)[2].is_null());
        assert!(t.add_column(Column::new("extra", DataType::Int)).is_err());
    }

    #[test]
    fn alter_column_type_generalizes() {
        let mut t = table();
        t.insert(vec![Value::Int(1), "a".into()]).unwrap();
        t.alter_column_type("rid", DataType::Double).unwrap();
        assert_eq!(t.row(0)[0], Value::Double(1.0));
        assert!(t.alter_column_type("rid", DataType::Int).is_err());
    }

    #[test]
    fn storage_accounting_tracks_mutations() {
        let mut t = table();
        assert_eq!(t.heap_bytes(), 0);
        t.insert(vec![Value::Int(1), "abcd".into()]).unwrap();
        let b1 = t.heap_bytes();
        assert_eq!(b1, 8 + 4 + 4);
        t.insert(vec![Value::Int(2), "ef".into()]).unwrap();
        let b2 = t.heap_bytes();
        t.delete_slots(vec![1]);
        assert_eq!(t.heap_bytes(), b1);
        assert!(b2 > b1);
        assert!(t.storage_bytes() > t.heap_bytes());
    }

    #[test]
    fn resolve_int_keys_batches_point_lookups() {
        let mut t = table();
        for i in 0..6 {
            t.insert(vec![Value::Int(i * 10), format!("v{i}").into()])
                .unwrap();
        }
        // Matches come back in key order; misses are skipped.
        let pairs = t.resolve_int_keys(0, &[50, 7, 10, 30]).unwrap();
        assert_eq!(pairs, vec![(50, 5), (10, 1), (30, 3)]);
        for (k, slot) in pairs {
            assert_eq!(t.row(slot)[0], Value::Int(k));
        }
        // No index on the value column → None, not a scan.
        assert!(t.resolve_int_keys(1, &[1]).is_none());
        assert_eq!(t.resolve_int_keys(0, &[]).unwrap(), vec![]);
    }

    #[test]
    fn secondary_index_creation_backfills() {
        let mut t = table();
        for i in 0..4 {
            t.insert(vec![Value::Int(i), Value::Text(format!("g{}", i % 2))])
                .unwrap();
        }
        t.create_index("t_val", &["val"], false).unwrap();
        let idx = t.index_named("t_val").unwrap();
        assert_eq!(idx.lookup(&["g0".into()]).len(), 2);
        assert!(t.create_index("t_val", &["val"], false).is_err());
    }

    /// `n` rows `(i, "v{i}")` with ascending rids.
    fn filled(n: usize) -> Table {
        let mut t = table();
        for i in 0..n as i64 {
            t.insert(vec![Value::Int(i), format!("v{i}").into()])
                .unwrap();
        }
        t
    }

    /// `(heap chunks, index leaves)` that `a` still shares with `b`, and
    /// the same pair counted over all of `a`.
    fn shared(a: &Table, b: &Table) -> ((usize, usize), (usize, usize)) {
        let heap = a
            .data
            .rows
            .chunks
            .iter()
            .filter(|c| b.data.rows.chunks.iter().any(|o| Arc::ptr_eq(c, o)))
            .count();
        let (leaves, all_leaves) = a.data.indexes[0].shared_leaves(&b.data.indexes[0]);
        ((heap, leaves), (a.data.rows.chunks.len(), all_leaves))
    }

    #[test]
    fn a_clone_shares_every_chunk_and_appends_copy_only_the_tail() {
        // Ten full heap chunks plus a partial tail.
        let n = 10 * CHUNK_ROWS + 5;
        let mut t = filled(n);
        let snapshot = t.clone();
        let (held, all) = shared(&t, &snapshot);
        assert_eq!(held, all, "a clone copies nothing");
        assert_eq!(all.0, 11);
        assert!(all.1 > 2, "the test needs several index leaves");

        // Reads never copy; the row iterator knows its length whether it
        // is stepped or folded.
        let mut rows = snapshot.rows();
        rows.next();
        assert_eq!(rows.len(), n - 1);
        assert_eq!(rows.fold(0, |seen, _| seen + 1), n - 1);
        let _ = snapshot.storage_bytes();
        assert_eq!(shared(&t, &snapshot).0, all);

        // Appending rows with growing keys copies the tail heap chunk and
        // the tail index leaf; everything before them stays shared.
        for i in 0..3 {
            t.insert(vec![Value::Int((n + i) as i64), "new".into()])
                .unwrap();
        }
        let (held, now) = shared(&t, &snapshot);
        assert_eq!(now, all, "three rows fit the tail chunk and leaf");
        assert_eq!(held, (all.0 - 1, all.1 - 1));

        // The snapshot is untouched, the writer sees its rows.
        assert_eq!(snapshot.len(), n);
        assert_eq!(t.len(), n + 3);
        let fresh = [Value::Int(n as i64)];
        assert_eq!(snapshot.index_lookup(&[0], &fresh), Some(&[][..]));
        assert_eq!(t.index_lookup(&[0], &fresh), Some(&[n][..]));

        // An in-place update copies the one chunk it lands in.
        let before = shared(&t, &snapshot).0;
        t.replace_row(
            CHUNK_ROWS + 1,
            vec![Value::Int(CHUNK_ROWS as i64 + 1), "x".into()],
        )
        .unwrap();
        assert_eq!(shared(&t, &snapshot).0, (before.0 - 1, before.1));
    }

    #[test]
    fn a_clone_keeps_its_rows_and_lookups_through_every_write() {
        let n = 3 * CHUNK_ROWS + 7;
        type Write = fn(&mut Table);
        let writes: [(&str, Write); 8] = [
            ("insert", |t| {
                t.insert(vec![Value::Int(-1), "low".into()]).unwrap();
            }),
            ("replace_row", |t| {
                t.replace_row(70, vec![Value::Int(9_000), "moved".into()])
                    .unwrap()
            }),
            ("delete_slots", |t| {
                t.delete_slots(vec![0, 64, 65, 198]);
            }),
            ("cluster_by", |t| t.cluster_by(&["val"]).unwrap()),
            ("truncate", |t| t.truncate()),
            ("create_index", |t| {
                t.create_index("t_val", &["val"], false).unwrap()
            }),
            ("add_column", |t| {
                t.add_column(Column::new("extra", DataType::Int)).unwrap()
            }),
            ("alter_column_type", |t| {
                t.alter_column_type("rid", DataType::Double).unwrap()
            }),
        ];
        for (name, write) in writes {
            let mut t = filled(n);
            let snapshot = t.clone();
            let expected: Vec<Row> = snapshot.rows().cloned().collect();
            let bytes = snapshot.storage_bytes();
            write(&mut t);
            assert_eq!(snapshot.len(), n, "{name}");
            assert_eq!(snapshot.schema.arity(), 2, "{name}");
            assert!(snapshot.rows().eq(&expected), "{name}");
            assert_eq!(snapshot.storage_bytes(), bytes, "{name}");
            assert_eq!(snapshot.indexes().len(), 1, "{name}");
            for (slot, row) in expected.iter().enumerate() {
                assert_eq!(snapshot.row(slot), row, "{name}");
                assert_eq!(
                    snapshot.index_lookup(&[0], &row[..1]),
                    Some(&[slot][..]),
                    "{name}"
                );
            }
            // The writer's own indexes agree with its own heap.
            for (slot, row) in t.rows().enumerate() {
                assert_eq!(t.index_lookup(&[0], &row[..1]), Some(&[slot][..]), "{name}");
            }
        }
    }

    #[test]
    fn rename_takes_the_primary_key_index_along() {
        let mut t = filled(3);
        let snapshot = t.clone();
        t.rename("u");
        assert_eq!(&*t.name, "u");
        assert!(t.index_named("u_pkey").is_some());
        assert!(t.index_named("t_pkey").is_none());
        assert!(snapshot.index_named("t_pkey").is_some());
    }
}

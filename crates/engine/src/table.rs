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
//! The heap is a directory of **chunks** of up to 64 rows, each one flat,
//! row-major buffer of [`Value`] cells behind its own [`Arc`]: slot `s` is
//! the `width` cells at `(s % 64) * width` of chunk `s / 64`, and
//! [`Table::row`] hands out that slice. A fresh chunk reserves room for
//! all 64 rows, so storing rows costs one allocation per 64 of them, not
//! one per row. Every index is a directory of `Arc`-shared leaves (see
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
//! * **A row write** ([`Table::insert`], [`Table::replace_row`]) takes its
//!   row owned or borrowed and checks that row where its cells lie: only
//!   cells whose type differs from their column's are coerced (a borrowed
//!   row that needs one is copied first). An owned row's cells are moved
//!   into the chunk; a borrowed row's are cloned into it, so copying a row
//!   from one table to another allocates nothing per row when its cells
//!   own no heap memory.
//! * **A copy between tables** ([`Table::copy_rows`]) checks once per
//!   call, not per row: when the two schemas prove every source row is
//!   already a valid row of the target (same column types, no NULL where
//!   the target forbids one, no index on the target), the cells are cloned
//!   into the heap a chunk at a time. Otherwise it is a row write per row.
//! * **A run of key lookups** ([`Table::lookup_keys`],
//!   [`Table::resolve_int_keys`]) is a positional walk: on a unique integer
//!   key it tries the slot the previous match predicts, then searches the
//!   slots between the previous match and that one, and probes the index
//!   only when neither holds the key.
//! * Operations that rewrite the heap work chunk by chunk and never build
//!   the rows as vectors: [`Table::delete_slots`] moves the cells after
//!   the first deleted slot down (the chunks before it stay shared),
//!   [`Table::add_column`] rebuilds each chunk one cell wider,
//!   [`Table::alter_column_type`] converts the column's cells where they
//!   lie, and [`Table::cluster_by`] moves the cells into sorted order.
//!   Each costs O(rows stored), shared or not.
//! * **An overlay** ([`Table::select`]) is a table whose rows are another
//!   table's rows at chosen slots, cut to a prefix of their columns — the
//!   shape `SELECT … INTO` gives, without a cell copied — plus a tail heap
//!   of rows it wrote itself. Taking one costs one reference-count bump on
//!   the source's payload and the row list, O(rows selected) integers
//!   whatever the rows' width. Its rows are read through the row list, and
//!   its byte count is summed on first ask. Its writes copy only what they
//!   write: [`Table::insert`] and [`Table::copy_rows`] append to the tail,
//!   [`Table::replace_row`] of a source row puts a tail row at its place
//!   (so the rows keep their order), [`Table::delete_slots`] drops entries
//!   of the row list, [`Table::truncate`] starts an empty table, and
//!   [`Table::add_column`] widens the tail, the source rows reading NULL
//!   past their cells. Until the next write, a read of an overlay so
//!   widened pads its rows into a stored copy once, because a row is
//!   handed out as one slice of the table's width. The rarer writes
//!   (indexes, clustering, type changes) store the rows as the table's own
//!   first — one chunk-at-a-time copy, what [`Table::copy_rows`] of them
//!   into an empty table costs — and then write as above.
//!   [`Table::overlay_rows`] tells the source rows still unwritten from
//!   the tail's, so a commit keeps the former by identity. A live overlay
//!   pins the source payload it was taken from, as a clone does: writes to
//!   the source copy what they touch and leave the overlay's rows as they
//!   were. Dropping an overlay frees its row list and tail.
//!
//! Readers holding an older clone keep seeing exactly their rows and
//! index entries; this is what `orpheus-core` builds MVCC snapshot reads
//! on.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

use crate::error::{EngineError, Result};
use crate::index::{Index, IndexKey, Probe};
use crate::schema::{Column, Schema};
use crate::types::Value;

/// Rows per heap chunk: what one write after a clone copies at most, per
/// chunk it touches, and what one allocation of cells holds.
const CHUNK_ROWS: usize = 64;

/// The heap: rows of `width` cells in slot order, cut into `Arc`-shared
/// chunks. Every chunk but the last holds exactly [`CHUNK_ROWS`] rows and
/// none is empty, so slot `s` is the `width` cells starting at
/// `(s % CHUNK_ROWS) * width` of `chunks[s / CHUNK_ROWS]`. The row count
/// is kept apart from the cells, so a table without columns still counts
/// its rows.
#[derive(Debug, Clone, Default)]
struct Heap {
    chunks: Vec<Arc<Vec<Value>>>,
    width: usize,
    len: usize,
}

impl Heap {
    fn new(width: usize) -> Heap {
        Heap {
            chunks: Vec::new(),
            width,
            len: 0,
        }
    }

    fn get(&self, slot: usize) -> &[Value] {
        debug_assert!(slot < self.len, "slot {slot} of {}", self.len);
        let at = slot % CHUNK_ROWS * self.width;
        &self.chunks[slot / CHUNK_ROWS][at..at + self.width]
    }

    /// The row at `slot`, for writing: copies its chunk if shared.
    fn get_mut(&mut self, slot: usize) -> &mut [Value] {
        debug_assert!(slot < self.len, "slot {slot} of {}", self.len);
        let at = slot % CHUNK_ROWS * self.width;
        &mut Arc::make_mut(&mut self.chunks[slot / CHUNK_ROWS])[at..at + self.width]
    }

    /// Append one row whose `width` cells `fill` writes onto the tail
    /// chunk. A new chunk is allocated with room for [`CHUNK_ROWS`] rows;
    /// a tail shared with a clone is copied, and then given that room.
    fn push_with(&mut self, fill: impl FnOnce(&mut Vec<Value>)) {
        let room = CHUNK_ROWS * self.width;
        if self.len == self.chunks.len() * CHUNK_ROWS {
            self.chunks.push(Arc::new(Vec::with_capacity(room)));
        }
        let last = self.chunks.len() - 1;
        let tail = Arc::make_mut(&mut self.chunks[last]);
        tail.reserve_exact(room - tail.len());
        fill(tail);
        self.len += 1;
        debug_assert_eq!(tail.len(), (self.len - last * CHUNK_ROWS) * self.width);
    }

    /// Append a checked row: an owned row's cells are moved in, a borrowed
    /// row's cloned.
    fn push(&mut self, row: Cow<'_, [Value]>) {
        self.push_with(|tail| match row {
            Cow::Borrowed(cells) => tail.extend_from_slice(cells),
            Cow::Owned(cells) => tail.extend(cells),
        });
    }

    /// Append checked rows, each `cells` followed by `pad` NULLs to make
    /// `width` cells, cloned into the tail chunk and then into fresh ones:
    /// one copy-on-write check and one reservation per chunk filled, not
    /// per row.
    fn extend<'a>(&mut self, rows: impl Iterator<Item = (&'a [Value], usize)>) {
        let room = CHUNK_ROWS * self.width;
        let mut rows = rows.peekable();
        while rows.peek().is_some() {
            if self.len == self.chunks.len() * CHUNK_ROWS {
                self.chunks.push(Arc::new(Vec::with_capacity(room)));
            }
            let free = self.chunks.len() * CHUNK_ROWS - self.len;
            let tail = Arc::make_mut(self.chunks.last_mut().expect("a tail chunk"));
            tail.reserve_exact(room - tail.len());
            for (cells, pad) in rows.by_ref().take(free) {
                debug_assert_eq!(cells.len() + pad, self.width);
                tail.extend_from_slice(cells);
                tail.extend(std::iter::repeat_n(Value::Null, pad));
                self.len += 1;
            }
        }
    }

    fn iter(&self) -> Rows<'_> {
        Rows {
            heap: self,
            overlay: None,
            width: self.width,
            next: 0,
            end: self.len,
        }
    }

    /// The cells of the chunks from `first` on, owned — moved out of chunks
    /// nobody else holds, cloned out of shared ones. The heap keeps only
    /// the chunks before `first`.
    fn split_off(&mut self, first: usize) -> Vec<Vec<Value>> {
        self.len = self.len.min(first * CHUNK_ROWS);
        self.chunks
            .split_off(first)
            .into_iter()
            .map(Arc::unwrap_or_clone)
            .collect()
    }

    /// Remove the rows at `doomed` (ascending, distinct), moving the cells
    /// of every later row down. The chunks before the first removed slot
    /// are not touched, so they stay shared with any clone.
    fn remove(&mut self, doomed: &[usize]) {
        let Some(&first) = doomed.first() else {
            return;
        };
        let (width, len, start) = (self.width, self.len, first / CHUNK_ROWS);
        let mut doomed = doomed.iter().peekable();
        for (i, cells) in self.split_off(start).into_iter().enumerate() {
            let from = (start + i) * CHUNK_ROWS;
            let mut cells = cells.into_iter();
            for slot in from..len.min(from + CHUNK_ROWS) {
                let row = cells.by_ref().take(width);
                if doomed.next_if_eq(&&slot).is_some() {
                    row.for_each(drop);
                } else {
                    self.push_with(|tail| tail.extend(row));
                }
            }
        }
    }

    /// Reorder the rows so that slot `i` holds the row that was at
    /// `order[i]`; `order` is a permutation of the slots. Cells are moved,
    /// not cloned, out of chunks nobody else holds.
    fn permute(&mut self, order: &[usize]) {
        let width = self.width;
        let mut old = self.split_off(0);
        for &slot in order {
            let at = slot % CHUNK_ROWS * width;
            let row = &mut old[slot / CHUNK_ROWS][at..at + width];
            self.push_with(|tail| {
                tail.extend(row.iter_mut().map(|v| std::mem::replace(v, Value::Null)))
            });
        }
    }

    /// Give every row one more cell, `Value::Null`, at the end: each
    /// chunk is rebuilt one cell per row wider, with room for a full
    /// chunk. A chunk nobody else holds gives up its cells; a shared one
    /// is read in place, so each cell is copied once either way.
    fn widen(&mut self) {
        let width = self.width;
        self.width += 1;
        let mut left = self.len;
        for chunk in &mut self.chunks {
            let rows = left.min(CHUNK_ROWS);
            left -= rows;
            let mut buf = Vec::with_capacity(CHUNK_ROWS * (width + 1));
            match Arc::get_mut(chunk) {
                Some(cells) => {
                    let mut old = std::mem::take(cells).into_iter();
                    for _ in 0..rows {
                        buf.extend(old.by_ref().take(width));
                        buf.push(Value::Null);
                    }
                    *cells = buf;
                }
                None => {
                    for row in 0..rows {
                        buf.extend_from_slice(&chunk[row * width..(row + 1) * width]);
                        buf.push(Value::Null);
                    }
                    *chunk = Arc::new(buf);
                }
            }
        }
    }
}

/// Iterator over a table's rows in slot order ([`Table::rows`]), each a
/// slice of its chunk. It knows its length, so collecting a scan reserves
/// once, and it folds chunk by chunk, so `for_each`-style consumers run at
/// slice speed. An overlay's rows are read through its row list: a source
/// row cut to the overlay's source width, or a row of its tail.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    heap: &'a Heap,
    /// An overlay's row list and tail; `None` reads the heap's slots in
    /// order.
    overlay: Option<(&'a [usize], &'a Heap)>,
    /// Cells per row handed out, a prefix of the heap's rows.
    width: usize,
    next: usize,
    end: usize,
}

impl<'a> Rows<'a> {
    fn get(&self, i: usize) -> &'a [Value] {
        match self.overlay {
            None => self.heap.get(i),
            Some((rows, tail)) => match rows[i] {
                held if held & TAIL != 0 => tail.get(held & !TAIL),
                slot => &self.heap.get(slot)[..self.width],
            },
        }
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        if self.next == self.end {
            return None;
        }
        self.next += 1;
        Some(self.get(self.next - 1))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }

    fn fold<B, F: FnMut(B, &'a [Value]) -> B>(self, init: B, mut f: F) -> B {
        if self.overlay.is_some() {
            return (self.next..self.end).fold(init, |acc, i| f(acc, self.get(i)));
        }
        let (heap, width) = (self.heap, self.width);
        let (mut acc, mut slot) = (init, self.next);
        while slot < self.end {
            let first = slot % CHUNK_ROWS;
            let rows = (CHUNK_ROWS - first).min(self.end - slot);
            let cells = &heap.chunks[slot / CHUNK_ROWS][first * width..(first + rows) * width];
            acc = match width {
                0 => (0..rows).fold(acc, |acc, _| f(acc, &[])),
                _ => cells.chunks_exact(width).fold(acc, &mut f),
            };
            slot += rows;
        }
        acc
    }
}

impl ExactSizeIterator for Rows<'_> {}

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
    /// Re-enter every row into every index. Fails on a key a unique index
    /// already holds, which a rewrite that changed key values can cause.
    fn rebuild_indexes(&mut self) -> Result<()> {
        for idx in &mut self.indexes {
            idx.clear();
        }
        for (slot, row) in self.rows.iter().enumerate() {
            for idx in &mut self.indexes {
                idx.insert(idx.key_of(row), slot)?;
            }
        }
        Ok(())
    }

    fn recompute_bytes(&mut self) {
        self.row_bytes_total = self.rows.iter().map(row_bytes).sum();
    }
}

/// Tags an entry of an overlay's row list as a tail row: `TAIL | k` is row
/// `k` of the tail, any other entry a slot of the source.
const TAIL: usize = 1 << (usize::BITS - 1);

/// The rows of an overlay ([`Table::select`]): rows of the source's
/// payload, shared and cut to a prefix of their columns, plus a tail heap
/// of rows the overlay wrote itself, in the order the row list gives.
#[derive(Debug, Clone)]
struct Overlay {
    source: Arc<TableData>,
    /// Each row in order: a source slot, or `TAIL | k` for tail row `k`.
    /// Every tail row is named exactly once.
    rows: Vec<usize>,
    /// Cells of a source row a row shows: a prefix of the source's columns.
    base_width: usize,
    /// The rows written here, inserted or updated, at the table's width.
    tail: Heap,
    tail_bytes: usize,
    /// The source rows' bytes, cut to `base_width`, summed on first ask.
    base_bytes: OnceLock<usize>,
    /// Once `ADD COLUMN` made the table wider than `base_width`, a read
    /// must hand out rows of the table's width: the rows, NULL-padded and
    /// stored, built on the first read. Every write discards it.
    padded: OnceLock<TableData>,
}

impl Overlay {
    fn new(source: Arc<TableData>, rows: Vec<usize>, width: usize) -> Overlay {
        debug_assert!(width <= source.rows.width);
        debug_assert!(rows.iter().all(|&slot| slot < source.rows.len));
        Overlay {
            source,
            rows,
            base_width: width,
            tail: Heap::new(width),
            tail_bytes: 0,
            base_bytes: OnceLock::new(),
            padded: OnceLock::new(),
        }
    }

    fn width(&self) -> usize {
        self.tail.width
    }

    /// Rows read from the source: those not in the tail.
    fn source_rows(&self) -> usize {
        self.rows.len() - self.tail.len
    }

    fn held(&self, i: usize) -> Held<'_> {
        match self.rows[i] {
            held if held & TAIL != 0 => Held::Tail(self.tail.get(held & !TAIL)),
            slot => Held::Source(&self.source.rows.get(slot)[..self.base_width]),
        }
    }

    /// The rows stored as a table's own, NULL-padded to the table's width:
    /// what copying them into an empty table without indexes leaves.
    fn store(&self) -> TableData {
        if let Some(padded) = self.padded.get() {
            return padded.clone();
        }
        let mut data = TableData {
            rows: Heap::new(self.width()),
            row_bytes_total: self.bytes(),
            ..TableData::default()
        };
        let pad = self.width() - self.base_width;
        data.rows
            .extend((0..self.rows.len()).map(|i| match self.held(i) {
                Held::Source(cells) => (cells, pad),
                Held::Tail(cells) => (cells, 0),
            }));
        data
    }

    /// The stored rows a read hands out when the table is wider than its
    /// source rows, `None` when the rows are read in place.
    fn padded(&self) -> Option<&TableData> {
        (self.width() > self.base_width).then(|| self.padded.get_or_init(|| self.store()))
    }

    fn row(&self, i: usize) -> &[Value] {
        match self.padded() {
            Some(data) => data.rows.get(i),
            None => self.held(i).cells(),
        }
    }

    fn rows(&self) -> Rows<'_> {
        match self.padded() {
            Some(data) => data.rows.iter(),
            None => Rows {
                heap: &self.source.rows,
                overlay: Some((&self.rows, &self.tail)),
                width: self.base_width,
                next: 0,
                end: self.rows.len(),
            },
        }
    }

    /// Heap bytes: the source rows' cells, a NULL for each column added
    /// since, and the tail's cells.
    fn bytes(&self) -> usize {
        let base = *self.base_bytes.get_or_init(|| {
            (self.rows.iter().filter(|&&held| held & TAIL == 0))
                .map(|&slot| row_bytes(&self.source.rows.get(slot)[..self.base_width]))
                .sum()
        });
        base + self.source_rows() * self.null_bytes() + self.tail_bytes
    }

    /// The bytes of the NULLs a source row reads past `base_width`.
    fn null_bytes(&self) -> usize {
        (self.width() - self.base_width) * Value::Null.storage_bytes()
    }

    /// Account for source row `slot` leaving the table.
    fn forget(&mut self, slot: usize) {
        if let Some(bytes) = self.base_bytes.get_mut() {
            *bytes -= row_bytes(&self.source.rows.get(slot)[..self.base_width]);
        }
    }

    /// Append checked rows to the tail.
    fn extend<'r>(&mut self, rows: impl Iterator<Item = Cow<'r, [Value]>>) {
        self.padded = OnceLock::new();
        for row in rows {
            self.tail_bytes += row_bytes(&row);
            self.rows.push(TAIL | self.tail.len);
            self.tail.push(row);
        }
    }

    /// Replace row `i` with a checked row: a tail row is overwritten, a
    /// source row is replaced by a new tail row at its place.
    fn replace(&mut self, i: usize, row: Cow<'_, [Value]>) {
        self.padded = OnceLock::new();
        self.tail_bytes += row_bytes(&row);
        match self.rows[i] {
            held if held & TAIL != 0 => {
                let cells = self.tail.get_mut(held & !TAIL);
                self.tail_bytes -= row_bytes(cells);
                overwrite(cells, row);
            }
            slot => {
                self.forget(slot);
                self.rows[i] = TAIL | self.tail.len;
                self.tail.push(row);
            }
        }
    }

    /// Drop the rows at `doomed` (ascending, distinct; positions past the
    /// end are ignored). Tail rows are removed from the tail, and the
    /// tail rows after them renumbered.
    fn remove(&mut self, doomed: &[usize]) {
        self.padded = OnceLock::new();
        let mut doomed = doomed.iter().peekable();
        let (mut i, mut dead) = (0, Vec::new());
        let mut rows = std::mem::take(&mut self.rows);
        rows.retain(|&held| {
            i += 1;
            if doomed.next_if_eq(&&(i - 1)).is_none() {
                return true;
            }
            match held {
                held if held & TAIL != 0 => dead.push(held & !TAIL),
                slot => self.forget(slot),
            }
            false
        });
        if !dead.is_empty() {
            dead.sort_unstable();
            self.tail_bytes -= dead
                .iter()
                .map(|&k| row_bytes(self.tail.get(k)))
                .sum::<usize>();
            self.tail.remove(&dead);
            for held in rows.iter_mut().filter(|held| **held & TAIL != 0) {
                *held -= dead.partition_point(|&k| k < *held & !TAIL);
            }
        }
        self.rows = rows;
    }

    /// `ADD COLUMN`: the tail gains a NULL cell per row; the source rows
    /// read NULL past `base_width`.
    fn widen(&mut self) {
        self.padded = OnceLock::new();
        self.tail.widen();
        self.tail_bytes += self.tail.len * Value::Null.storage_bytes();
    }
}

/// A row of an overlay as the overlay holds it ([`Table::overlay_rows`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Held<'a> {
    /// A source row the overlay has not written: its cells as the source
    /// holds them, cut to the width the overlay was selected at. A table
    /// widened since reads NULL past them.
    Source(&'a [Value]),
    /// A row the overlay wrote (inserted, or updated from a source row),
    /// at the table's width.
    Tail(&'a [Value]),
}

impl<'a> Held<'a> {
    pub fn cells(self) -> &'a [Value] {
        match self {
            Held::Source(cells) | Held::Tail(cells) => cells,
        }
    }
}

/// What a table's rows are: its own payload, or an overlay over another
/// table's. Either is one `Arc`, so a clone of a table is O(1) both ways.
#[derive(Debug, Clone)]
enum Content {
    Stored(Arc<TableData>),
    Overlay(Arc<Overlay>),
}

impl Content {
    /// The copy-on-write escape hatch every write an overlay does not take
    /// goes through: an overlay first stores its rows as its own, then
    /// [`Arc::make_mut`] returns the unique payload, copying its
    /// directories first if a clone still aliases it. A method on the
    /// field, not the table, so `name`/`schema` stay readable during a
    /// mutation.
    fn make_mut(&mut self) -> &mut TableData {
        if let Content::Overlay(overlay) = self {
            *self = Content::Stored(Arc::new(overlay.store()));
        }
        match self {
            Content::Stored(data) => Arc::make_mut(data),
            Content::Overlay(_) => unreachable!("an overlay was stored above"),
        }
    }
}

/// Write a checked row over `cells`: an owned row's cells are moved in, a
/// borrowed row's cloned.
fn overwrite(cells: &mut [Value], row: Cow<'_, [Value]>) {
    match row {
        Cow::Borrowed(row) => cells.clone_from_slice(row),
        Cow::Owned(row) => {
            for (cell, v) in cells.iter_mut().zip(row) {
                *cell = v;
            }
        }
    }
}

/// A heap table with schema, rows, and secondary indexes. Everything is
/// `Arc`-shared (see the module docs), so `Table::clone` is O(1) and
/// clones diverge chunk by chunk.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: Arc<str>,
    pub schema: Arc<Schema>,
    content: Content,
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
        let mut data = TableData {
            rows: Heap::new(schema.arity()),
            ..TableData::default()
        };
        if !schema.primary_key.is_empty() {
            let cols = schema.primary_key.clone();
            data.indexes.push(Index::new(pkey_name(&name), cols, true));
        }
        Table {
            name: name.into(),
            schema: Arc::new(schema),
            content: Content::Stored(Arc::new(data)),
        }
    }

    /// A new table named `name` holding the rows of this one at `slots`, in
    /// that order, each cut to its first `width` columns, in the shape
    /// `SELECT <those columns> INTO name` gives: the columns' types, every
    /// column nullable, no key and no index. No cell is copied: the new
    /// table is an overlay over this one's payload, which it shares as a
    /// clone does (see the module docs). Taking it costs O(`slots`)
    /// integers and the schema. `width` must not exceed this table's
    /// column count, nor a slot its row count.
    pub fn select(&self, name: impl Into<String>, width: usize, slots: Vec<usize>) -> Table {
        let columns = self.schema.columns[..width]
            .iter()
            .map(|c| Column {
                nullable: true,
                ..c.clone()
            })
            .collect();
        let (source, slots) = match &self.content {
            Content::Stored(data) => (Arc::clone(data), slots),
            // An overlay that holds only source rows, read in place.
            Content::Overlay(o) if o.tail.len == 0 && o.width() == o.base_width => (
                Arc::clone(&o.source),
                slots.into_iter().map(|i| o.rows[i]).collect(),
            ),
            Content::Overlay(o) => (Arc::new(o.store()), slots),
        };
        Table {
            name: name.into().into(),
            schema: Arc::new(Schema::new(columns)),
            content: Content::Overlay(Arc::new(Overlay::new(source, slots, width))),
        }
    }

    /// Give the table a new name; the primary-key index follows it.
    pub fn rename(&mut self, new_name: &str) {
        let old_pkey = pkey_name(&self.name);
        if let Some(i) = self.indexes().iter().position(|i| i.name == old_pkey) {
            self.data_mut().indexes[i].name = pkey_name(new_name);
        }
        self.name = new_name.into();
    }

    /// The payload for writing: see [`Content::make_mut`].
    fn data_mut(&mut self) -> &mut TableData {
        self.content.make_mut()
    }

    /// The overlay for writing, copied first if a clone still aliases it;
    /// `None` for a table that stores its rows.
    fn overlay_mut(&mut self) -> Option<&mut Overlay> {
        match &mut self.content {
            Content::Overlay(overlay) => Some(Arc::make_mut(overlay)),
            Content::Stored(_) => None,
        }
    }

    pub fn len(&self) -> usize {
        match &self.content {
            Content::Stored(data) => data.rows.len,
            Content::Overlay(overlay) => overlay.rows.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every row, in slot order, borrowed from its chunk.
    pub fn rows(&self) -> Rows<'_> {
        match &self.content {
            Content::Stored(data) => data.rows.iter(),
            Content::Overlay(overlay) => overlay.rows(),
        }
    }

    /// The row at `slot`, borrowed from its chunk.
    pub fn row(&self, slot: usize) -> &[Value] {
        match &self.content {
            Content::Stored(data) => data.rows.get(slot),
            Content::Overlay(overlay) => overlay.row(slot),
        }
    }

    /// An overlay's rows in order, each as the overlay holds it: a source
    /// row it has not written, or a row of its tail (see the module docs).
    /// `None` for a table that stores its rows. What a commit reads to
    /// keep the unwritten rows by identity and classify only the others.
    pub fn overlay_rows(&self) -> Option<impl ExactSizeIterator<Item = Held<'_>> + '_> {
        match &self.content {
            Content::Stored(_) => None,
            Content::Overlay(overlay) => Some((0..overlay.rows.len()).map(|i| overlay.held(i))),
        }
    }

    /// Column indices the heap is currently physically sorted by, if any.
    pub fn clustered_on(&self) -> Option<&[usize]> {
        match &self.content {
            Content::Stored(data) => data.clustered_on.as_deref(),
            Content::Overlay(_) => None,
        }
    }

    /// True if the heap is clustered on exactly the given columns.
    pub fn is_clustered_on(&self, cols: &[usize]) -> bool {
        self.clustered_on() == Some(cols)
    }

    /// Average row width in bytes.
    pub fn avg_row_bytes(&self) -> usize {
        if self.is_empty() {
            64
        } else {
            (self.heap_bytes() / self.len()).max(1)
        }
    }

    /// The row width the page cost model charges: the average, except that
    /// an overlay charges each source row its source's average, from the
    /// source's running total, so a scan never sums the source rows' cells.
    pub fn page_row_bytes(&self) -> usize {
        match &self.content {
            Content::Overlay(o) if !self.is_empty() => {
                let source = match o.source.rows.len {
                    0 => 0,
                    n => o.source.row_bytes_total / n + o.null_bytes(),
                };
                ((source * o.source_rows() + o.tail_bytes) / o.rows.len()).max(1)
            }
            _ => self.avg_row_bytes(),
        }
    }

    /// Total storage footprint: heap bytes plus all index bytes, matching
    /// the paper's convention of counting index size in storage numbers.
    pub fn storage_bytes(&self) -> usize {
        self.heap_bytes()
            + self
                .indexes()
                .iter()
                .map(|i| i.storage_bytes())
                .sum::<usize>()
    }

    /// Heap-only storage footprint.
    pub fn heap_bytes(&self) -> usize {
        match &self.content {
            Content::Stored(data) => data.row_bytes_total,
            Content::Overlay(overlay) => overlay.bytes(),
        }
    }

    /// `row`'s key in every index, in index order — built once per write,
    /// for the uniqueness probe and the insert both.
    fn keys_of(&self, row: &[Value]) -> Vec<IndexKey> {
        self.indexes().iter().map(|i| i.key_of(row)).collect()
    }

    /// Refuse `keys` (from [`Table::keys_of`]) when one of them is already
    /// held, in a unique index, by a slot other than `own_slot`. Checked
    /// on all unique indexes before any is mutated.
    fn check_unique(&self, keys: &[IndexKey], own_slot: Option<usize>) -> Result<()> {
        for (idx, key) in self.indexes().iter().zip(keys) {
            if idx.unique && idx.lookup(key).iter().any(|&s| Some(s) != own_slot) {
                return Err(EngineError::UniqueViolation(format!(
                    "table {}: duplicate key {:?} for index {}",
                    self.name, key, idx.name
                )));
            }
        }
        Ok(())
    }

    /// Insert one row, owned or borrowed, validated and coerced against
    /// the schema where its cells lie (see the module docs). An overlay
    /// appends it to its tail.
    pub fn insert<'r>(&mut self, row: impl Into<Cow<'r, [Value]>>) -> Result<()> {
        let row = self.schema.check_row(row.into())?;
        if let Some(overlay) = self.overlay_mut() {
            overlay.extend(std::iter::once(row));
            return Ok(());
        }
        let keys = self.keys_of(&row);
        self.check_unique(&keys, None)?;
        let data = self.content.make_mut();
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
    pub fn insert_many<'r, I>(&mut self, rows: I) -> Result<usize>
    where
        I: IntoIterator,
        I::Item: Into<Cow<'r, [Value]>>,
    {
        let mut n = 0;
        for r in rows {
            self.insert(r)?;
            n += 1;
        }
        Ok(n)
    }

    /// Append the rows of `source` at `slots`, in that order, each cut to
    /// this table's width: what [`Table::insert_many`] of those rows does,
    /// at the cost of a copy. Whether every source row is already a valid
    /// row here is decided once per call, from the two schemas, and holds
    /// when each column of this table has its source column's type and is
    /// nullable or fed by a NOT NULL column, and this table has no index
    /// to keep unique or in step. The cells are then cloned into the heap
    /// (an overlay's tail) a chunk at a time, with no per-row check. Any
    /// other pair of tables goes through [`Table::insert_many`], with its
    /// coercions and errors.
    pub fn copy_rows(
        &mut self,
        source: &Table,
        slots: impl IntoIterator<Item = usize>,
    ) -> Result<usize> {
        let width = self.schema.arity();
        let cut = |slot: usize| {
            let row = source.row(slot);
            &row[..width.min(row.len())]
        };
        if !self.takes_rows_of(&source.schema) {
            return self.insert_many(slots.into_iter().map(cut));
        }
        let mut slots = slots.into_iter().peekable();
        if slots.peek().is_none() {
            return Ok(0);
        }
        let (schema, name) = (&self.schema, &self.name);
        let rows = slots.map(cut).inspect(|row| {
            debug_assert!(
                matches!(schema.check_row(Cow::Borrowed(row)), Ok(Cow::Borrowed(_))),
                "{row:?} is not a valid row of {name}",
            );
        });
        let data = match &mut self.content {
            Content::Overlay(overlay) => {
                let overlay = Arc::make_mut(overlay);
                let before = overlay.rows.len();
                overlay.extend(rows.map(Cow::Borrowed));
                return Ok(overlay.rows.len() - before);
            }
            stored => stored.make_mut(),
        };
        let (before, mut bytes) = (data.rows.len, 0);
        data.rows.extend(rows.map(|row| {
            bytes += row_bytes(row);
            (row, 0)
        }));
        data.row_bytes_total += bytes;
        if data.rows.len > 1 {
            data.clustered_on = None;
        }
        Ok(data.rows.len - before)
    }

    /// Whether every row of a table with schema `source`, cut to this
    /// table's width, passes this table's write check unchanged and
    /// violates no index here (see [`Table::copy_rows`]).
    fn takes_rows_of(&self, source: &Schema) -> bool {
        self.indexes().is_empty()
            && self.schema.arity() <= source.arity()
            && self
                .schema
                .columns
                .iter()
                .zip(&source.columns)
                .all(|(to, from)| to.dtype == from.dtype && (to.nullable || !from.nullable))
    }

    /// Replace the row at `slot` (owned or borrowed, checked like an
    /// insert), keeping indexes in sync. An overlay puts a source row's
    /// replacement in its tail, at the row's place.
    pub fn replace_row<'r>(
        &mut self,
        slot: usize,
        new_row: impl Into<Cow<'r, [Value]>>,
    ) -> Result<()> {
        let new_row = self.schema.check_row(new_row.into())?;
        if let Some(overlay) = self.overlay_mut() {
            overlay.replace(slot, new_row);
            return Ok(());
        }
        // Uniqueness: the new key must not collide with a *different* slot.
        let new_keys = self.keys_of(&new_row);
        self.check_unique(&new_keys, Some(slot))?;
        let old_keys = self.keys_of(self.row(slot));
        let old_bytes = row_bytes(self.row(slot));
        let new_bytes = row_bytes(&new_row);
        let data = self.content.make_mut();
        overwrite(data.rows.get_mut(slot), new_row);
        for ((idx, old_key), new_key) in data.indexes.iter_mut().zip(old_keys).zip(new_keys) {
            if old_key != new_key {
                idx.remove(&old_key, slot);
                idx.insert(new_key, slot)?;
            }
        }
        data.row_bytes_total = data.row_bytes_total + new_bytes - old_bytes;
        Ok(())
    }

    /// Delete all rows at the given slots; compacts the heap and rebuilds
    /// indexes. An overlay stays one: it drops the slots from its row list
    /// and the tail rows among them from its tail, and keeps its byte
    /// count if it was summed. Returns the number of rows removed.
    pub fn delete_slots(&mut self, mut slots: Vec<usize>) -> usize {
        if slots.is_empty() {
            return 0;
        }
        slots.sort_unstable();
        slots.dedup();
        if let Some(overlay) = self.overlay_mut() {
            overlay.remove(&slots);
            return slots.len();
        }
        let data = self.data_mut();
        data.rows.remove(&slots);
        let rebuilt = data.rebuild_indexes();
        debug_assert!(rebuilt.is_ok(), "the kept rows' keys were distinct before");
        data.recompute_bytes();
        data.clustered_on = None;
        slots.len()
    }

    /// Remove every row, keeping schema and index definitions. An overlay
    /// becomes an empty table of its own, with nothing copied.
    pub fn truncate(&mut self) {
        if let Content::Overlay(overlay) = &self.content {
            let rows = Heap::new(overlay.width());
            self.content = Content::Stored(Arc::new(TableData {
                rows,
                ..TableData::default()
            }));
            return;
        }
        let data = self.data_mut();
        data.rows = Heap::new(data.rows.width);
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
        if self.indexes().iter().any(|i| i.name == index_name) {
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
        for (slot, row) in self.rows().enumerate() {
            let key = idx.key_of(row);
            idx.insert(key, slot)?;
        }
        self.data_mut().indexes.push(idx);
        Ok(())
    }

    /// Find an index whose leading columns cover exactly `cols`.
    pub fn index_on(&self, cols: &[usize]) -> Option<&Index> {
        self.indexes().iter().find(|i| i.columns == cols)
    }

    /// Find an index by name.
    pub fn index_named(&self, name: &str) -> Option<&Index> {
        self.indexes().iter().find(|i| i.name == name)
    }

    pub fn indexes(&self) -> &[Index] {
        match &self.content {
            Content::Stored(data) => &data.indexes,
            Content::Overlay(_) => &[],
        }
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
        // A stable sort of the slots, then one move of every row.
        let mut order: Vec<usize> = (0..data.rows.len).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (data.rows.get(a), data.rows.get(b));
            for &c in &cols {
                let ord = a[c].total_cmp(&b[c]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        data.rows.permute(&order);
        data.rebuild_indexes()?;
        data.clustered_on = Some(cols);
        Ok(())
    }

    /// Add a new nullable column (ALTER TABLE ... ADD COLUMN); existing
    /// rows get NULL, as in the schema-evolution scheme of Section 3.3.
    pub fn add_column(&mut self, col: Column) -> Result<()> {
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
        if let Some(overlay) = self.overlay_mut() {
            overlay.widen();
            return Ok(());
        }
        let data = self.data_mut();
        data.rows.widen();
        data.row_bytes_total += data.rows.len; // 1 byte per NULL
        Ok(())
    }

    /// Change a column to a more general type (int → double → text),
    /// converting stored values. Used by single-pool schema evolution.
    /// Refused with [`EngineError::UniqueViolation`] when the conversion
    /// makes two keys of a unique index equal (two integers that round to
    /// one double, `0.0` and `-0.0` as text); a refused change leaves the
    /// table as it was.
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
        // Convert a clone, which costs three reference counts, and keep it
        // only if every cell converts and every unique index still holds.
        let mut t = self.clone();
        let data = t.content.make_mut();
        let width = data.rows.width;
        for chunk in &mut data.rows.chunks {
            for cell in Arc::make_mut(chunk).iter_mut().skip(ci).step_by(width) {
                *cell = cell.coerce_to(new_type)?;
            }
        }
        Arc::make_mut(&mut t.schema).columns[ci].dtype = new_type;
        data.rebuild_indexes()?;
        data.recompute_bytes();
        *self = t;
        Ok(())
    }

    /// Slots matching a key on the index covering `cols`, if one exists.
    pub fn index_lookup(&self, cols: &[usize], key: &[Value]) -> Option<&[usize]> {
        self.index_on(cols).map(|idx| idx.lookup(key))
    }

    /// Look up a run of keys, `cols.len()` values each, through the index
    /// on `cols`: `found(i, slots)` gets the slots of the `i`-th key,
    /// ascending, for every key that matches; a key without a match is
    /// skipped. Returns how many keys were sent to the index. Fails with
    /// [`EngineError::IndexNotFound`] when no index covers `cols`.
    ///
    /// The walk is positional where it can be. On a unique one-column
    /// index, an integer key is first looked for at the slot the previous
    /// match predicts, `slot + key − previous key`. When that slot holds
    /// another key and the key is above the previous one, it is searched
    /// for in the only slots a heap ascending in the key could hold it in,
    /// those after the previous match and up to the predicted one (an
    /// exponential, then a binary search). A slot is taken only when its
    /// key cell equals the key: on a unique index it is then the one slot
    /// the index holds for the key. So a table keyed by growing integers,
    /// as a data table is by rid, resolves a sorted rlist with one index
    /// probe, whether it holds every key (the global data table) or skips
    /// some (a partition's data table). Every other key (one the heap holds out of order, a key
    /// that is not an integer, any key of a non-unique or several-column
    /// index) is probed with [`Index::lookup_near`], whose remembered
    /// position keeps a sorted run of probes cheap too.
    pub fn lookup_keys<K: AsRef<[Value]>>(
        &self,
        cols: &[usize],
        keys: impl IntoIterator<Item = K>,
        mut found: impl FnMut(usize, &[usize]),
    ) -> Result<usize> {
        let idx = self.index_on(cols).ok_or_else(|| {
            EngineError::IndexNotFound(format!("{} on columns {cols:?}", self.name))
        })?;
        let positional = idx.unique && cols.len() == 1;
        let mut probe = Probe::default();
        let mut probes = 0;
        // The last integer key matched, and its slot.
        let mut last: Option<(i64, usize)> = None;
        for (i, key) in keys.into_iter().enumerate() {
            let key = key.as_ref();
            let int = match key {
                [Value::Int(k)] if positional => Some(*k),
                _ => None,
            };
            if let (Some(k), Some((last_key, last_slot))) = (int, last) {
                let guess = k
                    .checked_sub(last_key)
                    .and_then(|step| (last_slot as i64).checked_add(step))
                    .and_then(|slot| usize::try_from(slot).ok())
                    .filter(|&slot| slot < self.len() && self.row(slot)[cols[0]] == key[0]);
                if let Some(slot) = guess {
                    last = Some((k, slot));
                    found(i, &[slot]);
                    continue;
                }
            }
            // The guess missed: search where an ascending heap would hold
            // the key, and probe the index only if it is not there.
            let galloped = match (int, last) {
                (Some(k), Some((last_key, last_slot))) => {
                    self.gallop(cols[0], k, last_key, last_slot)
                }
                _ => None,
            };
            let slots = match &galloped {
                Some(slot) => std::slice::from_ref(slot),
                None => {
                    probes += 1;
                    idx.lookup_near(&mut probe, key)
                }
            };
            if let (Some(k), &[slot]) = (int, slots) {
                last = Some((k, slot));
            }
            if !slots.is_empty() {
                found(i, slots);
            }
        }
        Ok(probes)
    }

    /// The slot after `last_slot` whose `col` cell is `Int(k)`, searched
    /// for where a heap ascending in `col` would hold it: with `last_slot`
    /// holding `last_key < k`, no further than `k − last_key` slots on.
    /// An exponential search from `last_slot + 1` brackets `k`, and a
    /// binary search inside the bracket finds it. `None` when `k` is not
    /// above `last_key`, a cell on the way is not an integer, or the window
    /// does not hold `k` (it may still be elsewhere, if the heap is not
    /// ascending there). Kept out of line: the walk's predicted hit is the
    /// hot path and must stay as small as it is.
    #[cold]
    #[inline(never)]
    fn gallop(&self, col: usize, k: i64, last_key: i64, last_slot: usize) -> Option<usize> {
        let step = usize::try_from(k.checked_sub(last_key)?).ok()?;
        let end = last_slot.checked_add(step)?.min(self.len().checked_sub(1)?);
        let key_at = |slot: usize| match self.row(slot)[col] {
            Value::Int(c) => Some(c),
            _ => None,
        };
        // `lo` holds a key below `k`; the gallop ends at a slot `hi` holding
        // one above it, leaving the slots in `(lo, hi)` to bisect.
        let mut lo = last_slot;
        let mut reach = 1usize;
        let mut hi = loop {
            let slot = lo.checked_add(reach)?.min(end);
            if slot <= lo {
                return None;
            }
            match key_at(slot)?.cmp(&k) {
                Ordering::Equal => return Some(slot),
                Ordering::Greater => break slot,
                Ordering::Less => lo = slot,
            }
            reach = reach.checked_mul(2)?;
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            match key_at(mid)?.cmp(&k) {
                Ordering::Equal => return Some(mid),
                Ordering::Greater => hi = mid,
                Ordering::Less => lo = mid,
            }
        }
        None
    }

    /// Resolve many integer keys to heap slots in one call through the
    /// index covering `col`, by the positional walk of
    /// [`Table::lookup_keys`], for a caller that asks which of the keys the
    /// table holds (a partition's records, a rollback's rows). Returns the
    /// matched `(key, slot)` pairs in key order (keys without a match are
    /// skipped, keys matching several slots emit one pair per slot), or
    /// `None` when no index covers `col`.
    pub fn resolve_int_keys(&self, col: usize, keys: &[i64]) -> Option<Vec<(i64, usize)>> {
        let mut out = Vec::with_capacity(keys.len());
        self.lookup_keys(&[col], keys.iter().map(|&k| [Value::Int(k)]), |i, slots| {
            out.extend(slots.iter().map(|&slot| (keys[i], slot)))
        })
        .ok()?;
        Some(out)
    }
}

fn row_bytes(row: &[Value]) -> usize {
    row.iter().map(|v| v.storage_bytes()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn an_insert_moves_an_owned_rows_cells_into_its_chunk() {
        let mut t = table();
        let text = String::from("kept in place");
        let buffer = text.as_ptr();
        t.insert(vec![Value::Int(1), Value::Text(text)]).unwrap();
        // The text cell was moved into the chunk, its buffer not copied.
        let Value::Text(stored) = &t.row(0)[1] else {
            panic!("a text cell")
        };
        assert_eq!(stored.as_ptr(), buffer);
        // A borrowed row's cells are cloned: the source keeps its own.
        let source = [Value::Int(2), Value::Text("borrowed".into())];
        t.insert(&source[..]).unwrap();
        let (Value::Text(stored), Value::Text(original)) = (&t.row(1)[1], &source[1]) else {
            panic!("text cells")
        };
        assert_eq!(stored, original);
        assert_ne!(stored.as_ptr(), original.as_ptr());
        // Rows share their chunk's buffer, one row after the other.
        assert_eq!(t.row(1).as_ptr(), t.row(0)[2..].as_ptr());
    }

    #[test]
    fn a_borrowed_insert_coerces_a_copy_and_refuses_a_bad_row() {
        let schema = Schema::new(vec![
            Column::new("rid", DataType::Int).not_null(),
            Column::new("score", DataType::Double),
        ])
        .with_primary_key(&["rid"])
        .unwrap();
        let mut t = Table::new("t", schema);
        let source = vec![Value::Int(1), Value::Int(2)];
        t.insert(&source).unwrap();
        assert_eq!(format!("{:?}", t.row(0)), "[Int(1), Double(2.0)]");
        assert_eq!(
            format!("{source:?}"),
            "[Int(1), Int(2)]",
            "the source is untouched"
        );
        let bytes = t.heap_bytes();
        // NULL key, short row, uncoercible cell, duplicate key.
        for bad in [
            vec![Value::Null, Value::Int(5)],
            vec![Value::Int(2)],
            vec![Value::Int(2), "x".into()],
            vec![Value::Int(1), Value::Double(9.0)],
        ] {
            assert!(t.insert(&bad[..]).is_err(), "{bad:?}");
        }
        for bad in [vec![Value::Null, Value::Int(5)], vec![Value::Int(2)]] {
            assert!(t.replace_row(0, &bad[..]).is_err(), "{bad:?}");
        }
        assert_eq!(format!("{:?}", t.row(0)), "[Int(1), Double(2.0)]");
        assert_eq!(t.len(), 1);
        assert_eq!(t.heap_bytes(), bytes);
        assert_eq!(t.index_lookup(&[0], &[Value::Int(2)]), Some(&[][..]));
        // A borrowed replacement is checked and coerced the same way.
        t.replace_row(0, &[Value::Int(3), Value::Int(4)][..])
            .unwrap();
        assert_eq!(format!("{:?}", t.row(0)), "[Int(3), Double(4.0)]");
        assert_eq!(t.index_lookup(&[0], &[Value::Int(3)]), Some(&[0][..]));
    }

    #[test]
    fn a_table_without_columns_counts_its_rows() {
        let mut t = Table::new("empty", Schema::new(vec![]));
        for _ in 0..(2 * CHUNK_ROWS + 1) {
            t.insert(Vec::new()).unwrap();
        }
        t.insert(&[][..]).unwrap();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        let n = 2 * CHUNK_ROWS + 2;
        assert_eq!(t.len(), n);
        assert_eq!(t.rows().len(), n);
        assert_eq!(t.rows().fold(0, |seen, row| seen + 1 + row.len()), n);
        assert!(t.row(n - 1).is_empty());
        assert_eq!(t.delete_slots(vec![0, CHUNK_ROWS, n - 1]), 3);
        assert_eq!(t.len(), n - 3);
        assert_eq!(t.rows().count(), n - 3);
        t.add_column(Column::new("x", DataType::Int)).unwrap();
        assert_eq!(t.len(), n - 3);
        assert!(t.rows().all(|row| row == [Value::Null]));
        t.truncate();
        assert!(t.is_empty());
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

    /// A one-column-key table holding `keys`, typed `dtype`, with the key
    /// index unique or not.
    fn keyed(dtype: DataType, keys: &[Value], unique: bool) -> Table {
        let schema = Schema::new(vec![
            Column::new("k", dtype),
            Column::new("v", DataType::Int),
        ]);
        let mut t = Table::new("t", schema);
        t.create_index("t_k", &["k"], unique).unwrap();
        for (i, k) in keys.iter().enumerate() {
            t.insert(vec![k.clone(), Value::Int(i as i64)]).unwrap();
        }
        t
    }

    #[test]
    fn alter_column_type_refuses_to_make_unique_keys_equal() {
        let cases = [
            // Two integers that round to one double.
            (
                DataType::Int,
                [
                    Value::Int(9_007_199_254_740_993),
                    Value::Int(9_007_199_254_740_992),
                ],
                DataType::Double,
            ),
            // Both zeros print as "0".
            (
                DataType::Double,
                [Value::Double(0.0), Value::Double(-0.0)],
                DataType::Text,
            ),
        ];
        for (from, keys, to) in cases {
            let mut t = keyed(from, &keys, true);
            let rows = format!("{:?}", t.rows().collect::<Vec<_>>());
            let bytes = t.storage_bytes();
            let err = t.alter_column_type("k", to).unwrap_err();
            assert!(matches!(err, EngineError::UniqueViolation(_)), "{err:?}");
            // The table is as it was: type, cells, bytes and lookups.
            assert_eq!(t.schema.columns[0].dtype, from);
            assert_eq!(format!("{:?}", t.rows().collect::<Vec<_>>()), rows);
            assert_eq!(t.storage_bytes(), bytes);
            for (slot, k) in keys.iter().enumerate() {
                let idx = t.index_named("t_k").unwrap();
                assert_eq!(idx.lookup(std::slice::from_ref(k)), &[slot], "{k:?}");
            }
            // A non-unique index takes the equal keys.
            let mut t = keyed(from, &keys, false);
            t.alter_column_type("k", to).unwrap();
            let idx = t.index_named("t_k").unwrap();
            assert_eq!(idx.lookup(&idx.key_of(t.row(0))), &[0, 1]);
        }
    }

    /// A scan, filtered or not, charges pages at the table's page row
    /// width; a selection's is its source's, from the source's running
    /// total, so the scan leaves the selection's own byte count unsummed,
    /// and `avg_row_bytes` and `heap_bytes` still sum the selected rows.
    #[test]
    fn a_scan_leaves_a_selection_byte_count_unsummed() {
        let mut t = table();
        for (k, val) in [(0, "ab"), (1, "abcdef"), (2, "abcd")] {
            t.insert(vec![Value::Int(k), val.into()]).unwrap();
        }
        let mut db = crate::db::Database::new();
        db.add_table(t.select("sel", 2, vec![2, 1])).unwrap();
        db.add_table(t).unwrap();
        db.query("SELECT count(*) FROM sel").unwrap();
        db.query("SELECT * FROM sel WHERE val = 'abcd'").unwrap();
        let sel = db.table("sel").unwrap();
        let unsummed =
            |t: &Table| matches!(&t.content, Content::Overlay(o) if o.base_bytes.get().is_none());
        assert!(unsummed(sel));
        // Text costs 4 bytes plus its length.
        assert_eq!(sel.page_row_bytes(), (8 + 6 + 8 + 10 + 8 + 8) / 3);
        assert!(unsummed(sel));
        assert_eq!(sel.heap_bytes(), 8 + 8 + 8 + 10);
        assert_eq!(sel.avg_row_bytes(), (8 + 8 + 8 + 10) / 2);
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
    fn lookup_keys_names_each_key_it_found_and_refuses_an_unindexed_column() {
        let mut t = filled(3 * CHUNK_ROWS);
        t.delete_slots(vec![5]);
        let keys = [
            [Value::Int(4)],
            [Value::Int(5)],
            [Value::Int(6)],
            [Value::Int(6)],
        ];
        let mut found = Vec::new();
        let probes = t
            .lookup_keys(&[0], &keys, |i, slots| found.push((i, slots.to_vec())))
            .unwrap();
        assert_eq!(found, vec![(0, vec![4]), (2, vec![5]), (3, vec![5])]);
        // The first key and the deleted one go to the index; 6 is found a
        // slot before its predicted one.
        assert_eq!(probes, 2);
        let err = t.lookup_keys(&[1], &keys, |_, _| {}).unwrap_err();
        assert!(matches!(err, EngineError::IndexNotFound(_)), "{err:?}");
    }

    /// `keys` resolved through the rid index: the matched slots in key
    /// order and the number of keys sent to the index.
    fn walk(t: &Table, keys: &[i64]) -> (Vec<usize>, usize) {
        let mut slots = Vec::new();
        let probes = t
            .lookup_keys(&[0], keys.iter().map(|&k| [Value::Int(k)]), |_, found| {
                slots.extend_from_slice(found)
            })
            .unwrap();
        (slots, probes)
    }

    /// A heap holding `keys` in this order, under a unique index on `rid`.
    fn heap_of(keys: impl IntoIterator<Item = i64>) -> Table {
        let mut t = table();
        for k in keys {
            t.insert(vec![Value::Int(k), Value::Null]).unwrap();
        }
        t
    }

    #[test]
    fn a_sorted_walk_over_a_gapped_ascending_heap_probes_the_index_once() {
        // Ascending keys with irregular gaps, as a partition's data table
        // holds the rids of its versions and skips the others'.
        let heap: Vec<i64> = (0..600i64).filter(|k| k % 7 != 3 && k % 11 < 6).collect();
        let t = heap_of(heap.iter().copied());
        for stride in [1, 2, 3, 5, 17, 64, 150] {
            for offset in 0..stride.min(4) {
                // A sorted subset, with a repeat of every fifth key.
                let mut keys = Vec::new();
                for &k in heap.iter().skip(offset).step_by(stride) {
                    keys.push(k);
                    if keys.len() % 5 == 0 {
                        keys.push(k);
                    }
                }
                let (slots, probes) = walk(&t, &keys);
                let want: Vec<usize> = keys
                    .iter()
                    .map(|k| heap.binary_search(k).unwrap())
                    .collect();
                assert_eq!(slots, want, "stride {stride} offset {offset}");
                assert_eq!(probes, 1, "stride {stride} offset {offset}");
            }
        }
        // A key the heap skips costs a probe of its own, and the walk
        // picks up after it.
        let (slots, probes) = walk(&t, &[0, 3, 4, 14, 15]);
        assert_eq!(slots, vec![0, 3, 8, 9]);
        assert_eq!(probes, 2);
        // A non-unique index takes no guess: one probe per key.
        let mut t = t;
        t.create_index("t_val", &["val"], false).unwrap();
        let nulls = [[Value::Null], [Value::Null]];
        let probes = t.lookup_keys(&[1], &nulls, |_, _| {}).unwrap();
        assert_eq!(probes, 2);
    }

    #[test]
    fn a_run_appended_out_of_order_costs_two_probes_per_key_walked_into_it() {
        // Keys 0, 10, …, 990, then a run of lower keys appended after them,
        // as a migration appends records to a partition table it reuses.
        let t = heap_of((0..100).map(|i| i * 10).chain([5, 15, 25]));
        let mut keys: Vec<i64> = (0..100).map(|i| i * 10).chain([5, 15, 25]).collect();
        keys.sort_unstable();
        let (slots, probes) = walk(&t, &keys);
        let mut want: Vec<usize> = vec![0, 100, 1, 101, 2, 102];
        want.extend(3..100);
        assert_eq!(slots, want);
        // The first key, then each run key and the key after it: the run
        // is not where an ascending heap would hold it, nor is the way back.
        assert_eq!(probes, 1 + 2 * 3);
        // Walked alone, each part of the heap is ascending.
        assert_eq!(walk(&t, &keys[6..]).1, 1);
        assert_eq!(walk(&t, &[5, 15, 25]).1, 1);
    }

    /// A source for the copy tests: `n` rows `(rid NOT NULL, name, score)`,
    /// every fifth name NULL, keyed by a unique index on `rid`.
    fn copy_source(n: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("rid", DataType::Int).not_null(),
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Double),
        ])
        .with_primary_key(&["rid"])
        .unwrap();
        let mut t = Table::new("src", schema);
        for i in 0..n as i64 {
            let name = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Text(format!("r{i}"))
            };
            t.insert(vec![Value::Int(i), name, Value::Double(i as f64 / 2.0)])
                .unwrap();
        }
        t
    }

    /// `columns` as a table's schema, every column nullable unless named
    /// in `not_null`.
    fn copy_target(columns: &[(&str, DataType)], not_null: &[&str]) -> Table {
        let columns = columns
            .iter()
            .map(|&(name, dtype)| {
                let c = Column::new(name, dtype);
                if not_null.contains(&name) {
                    c.not_null()
                } else {
                    c
                }
            })
            .collect();
        Table::new("dst", Schema::new(columns))
    }

    /// `copy_rows` of `slots` from `source` into a clone of `target`, and
    /// `insert_many` of the same rows cut to the target's width into
    /// another: the same result and the same length, bytes, rows,
    /// clustering and index entries. Returns whether the copy was taken
    /// without a per-row check.
    fn copy_agrees_with_inserts(target: &Table, source: &Table, slots: &[usize]) -> bool {
        let width = target.schema.arity();
        let (mut copied, mut inserted) = (target.clone(), target.clone());
        let got = copied.copy_rows(source, slots.iter().copied());
        let want = inserted.insert_many(slots.iter().map(|&slot| {
            let row = source.row(slot);
            &row[..width.min(row.len())]
        }));
        let what = format!("{:?} from {slots:?}", target.schema);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        assert_eq!(copied.len(), inserted.len(), "{what}");
        assert_eq!(copied.heap_bytes(), inserted.heap_bytes(), "{what}");
        assert_eq!(copied.storage_bytes(), inserted.storage_bytes(), "{what}");
        assert_eq!(copied.clustered_on(), inserted.clustered_on(), "{what}");
        assert!(copied.rows().eq(inserted.rows()), "{what}");
        for (slot, row) in inserted.rows().enumerate() {
            assert_eq!(copied.row(slot), row, "{what}");
            for idx in copied.indexes() {
                assert!(idx.lookup(&idx.key_of(row)).contains(&slot), "{what}");
            }
        }
        target.takes_rows_of(&source.schema)
    }

    #[test]
    fn a_copy_the_target_cannot_take_as_is_gets_insert_manys_coercions_and_errors() {
        let source = copy_source(2 * CHUNK_ROWS);
        let slots: Vec<usize> = (0..2 * CHUNK_ROWS).rev().collect();
        let mut keyed = copy_target(&[("rid", DataType::Int)], &[]);
        keyed.create_index("dst_rid", &["rid"], false).unwrap();
        let cases = [
            // Another column type: every score coerced to text.
            copy_target(
                &[
                    ("rid", DataType::Int),
                    ("name", DataType::Text),
                    ("score", DataType::Text),
                ],
                &[],
            ),
            // Ints widened to doubles.
            copy_target(&[("rid", DataType::Double)], &[]),
            // A NOT NULL column fed NULLs: refused at the first NULL name.
            copy_target(
                &[("rid", DataType::Int), ("name", DataType::Text)],
                &["name"],
            ),
            // Wider than the source: refused on arity.
            copy_target(
                &[
                    ("rid", DataType::Int),
                    ("name", DataType::Text),
                    ("score", DataType::Double),
                    ("x", DataType::Int),
                ],
                &[],
            ),
            // An index to keep in step.
            keyed,
        ];
        for target in &cases {
            assert!(!copy_agrees_with_inserts(target, &source, &slots));
        }
        assert!(copy_source(0).copy_rows(&source, [3]).is_ok());
        // A primary key: refused at the repeated rid, the rows before it kept.
        let mut pk = copy_source(0);
        assert!(!pk.takes_rows_of(&source.schema));
        let repeated = [1, 2, 3, 2, 4];
        assert!(!copy_agrees_with_inserts(&pk, &source, &repeated));
        let err = pk.copy_rows(&source, repeated).unwrap_err();
        assert!(matches!(err, EngineError::UniqueViolation(_)), "{err:?}");
        assert_eq!(pk.len(), 3);
    }

    #[test]
    fn an_admitted_copy_leaves_what_row_by_row_inserts_leave() {
        let n = 3 * CHUNK_ROWS + 5;
        let source = copy_source(n);
        let select_into = [("rid", DataType::Int), ("name", DataType::Text)];
        let whole = [
            ("rid", DataType::Int),
            ("name", DataType::Text),
            ("score", DataType::Double),
        ];
        let targets = [
            // `SELECT rid, name INTO`: a prefix of the columns, all nullable.
            copy_target(&select_into, &[]),
            // Every column, NOT NULL where the source is.
            copy_target(&whole, &["rid"]),
            // No columns at all: only the row count moves.
            copy_target(&[], &[]),
        ];
        let every: Vec<usize> = (0..n).collect();
        let scattered = vec![n - 1, 7, 7, 0, CHUNK_ROWS, 2 * CHUNK_ROWS + 1, 3];
        for target in &targets {
            for prefill in [0, 1, CHUNK_ROWS - 3, CHUNK_ROWS, CHUNK_ROWS + 9] {
                // The copy starts mid-chunk (or at a chunk edge) of a target
                // that already holds `prefill` rows.
                let mut target = target.clone();
                target.copy_rows(&source, 0..prefill).unwrap();
                assert_eq!(target.len(), prefill);
                for slots in [&every, &scattered, &Vec::new()] {
                    assert!(copy_agrees_with_inserts(&target, &source, slots));
                }
            }
        }
        // A clone of the target keeps its rows through a copy into it.
        let mut target = copy_target(&select_into, &[]);
        target.copy_rows(&source, 0..CHUNK_ROWS + 1).unwrap();
        let snapshot = target.clone();
        let rows: Vec<Vec<Value>> = snapshot.rows().map(<[Value]>::to_vec).collect();
        assert_eq!(target.copy_rows(&source, 0..n).unwrap(), n);
        assert!(snapshot.rows().eq(&rows));
        assert_eq!(target.len(), CHUNK_ROWS + 1 + n);
        // Zero rows leave even the clustering mark in place.
        let mut sorted = copy_target(&select_into, &[]);
        sorted.copy_rows(&source, [0]).unwrap();
        sorted.cluster_by(&["rid"]).unwrap();
        assert_eq!(sorted.copy_rows(&source, []).unwrap(), 0);
        assert!(sorted.is_clustered_on(&[0]));
        assert_eq!(sorted.copy_rows(&source, [1]).unwrap(), 1);
        assert!(sorted.clustered_on().is_none());
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

    /// The payload of a table that stores its rows.
    fn stored(t: &Table) -> &TableData {
        match &t.content {
            Content::Stored(data) => data,
            Content::Overlay(_) => panic!("{} is an overlay", t.name),
        }
    }

    /// `(heap chunks, index leaves)` that `a` still shares with `b`, and
    /// the same pair counted over all of `a`.
    fn shared(a: &Table, b: &Table) -> ((usize, usize), (usize, usize)) {
        let (a, b) = (stored(a), stored(b));
        let heap = a
            .rows
            .chunks
            .iter()
            .filter(|c| b.rows.chunks.iter().any(|o| Arc::ptr_eq(c, o)))
            .count();
        let (leaves, all_leaves) = a.indexes[0].shared_leaves(&b.indexes[0]);
        ((heap, leaves), (a.rows.chunks.len(), all_leaves))
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
        let writes: [(&str, Write); 9] = [
            ("insert", |t| {
                t.insert(vec![Value::Int(-1), "low".into()]).unwrap();
            }),
            ("borrowed insert", |t| {
                t.insert(&[Value::Int(-1), Value::Text("low".into())][..])
                    .unwrap();
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
            let expected: Vec<Vec<Value>> = snapshot.rows().map(<[Value]>::to_vec).collect();
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

    /// `t` against `model`: its rows read stepped, folded and by slot,
    /// every row found at its slot through every index, and its byte count.
    fn assert_holds(t: &Table, model: &[Vec<Value>], what: &str) {
        assert_eq!(t.len(), model.len(), "{what}");
        assert_eq!(t.rows().len(), model.len(), "{what}");
        assert!(t.rows().eq(model.iter().map(Vec::as_slice)), "{what}");
        let folded = t.rows().fold(Vec::new(), |mut all, row| {
            all.push(row.to_vec());
            all
        });
        assert_eq!(folded, model, "{what}");
        for (slot, row) in model.iter().enumerate() {
            assert_eq!(t.row(slot), &row[..], "{what}: slot {slot}");
            for idx in t.indexes() {
                let slots = idx.lookup(&idx.key_of(row));
                assert!(slots.contains(&slot), "{what}: {} at {slot}", idx.name);
            }
        }
        let bytes: usize = model.iter().map(|row| row_bytes(row)).sum();
        assert_eq!(t.heap_bytes(), bytes, "{what}");
    }

    #[test]
    fn tables_at_chunk_edges_keep_their_rows_through_every_write() {
        for n in [
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 1,
            2 * CHUNK_ROWS + 1,
        ] {
            let mut t = filled(n);
            let mut model: Vec<Vec<Value>> = t.rows().map(<[Value]>::to_vec).collect();
            assert_holds(&t, &model, &format!("{n} rows"));
            let mut step =
                |what: &str, write: &dyn Fn(&mut Table), edit: &dyn Fn(&mut Vec<Vec<Value>>)| {
                    write(&mut t);
                    edit(&mut model);
                    assert_holds(&t, &model, &format!("{n} rows, {what}"));
                };
            let owned = || vec![Value::Int(-1), "owned".into()];
            step("owned insert", &|t| t.insert(owned()).unwrap(), &|m| {
                m.push(owned())
            });
            let borrowed = [Value::Int(-2), Value::Text("borrowed".into())];
            step(
                "borrowed insert",
                &|t| t.insert(&borrowed[..]).unwrap(),
                &|m| m.push(borrowed.to_vec()),
            );
            let last = n + 1;
            let moved = || vec![Value::Int(-3), "moved".into()];
            step(
                "replace_row",
                &|t| {
                    t.replace_row(last, moved()).unwrap();
                    t.replace_row(0, &borrowed[..1]).unwrap_err();
                },
                &|m| m[last] = moved(),
            );
            let mut doomed = vec![0, n / 2, CHUNK_ROWS - 1, n - 1, last];
            doomed.sort_unstable();
            doomed.dedup();
            step(
                "delete_slots",
                &|t| {
                    let unsorted = doomed.iter().rev().copied().collect();
                    assert_eq!(t.delete_slots(unsorted), doomed.len());
                },
                &|m| {
                    *m = std::mem::take(m)
                        .into_iter()
                        .enumerate()
                        .filter(|(slot, _)| !doomed.contains(slot))
                        .map(|(_, row)| row)
                        .collect();
                },
            );
            step("cluster_by", &|t| t.cluster_by(&["val"]).unwrap(), &|m| {
                m.sort_by(|a, b| a[1].total_cmp(&b[1]))
            });
            step(
                "create_index",
                &|t| t.create_index("t_val", &["val"], false).unwrap(),
                &|_| {},
            );
            step(
                "add_column",
                &|t| t.add_column(Column::new("extra", DataType::Int)).unwrap(),
                &|m| m.iter_mut().for_each(|row| row.push(Value::Null)),
            );
            step(
                "alter_column_type",
                &|t| t.alter_column_type("rid", DataType::Double).unwrap(),
                &|m| {
                    for row in m {
                        row[0] = row[0].coerce_to(DataType::Double).unwrap();
                    }
                },
            );
            let wide = || vec![Value::Double(0.5), "wide".into(), Value::Int(7)];
            step(
                "insert after widening",
                &|t| t.insert(wide()).unwrap(),
                &|m| m.push(wide()),
            );
            step("truncate", &|t| t.truncate(), &|m| m.clear());
            step(
                "insert after truncate",
                &|t| t.insert(wide()).unwrap(),
                &|m| m.push(wide()),
            );
        }
    }

    /// The tail rows an overlay holds, and whether the table is one.
    fn tail_rows(t: &Table) -> Option<usize> {
        t.overlay_rows()
            .map(|rows| rows.filter(|row| matches!(row, Held::Tail(_))).count())
    }

    #[test]
    fn an_overlay_keeps_its_rows_through_every_write() {
        let source = filled(3 * CHUNK_ROWS + 5);
        let slots: Vec<usize> = (0..source.len()).rev().step_by(2).collect();
        let mut t = source.select("o", 2, slots.clone());
        let mut model: Vec<Vec<Value>> = slots.iter().map(|&s| source.row(s).to_vec()).collect();
        let row = |k: i64| vec![Value::Int(k), Value::Text(format!("n{k}"))];
        let mut step = |what: &str,
                        write: &dyn Fn(&mut Table),
                        edit: &dyn Fn(&mut Vec<Vec<Value>>),
                        tail: Option<usize>| {
            write(&mut t);
            edit(&mut model);
            assert_holds(&t, &model, what);
            assert_eq!(tail_rows(&t), tail, "{what}");
        };
        step("taken", &|_| {}, &|_| {}, Some(0));
        step(
            "inserts",
            &|t| (0..4).for_each(|k| t.insert(row(-k)).unwrap()),
            &|m| m.extend((0..4).map(|k| row(-k))),
            Some(4),
        );
        step(
            "update a source row and a tail row",
            &|t| {
                t.replace_row(3, row(100)).unwrap();
                let last = t.len() - 1;
                t.replace_row(last, row(101)).unwrap();
            },
            &|m| {
                m[3] = row(100);
                let last = m.len() - 1;
                m[last] = row(101);
            },
            Some(5),
        );
        let doomed = |t: &Table| vec![0, 3, 5, t.len() - 4, t.len() - 2];
        step(
            "delete source and tail rows",
            &|t| assert_eq!(t.delete_slots(doomed(t)), 5),
            &|m| {
                let gone = [0, 3, 5, m.len() - 4, m.len() - 2];
                *m = std::mem::take(m)
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| !gone.contains(i))
                    .map(|(_, r)| r)
                    .collect();
            },
            Some(2),
        );
        step(
            "add_column",
            &|t| t.add_column(Column::new("extra", DataType::Int)).unwrap(),
            &|m| m.iter_mut().for_each(|r| r.push(Value::Null)),
            Some(2),
        );
        let wide = |k: i64| vec![Value::Int(k), Value::Text("w".into()), Value::Int(k)];
        step(
            "writes after widening",
            &|t| {
                t.insert(wide(200)).unwrap();
                t.replace_row(1, wide(201)).unwrap();
                t.delete_slots(vec![t.len() - 3]);
            },
            &|m| {
                m.push(wide(200));
                m[1] = wide(201);
                let gone = m.len() - 3;
                m.remove(gone);
            },
            Some(3),
        );
        step(
            "create_index stores it",
            &|t| t.create_index("o_val", &["val"], false).unwrap(),
            &|_| {},
            None,
        );
        // The source never moved.
        assert!(source.rows().eq(filled(3 * CHUNK_ROWS + 5).rows()));
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

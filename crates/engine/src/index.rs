//! Secondary indexes: one ordered, chunked structure — point lookups for
//! the `vid`/`rid` primary keys of the versioning and data tables, ordered
//! iteration for merge-style access.
//!
//! # Structural sharing
//!
//! Entries live in fixed-capacity **leaves**, each behind its own
//! [`Arc`]; the index itself is a key-ordered directory of leaves. Cloning
//! an index copies the directory (one pointer per leaf) and shares every
//! leaf; a write after a clone copies only the leaf it lands in
//! ([`Arc::make_mut`]). An append of monotonically growing keys — fresh
//! rids into a data table's primary-key index — therefore touches the
//! tail leaf alone, however many entries the index holds.

use std::sync::Arc;

use crate::error::{EngineError, Result};
use crate::types::Value;

/// Key extracted from a row for one or more indexed columns.
pub type IndexKey = Vec<Value>;

/// Entries per leaf: what one write after a clone copies at most.
const LEAF_ENTRIES: usize = 128;

/// The heap slots of one key, ascending — the order a scan meets the
/// key's rows in; never empty. A unique index (and most keys of any index)
/// holds one slot per key, stored inline so an entry costs no allocation
/// of its own.
#[derive(Debug, Clone)]
enum Slots {
    One(usize),
    Many(Vec<usize>),
}

impl Slots {
    fn as_slice(&self) -> &[usize] {
        match self {
            Slots::One(slot) => std::slice::from_ref(slot),
            Slots::Many(slots) => slots,
        }
    }

    /// Add `slot` in its place: at the end for an appended row, earlier
    /// for a row an update moved onto this key.
    fn push(&mut self, slot: usize) {
        match self {
            Slots::One(first) => *self = Slots::Many(vec![(*first).min(slot), (*first).max(slot)]),
            Slots::Many(slots) => {
                let at = slots.partition_point(|&s| s < slot);
                slots.insert(at, slot);
            }
        }
    }

    /// Remove `slot`; true when no slot is left.
    fn remove(&mut self, slot: usize) -> bool {
        match self {
            Slots::One(only) => *only == slot,
            Slots::Many(slots) => {
                slots.retain(|&s| s != slot);
                slots.is_empty()
            }
        }
    }
}

/// A run of entries in ascending key order. Keys are stored flattened —
/// entry `i`'s key is `keys[i * arity..(i + 1) * arity]` — so copying a
/// leaf of integer keys is two buffer copies, not one allocation per key.
#[derive(Debug, Clone)]
struct Leaf {
    keys: Vec<Value>,
    slots: Vec<Slots>,
}

impl Leaf {
    fn single(key: IndexKey, slot: usize) -> Leaf {
        Leaf {
            keys: key,
            slots: vec![Slots::One(slot)],
        }
    }

    fn key(&self, i: usize, arity: usize) -> &[Value] {
        &self.keys[i * arity..(i + 1) * arity]
    }

    fn first_key(&self, arity: usize) -> &[Value] {
        self.key(0, arity)
    }

    fn last_key(&self, arity: usize) -> &[Value] {
        self.key(self.slots.len() - 1, arity)
    }

    /// Position of `key`, or where it would be inserted.
    fn search(&self, key: &[Value]) -> std::result::Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.slots.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid, key.len()).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    fn insert_at(&mut self, pos: usize, key: IndexKey, slot: usize) {
        let at = pos * key.len();
        self.keys.splice(at..at, key);
        self.slots.insert(pos, Slots::One(slot));
    }

    fn remove_at(&mut self, pos: usize, arity: usize) {
        self.keys.drain(pos * arity..(pos + 1) * arity);
        self.slots.remove(pos);
    }

    /// Move the entries from `pos` on into a new leaf.
    fn split_off(&mut self, pos: usize, arity: usize) -> Leaf {
        Leaf {
            keys: self.keys.split_off(pos * arity),
            slots: self.slots.split_off(pos),
        }
    }
}

/// Where the previous lookup of a run ended (see [`Index::lookup_near`]):
/// the entry after it, as a leaf and a position in that leaf.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    leaf: usize,
    next: usize,
}

/// A secondary index over a table.
///
/// Positions stored in the index are row slots in the owning table's heap;
/// the table is responsible for keeping them in sync on insert, delete and
/// re-clustering (indexes are rebuilt when the heap is reordered).
#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    pub columns: Vec<usize>,
    pub unique: bool,
    /// Key-ordered, none empty: every key of leaf `i` sorts before every
    /// key of leaf `i + 1`.
    leaves: Vec<Arc<Leaf>>,
    /// Distinct keys across all leaves.
    entries: usize,
}

impl Index {
    pub fn new(name: impl Into<String>, columns: Vec<usize>, unique: bool) -> Index {
        Index {
            name: name.into(),
            columns,
            unique,
            leaves: Vec::new(),
            entries: 0,
        }
    }

    /// Extract this index's key from a full row.
    pub fn key_of(&self, row: &[Value]) -> IndexKey {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The leaf `key` belongs in: the last one whose first key does not
    /// sort after it (the first leaf for a key before all others). `None`
    /// only while the index is empty.
    fn leaf_for(&self, key: &[Value]) -> Option<usize> {
        let after = self
            .leaves
            .partition_point(|leaf| leaf.first_key(key.len()) <= key);
        (!self.leaves.is_empty()).then(|| after.saturating_sub(1))
    }

    /// Insert a (key, slot) pair, enforcing uniqueness if requested.
    pub fn insert(&mut self, key: IndexKey, slot: usize) -> Result<()> {
        let arity = self.arity();
        if key.len() != arity {
            return Err(EngineError::Invalid(format!(
                "index {}: key {:?} does not have {arity} columns",
                self.name, key
            )));
        }
        let Some(li) = self.leaf_for(&key) else {
            self.leaves.push(Arc::new(Leaf::single(key, slot)));
            self.entries = 1;
            return Ok(());
        };
        // Search before `make_mut`: a refused insert copies nothing.
        let pos = match self.leaves[li].search(&key) {
            Ok(_) if self.unique => {
                return Err(EngineError::UniqueViolation(format!(
                    "index {}: duplicate key {:?}",
                    self.name, key
                )));
            }
            Ok(pos) => {
                Arc::make_mut(&mut self.leaves[li]).slots[pos].push(slot);
                return Ok(());
            }
            Err(pos) => pos,
        };
        self.entries += 1;
        let full = self.leaves[li].slots.len() >= LEAF_ENTRIES;
        if full && pos == LEAF_ENTRIES {
            // Past the end of a full leaf: start the next one, so keys
            // arriving in ascending order leave every leaf full.
            self.leaves
                .insert(li + 1, Arc::new(Leaf::single(key, slot)));
            return Ok(());
        }
        let leaf = Arc::make_mut(&mut self.leaves[li]);
        if !full {
            leaf.insert_at(pos, key, slot);
            return Ok(());
        }
        let half = LEAF_ENTRIES / 2;
        let mut upper = leaf.split_off(half, arity);
        if pos < half {
            leaf.insert_at(pos, key, slot);
        } else {
            upper.insert_at(pos - half, key, slot);
        }
        self.leaves.insert(li + 1, Arc::new(upper));
        Ok(())
    }

    /// Remove a (key, slot) pair; no-op when absent.
    pub fn remove(&mut self, key: &[Value], slot: usize) {
        let arity = self.arity();
        if key.len() != arity {
            return;
        }
        let Some(li) = self.leaf_for(key) else { return };
        let Ok(pos) = self.leaves[li].search(key) else {
            return;
        };
        if !self.leaves[li].slots[pos].as_slice().contains(&slot) {
            return;
        }
        let leaf = Arc::make_mut(&mut self.leaves[li]);
        if leaf.slots[pos].remove(slot) {
            leaf.remove_at(pos, arity);
            self.entries -= 1;
            if leaf.slots.is_empty() {
                self.leaves.remove(li);
            }
        }
    }

    /// Slots matching the exact key, ascending.
    pub fn lookup(&self, key: &[Value]) -> &[usize] {
        if key.len() != self.arity() {
            return &[];
        }
        let Some(leaf) = self.leaf_for(key).map(|li| &self.leaves[li]) else {
            return &[];
        };
        leaf.search(key)
            .map_or(&[], |pos| leaf.slots[pos].as_slice())
    }

    /// [`Index::lookup`] for a run of probes in roughly ascending key
    /// order (a sorted rlist against a rid index). `probe` carries where
    /// the previous lookup ended: a key that is the very next entry costs
    /// one comparison, one inside the same leaf skips the directory
    /// search. Any `Probe` is valid for any key; a stale one only loses
    /// the shortcut.
    pub fn lookup_near(&self, probe: &mut Probe, key: &[Value]) -> &[usize] {
        let arity = self.arity();
        if key.len() != arity {
            return &[];
        }
        // The entry after the previous one, stepping into the next leaf
        // at a leaf's end.
        if self
            .leaves
            .get(probe.leaf)
            .is_some_and(|leaf| probe.next == leaf.slots.len())
        {
            *probe = Probe {
                leaf: probe.leaf + 1,
                next: 0,
            };
        }
        let in_range = match self.leaves.get(probe.leaf) {
            Some(leaf) if probe.next < leaf.slots.len() && leaf.key(probe.next, arity) == key => {
                probe.next += 1;
                return leaf.slots[probe.next - 1].as_slice();
            }
            Some(leaf) => leaf.first_key(arity) <= key && key <= leaf.last_key(arity),
            None => false,
        };
        if !in_range {
            match self.leaf_for(key) {
                Some(li) => probe.leaf = li,
                None => return &[],
            }
        }
        let leaf = &self.leaves[probe.leaf];
        match leaf.search(key) {
            Ok(pos) => {
                probe.next = pos + 1;
                leaf.slots[pos].as_slice()
            }
            Err(pos) => {
                probe.next = pos;
                &[]
            }
        }
    }

    /// Iterate all (key, slots) in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], &[usize])> + '_ {
        let arity = self.arity();
        self.leaves.iter().flat_map(move |leaf| {
            (0..leaf.slots.len()).map(move |i| (leaf.key(i, arity), leaf.slots[i].as_slice()))
        })
    }

    /// Drop all entries (used before a rebuild).
    pub fn clear(&mut self) {
        self.leaves.clear();
        self.entries = 0;
    }

    /// Approximate memory footprint used in storage accounting: an index
    /// entry costs roughly key bytes + slot pointer. The paper counts index
    /// sizes in the total storage numbers of Figure 3a.
    pub fn storage_bytes(&self) -> usize {
        self.leaves
            .iter()
            .map(|leaf| {
                let keys: usize = leaf.keys.iter().map(|v| v.storage_bytes()).sum();
                let slots: usize = leaf.slots.iter().map(|s| 8 * s.as_slice().len() + 16).sum();
                keys + slots
            })
            .sum()
    }

    /// How many leaves this index and `other` hold in common (pointer
    /// equality), and how many this index holds in all.
    #[cfg(test)]
    pub(crate) fn shared_leaves(&self, other: &Index) -> (usize, usize) {
        let shared = self
            .leaves
            .iter()
            .filter(|leaf| other.leaves.iter().any(|o| Arc::ptr_eq(leaf, o)))
            .count();
        (shared, self.leaves.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[i64]) -> IndexKey {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn hash_index_point_lookup() {
        let mut idx = Index::new("i", vec![0], false);
        idx.insert(key(&[1]), 0).unwrap();
        idx.insert(key(&[1]), 3).unwrap();
        idx.insert(key(&[2]), 1).unwrap();
        assert_eq!(idx.lookup(&key(&[1])), &[0, 3]);
        assert_eq!(idx.lookup(&key(&[9])), &[] as &[usize]);
        assert_eq!(idx.len(), 2);
        // A key's slots stay ascending whatever order they arrive in.
        idx.insert(key(&[1]), 2).unwrap();
        idx.insert(key(&[2]), 9).unwrap();
        idx.insert(key(&[2]), 4).unwrap();
        assert_eq!(idx.lookup(&key(&[1])), &[0, 2, 3]);
        assert_eq!(idx.lookup(&key(&[2])), &[1, 4, 9]);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut idx = Index::new("pk", vec![0, 1], true);
        idx.insert(key(&[1, 2]), 0).unwrap();
        let err = idx.insert(key(&[1, 2]), 1).unwrap_err();
        assert!(matches!(err, EngineError::UniqueViolation(_)));
        // A different composite key is fine.
        idx.insert(key(&[1, 3]), 1).unwrap();
    }

    #[test]
    fn remove_cleans_up_empty_buckets() {
        let mut idx = Index::new("i", vec![0], false);
        idx.insert(key(&[5]), 7).unwrap();
        idx.remove(&key(&[5]), 7);
        assert!(idx.is_empty());
        // Removing again is a no-op.
        idx.remove(&key(&[5]), 7);
    }

    #[test]
    fn btree_iterates_in_key_order() {
        let mut idx = Index::new("i", vec![0], false);
        for (i, k) in [5i64, 1, 3].iter().enumerate() {
            idx.insert(key(&[*k]), i).unwrap();
        }
        let keys: Vec<i64> = idx
            .iter()
            .map(|(k, _)| match &k[0] {
                Value::Int(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn storage_accounting_grows_with_entries() {
        let mut idx = Index::new("i", vec![0], false);
        let empty = idx.storage_bytes();
        idx.insert(key(&[1]), 0).unwrap();
        assert!(idx.storage_bytes() > empty);
    }

    fn check_leaves(idx: &Index) {
        for leaf in &idx.leaves {
            assert!(!leaf.slots.is_empty() && leaf.slots.len() <= LEAF_ENTRIES);
            assert_eq!(leaf.keys.len(), leaf.slots.len() * idx.arity());
        }
        let keys: Vec<&[Value]> = idx.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys ascend strictly");
        assert_eq!(keys.len(), idx.len());
    }

    #[test]
    fn ascending_keys_fill_every_leaf() {
        let mut idx = Index::new("pk", vec![0], true);
        let n = 5 * LEAF_ENTRIES + 1;
        for i in 0..n {
            idx.insert(key(&[i as i64]), i).unwrap();
        }
        check_leaves(&idx);
        assert_eq!(idx.leaves.len(), 6);
        assert_eq!(idx.lookup(&key(&[(n - 1) as i64])), &[n - 1]);
    }

    #[test]
    fn scattered_inserts_and_removes_keep_the_leaves_ordered() {
        let mut idx = Index::new("i", vec![0, 1], false);
        let n = 10 * LEAF_ENTRIES;
        // 7919 is coprime to n: every key once, in scrambled order.
        for i in 0..n {
            let k = (i * 7919 % n) as i64;
            idx.insert(key(&[k / 10, k % 10]), k as usize).unwrap();
            idx.insert(key(&[k / 10, k % 10]), n + k as usize).unwrap();
        }
        check_leaves(&idx);
        assert_eq!(idx.len(), n);
        assert!(idx.leaves.len() > n / LEAF_ENTRIES, "splits left slack");
        let snapshot = idx.clone();
        for k in 0..n {
            let probe = key(&[k as i64 / 10, k as i64 % 10]);
            assert_eq!(idx.lookup(&probe), &[k, n + k]);
            idx.remove(&probe, k);
            if k % 2 == 0 {
                idx.remove(&probe, n + k);
            }
        }
        check_leaves(&idx);
        assert_eq!(idx.len(), n / 2);
        assert_eq!(idx.lookup(&key(&[0, 0])), &[] as &[usize]);
        assert_eq!(idx.lookup(&key(&[0, 1])), &[n + 1]);
        // A key of the wrong arity matches nothing.
        assert_eq!(idx.lookup(&key(&[0])), &[] as &[usize]);
        assert!(idx.insert(key(&[0]), 0).is_err());
        // The clone taken before the removals still holds every pair.
        check_leaves(&snapshot);
        assert_eq!(snapshot.lookup(&key(&[0, 0])), &[0, n]);
        // Emptying the index leaves no leaf behind.
        for k in 0..n {
            idx.remove(&key(&[k as i64 / 10, k as i64 % 10]), n + k);
        }
        assert!(idx.is_empty() && idx.leaves.is_empty());
    }

    #[test]
    fn lookup_near_agrees_with_lookup_from_any_starting_leaf() {
        let mut idx = Index::new("pk", vec![0], true);
        for i in 0..(4 * LEAF_ENTRIES as i64) {
            idx.insert(key(&[i * 2]), i as usize).unwrap();
        }
        let last = 8 * LEAF_ENTRIES as i64 - 2;
        for (leaf, next) in [(0, 0), (2, LEAF_ENTRIES), (3, 5), (99, 0), (0, 999)] {
            let mut probe = Probe { leaf, next };
            // Runs of neighbours (across a leaf boundary too), gaps,
            // misses, steps backwards, both ends.
            for k in [
                0,
                2,
                4,
                5,
                6,
                252,
                254,
                256,
                258,
                700,
                2,
                last,
                last + 2,
                -5,
                600,
            ] {
                let k = key(&[k]);
                assert_eq!(idx.lookup_near(&mut probe, &k), idx.lookup(&k), "{k:?}");
            }
        }
    }
}

//! The provenance manager (Section 2.3): tracks materialized checkout
//! tables and exported CSV files — their source CVD, parent versions,
//! owner, and creation time — so that `commit` knows where a table came
//! from without the user restating it.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::ids::Vid;

/// What kind of artifact a checkout produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagedKind {
    /// A materialized table inside the engine.
    Table,
    /// An exported CSV file on disk.
    Csv,
}

/// Provenance of one staged artifact.
#[derive(Debug, Clone)]
pub struct StagedEntry {
    /// Table name or CSV path (the registry key, case-normalized for
    /// tables).
    pub name: String,
    pub cvd: String,
    /// The versions this artifact was derived from, in precedence order.
    pub parents: Vec<Vid>,
    pub owner: String,
    /// Logical creation timestamp.
    pub created_at: u64,
    pub kind: StagedKind,
}

/// Registry of staged artifacts. An entry never changes once registered,
/// so each sits behind an [`Arc`]: cloning the registry (every MVCC
/// snapshot does) copies the keys, not the provenance.
#[derive(Debug, Clone, Default)]
pub struct StagingArea {
    entries: HashMap<String, Arc<StagedEntry>>,
}

impl StagingArea {
    fn key(name: &str, kind: StagedKind) -> String {
        match kind {
            StagedKind::Table => name.to_ascii_lowercase(),
            StagedKind::Csv => name.to_string(),
        }
    }

    pub fn register(&mut self, entry: StagedEntry) -> Result<()> {
        let key = Self::key(&entry.name, entry.kind);
        if self.entries.contains_key(&key) {
            return Err(CoreError::Invalid(format!(
                "{} is already staged",
                entry.name
            )));
        }
        self.entries.insert(key, Arc::new(entry));
        Ok(())
    }

    pub fn get(&self, name: &str, kind: StagedKind) -> Result<&StagedEntry> {
        self.entries
            .get(&Self::key(name, kind))
            .map(|e| &**e)
            .ok_or_else(|| CoreError::NotStaged(name.to_string()))
    }

    pub fn remove(&mut self, name: &str, kind: StagedKind) -> Result<StagedEntry> {
        self.entries
            .remove(&Self::key(name, kind))
            .map(Arc::unwrap_or_clone)
            .ok_or_else(|| CoreError::NotStaged(name.to_string()))
    }

    /// The CVD a staged artifact came from, if it is staged — the
    /// non-failing lookup batch planners use to route `commit`/`discard`
    /// without consuming a `Result`.
    pub fn cvd_of(&self, name: &str, kind: StagedKind) -> Option<&str> {
        self.entries
            .get(&Self::key(name, kind))
            .map(|e| e.cvd.as_str())
    }

    /// Take every entry out of the registry (used when merging instances).
    pub fn drain(&mut self) -> Vec<StagedEntry> {
        let mut out: Vec<StagedEntry> = self
            .entries
            .drain()
            .map(|(_, e)| Arc::unwrap_or_clone(e))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Detach all staged artifacts of one CVD (used when splitting an
    /// instance into per-CVD shards).
    pub fn remove_for_cvd(&mut self, cvd: &str) -> Vec<StagedEntry> {
        let cvd = cvd.to_ascii_lowercase();
        let keys: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, e)| e.cvd == cvd)
            .map(|(k, _)| k.clone())
            .collect();
        let mut out: Vec<StagedEntry> = keys
            .into_iter()
            .filter_map(|k| self.entries.remove(&k).map(Arc::unwrap_or_clone))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// All staged artifacts for a CVD (used when dropping it).
    pub fn for_cvd(&self, cvd: &str) -> Vec<&StagedEntry> {
        let cvd = cvd.to_ascii_lowercase();
        let mut v: Vec<&StagedEntry> = self
            .entries
            .values()
            .map(|e| &**e)
            .filter(|e| e.cvd == cvd)
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    pub fn list(&self) -> Vec<&StagedEntry> {
        let mut v: Vec<&StagedEntry> = self.entries.values().map(|e| &**e).collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, cvd: &str, owner: &str) -> StagedEntry {
        StagedEntry {
            name: name.to_string(),
            cvd: cvd.to_string(),
            parents: vec![Vid(1)],
            owner: owner.to_string(),
            created_at: 1,
            kind: StagedKind::Table,
        }
    }

    #[test]
    fn register_lookup_remove() {
        let mut s = StagingArea::default();
        s.register(entry("T1", "protein", "alice")).unwrap();
        // Table lookups are case-insensitive.
        let e = s.get("t1", StagedKind::Table).unwrap();
        assert_eq!(e.parents, vec![Vid(1)]);
        assert!(s.register(entry("t1", "protein", "bob")).is_err());
        s.remove("T1", StagedKind::Table).unwrap();
        assert!(matches!(
            s.get("t1", StagedKind::Table),
            Err(CoreError::NotStaged(_))
        ));
    }

    #[test]
    fn csv_keys_are_case_sensitive_paths() {
        let mut s = StagingArea::default();
        let mut e = entry("/tmp/Data.csv", "protein", "alice");
        e.kind = StagedKind::Csv;
        s.register(e).unwrap();
        assert!(s.get("/tmp/Data.csv", StagedKind::Csv).is_ok());
        assert!(s.get("/tmp/data.csv", StagedKind::Csv).is_err());
    }

    #[test]
    fn for_cvd_filters() {
        let mut s = StagingArea::default();
        s.register(entry("a", "x", "u")).unwrap();
        s.register(entry("b", "y", "u")).unwrap();
        s.register(entry("c", "x", "u")).unwrap();
        let xs = s.for_cvd("X");
        assert_eq!(xs.len(), 2);
        assert_eq!(s.list().len(), 3);
    }
}

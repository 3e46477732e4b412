//! Range encoding for version/record lists (Section 3.2's storage
//! optimization, after Buneman et al. \[14\]).
//!
//! Both array attributes of the split models are sorted integer lists with
//! long consecutive runs: an rlist contains runs of adjacent `rid`s because
//! commits allocate fresh rids contiguously, and a vlist contains runs of
//! adjacent `vid`s because a record typically survives a stretch of
//! consecutive versions. Storing each maximal run as an inclusive `[lo,
//! hi]` pair turns `n` 8-byte elements into `2·(number of runs)` 8-byte
//! bounds — a large win whenever runs are long.
//!
//! The product stores arrays raw; this module only measures what the
//! encoding would save. [`compression_report`] is what the `compression`
//! experiment prints, on the SCI/CUR benchmark datasets.

/// Range-encoded size of one array: two 8-byte bounds per maximal run of
/// consecutive values, plus an 8-byte length. The runs are those of the
/// array's sorted, duplicate-free values.
pub fn encoded_array_bytes(values: &[i64]) -> usize {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    // Strictly ascending, so `w[0] + 1` cannot overflow.
    let breaks = sorted.windows(2).filter(|w| w[0] + 1 != w[1]).count();
    8 + 16 * (sorted.len().min(1) + breaks)
}

/// Storage effect of range-encoding the array column of a CVD's
/// versioning table (Section 3.2's compression remark, measured).
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionReport {
    /// Which table and column were measured.
    pub table: String,
    /// Number of arrays (versioning-table rows).
    pub arrays: usize,
    /// Total elements across all arrays.
    pub elements: usize,
    /// Bytes of the raw `INT[]` representation.
    pub raw_bytes: usize,
    /// Bytes after range-encoding every array.
    pub encoded_bytes: usize,
    /// Bytes under adaptive encoding: each array keeps whichever of the raw
    /// and range-encoded forms is smaller (one tag byte per array), the way
    /// production bitmap formats choose containers per block.
    pub adaptive_bytes: usize,
}

impl CompressionReport {
    /// `raw / encoded`; greater than 1 means range encoding shrinks the
    /// versioning table.
    pub fn ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }

    /// `raw / adaptive`; never below ~1 since adaptive encoding falls back
    /// to the raw form per array.
    pub fn adaptive_ratio(&self) -> f64 {
        if self.adaptive_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.adaptive_bytes as f64
        }
    }
}

/// Measure range-encoding on the versioning information of a CVD.
///
/// The array column depends on the data model: `vlist` for combined-table
/// and split-by-vlist, `rlist` for split-by-rlist. Models without array
/// columns (a-table-per-version, delta-based) report `None`.
pub fn compression_report(
    engine: &orpheus_engine::Database,
    cvd: &crate::cvd::Cvd,
) -> crate::error::Result<Option<CompressionReport>> {
    use crate::model::ModelKind;
    let (table, column) = match cvd.model {
        ModelKind::CombinedTable => (cvd.combined_table(), "vlist"),
        ModelKind::SplitByVlist => (cvd.vlist_table(), "vlist"),
        ModelKind::SplitByRlist => (cvd.rlist_table(), "rlist"),
        ModelKind::TablePerVersion | ModelKind::DeltaBased => return Ok(None),
    };
    let t = engine.table(&table)?;
    let col = t.schema.column_index(column)?;
    let mut report = CompressionReport {
        table: format!("{table}.{column}"),
        arrays: 0,
        elements: 0,
        raw_bytes: 0,
        encoded_bytes: 0,
        adaptive_bytes: 0,
    };
    for row in t.rows() {
        let values = row[col].as_int_array()?;
        let raw = 8 + 8 * values.len();
        let encoded = encoded_array_bytes(values);
        report.arrays += 1;
        report.elements += values.len();
        report.raw_bytes += raw;
        report.encoded_bytes += encoded;
        report.adaptive_bytes += 1 + raw.min(encoded);
    }
    Ok(Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The size of `runs` encoded runs.
    fn bytes_of_runs(runs: usize) -> usize {
        8 + 16 * runs
    }

    #[test]
    fn builds_canonical_runs() {
        // Order and duplicates do not matter: {1-3, 5, 9-10}.
        assert_eq!(
            encoded_array_bytes(&[5, 1, 2, 3, 2, 9, 10]),
            bytes_of_runs(3)
        );
    }

    #[test]
    fn encoded_array_bytes_counts_two_bounds_per_run() {
        for (values, runs) in [
            (vec![], 0),
            (vec![1], 1),
            (vec![1, 2, 3], 1),
            (vec![1, 3, 5], 3),
            (vec![1, 2, 3, 7, 8, 20], 3),
        ] {
            assert_eq!(
                encoded_array_bytes(&values),
                bytes_of_runs(runs),
                "{values:?}"
            );
        }
    }

    #[test]
    fn encoding_wins_on_runs_loses_on_scatter() {
        let raw = |n: usize| 8 + 8 * n;
        // One long run: 1000 elements → 1 run.
        let long: Vec<i64> = (0..1000).collect();
        assert!(raw(long.len()) > 300 * encoded_array_bytes(&long));
        // All-even values: no runs → every element costs two bounds.
        let scattered: Vec<i64> = (0..100).map(|i| i * 2).collect();
        assert!(raw(scattered.len()) < encoded_array_bytes(&scattered));
    }

    #[test]
    fn extremes_do_not_overflow() {
        let values = [i64::MIN, i64::MAX - 1, i64::MAX, i64::MAX];
        assert_eq!(encoded_array_bytes(&values), bytes_of_runs(2));
    }
}

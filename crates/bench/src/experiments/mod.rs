//! One module per table/figure of the paper's evaluation (Section 5 and
//! appendices). Each exposes a `run()` returning the printed report; the
//! `all_experiments` bin runs them, all or those `ORPHEUS_EXPERIMENTS` names.

pub mod compression;
pub mod fig10_11;
pub mod fig12_13;
pub mod fig14_15;
pub mod fig19;
pub mod fig3;
pub mod fig9;
pub mod table2;

/// Shared helper: sample `n` version ids (1-based) evenly across a CVD.
/// An empty CVD yields an empty sample — version ids are never fabricated.
pub fn sample_versions(num_versions: usize, n: usize) -> Vec<u64> {
    if num_versions == 0 {
        return Vec::new();
    }
    let n = n.min(num_versions).max(1);
    (0..n).map(|i| (i * num_versions / n) as u64 + 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_in_range_and_even() {
        let s = sample_versions(100, 10);
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|&v| (1..=100).contains(&v)));
        assert_eq!(s[0], 1);
        let s = sample_versions(3, 10);
        assert_eq!(s, vec![1, 2, 3]);
    }

    #[test]
    fn sampling_an_empty_cvd_fabricates_nothing() {
        assert!(sample_versions(0, 10).is_empty());
        assert!(sample_versions(0, 0).is_empty());
        // The degenerate-but-nonempty case still clamps n up to 1.
        assert_eq!(sample_versions(1, 0), vec![1]);
    }
}

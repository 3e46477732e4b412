//! Figures 12 and 13: the benefit of partitioning — average checkout time
//! and storage size without partitioning vs. LyreSplit partitionings under
//! γ = 1.5|R| and γ = 2|R|, for SCI_* (Fig. 12) and CUR_* (Fig. 13).

use orpheus_core::{ModelKind, OrpheusDB, Vid};

use crate::datasets::partitioning_datasets;
use crate::experiments::sample_versions;
use crate::harness::{mb, ms, time_op, trials, Report};
use crate::loader::load_workload;

/// Average checkout time over sampled versions (discards each staged
/// table afterwards).
fn avg_checkout_ms(odb: &mut OrpheusDB, samples: &[u64]) -> f64 {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    time_op(trials().min(3), || {
        for &v in samples {
            let t = format!("co{}", COUNTER.fetch_add(1, Ordering::Relaxed));
            odb.checkout("bench", &[Vid(v)], &t).expect("checkout");
            odb.discard(&t).expect("discard");
        }
    }) / samples.len() as f64
}

pub fn run() -> String {
    let mut report = Report::new(&[
        "dataset",
        "layout",
        "checkout_ms",
        "storage_MB",
        "partitions",
        "speedup",
    ]);
    for spec in partitioning_datasets() {
        let workload = spec.generate();
        let samples = sample_versions(workload.num_versions(), 10);

        let mut odb = OrpheusDB::new();
        load_workload(&mut odb, "bench", &workload, ModelKind::SplitByRlist).expect("load");
        let base_ms = avg_checkout_ms(&mut odb, &samples);
        let base_mb = odb.storage_bytes("bench").expect("storage");
        report.row(vec![
            spec.name.into(),
            "no-partitioning".into(),
            ms(base_ms),
            mb(base_mb),
            "1".into(),
            "1.0x".into(),
        ]);

        for gamma in [1.5f64, 2.0] {
            let r = odb.optimize_with("bench", gamma, 1.5).expect("optimize");
            let t = avg_checkout_ms(&mut odb, &samples);
            let storage = odb.partitioned_storage_bytes("bench").expect("pstorage");
            report.row(vec![
                spec.name.into(),
                format!("LyreSplit γ={gamma}|R|"),
                ms(t),
                mb(storage),
                r.num_partitions.to_string(),
                format!("{:.1}x", base_ms / t.max(1e-9)),
            ]);
        }
    }
    format!(
        "Figures 12/13: checkout time and storage, with vs without partitioning\n{}",
        report.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetSpec;
    use crate::generator::WorkloadKind;

    #[test]
    fn partitioning_reduces_checkout_on_branchy_data() {
        let spec = DatasetSpec {
            paper_name: "SCI_TINY",
            name: "SCI_TINY",
            kind: WorkloadKind::Sci,
            versions: 60,
            branches: 10,
            inserts: 80,
        };
        let workload = spec.generate();
        let records = workload.num_records as u64;
        let samples = sample_versions(workload.num_versions(), 8);
        let mut odb = OrpheusDB::new();
        load_workload(&mut odb, "bench", &workload, ModelKind::SplitByRlist).unwrap();
        let checkout_rows = |odb: &mut OrpheusDB| -> Vec<usize> {
            samples
                .iter()
                .map(|&v| {
                    odb.checkout("bench", &[Vid(v)], "rows").unwrap();
                    let rows = odb.engine.table("rows").unwrap().len();
                    odb.discard("rows").unwrap();
                    rows
                })
                .collect()
        };
        let before = checkout_rows(&mut odb);
        let r = odb.optimize_with("bench", 2.0, 1.5).unwrap();
        assert!(r.num_partitions > 1, "expected a real split");
        // Counts, not wall-clock (noisy on tiny data): a checkout reads its
        // partition's records instead of all of R, the partitions stay
        // within the γ = 2|R| storage budget, and every version still
        // checks out the rows it had.
        assert!(
            r.cavg < records as f64,
            "Cavg {} records, |R| = {records}",
            r.cavg
        );
        assert!(
            r.storage_records <= 2 * records,
            "{} records stored, |R| = {records}",
            r.storage_records
        );
        assert_eq!(checkout_rows(&mut odb), before);
    }
}

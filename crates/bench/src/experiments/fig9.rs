//! Figure 9: the storage-size vs. checkout-time trade-off of LYRESPLIT,
//! AGGLO and KMEANS, swept over their respective knobs (δ, BC, K).
//!
//! Also produces the Appendix D.2 data: Figures 20/21 (estimated storage
//! vs. estimated checkout cost) and 22/23 (estimated checkout cost vs.
//! real checkout time), which validate the `Ci = |Rk|` cost model.

use std::collections::HashSet;

use orpheus_engine::{Column, DataType, Database, Schema, Value};
use orpheus_partition::agglo::{agglo, DEFAULT_WINDOW};
use orpheus_partition::kmeans::kmeans;
use orpheus_partition::lyresplit::{lyresplit, EdgePick};
use orpheus_partition::Partitioning;

use crate::datasets::{partitioning_datasets, DatasetSpec};
use crate::experiments::sample_versions;
use crate::generator::Workload;
use crate::harness::{ms, time_op, trials, Report};

/// One point of the trade-off sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub dataset: String,
    pub algo: &'static str,
    pub param: String,
    pub partitions: usize,
    /// Exact storage cost S = Σ|Rk| in records.
    pub storage_records: u64,
    /// Estimated checkout cost Cavg = Σ|Vk||Rk|/n in records.
    pub est_cavg: f64,
    /// Measured average checkout time over sampled versions.
    pub measured_ms: f64,
}

/// Build the physical partition tables for an arbitrary partitioning and
/// measure real checkout latency via the Table 1 SQL.
fn measure_partitioning(w: &Workload, part: &Partitioning) -> f64 {
    let mut db = Database::new();
    let attrs = w.params.attrs;
    let mut cols = vec![Column::new("rid", DataType::Int).not_null()];
    cols.extend((0..attrs).map(|i| Column::new(format!("a{i}"), DataType::Int)));
    let mut schema = Schema::new(cols);
    schema.primary_key = vec![0];

    let parts = part.partitions();
    for (k, versions) in parts.iter().enumerate() {
        let data = format!("p{k}_data");
        let rlist = format!("p{k}_rlist");
        db.create_table(&data, schema.clone()).expect("create");
        db.execute(&format!(
            "CREATE TABLE {rlist} (vid INT PRIMARY KEY, rlist INT[])"
        ))
        .expect("create rlist");
        let mut rids: HashSet<usize> = HashSet::new();
        for &v in versions {
            rids.extend(w.version_rids[v].iter().copied());
        }
        let mut sorted: Vec<usize> = rids.into_iter().collect();
        sorted.sort_unstable();
        let rows: Vec<Vec<Value>> = sorted
            .iter()
            .map(|&r| {
                let mut row = Vec::with_capacity(attrs + 1);
                row.push(Value::Int(r as i64));
                row.extend(w.record_values(r).into_iter().map(Value::Int));
                row
            })
            .collect();
        db.table_mut(&data)
            .expect("table")
            .insert_many(rows)
            .expect("fill");
        let t = db.table_mut(&rlist).expect("rlist table");
        for &v in versions {
            t.insert(vec![
                Value::Int(v as i64 + 1),
                Value::from(
                    w.version_rids[v]
                        .iter()
                        .map(|&r| r as i64)
                        .collect::<Vec<_>>(),
                ),
            ])
            .expect("rlist row");
        }
    }

    // Checkout each sampled version from its partition.
    let samples = sample_versions(w.num_versions(), 10);
    let mut i = 0usize;
    time_op(trials().min(3), || {
        for &vid in &samples {
            let k = part.partition_of(vid as usize - 1);
            let sql = format!(
                "SELECT d.* INTO co{i} FROM p{k}_data AS d, \
                 (SELECT unnest(rlist) AS rid_tmp FROM p{k}_rlist WHERE vid = {vid}) AS tmp \
                 WHERE rid = rid_tmp"
            );
            db.execute(&sql).expect("checkout");
            db.drop_table(&format!("co{i}")).expect("drop");
            i += 1;
        }
    }) / samples.len() as f64
}

/// Sweep all three algorithms on one dataset.
pub fn sweep_dataset(spec: &DatasetSpec) -> Vec<SweepPoint> {
    let w = spec.generate();
    let bip = w.bipartite();
    let tree = w.version_graph().to_tree();
    let heavy = w.num_records > 250_000;
    let mut out = Vec::new();

    let mut push = |algo: &'static str, param: String, part: Partitioning| {
        let storage = part.storage_cost(&bip);
        let est = part.checkout_cost(&bip);
        let measured = measure_partitioning(&w, &part);
        out.push(SweepPoint {
            dataset: spec.name.to_string(),
            algo,
            param,
            partitions: part.num_partitions,
            storage_records: storage,
            est_cavg: est,
            measured_ms: measured,
        });
    };

    // LyreSplit: sweep δ from near the floor to 1.
    let floor = tree.total_edges() as f64
        / (tree.total_records().max(1) as f64 * tree.num_versions().max(1) as f64);
    for &mult in &[1.5f64, 3.0, 8.0, 20.0, 60.0] {
        let delta = (floor * mult).min(1.0);
        let r = lyresplit(&tree, delta, EdgePick::BalancedVersions);
        push("LyreSplit", format!("δ={delta:.3}"), r.partitioning);
        if delta >= 1.0 {
            break;
        }
    }

    // AGGLO: sweep the capacity BC downward from unbounded.
    let max_version = (0..bip.num_versions())
        .map(|v| bip.version_size(v))
        .max()
        .unwrap_or(1);
    let bcs: Vec<usize> = if heavy {
        vec![max_version * 2, usize::MAX]
    } else {
        vec![
            max_version + max_version / 4,
            max_version * 2,
            max_version * 4,
            max_version * 16,
            usize::MAX,
        ]
    };
    for bc in bcs {
        let p = agglo(&bip, bc, DEFAULT_WINDOW);
        let label = if bc == usize::MAX {
            "BC=∞".to_string()
        } else {
            format!("BC={bc}")
        };
        push("AGGLO", label, p);
    }

    // KMEANS: sweep K (the paper could only finish small K on big data).
    let ks: Vec<usize> = if heavy {
        vec![5, 10]
    } else {
        vec![2, 4, 8, 16, 32]
    };
    for k in ks {
        let p = kmeans(&bip, k, usize::MAX, 7);
        push("KMEANS", format!("K={k}"), p);
    }

    out
}

pub fn run() -> String {
    let mut text =
        String::from("Figure 9: storage size vs checkout time (LyreSplit / AGGLO / KMEANS)\n");
    for spec in partitioning_datasets() {
        let points = sweep_dataset(&spec);
        let mut report = Report::new(&[
            "dataset",
            "algo",
            "param",
            "parts",
            "S_records",
            "est_Cavg",
            "checkout_ms",
        ]);
        for p in &points {
            report.row(vec![
                p.dataset.clone(),
                p.algo.to_string(),
                p.param.clone(),
                p.partitions.to_string(),
                p.storage_records.to_string(),
                format!("{:.0}", p.est_cavg),
                ms(p.measured_ms),
            ]);
        }
        text.push_str(&report.render());
        text.push('\n');
    }
    text
}

/// Appendix D.2 (Figures 20–23): cost-model validation from the same sweep.
pub fn run_appendix() -> String {
    let mut text = String::from(
        "Figures 20/21 (estimated storage vs estimated checkout cost) and \
         22/23 (estimated checkout cost vs real time)\n",
    );
    // A subset of datasets suffices for the correlation plots.
    for spec in [&partitioning_datasets()[0], &partitioning_datasets()[3]] {
        let points = sweep_dataset(spec);
        let mut report = Report::new(&[
            "dataset",
            "algo",
            "est_S_records",
            "est_Cavg",
            "measured_ms",
            "ms_per_1k_records",
        ]);
        for p in &points {
            let per_k = if p.est_cavg > 0.0 {
                p.measured_ms / (p.est_cavg / 1000.0)
            } else {
                0.0
            };
            report.row(vec![
                p.dataset.clone(),
                p.algo.to_string(),
                p.storage_records.to_string(),
                format!("{:.0}", p.est_cavg),
                ms(p.measured_ms),
                format!("{per_k:.3}"),
            ]);
        }
        text.push_str(&report.render());
        text.push('\n');
    }
    text.push_str(
        "Linearity check: ms_per_1k_records should be roughly constant per dataset \
         (checkout time ∝ estimated cost, Appendix D.2).\n",
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadKind, WorkloadParams};

    #[test]
    fn sweep_produces_tradeoff_on_tiny_data() {
        let spec = DatasetSpec {
            paper_name: "SCI_TINY",
            name: "SCI_TINY",
            kind: WorkloadKind::Sci,
            versions: 30,
            branches: 5,
            inserts: 40,
        };
        let points = sweep_dataset(&spec);
        assert!(points.iter().any(|p| p.algo == "LyreSplit"));
        assert!(points.iter().any(|p| p.algo == "AGGLO"));
        assert!(points.iter().any(|p| p.algo == "KMEANS"));
        // Within LyreSplit, more storage should buy equal-or-lower cost.
        let mut lyre: Vec<&SweepPoint> = points.iter().filter(|p| p.algo == "LyreSplit").collect();
        lyre.sort_by_key(|p| p.storage_records);
        for pair in lyre.windows(2) {
            assert!(
                pair[1].est_cavg <= pair[0].est_cavg * 1.3 + 1.0,
                "checkout cost should trend down as storage grows"
            );
        }
    }

    #[test]
    fn measured_time_is_positive() {
        let w = Workload::generate(WorkloadParams::sci(10, 2, 20));
        let part = Partitioning::single(10);
        let t = measure_partitioning(&w, &part);
        assert!(t > 0.0);
    }
}

//! Bulk-load a generated workload into an OrpheusDB CVD under any data
//! model, bypassing the commit-time diff (the generator already knows
//! which rids are new) but writing through the same persistence paths the
//! production commit uses.

use orpheus_core::cvd::{Cvd, VersionMeta};
use orpheus_core::model::{self, CommitData, ModelKind};
use orpheus_core::{OrpheusDB, Result, Vid};
use orpheus_engine::{Column, DataType, Schema, Value};

use crate::generator::Workload;

/// Schema used for benchmark CVDs: `attrs` integer columns `a0..aN`, no
/// primary key (the benchmark's records are identified by rid alone).
pub fn bench_schema(attrs: usize) -> Schema {
    Schema::new(
        (0..attrs)
            .map(|i| Column::new(format!("a{i}"), DataType::Int))
            .collect(),
    )
}

/// Load a workload as a CVD named `name` into the database.
pub fn load_workload(
    odb: &mut OrpheusDB,
    name: &str,
    workload: &Workload,
    model: ModelKind,
) -> Result<()> {
    let schema = bench_schema(workload.params.attrs);
    let mut cvd = Cvd::new(name, schema, model);
    model::init_storage(&mut odb.engine, &cvd)?;
    cvd.create_meta_tables(&mut odb.engine)?;

    for v in 0..workload.num_versions() {
        let vid = Vid(v as u64 + 1);
        let rlist: Vec<i64> = workload.version_rids[v]
            .iter()
            .map(|&r| r as i64 + 1)
            .collect();
        let new_rids = workload.new_rids_of(v);
        let new_set: std::collections::HashSet<usize> = new_rids.iter().copied().collect();
        let new_records: Vec<(i64, Vec<Value>)> = new_rids
            .iter()
            .map(|&r| (r as i64 + 1, values_of(workload, r)))
            .collect();
        let kept: Vec<i64> = workload.version_rids[v]
            .iter()
            .filter(|r| !new_set.contains(r))
            .map(|&r| r as i64 + 1)
            .collect();
        // Only the table-per-version and delta models read all_records
        // (TPV copies everything; delta diffs against the base parent);
        // skip materializing it otherwise to keep loading fast.
        let all_records: Vec<(i64, Vec<Value>)> =
            if model == ModelKind::TablePerVersion || model == ModelKind::DeltaBased {
                workload.version_rids[v]
                    .iter()
                    .map(|&r| (r as i64 + 1, values_of(workload, r)))
                    .collect()
            } else {
                new_records.clone()
            };
        let parents: Vec<Vid> = workload.parents[v]
            .iter()
            .map(|&p| Vid(p as u64 + 1))
            .collect();
        // One sorted-merge overlap pass per parent feeds both the base
        // choice and the stored weights (same as the production commit).
        let parent_weights = cvd.parent_overlaps(&rlist, &parents);
        let base = parents
            .iter()
            .copied()
            .zip(parent_weights.iter().copied())
            .max_by_key(|&(_, w)| w)
            .map(|(p, _)| p);
        let deleted_from_base = match base {
            Some(b) => orpheus_core::cvd::sorted_difference(cvd.rids_of(b)?, &rlist),
            None => Vec::new(),
        };
        let data = CommitData {
            vid,
            rlist: rlist.clone(),
            kept,
            new_records,
            all_records,
            base,
            deleted_from_base,
        };
        model::persist_commit(&mut odb.engine, &cvd, &data, false)?;
        let attributes = {
            let schema = cvd.schema.clone();
            cvd.attrs.intern_schema(&schema)
        };
        cvd.push_version(
            VersionMeta {
                vid,
                parents,
                parent_weights,
                checkout_t: None,
                commit_t: vid.0,
                message: String::new(),
                attributes,
                num_records: rlist.len() as u64,
                base,
            },
            rlist,
        );
        cvd.next_rid = cvd.next_rid.max(workload.num_records as u64 + 1);
    }
    odb.import_cvd(cvd)?;
    Ok(())
}

fn values_of(workload: &Workload, rid: usize) -> Vec<Value> {
    workload
        .record_values(rid)
        .into_iter()
        .map(Value::Int)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadParams;

    #[test]
    fn loads_under_every_model_and_versions_agree() {
        let w = Workload::generate(WorkloadParams::sci(20, 4, 25));
        let mut counts: Vec<Vec<usize>> = Vec::new();
        for model in ModelKind::ALL {
            let mut odb = OrpheusDB::new();
            load_workload(&mut odb, "bench", &w, model).unwrap();
            let cvd = odb.cvd("bench").unwrap();
            assert_eq!(cvd.num_versions(), 20);
            let per_version: Vec<usize> = (1..=20u64)
                .map(|v| odb.version_rows("bench", Vid(v)).unwrap().len())
                .collect();
            counts.push(per_version);
        }
        // All five models materialize identical version contents.
        for c in &counts[1..] {
            assert_eq!(c, &counts[0]);
        }
        // And they match the generator's ground truth.
        for (v, &n) in counts[0].iter().enumerate() {
            assert_eq!(n, w.version_rids[v].len());
        }
    }

    #[test]
    fn checkout_commit_work_after_bulk_load() {
        let w = Workload::generate(WorkloadParams::sci(10, 3, 15));
        let mut odb = OrpheusDB::new();
        load_workload(&mut odb, "bench", &w, ModelKind::SplitByRlist).unwrap();
        odb.checkout("bench", &[Vid(10)], "work").unwrap();
        odb.engine
            .execute("INSERT INTO work VALUES (NULL, 1, 2, 3, 4, 5, 6, 7, 8)")
            .unwrap();
        let v11 = odb.commit("work", "post-load commit").unwrap();
        assert_eq!(v11, Vid(11));
        assert_eq!(
            odb.version_rows("bench", v11).unwrap().len(),
            w.version_rids[9].len() + 1
        );
    }
}

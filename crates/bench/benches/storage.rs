//! Criterion benches for the persistence layer: snapshot
//! serialize/deserialize throughput (the cost the CLI pays per durable
//! command).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use orpheus_bench::generator::{Workload, WorkloadParams};
use orpheus_bench::loader::load_workload;
use orpheus_core::persist;
use orpheus_core::{ModelKind, OrpheusDB};

fn workload_instance(versions: usize) -> OrpheusDB {
    let w = Workload::generate(WorkloadParams::sci(versions, 4, 50));
    let mut odb = OrpheusDB::new();
    load_workload(&mut odb, "d", &w, ModelKind::SplitByRlist).expect("load");
    odb
}

fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot");
    for versions in [20usize, 80] {
        let odb = workload_instance(versions);
        let bytes = persist::serialize(&odb);
        group.bench_with_input(BenchmarkId::new("serialize", versions), &odb, |b, odb| {
            b.iter(|| persist::serialize(odb))
        });
        group.bench_with_input(
            BenchmarkId::new("deserialize", versions),
            &bytes,
            |b, bytes| b.iter(|| persist::deserialize(bytes).expect("load")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);

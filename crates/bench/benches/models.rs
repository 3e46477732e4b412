//! Criterion microbenchmarks for Figure 3: per-model commit and checkout
//! latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use orpheus_bench::generator::{Workload, WorkloadParams};
use orpheus_bench::loader::load_workload;
use orpheus_core::{ModelKind, OrpheusDB, Vid};

fn workload() -> Workload {
    Workload::generate(WorkloadParams::sci(40, 6, 60))
}

fn bench_checkout(c: &mut Criterion) {
    let w = workload();
    let mut group = c.benchmark_group("fig3_checkout");
    group.sample_size(10);
    for model in ModelKind::ALL {
        let mut odb = OrpheusDB::new();
        load_workload(&mut odb, "bench", &w, model).expect("load");
        let latest = Vid(w.num_versions() as u64);
        let mut i = 0usize;
        group.bench_function(BenchmarkId::from_parameter(model.name()), |b| {
            b.iter(|| {
                let t = format!("co{i}");
                odb.checkout("bench", &[latest], &t).expect("checkout");
                odb.discard(&t).expect("discard");
                i += 1;
            })
        });
    }
    group.finish();
}

fn bench_commit(c: &mut Criterion) {
    let w = workload();
    let mut group = c.benchmark_group("fig3_commit");
    group.sample_size(10);
    for model in ModelKind::ALL {
        let mut odb = OrpheusDB::new();
        load_workload(&mut odb, "bench", &w, model).expect("load");
        let mut i = 0usize;
        group.bench_function(BenchmarkId::from_parameter(model.name()), |b| {
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    // Check out the current latest version (untimed setup).
                    let latest = Vid(odb.cvd("bench").expect("cvd").num_versions() as u64);
                    let t = format!("cm{i}");
                    i += 1;
                    odb.checkout("bench", &[latest], &t).expect("checkout");
                    let start = std::time::Instant::now();
                    odb.commit(&t, "bench commit").expect("commit");
                    total += start.elapsed();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_checkout, bench_commit);
criterion_main!(benches);

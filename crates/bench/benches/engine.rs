//! Criterion benchmarks for the engine substrate: the three join
//! strategies of Figure 19, array-containment scans, and partitioned vs.
//! unpartitioned checkout (Figures 12/13 in miniature).

use criterion::{criterion_group, criterion_main, Criterion};

use orpheus_bench::generator::{Workload, WorkloadParams};
use orpheus_bench::loader::load_workload;
use orpheus_core::{ModelKind, OrpheusDB, Vid};
use orpheus_engine::{Database, Value};

fn join_db(n: usize, k: usize) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE data (rid INT PRIMARY KEY, x INT, y INT)")
        .expect("create");
    db.execute("CREATE TABLE rl (rid_tmp INT)").expect("create");
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int((i % 13) as i64),
                Value::Int((i % 7) as i64),
            ]
        })
        .collect();
    db.table_mut("data")
        .expect("t")
        .insert_many(rows)
        .expect("fill");
    let rl: Vec<Vec<Value>> = (0..k)
        .map(|i| vec![Value::Int(((i * 7) % n) as i64)])
        .collect();
    db.table_mut("rl")
        .expect("t")
        .insert_many(rl)
        .expect("fill");
    db.execute("CLUSTER data USING (rid)").expect("cluster");
    db
}

fn bench_join_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig19_joins");
    group.sample_size(10);
    for strategy in ["hash", "merge", "inl"] {
        let mut db = join_db(50_000, 5_000);
        db.execute(&format!("SET join_strategy = '{strategy}'"))
            .expect("set");
        group.bench_function(strategy, |b| {
            b.iter(|| {
                db.query("SELECT count(*) FROM data AS d, rl WHERE d.rid = rl.rid_tmp")
                    .expect("join")
            })
        });
    }
    group.finish();
}

fn bench_containment_scan(c: &mut Criterion) {
    // The combined-table checkout primitive: ARRAY[v] <@ vlist over a scan.
    let mut db = Database::new();
    db.execute("CREATE TABLE t (rid INT PRIMARY KEY, vlist INT[])")
        .expect("create");
    let rows: Vec<Vec<Value>> = (0..20_000)
        .map(|i| {
            let vl: Vec<i64> = (0..(i % 10 + 1)).map(|v| v as i64 + 1).collect();
            vec![Value::Int(i as i64), Value::from(vl)]
        })
        .collect();
    db.table_mut("t")
        .expect("t")
        .insert_many(rows)
        .expect("fill");
    let mut group = c.benchmark_group("engine_scans");
    group.sample_size(10);
    group.bench_function("array_containment", |b| {
        b.iter(|| {
            db.query("SELECT count(*) FROM t WHERE ARRAY[5] <@ vlist")
                .expect("scan")
        })
    });
    group.bench_function("index_point_lookup", |b| {
        b.iter(|| {
            db.query("SELECT vlist FROM t WHERE rid = 17777")
                .expect("lookup")
        })
    });
    group.finish();
}

fn bench_partitioned_checkout(c: &mut Criterion) {
    let w = Workload::generate(WorkloadParams::sci(80, 12, 100));
    let latest = Vid(w.num_versions() as u64);

    let mut group = c.benchmark_group("fig12_checkout");
    group.sample_size(10);

    let mut plain = OrpheusDB::new();
    load_workload(&mut plain, "bench", &w, ModelKind::SplitByRlist).expect("load");
    let mut i = 0usize;
    group.bench_function("unpartitioned", |b| {
        b.iter(|| {
            let t = format!("a{i}");
            plain.checkout("bench", &[latest], &t).expect("checkout");
            plain.discard(&t).expect("discard");
            i += 1;
        })
    });

    let mut parted = OrpheusDB::new();
    load_workload(&mut parted, "bench", &w, ModelKind::SplitByRlist).expect("load");
    parted.optimize_with("bench", 2.0, 1.5).expect("optimize");
    let mut j = 0usize;
    group.bench_function("lyresplit_gamma2", |b| {
        b.iter(|| {
            let t = format!("b{j}");
            parted.checkout("bench", &[latest], &t).expect("checkout");
            parted.discard(&t).expect("discard");
            j += 1;
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_join_strategies,
    bench_containment_scan,
    bench_partitioned_checkout
);
criterion_main!(benches);

//! Runs the two correctness gates — `differential` (one sequential
//! client per executor arm against the oracle) and `storm` (many
//! concurrent clients per served arm against a sequential run) — and then
//! every experiment in sequence (Table 2 and all figures), printing each
//! paper-style report as it completes and writing a machine-readable
//! artifact (`harness::write_bench_json`).
//!
//! Knobs:
//! * `ORPHEUS_SCALE={smoke,ci,paper}` (or a numeric figure-dataset
//!   multiplier) — picks the gates' tier and scales the figure datasets;
//! * `ORPHEUS_EXPERIMENTS=differential,storm,table2,…` — run only the
//!   named sections (default: all);
//! * `ORPHEUS_DIFF_ARMS=inproc,concurrent,async,remote,wal_reopen` —
//!   override the gates' arms (default: all five; `paper` defaults to
//!   `inproc,concurrent` to bound the stress job's time and WAL volume).
//!   `inproc` is the storm's reference, not one of its arms;
//! * `ORPHEUS_TRIALS` — timing repetition count for the figure sections.
//!
//! The gates run first and a divergence exits non-zero with a
//! reproduction line, so CI fails before any timing noise is even
//! measured. Neither gate judges speed: that is `perf_ledger compare`.
use std::io::Write;
use std::time::Instant;

use orpheus_bench::datasets::{self, ScaleTier};
use orpheus_bench::differential::{run_differential, Arm, DiffConfig};
use orpheus_bench::harness::{self, JsonObject};
use orpheus_bench::storm::{run_storm, StormConfig};
use orpheus_core::ModelKind;

fn main() {
    let tier = datasets::tier();
    let filter: Option<Vec<String>> = std::env::var("ORPHEUS_EXPERIMENTS")
        .ok()
        .map(|s| s.split(',').map(|n| n.trim().to_string()).collect());
    let enabled = |name: &str| filter.as_ref().is_none_or(|f| f.iter().any(|n| n == name));

    let mut json = JsonObject::new()
        .str("scale", tier.name())
        .int("scale_multiplier", datasets::scale() as u64)
        .int("trials", harness::trials() as u64);

    let arms = match std::env::var("ORPHEUS_DIFF_ARMS") {
        Ok(s) => Arm::parse_list(&s).unwrap_or_else(|e| {
            eprintln!("ORPHEUS_DIFF_ARMS: {e}");
            std::process::exit(2);
        }),
        // The paper tier bounds stress-job time and WAL volume by
        // default; the smaller tiers run every arm.
        Err(_) if tier == ScaleTier::Paper => vec![Arm::InProcess, Arm::Concurrent],
        Err(_) => Arm::ALL.to_vec(),
    };

    if enabled("differential") {
        println!("==================== differential ====================");
        let params = tier.history();
        let cfg = DiffConfig {
            params: params.clone(),
            model: ModelKind::SplitByRlist,
            arms: arms.clone(),
            checkout_samples: tier.checkout_samples(),
            label: tier.name().to_string(),
        };
        let stats = run_differential(&cfg).unwrap_or_else(|e| {
            eprintln!("DIFFERENTIAL GATE FAILED\n{e}");
            std::process::exit(1);
        });
        let mut arms_json = JsonObject::new();
        for s in &stats {
            println!(
                "{:<12} {:>8} req  {:>10.0} req/s  p50 {:>9.1}us  p99 {:>10.1}us",
                s.arm, s.requests, s.req_per_s, s.p50_us, s.p99_us
            );
            arms_json = arms_json.obj(
                s.arm,
                JsonObject::new()
                    .int("requests", s.requests as u64)
                    .num("elapsed_s", s.elapsed_s)
                    .num("req_per_s", s.req_per_s)
                    .num("p50_us", s.p50_us)
                    .num("p99_us", s.p99_us),
            );
        }
        let (versions, records) = stats
            .first()
            .map(|s| (s.versions, s.records))
            .unwrap_or((params.versions, 0));
        println!(
            "history: {versions} versions, {records} records, seed {}",
            params.seed
        );
        if tier == ScaleTier::Paper && (records < 1_000_000 || versions < 500) {
            eprintln!(
                "paper tier must replay a >=1M-record, >=500-version history; \
                 got {records} records over {versions} versions"
            );
            std::process::exit(1);
        }
        json = json.obj(
            "differential",
            JsonObject::new()
                .str("model", "SplitByRlist")
                .int("seed", params.seed)
                .int("versions", versions as u64)
                .int("records", records as u64)
                .obj("arms", arms_json),
        );
        std::io::stdout().flush().expect("flush stdout");
    }

    if enabled("storm") {
        println!("==================== storm ====================");
        let shape = tier.storm();
        let cfg = StormConfig {
            shape,
            arms,
            label: tier.name().to_string(),
        };
        let cells = run_storm(&cfg).unwrap_or_else(|e| {
            eprintln!("STORM GATE FAILED\n{e}");
            std::process::exit(1);
        });
        let mut cells_json = JsonObject::new();
        for c in &cells {
            println!(
                "{:<12} {:<8} {:>6} req  {:>7.2}s  equal to the sequential reference",
                c.arm, c.mode, c.requests, c.elapsed_s
            );
            cells_json = cells_json.obj(
                &format!("{}_{}", c.arm, c.mode),
                JsonObject::new()
                    .int("requests", c.requests as u64)
                    .num("elapsed_s", c.elapsed_s),
            );
        }
        println!(
            "storm: {} clients on {} CVDs of {} records, {} rounds of {} exports + checkout + commit",
            shape.clients, shape.cvds, shape.records, shape.ops, shape.cluster
        );
        json = json.obj(
            "storm",
            JsonObject::new()
                .int("clients", shape.clients as u64)
                .int("cvds", shape.cvds as u64)
                .obj("cells", cells_json),
        );
        std::io::stdout().flush().expect("flush stdout");
    }

    use orpheus_bench::experiments as e;
    type Section = (&'static str, fn() -> String);
    let figures: [Section; 9] = [
        ("table2", e::table2::run),
        ("fig10_11", e::fig10_11::run),
        ("fig14_15", e::fig14_15::run),
        ("fig19", e::fig19::run),
        ("fig12_13", e::fig12_13::run),
        ("fig3", e::fig3::run),
        ("fig9", e::fig9::run),
        ("fig20_23", e::fig9::run_appendix),
        ("compression", e::compression::run),
    ];
    let mut sections = JsonObject::new();
    for (name, f) in figures {
        if !enabled(name) {
            continue;
        }
        println!("==================== {name} ====================");
        let t = Instant::now();
        let out = f();
        let elapsed = t.elapsed().as_secs_f64();
        println!("{out}");
        std::io::stdout().flush().expect("flush stdout");
        sections = sections.num(name, elapsed);
    }
    json = json.obj("sections_elapsed_s", sections);

    match harness::write_bench_json("experiments", json) {
        Ok(path) => println!("wrote {path}"),
        Err(err) => {
            eprintln!("cannot write the experiments artifact: {err}");
            std::process::exit(1);
        }
    }
}

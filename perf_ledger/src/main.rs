//! `perf_ledger` — the repo's measuring stick: one benchmark, four
//! workloads, every layer. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! perf_ledger --workload <name> --seed <n> --seconds <n> --trace <0|1> [--out <file>]
//! perf_ledger --seed <n>                 # all four workloads, tracing off
//! perf_ledger --smoke                    # tiny shapes, both modes, < 10 s
//! perf_ledger compare <a.jsonl> <b.jsonl>
//! perf_ledger manifest                   # the text of BENCHMARK.json
//! ```

mod alloc;
mod compare;
mod json;
mod load;
mod metrics;
mod stacks;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use std::io::Write;
use std::path::PathBuf;

use metrics::{Outcome, END_TO_END, WORKLOADS};
use workloads::RunCtx;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: load::DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `perf_ledger/.run/` in the checkout the binary was built in: trace
/// files, and under it one scratch directory per run (WAL directories),
/// named by process so parallel runs never share.
fn scratch_dir(run: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(format!("{}-{run}", std::process::id()))
}

/// The contract's result object, as one line.
fn result_json(out: &Outcome, names: &[String]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let m = out.metrics.iter().find(|m| &m.name == name);
            let (value, unit) = m.map_or((0.0, "count"), |m| (m.value, m.unit));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(value),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Run one workload one way, in a scratch directory of its own.
fn measure(workload: &str, trace: bool, ctx: &RunCtx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let result = if trace {
        trace::run(workload, ctx)
    } else {
        workloads::run(workload, ctx)
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    result
}

/// The metric names the contract wants in the result object.
fn contract_names(trace: bool) -> Vec<String> {
    if trace {
        metrics::per_layer()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect()
    } else {
        END_TO_END.iter().map(|(n, ..)| n.to_string()).collect()
    }
}

fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        scratch: scratch_dir(workload),
    };
    let out = measure(workload, args.trace, &ctx)?;
    let names = contract_names(args.trace);
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let io = |e: std::io::Error| format!("stdout: {e}");
    for m in &out.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  # {}", m.note)
        };
        writeln!(
            w,
            "{workload} {} {} {}{note}",
            m.name,
            json::number(m.value),
            m.unit
        )
        .map_err(io)?;
    }
    let failed_pct = 100.0 * out.failed as f64 / out.attempted.max(1) as f64;
    writeln!(
        w,
        "{workload} failed_ops_pct {failed_pct} %  # {} of {}",
        out.failed, out.attempted
    )
    .map_err(io)?;
    for e in &out.errors {
        writeln!(w, "{workload} FAILED: {e}").map_err(io)?;
    }
    for d in &out.known_defects {
        writeln!(w, "{workload} KNOWN-DEFECT: {d}").map_err(io)?;
    }
    let line = result_json(&out, &names);
    if let Some(path) = &args.out {
        // The ledger file keeps every line the run printed, not only
        // the contract's names.
        let every: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        let line = result_json(&out, &every);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(
            f,
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"result\": {line}}}",
            json::quote(workload),
            args.seed,
            u8::from(args.trace)
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    writeln!(w, "{line}").map_err(io)?;
    Ok(out.correct())
}

fn real_main() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("usage: perf_ledger compare <a.jsonl> <b.jsonl>".into());
        };
        return Ok(if compare::run(a.as_ref(), b.as_ref())? {
            0
        } else {
            1
        });
    }
    if argv.first().map(String::as_str) == Some("manifest") {
        print!("{}", metrics::manifest());
        return Ok(0);
    }
    let args = parse_args(&argv)?;
    load::check_fingerprints()?;
    println!(
        "# box: {} cores, {} async workers; seed {}, {} s, trace {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        stacks::async_workers(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let Some(workload) = &args.workload else {
        return run_all(&args);
    };
    let correct = run_one(workload, &args)?;
    // A wrong answer under the driver is a result (`"correct": false`),
    // not a crash; only the smoke run turns it into an exit code.
    Ok(if args.smoke && !correct { 1 } else { 0 })
}

/// No `--workload`: every workload in a process of its own (peak RSS and
/// the allocation counter are per process), tracing off — and, under
/// `--smoke`, on as well. Each child is waited for before the next starts.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let traces: &[bool] = if args.smoke {
        &[false, true]
    } else {
        &[args.trace]
    };
    let mut code = 0;
    for &trace in traces {
        for workload in WORKLOADS {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            if let Some(out) = &args.out {
                child.arg("--out").arg(out);
            }
            let status = child.status().map_err(|e| format!("{workload}: {e}"))?;
            code = code.max(status.code().unwrap_or(2));
        }
    }
    Ok(code)
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke`, end to end: all four workloads, tracing off and on, the
    /// oracle checking every answer. Seconds in a release build.
    #[test]
    fn smoke_runs_every_workload_both_ways_and_the_oracle_agrees() {
        load::check_fingerprints().unwrap();
        for trace in [false, true] {
            for workload in WORKLOADS {
                let ctx = RunCtx {
                    seed: 7,
                    seconds: 1.0,
                    smoke: true,
                    scratch: scratch_dir(&format!("smoke-{workload}-{trace}")),
                };
                let out = measure(workload, trace, &ctx).unwrap();
                assert!(out.correct(), "{workload} trace={trace}: {:?}", out.errors);
                assert!(out.attempted > 0);
                for name in contract_names(trace) {
                    let value = out
                        .get(&name)
                        .unwrap_or_else(|| panic!("{workload}: no {name}"));
                    assert!(value.is_finite(), "{workload} {name}");
                    // A user-visible metric that reads 0 measures nothing.
                    // (Peak RSS is per process, and this test runs all
                    // eight in one: only the first can move VmHWM.)
                    let shared = name == "peak_rss_bytes_per_record";
                    assert!(
                        trace || shared || value > 0.0,
                        "{workload} {name} = {value}"
                    );
                }
                let line = result_json(&out, &contract_names(trace));
                let parsed = json::parse(&line).unwrap();
                assert_eq!(parsed.get("correct"), Some(&json::Json::Bool(true)));
            }
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let ok = parse("--workload mixed_served --seed 9 --seconds 15 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 15.0, true));
        assert_eq!(ok.workload.as_deref(), Some("mixed_served"));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
    }
}

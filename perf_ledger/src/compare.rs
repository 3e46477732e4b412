//! `perf_ledger compare <a.jsonl> <b.jsonl>`: apply each end-to-end
//! metric's bound, per workload, to two sets of runs written with `--out`.
//!
//! One row per (workload, metric): both medians, the ratio `b/a` **with
//! `a` as its base**, and a verdict — `ok`, `worse` (b's median is worse
//! than a's by more than the bound), or `unresolved` (either side's own
//! runs spread wider than the bound, so the pair cannot tell). Exits
//! non-zero on any `worse`, or when `b` failed a larger share of its ops.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{Better, ALSO_COMPARED, END_TO_END};
use crate::stats::{iqr_share, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `a` is the base, `b` the candidate.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if iqr_share(a) > bound || iqr_share(b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Untraced runs of one file: `workload → metric → values`, plus
/// `workload → (failed, attempted)` summed over its runs.
#[derive(Default)]
struct Runs {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failures: BTreeMap<String, (f64, f64)>,
}

fn read_runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let v = json::parse(line).map_err(|e| at(&e))?;
        if v.get("trace").and_then(Json::num) != Some(0.0) {
            continue; // per-layer lines carry no bounds
        }
        let workload = v
            .get("workload")
            .and_then(Json::str)
            .ok_or(at("no workload"))?;
        let result = v.get("result").ok_or(at("no result"))?;
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(at("no metrics"));
        };
        let per_metric = runs.values.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::num)
                .ok_or(at("metric without value"))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
        let count = |key: &str| result.get(key).and_then(Json::num).unwrap_or(0.0);
        let f = runs
            .failures
            .entry(workload.to_string())
            .or_insert((0.0, 0.0));
        f.0 += count("failed");
        f.1 += count("attempted");
    }
    Ok(runs)
}

pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (read_runs(a)?, read_runs(b)?);
    let mut pass = true;
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>16} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "b/a (base a)", "bound"
    );
    for (workload, metrics_a) in &ra.values {
        let Some(metrics_b) = rb.values.get(workload) else {
            println!("{workload:<18} missing from {}", b.display());
            pass = false;
            continue;
        };
        for (name, _, better, bound) in END_TO_END.into_iter().chain(ALSO_COMPARED) {
            let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                continue;
            };
            let v = verdict(va, vb, better, bound);
            pass &= v != Verdict::Worse;
            let (ma, mb) = (median(va), median(vb));
            println!(
                "{workload:<18} {name:<28} {ma:>14.3} {mb:>14.3} {:>16.4} {:>6.0}%  {}",
                mb / ma,
                bound * 100.0,
                v.name()
            );
        }
        let share = |(failed, attempted): (f64, f64)| 100.0 * failed / attempted.max(1.0);
        let fa = share(ra.failures.get(workload).copied().unwrap_or_default());
        let fb = share(rb.failures.get(workload).copied().unwrap_or_default());
        let v = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        pass &= v == Verdict::Ok;
        println!(
            "{workload:<18} {:<28} {fa:>14.3} {fb:>14.3} {:>16} {:>6}%  {}",
            "failed_ops_pct",
            "-",
            0,
            v.name()
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_at_inside_and_outside_a_bound() {
        let a = [100.0, 100.0, 100.0];
        // Lower is better, bound 10 %: exactly at the bound is still ok.
        assert_eq!(verdict(&a, &[110.0; 3], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(&a, &[105.0; 3], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&a, &[111.0; 3], Better::Lower, 0.10),
            Verdict::Worse
        );
        // Getting better is never worse, however far.
        assert_eq!(verdict(&a, &[10.0; 3], Better::Lower, 0.10), Verdict::Ok);
        // Higher is better: the direction flips.
        assert_eq!(
            verdict(&a, &[89.0; 3], Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(verdict(&a, &[90.0; 3], Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(verdict(&a, &[300.0; 3], Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let steady = [100.0; 10];
        let noisy: Vec<f64> = (0..10).map(|i| 70.0 + 6.0 * i as f64).collect();
        assert_eq!(
            verdict(&steady, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &steady, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // The same noise under a wide enough bound resolves.
        assert_eq!(verdict(&steady, &noisy, Better::Lower, 0.50), Verdict::Ok);
    }

    #[test]
    fn compares_two_ledger_files() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".run")
            .join(format!("compare_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |checkout: f64, failed: u32| {
            format!(
                "{{\"workload\": \"read_inproc\", \"seed\": 1, \"trace\": 0, \"result\": \
                 {{\"correct\": true, \"attempted\": 100, \"failed\": {failed}, \"metrics\": \
                 {{\"checkout_p50_us\": {{\"value\": {checkout}, \"unit\": \"us\"}}}}}}}}\n"
            )
        };
        let write = |name: &str, text: String| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p
        };
        let base = write("a.jsonl", line(100.0, 0).repeat(3));
        let same = write("b.jsonl", line(104.0, 0).repeat(3));
        let slow = write("c.jsonl", line(140.0, 0).repeat(3));
        let flaky = write("d.jsonl", line(100.0, 2).repeat(3));
        assert!(run(&base, &same).unwrap());
        assert!(!run(&base, &slow).unwrap());
        assert!(!run(&base, &flaky).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

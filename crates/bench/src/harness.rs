//! Experiment harness: the paper's timing protocol, table rendering, and
//! the bus-level workload driver.
//!
//! Section 5.1: "Each experiment was repeated 5 times ... we discarded the
//! largest and smallest number among the five trials, and then took the
//! average of the remaining three." [`time_op`] implements exactly that
//! protocol (with a configurable trial count for quick runs).
//!
//! Command-level workloads run through the typed request bus via
//! [`drive`]: a stream of [`Request`]s is executed on any
//! [`Executor`] (an `OrpheusDB` or a `Session`) with per-command timing,
//! so future executors that batch or dispatch asynchronously can be
//! measured against the sequential baseline without changing the workload
//! definition.

use std::time::Instant;

use orpheus_core::request::{CommandKind, Executor, Request};
use orpheus_core::{Checkout, Commit, CoreError, Discard, Result};

/// Run `op` `trials` times, drop the fastest and slowest trial (when there
/// are at least three), and return the mean of the rest in milliseconds.
pub fn time_op<F: FnMut()>(trials: usize, mut op: F) -> f64 {
    let trials = trials.max(1);
    let mut samples = Vec::with_capacity(trials);
    for _ in 0..trials {
        let start = Instant::now();
        op();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    protocol_mean(samples)
}

/// The paper's aggregation: drop the fastest and slowest sample (when
/// there are at least three) and average the rest.
fn protocol_mean(mut samples: Vec<f64>) -> f64 {
    assert!(
        !samples.is_empty(),
        "protocol_mean needs at least one sample"
    );
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let kept: &[f64] = if samples.len() >= 3 {
        &samples[1..samples.len() - 1]
    } else {
        &samples
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank percentile of a sample set (`p` in 0..=100). Sorts the
/// samples in place; returns 0.0 for an empty set. The differential arms
/// report p50/p99 request latencies through this.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Time a single run (for expensive operations where repetition is
/// impractical, e.g. full dataset loads).
pub fn time_once<T, F: FnOnce() -> T>(op: F) -> (T, f64) {
    let start = Instant::now();
    let out = op();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Number of timing trials (default 3; `ORPHEUS_TRIALS` overrides — the
/// paper uses 5).
pub fn trials() -> usize {
    env_usize("ORPHEUS_TRIALS", 3).max(1)
}

/// Read a `usize` knob from the environment, falling back to `default`
/// when unset or unparsable. Callers with a lower bound clamp at the use
/// site (e.g. `.max(1)`).
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(default)
}

/// Write a machine-readable benchmark artifact as `BENCH_<name>.json`
/// into `ORPHEUS_BENCH_OUT` (default: the working directory). Returns the
/// path written. Every artifact is stamped with the detected hardware
/// parallelism (1 when detection fails), so a result recorded on a 1-core
/// container is never mistaken for a claim about the design.
pub fn write_bench_json(name: &str, json: JsonObject) -> Result<String> {
    let out_dir = std::env::var("ORPHEUS_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = format!("{out_dir}/BENCH_{name}.json");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamped = json.int("cores", cores as u64);
    std::fs::write(&path, format!("{}\n", stamped.render()))
        .map_err(|e| CoreError::Io(format!("cannot write {path}: {e}")))?;
    Ok(path)
}

/// Per-command timing of one bus-driven workload run.
#[derive(Debug, Default)]
pub struct BusStats {
    /// Total wall-clock of the whole stream, in milliseconds.
    pub total_ms: f64,
    /// (command, executions, total milliseconds), in first-seen order.
    pub per_command: Vec<(CommandKind, usize, f64)>,
}

impl BusStats {
    fn record(&mut self, kind: CommandKind, ms: f64) {
        match self.per_command.iter_mut().find(|(k, _, _)| *k == kind) {
            Some((_, count, total)) => {
                *count += 1;
                *total += ms;
            }
            None => self.per_command.push((kind, 1, ms)),
        }
        self.total_ms += ms;
    }

    /// Number of requests executed.
    pub fn requests(&self) -> usize {
        self.per_command.iter().map(|(_, n, _)| n).sum()
    }
}

/// Execute a request stream on any executor, timing every command. Stops
/// at (and returns) the first error, so workloads fail loudly.
pub fn drive<E: Executor>(
    executor: &mut E,
    requests: impl IntoIterator<Item = Request>,
) -> Result<BusStats> {
    let mut stats = BusStats::default();
    for request in requests {
        let kind = request.kind();
        let start = Instant::now();
        executor.execute(request)?;
        stats.record(kind, start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats)
}

/// Like [`drive`], but submitting the whole stream as one
/// [`Executor::batch`] call, so batching executors get to coalesce lock
/// acquisitions and version-row scans (and a remote one ships one frame).
///
/// Timing is necessarily per batch; the per-command breakdown attributes
/// the wall time evenly across the requests, so treat `ms_per_op` as an
/// amortized figure. Like [`drive`], the first per-request error is
/// returned, so workloads fail loudly.
pub fn drive_batched<E: Executor>(executor: &mut E, requests: Vec<Request>) -> Result<BusStats> {
    let mut stats = BusStats::default();
    let kinds: Vec<CommandKind> = requests.iter().map(Request::kind).collect();
    let start = Instant::now();
    let results = executor.batch(requests);
    let per_request_ms = start.elapsed().as_secs_f64() * 1e3 / kinds.len().max(1) as f64;
    for (kind, result) in kinds.into_iter().zip(results) {
        result?;
        stats.record(kind, per_request_ms);
    }
    Ok(stats)
}

/// The bus workload behind the paper's checkout experiments: check each
/// sampled version out into a scratch table and discard it again.
pub fn checkout_storm(cvd: &str, versions: &[u64]) -> Vec<Request> {
    let mut requests = Vec::with_capacity(versions.len() * 2);
    for (i, &v) in versions.iter().enumerate() {
        let table = format!("__bus_co_{i}_{v}");
        requests.push(Checkout::of(cvd).version(v).into_table(&table).into());
        requests.push(Discard::table(table).into());
    }
    requests
}

/// Per-client request stream of the crash gate: `ops` rounds of
/// checkout → commit against one CVD. Table names embed the thread id so
/// streams from different threads never collide, whichever executor runs
/// them.
pub fn contention_storm(cvd: &str, thread: usize, ops: usize) -> Vec<Request> {
    let mut requests = Vec::with_capacity(ops * 2);
    for i in 0..ops {
        let table = format!("__storm_t{thread}_{i}");
        requests.push(Checkout::of(cvd).version(1u64).into_table(&table).into());
        requests.push(
            Commit::table(&table)
                .message(format!("storm thread {thread} op {i}"))
                .into(),
        );
    }
    requests
}

/// Read-heavy variant of [`contention_storm`]: each round exports the
/// same version as CSV `cluster` times (distinct export paths, identical
/// version set — the profile of many clients pulling the current dataset,
/// which Section 6's workloads show dominating commits), then runs one
/// checkout → commit round exactly like [`contention_storm`]. The
/// repeated identical exports are the shared-scan opportunity a batching
/// or async executor can exploit *across* interleaved clients of one
/// CVD, which per-request sessions structurally cannot: the version
/// merge runs once per sub-batch instead of once per export.
/// `cluster == 0` degenerates to the plain `contention_storm` shape.
///
/// The exported CSVs stay registered in the staging area (a real client
/// would `commit -f` or abandon them later), so outcome comparisons
/// should expect `ops * cluster` staged CSV entries per thread rather
/// than zero.
pub fn clustered_storm(cvd: &str, thread: usize, ops: usize, cluster: usize) -> Vec<Request> {
    let mut requests = Vec::with_capacity(ops * (cluster + 2));
    for i in 0..ops {
        for j in 0..cluster {
            let path = format!("__storm_t{thread}_{i}_{j}.csv");
            requests.push(Checkout::of(cvd).version(1u64).into_csv(path).into());
        }
        let table = format!("__storm_t{thread}_{i}");
        requests.push(Checkout::of(cvd).version(1u64).into_table(&table).into());
        requests.push(
            Commit::table(&table)
                .message(format!("storm thread {thread} op {i}"))
                .into(),
        );
    }
    requests
}

/// Minimal JSON object builder for the machine-readable `BENCH_*.json`
/// artifacts (the offline build has no serde).
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.fields
            .push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> JsonObject {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    pub fn num(mut self, key: &str, value: f64) -> JsonObject {
        let rendered = if value.is_finite() {
            format!("{value:.3}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    pub fn obj(mut self, key: &str, value: JsonObject) -> JsonObject {
        self.fields.push((key.to_string(), value.render()));
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Simple aligned-column table printer for experiment output.
#[derive(Debug, Default)]
pub struct Report {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    pub fn new(headers: &[&str]) -> Report {
        Report {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a byte count as MB with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Format milliseconds with three decimals.
pub fn ms(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_protocol_drops_extremes() {
        let mut calls = 0;
        let t = time_op(5, || {
            calls += 1;
        });
        assert_eq!(calls, 5);
        assert!(t >= 0.0);
    }

    #[test]
    fn time_once_returns_value() {
        let (v, t) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }

    #[test]
    fn report_renders_aligned_and_csv() {
        let mut r = Report::new(&["dataset", "time"]);
        r.row(vec!["SCI_40K".into(), "1.5".into()]);
        r.row(vec!["CUR_400K".into(), "12.25".into()]);
        let text = r.render();
        assert!(text.contains("dataset"));
        assert!(text.lines().count() >= 4);
        let csv = r.to_csv();
        assert!(csv.starts_with("dataset,time\n"));
        assert!(csv.contains("SCI_40K,1.5"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn report_rejects_ragged_rows() {
        let mut r = Report::new(&["a", "b"]);
        r.row(vec!["x".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mb(1024 * 1024), "1.00");
        assert_eq!(ms(1.23456), "1.235");
    }

    #[test]
    fn bus_driver_times_per_command() {
        use crate::generator::{Workload, WorkloadParams};
        use crate::loader::load_workload;
        use orpheus_core::{ModelKind, OrpheusDB, SharedOrpheusDB};

        let w = Workload::generate(WorkloadParams::sci(12, 3, 20));
        let mut odb = OrpheusDB::new();
        load_workload(&mut odb, "bench", &w, ModelKind::SplitByRlist).unwrap();

        // Direct executor.
        let stats = drive(&mut odb, checkout_storm("bench", &[1, 6, 12])).unwrap();
        assert_eq!(stats.requests(), 6);
        assert_eq!(stats.per_command.len(), 2);
        let (kind, count, total) = stats.per_command[0];
        assert_eq!(kind, CommandKind::Checkout);
        assert_eq!(count, 3);
        assert!(total >= 0.0);
        // The same stream drives a session over a shared instance.
        let shared = SharedOrpheusDB::new(odb);
        let mut session = shared.session("bench_user").unwrap();
        let stats = drive(&mut session, checkout_storm("bench", &[3, 9])).unwrap();
        assert_eq!(stats.requests(), 4);

        // ... and so does one batch, request for request.
        let stats = drive_batched(&mut session, checkout_storm("bench", &[3, 9])).unwrap();
        assert_eq!(stats.requests(), 4);

        // Errors surface instead of being swallowed.
        assert!(drive(&mut session, checkout_storm("nope", &[1])).is_err());
        assert!(drive_batched(&mut session, checkout_storm("nope", &[1])).is_err());
    }

    #[test]
    fn contention_storm_streams_are_disjoint_checkout_commit_pairs() {
        let a = contention_storm("cvd0", 0, 3);
        let b = contention_storm("cvd1", 1, 3);
        assert_eq!(a.len(), 6);
        for (i, req) in a.iter().enumerate() {
            let kind = req.kind();
            if i % 2 == 0 {
                assert_eq!(kind, CommandKind::Checkout);
            } else {
                assert_eq!(kind, CommandKind::Commit);
            }
        }
        // No table name appears in both threads' streams.
        let names = |reqs: &[Request]| -> Vec<String> {
            reqs.iter()
                .filter_map(|r| match r {
                    Request::Checkout(c) => Some(c.table.clone()),
                    _ => None,
                })
                .collect()
        };
        for n in names(&a) {
            assert!(!names(&b).contains(&n), "{n} collides");
        }
    }

    #[test]
    fn protocol_mean_drops_extremes() {
        assert_eq!(protocol_mean(vec![5.0]), 5.0);
        assert_eq!(protocol_mean(vec![1.0, 3.0]), 2.0);
        // 100 and 0 are dropped, the rest average to 2.
        assert_eq!(protocol_mean(vec![100.0, 2.0, 0.0, 2.0]), 2.0);
    }

    #[test]
    fn json_objects_render_valid_json() {
        let json = JsonObject::new()
            .str("bench", "contention_storm")
            .int("threads", 4)
            .num("speedup", 2.5)
            .obj(
                "nested",
                JsonObject::new().str("k", "quo\"te").num("nan", f64::NAN),
            )
            .render();
        assert_eq!(
            json,
            "{\"bench\": \"contention_storm\", \"threads\": 4, \"speedup\": 2.500, \
             \"nested\": {\"k\": \"quo\\\"te\", \"nan\": null}}"
        );
    }
}

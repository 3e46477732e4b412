//! How fast the machine is while a run measures.
//!
//! The reference box is two vCPUs of a shared host, and for minutes at a
//! stretch every timing on it moves by 10–50 % with the program unchanged.
//! Two causes can be told apart from inside the guest: the core's clock
//! steps between 1.77 and 2.18 ns per dependent multiply-add, and the
//! latency of a load that misses the core's own caches wanders between
//! 190 and 330 ns. The program follows both (correlation about 0.9 with
//! each while the other holds still). Ten runs that straddle such an
//! episode cannot hold any bound the contract allows.
//!
//! So a run carries its own yardstick. Every [`EVERY`] of the timed phase
//! it stops for a *slice*: a chain of dependent loads through a table
//! sixteen times the core's L2, and a chain of dependent multiply-adds
//! that touches no memory. Both are fixed code in this file, so they move
//! only with the machine. The run's medians of the two, each over its
//! pinned nominal value, blended by [`MEMORY_SHARE`], are the run's
//! *machine index*: 1.0 on the reference box at its usual speed, 1.2 when
//! work of that blend takes a fifth longer. Latencies are reported divided
//! by it and throughput multiplied: microseconds of the reference box at
//! its usual speed. The raw value and the index are printed beside each.
//! A change to the program moves the normalised value exactly as it moves
//! the raw one; a change to this file is a change to the benchmark.
//!
//! What it buys (292 runs over one afternoon, all four workloads): the
//! run-to-run standard deviation of the timings falls by a quarter
//! overall and by half inside an episode (inter-quartile spread of ten
//! consecutive runs, worst window: checkout 25 % → 11 %, ops/s 19 % →
//! 7 %). What it does not: a third kind of episode, rarer, slows the
//! program by half while neither chain moves more than a fifth; no probe
//! tried (L2- and L3-sized chases, streaming reads, independent multiply
//! chains, sorting) followed it. The fit and the probes are written up in
//! the README beside `Cargo.toml`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Table entries: 16 Mi × 4 B = 64 MiB.
const TABLE_LEN: usize = 16 << 20;
/// Dependent loads per slice (about 0.5 ms).
const LOADS: usize = 2048;
/// Dependent multiply-adds per slice (about 0.13 ms).
const STEPS: usize = 65_536;
/// Time between slices of the timed phase: 1.6 % of it goes to slices.
const EVERY: Duration = Duration::from_millis(40);

/// Usual medians on the reference box, per load and per step.
const NOMINAL_MEM_NS: f64 = 250.0;
const NOMINAL_CPU_NS: f64 = 2.0;
/// The share of the index that follows the memory chain. Fitted once, to
/// the 292 runs above: the value that leaves the least run-to-run
/// variance in the normalised timings, pooled over workloads and metrics.
/// The minimum is flat from 0.3 to 0.5.
const MEMORY_SHARE: f64 = 0.4;

pub struct Yardstick {
    /// `table[i]` is the index to load next: a full-period linear
    /// congruential sequence over the table, so a chain started anywhere
    /// visits every entry before repeating and no prefetcher follows it.
    table: Vec<u32>,
    at: u32,
    seed: u64,
    mem_ns: Vec<f64>,
    cpu_ns: Vec<f64>,
    last: Instant,
    spent: Duration,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        // Hull–Dobell: modulus a power of two, increment odd, multiplier
        // ≡ 1 (mod 4) — every index is reached.
        let mask = TABLE_LEN as u32 - 1;
        let table: Vec<u32> = (0..TABLE_LEN as u32)
            .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & mask)
            .collect();
        let mut y = Yardstick {
            table,
            at: 0,
            seed: 1,
            // A minute of slices: `slice` never allocates, so the run's
            // allocation count stays the program's.
            mem_ns: Vec::with_capacity(2_048),
            cpu_ns: Vec::with_capacity(2_048),
            last: Instant::now(),
            spent: Duration::ZERO,
        };
        // Unrecorded: first touches.
        y.slice();
        y.mem_ns.clear();
        y.cpu_ns.clear();
        y
    }

    /// Start of a timed phase: one slice now, the next after [`EVERY`].
    pub fn start(&mut self) {
        self.slice();
        self.spent = Duration::ZERO;
    }

    /// Between two operations of a timed phase: a slice if one is due.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.slice();
        }
    }

    fn slice(&mut self) {
        let begin = Instant::now();
        let mut at = self.at;
        for _ in 0..LOADS {
            at = self.table[at as usize];
        }
        self.at = black_box(at);
        let mid = Instant::now();
        let mut x = self.seed;
        for _ in 0..STEPS {
            // The shift keeps the compiler from folding the loop into a
            // closed form: each step waits for the one before.
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x ^= x >> 29;
        }
        self.seed = black_box(x);
        let end = Instant::now();
        if self.mem_ns.len() < self.mem_ns.capacity() {
            self.mem_ns
                .push((mid - begin).as_secs_f64() * 1e9 / LOADS as f64);
            self.cpu_ns
                .push((end - mid).as_secs_f64() * 1e9 / STEPS as f64);
        }
        self.spent += end - begin;
        self.last = end;
    }

    /// Time inside slices since [`Yardstick::start`]: not the program's.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// What the slices so far read.
    pub fn reading(&self) -> Reading {
        Reading::new(
            crate::stats::median(&self.mem_ns),
            crate::stats::median(&self.cpu_ns),
            self.mem_ns.len(),
        )
    }
}

/// One run's view of the machine.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub mem_ns: f64,
    pub cpu_ns: f64,
    pub slices: usize,
    /// 1.0 = the reference box at its usual speed; higher = slower.
    pub index: f64,
}

impl Reading {
    pub fn new(mem_ns: f64, cpu_ns: f64, slices: usize) -> Reading {
        let index = if slices == 0 {
            1.0
        } else {
            MEMORY_SHARE * mem_ns / NOMINAL_MEM_NS + (1.0 - MEMORY_SHARE) * cpu_ns / NOMINAL_CPU_NS
        };
        Reading {
            mem_ns,
            cpu_ns,
            slices,
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_visits_the_whole_table() {
        let y = Yardstick::new();
        // A permutation (every index has one successor by construction;
        // here: one predecessor) whose cycle through 0 is the whole table.
        let mut seen = vec![false; TABLE_LEN];
        for &next in &y.table {
            assert!(!seen[next as usize], "two entries lead to {next}");
            seen[next as usize] = true;
        }
        let mut at = 0u32;
        for step in 1..TABLE_LEN {
            at = y.table[at as usize];
            assert_ne!(at, 0, "cycle of length {step}");
        }
    }

    #[test]
    fn the_index_is_one_at_nominal_and_follows_the_blend() {
        assert_eq!(Reading::new(0.0, 0.0, 0).index, 1.0);
        let nominal = Reading::new(NOMINAL_MEM_NS, NOMINAL_CPU_NS, 10);
        assert!((nominal.index - 1.0).abs() < 1e-12);
        let slow_memory = Reading::new(2.0 * NOMINAL_MEM_NS, NOMINAL_CPU_NS, 10);
        assert!((slow_memory.index - (1.0 + MEMORY_SHARE)).abs() < 1e-12);
        let slow_clock = Reading::new(NOMINAL_MEM_NS, 2.0 * NOMINAL_CPU_NS, 10);
        assert!((slow_clock.index - (2.0 - MEMORY_SHARE)).abs() < 1e-12);
    }

    #[test]
    fn slices_are_recorded_and_their_time_is_kept() {
        let mut y = Yardstick::new();
        y.start();
        assert_eq!(y.spent(), Duration::ZERO);
        y.slice();
        let r = y.reading();
        assert_eq!(r.slices, 2);
        assert!(r.mem_ns > 0.0 && r.cpu_ns > 0.0);
        assert!(y.spent() > Duration::ZERO);
    }
}

//! The load: pinned history shapes, their fingerprints, and the seeded
//! session plans the workloads execute. Everything here is a pure
//! function of `--seed`; the program under test only ever receives the
//! generated requests.

use orpheus_bench::generator::{CommitEvent, HistoryEvent, HistoryGen, HistoryParams};
use orpheus_bench::Oracle;

/// The one CVD every workload drives. The name is the one
/// `orpheus_bench::differential::verify_against` checks.
pub const CVD: &str = "diff";

/// `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// The histories are part of the benchmark's definition, not of a run's
/// input: every run loads the same fingerprinted H or P, and `--seed`
/// draws the *session* — which versions are read, in what order, beside
/// which commits. A seed-dependent history was tried first and could not
/// hold a bound: the version tree's shape decides what LyreSplit finds,
/// and checkout latency on the partitioned layout moved ±20 % from seed
/// to seed with nothing in the program changing.
pub const HISTORY_SEED: u64 = 1;

/// History **H**: a schema-evolving tree with mainline-heavy branch
/// popularity. Sized for the run budget (92 driver runs inside an hour):
/// 1 000-row versions and 2 % churn per commit keep a checkout under a
/// millisecond, so a fifteen-second phase holds thousands of samples of
/// every op kind. No merge commits: a merged branch keeps the union of
/// both parents for the rest of its life, so versions would come in two
/// sizes and every read latency in two modes, with the median hostage to
/// how many of each a session happens to draw. Two-version *merged
/// checkouts* are still in the read mixes.
/// `versions` counts the preloaded prefix plus whatever the workload will
/// commit; histories differing only in `versions` share their prefix.
pub fn history_h(versions: usize) -> HistoryParams {
    HistoryParams {
        versions,
        branches: 10,
        fork_every: 12,
        base_rows: 1_000,
        inserts: 20,
        attrs: 8,
        insert_fraction: 0.85,
        merge_prob: 0.0,
        skew: 0.8,
        evolve_every: 60,
        seed: HISTORY_SEED,
    }
}

/// Versions of H loaded before the timed phase starts.
pub const H_PREFIX: usize = 160;

/// History **P**: SCI-shaped (a tree: many branches, no merges, no
/// schema change) — the shape LyreSplit partitions.
pub fn history_p(versions: usize) -> HistoryParams {
    HistoryParams {
        versions,
        branches: 40,
        fork_every: 10,
        base_rows: 2_000,
        inserts: 40,
        attrs: 8,
        insert_fraction: 0.85,
        merge_prob: 0.0,
        skew: 0.8,
        evolve_every: 0,
        seed: HISTORY_SEED,
    }
}

pub const P_PREFIX: usize = 400;

/// Tiny shapes for `--smoke` and the model-kind probe.
pub fn history_small(versions: usize) -> HistoryParams {
    HistoryParams {
        versions,
        branches: 4,
        fork_every: 6,
        base_rows: 300,
        inserts: 12,
        attrs: 8,
        insert_fraction: 0.85,
        merge_prob: 0.2,
        skew: 0.8,
        evolve_every: 15,
        seed: HISTORY_SEED,
    }
}

/// Same, as a tree, for the partitioned smoke run.
pub fn history_small_tree(versions: usize) -> HistoryParams {
    HistoryParams {
        merge_prob: 0.0,
        evolve_every: 0,
        branches: 8,
        fork_every: 4,
        ..history_small(versions)
    }
}

// -- fingerprint ---------------------------------------------------------------

/// FNV-1a over every field of every event: any change to what the
/// generator emits for pinned parameters changes this number.
pub fn fingerprint(params: HistoryParams) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for event in HistoryGen::new(params) {
        match event {
            HistoryEvent::Init(init) => {
                eat(init.attrs as u64);
                for (rid, vals) in init.rows {
                    eat(rid as u64);
                    vals.iter().for_each(|&v| eat(v as u64));
                }
            }
            HistoryEvent::Commit(c) => {
                eat(c.vid);
                c.parents.iter().for_each(|&p| eat(p));
                eat(u64::MAX);
                c.deletes.iter().for_each(|&d| eat(d as u64));
                eat(u64::MAX);
                for (rid, vals) in c.inserts {
                    eat(rid as u64);
                    vals.iter().for_each(|&v| eat(v as u64));
                }
                eat(c.add_column.map_or(0, |name| name.len() as u64));
                eat(c.width as u64);
            }
        }
    }
    h
}

/// Fingerprints of H and P (prefix + 64 further versions). The generator
/// lives outside the benchmark's directory; these constants are what
/// stop a later change from moving the load by accident.
pub const FINGERPRINT_H: u64 = 0x5031_c63b_b62b_448e;
pub const FINGERPRINT_P: u64 = 0xc0cd_b9df_0304_f994;

pub fn current_fingerprints() -> (u64, u64) {
    (
        fingerprint(history_h(H_PREFIX + 64)),
        fingerprint(history_p(P_PREFIX + 64)),
    )
}

pub fn check_fingerprints() -> Result<(), String> {
    let (h, p) = current_fingerprints();
    if (h, p) != (FINGERPRINT_H, FINGERPRINT_P) {
        return Err(format!(
            "generator output changed — the load is no longer the benchmark's \
             (H {h:#018x} want {FINGERPRINT_H:#018x}, P {p:#018x} want {FINGERPRINT_P:#018x})"
        ));
    }
    Ok(())
}

// -- seeded plans --------------------------------------------------------------

/// SplitMix64: the plan's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over recency ranks: rank 0 is the newest version, weight
/// `1/(r+1)^s`. The window is fixed at the preloaded prefix, so a draw
/// never reaches below version 1 however far the history has grown.
pub struct ZipfRecent {
    cdf: Vec<f64>,
}

impl ZipfRecent {
    pub fn new(window: usize, s: f64) -> ZipfRecent {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..window)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        ZipfRecent { cdf }
    }

    /// A version id in `latest - window + 1 ..= latest`.
    pub fn draw(&self, rng: &mut Rng, latest: u64) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        latest - rank as u64
    }
}

/// One user-level operation of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Check one version out into a table, then discard the table.
    Checkout(u64),
    /// Check two versions out merged, then discard.
    Merged(u64, u64),
    /// `Diff(v, parent(v))`.
    Diff(u64, u64),
    /// Versioned SQL aggregate over one version.
    Query(u64),
    /// Replay the next history event as a commit cycle.
    Commit,
}

/// Shares of each op kind, in percent.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub checkout: u32,
    pub merged: u32,
    pub diff: u32,
    pub query: u32,
    pub commit: u32,
}

/// Everything a workload needs about its history: the events, the oracle
/// that has replayed all of them, and where the preloaded prefix ends.
pub struct Load {
    pub events: Vec<HistoryEvent>,
    pub oracle: Oracle,
    pub prefix: usize,
}

impl Load {
    /// Generate `params.versions` events; the first `prefix` are loaded
    /// before timing, the rest feed commit cycles.
    pub fn generate(params: HistoryParams, prefix: usize) -> Load {
        assert!(prefix >= 2 && prefix <= params.versions);
        let events: Vec<HistoryEvent> = HistoryGen::new(params).collect();
        let oracle = Oracle::replay(events.iter().cloned());
        Load {
            events,
            oracle,
            prefix,
        }
    }

    /// The commit event that creates version `vid` (≥ 2).
    pub fn commit_event(&self, vid: u64) -> &CommitEvent {
        match &self.events[vid as usize - 1] {
            HistoryEvent::Commit(c) => c,
            HistoryEvent::Init(_) => panic!("version 1 is the init event"),
        }
    }

    /// Distinct records once `versions` versions exist.
    pub fn records_at(&self, versions: usize) -> u64 {
        self.events[..versions]
            .iter()
            .map(|e| match e {
                HistoryEvent::Init(i) => i.rows.len() as u64,
                HistoryEvent::Commit(c) => c.inserts.len() as u64,
            })
            .sum()
    }

    /// A seeded session of `n` ops. Kinds are dealt from a shuffled
    /// 100-card deck holding exactly the mix, so every seed runs the same
    /// number of each kind and only their order and targets differ. Reads
    /// draw Zipf-recent versions among those that exist when the op runs
    /// (commits earlier in the plan have already extended the history),
    /// so the plan is valid executed in order by one client. Once the
    /// generated events are used up, a commit card plays as a query.
    pub fn plan(&self, seed: u64, mix: Mix, n: usize) -> Vec<Op> {
        #[derive(Clone, Copy)]
        enum Card {
            Checkout,
            Merged,
            Diff,
            Query,
            Commit,
        }
        let counts = [
            (Card::Checkout, mix.checkout),
            (Card::Merged, mix.merged),
            (Card::Diff, mix.diff),
            (Card::Query, mix.query),
            (Card::Commit, mix.commit),
        ];
        let deck: Vec<Card> = counts
            .iter()
            .flat_map(|&(card, share)| std::iter::repeat_n(card, share as usize))
            .collect();
        assert_eq!(deck.len(), 100, "a mix is given in percent");
        let zipf = ZipfRecent::new(self.prefix, 0.8);
        let mut rng = Rng::new(seed ^ 0x5e55_1014);
        let mut latest = self.prefix as u64;
        let mut ops = Vec::with_capacity(n);
        while ops.len() < n {
            let mut hand = deck.clone();
            for i in (1..hand.len()).rev() {
                hand.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            for card in hand.into_iter().take(n - ops.len()) {
                ops.push(match card {
                    Card::Checkout => Op::Checkout(zipf.draw(&mut rng, latest)),
                    Card::Merged => {
                        let a = zipf.draw(&mut rng, latest);
                        let mut b = zipf.draw(&mut rng, latest);
                        if a == b {
                            b = if a > 1 { a - 1 } else { a + 1 };
                        }
                        Op::Merged(a.min(b), a.max(b))
                    }
                    Card::Diff => {
                        let v = zipf.draw(&mut rng, latest).max(2);
                        Op::Diff(v, self.oracle.version(v).parents[0])
                    }
                    Card::Commit if (latest as usize) < self.events.len() => {
                        latest += 1;
                        Op::Commit
                    }
                    Card::Query | Card::Commit => Op::Query(zipf.draw(&mut rng, latest)),
                });
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_across_generations_and_sees_changes() {
        let a = fingerprint(history_small(30));
        assert_eq!(a, fingerprint(history_small(30)));
        assert_ne!(a, fingerprint(history_small(31)));
        let reseeded = HistoryParams {
            seed: HISTORY_SEED + 1,
            ..history_small(30)
        };
        assert_ne!(a, fingerprint(reseeded));
    }

    #[test]
    fn pinned_fingerprints_match_the_generator() {
        check_fingerprints().unwrap();
    }

    #[test]
    fn plans_repeat_by_seed_and_only_read_existing_versions() {
        let load = Load::generate(history_small(60), 20);
        let mix = Mix {
            checkout: 50,
            merged: 10,
            diff: 10,
            query: 10,
            commit: 20,
        };
        let plan = load.plan(3, mix, 300);
        assert_eq!(plan, load.plan(3, mix, 300));
        assert_ne!(plan, load.plan(4, mix, 300));
        let mut latest = 20u64;
        for op in &plan {
            match *op {
                Op::Commit => latest += 1,
                Op::Checkout(v) | Op::Query(v) => assert!((1..=latest).contains(&v)),
                Op::Merged(a, b) => assert!(a < b && b <= latest && a >= 1),
                Op::Diff(v, p) => {
                    assert!(v <= latest && p < v);
                    assert!(load.oracle.version(v).parents.contains(&p));
                }
            }
        }
        // 40 events beyond the prefix cap the commits.
        assert_eq!(latest, 60);
        // The first hand deals the mix exactly.
        let commits = plan[..100].iter().filter(|op| **op == Op::Commit).count();
        assert_eq!(commits, 20);
    }
}

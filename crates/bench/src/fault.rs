//! The fault storm's matrix and its judgment (the `fault_storm` bin runs
//! the processes).
//!
//! A cell names one way the service dies or degrades mid-storm. Every
//! number a cell needs — which crossing of a kill or fault point fires,
//! after how many acks and how long the external kill lands, how often
//! the proxy cuts — is drawn from the run's seed by [`Plan::draw`], in the
//! parent and again in the server child, so `fault_storm --seed <s>
//! --cell <name>` reruns one cell exactly. Counts, not clock time, place
//! every fault mid-storm, so a faster machine cannot outrun one.
//!
//! [`judge`] is the whole verdict on a cell, a pure function of what each
//! client issued and was told, what recovery brought back, and whether
//! the fault fired, so the rules are unit-tested apart from any process.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Client processes per cell, one CVD each.
pub const CLIENTS: usize = 3;
/// Checkout → commit rounds each client runs.
pub const ROUNDS: usize = 12;
/// Records in each seeded CVD.
pub const RECORDS: usize = 40;
/// The server checkpoints whenever its log has grown by this many
/// records, so a storm of `CLIENTS * ROUNDS` commits makes about nine
/// checkpoints and the checkpoint kill points (countdowns 1–3) fire.
pub const CHECKPOINT_RECORDS: u64 = 4;

/// The matrix: an external `SIGKILL`, the six WAL kill points, proxy
/// cuts, load shedding, and the two disk faults.
pub const CELLS: [&str; 11] = [
    "external",
    "pre-append",
    "torn-append",
    "post-append",
    "pre-snapshot",
    "pre-current",
    "post-current",
    "drops",
    "overload",
    "append-fault",
    "fsync-fault",
];

/// One cell, with its numbers drawn from a seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plan {
    pub cell: &'static str,
    /// WAL kill point the server arms, and the crossing that aborts it.
    pub kill: Option<(&'static str, u64)>,
    /// External `SIGKILL`: after this many acks across the storm, plus
    /// this many milliseconds.
    pub sigkill: Option<(u64, u64)>,
    /// WAL fault point the server arms, and the crossing that fails.
    pub fault: Option<(&'static str, u64)>,
    /// Proxy cut period in request frames (0: the proxy never cuts).
    pub cut_every: u64,
    /// Server queue-depth cap (0: the server's default).
    pub queue_depth: usize,
}

impl Plan {
    /// The plan of `cell` under `seed`, or `None` for an unknown cell.
    pub fn draw(seed: u64, cell: &str) -> Option<Plan> {
        let index = CELLS.iter().position(|c| *c == cell)?;
        let cell = CELLS[index];
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(CELLS.len() as u64)
                .wrapping_add(index as u64),
        );
        // A commit count that lands mid-storm: after each client's first
        // commit could have been logged or acked, before half are.
        let commits = (CLIENTS * ROUNDS) as u64;
        let mid_storm = rng.gen_range(CLIENTS as u64 + 1..commits / 2 + 1);
        let mut plan = Plan {
            cell,
            ..Plan::default()
        };
        match cell {
            "external" => plan.sigkill = Some((mid_storm, rng.gen_range(0..5))),
            "pre-append" | "torn-append" | "post-append" => plan.kill = Some((cell, mid_storm)),
            "pre-snapshot" | "pre-current" | "post-current" => {
                plan.kill = Some((cell, rng.gen_range(1..4)))
            }
            "drops" => plan.cut_every = rng.gen_range(3..8),
            "overload" => plan.queue_depth = 1,
            "append-fault" => {
                plan.fault = Some(("append", mid_storm));
                plan.cut_every = rng.gen_range(4..9);
            }
            _ => plan.fault = Some(("fsync", mid_storm)),
        }
        Some(plan)
    }

    /// Whether the server dies in this cell.
    pub fn kills(&self) -> bool {
        self.kill.is_some() || self.sigkill.is_some()
    }
}

/// One client's commits and its CVD after recovery, as commit messages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    pub cvd: String,
    /// Every commit the client sent, in order.
    pub issued: Vec<String>,
    /// Commits the server acknowledged, in order.
    pub acked: Vec<String>,
    /// Commits whose outcome the client could not know: a refusal from a
    /// degraded disk, a timeout, or a server that went away.
    pub attempted: Vec<String>,
    /// The CVD's commits after recovery, in version order.
    pub recovered: Vec<String>,
}

/// The verdict on one cell; empty when it passed. Every cell must fire
/// its fault and, per CVD, recover no commit twice, every acked commit,
/// and nothing that was neither acked nor attempted. When the server
/// died (`kill`), a CVD that passes those rules must also recover
/// exactly its acked sequence, optionally followed by the one commit in
/// flight: the last one issued, when it was not acked.
pub fn judge(kill: bool, fired: bool, outcomes: &[Outcome]) -> Vec<String> {
    let mut failures = Vec::new();
    if !fired {
        failures.push("the fault never fired".to_string());
    }
    for o in outcomes {
        let cvd = &o.cvd;
        let before = failures.len();
        let mut seen = BTreeSet::new();
        for msg in &o.recovered {
            if !seen.insert(msg) {
                failures.push(format!("{cvd}: duplicate commit {msg:?}"));
            } else if !o.acked.contains(msg) && !o.attempted.contains(msg) {
                failures.push(format!(
                    "{cvd}: phantom commit {msg:?} (never acked or attempted)"
                ));
            }
        }
        for msg in o.acked.iter().filter(|m| !seen.contains(m)) {
            failures.push(format!("{cvd}: acked commit {msg:?} lost"));
        }
        if !kill || failures.len() > before {
            continue;
        }
        let (prefix, extra) = o.recovered.split_at(o.acked.len().min(o.recovered.len()));
        let in_flight = o.issued.last().filter(|m| !o.acked.contains(m));
        if prefix != o.acked.as_slice() {
            failures.push(format!(
                "{cvd}: acked commits recovered out of order: {:?}, acked as {:?}",
                o.recovered, o.acked
            ));
        } else if extra.len() > 1 || extra.first().is_some_and(|m| Some(m) != in_flight) {
            failures.push(format!(
                "{cvd}: {extra:?} recovered after the kill, but only the commit in flight \
                 ({in_flight:?}) may follow the acked ones"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(issued: &[&str], acked: &[&str], attempted: &[&str], recovered: &[&str]) -> Outcome {
        let owned = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect();
        Outcome {
            cvd: "cvd0".into(),
            issued: owned(issued),
            acked: owned(acked),
            attempted: owned(attempted),
            recovered: owned(recovered),
        }
    }

    /// The one failure `judge` reports, checked to contain `what`.
    fn fails_with(kill: bool, fired: bool, o: Outcome, what: &str) {
        let failures = judge(kill, fired, &[o]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains(what), "{failures:?}");
    }

    #[test]
    fn legal_recoveries_pass() {
        let shapes = [
            // A clean storm, killed or not: everything acked comes back.
            (true, outcome(&["a", "b"], &["a", "b"], &[], &["a", "b"])),
            (false, outcome(&["a", "b"], &["a", "b"], &[], &["a", "b"])),
            // The commit in flight at the kill is lost, or logged unacked.
            (
                true,
                outcome(&["a", "b", "c"], &["a", "b"], &["c"], &["a", "b"]),
            ),
            (
                true,
                outcome(&["a", "b", "c"], &["a", "b"], &["c"], &["a", "b", "c"]),
            ),
            // A disk fault: attempted commits may or may not come back,
            // in any order relative to later ones.
            (
                false,
                outcome(&["a", "b", "c"], &["a", "c"], &["b"], &["a", "c", "b"]),
            ),
            (
                false,
                outcome(&["a", "b", "c"], &["a", "c"], &["b"], &["a", "c"]),
            ),
        ];
        for (kill, o) in shapes {
            let failures = judge(kill, true, std::slice::from_ref(&o));
            assert!(failures.is_empty(), "{o:?}: {failures:?}");
        }
    }

    #[test]
    fn a_duplicate_fails() {
        let o = outcome(&["a", "b"], &["a", "b"], &[], &["a", "b", "a"]);
        fails_with(false, true, o, "duplicate commit \"a\"");
    }

    #[test]
    fn a_lost_ack_fails() {
        let o = outcome(&["a", "b"], &["a", "b"], &[], &["a"]);
        fails_with(true, true, o, "acked commit \"b\" lost");
    }

    #[test]
    fn a_phantom_fails() {
        let o = outcome(&["a", "b"], &["a"], &[], &["a", "b"]);
        fails_with(false, true, o, "phantom commit \"b\"");
    }

    #[test]
    fn an_acked_commit_recovered_out_of_order_fails_after_a_kill() {
        let o = outcome(&["a", "b"], &["a", "b"], &[], &["b", "a"]);
        fails_with(true, true, o.clone(), "out of order");
        assert!(judge(false, true, &[o]).is_empty());
    }

    #[test]
    fn an_extra_commit_after_a_kill_must_be_the_one_in_flight() {
        let o = outcome(&["a", "b", "c"], &["a"], &["b", "c"], &["a", "b"]);
        fails_with(true, true, o, "only the commit in flight (Some(\"c\"))");
        let o = outcome(&["a", "b", "c"], &["a"], &["b", "c"], &["a", "b", "c"]);
        fails_with(true, true, o, "[\"b\", \"c\"] recovered after the kill");
    }

    #[test]
    fn a_fault_that_never_fired_fails() {
        let o = outcome(&["a"], &["a"], &[], &["a"]);
        fails_with(false, false, o, "the fault never fired");
    }

    #[test]
    fn plans_are_seeded_and_kill_mid_storm() {
        for seed in 0..50 {
            for cell in CELLS {
                let plan = Plan::draw(seed, cell).unwrap();
                assert_eq!(Plan::draw(seed, cell), Some(plan.clone()));
                assert_eq!(plan.cell, cell);
                let acks = plan.sigkill.map(|(acks, _)| ("external", acks));
                if let Some((_, n)) = plan.kill.or(plan.fault).or(acks) {
                    assert!((1..=(CLIENTS * ROUNDS / 2) as u64).contains(&n), "{plan:?}");
                }
            }
        }
        assert_eq!(Plan::draw(1, "nope"), None);
        assert!(Plan::draw(1, "external").unwrap().kills());
        assert!(!Plan::draw(1, "drops").unwrap().kills());
    }
}

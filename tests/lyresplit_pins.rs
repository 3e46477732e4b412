//! Pins for LyreSplit and the Section 4.3 maintainer: every partitioning,
//! recursion level, δ, iteration count, storage figure, placement,
//! migration and checkout cost they produce on generated version trees,
//! each case pinned as `(length, FNV-1a)` of the values it produced. The
//! search and the maintainer are free to get faster; a change that moves
//! one version to another partition, one δ by one bit or one migration to
//! another commit fails here.

use orpheusdb::bench::generator::{Workload, WorkloadParams};
use orpheusdb::partition::lyresplit::{lyresplit, lyresplit_for_budget, EdgePick};
use orpheusdb::partition::online::{OnlineConfig, OnlineMaintainer};
use orpheusdb::partition::weighted::lyresplit_weighted_for_budget;
use orpheusdb::partition::{LyreSplitResult, VersionTree};

type Pin = (usize, u64);

/// The values of one case, hashed as they are pushed.
struct Fingerprint {
    len: usize,
    hash: u64,
}

impl Fingerprint {
    fn new() -> Fingerprint {
        Fingerprint {
            len: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn push(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.hash ^= byte as u64;
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
        self.len += 1;
    }

    fn result(&mut self, r: &LyreSplitResult) {
        self.push(r.partitioning.num_partitions as u64);
        for &k in &r.partitioning.assignment {
            self.push(k as u64);
        }
        self.push(r.levels as u64);
    }

    fn pin(self) -> Pin {
        (self.len, self.hash)
    }
}

fn assert_pins(what: &str, actual: &[Pin], expected: &[Pin]) {
    assert!(
        actual == expected,
        "{what}: the output moved; pins now read\n{actual:?}"
    );
}

fn sci() -> VersionTree {
    Workload::generate(WorkloadParams::sci(240, 12, 40))
        .version_graph()
        .to_tree()
}

fn cur() -> VersionTree {
    Workload::generate(WorkloadParams::cur(200, 10, 40))
        .version_graph()
        .to_tree()
}

/// Two trees side by side: the second one's versions follow the first's,
/// so ids stay parent-before-child and version `a.num_versions()` is a
/// second root.
fn forest(a: &VersionTree, b: &VersionTree) -> VersionTree {
    let offset = a.num_versions();
    let mut t = a.clone();
    t.parent
        .extend(b.parent.iter().map(|p| p.map(|p| p + offset)));
    t.weight_to_parent.extend(&b.weight_to_parent);
    t.records.extend(&b.records);
    t
}

fn trees() -> Vec<VersionTree> {
    let (sci, cur) = (sci(), cur());
    let both = forest(&sci, &cur);
    vec![sci, cur, both]
}

const PICKS: [EdgePick; 2] = [EdgePick::SmallestWeight, EdgePick::BalancedVersions];

const RUN_PINS: &[Pin] = &[
    (242, 17753013449019652099),
    (242, 4250208547398463975),
    (242, 211148322823702811),
    (242, 10407924579649614858),
    (242, 12805338881567399397),
    (242, 10429424221813506973),
    (242, 156534611341525935),
    (242, 14616775387106039576),
    (242, 858270462835704176),
    (242, 15453390522035250236),
    (202, 2237941053998813220),
    (202, 2237941053998813220),
    (202, 17549122306093519551),
    (202, 10519679994334318054),
    (202, 10903481285375629170),
    (202, 8600585438631073936),
    (202, 4215892819092858364),
    (202, 3522444395364421233),
    (202, 16012231591843380819),
    (202, 12534914984004957572),
    (442, 13840845066943624963),
    (442, 4939553201647297638),
    (442, 1929848834843608772),
    (442, 9581627905744720942),
    (442, 7464406564857593965),
    (442, 15080480058552088803),
    (442, 15551738607674569844),
    (442, 2602607806264609306),
    (442, 619226939210622434),
    (442, 15127696061671380607),
];

#[test]
fn algorithm_1_runs_are_unchanged() {
    let mut pins = Vec::new();
    for tree in trees() {
        for delta in [0.05, 0.2, 0.5, 0.8, 1.0] {
            for pick in PICKS {
                let mut f = Fingerprint::new();
                f.result(&lyresplit(&tree, delta, pick));
                pins.push(f.pin());
            }
        }
    }
    assert_pins("lyresplit", &pins, RUN_PINS);
}

const BUDGET_PINS: &[Pin] = &[
    (246, 5947037011212975344),
    (246, 5947037011212975344),
    (246, 298436989612914781),
    (246, 17435061731209111191),
    (246, 13385082146099108704),
    (246, 9168329660180358084),
    (246, 159706556062832907),
    (246, 1446406613921681488),
    (206, 10701059148691151967),
    (206, 10701059148691151967),
    (206, 17943644716450617140),
    (206, 8859740214590926099),
    (206, 17084021001516856074),
    (206, 13997396236099902672),
    (206, 9161611634469205557),
    (206, 3859506867362253841),
    (446, 1476451380410460014),
    (446, 1476451380410460014),
    (446, 13162674112921769700),
    (446, 6815974880571744196),
    (446, 14473392990727750945),
    (446, 2002145788996503285),
    (446, 437765157164037904),
    (446, 1251264395801248942),
];

#[test]
fn budget_searches_are_unchanged() {
    let mut pins = Vec::new();
    for tree in trees() {
        let r = tree.total_records() as f64;
        for factor in [1.0, 1.5, 2.0, 3.0] {
            for pick in PICKS {
                let (best, search) = lyresplit_for_budget(&tree, (factor * r) as u64, pick);
                let mut f = Fingerprint::new();
                f.result(&best);
                f.push(best.delta.to_bits());
                f.push(search.final_delta.to_bits());
                f.push(search.iterations as u64);
                f.push(search.storage);
                pins.push(f.pin());
            }
        }
    }
    assert_pins("lyresplit_for_budget", &pins, BUDGET_PINS);
}

const WEIGHTED_PINS: &[Pin] = &[
    (243, 18410446039264081676),
    (243, 4838426036763723900),
    (243, 9694966044773755057),
    (243, 14237985429852944639),
    (203, 17564654710736120542),
    (203, 14591846894513835602),
    (203, 10833917807716875899),
    (203, 4941541549252763965),
    (443, 11631881045408906371),
    (443, 13965881939654635988),
    (443, 18397185633278530814),
    (443, 1953045890606512607),
];

#[test]
fn weighted_budget_searches_are_unchanged() {
    let mut pins = Vec::new();
    for tree in trees() {
        let n = tree.num_versions() as u64;
        // Old versions cold, recent ones hot, one in seven never read.
        let freqs: Vec<u64> = (0..n).map(|v| (v * 4 / n) * (v % 7).min(1)).collect();
        let r = tree.total_records() as f64;
        for factor in [1.0, 1.5, 2.0, 3.0] {
            let best = lyresplit_weighted_for_budget(
                &tree,
                &freqs,
                (factor * r) as u64,
                EdgePick::BalancedVersions,
            );
            let mut f = Fingerprint::new();
            f.result(&best);
            f.push(best.delta.to_bits());
            pins.push(f.pin());
        }
    }
    assert_pins("lyresplit_weighted_for_budget", &pins, WEIGHTED_PINS);
}

/// Stream `tree` through a fresh maintainer, migrating whenever asked:
/// one pin per stream over every placement, migration and cost it reports.
fn stream(tree: &VersionTree, gamma_factor: f64, mu: f64, check_every: usize) -> Pin {
    let mut m = OnlineMaintainer::new(
        OnlineConfig {
            gamma_factor,
            mu,
            check_every,
            ..OnlineConfig::default()
        },
        tree.records[0],
    );
    let mut f = Fingerprint::new();
    for v in 1..tree.num_versions() {
        let out = match tree.parent[v] {
            Some(p) => m.commit(p, tree.weight_to_parent[v], tree.records[v]),
            None => m.commit_root(tree.records[v]),
        };
        f.push(out.partition as u64);
        f.push(out.opened_partition as u64);
        f.push(out.cavg.to_bits());
        f.push(out.cavg_star.to_bits());
        match &out.migration_target {
            Some(target) => {
                f.push(v as u64);
                f.result(target);
                m.apply_migration(target);
                f.push(m.cavg().to_bits());
            }
            None => f.push(u64::MAX),
        }
        f.push(m.storage());
        f.push(m.delta_star().to_bits());
    }
    f.push(m.migrations_triggered() as u64);
    f.pin()
}

const STREAM_PINS: &[Pin] = &[
    (1148, 17857189846192937595),
    (1355, 5650455032195947619),
    (1169, 15783804022236412405),
    (1114, 3305933075079174284),
];

#[test]
fn online_maintenance_is_unchanged() {
    let small = forest(
        &Workload::generate(WorkloadParams::sci(100, 8, 30))
            .version_graph()
            .to_tree(),
        &Workload::generate(WorkloadParams::cur(60, 6, 30))
            .version_graph()
            .to_tree(),
    );
    let pins: Vec<Pin> = [(1.5, 1.2, 1), (2.0, 1.05, 1), (2.0, 1.5, 3), (1.0, 1.2, 1)]
        .into_iter()
        .map(|(gamma, mu, every)| stream(&small, gamma, mu, every))
        .collect();
    assert_pins("OnlineMaintainer", &pins, STREAM_PINS);
}

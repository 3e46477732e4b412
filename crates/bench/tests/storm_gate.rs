//! End-to-end tests of the concurrent gate (`orpheus_bench::storm`): every
//! served arm in both submission modes must end where a sequential run of
//! the same streams ends; the comparator must fail on each kind of damage
//! a concurrency bug can do (not vacuously green) and name the arm, the
//! mode and the CVD; and commit arrival order must not matter.

use orpheus_bench::datasets::StormShape;
use orpheus_bench::differential::Arm;
use orpheus_bench::storm::{
    compare, run_sequential, run_storm, streams, Mode, Outcome, StormConfig,
};

const SHAPE: StormShape = StormShape {
    clients: 4,
    cvds: 2,
    ops: 3,
    cluster: 2,
    records: 60,
};

#[test]
fn all_eight_cells_end_where_the_sequential_run_ends() {
    let cfg = StormConfig {
        shape: SHAPE,
        arms: Arm::ALL.to_vec(),
        label: "cells-test".into(),
    };
    let cells = run_storm(&cfg).expect("every cell equals the reference");
    let names: Vec<(&str, &str)> = cells.iter().map(|c| (c.arm, c.mode)).collect();
    assert_eq!(
        names,
        vec![
            ("concurrent", "execute"),
            ("concurrent", "batch"),
            ("async", "execute"),
            ("async", "batch"),
            ("remote", "execute"),
            ("remote", "batch"),
            ("wal_reopen", "execute"),
            ("wal_reopen", "batch"),
        ]
    );
    for c in &cells {
        // 4 clients x 3 rounds x (2 exports + checkout + commit).
        assert_eq!(c.requests, 48, "{}/{}", c.arm, c.mode);
    }
}

fn reference() -> Outcome {
    run_sequential(&SHAPE, streams(&SHAPE)).expect("sequential run succeeds")
}

#[test]
fn commit_arrival_order_does_not_matter() {
    // The same streams, last client first: every commit lands under a
    // different version id, and nothing else changes.
    let mut reversed = streams(&SHAPE);
    reversed.reverse();
    let other = run_sequential(&SHAPE, reversed).expect("sequential run succeeds");
    compare("permuted", Mode::Execute, "test", &other, &reference())
        .expect("permuted vids are the same outcome");
}

/// Damage the reference four ways; the comparator must fail each time and
/// say which arm, which mode and which CVD.
#[test]
fn damaged_outcomes_are_detected_not_vacuously_green() {
    let honest = reference();
    // 2 CVDs x (v1 + 2 clients x 3 commits); 4 clients x 3 x 2 exports.
    assert_eq!(honest.versions.len(), 14);
    assert_eq!(honest.staged.len(), 24);
    compare("async", Mode::Batch, "test", &honest, &honest).expect("equal outcomes pass");

    let must_fail = |damaged: &Outcome, cvd: &str, what: &str| {
        let err = compare("async", Mode::Batch, "test", &honest, damaged)
            .expect_err("a damaged reference must fail the gate");
        assert!(
            err.contains("[storm:async/batch]") && err.contains(&format!("CVD {cvd}:")),
            "failures must name arm, mode and CVD: {err}"
        );
        assert!(
            err.contains(what) && err.contains("reproduce:"),
            "unexpected message: {err}"
        );
    };
    let a_commit = |o: &Outcome, cvd: &str| {
        o.versions
            .iter()
            .position(|(c, (parents, _, _))| c == cvd && !parents.is_empty())
            .expect("the storm committed to every CVD")
    };

    // (a) one commit dropped.
    let mut damaged = honest.clone();
    damaged.versions.remove(a_commit(&honest, "cvd1"));
    must_fail(&damaged, "cvd1", "version graph");

    // (b) one commit duplicated.
    let mut damaged = honest.clone();
    let i = a_commit(&honest, "cvd0");
    damaged.versions.insert(i, honest.versions[i].clone());
    must_fail(&damaged, "cvd0", "version graph");

    // (c) one message's parents swapped for another version's.
    let mut damaged = honest.clone();
    damaged.versions[a_commit(&honest, "cvd1")].1 .0 = vec![2];
    damaged.versions.sort();
    must_fail(&damaged, "cvd1", "version graph");

    // (d) one leaked staged name.
    let mut damaged = honest.clone();
    damaged.staged.push(("cvd0".into(), "__storm_t0_1".into()));
    damaged.staged.sort();
    must_fail(&damaged, "cvd0", "staged leftovers");
}

//! The frozen-corpus regression gate.
//!
//! `corpus/` holds adversarial instances found by problem-space search
//! (`anneal-bench --bin corpus_gen`), each frozen with the metadata
//! needed to replay it exactly, plus `baseline.csv` recording every
//! fast-portfolio scheduler's makespan at freeze time. These tests fail
//! any change that makes a scheduler measurably *worse* on a corpus
//! instance — schedulers may improve freely, but a new loss on a known
//! hard instance must be deliberate (regenerate the corpus with
//! `corpus_gen` and justify the diff in review).
//!
//! Determinism makes this sharp: every evaluation is seeded from the
//! `(scheduler, instance)` names (`regression_seed`), so a clean
//! re-run reproduces the recorded makespans bit for bit, and the
//! tolerance in `REGRESSION_TOLERANCE` only absorbs *intentional*
//! algorithm drift.

use std::collections::{BTreeMap, BTreeSet};

use anneal_arena::{
    load_corpus_dir, regression_seed, FrozenInstance, Portfolio, REGRESSION_TOLERANCE,
};
use anneal_core::SaLane;

/// The corpus baseline was recorded on the exact lane (the oracle), so
/// the replay must pin it: `Portfolio::fast()` runs the production
/// turbo lane, whose stream the recorded makespans do not encode. Turbo
/// quality on the corpus is gated separately, in
/// `tests/sa_lane_turbo.rs`.
fn baseline_portfolio() -> Portfolio {
    Portfolio::fast_with_lane(SaLane::Exact)
}

const CORPUS_DIR: &str = "corpus";
const MIN_CORPUS_SIZE: usize = 8;

fn corpus() -> Vec<FrozenInstance> {
    load_corpus_dir(CORPUS_DIR).expect("corpus/ must load cleanly")
}

fn baseline() -> BTreeMap<(String, String), u64> {
    let text = std::fs::read_to_string(format!("{CORPUS_DIR}/baseline.csv"))
        .expect("corpus/baseline.csv must exist");
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("instance,scheduler,makespan_ns"),
        "baseline header"
    );
    let mut map = BTreeMap::new();
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells.len(), 3, "ragged baseline row {line:?}");
        let makespan: u64 = cells[2].parse().expect("baseline makespan");
        let prev = map.insert((cells[0].to_string(), cells[1].to_string()), makespan);
        assert!(prev.is_none(), "duplicate baseline row {line:?}");
    }
    map
}

#[test]
fn corpus_is_populated_and_well_formed() {
    let corpus = corpus();
    assert!(
        corpus.len() >= MIN_CORPUS_SIZE,
        "corpus holds {} instances, expected at least {MIN_CORPUS_SIZE}",
        corpus.len()
    );
    let mut names = BTreeSet::new();
    for fi in &corpus {
        assert!(
            names.insert(fi.name().to_string()),
            "duplicate {}",
            fi.name()
        );
        // provenance every frozen find must carry
        for key in ["target", "source", "ratio"] {
            assert!(
                fi.meta.get(key).is_some(),
                "{} is missing meta key '{key}'",
                fi.name()
            );
        }
        let inst = fi.to_instance().expect("frozen instance replays");
        assert!(inst.graph.num_tasks() > 1);
        assert!(inst.topology.num_procs() > 1);
    }
    // both the paper's baseline and the staged SA scheduler are covered
    let targets: BTreeSet<&str> = corpus
        .iter()
        .filter_map(|fi| fi.meta.get("target"))
        .collect();
    assert!(targets.contains("hlf"), "corpus must stress HLF");
    assert!(targets.contains("sa"), "corpus must stress staged SA");
}

#[test]
fn baseline_covers_the_full_portfolio_matrix() {
    let corpus = corpus();
    let baseline = baseline();
    let portfolio = baseline_portfolio();
    for fi in &corpus {
        for entry in portfolio.entries() {
            assert!(
                baseline.contains_key(&(fi.name().to_string(), entry.name().to_string())),
                "baseline.csv has no row for ({}, {}) — regenerate with \
                 `cargo run --release -p anneal-bench --bin corpus_gen`",
                fi.name(),
                entry.name()
            );
        }
    }
    // and nothing stale: every baseline row maps to a live pair
    let names: BTreeSet<String> = corpus.iter().map(|fi| fi.name().to_string()).collect();
    for (inst, sched) in baseline.keys() {
        assert!(names.contains(inst), "stale baseline instance {inst}");
        assert!(
            portfolio.get(sched).is_some(),
            "stale baseline scheduler {sched}"
        );
    }
}

/// The gate itself: no portfolio scheduler may get measurably worse on
/// any frozen instance.
#[test]
fn no_scheduler_regresses_on_the_frozen_corpus() {
    let corpus = corpus();
    let baseline = baseline();
    let portfolio = baseline_portfolio();
    let mut regressions = Vec::new();
    for fi in &corpus {
        let inst = fi.to_instance().expect("frozen instance replays");
        for entry in portfolio.entries() {
            let key = (fi.name().to_string(), entry.name().to_string());
            let Some(&recorded) = baseline.get(&key) else {
                continue; // covered by baseline_covers_the_full_portfolio_matrix
            };
            let seed = regression_seed(entry.name(), fi.name());
            let r = entry.evaluate(&inst, seed).expect("evaluation succeeds");
            r.audit(&inst.graph).expect("schedule audits");
            let limit = (recorded as f64 * REGRESSION_TOLERANCE).ceil() as u64;
            if r.makespan > limit {
                regressions.push(format!(
                    "{} on {}: {} ns vs baseline {} ns (+{:.1}%)",
                    entry.name(),
                    fi.name(),
                    r.makespan,
                    recorded,
                    (r.makespan as f64 / recorded as f64 - 1.0) * 100.0
                ));
            }
        }
    }
    assert!(
        regressions.is_empty(),
        "schedulers regressed beyond {:.0}% tolerance on the frozen corpus:\n  {}\n\
         If the change is intentional, regenerate the corpus baseline with\n  \
         `cargo run --release -p anneal-bench --bin corpus_gen`\nand justify the diff.",
        (REGRESSION_TOLERANCE - 1.0) * 100.0,
        regressions.join("\n  ")
    );
}

/// The corpus must stay adversarial: on every instance the frozen
/// target still trails the best rival recorded at freeze time (the
/// whole point of checking these in). Uses the recorded baselines, not
/// fresh runs, so this documents the invariant the files encode.
#[test]
fn frozen_instances_remain_adversarial_in_the_baseline() {
    let corpus = corpus();
    let baseline = baseline();
    let portfolio = baseline_portfolio();
    for fi in &corpus {
        let target = fi.meta.get("target").expect("target meta");
        let target_ms = baseline
            .get(&(fi.name().to_string(), target.to_string()))
            .copied()
            .expect("target baseline row");
        let best_rival = portfolio
            .entries()
            .iter()
            .filter(|e| e.name() != target)
            .filter_map(|e| baseline.get(&(fi.name().to_string(), e.name().to_string())))
            .copied()
            .min()
            .expect("rival baseline rows");
        assert!(
            target_ms > best_rival,
            "{}: target {target} ({target_ms} ns) no longer loses to the field ({best_rival} ns)",
            fi.name()
        );
    }
}

//! Statistical equivalence gate for the turbo SA lane.
//!
//! The turbo lane (`SaLane::Turbo`, the production default) does not
//! anneal: it solves each packet's eq. 6 minimum exactly as a linear
//! assignment problem and breaks ties by a shuffle drawn from the
//! packet's counter-based RNG stream. The annealer ends a packet on the
//! same mapping only when it finds that optimum and breaks its ties the
//! same way, so turbo cannot be gated bit-for-bit against the exact
//! lane. Instead it is gated the way scheduler
//! heuristics are properly compared (final-makespan distributions, not
//! trajectories): exact vs turbo on the frozen corpus plus a
//! campaign-family slice, 32 seeds per instance, bound on the **ratio
//! of mean final makespans**:
//!
//! * no single instance may regress its mean makespan by more than
//!   2%, and
//! * the corpus mean (mean of per-instance ratios) may not regress by
//!   more than 0.5%.
//!
//! This is the same gate the `lane_study` bench binary enforces at
//! corpus scale (`results/LANE_EQUIV.json`); both read its constants
//! and seed stream from `anneal_arena`. This test keeps it inside
//! plain `cargo test` so a quality regression fails tier-1, not just
//! the bench job. Everything here is deterministic: fixed instances,
//! name-derived seeds, no tolerance on the arithmetic itself — a gate
//! flip always means the lanes' outputs changed.

use anneal_arena::{
    campaign_instance, lane_instance_gate, lane_study_seed, load_corpus_dir, regression_seed,
    ArenaInstance, LANE_CORPUS_MEAN_MAX, LANE_GATE_SEEDS,
};
use anneal_core::{SaConfig, SaLane, SaScheduler};
use anneal_sim::simulate;

/// Seeds per instance: the calibration size of the per-instance bound.
const SEEDS: u64 = LANE_GATE_SEEDS;
/// Campaign-family instances included next to the frozen corpus.
const CAMPAIGN: usize = 8;

fn study_instances() -> Vec<ArenaInstance> {
    let corpus = load_corpus_dir("corpus").expect("corpus/ must load cleanly");
    let mut out: Vec<ArenaInstance> = corpus
        .iter()
        .map(|fi| fi.to_instance().expect("frozen instance replays"))
        .collect();
    assert!(!out.is_empty(), "corpus must hold instances");
    out.extend((0..CAMPAIGN).map(|i| campaign_instance(42, i)));
    out
}

fn staged_makespan(inst: &ArenaInstance, lane: SaLane, seed: u64) -> u64 {
    let mut sched = SaScheduler::new(SaConfig::default().with_seed(seed).with_lane(lane));
    simulate(
        &inst.graph,
        &inst.topology,
        &inst.params,
        &mut sched,
        &inst.sim_cfg,
    )
    .expect("staged SA schedules the study instance")
    .makespan
}

#[test]
fn turbo_lane_is_statistically_equivalent_to_exact_on_the_corpus() {
    let instances = study_instances();
    let instance_max = lane_instance_gate(SEEDS);
    let mut ratios = Vec::with_capacity(instances.len());
    for inst in &instances {
        let mut exact_sum = 0.0;
        let mut turbo_sum = 0.0;
        for k in 0..SEEDS {
            let seed = lane_study_seed(&inst.name, k);
            exact_sum += staged_makespan(inst, SaLane::Exact, seed) as f64;
            turbo_sum += staged_makespan(inst, SaLane::Turbo, seed) as f64;
        }
        let ratio = turbo_sum / exact_sum;
        assert!(
            ratio <= instance_max,
            "{}: turbo mean makespan regresses {:.2}% vs exact over {SEEDS} seeds \
             (gate: {:.1}%)",
            inst.name,
            (ratio - 1.0) * 100.0,
            (instance_max - 1.0) * 100.0
        );
        ratios.push(ratio);
    }
    let corpus_mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        corpus_mean <= LANE_CORPUS_MEAN_MAX,
        "turbo corpus-mean makespan ratio {corpus_mean:.4} exceeds the {LANE_CORPUS_MEAN_MAX} gate \
         over {} instances x {SEEDS} seeds",
        ratios.len()
    );
}

/// The turbo lane trades the draw-count contract away, but it must
/// still be a pure function of (instance, seed): same inputs, same
/// schedule. Non-determinism here would invalidate the whole
/// equivalence study.
#[test]
fn turbo_lane_is_deterministic_per_seed() {
    let corpus = load_corpus_dir("corpus").expect("corpus/ must load cleanly");
    for fi in corpus.iter().filter(|fi| fi.name().starts_with("sa-")) {
        let inst = fi.to_instance().expect("frozen instance replays");
        let seed = regression_seed("turbo-det", fi.name());
        let a = staged_makespan(&inst, SaLane::Turbo, seed);
        let b = staged_makespan(&inst, SaLane::Turbo, seed);
        assert_eq!(
            a,
            b,
            "{}: turbo lane must replay bit-identically",
            fi.name()
        );
    }
}

//! Reproducibility: the whole pipeline is a pure function of its seeds.
//!
//! Every randomized solver takes an explicit `StdRng::seed_from_u64`
//! seed through its config. There is no ambient entropy anywhere: the
//! vendored `rand` shim (`vendor/rand`) deliberately omits `thread_rng`
//! and `from_entropy`, so reaching for either is a *compile* error, not
//! a lint. These tests assert the complementary runtime property: two
//! runs with the same seed produce bit-identical schedules.

use annealsched::core::hlf::Placement;
use annealsched::prelude::*;

fn full_run(seed: u64) -> SimResult {
    let g = ne_paper();
    let host = hypercube(3);
    let mut s = SaScheduler::new(SaConfig::default().with_seed(seed));
    simulate(
        &g,
        &host,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap()
}

#[test]
fn identical_seeds_identical_schedules() {
    let a = full_run(7);
    let b = full_run(7);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.placement, b.placement);
    assert_eq!(a.start, b.start);
    assert_eq!(a.finish, b.finish);
    assert_eq!(a.comm, b.comm);
    assert_eq!(a.gantt.spans.len(), b.gantt.spans.len());
}

#[test]
fn different_seeds_usually_differ() {
    let a = full_run(1);
    let b = full_run(2);
    // placements must differ somewhere (makespan may coincide)
    assert_ne!(a.placement, b.placement);
}

#[test]
fn workload_generation_is_pure() {
    for _ in 0..3 {
        let g1 = gj_paper();
        let g2 = gj_paper();
        assert_eq!(g1.loads(), g2.loads());
        assert_eq!(
            g1.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }
}

#[test]
fn hlf_is_fully_deterministic() {
    let g = fft_paper();
    let host = ring(9);
    let run = || {
        let mut s = HlfScheduler::new();
        simulate(
            &g,
            &host,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.placement, b.placement);
    assert_eq!(a.makespan, b.makespan);
}

#[test]
fn hlf_random_placement_reproducible_from_seed() {
    let g = ne_paper();
    let host = hypercube(3);
    let run = |seed| {
        let mut s = HlfScheduler::with_placement(Placement::Random(seed));
        simulate(
            &g,
            &host,
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.placement, b.placement);
    assert_eq!(a.start, b.start);
    assert_eq!(a.finish, b.finish);
    assert_eq!(a.makespan, b.makespan);
}

#[test]
fn static_sa_reproducible_from_seed() {
    let g = fft_paper();
    let host = hypercube(3);
    let cfg = StaticSaConfig {
        max_iters: 40,
        seed: 9,
        ..StaticSaConfig::default()
    };
    let run = || static_sa(&g, &host, &CommParams::paper(), &SimConfig::default(), &cfg).unwrap();
    let a = run();
    let b = run();
    assert_eq!(a.mapping, b.mapping);
    assert_eq!(a.result.makespan, b.result.makespan);
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.iterations, b.iterations);
}

#[test]
fn random_graph_generation_reproducible_from_seed() {
    use annealsched::graph::generate::{gnp_dag, Range};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let make = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        gnp_dag(25, 0.3, Range::new(1, 1_000), Range::new(0, 500), &mut rng)
    };
    let a = make(123);
    let b = make(123);
    assert_eq!(a.loads(), b.loads());
    assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    let c = make(124);
    assert_ne!(
        (a.loads().to_vec(), a.edges().collect::<Vec<_>>()),
        (c.loads().to_vec(), c.edges().collect::<Vec<_>>())
    );
}

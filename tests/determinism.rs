//! Reproducibility: the whole pipeline is a pure function of its seeds.
//!
//! Every randomized solver takes an explicit `StdRng::seed_from_u64`
//! seed through its config. There is no ambient entropy anywhere: the
//! vendored `rand` shim (`vendor/rand`) deliberately omits `thread_rng`
//! and `from_entropy`, so reaching for either is a *compile* error, not
//! a lint. These tests assert the complementary runtime property: two
//! runs with the same seed produce bit-identical schedules.

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

/// 64-bit FNV-1a, folded over a stream of byte slices.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn heuristic_columns_are_pinned_and_only_known_duplicates_coincide() {
    use annealsched::arena::campaign_instances;

    let portfolio = Portfolio::fast();
    let instances = campaign_instances(7, 60);
    let cfg = TournamentConfig {
        base_seed: 7,
        ..TournamentConfig::default()
    };
    let r = run_tournament(&portfolio, &instances, &cfg).unwrap();

    // `greedy` and `fifo` both dispatch in task-id order, and `hlf` and
    // `hlf-list` are one scheduler under two registry names; no other
    // pair of entries may agree on every instance.
    let mut identical = Vec::new();
    for a in 0..r.schedulers.len() {
        for b in a + 1..r.schedulers.len() {
            if r.makespans[a] == r.makespans[b] {
                identical.push((r.schedulers[a].as_str(), r.schedulers[b].as_str()));
            }
        }
    }
    assert_eq!(identical, [("greedy", "fifo"), ("hlf", "hlf-list")]);

    // Every deterministic column (all but staged SA, whose lane has its
    // own statistical gate) is pinned bit for bit.
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for (name, row) in r.schedulers.iter().zip(&r.makespans) {
        if name == "sa" {
            continue;
        }
        digest = fnv1a(digest, name.as_bytes());
        for m in row {
            digest = fnv1a(digest, &m.to_le_bytes());
        }
    }
    assert_eq!(
        digest, 0x3171_bf6c_2c67_c955,
        "heuristic column digest {digest:#018x}"
    );
}

#[test]
fn static_sa_column_is_pinned() {
    use annealsched::arena::campaign_instances;

    let instances = campaign_instances(7, 60);
    let cfg = TournamentConfig {
        base_seed: 7,
        ..TournamentConfig::default()
    };
    let r = run_tournament(&Portfolio::standard(), &instances, &cfg).unwrap();
    let row = r
        .schedulers
        .iter()
        .position(|name| name == "static-sa")
        .expect("the standard portfolio runs static SA");

    // Whole-graph SA prices every move with a simulation, so this pins
    // the move evaluator and the eq. 1 acceptance bit for bit on a
    // campaign family.
    let mut digest = fnv1a(0xcbf2_9ce4_8422_2325, b"static-sa");
    for m in &r.makespans[row] {
        digest = fnv1a(digest, &m.to_le_bytes());
    }
    assert_eq!(
        digest, 0xfef6_8172_62ed_fb8b,
        "static-sa column digest {digest:#018x}"
    );
}

#[test]
fn static_sa_outcomes_are_pinned_on_both_lanes() {
    use annealsched::arena::{campaign_instances, static_sa_cell_config};
    use annealsched::core::{EvaluatorKind, SaLane};

    // The static-sa column pin above sees only the final makespans.
    // This one folds in the move counters and the mapping too, so any
    // change to the RNG stream, the move mix, the acceptance rule or the
    // pricing of a move shows up bit for bit. Both lanes fold in: the
    // lane is a staged-SA setting and must not move static SA.
    let mut digest = fnv1a(0xcbf2_9ce4_8422_2325, b"static_sa");
    for (j, inst) in campaign_instances(7, 12).iter().enumerate() {
        for lane in [SaLane::Exact, SaLane::Turbo] {
            let cfg = StaticSaConfig {
                lane,
                ..static_sa_cell_config(j as u64, EvaluatorKind::Incremental)
            };
            let out = static_sa(
                &inst.graph,
                &inst.topology,
                &inst.params,
                &inst.sim_cfg,
                &cfg,
            )
            .unwrap();
            for v in [
                out.result.makespan,
                out.evaluations,
                out.proposed,
                out.accepted,
            ] {
                digest = fnv1a(digest, &v.to_le_bytes());
            }
            for p in &out.mapping {
                digest = fnv1a(digest, &(p.index() as u64).to_le_bytes());
            }
        }
    }
    assert_eq!(
        digest, 0xdb6e_15e4_e69d_c150,
        "static_sa outcome digest {digest:#018x}"
    );
}

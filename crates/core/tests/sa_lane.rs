//! Oracle suite for the SA lanes.
//!
//! The exact engine is the oracle. The turbo lane changes the annealing
//! trajectory, so it is not compared with it move for move (its
//! final-makespan distribution is gated in `tests/sa_lane_turbo.rs`).
//! What turbo must never get wrong is its own bookkeeping: the running
//! cost it accumulates from directly priced deltas must price the final
//! mapping exactly like a from-scratch `CostModel` recomputation, and
//! every schedule it produces must be valid.

use anneal_core::annealer::{AnnealParams, InitRule, PacketOutcome};
use anneal_core::boltzmann::AcceptanceRule;
use anneal_core::cost::{BalanceRange, CostModel};
use anneal_core::lane::{anneal_packet_lane, LaneRun};
use anneal_core::packet::AnnealingPacket;
use anneal_core::{LaneCounters, SaConfig, SaLane, SaScheduler, SaScratch};
use anneal_graph::generate::{layered_random, LayeredConfig, Range};
use anneal_graph::TaskId;
use anneal_sim::{simulate, SimConfig};
use anneal_topology::builders::{hypercube, linear, mesh, ring};
use anneal_topology::{CommParams, ProcId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a packet straight from raw tables (no simulator needed).
fn packet_from(levels: Vec<u64>, comm: Vec<Vec<u64>>, procs: usize) -> AnnealingPacket {
    let worst: Vec<u64> = comm
        .iter()
        .map(|row| row.iter().copied().max().unwrap_or(0))
        .collect();
    AnnealingPacket {
        tasks: (0..levels.len()).map(TaskId::from_index).collect(),
        procs: (0..procs).map(ProcId::from_index).collect(),
        levels,
        comm_cost: comm,
        worst_comm: worst,
        epoch_time: 0,
    }
}

/// The eq. 6 cost of `out`'s final mapping, recomputed from scratch.
fn recomputed_cost(pk: &AnnealingPacket, out: &PacketOutcome, cm: &CostModel) -> f64 {
    let (mut fb, mut fc) = (0.0, 0.0);
    for &(t, q) in &out.assignment {
        fb -= pk.levels[t] as f64;
        fc += pk.comm_cost[t][q] as f64;
    }
    cm.total(fb, fc)
}

/// Runs one packet on the turbo lane and checks its mapping is a
/// saturated injection and its reported cost prices that mapping.
fn check_turbo_packet(pk: &AnnealingPacket, params: &AnnealParams, bal: BalanceRange, seed: u64) {
    let ctx = format!(
        "seed={seed} n={} p={} rule={:?} init={:?} keep_best={}",
        pk.num_tasks(),
        pk.num_procs(),
        params.acceptance,
        params.init,
        params.keep_best
    );
    let run = LaneRun {
        wb: 0.4,
        wc: 0.6,
        balance: bal,
        params,
        lane: SaLane::Turbo,
        want_trace: false,
    };
    let mut counters = LaneCounters::default();
    let out = anneal_packet_lane(
        pk,
        &run,
        &mut StdRng::seed_from_u64(seed),
        &mut SaScratch::new(),
        &mut counters,
    );
    assert_eq!(
        out.assignment.len(),
        pk.num_tasks().min(pk.num_procs()),
        "{ctx}: mapping not saturated"
    );
    let mut used = vec![false; pk.num_procs()];
    for &(_, q) in &out.assignment {
        assert!(!used[q], "{ctx}: processor {q} assigned twice");
        used[q] = true;
    }
    assert!(counters.decisions() <= out.moves, "{ctx}");
    let cm = CostModel::new(pk, 0.4, 0.6, bal);
    let recomputed = recomputed_cost(pk, &out, &cm);
    assert!(
        (out.final_cost - recomputed).abs() <= 1e-9 * recomputed.abs().max(1.0),
        "{ctx}: reported {} vs recomputed {recomputed}",
        out.final_cost
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random packets × rules × inits × keep-best × seeds: the turbo
    /// lane returns a valid saturated mapping whose reported cost is
    /// the from-scratch cost of that mapping.
    #[test]
    fn turbo_lane_prices_its_final_mapping_on_random_packets(
        levels in prop::collection::vec(1u64..200_000, 1..10),
        comm_seed in 0u64..1_000,
        procs in 1usize..8,
        seed in 0u64..500,
        rule_ix in 0usize..2,
        init_ix in 0usize..2,
        keep_best in any::<bool>(),
    ) {
        let n = levels.len();
        let mut crng = StdRng::seed_from_u64(comm_seed);
        let comm: Vec<Vec<u64>> = (0..n)
            .map(|_| {
                (0..procs)
                    .map(|_| rand::Rng::gen_range(&mut crng, 0u64..50_000))
                    .collect()
            })
            .collect();
        let pk = packet_from(levels, comm, procs);
        let params = AnnealParams {
            acceptance: [AcceptanceRule::HeatBath, AcceptanceRule::Metropolis][rule_ix],
            init: [InitRule::Random, InitRule::InOrder][init_ix],
            keep_best,
            ..AnnealParams::default()
        };
        check_turbo_packet(&pk, &params, BalanceRange::Full, seed);
        check_turbo_packet(&pk, &params, BalanceRange::PerIdle, seed ^ 0x9e37);
    }
}

fn topologies() -> Vec<Topology> {
    vec![hypercube(3), ring(5), mesh(2, 3), linear(4)]
}

fn graph_for(seed: u64) -> anneal_graph::TaskGraph {
    let cfg = LayeredConfig {
        layers: 4,
        width: 6,
        edge_prob: 0.4,
        load: Range::new(2_000, 80_000),
        comm: Range::new(500, 9_000),
    };
    layered_random(&cfg, &mut StdRng::seed_from_u64(seed))
}

/// Full scheduler runs over random graphs × topologies × seeds: both
/// lanes produce audited schedules that dispatch every task, and only
/// the turbo lane touches the acceptance table.
#[test]
fn both_lanes_schedule_validly_on_random_graphs_and_topologies() {
    for gseed in [3u64, 11] {
        let g = graph_for(gseed);
        for topo in topologies() {
            for seed in [1u64, 42, 97] {
                let run = |lane: SaLane| {
                    let cfg = SaConfig {
                        record_traces: true,
                        ..SaConfig::default().with_seed(seed).with_lane(lane)
                    };
                    let mut s = SaScheduler::new(cfg);
                    let r = simulate(
                        &g,
                        &topo,
                        &CommParams::paper(),
                        &mut s,
                        &SimConfig::default(),
                    )
                    .unwrap();
                    r.audit(&g).unwrap();
                    s
                };
                let ctx = format!("gseed={gseed} topo={} seed={seed}", topo.name());
                let se = run(SaLane::Exact);
                let st = run(SaLane::Turbo);
                for s in [&se, &st] {
                    assert_eq!(s.stats.assigned, g.num_tasks() as u64, "{ctx}");
                    assert_eq!(s.traces.len() as u64, s.stats.packets, "{ctx}");
                }
                let decisions = st.stats.lane_shortcut + st.stats.lane_table;
                assert!(decisions <= st.stats.moves, "{ctx}");
                assert!(decisions > 0, "{ctx}: turbo lane never engaged");
                assert!(st.stats.lane_rng_draws > 0, "{ctx}: no counter-RNG draws");
                assert_eq!(
                    se.stats.lane_shortcut + se.stats.lane_table + se.stats.lane_rng_draws,
                    0,
                    "{ctx}: exact lane must not touch the table"
                );
            }
        }
    }
}

/// 400+-move drift test: turbo accumulates `cost += delta` from
/// directly priced deltas; after hundreds of accepted moves the running
/// cost must still price the final mapping like a from-scratch
/// `CostModel` recomputation, to 1e-9 relative.
#[test]
fn running_cost_does_not_drift_over_400_moves() {
    let n = 9;
    let p = 5;
    let mut crng = StdRng::seed_from_u64(2024);
    let levels: Vec<u64> = (0..n)
        .map(|_| rand::Rng::gen_range(&mut crng, 1_000u64..150_000))
        .collect();
    let comm: Vec<Vec<u64>> = (0..n)
        .map(|_| {
            (0..p)
                .map(|_| rand::Rng::gen_range(&mut crng, 0u64..40_000))
                .collect()
        })
        .collect();
    let pk = packet_from(levels, comm, p);

    // keep_best = false so `final_cost` is the *running* cost after the
    // last accepted move, not a restored snapshot — exactly the value
    // that would expose accumulated float drift.
    let params = AnnealParams {
        keep_best: false,
        max_iters: 200,
        stable_iters: u64::MAX,
        acceptance: AcceptanceRule::HeatBath,
        ..AnnealParams::default()
    };
    let run = LaneRun {
        wb: 0.5,
        wc: 0.5,
        balance: BalanceRange::Full,
        params: &params,
        lane: SaLane::Turbo,
        want_trace: false,
    };
    let mut scratch = SaScratch::new();
    let mut counters = LaneCounters::default();
    let mut rng = StdRng::seed_from_u64(7);
    let out = anneal_packet_lane(&pk, &run, &mut rng, &mut scratch, &mut counters);
    assert!(out.moves >= 400, "only {} moves proposed", out.moves);
    assert!(out.accepted >= 100, "only {} moves accepted", out.accepted);

    let cm = CostModel::new(&pk, 0.5, 0.5, BalanceRange::Full);
    let recomputed = recomputed_cost(&pk, &out, &cm);
    assert!(
        (out.final_cost - recomputed).abs() <= 1e-9 * recomputed.abs(),
        "drift after {} accepted moves: running {} vs recomputed {}",
        out.accepted,
        out.final_cost,
        recomputed
    );
}

/// `SaScheduler::reseed` replays the identical run without rebuilding
/// the scheduler (the warm path: level cache and lane scratch stay
/// built).
#[test]
fn reseed_replays_identically_with_warm_buffers() {
    let g = graph_for(8);
    let topo = ring(5);
    let mut s = SaScheduler::new(SaConfig::default().with_seed(21));
    let r1 = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    let stats1 = s.stats.clone();
    s.reseed(21);
    let r2 = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.placement, r2.placement);
    assert_eq!(stats1, s.stats);
}

//! Oracle suite for the SA lanes.
//!
//! The exact engine is the oracle. The turbo lane solves each packet
//! instead of annealing it, so it is not compared with it move for move
//! (its final-makespan distribution is gated in
//! `tests/sa_lane_turbo.rs`). What turbo must never get wrong is the
//! packet optimum: every packet it solves must come out at the
//! brute-force eq. 6 minimum without a move, with exact ties broken
//! uniformly, its reported cost must price its mapping like a
//! from-scratch `CostModel` recomputation, and every schedule it
//! produces must be valid.

use anneal_core::cost::{BalanceRange, CostModel};
use anneal_core::mapping::PacketMapping;
use anneal_core::packet::AnnealingPacket;
use anneal_core::{CounterRng, SaConfig, SaLane, SaScheduler, SaScratch};
use anneal_graph::generate::{layered_random, LayeredConfig, Range};
use anneal_graph::levels::bottom_levels;
use anneal_graph::TaskId;
use anneal_sim::{simulate, EpochContext, OnlineScheduler, SimConfig};
use anneal_topology::builders::{hypercube, linear, mesh, ring};
use anneal_topology::{CommParams, ProcId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A solved packet: its mapping as `(task index, processor index)`
/// pairs in task order, and the eq. 6 cost the solver reported.
type Solved = (Vec<(usize, usize)>, f64);

/// Solves `pk` on the turbo lane with `w_b = wb`, `w_c = 1 − wb`.
fn solve(pk: &AnnealingPacket, wb: f64, bal: BalanceRange, rng: &mut dyn RngCore) -> Solved {
    let cm = CostModel::new(pk, wb, 1.0 - wb, bal);
    let mut scratch = SaScratch::new();
    let out = scratch.solve(&cm, rng, false);
    (scratch.assignments().collect(), out.final_cost)
}

/// Solves one packet on the turbo lane and checks its mapping is a
/// saturated injection and its reported cost prices that mapping.
fn check_turbo_packet(pk: &AnnealingPacket, bal: BalanceRange, seed: u64) {
    let ctx = format!("seed={seed} n={} p={}", pk.num_tasks(), pk.num_procs());
    let (assignment, final_cost) = solve(pk, 0.4, bal, &mut StdRng::seed_from_u64(seed));
    assert_eq!(
        assignment.len(),
        pk.num_tasks().min(pk.num_procs()),
        "{ctx}: mapping not saturated"
    );
    let mut used = vec![false; pk.num_procs()];
    for &(_, q) in &assignment {
        assert!(!used[q], "{ctx}: processor {q} assigned twice");
        used[q] = true;
    }
    let cm = CostModel::new(pk, 0.4, 0.6, bal);
    let (fb, fc) = cm.raw_full(assignment);
    let recomputed = cm.total(fb, fc);
    assert!(
        (final_cost - recomputed).abs() <= 1e-9 * recomputed.abs().max(1.0),
        "{ctx}: reported {final_cost} vs recomputed {recomputed}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random packets × seeds: the turbo lane returns a valid
    /// saturated mapping whose reported cost is the from-scratch cost
    /// of that mapping.
    #[test]
    fn turbo_lane_prices_its_final_mapping_on_random_packets(
        levels in prop::collection::vec(1u64..200_000, 1..10),
        comm_seed in 0u64..1_000,
        procs in 1usize..8,
        seed in 0u64..500,
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
        let pk = AnnealingPacket::from_rows(&levels, &comm);
        check_turbo_packet(&pk, BalanceRange::Full, seed);
        check_turbo_packet(&pk, BalanceRange::PerIdle, seed ^ 0x9e37);
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
/// lanes produce audited schedules that dispatch every task; only the
/// exact lane anneals, and only the turbo lane draws from counter
/// streams.
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
                assert_eq!(st.stats.moves, 0, "{ctx}: turbo lane annealed");
                assert!(st.stats.lane_rng_draws > 0, "{ctx}: no counter-RNG draws");
                assert!(se.stats.moves > 0, "{ctx}: exact lane never annealed");
                assert_eq!(
                    se.stats.lane_rng_draws, 0,
                    "{ctx}: exact lane must not draw from counter streams"
                );
            }
        }
    }
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

/// Saturated mappings of an `n × p` packet, `max!/(max−min)!`.
fn mapping_count(n: usize, p: usize) -> u64 {
    let (lo, hi) = (n.min(p) as u64, n.max(p) as u64);
    (0..lo).fold(1, |count, k| count.saturating_mul(hi - k))
}

/// Every packet shape of up to 24 tasks and 24 processors with at
/// most 5,040 saturated mappings, on both sides of `n = p`.
fn brute_forceable_shapes() -> Vec<(usize, usize)> {
    (1..=24)
        .flat_map(|n| (1..=24).map(move |p| (n, p)))
        .filter(|&(n, p)| mapping_count(n, p) <= 5_040)
        .collect()
}

/// Calls `visit` on every saturated mapping of `pk`, built task by task
/// (each task placed on a free processor or left out) through
/// `PacketMapping` moves.
fn for_each_saturated(pk: &AnnealingPacket, visit: &mut dyn FnMut(&PacketMapping)) {
    fn place(
        t: usize,
        placed: usize,
        m: &mut PacketMapping,
        want: usize,
        visit: &mut dyn FnMut(&PacketMapping),
    ) {
        let n = m.num_tasks();
        if placed == want {
            visit(m);
            return;
        }
        if t == n || n - t < want - placed {
            return;
        }
        for q in 0..m.num_procs() {
            if m.task_at(q).is_some() {
                continue;
            }
            let mv = m.propose(t, q).expect("a free processor accepts the task");
            m.apply(mv);
            place(t + 1, placed + 1, m, want, visit);
            m.undo(mv);
        }
        place(t + 1, placed, m, want, visit);
    }
    let mut m = PacketMapping::new(pk.num_tasks(), pk.num_procs());
    let want = pk.num_tasks().min(pk.num_procs());
    place(0, 0, &mut m, want, visit);
}

/// The eq. 6 minimum over every saturated mapping, and how many
/// mappings there are.
fn brute_force_minimum(pk: &AnnealingPacket, cm: &CostModel) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut count = 0u64;
    for_each_saturated(pk, &mut |m| {
        let (fb, fc) = cm.raw_full(m.assignments());
        best = best.min(cm.total(fb, fc));
        count += 1;
    });
    (best, count)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random packets with at most 5,040 mappings, on both sides of
    /// `n = p`, drawn from a few levels and costs so that ties occur,
    /// under mixed weights and with either weight zero: turbo returns a
    /// saturated injection without a move, and it prices to the
    /// brute-force eq. 6 minimum.
    #[test]
    fn enumerated_packets_reach_the_brute_force_minimum(
        shape_ix in 0usize..10_000,
        levels in prop::collection::vec(1u64..4, 24..25),
        comm_seed in 0u64..1_000,
        seed in 0u64..500,
        per_idle in any::<bool>(),
        wb_ix in 0usize..3,
    ) {
        let shapes = brute_forceable_shapes();
        let (n, p) = shapes[shape_ix % shapes.len()];
        let mut crng = StdRng::seed_from_u64(comm_seed);
        let comm: Vec<Vec<u64>> = (0..n)
            .map(|_| {
                (0..p)
                    .map(|_| rand::Rng::gen_range(&mut crng, 0u64..3) * 500)
                    .collect()
            })
            .collect();
        let levels: Vec<u64> = levels[..n].iter().map(|l| l * 1_000).collect();
        let pk = AnnealingPacket::from_rows(&levels, &comm);
        let bal = if per_idle { BalanceRange::PerIdle } else { BalanceRange::Full };
        let wb = [0.0, 0.4, 1.0][wb_ix];
        let ctx = format!("n={n} p={p} seed={seed} bal={bal:?} wb={wb}");

        let (assignment, final_cost) = solve(&pk, wb, bal, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(assignment.len(), n.min(p), "{}: not saturated", ctx);
        let mut m = PacketMapping::new(n, p);
        for &(t, q) in &assignment {
            prop_assert!(m.task_at(q).is_none(), "{}: processor {} used twice", ctx, q);
            m.apply(m.propose(t, q).expect("free processor"));
        }
        let cm = CostModel::new(&pk, wb, 1.0 - wb, bal);
        let (min, count) = brute_force_minimum(&pk, &cm);
        prop_assert_eq!(count, mapping_count(n, p), "{}", ctx);
        let (fb, fc) = cm.raw_full(m.assignments());
        prop_assert!(close(cm.total(fb, fc), min), "{}: mapping costs {} vs minimum {}", ctx, cm.total(fb, fc), min);
        prop_assert!(close(final_cost, min), "{}: reported {} vs minimum {}", ctx, final_cost, min);
    }
}

/// 3 equal-level tasks on 3 processors with no communication: all 6
/// mappings are optimal, and the tie shuffle picks each about as often.
#[test]
fn exact_ties_are_broken_uniformly() {
    let pk = AnnealingPacket::from_rows(&[5_000; 3], &[[0; 3]; 3]);
    let mut picks = std::collections::BTreeMap::new();
    for stream in 0..600 {
        let (assignment, _) = solve(
            &pk,
            0.4,
            BalanceRange::Full,
            &mut CounterRng::new(17, stream),
        );
        *picks.entry(assignment).or_insert(0u32) += 1;
    }
    assert_eq!(picks.len(), 6, "every optimum must be reachable: {picks:?}");
    for (mapping, &hits) in &picks {
        assert!(hits >= 50, "optimum {mapping:?} chosen {hits}/600 times");
    }
}

/// Packets of every size are solved without a move, including the
/// shapes around the old 24-mapping enumeration limit and ones far
/// past it; every shape with at most 9! mappings is checked against
/// the brute-force minimum.
#[test]
fn packets_of_every_size_are_solved_without_a_move() {
    for (n, p) in [
        (4, 4),
        (3, 4),
        (1, 24),
        (24, 1),
        (1, 25),
        (9, 9),
        (2, 9),
        (30, 4),
    ] {
        let levels: Vec<u64> = (0..n as u64).map(|i| 1_000 + 37 * i).collect();
        let comm: Vec<Vec<u64>> = (0..n)
            .map(|t| (0..p).map(|q| ((t * 7 + q * 3) % 5) as u64 * 400).collect())
            .collect();
        let pk = AnnealingPacket::from_rows(&levels, &comm);
        let (assignment, final_cost) =
            solve(&pk, 0.4, BalanceRange::Full, &mut StdRng::seed_from_u64(3));
        assert_eq!(assignment.len(), n.min(p), "{n}x{p}: not saturated");
        if mapping_count(n, p) <= 362_880 {
            let cm = CostModel::new(&pk, 0.4, 0.6, BalanceRange::Full);
            assert!(
                close(final_cost, brute_force_minimum(&pk, &cm).0),
                "{n}x{p}"
            );
        }
    }
}

/// Wraps an `SaScheduler` and prices every packet's dispatched mapping
/// from scratch (`AnnealingPacket` + `CostModel`), in packet order.
struct Pricing {
    sa: SaScheduler,
    levels: Option<Vec<u64>>,
    costs: Vec<f64>,
}

impl OnlineScheduler for Pricing {
    fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
        let before = out.len();
        self.sa.on_epoch(ctx, out);
        if ctx.ready.is_empty() || ctx.idle.is_empty() {
            return;
        }
        let levels = self.levels.get_or_insert_with(|| bottom_levels(ctx.graph));
        let pk = AnnealingPacket::from_epoch(ctx, levels);
        let cfg = self.sa.config();
        let cm = CostModel::new(&pk, cfg.wb, cfg.wc, cfg.balance_range);
        let (fb, fc) = cm.raw_full(out[before..].iter().map(|&(t, q)| {
            let ti = pk.tasks().iter().position(|&x| x == t).unwrap();
            let qi = pk.procs().iter().position(|&x| x == q).unwrap();
            (ti, qi)
        }));
        self.costs.push(cm.total(fb, fc));
    }

    fn name(&self) -> &str {
        self.sa.name()
    }
}

/// Tracing only records: with `record_traces` on and off, the turbo
/// lane takes the same path (placement, makespan, every counter), and
/// every packet records exactly one sample, its final cost.
#[test]
fn traced_and_untraced_runs_take_the_same_path() {
    for gseed in [3u64, 11] {
        let g = graph_for(gseed);
        for topo in topologies() {
            for seed in [1u64, 42] {
                let run = |record_traces: bool| {
                    let cfg = SaConfig {
                        record_traces,
                        ..SaConfig::default().with_seed(seed)
                    };
                    let mut s = Pricing {
                        sa: SaScheduler::new(cfg),
                        levels: None,
                        costs: Vec::new(),
                    };
                    let r = simulate(
                        &g,
                        &topo,
                        &CommParams::paper(),
                        &mut s,
                        &SimConfig::default(),
                    )
                    .unwrap();
                    (r, s)
                };
                let ctx = format!("gseed={gseed} topo={} seed={seed}", topo.name());
                let (rt, traced) = run(true);
                let (ru, untraced) = run(false);
                assert_eq!(rt.placement, ru.placement, "{ctx}");
                assert_eq!(rt.makespan, ru.makespan, "{ctx}");
                assert_eq!(traced.sa.stats, untraced.sa.stats, "{ctx}");
                assert!(untraced.sa.traces.is_empty(), "{ctx}");
                let stats = &traced.sa.stats;
                assert!(stats.packets > 0 && stats.moves == 0, "{ctx}: {stats:?}");
                assert_eq!(traced.sa.traces.len() as u64, stats.packets, "{ctx}");
                for tr in &traced.sa.traces {
                    assert_eq!(tr.samples.len(), 1, "{ctx}: packet {}", tr.packet);
                    let s = tr.samples[0];
                    assert_eq!((s.iter, s.temp, s.accepted), (0, 0.0, false), "{ctx}");
                    let cost = traced.costs[tr.packet as usize];
                    assert!(
                        close(s.f_total, cost),
                        "{ctx}: packet {} sample {} vs cost {cost}",
                        tr.packet,
                        s.f_total
                    );
                }
            }
        }
    }
}

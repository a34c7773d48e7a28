//! Regression tests for degenerate packet shapes and RNG call sites.
//!
//! Every `rng.gen_range(..)` in the schedulers draws from a range whose
//! emptiness is excluded by an invariant — packets are non-empty
//! (`sa.rs` skips epochs with no ready task or no idle processor),
//! `TaskGraph` cannot have zero tasks, `static_sa` gates its
//! processor-move branch on `np > 1` and its swap branch on `n > 1`.
//! These tests pin the degenerate boundary of each invariant: one task,
//! one processor, more tasks than processors and vice versa. A panic
//! here means one of the guards regressed into an empty-range draw
//! (`gen_range(0..0)`) or a non-terminating rejection loop.

use anneal_core::annealer::{anneal_packet, AnnealParams};
use anneal_core::cost::{BalanceRange, CostModel};
use anneal_core::mapping::PacketMapping;
use anneal_core::packet::AnnealingPacket;
use anneal_core::static_sa::{static_sa, StaticSaConfig};
use anneal_core::{level_dispatch_order, EvaluatorKind, SaConfig, SaLane, SaScheduler};
use anneal_graph::units::us;
use anneal_graph::TaskGraphBuilder;
use anneal_sim::{simulate, FixedMapping, SimConfig};
use anneal_topology::builders::{bus, hypercube, linear};
use anneal_topology::{CommParams, ProcId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A synthetic packet with `tasks × procs` shape and small levels.
fn packet(tasks: usize, procs: usize) -> AnnealingPacket {
    let levels: Vec<u64> = (0..tasks).map(|i| 1_000 * (i as u64 + 1)).collect();
    AnnealingPacket::from_rows(&levels, &vec![vec![100; procs]; tasks])
}

fn anneal(pk: &AnnealingPacket, seed: u64) -> anneal_core::annealer::PacketOutcome {
    let cm = CostModel::new(pk, 0.5, 0.5, BalanceRange::Full);
    let params = AnnealParams {
        max_iters: 50,
        ..AnnealParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    anneal_packet(&cm, &params, &mut rng, false)
}

/// A single-task graph (the smallest legal `TaskGraph`).
fn one_task_graph() -> anneal_graph::TaskGraph {
    let mut b = TaskGraphBuilder::new();
    b.add_task(us(5.0));
    b.build().unwrap()
}

#[test]
fn one_task_one_proc_packet_terminates() {
    // p == 1 with the task already on the only processor: every draw is
    // a wasted move (no legal destination); the annealer must converge
    // by the stability rule rather than loop forever in the
    // rejection-sampling of a destination processor.
    let out = anneal(&packet(1, 1), 7);
    assert_eq!(out.assignment, vec![(0, 0)]);
    assert!(out.iterations <= 50);
}

#[test]
fn many_tasks_one_proc_selects_exactly_one() {
    // Saturation is min(tasks, procs) = 1: exactly one task may be
    // dispatched, and its processor index must be the only one.
    for seed in 0..20 {
        let out = anneal(&packet(12, 1), seed);
        assert_eq!(out.assignment.len(), 1);
        assert_eq!(out.assignment[0].1, 0);
        assert!(out.assignment[0].0 < 12);
    }
}

#[test]
fn one_task_many_procs_assigns_the_task() {
    for seed in 0..20 {
        let out = anneal(&packet(1, 9), seed);
        assert_eq!(out.assignment.len(), 1);
        assert_eq!(out.assignment[0].0, 0);
        assert!(out.assignment[0].1 < 9);
    }
}

#[test]
fn mapping_saturate_random_handles_minimal_shapes() {
    let mut rng = StdRng::seed_from_u64(3);
    for (n, p) in [(1, 1), (1, 5), (5, 1)] {
        let mut m = PacketMapping::new(n, p);
        m.saturate_random(&mut rng);
        assert_eq!(m.assigned_count(), n.min(p));
        m.check_invariants().unwrap();
    }
}

#[test]
fn sa_schedules_single_task_on_single_proc() {
    // End to end: the scheduler sees a 1-ready × 1-idle packet on the
    // first epoch and nothing afterwards (no empty-packet draws).
    let g = one_task_graph();
    let mut s = SaScheduler::new(SaConfig::default());
    let r = simulate(
        &g,
        &linear(1),
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.makespan, g.total_work());
    r.audit(&g).unwrap();
}

#[test]
fn sa_schedules_single_task_on_hypercube() {
    let g = one_task_graph();
    let mut s = SaScheduler::new(SaConfig::default());
    let r = simulate(
        &g,
        &hypercube(3),
        &CommParams::paper(),
        &mut s,
        &SimConfig::default(),
    )
    .unwrap();
    assert_eq!(r.makespan, g.total_work());
    r.audit(&g).unwrap();
}

#[test]
fn static_sa_single_task_single_proc() {
    // n == 1 hits the swap branch's `n == 1` break (a self-swap no-op);
    // np == 1 makes the relocate branch unreachable. Must terminate.
    let g = one_task_graph();
    let out = static_sa(
        &g,
        &linear(1),
        &CommParams::zero(),
        &SimConfig {
            comm_enabled: false,
            ..SimConfig::default()
        },
        &StaticSaConfig {
            max_iters: 30,
            ..StaticSaConfig::default()
        },
    )
    .unwrap();
    assert_eq!(out.result.makespan, g.total_work());
    assert_eq!(out.mapping, vec![ProcId::from_index(0)]);
}

#[test]
fn static_sa_two_tasks_one_proc_terminates() {
    // np == 1 forces every move into the swap branch forever; the run
    // must still converge by cost stability.
    let mut b = TaskGraphBuilder::new();
    let a = b.add_task(us(2.0));
    let c = b.add_task(us(3.0));
    b.add_edge(a, c, 0).unwrap();
    let g = b.build().unwrap();
    let out = static_sa(
        &g,
        &linear(1),
        &CommParams::zero(),
        &SimConfig {
            comm_enabled: false,
            ..SimConfig::default()
        },
        &StaticSaConfig {
            max_iters: 30,
            ..StaticSaConfig::default()
        },
    )
    .unwrap();
    assert_eq!(out.result.makespan, g.total_work());
}

#[test]
fn static_sa_handles_a_graph_with_zero_total_work() {
    // Every load is 0, so the makespan normaliser `total_work()` is 0:
    // dividing by it made every cost NaN or infinite, which panicked the
    // exact lane's acceptance draw and left the turbo lane stuck on its
    // initial mapping.
    let mut b = TaskGraphBuilder::new();
    let root = b.add_task(0);
    for _ in 0..5 {
        let leaf = b.add_task(0);
        b.add_edge(root, leaf, us(4.0)).unwrap();
    }
    let g = b.build().unwrap();
    assert_eq!(g.total_work(), 0);
    let order = level_dispatch_order(&g);
    for topo in [bus(4), hypercube(2)] {
        let np = topo.num_procs();
        let mut round_robin = vec![ProcId::from_index(0); g.num_tasks()];
        for (i, &t) in g.topo_order().iter().enumerate() {
            round_robin[t.index()] = ProcId::from_index(i % np);
        }
        for comm_enabled in [true, false] {
            let sim_cfg = SimConfig {
                comm_enabled,
                ..SimConfig::default()
            };
            let mut initial = FixedMapping::new(round_robin.clone()).with_order(order.clone());
            let initial = simulate(&g, &topo, &CommParams::paper(), &mut initial, &sim_cfg)
                .unwrap()
                .makespan;
            for lane in [SaLane::Exact, SaLane::Turbo] {
                for evaluator in [EvaluatorKind::Full, EvaluatorKind::Incremental] {
                    let cfg = StaticSaConfig {
                        max_iters: 40,
                        stable_iters: 6,
                        seed: 3,
                        evaluator,
                        lane,
                        ..StaticSaConfig::default()
                    };
                    let out = static_sa(&g, &topo, &CommParams::paper(), &sim_cfg, &cfg).unwrap();
                    let what = format!("{} comm={comm_enabled} {lane:?} {evaluator}", topo.name());
                    out.result.audit(&g).unwrap();
                    assert_eq!(out.evaluations, out.proposed + 1, "{what}");
                    if comm_enabled {
                        // Only messages cost time here, and tasks that
                        // share a processor exchange none: a lane stuck
                        // on its initial mapping fails this.
                        assert!(out.result.makespan < initial, "{what}");
                    } else {
                        assert_eq!(out.result.makespan, 0, "{what}");
                    }
                }
            }
        }
    }
}

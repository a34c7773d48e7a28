//! Property-based tests for the simulation engine: fundamental laws that
//! must hold for any graph, topology and (valid) scheduler.

use anneal_graph::critical_path::critical_path_length;
use anneal_graph::generate::{gnp_dag, layered_random, LayeredConfig, Range};
use anneal_graph::units::us;
use anneal_graph::TaskGraph;
use anneal_sim::{
    simulate, simulate_makespan, FixedMapping, GreedyScheduler, SimConfig, SimScratch,
};
use anneal_topology::builders::*;
use anneal_topology::{CommParams, ProcId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 1usize..30, 0.0f64..0.9, prop::bool::ANY).prop_map(|(seed, n, p, layered)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let load = Range::new(us(1.0), us(60.0));
        let comm = Range::new(0, us(10.0));
        if layered {
            layered_random(
                &LayeredConfig {
                    layers: 1 + n % 5,
                    width: 1 + n / 5,
                    edge_prob: p,
                    load,
                    comm,
                },
                &mut rng,
            )
        } else {
            gnp_dag(n, p, load, comm, &mut rng)
        }
    })
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(hypercube(3)),
        Just(bus(8)),
        Just(ring(9)),
        Just(ring(4)),
        Just(star(5)),
        Just(linear(3)),
        Just(shared_bus(6)),
        Just(mesh(3, 2)),
        Just(linear(1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lower bounds: makespan >= critical path and >= total work / P,
    /// and the full audit passes (precedence, conservation, exclusivity).
    #[test]
    fn makespan_bounds_and_audit(g in arb_graph(), topo in arb_topology(), comm in prop::bool::ANY) {
        let params = if comm { CommParams::paper() } else { CommParams::zero() };
        let cfg = SimConfig { comm_enabled: comm, ..SimConfig::default() };
        let r = simulate(&g, &topo, &params, &mut GreedyScheduler, &cfg).unwrap();
        prop_assert!(r.makespan >= critical_path_length(&g));
        let work_bound = g.total_work() / topo.num_procs() as u64;
        prop_assert!(r.makespan >= work_bound);
        r.audit(&g).map_err(TestCaseError::fail)?;
        // All work conserved.
        prop_assert_eq!(r.compute_ns(), g.total_work());
        // Utilization sane.
        let u = r.utilization();
        prop_assert!(u > 0.0 && u <= 1.0 + 1e-12);
    }

    /// Without communication, makespan on one processor equals T1 and
    /// speedup equals 1.
    #[test]
    fn single_proc_serializes(g in arb_graph()) {
        let cfg = SimConfig { comm_enabled: false, ..SimConfig::default() };
        let r = simulate(&g, &linear(1), &CommParams::zero(), &mut GreedyScheduler, &cfg).unwrap();
        prop_assert_eq!(r.makespan, g.total_work());
        prop_assert!((r.speedup - 1.0).abs() < 1e-12);
    }

    /// Turning communication on can only slow execution down (with the
    /// same deterministic scheduler, the only change is added latency).
    /// Note: this is NOT true for arbitrary schedulers (Graham
    /// anomalies), but greedy-by-id keeps assignment order stable here
    /// because epochs see the same ready sets in the free case... which
    /// anomalies can break; so we only assert a weak sanity bound:
    /// with-comm makespan >= no-comm critical path.
    #[test]
    fn comm_cannot_beat_free_lower_bound(g in arb_graph(), topo in arb_topology()) {
        let cfg_on = SimConfig { comm_enabled: true, ..SimConfig::default() };
        let r_on = simulate(&g, &topo, &CommParams::paper(), &mut GreedyScheduler, &cfg_on).unwrap();
        prop_assert!(r_on.makespan >= critical_path_length(&g));
        // comm stats consistent
        prop_assert!(r_on.comm.hops >= r_on.comm.messages);
        if topo.num_procs() == 1 {
            prop_assert_eq!(r_on.comm.messages, 0);
        }
    }

    /// Packet accounting: every task is assigned exactly once.
    #[test]
    fn packets_assign_every_task(g in arb_graph(), topo in arb_topology()) {
        let cfg = SimConfig { comm_enabled: true, ..SimConfig::default() };
        let r = simulate(&g, &topo, &CommParams::paper(), &mut GreedyScheduler, &cfg).unwrap();
        prop_assert_eq!(r.packets.assigned, g.num_tasks() as u64);
        prop_assert!(r.packets.packets >= 1);
        prop_assert!(r.packets.total_candidates >= r.packets.assigned);
    }

    /// Start times respect readiness even with messages in flight.
    #[test]
    fn starts_after_preds_with_comm(g in arb_graph(), topo in arb_topology()) {
        let cfg = SimConfig { comm_enabled: true, ..SimConfig::default() };
        let r = simulate(&g, &topo, &CommParams::paper(), &mut GreedyScheduler, &cfg).unwrap();
        for (a, b, _) in g.edges() {
            prop_assert!(r.start[b.index()] >= r.finish[a.index()]);
            // with comm enabled and distinct processors, strictly later
            // unless the message machinery was free (zero overheads).
            if r.placement[a.index()] != r.placement[b.index()] {
                prop_assert!(r.start[b.index()] >= r.finish[a.index()] + CommParams::paper().sigma);
            }
        }
    }

    /// The fast path ([`simulate_makespan`]) is bit-identical to the
    /// general engine for a stateless online scheduler, with one
    /// scratch reused across every case (graphs and topologies of
    /// wildly different shapes — exactly how the arena workers use it).
    #[test]
    fn fast_path_matches_engine_greedy(g in arb_graph(), topo in arb_topology(), comm in prop::bool::ANY) {
        let params = if comm { CommParams::paper() } else { CommParams::zero() };
        let cfg = SimConfig { comm_enabled: comm, ..SimConfig::default() };
        let slow = simulate(&g, &topo, &params, &mut GreedyScheduler, &cfg).unwrap().makespan;
        let mut scratch = SimScratch::new();
        let fast = simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        prop_assert_eq!(fast, slow);
        // Re-running on the now-warm scratch changes nothing.
        let again = simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        prop_assert_eq!(again, slow);
    }

    /// Fast path vs engine on random fixed mappings with random
    /// dispatch orders — the preemption- and contention-heavy case
    /// `FixedEval` also runs, but through the public online-scheduler
    /// surface.
    #[test]
    fn fast_path_matches_engine_fixed_mapping(g in arb_graph(), topo in arb_topology(), seed in any::<u64>()) {
        let np = topo.num_procs();
        let mut rng = StdRng::seed_from_u64(seed);
        let mapping: Vec<ProcId> = (0..g.num_tasks()).map(|_| ProcId::from_index(rng.gen_range(0..np))).collect();
        let order: Vec<u64> = (0..g.num_tasks()).map(|_| rng.gen_range(0..8)).collect();
        let params = CommParams::paper();
        let cfg = SimConfig { comm_enabled: true, ..SimConfig::default() };
        let slow = simulate(
            &g, &topo, &params,
            &mut FixedMapping::new(mapping.clone()).with_order(order.clone()),
            &cfg,
        ).unwrap().makespan;
        let mut scratch = SimScratch::new();
        let fast = simulate_makespan(
            &g, &topo, &params,
            &mut FixedMapping::new(mapping).with_order(order),
            &cfg, &mut scratch,
        ).unwrap();
        prop_assert_eq!(fast, slow);
    }
}

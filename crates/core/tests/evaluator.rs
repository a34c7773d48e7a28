//! The mapping-pricing equivalence suite.
//!
//! Whole-graph static SA rests on one contract: for any graph,
//! topology, communication model, dispatch order and mapping, and
//! *however long the chain of mappings priced before it* on the same
//! pricer, [`FixedEval::makespan`] is **bit-identical** to a
//! from-scratch replay of the mapping through the full discrete-event
//! engine. These property tests walk random chains of one-move
//! neighbours (relocations and swaps, kept or undone as an annealer
//! would), including long ones that guard against state drift in the
//! fast-path kernel's reused buffers, and check every priced mapping
//! against `simulate`.

use anneal_core::level_dispatch_order;
use anneal_graph::generate::{fork_join, gnp_dag, layered_random, LayeredConfig, Range};
use anneal_graph::units::us;
use anneal_graph::TaskGraph;
use anneal_sim::{simulate, FixedEval, FixedMapping, SimConfig};
use anneal_topology::builders::*;
use anneal_topology::{CommParams, ProcId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 1usize..28, 0.0f64..0.9, 0u8..3).prop_map(|(seed, n, p, shape)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let load = Range::new(0, us(50.0));
        let comm = Range::new(0, us(12.0));
        match shape {
            0 => layered_random(
                &LayeredConfig {
                    layers: 1 + n % 5,
                    width: 1 + n / 5,
                    edge_prob: p,
                    load,
                    comm,
                },
                &mut rng,
            ),
            1 => gnp_dag(n, p, load, comm, &mut rng),
            _ => fork_join(1 + n / 3, load, comm, &mut rng),
        }
    })
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(hypercube(3)),
        Just(ring(5)),
        Just(bus(4)),
        Just(mesh(3, 2)),
        Just(star(5)),
        Just(shared_bus(4)),
        Just(linear(3)),
        Just(linear(1)),
    ]
}

/// Ground truth: one complete engine run of `mapping` under `order`.
fn engine_replay(
    g: &TaskGraph,
    topo: &Topology,
    params: &CommParams,
    cfg: &SimConfig,
    mapping: &[ProcId],
    order: &[u64],
) -> u64 {
    let mut s = FixedMapping::new(mapping.to_vec()).with_order(order.to_vec());
    simulate(g, topo, params, &mut s, cfg).unwrap().makespan
}

/// Walks `moves` one-move neighbours (50/50 relocate/swap, keeping
/// each with probability `keep_p` and undoing it otherwise), pricing
/// every neighbour with one `FixedEval` and asserting bit-identity with
/// the engine at every step.
#[allow(clippy::too_many_arguments)]
fn drive_chain(
    g: &TaskGraph,
    topo: &Topology,
    params: &CommParams,
    cfg: &SimConfig,
    chain_seed: u64,
    moves: usize,
    keep_p: f64,
    order: &[u64],
) -> Result<(), TestCaseError> {
    let n = g.num_tasks();
    let np = topo.num_procs();
    let mut ev = FixedEval::new(g, topo, params, cfg, order.to_vec()).unwrap();

    let mut rng = StdRng::seed_from_u64(chain_seed);
    let mut mapping: Vec<ProcId> = (0..n)
        .map(|_| ProcId::from_index(rng.gen_range(0..np)))
        .collect();
    prop_assert_eq!(
        ev.makespan(&mapping).unwrap(),
        engine_replay(g, topo, params, cfg, &mapping, order)
    );

    for step in 0..moves {
        let kept = mapping.clone();
        let t = rng.gen_range(0..n);
        if rng.gen_bool(0.5) {
            mapping[t] = ProcId::from_index(rng.gen_range(0..np));
        } else {
            mapping.swap(t, rng.gen_range(0..n));
        }
        let expected = engine_replay(g, topo, params, cfg, &mapping, order);
        prop_assert_eq!(
            ev.makespan(&mapping).unwrap(),
            expected,
            "kernel diverged at step {}",
            step
        );
        if !rng.gen_bool(keep_p) {
            mapping = kept;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(28))]

    /// Random graphs × topologies × mappings × short move chains, with
    /// the paper's communication model: every priced makespan matches a
    /// from-scratch full-DES replay bit for bit.
    #[test]
    fn incremental_matches_full_des_replay(
        g in arb_graph(),
        topo in arb_topology(),
        chain_seed in any::<u64>(),
    ) {
        let order = level_dispatch_order(&g);
        drive_chain(
            &g, &topo, &CommParams::paper(), &SimConfig::default(),
            chain_seed, 24, 0.4, &order,
        )?;
    }

    /// The same law without communication (pure precedence + queues)
    /// and under a task-id dispatch order.
    #[test]
    fn equivalence_holds_without_communication(
        g in arb_graph(),
        topo in arb_topology(),
        chain_seed in any::<u64>(),
    ) {
        let cfg = SimConfig { comm_enabled: false, ..SimConfig::default() };
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        drive_chain(
            &g, &topo, &CommParams::zero(), &SimConfig { comm_enabled: false, ..cfg },
            chain_seed, 16, 0.6, &order,
        )?;
    }
}

/// Long chains on a fixed instance: hundreds of moves, kept and undone
/// interleaved, must not drift (every run reuses the previous runs'
/// buffers).
#[test]
fn long_move_chains_do_not_drift() {
    let mut rng = StdRng::seed_from_u64(99);
    let g = layered_random(
        &LayeredConfig {
            layers: 5,
            width: 6,
            edge_prob: 0.4,
            load: Range::new(us(1.0), us(40.0)),
            comm: Range::new(us(0.5), us(10.0)),
        },
        &mut rng,
    );
    for topo in [hypercube(3), star(5)] {
        let order = level_dispatch_order(&g);
        drive_chain(
            &g,
            &topo,
            &CommParams::paper(),
            &SimConfig::default(),
            7,
            400,
            0.3,
            &order,
        )
        .unwrap();
    }
}

/// Degenerate shapes: single task, single processor, zero loads and
/// zero-weight edges.
#[test]
fn degenerate_instances_stay_equivalent() {
    use anneal_graph::TaskGraphBuilder;
    let mut b = TaskGraphBuilder::new();
    let a = b.add_task(0);
    let c = b.add_task(us(3.0));
    b.add_edge(a, c, 0).unwrap();
    let g = b.build().unwrap();
    for topo in [linear(1), linear(2)] {
        let order = vec![0, 1];
        drive_chain(
            &g,
            &topo,
            &CommParams::paper(),
            &SimConfig::default(),
            3,
            40,
            0.5,
            &order,
        )
        .unwrap();
    }

    let mut b = TaskGraphBuilder::new();
    b.add_task(us(5.0));
    let g1 = b.build().unwrap();
    drive_chain(
        &g1,
        &bus(3),
        &CommParams::paper(),
        &SimConfig::default(),
        4,
        20,
        0.5,
        &[0],
    )
    .unwrap();
}

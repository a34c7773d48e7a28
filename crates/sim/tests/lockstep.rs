//! Lockstep oracle: a [`simulate_makespans`] run gives every member
//! exactly its solo run's makespan or error and its solo kernel
//! counters, however the members' decisions part, coincide or fail.
//!
//! Each case draws a random graph, a topology from every builder, and
//! a member set in random order mixing [`GreedyScheduler`],
//! [`FixedMapping`]s with random mappings and dispatch orders, a
//! stateful scheduler whose decisions hash everything it has observed,
//! exact duplicates, and a scheduler that turns invalid at a chosen
//! epoch. Every member is checked against a fresh copy of itself run
//! solo through [`simulate_makespan`] and through the general engine
//! ([`simulate`]).

use anneal_graph::generate::{gnp_dag, layered_random, LayeredConfig, Range};
use anneal_graph::units::us;
use anneal_graph::{TaskGraph, TaskId};
use anneal_sim::{
    simulate, simulate_makespan, simulate_makespans, EpochContext, FixedMapping, GreedyScheduler,
    KernelRunStats, OnlineScheduler, SimConfig, SimError, SimScratch, SimTime,
};
use anneal_topology::builders::*;
use anneal_topology::{CommParams, ProcId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A member, as a recipe: each run builds a fresh scheduler from it.
#[derive(Debug, Clone)]
enum Spec {
    Greedy,
    Fixed(Vec<ProcId>, Vec<u64>),
    Hashing,
    /// Greedy until its `at`-th consulted epoch, which gets an invalid
    /// dispatch of kind `mode`.
    InvalidAt {
        at: usize,
        mode: u8,
    },
}

impl Spec {
    fn build(&self) -> Box<dyn OnlineScheduler> {
        match self {
            Spec::Greedy => Box::new(GreedyScheduler),
            Spec::Fixed(m, o) => Box::new(FixedMapping::new(m.clone()).with_order(o.clone())),
            Spec::Hashing => Box::new(Hashing(0)),
            Spec::InvalidAt { at, mode } => Box::new(InvalidAt {
                at: *at,
                mode: *mode,
                seen: 0,
            }),
        }
    }
}

/// Folds every context it observes into a running hash and pairs ready
/// tasks with idle processors at a hash-driven offset, so any
/// divergence from its solo context sequence changes its decisions.
struct Hashing(u64);

impl OnlineScheduler for Hashing {
    fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
        let mut mix = |v: u64| {
            let z = (self.0 ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            self.0 = z ^ (z >> 31);
        };
        mix(ctx.time);
        ctx.ready.iter().for_each(|t| mix(t.index() as u64 + 1));
        ctx.idle.iter().for_each(|p| mix(p.index() as u64 + 101));
        ctx.placement
            .iter()
            .for_each(|p| mix(p.map_or(0, |p| p.index() as u64 + 1)));
        ctx.finish.iter().for_each(|f| mix(f.map_or(0, |t| t + 1)));
        let k = (self.0 % ctx.idle.len() as u64) as usize;
        for (i, &t) in ctx.ready.iter().take(ctx.idle.len()).enumerate() {
            out.push((t, ctx.idle[(i + k) % ctx.idle.len()]));
        }
    }
}

struct InvalidAt {
    at: usize,
    mode: u8,
    seen: usize,
}

impl OnlineScheduler for InvalidAt {
    fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
        self.seen += 1;
        if self.seen != self.at {
            GreedyScheduler.on_epoch(ctx, out);
            return;
        }
        let (t, p) = (ctx.ready[0], ctx.idle[0]);
        match self.mode {
            0 => out.push((TaskId::from_index(ctx.graph.num_tasks() + 7), p)),
            1 => out.extend([(t, p), (t, p)]),
            // Two tasks onto one processor (one task twice when only
            // one is ready).
            2 => out.extend([(t, p), (*ctx.ready.last().unwrap_or(&t), p)]),
            _ => out.push((t, ProcId::from_index(ctx.topology.num_procs() + 3))),
        }
    }
}

fn graph(seed: u64, n: usize, p: f64, layered: bool) -> TaskGraph {
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
}

/// One small instance of every topology builder.
fn topologies() -> Vec<Topology> {
    vec![
        hypercube(3),
        ring(5),
        bus(4),
        complete(4),
        shared_bus(6),
        star(5),
        mesh(3, 2),
        torus(3, 3),
        binary_tree(7),
        linear(3),
    ]
}

/// A member set of 1 to 9 members in random order, drawn from a small
/// pool so exact duplicates are common.
fn members(g: &TaskGraph, np: usize, rng: &mut StdRng) -> Vec<Spec> {
    let n = g.num_tasks();
    let mut pool = vec![Spec::Greedy, Spec::Hashing];
    for _ in 0..2 {
        let mapping = (0..n)
            .map(|_| ProcId::from_index(rng.gen_range(0..np)))
            .collect();
        let order = (0..n).map(|_| rng.gen_range(0..4)).collect();
        pool.push(Spec::Fixed(mapping, order));
    }
    for mode in 0..4 {
        pool.push(Spec::InvalidAt {
            at: rng.gen_range(1..8),
            mode,
        });
    }
    (0..rng.gen_range(1..10))
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect()
}

type Outcome = (Result<SimTime, SimError>, KernelRunStats);

/// Runs `specs` in lockstep and returns each member's outcome, checking
/// that every member ends exactly once and gives its scheduler up.
fn lockstep(
    g: &TaskGraph,
    topo: &Topology,
    params: &CommParams,
    cfg: &SimConfig,
    specs: &[Spec],
    scratch: &mut SimScratch,
) -> (Vec<Outcome>, u64) {
    let mut slots: Vec<Option<Box<dyn OnlineScheduler>>> =
        specs.iter().map(|s| Some(s.build())).collect();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; specs.len()];
    let stats = simulate_makespans(g, topo, params, &mut slots, cfg, scratch, |riders| {
        for r in riders {
            if let Some(res) = &r.result {
                assert!(
                    outcomes[r.member].is_none(),
                    "member {} ended twice",
                    r.member
                );
                outcomes[r.member] = Some((res.clone(), r.stats));
            }
        }
    });
    assert!(
        slots.iter().all(Option::is_none),
        "every scheduler is dropped"
    );
    assert!(stats.branches >= 1 && stats.branches <= specs.len() as u64);
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every member ends"))
        .collect();
    (outcomes, stats.events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_member_gets_its_solo_run(
        gseed in any::<u64>(),
        n in 1usize..30,
        p in 0.0f64..0.9,
        layered in prop::bool::ANY,
        topo_ix in 0usize..10,
        mseed in any::<u64>(),
        comm in prop::bool::ANY,
    ) {
        let g = graph(gseed, n, p, layered);
        let topo = &topologies()[topo_ix];
        let params = if comm { CommParams::paper() } else { CommParams::zero() };
        let cfg = SimConfig { comm_enabled: comm, ..SimConfig::default() };
        let mut rng = StdRng::seed_from_u64(mseed);
        let specs = members(&g, topo.num_procs(), &mut rng);

        let mut scratch = SimScratch::new();
        let (outcomes, events) = lockstep(&g, topo, &params, &cfg, &specs, &mut scratch);
        let mut solo_events = 0;
        for (m, spec) in specs.iter().enumerate() {
            let solo = simulate_makespan(&g, topo, &params, spec.build().as_mut(), &cfg, &mut scratch);
            let stats = scratch.last_run_stats();
            solo_events += stats.events;
            prop_assert_eq!(&outcomes[m], &(solo.clone(), stats), "member {} ({:?})", m, spec);
            match simulate(&g, topo, &params, spec.build().as_mut(), &cfg) {
                Ok(r) => prop_assert_eq!(solo, Ok(r.makespan), "member {}", m),
                Err(e) => prop_assert_eq!(solo, Err(e), "member {}", m),
            }
        }
        // Shared prefixes are simulated once.
        prop_assert!(events <= solo_events);

        // A warm scratch (its parked branches reused) changes nothing.
        let (again, again_events) = lockstep(&g, topo, &params, &cfg, &specs, &mut scratch);
        prop_assert_eq!(again, outcomes);
        prop_assert_eq!(again_events, events);
    }
}

#[test]
fn identical_members_share_one_branch() {
    let g = graph(3, 24, 0.3, true);
    let topo = hypercube(3);
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let mut scratch = SimScratch::new();
    let solo = simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch);
    let stats = scratch.last_run_stats();
    let mut members = [GreedyScheduler, GreedyScheduler, GreedyScheduler];
    let [a, b, c] = &mut members;
    let mut slots = [Some(a), Some(b), Some(c)];
    let mut legs = 0;
    let work = simulate_makespans(
        &g,
        &topo,
        &params,
        &mut slots,
        &cfg,
        &mut scratch,
        |riders| {
            legs += 1;
            assert_eq!(riders.len(), 3);
            for r in riders {
                assert_eq!((r.result.clone(), r.stats), (Some(solo.clone()), stats));
            }
        },
    );
    assert_eq!(legs, 1);
    assert_eq!(work.branches, 1);
    assert_eq!(work.events, stats.events);
}

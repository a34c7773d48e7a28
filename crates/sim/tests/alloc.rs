//! Allocation-regression tests for the fast path and the fixed-mapping
//! evaluator.
//!
//! The whole point of [`SimScratch`] and [`FixedEval`]'s reused buffers
//! is that *steady-state* evaluation performs **zero heap allocation**:
//! after a warm-up that grows every buffer to its high-water mark,
//! further evaluations of the same instance must not touch the
//! allocator at all. A perf regression that quietly reintroduces a
//! per-call allocation (a fresh `Vec`, a `format!`, a route rebuild)
//! would survive every correctness test — this binary pins the property
//! with a counting global allocator.
//!
//! The counter tracks `alloc`/`realloc` calls (frees are irrelevant:
//! zero allocations implies zero frees of new memory). The libtest
//! harness runs tests on parallel threads and allocates for its own
//! bookkeeping, so the counter is **thread-scoped**: each test counts
//! only allocations made by its own thread (a `thread_local` flag read
//! by the global allocator), which makes the measured deltas
//! deterministic regardless of test scheduling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anneal_core::list::{ListScheduler, PriorityPolicy};
use anneal_core::{SaConfig, SaLane, SaScheduler};
use anneal_graph::generate::{layered_random, LayeredConfig, Range};
use anneal_graph::units::us;
use anneal_graph::TaskGraph;
use anneal_obs::NoopRecorder;
use anneal_sim::{
    simulate_makespan, simulate_makespans, FixedEval, FixedMapping, GreedyScheduler,
    OnlineScheduler, SimConfig, SimScratch,
};
use anneal_topology::builders::{hypercube, ring};
use anneal_topology::{CommParams, ProcId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread. `const` initializer: no lazy
    /// TLS setup inside the allocator itself.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    // `try_with` tolerates TLS teardown (allocations during thread
    // destruction are simply not counted).
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method hands its arguments to `System`, which meets
// the `GlobalAlloc` contract, and returns its result; `bump` does not
// allocate (a `const`-initialized thread-local `Cell<u64>`).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller meets `alloc`'s contract for `layout`, and
    // `System.alloc` gets that same `layout`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    // SAFETY: the caller passes a block this allocator returned for
    // `layout`, and every such block came from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: as for `dealloc`, `ptr` and `layout` name a `System`
    // block, and the caller meets `realloc`'s contract for `new_size`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

fn sample_graph(seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    layered_random(
        &LayeredConfig {
            layers: 4,
            width: 6,
            edge_prob: 0.4,
            load: Range::new(us(1.0), us(40.0)),
            comm: Range::new(us(0.5), us(8.0)),
        },
        &mut rng,
    )
}

#[test]
fn fast_path_steady_state_allocates_nothing() {
    let g = sample_graph(3);
    let topo = hypercube(3);
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let mut scratch = SimScratch::new();
    let mapping: Vec<ProcId> = (0..g.num_tasks())
        .map(|i| ProcId::from_index(i % 8))
        .collect();

    // Warm-up: grow every buffer (heap, queues, driver mirrors, route
    // cache) to its high-water mark.
    let mut expect = 0;
    for _ in 0..3 {
        expect = simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch)
            .unwrap();
        let m = simulate_makespan(
            &g,
            &topo,
            &params,
            &mut FixedMapping::new(mapping.clone()),
            &cfg,
            &mut scratch,
        )
        .unwrap();
        assert!(m > 0);
    }

    // FixedMapping::new allocates (it builds the order vec), so build
    // the scheduler outside the measured region and reuse it — replays
    // through the same scheduler object are valid (it is stateless
    // between runs).
    let mut fm = FixedMapping::new(mapping);
    let before = allocations();
    for _ in 0..50 {
        let a = simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch)
            .unwrap();
        assert_eq!(a, expect);
        simulate_makespan(&g, &topo, &params, &mut fm, &cfg, &mut scratch).unwrap();
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state fast-path simulation must not allocate ({delta} allocations in 100 runs)"
    );
}

#[test]
fn warm_lockstep_column_allocates_nothing() {
    // A column whose members part at different epochs (two mappings and
    // greedy) and coincide (duplicates of each): once the parked
    // branches are warm, re-running the column must not allocate.
    let g = sample_graph(21);
    let n = g.num_tasks();
    let topo = hypercube(3);
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let mut scratch = SimScratch::new();
    let spread: Vec<ProcId> = (0..n).map(|i| ProcId::from_index(i % 8)).collect();
    let packed: Vec<ProcId> = (0..n).map(|i| ProcId::from_index(i % 3)).collect();
    let (mut a, mut b) = (FixedMapping::new(spread.clone()), FixedMapping::new(spread));
    let mut c = FixedMapping::new(packed);
    let (mut g1, mut g2) = (GreedyScheduler, GreedyScheduler);
    let mut column = |scratch: &mut SimScratch| {
        let mut slots: [Option<&mut dyn OnlineScheduler>; 5] = [
            Some(&mut a),
            Some(&mut g1),
            Some(&mut c),
            Some(&mut b),
            Some(&mut g2),
        ];
        let mut makespans = [0u64; 5];
        let work = simulate_makespans(&g, &topo, &params, &mut slots, &cfg, scratch, |riders| {
            for r in riders {
                if let Some(res) = &r.result {
                    makespans[r.member] = *res.as_ref().unwrap();
                }
            }
        });
        (makespans, work)
    };
    let (expect, work) = column(&mut scratch);
    assert_eq!(work.branches, 3, "three distinct schedules");
    assert_eq!(expect[0], expect[3]);
    assert_eq!(expect[1], expect[4]);
    for _ in 0..2 {
        column(&mut scratch);
    }
    let before = allocations();
    for _ in 0..50 {
        assert_eq!(column(&mut scratch), (expect, work));
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "a warm lockstep column must not allocate ({delta} allocations in 50 columns)"
    );
}

#[test]
fn fast_path_alternating_instances_allocate_nothing_once_warm() {
    // A worker sweeping cells alternates instances and topologies; once
    // both shapes are warm, switching between them must stay free (the
    // route cache holds both, buffers only ever grow).
    let g1 = sample_graph(5);
    let g2 = sample_graph(11);
    let t1 = hypercube(3);
    let t2 = ring(5);
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let mut scratch = SimScratch::new();
    for _ in 0..3 {
        simulate_makespan(&g1, &t1, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        simulate_makespan(&g2, &t2, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        simulate_makespan(&g1, &t2, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        simulate_makespan(&g2, &t1, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
    }
    let before = allocations();
    for _ in 0..25 {
        simulate_makespan(&g1, &t1, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        simulate_makespan(&g2, &t2, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        simulate_makespan(&g1, &t2, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
        simulate_makespan(&g2, &t1, &params, &mut GreedyScheduler, &cfg, &mut scratch).unwrap();
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "alternating warm instances must not allocate ({delta} allocations in 100 runs)"
    );
}

#[test]
fn observation_with_noop_recorder_allocates_nothing() {
    // The observability layer's core bargain: with the recorder off
    // (`NoopRecorder`), the whole instrumented surface — kernel run
    // stats, route-cache stats and their `record_into` flushes — adds
    // zero steady-state allocations to the hot path, next to a warm
    // evaluator's move chain.
    let g = sample_graph(13);
    let n = g.num_tasks();
    let topo = hypercube(3);
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let mut scratch = SimScratch::new();

    let order: Vec<u64> = (0..n as u64).collect();
    let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order).unwrap();
    let mut mapping: Vec<ProcId> = (0..n).map(|i| ProcId::from_index(i % 8)).collect();

    // Warm-up: same deterministic move script as the measured region,
    // long enough to grow every buffer to its high-water mark. Every
    // third move is kept; the others are undone.
    let mut expect = 0;
    let step = |ev: &mut FixedEval<'_>, mapping: &mut [ProcId], i: usize| {
        let t = i % n;
        let prev = mapping[t];
        mapping[t] = ProcId::from_index((i * 7) % 8);
        ev.makespan(mapping).unwrap();
        if !i.is_multiple_of(3) {
            mapping[t] = prev;
        }
    };
    for i in 0..600usize {
        if i.is_multiple_of(10) {
            expect =
                simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch)
                    .unwrap();
        }
        step(&mut ev, &mut mapping, i);
    }

    let mut noop = NoopRecorder;
    let before = allocations();
    for i in 0..60usize {
        if i.is_multiple_of(10) {
            let m = simulate_makespan(&g, &topo, &params, &mut GreedyScheduler, &cfg, &mut scratch)
                .unwrap();
            assert_eq!(m, expect);
            scratch.last_run_stats().record_into(&mut noop);
            scratch.route_cache_stats().record_into(&mut noop);
        }
        step(&mut ev, &mut mapping, i);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "observation through NoopRecorder must not allocate \
         ({delta} allocations in 60 observed moves)"
    );
}

#[test]
fn turbo_sa_lane_steady_state_allocates_nothing() {
    // The production lane's packet tables (the scheduler's reloaded
    // `AnnealingPacket`) and solver buffers (`SaScratch`) are built on
    // the first packet and reused through grow-only buffers, each
    // epoch's `CostModel` allocates nothing, and its counter-based RNG
    // streams are a fixed-size two-word state. Once a scheduler is
    // warm on its instance, `reseed` + re-simulate must not touch the
    // allocator. One scheduler per instance: `reseed` keeps the
    // per-graph level cache, the packet and the lane scratch, valid
    // for the same instance only.
    let g1 = sample_graph(9);
    let g2 = sample_graph(15);
    let t1 = hypercube(3);
    let t2 = ring(5);
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let mut scratch = SimScratch::new();
    let lane_cfg = |seed| SaConfig::default().with_seed(seed).with_lane(SaLane::Turbo);
    let mut s1 = SaScheduler::new(lane_cfg(21));
    let mut s2 = SaScheduler::new(lane_cfg(22));

    let mut e1 = 0;
    let mut e2 = 0;
    for _ in 0..3 {
        s1.reseed(21);
        e1 = simulate_makespan(&g1, &t1, &params, &mut s1, &cfg, &mut scratch).unwrap();
        s2.reseed(22);
        e2 = simulate_makespan(&g2, &t2, &params, &mut s2, &cfg, &mut scratch).unwrap();
    }

    let before = allocations();
    for _ in 0..20 {
        s1.reseed(21);
        let m1 = simulate_makespan(&g1, &t1, &params, &mut s1, &cfg, &mut scratch).unwrap();
        assert_eq!(m1, e1);
        s2.reseed(22);
        let m2 = simulate_makespan(&g2, &t2, &params, &mut s2, &cfg, &mut scratch).unwrap();
        assert_eq!(m2, e2);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "warm turbo SA lane must not allocate ({delta} allocations in 40 runs)"
    );
}

#[test]
fn warm_list_scheduler_epochs_allocate_nothing() {
    // Every list-scheduling rule ranks the ready tasks, and every rule
    // but in-order placement tracks the free processors, in buffers the
    // scheduler keeps: once a scheduler is warm on its instance (its
    // priorities computed, its buffers grown), re-simulating allocates
    // nothing.
    let g = sample_graph(19);
    let topo = hypercube(3);
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let mut scratch = SimScratch::new();
    let policies = [
        PriorityPolicy::HighestLevelFirst,
        PriorityPolicy::HighestLevelFirstComm,
        PriorityPolicy::LongestTaskFirst,
        PriorityPolicy::ShortestTaskFirst,
        PriorityPolicy::Fifo,
        PriorityPolicy::Random(5),
    ];
    let mut schedulers: Vec<ListScheduler> = policies.into_iter().map(ListScheduler::new).collect();
    schedulers.extend([
        ListScheduler::mct(),
        ListScheduler::heft(),
        ListScheduler::cpop(),
    ]);
    for s in &mut schedulers {
        let mut expect = 0;
        for _ in 0..3 {
            expect = simulate_makespan(&g, &topo, &params, s, &cfg, &mut scratch).unwrap();
        }
        let before = allocations();
        for _ in 0..20 {
            let m = simulate_makespan(&g, &topo, &params, s, &cfg, &mut scratch).unwrap();
            assert_eq!(m, expect);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "warm {} epochs must not allocate ({delta} allocations in 20 runs)",
            s.name()
        );
    }
}

#[test]
fn mapping_pricing_allocates_nothing_after_warmup() {
    let g = sample_graph(7);
    let n = g.num_tasks();
    let topo = hypercube(3);
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let order: Vec<u64> = (0..n as u64).collect();
    let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order).unwrap();
    let mut mapping: Vec<ProcId> = (0..n).map(|i| ProcId::from_index(i % 8)).collect();

    // The script: static_sa's access pattern, a chain of one-move
    // neighbours (relocations and swaps) applied in place, each priced
    // and then kept or undone.
    let mut rng = StdRng::seed_from_u64(17);
    let mut script = Vec::new();
    for _ in 0..1500 {
        let relocate = rng.gen_bool(0.5);
        let a = rng.gen_range(0..n);
        let b = if relocate {
            rng.gen_range(0..8)
        } else {
            rng.gen_range(0..n)
        };
        let keep = rng.gen_bool(0.4);
        script.push((relocate, a, b, keep));
    }
    let price =
        |ev: &mut FixedEval<'_>, mapping: &mut [ProcId], script: &[(bool, usize, usize, bool)]| {
            for &(relocate, a, b, keep) in script {
                let prev = mapping[a];
                if relocate {
                    mapping[a] = ProcId::from_index(b);
                } else {
                    mapping.swap(a, b);
                }
                ev.makespan(mapping).unwrap();
                if keep {
                    continue;
                }
                if relocate {
                    mapping[a] = prev;
                } else {
                    mapping.swap(a, b);
                }
            }
        };
    // Warm-up: the whole chain grows the kernel's queues and the
    // waiting lists to their high-water marks.
    price(&mut ev, &mut mapping, &script);

    // Measured region: the same mix of mappings on the warm pricer.
    let measured = &script[..300];
    let before = allocations();
    price(&mut ev, &mut mapping, measured);
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state FixedEval pricing must not allocate \
         ({delta} allocations in {} mappings)",
        measured.len()
    );
}

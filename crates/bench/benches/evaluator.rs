//! Move-evaluation throughput: full replay vs the fast-path kernel.
//!
//! Benchmarks the two [`anneal_core::Evaluator`] implementations on the
//! same deterministic move chains, across the three size tiers of the
//! campaign instance family (`anneal_arena::campaign_instance` sweeps
//! six graph shapes × three size tiers; this bench rebuilds one
//! instance per shape at each tier on the campaign's host rotation).
//! Probes mirror `static_sa`'s proposal distribution — 50% single-task
//! relocations to a different processor, 50% swaps — with greedy
//! commits, and the chains assert bit-identical makespans between the
//! two implementations while measuring.
//!
//! Besides the Criterion console report, the bench writes a
//! machine-readable summary to `results/BENCH_evaluator.json`: per-tier
//! and per-shape ns/move for both implementations, the per-shape
//! speedup, the arithmetic mean speedup over shapes and the
//! moves-weighted (total-time) speedup — so the perf trajectory of the
//! evaluation layer is tracked as an artifact.
//!
//! Set `EVALUATOR_BENCH_SMOKE=1` for a fast CI pass: fewer moves and
//! repetitions, same equivalence assertions, same JSON artifact.

use std::time::Instant;

use anneal_core::{level_dispatch_order, Evaluator, EvaluatorKind};
use anneal_graph::generate::{
    chain, fork_join, gnp_dag, independent, layered_random, series_parallel, LayeredConfig, Range,
};
use anneal_graph::units::us;
use anneal_graph::{TaskGraph, TaskId};
use anneal_sim::SimConfig;
use anneal_topology::builders::{bus, hypercube, mesh, ring, star, torus};
use anneal_topology::{CommParams, ProcId, Topology};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct ShapeCase {
    shape: &'static str,
    graph: TaskGraph,
    topo: Topology,
}

/// One instance per campaign shape at size tier `scale` (1–3), on the
/// campaign family's host rotation.
fn tier_cases(scale: usize, seed: u64) -> Vec<ShapeCase> {
    let load = Range::new(us(2.0), us(60.0));
    let comm = Range::new(us(1.0), us(12.0));
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes: Vec<(&'static str, TaskGraph)> = vec![
        (
            "layered",
            layered_random(
                &LayeredConfig {
                    layers: 2 + scale,
                    width: 2 + 2 * scale,
                    edge_prob: 0.35,
                    load,
                    comm,
                },
                &mut rng,
            ),
        ),
        ("gnp", gnp_dag(12 * scale, 0.18, load, comm, &mut rng)),
        ("forkjoin", fork_join(4 + 3 * scale, load, comm, &mut rng)),
        ("sp", series_parallel(6 + 4 * scale, load, comm, &mut rng)),
        ("chain", chain(6 + 5 * scale, load, comm, &mut rng)),
        ("indep", independent(8 + 4 * scale, load, &mut rng)),
    ];
    let hosts: [Topology; 6] = [
        hypercube(3),
        ring(5),
        bus(4),
        mesh(3, 2),
        torus(3, 3),
        star(6),
    ];
    shapes
        .into_iter()
        .zip(hosts)
        .map(|((shape, graph), topo)| ShapeCase { shape, graph, topo })
        .collect()
}

/// The probe distribution a chain draws its moves from.
#[derive(Clone, Copy, PartialEq)]
enum Probes {
    /// Single-task relocations to a different processor only — the
    /// purest per-move comparison.
    Relocate,
    /// `static_sa`'s proposal mix: 50% relocations, 50% swaps.
    SaMix,
}

impl Probes {
    fn name(self) -> &'static str {
        match self {
            Probes::Relocate => "relocate",
            Probes::SaMix => "sa-mix",
        }
    }
}

/// Runs a probe chain with greedy commits and returns every candidate
/// makespan.
fn run_chain(
    ev: &mut dyn Evaluator,
    case: &ShapeCase,
    probes: Probes,
    moves: usize,
    seed: u64,
) -> Vec<u64> {
    let n = case.graph.num_tasks();
    let np = case.topo.num_procs();
    let mut rng = StdRng::seed_from_u64(seed);
    let mapping: Vec<ProcId> = (0..n).map(|i| ProcId::from_index(i % np)).collect();
    let mut mapping = mapping;
    let mut cur = ev.reset(&mapping).expect("baseline evaluates");
    let mut out = Vec::with_capacity(moves);
    for _ in 0..moves {
        let a = rng.gen_range(0..n);
        let cand;
        enum Mv {
            Relocate(usize, usize),
            Swap(usize, usize),
        }
        let mv;
        if np > 1 && (probes == Probes::Relocate || rng.gen_bool(0.5)) {
            let mut p = rng.gen_range(0..np);
            while ProcId::from_index(p) == mapping[a] {
                p = rng.gen_range(0..np);
            }
            cand = ev
                .eval_relocate(TaskId::from_index(a), ProcId::from_index(p))
                .expect("relocate evaluates");
            mv = Mv::Relocate(a, p);
        } else {
            let mut b = rng.gen_range(0..n);
            while b == a {
                if n == 1 {
                    break;
                }
                b = rng.gen_range(0..n);
            }
            cand = ev
                .eval_swap(TaskId::from_index(a), TaskId::from_index(b))
                .expect("swap evaluates");
            mv = Mv::Swap(a, b);
        }
        if cand < cur {
            ev.commit();
            match mv {
                Mv::Relocate(t, p) => mapping[t] = ProcId::from_index(p),
                Mv::Swap(t, u) => mapping.swap(t, u),
            }
            cur = cand;
        }
        out.push(cand);
    }
    out
}

fn build<'a>(
    kind: EvaluatorKind,
    case: &'a ShapeCase,
    params: &'a CommParams,
    cfg: &'a SimConfig,
) -> Box<dyn Evaluator + 'a> {
    kind.build(
        &case.graph,
        &case.topo,
        params,
        cfg,
        level_dispatch_order(&case.graph),
    )
    .expect("evaluator builds")
}

/// Best-of-`reps` mean ns/move over full chains.
fn time_chain(
    kind: EvaluatorKind,
    case: &ShapeCase,
    probes: Probes,
    moves: usize,
    reps: usize,
) -> f64 {
    let params = CommParams::paper();
    let cfg = SimConfig::default();
    let mut ev = build(kind, case, &params, &cfg);
    let mut best = f64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        run_chain(ev.as_mut(), case, probes, moves, 7);
        best = best.min(start.elapsed().as_nanos() as f64 / moves as f64);
    }
    best
}

fn bench_evaluator(c: &mut Criterion) {
    let smoke = std::env::var("EVALUATOR_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let (moves, reps) = if smoke { (40, 1) } else { (300, 5) };
    let params = CommParams::paper();
    let cfg = SimConfig::default();

    let mut group = c.benchmark_group("evaluator");
    let mut tier_rows = Vec::new();
    for (tier, scale) in [("small", 1usize), ("medium", 2), ("large", 3)] {
        let cases = tier_cases(scale, 100 + scale as u64);
        for probes in [Probes::Relocate, Probes::SaMix] {
            let mut shape_rows = Vec::new();
            let (mut sum_full, mut sum_incr) = (0.0f64, 0.0f64);
            let mut speedups = Vec::new();
            for case in &cases {
                // Equivalence gate on the fixed seed: the fast-path
                // kernel must agree with full replay on every probe.
                let full_chain = run_chain(
                    build(EvaluatorKind::Full, case, &params, &cfg).as_mut(),
                    case,
                    probes,
                    moves,
                    7,
                );
                let incr_chain = run_chain(
                    build(EvaluatorKind::Incremental, case, &params, &cfg).as_mut(),
                    case,
                    probes,
                    moves,
                    7,
                );
                assert_eq!(
                    full_chain, incr_chain,
                    "evaluator divergence on {tier}/{}",
                    case.shape
                );

                let full_ns = time_chain(EvaluatorKind::Full, case, probes, moves, reps);
                let incr_ns = time_chain(EvaluatorKind::Incremental, case, probes, moves, reps);
                let speedup = full_ns / incr_ns;
                sum_full += full_ns;
                sum_incr += incr_ns;
                speedups.push(speedup);
                shape_rows.push(format!(
                    "        {{\"shape\": \"{}\", \"tasks\": {}, \"host\": \"{}\", \
                     \"full_ns_per_move\": {:.0}, \"incremental_ns_per_move\": {:.0}, \
                     \"speedup\": {:.2}}}",
                    case.shape,
                    case.graph.num_tasks(),
                    case.topo.name(),
                    full_ns,
                    incr_ns,
                    speedup
                ));
            }
            // Criterion rows: one full-chain timing per
            // (impl, tier, probe mix), chaining all six shapes.
            for kind in [EvaluatorKind::Full, EvaluatorKind::Incremental] {
                group.bench_function(
                    BenchmarkId::new(kind.name(), format!("{tier}/{}", probes.name())),
                    |b| {
                        let mut evs: Vec<_> = cases
                            .iter()
                            .map(|case| (build(kind, case, &params, &cfg), case))
                            .collect();
                        b.iter(|| {
                            for (ev, case) in &mut evs {
                                run_chain(ev.as_mut(), case, probes, moves, 7);
                            }
                        })
                    },
                );
            }

            let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
            let weighted = sum_full / sum_incr;
            println!(
                "evaluator/{tier}/{}: mean speedup {mean:.2}x over {} shapes, \
                 moves-weighted {weighted:.2}x",
                probes.name(),
                speedups.len()
            );
            tier_rows.push(format!(
                "    {{\"tier\": \"{tier}\", \"probes\": \"{}\", \
                 \"moves_per_shape\": {moves}, \
                 \"mean_speedup\": {mean:.2}, \"moves_weighted_speedup\": {weighted:.2}, \
                 \"shapes\": [\n{}\n    ]}}",
                probes.name(),
                shape_rows.join(",\n")
            ));
        }
    }
    group.finish();

    // Benches run with the package directory as CWD; anchor the
    // artifact at the workspace root like the harness binaries do.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let json = format!(
        "{{\n  \"bench\": \"evaluator\",\n  \"mode\": \"{}\",\n  \"tiers\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        tier_rows.join(",\n")
    );
    let path = dir.join("BENCH_evaluator.json");
    std::fs::write(&path, json).expect("write BENCH_evaluator.json");
    println!("wrote {}", path.display());
}

criterion_group!(benches, bench_evaluator);
criterion_main!(benches);

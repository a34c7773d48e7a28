//! Mapping-pricing throughput: full replay vs the fast-path kernel.
//!
//! Benchmarks the two ways whole-graph static SA can price a mapping
//! (`EvaluatorKind::Full`, one `replay_mapping`; `EvaluatorKind::
//! Incremental`, one `FixedEval::makespan`) on the same deterministic
//! move chains, across the three size tiers of the campaign instance
//! family (`anneal_arena::campaign_instance` sweeps six graph shapes ×
//! three size tiers; this bench rebuilds one instance per shape at each
//! tier on the campaign's host rotation). A chain works like
//! `static_sa`: it applies a move to its mapping in place (50%
//! single-task relocations to a different processor, 50% swaps), prices
//! the whole mapping, and undoes the move unless it improved the
//! makespan. A swap within one processor leaves the mapping unchanged
//! and is priced as the current makespan without a run, as in
//! `static_sa`. The chains assert bit-identical makespans between the
//! two kinds on every priced mapping while measuring.
//!
//! Besides the Criterion console report, the bench writes a
//! machine-readable summary to `results/BENCH_evaluator.json`: per-tier
//! and per-shape ns/move for both kinds as the median and interquartile
//! range over repeated timed chains (the two kinds alternate rep by
//! rep), the per-shape speedup of the medians, the arithmetic mean
//! speedup over shapes and the moves-weighted (total-time) speedup, so
//! the perf trajectory of mapping pricing is tracked as an artifact.
//!
//! Set `EVALUATOR_BENCH_SMOKE=1` for a fast CI pass: fewer moves and
//! repetitions, same equivalence assertions, same JSON artifact.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a timing bench reads the wall clock and its smoke-mode variable"
)]

use std::time::Instant;

use anneal_core::{level_dispatch_order, replay_mapping, EvaluatorKind};
use anneal_graph::generate::{
    chain, fork_join, gnp_dag, independent, layered_random, series_parallel, LayeredConfig, Range,
};
use anneal_graph::units::us;
use anneal_graph::TaskGraph;
use anneal_sim::{FixedEval, SimConfig};
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

/// Prices complete mappings of one case the way `static_sa` does under
/// `kind`: the fast-path kernel, or a complete engine replay.
struct Pricer<'a> {
    case: &'a ShapeCase,
    params: &'a CommParams,
    cfg: &'a SimConfig,
    order: Vec<u64>,
    kernel: Option<FixedEval<'a>>,
}

impl<'a> Pricer<'a> {
    fn new(
        kind: EvaluatorKind,
        case: &'a ShapeCase,
        params: &'a CommParams,
        cfg: &'a SimConfig,
    ) -> Self {
        let order = level_dispatch_order(&case.graph);
        let kernel = match kind {
            EvaluatorKind::Incremental => Some(
                FixedEval::new(&case.graph, &case.topo, params, cfg, order.clone())
                    .expect("kernel builds"),
            ),
            EvaluatorKind::Full => None,
        };
        Pricer {
            case,
            params,
            cfg,
            order,
            kernel,
        }
    }

    fn makespan(&mut self, mapping: &[ProcId]) -> u64 {
        match self.kernel.as_mut() {
            Some(kernel) => kernel.makespan(mapping).expect("mapping prices"),
            None => {
                replay_mapping(
                    &self.case.graph,
                    &self.case.topo,
                    self.params,
                    self.cfg,
                    mapping.to_vec(),
                    Some(self.order.clone()),
                )
                .expect("mapping replays")
                .makespan
            }
        }
    }
}

/// Runs a move chain that keeps only improving moves and returns every
/// candidate makespan.
fn run_chain(pricer: &mut Pricer<'_>, probes: Probes, moves: usize, seed: u64) -> Vec<u64> {
    let n = pricer.case.graph.num_tasks();
    let np = pricer.case.topo.num_procs();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mapping: Vec<ProcId> = (0..n).map(|i| ProcId::from_index(i % np)).collect();
    let mut cur = pricer.makespan(&mapping);
    let mut out = Vec::with_capacity(moves);
    for _ in 0..moves {
        let a = rng.gen_range(0..n);
        let prev = mapping[a];
        let mut b = a;
        if np > 1 && (probes == Probes::Relocate || rng.gen_bool(0.5)) {
            let mut p = rng.gen_range(0..np);
            while ProcId::from_index(p) == prev {
                p = rng.gen_range(0..np);
            }
            mapping[a] = ProcId::from_index(p);
        } else {
            b = rng.gen_range(0..n);
            while b == a && n > 1 {
                b = rng.gen_range(0..n);
            }
            mapping.swap(a, b);
        }
        let cand = if mapping[a] == prev {
            cur
        } else {
            pricer.makespan(&mapping)
        };
        if cand < cur {
            cur = cand;
        } else if b == a {
            mapping[a] = prev;
        } else {
            mapping.swap(a, b);
        }
        out.push(cand);
    }
    out
}

/// Median and interquartile range of a sample.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Spread {
    /// Quantiles by linear interpolation between order statistics.
    fn of(mut v: Vec<f64>) -> Spread {
        v.sort_by(f64::total_cmp);
        let q = |p: f64| {
            let x = p * (v.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        };
        Spread {
            median: q(0.5),
            q1: q(0.25),
            q3: q(0.75),
        }
    }

    fn json(self) -> String {
        format!(
            "{{\"median\": {:.0}, \"q1\": {:.0}, \"q3\": {:.0}}}",
            self.median, self.q1, self.q3
        )
    }
}

/// Per-rep mean ns/move over full chains for both kinds, alternating
/// the kinds rep by rep so drift on the host hits both alike.
fn time_chains(
    case: &ShapeCase,
    probes: Probes,
    moves: usize,
    reps: usize,
    params: &CommParams,
    cfg: &SimConfig,
) -> (Spread, Spread) {
    let mut full = Pricer::new(EvaluatorKind::Full, case, params, cfg);
    let mut incr = Pricer::new(EvaluatorKind::Incremental, case, params, cfg);
    let time = |pricer: &mut Pricer<'_>| {
        let start = Instant::now();
        std::hint::black_box(run_chain(pricer, probes, moves, 7));
        start.elapsed().as_nanos() as f64 / moves as f64
    };
    let (mut full_ns, mut incr_ns) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        full_ns.push(time(&mut full));
        incr_ns.push(time(&mut incr));
    }
    (Spread::of(full_ns), Spread::of(incr_ns))
}

fn bench_evaluator(c: &mut Criterion) {
    let smoke = std::env::var("EVALUATOR_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let (moves, reps) = if smoke { (40, 3) } else { (300, 11) };
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
                // kernel must agree with full replay on every priced
                // mapping.
                let full_chain = run_chain(
                    &mut Pricer::new(EvaluatorKind::Full, case, &params, &cfg),
                    probes,
                    moves,
                    7,
                );
                let incr_chain = run_chain(
                    &mut Pricer::new(EvaluatorKind::Incremental, case, &params, &cfg),
                    probes,
                    moves,
                    7,
                );
                assert_eq!(
                    full_chain, incr_chain,
                    "pricing divergence on {tier}/{}",
                    case.shape
                );

                let (full_ns, incr_ns) = time_chains(case, probes, moves, reps, &params, &cfg);
                let speedup = full_ns.median / incr_ns.median;
                sum_full += full_ns.median;
                sum_incr += incr_ns.median;
                speedups.push(speedup);
                shape_rows.push(format!(
                    "        {{\"shape\": \"{}\", \"tasks\": {}, \"host\": \"{}\", \
                     \"full_ns_per_move\": {}, \"incremental_ns_per_move\": {}, \
                     \"speedup\": {:.2}}}",
                    case.shape,
                    case.graph.num_tasks(),
                    case.topo.name(),
                    full_ns.json(),
                    incr_ns.json(),
                    speedup
                ));
            }
            // Criterion rows: one full-chain timing per
            // (kind, tier, probe mix), chaining all six shapes.
            for kind in [EvaluatorKind::Full, EvaluatorKind::Incremental] {
                group.bench_function(
                    BenchmarkId::new(kind.name(), format!("{tier}/{}", probes.name())),
                    |b| {
                        let mut pricers: Vec<_> = cases
                            .iter()
                            .map(|case| Pricer::new(kind, case, &params, &cfg))
                            .collect();
                        b.iter(|| {
                            for pricer in &mut pricers {
                                run_chain(pricer, probes, moves, 7);
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
        "{{\n  \"bench\": \"evaluator\",\n  \"mode\": \"{}\",\n  \
         \"ns_per_move\": \"median, q1 and q3 over {reps} timed chains per kind\",\n  \
         \"tiers\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        tier_rows.join(",\n")
    );
    let path = dir.join("BENCH_evaluator.json");
    std::fs::write(&path, json).expect("write BENCH_evaluator.json");
    println!("wrote {}", path.display());
}

criterion_group!(benches, bench_evaluator);
criterion_main!(benches);

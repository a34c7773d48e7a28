//! Campaign-cell throughput: the general engine vs the fast path, and
//! solo cells vs a lockstep column.
//!
//! A campaign cell is one `(scheduler, instance)` evaluation, and the
//! whole portfolio subsystem (tournaments, 1000-instance campaigns,
//! adversarial-search ratio pricing) is throughput-bound on exactly
//! that operation. This bench measures the cost of a cell over the
//! full fast portfolio on one instance per campaign shape at each size
//! tier, two ways:
//!
//! * `general` — [`PortfolioEntry::evaluate`] on the **exact SA
//!   lane**: the full engine with route-table build, Gantt recording,
//!   statistics, an allocated `SimResult` per cell, and the original
//!   per-move `exp()` annealing loop (what every cell paid before the
//!   fast path and the turbo lane existed);
//! * `turbo` — [`PortfolioEntry::evaluate_makespan`] on
//!   `Portfolio::fast()`: the shared fast-path kernel out of one reused
//!   `SimScratch` per sweep, with staged SA on the production turbo
//!   lane (each packet's eq. 6 minimum solved exactly instead of
//!   annealed; certified statistically by `lane_study`).
//!
//! Campaigns go one step further and evaluate a whole instance column
//! at once: [`simulate_makespans`] runs every entry's scheduler in one
//! lockstep kernel run that forks where their decisions part. Each tier
//! therefore also times a `column`: the sum of a column's solo `turbo`
//! cells next to the same column evaluated in lockstep.
//!
//! Before anything is timed, every cell of `Portfolio::fast()` is
//! asserted **bit-identical** between the general engine, the solo
//! fast path and the lockstep column; in smoke mode this doubles as the
//! CI equality gate. The `sa` row carries a regression assert: it must
//! keep beating the pre-lane committed baseline against the exact
//! engine on every tier.
//!
//! Every timing alternates the two paths it compares rep by rep, so
//! drift on the host hits both alike. Besides the Criterion report, the
//! bench writes `results/BENCH_portfolio.json`: per tier and per
//! scheduler the median, q1 and q3 of ns per cell for both paths and
//! the speedup of the medians, the heuristic sub-portfolio alone, and
//! the column row (the staged SA scheduler's cells are dominated by its
//! own annealing logic, so its speedup bounds the portfolio-wide number
//! — the JSON shows both the aggregate and the per-entry picture).
//!
//! Set `PORTFOLIO_BENCH_SMOKE=1` for a fast CI pass: fewer repetitions,
//! same equality assertions, same JSON artifact.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a timing bench reads the wall clock and its smoke-mode variable"
)]

use std::time::Instant;

use anneal_arena::{ArenaInstance, Portfolio};
use anneal_core::SaLane;
use anneal_graph::generate::{
    chain, fork_join, gnp_dag, independent, layered_random, series_parallel, LayeredConfig, Range,
};
use anneal_graph::units::us;
use anneal_sim::{simulate_makespans, OnlineScheduler, SimScratch};
use anneal_topology::builders::{bus, hypercube, mesh, ring, star, torus};
use anneal_topology::Topology;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One instance per campaign shape at size tier `scale` (1–3), on the
/// campaign family's host rotation (mirrors
/// `anneal_arena::campaign_instance`'s generators).
fn tier_instances(scale: usize, seed: u64) -> Vec<ArenaInstance> {
    let load = Range::new(us(2.0), us(60.0));
    let comm = Range::new(us(1.0), us(12.0));
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes: Vec<(&'static str, anneal_graph::TaskGraph)> = vec![
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
        .map(|((shape, graph), topo)| ArenaInstance::new(shape, graph, topo))
        .collect()
}

/// Deterministic per-cell seed (the exact mixer does not matter for a
/// bench; it only has to be stable and spread).
fn seed_of(e: usize, j: usize) -> u64 {
    42u64
        .wrapping_add((e as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
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

    /// The spread of `self / per`.
    fn per(self, per: usize) -> Spread {
        let d = per as f64;
        Spread {
            median: self.median / d,
            q1: self.q1 / d,
            q3: self.q3 / d,
        }
    }

    fn json(self) -> String {
        format!(
            "{{\"median\": {:.0}, \"q1\": {:.0}, \"q3\": {:.0}}}",
            self.median, self.q1, self.q3
        )
    }
}

/// Times `a` and `b` (each returns the ns it took) `reps` times each,
/// alternating them rep by rep.
fn alternate(
    reps: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (Spread, Spread) {
    let (mut va, mut vb) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        va.push(a());
        vb.push(b());
    }
    (Spread::of(va), Spread::of(vb))
}

/// Sweeps every cell through the general path; returns total ns.
fn sweep_general(portfolio: &Portfolio, insts: &[ArenaInstance]) -> f64 {
    let start = Instant::now();
    for (e, entry) in portfolio.entries().iter().enumerate() {
        for (j, inst) in insts.iter().enumerate() {
            let r = entry.evaluate(inst, seed_of(e, j)).expect("cell evaluates");
            std::hint::black_box(r.makespan);
        }
    }
    start.elapsed().as_nanos() as f64
}

/// Sweeps every cell through the fast path with one scratch; returns
/// total ns.
fn sweep_fast(portfolio: &Portfolio, insts: &[ArenaInstance], scratch: &mut SimScratch) -> f64 {
    let start = Instant::now();
    for (e, entry) in portfolio.entries().iter().enumerate() {
        for (j, inst) in insts.iter().enumerate() {
            let m = entry
                .evaluate_makespan(inst, seed_of(e, j), scratch)
                .expect("cell evaluates");
            std::hint::black_box(m);
        }
    }
    start.elapsed().as_nanos() as f64
}

/// Evaluates each instance as one lockstep column: every entry's
/// factory, then one [`simulate_makespans`] run. Writes the makespans
/// entry-major into `out`; returns total ns.
fn sweep_lockstep(
    portfolio: &Portfolio,
    insts: &[ArenaInstance],
    scratch: &mut SimScratch,
    out: &mut [u64],
) -> f64 {
    let start = Instant::now();
    for (j, inst) in insts.iter().enumerate() {
        let mut schedulers: Vec<Option<Box<dyn OnlineScheduler>>> = portfolio
            .entries()
            .iter()
            .enumerate()
            .map(|(e, entry)| Some(entry.instantiate(inst, seed_of(e, j)).expect("factory")))
            .collect();
        simulate_makespans(
            &inst.graph,
            &inst.topology,
            &inst.params,
            &mut schedulers,
            &inst.sim_cfg,
            scratch,
            |riders| {
                for r in riders {
                    if let Some(res) = &r.result {
                        out[r.member * insts.len() + j] = *res.as_ref().expect("cell evaluates");
                    }
                }
            },
        );
    }
    start.elapsed().as_nanos() as f64
}

fn bench_portfolio(c: &mut Criterion) {
    let smoke = std::env::var("PORTFOLIO_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let reps = if smoke { 3 } else { 11 };
    // "Before": the exact SA lane on the general engine. "After": the
    // production portfolio on the fast path. Only the `sa` entry
    // differs between the two portfolios — every other factory is
    // lane-independent.
    let portfolio = Portfolio::fast_with_lane(SaLane::Exact);
    let portfolio_turbo = Portfolio::fast();

    let mut group = c.benchmark_group("portfolio_throughput");
    let mut tier_rows = Vec::new();
    let mut sa_speedups = Vec::new();
    for (tier, scale) in [("small", 1usize), ("medium", 2), ("large", 3)] {
        let insts = tier_instances(scale, 100 + scale as u64);
        let cells = portfolio.len() * insts.len();

        // Equality gate: every production cell bit-identical between
        // the general engine, the fast path and the lockstep column.
        let mut scratch = SimScratch::new();
        let mut column_scratch = SimScratch::new();
        let mut lockstep = vec![0; cells];
        sweep_lockstep(&portfolio_turbo, &insts, &mut column_scratch, &mut lockstep);
        for (e, entry) in portfolio_turbo.entries().iter().enumerate() {
            for (j, inst) in insts.iter().enumerate() {
                let full = entry.evaluate(inst, seed_of(e, j)).unwrap().makespan;
                let fast = entry
                    .evaluate_makespan(inst, seed_of(e, j), &mut scratch)
                    .unwrap();
                assert_eq!(
                    fast,
                    full,
                    "fast path diverged from the general engine: {} on {tier}/{}",
                    entry.name(),
                    inst.name
                );
                assert_eq!(
                    lockstep[e * insts.len() + j],
                    fast,
                    "lockstep column diverged from the solo cell: {} on {tier}/{}",
                    entry.name(),
                    inst.name
                );
            }
        }

        // Per-scheduler breakdown at this tier: ns per cell over
        // `reps` sweeps of that scheduler's row on each path.
        let mut entry_rows = Vec::new();
        for (e, (entry, turbo_entry)) in portfolio
            .entries()
            .iter()
            .zip(portfolio_turbo.entries())
            .enumerate()
        {
            let (general, turbo) = alternate(
                reps,
                || {
                    let start = Instant::now();
                    for (j, inst) in insts.iter().enumerate() {
                        std::hint::black_box(entry.evaluate(inst, seed_of(e, j)).unwrap().makespan);
                    }
                    start.elapsed().as_nanos() as f64
                },
                || {
                    let start = Instant::now();
                    for (j, inst) in insts.iter().enumerate() {
                        std::hint::black_box(
                            turbo_entry
                                .evaluate_makespan(inst, seed_of(e, j), &mut scratch)
                                .unwrap(),
                        );
                    }
                    start.elapsed().as_nanos() as f64
                },
            );
            let speedup = general.median / turbo.median;
            if entry.name() == "sa" {
                sa_speedups.push(speedup);
            }
            entry_rows.push(format!(
                "        {{\"scheduler\": \"{}\", \"general_ns_per_cell\": {}, \
                 \"turbo_ns_per_cell\": {}, \"turbo_speedup\": {speedup:.2}}}",
                entry.name(),
                general.per(insts.len()).json(),
                turbo.per(insts.len()).json(),
            ));
        }

        // The headline: whole-portfolio cell cost. Reported both over
        // the full campaign portfolio and over its heuristic
        // sub-portfolio (everything but the staged SA scheduler):
        // staged-SA cells are dominated by the scheduler's *own*
        // annealing arithmetic, so the full-portfolio number is
        // structurally bounded by sa's share of the sweep.
        let heuristics = portfolio.without("sa");
        let heuristics_turbo = portfolio_turbo.without("sa");
        let h_cells = heuristics.len() * insts.len();
        let (general, turbo) = alternate(
            reps,
            || sweep_general(&portfolio, &insts),
            || sweep_fast(&portfolio_turbo, &insts, &mut scratch),
        );
        let (h_general, h_turbo) = alternate(
            reps,
            || sweep_general(&heuristics, &insts),
            || sweep_fast(&heuristics_turbo, &insts, &mut scratch),
        );
        // A whole column in lockstep next to the sum of its solo cells.
        let (solo, column) = alternate(
            reps,
            || sweep_fast(&portfolio_turbo, &insts, &mut scratch),
            || sweep_lockstep(&portfolio_turbo, &insts, &mut column_scratch, &mut lockstep),
        );
        let turbo_speedup = general.median / turbo.median;
        let h_speedup = h_general.median / h_turbo.median;
        let column_speedup = solo.median / column.median;
        println!(
            "portfolio_throughput/{tier}: general {:.0} cells/s, turbo {:.0} cells/s, \
             speedup {turbo_speedup:.2}x over {cells} cells ({h_speedup:.2}x over the \
             {h_cells} heuristic cells); a lockstep column is {column_speedup:.2}x its solo cells",
            cells as f64 / (general.median * 1e-9),
            cells as f64 / (turbo.median * 1e-9),
        );
        tier_rows.push(format!(
            "    {{\"tier\": \"{tier}\", \"cells\": {cells}, \
             \"general_ns_per_cell\": {}, \"turbo_ns_per_cell\": {}, \
             \"turbo_throughput_speedup\": {turbo_speedup:.2}, \
             \"heuristic_cells\": {h_cells}, \
             \"heuristic_general_ns_per_cell\": {}, \"heuristic_fast_ns_per_cell\": {}, \
             \"heuristic_throughput_speedup\": {h_speedup:.2}, \
             \"column\": {{\"entries\": {}, \"solo_ns_per_column\": {}, \
             \"lockstep_ns_per_column\": {}, \"lockstep_speedup\": {column_speedup:.2}}}, \
             \"schedulers\": [\n{}\n    ]}}",
            general.per(cells).json(),
            turbo.per(cells).json(),
            h_general.per(h_cells).json(),
            h_turbo.per(h_cells).json(),
            portfolio_turbo.len(),
            solo.per(insts.len()).json(),
            column.per(insts.len()).json(),
            entry_rows.join(",\n")
        ));

        for name in ["general", "turbo", "lockstep"] {
            group.bench_function(BenchmarkId::new(name, tier), |b| {
                let mut scratch = SimScratch::new();
                b.iter(|| match name {
                    "turbo" => sweep_fast(&portfolio_turbo, &insts, &mut scratch),
                    "lockstep" => {
                        sweep_lockstep(&portfolio_turbo, &insts, &mut scratch, &mut lockstep)
                    }
                    _ => sweep_general(&portfolio, &insts),
                })
            });
        }
    }
    group.finish();

    // Regression gate on the sa row: before the SA lanes the committed
    // `sa` speedup was 1.04x (fast path alone — the annealing
    // arithmetic dominated and the engine change could not touch it).
    // The production lane must clear that against the exact engine
    // with real margin on every tier, even under smoke-mode timing
    // noise.
    for (tier, s) in ["small", "medium", "large"].iter().zip(&sa_speedups) {
        assert!(
            *s > 1.3,
            "sa row speedup regressed on tier {tier}: {s:.2}x (pre-lane baseline 1.04x)"
        );
    }

    // Benches run with the package directory as CWD; anchor the
    // artifact at the workspace root like the harness binaries do.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let json = format!(
        "{{\n  \"bench\": \"portfolio_throughput\",\n  \"mode\": \"{}\",\n  \
         \"ns\": \"median, q1 and q3 over {reps} timed sweeps per path, the two paths \
         of each row alternating\",\n  \"tiers\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        tier_rows.join(",\n")
    );
    let path = dir.join("BENCH_portfolio.json");
    std::fs::write(&path, json).expect("write BENCH_portfolio.json");
    println!("wrote {}", path.display());
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);

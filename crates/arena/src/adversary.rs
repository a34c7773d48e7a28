//! PISA-style adversarial instance search: annealing over problem space.
//!
//! Classic benchmarking fixes the instances and varies the algorithm;
//! adversarial benchmarking *searches the instance space* for where an
//! algorithm loses. [`adversarial_search`] runs simulated annealing
//! whose **state is a task graph**: each move applies one
//! acyclicity-preserving perturbation (`anneal_graph::perturb`) and is
//! accepted by the Boltzmann rule on the change of the **makespan
//! ratio**
//!
//! ```text
//! ratio(G) = makespan(target, G) / min over rivals r of makespan(r, G)
//! ```
//!
//! so the walk climbs toward instances where the target scheduler
//! trails the portfolio best by the widest margin. Ratios above 1 are
//! concrete counterexamples to "the target is never worse"; the best
//! instance found is returned for regression suites and Gantt autopsies.
//!
//! Re-pricing the whole portfolio per perturbation is the hottest loop
//! in the repo, and it is tuned accordingly:
//!
//! * a candidate's cells (the target, then every rival, on one
//!   instance column) run through the crate's one cell loop — the one
//!   tournaments and campaign shards use — with every worker drawing a
//!   warm `anneal_sim::SimScratch` from a search-wide [`ScratchPool`]:
//!   the column is one job, run on the calling thread, whose schedulers
//!   share one lockstep run of the fast-path kernel (no Gantt, no
//!   statistics, cached route tables, zero steady-state allocation)
//!   with makespans bit-identical to the full engine;
//! * candidates are **memoized by instance content**: the SA walk over
//!   a small graph frequently proposes an instance it has already
//!   priced (a rejected edit re-proposed, a perturbation that rounds
//!   to a no-op), and since every entry's makespan is a pure function
//!   of `(instance, seed)` with both fixed per search, an
//!   already-priced candidate provably has the same breakdown — the
//!   whole portfolio fan-out is skipped ([`AdversaryOutcome`] reports
//!   the hit count).
//!
//! Identical seeds give identical searches either way. The static-SA
//! entry prices each annealing move with one simulation of its whole
//! mapping, and the evaluator kind cannot change a ratio (only how fast
//! it is computed).

use std::collections::BTreeMap;

use anneal_core::boltzmann::{accept, AcceptanceRule};
use anneal_core::cooling::CoolingSchedule;
use anneal_core::parallel::ScratchPool;
use anneal_graph::perturb::{perturb, DagEdit, PerturbConfig};
use anneal_graph::{textio, TaskGraph};
use anneal_obs::{MetricsRegistry, NullClock, Recorder};
use anneal_sim::{SimError, SimScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cells::{record_pool, run_cells};
use crate::instance::ArenaInstance;
use crate::portfolio::{Portfolio, PortfolioEntry};

/// Adversarial-search settings.
#[derive(Debug, Clone)]
pub struct AdversaryConfig {
    /// Portfolio entry under attack.
    pub target: String,
    /// Temperature steps.
    pub iterations: u64,
    /// Candidate instances proposed per temperature step.
    pub moves_per_temp: usize,
    /// Cooling schedule over ratio deltas (order 0.01–0.2, so the
    /// default starts at `t0 = 0.05`).
    pub cooling: CoolingSchedule,
    /// Acceptance rule.
    pub acceptance: AcceptanceRule,
    /// Perturbation-operator mixture.
    pub perturb: PerturbConfig,
    /// RNG seed for the whole search.
    pub seed: u64,
    /// Thread cap for per-candidate portfolio evaluation (`0` =
    /// available parallelism).
    pub max_threads: usize,
}

impl AdversaryConfig {
    /// Defaults targeting `target`: 40 temperature steps × 4 moves.
    pub fn new(target: impl Into<String>) -> Self {
        AdversaryConfig {
            target: target.into(),
            iterations: 40,
            moves_per_temp: 4,
            cooling: CoolingSchedule::Geometric {
                t0: 0.05,
                alpha: 0.92,
            },
            acceptance: AcceptanceRule::HeatBath,
            perturb: PerturbConfig::default(),
            seed: 42,
            max_threads: 0,
        }
    }
}

/// One ratio evaluation, broken down for reporting.
#[derive(Debug, Clone)]
pub struct RatioBreakdown {
    /// `target makespan / best rival makespan`.
    pub ratio: f64,
    /// The target's makespan on the instance (ns).
    pub target_makespan: u64,
    /// The best rival's name.
    pub best_rival: String,
    /// The best rival's makespan (ns).
    pub best_rival_makespan: u64,
}

/// Evaluates the target-vs-field makespan ratio on one instance. The
/// field is `portfolio` minus the target; per-entry seeds derive from
/// `seed` only, so the ratio is a pure function of `(instance, seed)`.
///
/// # Panics
///
/// Panics when `target` is not in the portfolio or is its only entry.
pub fn makespan_ratio(
    portfolio: &Portfolio,
    target: &str,
    inst: &ArenaInstance,
    seed: u64,
    max_threads: usize,
) -> Result<RatioBreakdown, SimError> {
    makespan_ratio_pooled(
        portfolio,
        target,
        inst,
        seed,
        max_threads,
        &ScratchPool::new(),
    )
}

/// [`makespan_ratio`] drawing evaluation scratch from a caller-owned
/// pool, so repeated ratio evaluations (the adversarial search prices
/// hundreds of candidates) reuse warm buffers instead of re-allocating
/// the simulation state per candidate.
///
/// # Panics
///
/// Panics when `target` is not in the portfolio or is its only entry.
#[expect(
    clippy::expect_used,
    clippy::panic,
    reason = "callers pass a portfolio member as target, with at least one rival; jobs >= 2"
)]
pub fn makespan_ratio_pooled(
    portfolio: &Portfolio,
    target: &str,
    inst: &ArenaInstance,
    seed: u64,
    max_threads: usize,
    pool: &ScratchPool<SimScratch>,
) -> Result<RatioBreakdown, SimError> {
    let target_entry = portfolio
        .get(target)
        .unwrap_or_else(|| panic!("target '{target}' not in portfolio"));
    // Row 0 is the target, rows 1.. the field in portfolio order; all
    // in column 0, so cell `k` draws seed `cell_seed(seed, k, 0)`.
    let lineup: Vec<&PortfolioEntry> = std::iter::once(target_entry)
        .chain(portfolio.entries().iter().filter(|e| e.name() != target))
        .collect();
    assert!(
        lineup.len() > 1,
        "portfolio must hold a rival for '{target}'"
    );
    let (cells, _) = run_cells(
        &lineup,
        std::slice::from_ref(inst),
        &[0],
        seed,
        max_threads,
        pool,
        &NullClock,
    )?;
    let target_makespan = cells[0].makespan;
    let (rival, best_rival_makespan) = cells
        .iter()
        .enumerate()
        .skip(1)
        .map(|(k, cell)| (k, cell.makespan))
        .min_by_key(|&(k, m)| (m, k))
        .expect("field is non-empty");
    Ok(RatioBreakdown {
        ratio: target_makespan as f64 / best_rival_makespan.max(1) as f64,
        target_makespan,
        best_rival: lineup[rival].name().to_string(),
        best_rival_makespan,
    })
}

/// Outcome of an adversarial search.
#[derive(Debug, Clone)]
pub struct AdversaryOutcome {
    /// The most adversarial instance found (same topology/params as the
    /// seed instance).
    pub graph: TaskGraph,
    /// Its ratio breakdown.
    pub best: RatioBreakdown,
    /// The seed instance's ratio, for before/after comparison.
    pub initial: RatioBreakdown,
    /// Candidate instances priced by simulation (each costing one
    /// evaluation per portfolio entry).
    pub evaluations: u64,
    /// Search metrics: `adversary.evaluations` / `adversary.cache_hits`
    /// counters (deterministic-class) plus the scratch-pool and
    /// route-table-cache counters of the search's workers
    /// (`sched.*`-class — thread-plan dependent).
    pub metrics: MetricsRegistry,
    /// Best-so-far ratio after each temperature step.
    pub trajectory: Vec<f64>,
}

impl AdversaryOutcome {
    /// The adversarial instance, packaged for tournaments or reports.
    pub fn instance(&self, base: &ArenaInstance, name: impl Into<String>) -> ArenaInstance {
        ArenaInstance {
            name: name.into(),
            graph: self.graph.clone(),
            topology: base.topology.clone(),
            params: base.params,
            sim_cfg: base.sim_cfg.clone(),
        }
    }

    /// Candidates served from the content memo instead of a portfolio
    /// fan-out: the proposed graph was byte-identical to an
    /// already-priced one, and every entry's makespan is a pure
    /// function of `(instance, seed)`, so the cached breakdown is
    /// provably the one a re-evaluation would return. Derived from the
    /// `adversary.cache_hits` registry counter.
    pub fn cache_hits(&self) -> u64 {
        self.metrics.counter("adversary.cache_hits")
    }
}

/// Searches problem space for an instance maximizing the target-vs-field
/// makespan ratio, starting from `seed_instance`'s graph (its topology,
/// communication model and engine configuration are held fixed).
pub fn adversarial_search(
    portfolio: &Portfolio,
    seed_instance: &ArenaInstance,
    cfg: &AdversaryConfig,
) -> Result<AdversaryOutcome, SimError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluations = 0u64;
    let mut cache_hits = 0u64;
    // Warm evaluation scratch survives the whole search; the memo maps
    // a candidate's canonical text (exact content, not a lossy hash) to
    // its breakdown — sound because topology, parameters, engine
    // config, portfolio and per-entry seeds are all fixed per search.
    let pool: ScratchPool<SimScratch> = ScratchPool::new();
    let mut memo: BTreeMap<String, RatioBreakdown> = BTreeMap::new();
    let mut eval = |graph: TaskGraph| -> Result<(TaskGraph, RatioBreakdown), SimError> {
        let key = textio::to_text(&graph);
        if let Some(b) = memo.get(&key) {
            cache_hits += 1;
            return Ok((graph, b.clone()));
        }
        let inst = ArenaInstance {
            name: "candidate".into(),
            graph,
            topology: seed_instance.topology.clone(),
            params: seed_instance.params,
            sim_cfg: seed_instance.sim_cfg.clone(),
        };
        evaluations += 1;
        let b = makespan_ratio_pooled(
            portfolio,
            &cfg.target,
            &inst,
            cfg.seed,
            cfg.max_threads,
            &pool,
        )?;
        memo.insert(key, b.clone());
        Ok((inst.graph, b))
    };

    let mut edit = DagEdit::from_graph(&seed_instance.graph);
    let (g0, initial) = eval(edit.build())?;
    let mut cur_ratio = initial.ratio;
    let mut best = (g0, initial.clone());
    let mut trajectory = Vec::with_capacity(cfg.iterations as usize);

    for k in 0..cfg.iterations {
        let temp = cfg.cooling.temperature(k);
        for _ in 0..cfg.moves_per_temp {
            let mut cand = edit.clone();
            if perturb(&mut cand, &cfg.perturb, &mut rng).is_none() {
                continue;
            }
            let (graph, breakdown) = eval(cand.build())?;
            // The global best is recorded before the acceptance test:
            // heat-bath accepts even improving moves with p < 1, and a
            // rejected candidate was still evaluated (and paid for).
            if breakdown.ratio > best.1.ratio {
                best = (graph, breakdown.clone());
            }
            // Maximizing the ratio: the SA cost is its negation.
            let delta = cur_ratio - breakdown.ratio;
            if accept(cfg.acceptance, delta, temp, &mut rng) {
                cur_ratio = breakdown.ratio;
                edit = cand;
            }
        }
        trajectory.push(best.1.ratio);
    }

    let mut metrics = MetricsRegistry::new();
    metrics.add("adversary.evaluations", evaluations);
    metrics.add("adversary.cache_hits", cache_hits);
    record_pool(&pool, &mut metrics);

    Ok(AdversaryOutcome {
        graph: best.0,
        best: best.1,
        initial,
        evaluations,
        metrics,
        trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::smoke_instances;
    use crate::portfolio::PortfolioEntry;
    use anneal_core::list::ListScheduler;
    use anneal_core::HlfScheduler;

    fn duel_portfolio() -> Portfolio {
        let mut p = Portfolio::new();
        p.register(PortfolioEntry::new("hlf", |_, _| {
            Box::new(HlfScheduler::new())
        }));
        p.register(PortfolioEntry::new("heft", |_, _| {
            Box::new(ListScheduler::heft())
        }));
        p.register(PortfolioEntry::new("hlf-mct", |_, _| {
            Box::new(ListScheduler::mct())
        }));
        p
    }

    #[test]
    fn ratio_breakdown_is_consistent() {
        let p = duel_portfolio();
        let inst = &smoke_instances(3)[0];
        let b = makespan_ratio(&p, "hlf", inst, 5, 1).unwrap();
        assert!(b.ratio > 0.0);
        assert_eq!(
            b.ratio,
            b.target_makespan as f64 / b.best_rival_makespan as f64
        );
        assert!(b.best_rival == "heft" || b.best_rival == "hlf-mct");
    }

    #[test]
    fn ratio_is_evaluator_kind_invariant() {
        use anneal_core::{EvaluatorKind, SaLane};
        let inst = &smoke_instances(3)[0];
        let with_static = |kind| {
            let mut p = duel_portfolio();
            p.register(
                Portfolio::standard_with_lanes(kind, SaLane::default())
                    .get("static-sa")
                    .unwrap()
                    .clone(),
            );
            p
        };
        let a = makespan_ratio(&with_static(EvaluatorKind::Full), "static-sa", inst, 5, 1).unwrap();
        let b = makespan_ratio(
            &with_static(EvaluatorKind::Incremental),
            "static-sa",
            inst,
            5,
            1,
        )
        .unwrap();
        assert_eq!(a.ratio, b.ratio);
        assert_eq!(a.target_makespan, b.target_makespan);
        assert_eq!(a.best_rival_makespan, b.best_rival_makespan);
    }

    #[test]
    fn ratio_cells_draw_the_lineup_seeds() {
        // Row 0 is the target, rows 1.. the field in portfolio order,
        // all in column 0: cell k draws `cell_seed(seed, k, 0)`.
        let p = Portfolio::fast();
        let inst = &smoke_instances(3)[0];
        let b = makespan_ratio(&p, "random-list", inst, 5, 0).unwrap();
        let makespan = |entry: &PortfolioEntry, k: u64| {
            entry
                .evaluate(inst, crate::cells::cell_seed(5, k, 0))
                .unwrap()
                .makespan
        };
        assert_eq!(
            b.target_makespan,
            makespan(p.get("random-list").unwrap(), 0)
        );
        let field = p.without("random-list");
        let best = (field.entries().iter().zip(1..))
            .map(|(e, k)| makespan(e, k))
            .min();
        assert_eq!(Some(b.best_rival_makespan), best);
    }

    #[test]
    #[should_panic(expected = "not in portfolio")]
    fn unknown_target_panics() {
        let p = duel_portfolio();
        let inst = &smoke_instances(3)[0];
        let _ = makespan_ratio(&p, "nope", inst, 5, 1);
    }

    #[test]
    fn search_never_regresses_and_is_deterministic() {
        let p = duel_portfolio();
        let inst = &smoke_instances(4)[0];
        let cfg = AdversaryConfig {
            iterations: 6,
            moves_per_temp: 2,
            seed: 11,
            max_threads: 1,
            ..AdversaryConfig::new("hlf")
        };
        let a = adversarial_search(&p, inst, &cfg).unwrap();
        let b = adversarial_search(&p, inst, &cfg).unwrap();
        assert!(a.best.ratio >= a.initial.ratio, "best-so-far can only grow");
        assert_eq!(a.best.ratio, b.best.ratio);
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.cache_hits(), b.cache_hits());
        assert!(a.evaluations >= 1);
        // the registry mirrors the plain counters and carries the
        // scheduling-class pool/route counters alongside
        assert_eq!(a.metrics.counter("adversary.evaluations"), a.evaluations);
        assert!(a.metrics.counter("sched.pool.misses") >= 1);
        assert!(a.metrics.counter("sched.route_cache.builds") >= 1);
        let det = a.metrics.deterministic_only();
        assert_eq!(det, b.metrics.deterministic_only());
        assert!(det.counter("sched.pool.misses") == 0, "sched.* filtered");
        // trajectory is monotonically non-decreasing
        assert!(a.trajectory.windows(2).all(|w| w[0] <= w[1]));
        // the returned graph reproduces the reported ratio
        let named = a.instance(inst, "adversarial");
        let again = makespan_ratio(&p, "hlf", &named, cfg.seed, 1).unwrap();
        assert_eq!(again.ratio, a.best.ratio);
    }
}

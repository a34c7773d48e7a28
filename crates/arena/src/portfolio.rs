//! The scheduler-portfolio registry.
//!
//! A [`PortfolioEntry`] wraps a scheduler behind a factory, so stateful
//! schedulers (level caches, annealing RNGs) never leak state between
//! cells of a tournament. Deterministic schedulers simply ignore the
//! seed. Every entry produces an `OnlineScheduler` that a cell drives
//! through [`simulate`] (or the fast-path kernel); whole-graph static
//! SA anneals a complete mapping inside its factory and hands it out as
//! a [`FixedMapping`] under the level dispatch order it annealed with.
//!
//! [`Portfolio::standard`] registers every scheduler in the workspace on
//! the production lane ([`SaLane::default`]) and the default
//! [`EvaluatorKind`]; [`Portfolio::standard_with_lanes`] pins either
//! (the evaluator kind never changes a result, only its cost).

use std::sync::Arc;

use anneal_core::list::{ListScheduler, PriorityPolicy};
use anneal_core::static_sa::{static_sa, StaticSaConfig};
use anneal_core::{
    level_dispatch_order, EvaluatorKind, HlfScheduler, SaConfig, SaLane, SaScheduler,
};
use anneal_sim::{
    simulate, simulate_makespan, FixedMapping, GreedyScheduler, OnlineScheduler, SimError,
    SimResult, SimScratch,
};

use crate::instance::ArenaInstance;

type Factory =
    Arc<dyn Fn(&ArenaInstance, u64) -> Result<Box<dyn OnlineScheduler>, SimError> + Send + Sync>;

/// A named scheduler factory.
#[derive(Clone)]
pub struct PortfolioEntry {
    name: String,
    factory: Factory,
}

impl std::fmt::Debug for PortfolioEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortfolioEntry")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl PortfolioEntry {
    /// Wraps an infallible factory. The factory must be deterministic
    /// in `(instance, seed)` — tournament reproducibility rests on it.
    pub fn new(
        name: impl Into<String>,
        factory: impl Fn(&ArenaInstance, u64) -> Box<dyn OnlineScheduler> + Send + Sync + 'static,
    ) -> Self {
        Self::new_fallible(name, move |inst, seed| Ok(factory(inst, seed)))
    }

    /// Wraps a factory whose construction itself can fail; errors
    /// surface through [`PortfolioEntry::evaluate`] instead of
    /// panicking worker threads.
    pub fn new_fallible(
        name: impl Into<String>,
        factory: impl Fn(&ArenaInstance, u64) -> Result<Box<dyn OnlineScheduler>, SimError>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        PortfolioEntry {
            name: name.into(),
            factory: Arc::new(factory),
        }
    }

    /// The entry's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds a fresh scheduler for one run.
    pub fn instantiate(
        &self,
        inst: &ArenaInstance,
        seed: u64,
    ) -> Result<Box<dyn OnlineScheduler>, SimError> {
        (self.factory)(inst, seed)
    }

    /// Evaluates the instance with this entry through the full engine
    /// ([`simulate`]).
    pub fn evaluate(&self, inst: &ArenaInstance, seed: u64) -> Result<SimResult, SimError> {
        let mut sched = self.instantiate(inst, seed)?;
        simulate(
            &inst.graph,
            &inst.topology,
            &inst.params,
            sched.as_mut(),
            &inst.sim_cfg,
        )
    }

    /// [`PortfolioEntry::evaluate`] through the fast path
    /// ([`anneal_sim::simulate_makespan`]): no Gantt, no statistics, no
    /// allocated result — just the makespan, out of a reusable
    /// `scratch`. **Bit-identical** to `evaluate(..).makespan` for
    /// every entry (tested here and asserted by the
    /// `portfolio_throughput` bench in CI).
    ///
    /// This is what tournament cells, campaign shards and the
    /// adversary's ratio loop call: a worker thread holds one scratch
    /// and sweeps cells with zero steady-state allocation in the
    /// simulation layer.
    pub fn evaluate_makespan(
        &self,
        inst: &ArenaInstance,
        seed: u64,
        scratch: &mut SimScratch,
    ) -> Result<u64, SimError> {
        let mut sched = self.instantiate(inst, seed)?;
        simulate_makespan(
            &inst.graph,
            &inst.topology,
            &inst.params,
            sched.as_mut(),
            &inst.sim_cfg,
            scratch,
        )
    }
}

/// An ordered, name-unique collection of portfolio entries.
#[derive(Debug, Clone, Default)]
pub struct Portfolio {
    entries: Vec<PortfolioEntry>,
}

impl Portfolio {
    /// An empty portfolio.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry; panics on a duplicate name (tournaments key rows
    /// by name).
    pub fn register(&mut self, entry: PortfolioEntry) -> &mut Self {
        assert!(
            self.get(entry.name()).is_none(),
            "duplicate portfolio entry '{}'",
            entry.name()
        );
        self.entries.push(entry);
        self
    }

    /// The registered entries, in registration order.
    pub fn entries(&self) -> &[PortfolioEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry names in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.name.clone()).collect()
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&PortfolioEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// A portfolio without `name`; used to pit a target against "the
    /// rest of the field" in adversarial search.
    pub fn without(&self, name: &str) -> Portfolio {
        Portfolio {
            entries: self
                .entries
                .iter()
                .filter(|e| e.name != name)
                .cloned()
                .collect(),
        }
    }

    /// The cheap deterministic-and-light subset: the full list-scheduler
    /// family, greedy, MCT, HEFT, CPOP and staged SA. Suitable as the
    /// adversary's reference field, where every candidate instance costs
    /// one simulation per entry. What `campaign` runs by default.
    ///
    /// Runs the staged-SA entry on the production lane
    /// ([`SaLane::default`], turbo), whose final-makespan distribution
    /// is gated against the exact engine by the corpus-scale
    /// equivalence study (`lane_study` → `results/LANE_EQUIV.json`,
    /// enforced in `tests/sa_lane_turbo.rs`).
    pub fn fast() -> Self {
        Self::fast_with_lane(SaLane::default())
    }

    /// [`Portfolio::fast`] with an explicit [`SaLane`] for the staged-SA
    /// entry. [`SaLane::Exact`] is the oracle configuration (the corpus
    /// baseline is recorded under it).
    pub fn fast_with_lane(lane: SaLane) -> Self {
        let mut p = Portfolio::new();
        p.register(PortfolioEntry::new("greedy", |_, _| {
            Box::new(GreedyScheduler)
        }));
        p.register(PortfolioEntry::new("hlf", |_, _| {
            Box::new(HlfScheduler::new())
        }));
        // The same scheduler as `hlf` under a second registry name, so
        // its row duplicates `hlf`'s. It stays only because perfbench
        // pins this portfolio's shape: its scheduler list, and cell
        // seeds keyed on the row index.
        p.register(PortfolioEntry::new("hlf-list", |_, _| {
            Box::new(ListScheduler::new(PriorityPolicy::HighestLevelFirst))
        }));
        for policy in [
            PriorityPolicy::HighestLevelFirstComm,
            PriorityPolicy::LongestTaskFirst,
            PriorityPolicy::ShortestTaskFirst,
            PriorityPolicy::Fifo,
        ] {
            p.register(PortfolioEntry::new(policy.name(), move |_, _| {
                Box::new(ListScheduler::new(policy))
            }));
        }
        p.register(PortfolioEntry::new("random-list", |_, seed| {
            Box::new(ListScheduler::new(PriorityPolicy::Random(seed)))
        }));
        p.register(PortfolioEntry::new("hlf-mct", |_, _| {
            Box::new(ListScheduler::mct())
        }));
        p.register(PortfolioEntry::new("heft", |_, _| {
            Box::new(ListScheduler::heft())
        }));
        p.register(PortfolioEntry::new("cpop", |_, _| {
            Box::new(ListScheduler::cpop())
        }));
        p.register(PortfolioEntry::new("sa", move |_, seed| {
            Box::new(SaScheduler::new(
                SaConfig::default().with_seed(seed).with_lane(lane),
            ))
        }));
        p
    }

    /// Every scheduler in the workspace: [`Portfolio::fast`] plus
    /// whole-graph static SA (each cell anneals a complete mapping with
    /// simulated-makespan cost, then runs it as a [`FixedMapping`]).
    /// Uses the default (incremental) move evaluator and the production
    /// SA lane; what `campaign --full` and `arena` run.
    pub fn standard() -> Self {
        Self::standard_with_lanes(EvaluatorKind::default(), SaLane::default())
    }

    /// [`Portfolio::standard`] with an explicit [`EvaluatorKind`] for
    /// static SA's move pricing and an explicit [`SaLane`] for both
    /// annealing entries (`sa` and `static-sa`). `Full` and
    /// `Incremental` produce bit-identical cells; only the evaluation
    /// speed differs.
    pub fn standard_with_lanes(evaluator: EvaluatorKind, lane: SaLane) -> Self {
        let mut p = Self::fast_with_lane(lane);
        p.register(PortfolioEntry::new_fallible(
            "static-sa",
            move |inst, seed| {
                let cfg = static_sa_cell_config(seed, evaluator, lane);
                let outcome = static_sa(
                    &inst.graph,
                    &inst.topology,
                    &inst.params,
                    &inst.sim_cfg,
                    &cfg,
                )?;
                // The dispatch order the annealer evaluated under, so the
                // cell's makespan is exactly `outcome.result.makespan`.
                let order = level_dispatch_order(&inst.graph);
                Ok(Box::new(
                    FixedMapping::new(outcome.mapping).with_order(order),
                ))
            },
        ));
        p
    }
}

/// The static-SA settings of a portfolio cell: light, because a
/// tournament cell is one scheduler evaluation, not a tuning study.
pub fn static_sa_cell_config(seed: u64, evaluator: EvaluatorKind, lane: SaLane) -> StaticSaConfig {
    StaticSaConfig {
        max_iters: 40,
        stable_iters: 6,
        seed,
        evaluator,
        lane,
        ..StaticSaConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::smoke_instances;

    #[test]
    fn standard_names_are_unique_and_complete() {
        let p = Portfolio::standard();
        let names = p.names();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate names");
        for expected in [
            "greedy",
            "hlf",
            "hlf-list",
            "hlf-comm",
            "lpt",
            "spt",
            "fifo",
            "random-list",
            "hlf-mct",
            "heft",
            "cpop",
            "sa",
            "static-sa",
        ] {
            assert!(p.get(expected).is_some(), "missing entry {expected}");
        }
        assert_eq!(p.len(), 13);
        assert!(!p.is_empty());
    }

    #[test]
    fn without_removes_only_the_target() {
        let p = Portfolio::fast();
        let rest = p.without("hlf");
        assert_eq!(rest.len(), p.len() - 1);
        assert!(rest.get("hlf").is_none());
        assert!(rest.get("heft").is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate portfolio entry")]
    fn duplicate_names_rejected() {
        let mut p = Portfolio::new();
        p.register(PortfolioEntry::new("x", |_, _| Box::new(GreedyScheduler)));
        p.register(PortfolioEntry::new("x", |_, _| Box::new(GreedyScheduler)));
    }

    #[test]
    fn every_entry_produces_a_valid_audited_schedule() {
        let insts = smoke_instances(5);
        for entry in Portfolio::standard().entries() {
            for inst in &insts {
                let r = entry.evaluate(inst, 42).unwrap();
                r.audit(&inst.graph)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", entry.name(), inst.name));
            }
        }
    }

    #[test]
    fn static_sa_cells_are_evaluator_kind_invariant() {
        // The evaluator kind must never change a result, only its cost.
        let insts = smoke_instances(4);
        let full = Portfolio::standard_with_lanes(EvaluatorKind::Full, SaLane::default());
        let incr = Portfolio::standard_with_lanes(EvaluatorKind::Incremental, SaLane::default());
        for inst in &insts {
            for seed in [3, 11] {
                let a = full.get("static-sa").unwrap().evaluate(inst, seed).unwrap();
                let b = incr.get("static-sa").unwrap().evaluate(inst, seed).unwrap();
                assert_eq!(a.makespan, b.makespan, "{} seed {seed}", inst.name);
                assert_eq!(a.placement, b.placement, "{} seed {seed}", inst.name);
                assert_eq!(a.finish, b.finish, "{} seed {seed}", inst.name);
            }
        }
    }

    /// The bins build their portfolios through `fast()`/`standard()`;
    /// both must be exactly the default-lane, default-evaluator
    /// configuration, so docs and binaries cannot drift apart.
    #[test]
    fn fast_and_standard_run_the_default_lane_and_evaluator() {
        let insts = smoke_instances(4);
        let pairs = [
            (
                Portfolio::fast(),
                Portfolio::fast_with_lane(SaLane::default()),
            ),
            (
                Portfolio::standard(),
                Portfolio::standard_with_lanes(EvaluatorKind::default(), SaLane::default()),
            ),
        ];
        for (built, pinned) in &pairs {
            assert_eq!(built.names(), pinned.names());
            for (a, b) in built.entries().iter().zip(pinned.entries()) {
                for inst in &insts {
                    for seed in [3, 11] {
                        let x = a.evaluate(inst, seed).unwrap();
                        let y = b.evaluate(inst, seed).unwrap();
                        assert_eq!(x.makespan, y.makespan, "{} {} {seed}", a.name(), inst.name);
                        assert_eq!(
                            x.placement,
                            y.placement,
                            "{} {} {seed}",
                            a.name(),
                            inst.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn static_sa_cells_score_the_annealed_result() {
        // The static-sa entry runs the annealer's best mapping; its cell
        // must score exactly the annealer's own final replay at the
        // portfolio's cell settings.
        let p = Portfolio::standard();
        let entry = p.get("static-sa").unwrap();
        let mut scratch = SimScratch::new();
        for inst in &smoke_instances(3) {
            for seed in [5, 17] {
                let cfg = static_sa_cell_config(seed, EvaluatorKind::default(), SaLane::default());
                let outcome = static_sa(
                    &inst.graph,
                    &inst.topology,
                    &inst.params,
                    &inst.sim_cfg,
                    &cfg,
                )
                .unwrap();
                let cell = entry.evaluate_makespan(inst, seed, &mut scratch).unwrap();
                assert_eq!(cell, outcome.result.makespan, "{} seed {seed}", inst.name);
                let full = entry.evaluate(inst, seed).unwrap();
                assert_eq!(full.placement, outcome.result.placement);
                assert_eq!(full.finish, outcome.result.finish);
            }
        }
    }

    #[test]
    fn fast_path_agrees_with_full_evaluation_for_every_entry() {
        // One scratch swept across every (entry, instance, seed) cell,
        // exactly like a tournament worker uses it.
        let insts = smoke_instances(5);
        let mut scratch = anneal_sim::SimScratch::new();
        for entry in Portfolio::standard().entries() {
            for inst in &insts {
                for seed in [7, 42] {
                    let full = entry.evaluate(inst, seed).unwrap().makespan;
                    let fast = entry.evaluate_makespan(inst, seed, &mut scratch).unwrap();
                    assert_eq!(fast, full, "{} on {} seed {seed}", entry.name(), inst.name);
                }
            }
        }
    }

    #[test]
    fn evaluation_is_deterministic_per_seed() {
        let insts = smoke_instances(6);
        for entry in Portfolio::standard().entries() {
            let a = entry.evaluate(&insts[0], 9).unwrap().makespan;
            let b = entry.evaluate(&insts[0], 9).unwrap().makespan;
            assert_eq!(a, b, "{} not deterministic", entry.name());
        }
    }
}

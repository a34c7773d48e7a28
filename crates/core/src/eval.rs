//! The shared move-evaluation layer for mapping-based schedulers.
//!
//! Whole-graph static SA anneals complete task→processor mappings with
//! the simulated makespan as its cost. [`Evaluator`] is the
//! baseline/candidate protocol it prices moves through:
//!
//! 1. [`Evaluator::reset`] establishes a baseline mapping and returns
//!    its makespan;
//! 2. [`Evaluator::eval_relocate`] / [`Evaluator::eval_swap`] return
//!    the makespan of a single-move candidate without disturbing the
//!    baseline;
//! 3. [`Evaluator::commit`] adopts the last candidate (an accepted SA
//!    move).
//!
//! Two implementations share the contract and agree **bit for bit**:
//!
//! * [`FullReplayEvaluator`] — the reference: one complete
//!   [`simulate`] per evaluation (fresh route table, Gantt recording,
//!   statistics, allocated result);
//! * [`anneal_sim::FixedEval`] — the allocation-free fast-path kernel
//!   under the fixed-mapping dispatch rule: one plain kernel run per
//!   candidate, no Gantt, no statistics, no allocated result.
//!
//! [`EvaluatorKind`] selects between them (the binaries always run the
//! kernel, the default; full replay is the test and bench oracle), and
//! [`replay_mapping`] is the one shared "mapping → full [`SimResult`]"
//! helper for the sites that need more than the makespan.

use anneal_graph::levels::bottom_levels;
use anneal_graph::{TaskGraph, TaskId};
use anneal_sim::{simulate, FixedEval, FixedMapping, SimConfig, SimError, SimResult};
use anneal_topology::{CommParams, ProcId, Topology};

/// The dispatch priority shared by the level-aware static replays:
/// higher bottom level dispatches first, ties by task id (matches the
/// list-scheduler baselines).
pub fn level_dispatch_order(g: &TaskGraph) -> Vec<u64> {
    bottom_levels(g).iter().map(|&l| u64::MAX - l).collect()
}

/// Which [`Evaluator`] implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvaluatorKind {
    /// One full discrete-event simulation per candidate (the reference
    /// semantics; slow).
    Full,
    /// The fast-path fixed-mapping kernel ([`anneal_sim::FixedEval`]):
    /// one kernel run per candidate, bit-identical makespans, several
    /// times faster per move. The name predates the kernel's plain
    /// per-move runs and stays because campaign stamps record it.
    #[default]
    Incremental,
}

impl EvaluatorKind {
    /// Stable command-line name (`"full"` / `"incremental"`).
    pub fn name(self) -> &'static str {
        match self {
            EvaluatorKind::Full => "full",
            EvaluatorKind::Incremental => "incremental",
        }
    }

    /// Builds an evaluator of this kind for one instance. `order` is
    /// the per-task dispatch priority (lower first, ties by id),
    /// matching [`FixedMapping::with_order`].
    pub fn build<'a>(
        self,
        g: &'a TaskGraph,
        topo: &'a Topology,
        params: &'a CommParams,
        sim_cfg: &'a SimConfig,
        order: Vec<u64>,
    ) -> Result<Box<dyn Evaluator + 'a>, SimError> {
        Ok(match self {
            EvaluatorKind::Full => {
                Box::new(FullReplayEvaluator::new(g, topo, params, sim_cfg, order))
            }
            EvaluatorKind::Incremental => {
                Box::new(FixedEval::new(g, topo, params, sim_cfg, order)?)
            }
        })
    }
}

impl std::str::FromStr for EvaluatorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(EvaluatorKind::Full),
            "incremental" => Ok(EvaluatorKind::Incremental),
            other => Err(format!(
                "unknown evaluator '{other}' (expected 'full' or 'incremental')"
            )),
        }
    }
}

impl std::fmt::Display for EvaluatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Makespan evaluation of fixed mappings under single-task moves.
///
/// The contract every implementation must honor (and the proptest suite
/// in `tests/evaluator.rs` enforces): the returned makespan equals a
/// from-scratch engine replay of the candidate mapping with the
/// configured dispatch order — for any baseline, any move, and any
/// history of commits and rejections.
pub trait Evaluator {
    /// Makes `mapping` the committed baseline (full evaluation) and
    /// returns its makespan. Discards any pending candidate.
    fn reset(&mut self, mapping: &[ProcId]) -> Result<u64, SimError>;

    /// Makespan of the baseline with `task` moved to `to`; the baseline
    /// is unchanged until [`Evaluator::commit`].
    fn eval_relocate(&mut self, task: TaskId, to: ProcId) -> Result<u64, SimError>;

    /// Makespan of the baseline with tasks `a` and `b` exchanging
    /// processors; the baseline is unchanged until
    /// [`Evaluator::commit`].
    fn eval_swap(&mut self, a: TaskId, b: TaskId) -> Result<u64, SimError>;

    /// Adopts the most recently evaluated candidate as the baseline.
    ///
    /// # Panics
    ///
    /// Panics when no candidate evaluation succeeded since the last
    /// `reset`/`commit`.
    fn commit(&mut self);

    /// The committed baseline mapping.
    fn mapping(&self) -> &[ProcId];

    /// Candidate evaluations performed so far (resets + probed moves).
    fn evaluations(&self) -> u64;
}

/// Replays a complete mapping through the discrete-event engine.
///
/// The single shared implementation of "evaluate a static schedule
/// under the simulator's timing model": [`FullReplayEvaluator`] prices
/// every candidate with it and `static_sa` builds its final result with
/// it.
pub fn replay_mapping(
    g: &TaskGraph,
    topo: &Topology,
    params: &CommParams,
    sim_cfg: &SimConfig,
    mapping: Vec<ProcId>,
    order: Option<Vec<u64>>,
) -> Result<SimResult, SimError> {
    let mut sched = FixedMapping::new(mapping);
    if let Some(order) = order {
        sched = sched.with_order(order);
    }
    simulate(g, topo, params, &mut sched, sim_cfg)
}

/// The reference [`Evaluator`]: every evaluation is one complete
/// [`simulate`] call, with the route table, Gantt recording and
/// allocated result the fast-path kernel does without. Kept as ground
/// truth for equivalence tests and benches.
#[derive(Debug)]
pub struct FullReplayEvaluator<'a> {
    g: &'a TaskGraph,
    topo: &'a Topology,
    params: &'a CommParams,
    sim_cfg: &'a SimConfig,
    order: Vec<u64>,
    base: Vec<ProcId>,
    cand: Vec<ProcId>,
    has_base: bool,
    has_candidate: bool,
    evaluations: u64,
}

impl<'a> FullReplayEvaluator<'a> {
    /// Creates the replay evaluator.
    ///
    /// # Panics
    ///
    /// Panics when `order.len() != g.num_tasks()`.
    pub fn new(
        g: &'a TaskGraph,
        topo: &'a Topology,
        params: &'a CommParams,
        sim_cfg: &'a SimConfig,
        order: Vec<u64>,
    ) -> Self {
        assert_eq!(order.len(), g.num_tasks(), "order must cover every task");
        FullReplayEvaluator {
            g,
            topo,
            params,
            sim_cfg,
            order,
            base: Vec::new(),
            cand: Vec::new(),
            has_base: false,
            has_candidate: false,
            evaluations: 0,
        }
    }

    fn check_mapping(&self, mapping: &[ProcId]) -> Result<(), SimError> {
        if mapping.len() != self.g.num_tasks() {
            return Err(SimError::InvalidAssignment(format!(
                "mapping covers {} of {} tasks",
                mapping.len(),
                self.g.num_tasks()
            )));
        }
        if let Some(p) = mapping.iter().find(|p| p.index() >= self.topo.num_procs()) {
            return Err(SimError::InvalidAssignment(format!(
                "{p} is not in the topology"
            )));
        }
        Ok(())
    }

    fn replay(&mut self) -> Result<u64, SimError> {
        let r = replay_mapping(
            self.g,
            self.topo,
            self.params,
            self.sim_cfg,
            self.cand.clone(),
            Some(self.order.clone()),
        )?;
        self.evaluations += 1;
        self.has_candidate = true;
        Ok(r.makespan)
    }
}

impl Evaluator for FullReplayEvaluator<'_> {
    fn reset(&mut self, mapping: &[ProcId]) -> Result<u64, SimError> {
        self.check_mapping(mapping)?;
        self.has_base = false;
        self.has_candidate = false;
        self.cand.clear();
        self.cand.extend_from_slice(mapping);
        let makespan = self.replay()?;
        self.base.clone_from(&self.cand);
        self.has_base = true;
        self.has_candidate = false;
        Ok(makespan)
    }

    fn eval_relocate(&mut self, task: TaskId, to: ProcId) -> Result<u64, SimError> {
        assert!(self.has_base, "no baseline: call reset() first");
        assert!(to.index() < self.topo.num_procs(), "{to} out of range");
        self.has_candidate = false;
        self.cand.clone_from(&self.base);
        self.cand[task.index()] = to;
        self.replay()
    }

    fn eval_swap(&mut self, a: TaskId, b: TaskId) -> Result<u64, SimError> {
        assert!(self.has_base, "no baseline: call reset() first");
        self.has_candidate = false;
        self.cand.clone_from(&self.base);
        self.cand.swap(a.index(), b.index());
        self.replay()
    }

    fn commit(&mut self) {
        assert!(self.has_candidate, "no candidate to commit");
        self.base.clone_from(&self.cand);
        self.has_candidate = false;
    }

    fn mapping(&self) -> &[ProcId] {
        assert!(self.has_base, "no baseline: call reset() first");
        &self.base
    }

    fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

/// The default [`Evaluator`]: one fast-path kernel run per candidate.
impl Evaluator for FixedEval<'_> {
    fn reset(&mut self, mapping: &[ProcId]) -> Result<u64, SimError> {
        FixedEval::reset(self, mapping)
    }

    fn eval_relocate(&mut self, task: TaskId, to: ProcId) -> Result<u64, SimError> {
        FixedEval::eval_relocate(self, task, to)
    }

    fn eval_swap(&mut self, a: TaskId, b: TaskId) -> Result<u64, SimError> {
        FixedEval::eval_swap(self, a, b)
    }

    fn commit(&mut self) {
        FixedEval::commit(self);
    }

    fn mapping(&self) -> &[ProcId] {
        FixedEval::mapping(self)
    }

    fn evaluations(&self) -> u64 {
        FixedEval::evaluations(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::generate::{layered_random, LayeredConfig, Range};
    use anneal_graph::units::us;
    use anneal_topology::builders::hypercube;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(8);
        layered_random(
            &LayeredConfig {
                layers: 3,
                width: 5,
                edge_prob: 0.4,
                load: Range::new(us(2.0), us(30.0)),
                comm: Range::new(us(1.0), us(6.0)),
            },
            &mut rng,
        )
    }

    #[test]
    fn kind_parsing_and_names() {
        assert_eq!(
            "full".parse::<EvaluatorKind>().unwrap(),
            EvaluatorKind::Full
        );
        assert_eq!(
            "incremental".parse::<EvaluatorKind>().unwrap(),
            EvaluatorKind::Incremental
        );
        assert!("nope".parse::<EvaluatorKind>().is_err());
        assert_eq!(EvaluatorKind::Full.to_string(), "full");
        assert_eq!(EvaluatorKind::default(), EvaluatorKind::Incremental);
    }

    #[test]
    fn both_kinds_agree_on_a_move_chain() {
        let g = sample();
        let n = g.num_tasks();
        let topo = hypercube(3);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order: Vec<u64> = (0..n as u64).collect();
        let mut full = EvaluatorKind::Full
            .build(&g, &topo, &params, &cfg, order.clone())
            .unwrap();
        let mut incr = EvaluatorKind::Incremental
            .build(&g, &topo, &params, &cfg, order)
            .unwrap();
        let mapping: Vec<ProcId> = (0..n).map(|i| ProcId::from_index(i % 8)).collect();
        assert_eq!(full.reset(&mapping).unwrap(), incr.reset(&mapping).unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..60 {
            let t = TaskId::from_index(rng.gen_range(0..n));
            let (a, b);
            if rng.gen_bool(0.5) {
                let q = ProcId::from_index(rng.gen_range(0..8));
                a = full.eval_relocate(t, q).unwrap();
                b = incr.eval_relocate(t, q).unwrap();
            } else {
                let u = TaskId::from_index(rng.gen_range(0..n));
                a = full.eval_swap(t, u).unwrap();
                b = incr.eval_swap(t, u).unwrap();
            }
            assert_eq!(a, b);
            if rng.gen_bool(0.5) {
                full.commit();
                incr.commit();
                assert_eq!(full.mapping(), incr.mapping());
            }
        }
        assert_eq!(full.evaluations(), incr.evaluations());
    }

    #[test]
    fn replay_mapping_matches_reset() {
        let g = sample();
        let topo = hypercube(3);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let mapping: Vec<ProcId> = (0..g.num_tasks())
            .map(|i| ProcId::from_index(i % 8))
            .collect();
        let r = replay_mapping(&g, &topo, &params, &cfg, mapping.clone(), None).unwrap();
        r.audit(&g).unwrap();
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        let mut ev = EvaluatorKind::Incremental
            .build(&g, &topo, &params, &cfg, order)
            .unwrap();
        assert_eq!(ev.reset(&mapping).unwrap(), r.makespan);
    }

    #[test]
    fn invalid_mappings_error_on_both_kinds() {
        let g = sample();
        let topo = hypercube(3);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        for kind in [EvaluatorKind::Full, EvaluatorKind::Incremental] {
            let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
            let mut ev = kind.build(&g, &topo, &params, &cfg, order).unwrap();
            let bad = vec![ProcId::from_index(99); g.num_tasks()];
            assert!(
                matches!(ev.reset(&bad), Err(SimError::InvalidAssignment(_))),
                "{kind}"
            );
        }
    }
}

//! Fast makespan evaluation of fixed mappings under single-task moves.
//!
//! Whole-graph annealing (`anneal-core`'s `static_sa`) prices every
//! candidate mapping by its simulated makespan. A complete
//! [`simulate`](crate::simulate) call per candidate pays for a fresh
//! route table, a fresh event queue, Gantt span recording, statistics
//! and a fully allocated [`SimResult`](crate::SimResult), all to read
//! one number.
//!
//! [`FixedEval`] runs the shared fast-path kernel ([`crate::fastpath`]:
//! packed 16-byte 4-ary event heap, per-processor compute-completion
//! registers, precomputed all-pairs routes, fully reused buffers) under
//! the [`FixedMapping`](crate::FixedMapping) dispatch rule, kept as
//! per-processor waiting lists. Each move is priced by one plain run of
//! that kernel from time 0 under the candidate mapping; a move that
//! leaves the mapping unchanged returns the baseline makespan without a
//! run. [`FixedEval::commit`] adopts the candidate's mapping and
//! makespan.
//!
//! A whole-graph move therefore costs one simulation. Resuming each
//! candidate from a snapshot of the baseline does not pay on campaign
//! traffic: a move there diverges after about a third of a run's
//! epochs, and commits erode a recorded timeline faster than it can be
//! reused (`docs/PAPER_MAP.md`, "Cost deltas").
//!
//! The equivalence contract (every makespan equals a from-scratch
//! engine replay of the same mapping, including after arbitrarily long
//! relocate/swap/commit chains) is enforced by unit tests here and the
//! proptest suite in `anneal-core/tests/evaluator.rs`; the
//! allocation-regression test in `tests/alloc.rs` pins steady-state
//! move evaluation at zero heap allocation.

use anneal_graph::{TaskGraph, TaskId};
use anneal_topology::{CommParams, ProcId, RouteTable, Topology};

use crate::engine::{SimConfig, SimError};
use crate::fastpath::{Driver, FlatRoutes, KernelCtx, KernelState, NONE};
use crate::SimTime;

/// The kernel driver for fixed-mapping runs: per-processor waiting
/// lists make each epoch's dispatch O(idle + waiting) instead of
/// O(ready × procs).
struct FixedDriver<'s> {
    order: &'s [u64],
    mapping: &'s [ProcId],
    waiting: &'s mut [Vec<u32>],
}

impl Driver for FixedDriver<'_> {
    /// Every idle processor takes its waiting ready task with the
    /// lowest `(order, id)` — `FixedMapping::on_epoch`. Tasks waiting
    /// per processor are disjoint, so scanning each idle processor's
    /// own waiting list reproduces the engine's decisions exactly
    /// without touching the full ready set.
    fn dispatch(
        &mut self,
        k: &KernelState,
        _ctx: &KernelCtx<'_>,
        out: &mut Vec<(u32, u32)>,
    ) -> Result<(), SimError> {
        for (p, pr) in k.procs().iter().enumerate() {
            if pr.assigned != NONE {
                continue;
            }
            let mut best: Option<u32> = None;
            for &t in &self.waiting[p] {
                let better = match best {
                    None => true,
                    Some(b) => (self.order[t as usize], t) < (self.order[b as usize], b),
                };
                if better {
                    best = Some(t);
                }
            }
            if let Some(t) = best {
                out.push((t, p as u32));
            }
        }
        Ok(())
    }

    // lint:allow(panic) reason="the kernel assigns only tasks it previously reported ready"
    fn task_assigned(&mut self, t: u32, q: u32) {
        let w = &mut self.waiting[q as usize];
        let pos = w.iter().position(|&x| x == t).expect("task was waiting");
        w.swap_remove(pos);
    }

    fn task_ready(&mut self, t: u32) {
        self.waiting[self.mapping[t as usize].index()].push(t);
    }
}

/// Fixed-mapping makespan evaluator.
///
/// Create one per `(graph, topology, params, config, dispatch order)`
/// instance, establish a baseline with [`FixedEval::reset`], then probe
/// single-task moves with [`FixedEval::eval_relocate`] /
/// [`FixedEval::eval_swap`] and adopt accepted candidates with
/// [`FixedEval::commit`]. Every makespan returned is bit-identical to
/// `simulate(..)` with `FixedMapping::new(mapping).with_order(order)`.
#[derive(Debug)]
pub struct FixedEval<'a> {
    g: &'a TaskGraph,
    num_procs: usize,
    num_channels: usize,
    params: CommParams,
    comm_enabled: bool,
    max_events: u64,
    order: Vec<u64>,
    routes: FlatRoutes,
    /// `pred_base[t]` = first predecessor-edge id of task `t` (edge ids
    /// number the incoming edges of all tasks consecutively).
    pred_base: Vec<u32>,

    // Committed baseline.
    base_mapping: Vec<ProcId>,
    base_makespan: SimTime,
    has_base: bool,

    // Last evaluated candidate.
    cand_mapping: Vec<ProcId>,
    cand_makespan: SimTime,
    has_candidate: bool,

    /// The engine state of the run in progress (the shared fast-path
    /// kernel; every buffer reused).
    k: KernelState,
    /// `waiting[p]` = ready tasks mapped to processor `p` under the
    /// running candidate (unordered; dispatch selects the minimum by
    /// `(order, id)`).
    waiting: Vec<Vec<u32>>,
    evaluations: u64,
}

impl<'a> FixedEval<'a> {
    /// Builds an evaluator for one instance. `order` is the dispatch
    /// priority per task (lower dispatches first, ties by task id) —
    /// exactly [`FixedMapping::with_order`](crate::FixedMapping).
    ///
    /// Errors if the topology is disconnected.
    ///
    /// # Panics
    ///
    /// Panics when `order.len() != g.num_tasks()`.
    pub fn new(
        g: &'a TaskGraph,
        topo: &Topology,
        params: &CommParams,
        cfg: &SimConfig,
        order: Vec<u64>,
    ) -> Result<Self, SimError> {
        assert_eq!(order.len(), g.num_tasks(), "order must cover every task");
        let table = RouteTable::build(topo).map_err(|e| SimError::Disconnected(e.to_string()))?;
        let routes = FlatRoutes::build(topo, &table);
        let np = topo.num_procs();
        let mut pred_base = Vec::with_capacity(g.num_tasks() + 1);
        crate::fastpath::build_pred_base(g, &mut pred_base);
        Ok(FixedEval {
            g,
            num_procs: np,
            num_channels: topo.num_channels(),
            params: *params,
            comm_enabled: cfg.comm_enabled,
            max_events: cfg.max_events,
            order,
            routes,
            pred_base,
            base_mapping: Vec::new(),
            base_makespan: 0,
            has_base: false,
            cand_mapping: Vec::new(),
            cand_makespan: 0,
            has_candidate: false,
            k: KernelState::default(),
            waiting: vec![Vec::new(); np],
            evaluations: 0,
        })
    }

    /// The committed baseline mapping.
    ///
    /// # Panics
    ///
    /// Panics before the first successful [`FixedEval::reset`].
    pub fn mapping(&self) -> &[ProcId] {
        assert!(self.has_base, "no baseline: call reset() first");
        &self.base_mapping
    }

    /// The committed baseline makespan.
    ///
    /// # Panics
    ///
    /// Panics before the first successful [`FixedEval::reset`].
    pub fn makespan(&self) -> SimTime {
        assert!(self.has_base, "no baseline: call reset() first");
        self.base_makespan
    }

    /// Candidate evaluations performed (resets + moves).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Establishes `mapping` as the committed baseline by a full run,
    /// returning its makespan.
    pub fn reset(&mut self, mapping: &[ProcId]) -> Result<SimTime, SimError> {
        self.check_mapping(mapping)?;
        self.has_base = false;
        self.has_candidate = false;
        self.cand_mapping.clear();
        self.cand_mapping.extend_from_slice(mapping);
        let makespan = self.run_candidate()?;
        self.evaluations += 1;
        self.base_mapping.clone_from(&self.cand_mapping);
        self.base_makespan = makespan;
        self.has_base = true;
        Ok(makespan)
    }

    /// Makespan of the baseline with `task` relocated to `to`. The
    /// baseline itself is unchanged until [`FixedEval::commit`].
    ///
    /// # Panics
    ///
    /// Panics without a baseline or when `task`/`to` are out of range.
    pub fn eval_relocate(&mut self, task: TaskId, to: ProcId) -> Result<SimTime, SimError> {
        assert!(self.has_base, "no baseline: call reset() first");
        assert!(to.index() < self.num_procs, "{to} out of range");
        self.cand_mapping.clone_from(&self.base_mapping);
        let unchanged = self.cand_mapping[task.index()] == to;
        self.cand_mapping[task.index()] = to;
        self.eval_candidate(unchanged)
    }

    /// Makespan of the baseline with tasks `a` and `b` exchanging
    /// processors. The baseline is unchanged until [`FixedEval::commit`].
    ///
    /// # Panics
    ///
    /// Panics without a baseline or when `a`/`b` are out of range.
    pub fn eval_swap(&mut self, a: TaskId, b: TaskId) -> Result<SimTime, SimError> {
        assert!(self.has_base, "no baseline: call reset() first");
        self.cand_mapping.clone_from(&self.base_mapping);
        let unchanged = self.cand_mapping[a.index()] == self.cand_mapping[b.index()];
        self.cand_mapping.swap(a.index(), b.index());
        self.eval_candidate(unchanged)
    }

    /// Adopts the most recently evaluated candidate's mapping and
    /// makespan as the committed baseline.
    ///
    /// # Panics
    ///
    /// Panics when no candidate evaluation succeeded since the last
    /// `reset`/`commit`.
    pub fn commit(&mut self) {
        assert!(self.has_candidate, "no candidate to commit");
        self.has_candidate = false;
        std::mem::swap(&mut self.base_mapping, &mut self.cand_mapping);
        self.base_makespan = self.cand_makespan;
    }

    fn check_mapping(&self, mapping: &[ProcId]) -> Result<(), SimError> {
        if mapping.len() != self.g.num_tasks() {
            return Err(SimError::InvalidAssignment(format!(
                "mapping covers {} of {} tasks",
                mapping.len(),
                self.g.num_tasks()
            )));
        }
        if let Some(p) = mapping.iter().find(|p| p.index() >= self.num_procs) {
            return Err(SimError::InvalidAssignment(format!(
                "{p} is not in the topology"
            )));
        }
        Ok(())
    }

    /// Prices the candidate in `cand_mapping`. A move that left the
    /// mapping `unchanged` is the baseline itself, so it needs no run.
    fn eval_candidate(&mut self, unchanged: bool) -> Result<SimTime, SimError> {
        self.has_candidate = false;
        let makespan = if unchanged {
            self.base_makespan
        } else {
            self.run_candidate()?
        };
        self.evaluations += 1;
        self.cand_makespan = makespan;
        self.has_candidate = true;
        Ok(makespan)
    }

    /// Runs the kernel from the empty time-0 state under
    /// `cand_mapping`, returning the makespan.
    // lint:allow(panic) reason="build_pred_base always pushes at least one offset"
    fn run_candidate(&mut self) -> Result<SimTime, SimError> {
        let num_pred_edges = *self.pred_base.last().expect("pred_base non-empty") as usize;
        self.k
            .reset(self.g, self.num_procs, self.num_channels, num_pred_edges);
        // Worst-case bound: every task can wait on one processor.
        let n = self.g.num_tasks();
        for w in &mut self.waiting {
            w.clear();
            w.reserve(n);
        }
        for &t in &self.k.ready {
            self.waiting[self.cand_mapping[t as usize].index()].push(t);
        }
        let ctx = KernelCtx {
            g: self.g,
            params: &self.params,
            comm_enabled: self.comm_enabled,
            max_events: self.max_events,
            routes: &self.routes,
            pred_base: &self.pred_base,
        };
        let mut driver = FixedDriver {
            order: &self.order,
            mapping: &self.cand_mapping,
            waiting: &mut self.waiting,
        };
        self.k.run(&ctx, &mut driver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FixedMapping;
    use crate::simulate;
    use anneal_graph::generate::{layered_random, LayeredConfig, Range};
    use anneal_graph::units::us;
    use anneal_graph::TaskGraphBuilder;
    use anneal_topology::builders::{bus, hypercube, linear, ring, shared_bus, star};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(i: usize) -> ProcId {
        ProcId::from_index(i)
    }

    fn replay(
        g: &TaskGraph,
        topo: &Topology,
        params: &CommParams,
        cfg: &SimConfig,
        mapping: &[ProcId],
        order: &[u64],
    ) -> SimTime {
        let mut s = FixedMapping::new(mapping.to_vec()).with_order(order.to_vec());
        simulate(g, topo, params, &mut s, cfg).unwrap().makespan
    }

    fn sample_graph(seed: u64) -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        layered_random(
            &LayeredConfig {
                layers: 4,
                width: 5,
                edge_prob: 0.4,
                load: Range::new(us(1.0), us(40.0)),
                comm: Range::new(us(0.5), us(8.0)),
            },
            &mut rng,
        )
    }

    #[test]
    fn matches_engine_on_fresh_mappings() {
        let g = sample_graph(3);
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        for topo in [hypercube(3), ring(5), star(4), shared_bus(4), linear(3)] {
            let np = topo.num_procs();
            let params = CommParams::paper();
            let cfg = SimConfig::default();
            let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..6 {
                let mapping: Vec<ProcId> = (0..g.num_tasks())
                    .map(|_| p(rng.gen_range(0..np)))
                    .collect();
                let fast = ev.reset(&mapping).unwrap();
                let slow = replay(&g, &topo, &params, &cfg, &mapping, &order);
                assert_eq!(fast, slow, "{}", topo.name());
            }
        }
    }

    #[test]
    fn incremental_moves_match_full_replay() {
        let g = sample_graph(7);
        let n = g.num_tasks();
        let topo = hypercube(3);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order: Vec<u64> = (0..n as u64).rev().collect();
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut mapping: Vec<ProcId> = (0..n).map(|i| p(i % 8)).collect();
        ev.reset(&mapping).unwrap();
        for step in 0..200 {
            let t = rng.gen_range(0..n);
            let expected;
            let got;
            if rng.gen_bool(0.5) {
                let q = rng.gen_range(0..8);
                let mut cand = mapping.clone();
                cand[t] = p(q);
                expected = replay(&g, &topo, &params, &cfg, &cand, &order);
                got = ev.eval_relocate(TaskId::from_index(t), p(q)).unwrap();
                if rng.gen_bool(0.6) {
                    ev.commit();
                    mapping = cand;
                }
            } else {
                let u = rng.gen_range(0..n);
                let mut cand = mapping.clone();
                cand.swap(t, u);
                expected = replay(&g, &topo, &params, &cfg, &cand, &order);
                got = ev
                    .eval_swap(TaskId::from_index(t), TaskId::from_index(u))
                    .unwrap();
                if rng.gen_bool(0.6) {
                    ev.commit();
                    mapping = cand;
                }
            }
            assert_eq!(got, expected, "step {step}");
            assert_eq!(ev.mapping(), mapping.as_slice(), "step {step}");
        }
    }

    #[test]
    fn no_comm_mode_matches_engine() {
        let g = sample_graph(5);
        let topo = bus(4);
        let params = CommParams::zero();
        let cfg = SimConfig {
            comm_enabled: false,
            ..SimConfig::default()
        };
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        let mapping: Vec<ProcId> = (0..g.num_tasks()).map(|i| p(i % 4)).collect();
        let fast = ev.reset(&mapping).unwrap();
        assert_eq!(fast, replay(&g, &topo, &params, &cfg, &mapping, &order));
        // single processor serializes exactly
        let topo1 = linear(1);
        let mut ev1 = FixedEval::new(&g, &topo1, &params, &cfg, order).unwrap();
        let all0 = vec![p(0); g.num_tasks()];
        assert_eq!(ev1.reset(&all0).unwrap(), g.total_work());
    }

    #[test]
    fn zero_load_tasks_and_tiny_graphs() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(0);
        let c = b.add_task(us(5.0));
        let d = b.add_task(0);
        b.add_edge(a, c, us(2.0)).unwrap();
        b.add_edge(c, d, 0).unwrap();
        let g = b.build().unwrap();
        let topo = linear(2);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order = vec![0, 1, 2];
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        for mapping in [
            vec![p(0), p(1), p(0)],
            vec![p(0), p(0), p(1)],
            vec![p(1), p(0), p(0)],
        ] {
            assert_eq!(
                ev.reset(&mapping).unwrap(),
                replay(&g, &topo, &params, &cfg, &mapping, &order)
            );
        }
    }

    #[test]
    fn steady_state_move_evaluation_is_allocation_free_of_results() {
        // Smoke for buffer reuse: thousands of evaluations on one
        // evaluator must agree with the engine at the end of the chain.
        // (tests/alloc.rs pins the actual zero-allocation property with
        // a counting allocator.)
        let g = sample_graph(13);
        let n = g.num_tasks();
        let topo = ring(5);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order: Vec<u64> = vec![0; n];
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mapping: Vec<ProcId> = (0..n).map(|i| p(i % 5)).collect();
        ev.reset(&mapping).unwrap();
        for _ in 0..2000 {
            let t = rng.gen_range(0..n);
            let q = rng.gen_range(0..5);
            ev.eval_relocate(TaskId::from_index(t), p(q)).unwrap();
            if rng.gen_bool(0.3) {
                ev.commit();
            }
        }
        let final_mapping = ev.mapping().to_vec();
        assert_eq!(
            ev.makespan(),
            replay(&g, &topo, &params, &cfg, &final_mapping, &order)
        );
        assert_eq!(ev.evaluations(), 2001);
    }

    #[test]
    fn invalid_mappings_are_rejected() {
        let g = sample_graph(1);
        let topo = bus(2);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order).unwrap();
        let short = vec![p(0); g.num_tasks() - 1];
        assert!(matches!(
            ev.reset(&short),
            Err(SimError::InvalidAssignment(_))
        ));
        let out_of_range = vec![p(7); g.num_tasks()];
        assert!(matches!(
            ev.reset(&out_of_range),
            Err(SimError::InvalidAssignment(_))
        ));
    }

    #[test]
    fn event_limit_is_enforced() {
        let g = sample_graph(1);
        let topo = linear(2);
        let params = CommParams::paper();
        let cfg = SimConfig {
            comm_enabled: true,
            max_events: 3,
        };
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order).unwrap();
        let mapping: Vec<ProcId> = (0..g.num_tasks()).map(|i| p(i % 2)).collect();
        assert_eq!(ev.reset(&mapping), Err(SimError::EventLimit));
    }
}

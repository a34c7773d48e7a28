//! Fast makespan pricing of fixed mappings.
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
//! per-processor waiting lists. [`FixedEval::makespan`] prices a whole
//! mapping with one plain run of that kernel from time 0; the caller
//! owns the mapping and applies or undoes its moves itself.
//!
//! A whole-graph move therefore costs one simulation. Resuming each
//! candidate from a snapshot of the previous mapping does not pay on
//! campaign traffic: a move there diverges after about a third of a
//! run's epochs, and accepted moves erode a recorded timeline faster
//! than it can be reused (`docs/PAPER_MAP.md`, "Cost deltas").
//!
//! The equivalence contract (every makespan equals a from-scratch
//! engine replay of the same mapping, however long the chain of
//! mappings priced before it) is enforced by unit tests here and the
//! proptest suite in `anneal-core/tests/evaluator.rs`; the
//! allocation-regression test in `tests/alloc.rs` pins steady-state
//! pricing at zero heap allocation.

use anneal_graph::TaskGraph;
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

    #[expect(
        clippy::expect_used,
        reason = "the kernel assigns only tasks it previously reported ready"
    )]
    fn task_assigned(&mut self, t: u32, q: u32) {
        let w = &mut self.waiting[q as usize];
        let pos = w.iter().position(|&x| x == t).expect("task was waiting");
        w.swap_remove(pos);
    }

    fn task_ready(&mut self, t: u32) {
        self.waiting[self.mapping[t as usize].index()].push(t);
    }
}

/// Fixed-mapping makespan pricer.
///
/// Create one per `(graph, topology, params, config, dispatch order)`
/// instance, then price complete mappings with [`FixedEval::makespan`].
/// Every makespan returned is bit-identical to `simulate(..)` with
/// `FixedMapping::new(mapping).with_order(order)`.
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
    /// The engine state of the run in progress (the shared fast-path
    /// kernel; every buffer reused).
    k: KernelState,
    /// `waiting[p]` = ready tasks mapped to processor `p` in the run in
    /// progress (unordered; dispatch selects the minimum by
    /// `(order, id)`).
    waiting: Vec<Vec<u32>>,
}

impl<'a> FixedEval<'a> {
    /// Builds a pricer for one instance. `order` is the dispatch
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
            k: KernelState::default(),
            waiting: vec![Vec::new(); np],
        })
    }

    /// The simulated makespan of `mapping` (task index → processor):
    /// one kernel run from the empty time-0 state.
    ///
    /// Errors with [`SimError::InvalidAssignment`] when `mapping` does
    /// not hold one processor per task or names a processor outside the
    /// topology, and with the engine's own errors (such as
    /// [`SimError::EventLimit`]) otherwise.
    #[expect(
        clippy::expect_used,
        reason = "build_pred_base always pushes at least one offset"
    )]
    pub fn makespan(&mut self, mapping: &[ProcId]) -> Result<SimTime, SimError> {
        self.check_mapping(mapping)?;
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
            self.waiting[mapping[t as usize].index()].push(t);
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
            mapping,
            waiting: &mut self.waiting,
        };
        self.k.run(&ctx, &mut driver)
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
                let fast = ev.makespan(&mapping).unwrap();
                let slow = replay(&g, &topo, &params, &cfg, &mapping, &order);
                assert_eq!(fast, slow, "{}", topo.name());
            }
        }
    }

    #[test]
    fn one_move_neighbours_match_the_engine() {
        // static_sa's access pattern: apply a relocation or a swap in
        // place, price the whole mapping, keep or undo the move.
        let g = sample_graph(7);
        let n = g.num_tasks();
        let topo = hypercube(3);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order: Vec<u64> = (0..n as u64).rev().collect();
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut mapping: Vec<ProcId> = (0..n).map(|i| p(i % 8)).collect();
        for step in 0..200 {
            let kept = mapping.clone();
            let t = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                mapping[t] = p(rng.gen_range(0..8));
            } else {
                mapping.swap(t, rng.gen_range(0..n));
            }
            let expected = replay(&g, &topo, &params, &cfg, &mapping, &order);
            assert_eq!(ev.makespan(&mapping).unwrap(), expected, "step {step}");
            if rng.gen_bool(0.4) {
                mapping = kept;
            }
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
        let fast = ev.makespan(&mapping).unwrap();
        assert_eq!(fast, replay(&g, &topo, &params, &cfg, &mapping, &order));
        // single processor serializes exactly
        let topo1 = linear(1);
        let mut ev1 = FixedEval::new(&g, &topo1, &params, &cfg, order).unwrap();
        let all0 = vec![p(0); g.num_tasks()];
        assert_eq!(ev1.makespan(&all0).unwrap(), g.total_work());
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
                ev.makespan(&mapping).unwrap(),
                replay(&g, &topo, &params, &cfg, &mapping, &order)
            );
        }
    }

    #[test]
    fn reused_buffers_do_not_drift_over_long_chains() {
        // Smoke for buffer reuse: thousands of runs on one pricer must
        // agree with the engine at the end of the chain. (tests/alloc.rs
        // pins the actual zero-allocation property with a counting
        // allocator.)
        let g = sample_graph(13);
        let n = g.num_tasks();
        let topo = ring(5);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order: Vec<u64> = vec![0; n];
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut mapping: Vec<ProcId> = (0..n).map(|i| p(i % 5)).collect();
        for _ in 0..2000 {
            let t = rng.gen_range(0..n);
            let prev = mapping[t];
            mapping[t] = p(rng.gen_range(0..5));
            ev.makespan(&mapping).unwrap();
            if !rng.gen_bool(0.3) {
                mapping[t] = prev;
            }
        }
        assert_eq!(
            ev.makespan(&mapping).unwrap(),
            replay(&g, &topo, &params, &cfg, &mapping, &order)
        );
    }

    #[test]
    fn invalid_mappings_are_rejected() {
        let g = sample_graph(1);
        let topo = bus(2);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let order: Vec<u64> = (0..g.num_tasks() as u64).collect();
        let mut ev = FixedEval::new(&g, &topo, &params, &cfg, order.clone()).unwrap();
        let short = vec![p(0); g.num_tasks() - 1];
        assert!(matches!(
            ev.makespan(&short),
            Err(SimError::InvalidAssignment(_))
        ));
        let out_of_range = vec![p(7); g.num_tasks()];
        assert!(matches!(
            ev.makespan(&out_of_range),
            Err(SimError::InvalidAssignment(_))
        ));
        // A refused mapping leaves the pricer usable.
        let valid: Vec<ProcId> = (0..g.num_tasks()).map(|i| p(i % 2)).collect();
        assert_eq!(
            ev.makespan(&valid).unwrap(),
            replay(&g, &topo, &params, &cfg, &valid, &order)
        );
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
        assert_eq!(ev.makespan(&mapping), Err(SimError::EventLimit));
    }
}

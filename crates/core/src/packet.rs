//! Annealing-packet assembly (paper §4.1): the one table of eqs. 2–5
//! that both SA lanes read.
//!
//! "An annealing packet contains the ready tasks and the idle
//! processors. The ready tasks have no unfinished predecessors. At each
//! epoch a simulated annealing process maps the tasks of one packet onto
//! the processors. Unassigned tasks are moved to the following annealing
//! packet."
//!
//! Because every predecessor of a ready task has already finished, its
//! processor placement is known, so the eq. 4 communication cost of
//! putting task `t_i` on candidate processor `q` is a constant that can
//! be tabulated once per packet ([`AnnealingPacket::comm_cost`]). The
//! same load takes the two integer sums behind eq. 6's normalization
//! ranges `ΔF_b` and `ΔF_c`, so a [`CostModel`](crate::cost::CostModel)
//! over the packet is built without allocating and prices a move or a
//! whole mapping from table lookups.
//!
//! [`SaScheduler`](crate::SaScheduler) keeps one packet and reloads it
//! in place at every epoch ([`AnnealingPacket::load`]), so a warm
//! scheduler allocates nothing for it. The exact lane anneals it
//! ([`crate::annealer`]); the turbo lane solves it ([`crate::lane`]).

use anneal_graph::{TaskId, Work};
use anneal_sim::EpochContext;
use anneal_topology::ProcId;

/// A scheduling stage: ready tasks × idle processors, with their levels,
/// the eq. 4 cost of every placement and the sums behind eq. 6's
/// normalization ranges. Its buffers are reused across
/// [`load`](AnnealingPacket::load)s.
#[derive(Debug, Clone, Default)]
pub struct AnnealingPacket {
    /// The candidate tasks (`N` of them), sorted by id.
    tasks: Vec<TaskId>,
    /// The idle processors, sorted by id.
    procs: Vec<ProcId>,
    /// `levels[i]` is the paper's task level `n_i` of `tasks[i]` (ns).
    levels: Vec<Work>,
    /// Row-major `N × N_idle`: entry `i · N_idle + j` is the total eq. 4
    /// cost of placing `tasks[i]` on `procs[j]`, summed over all its
    /// (finished, placed) predecessors. All zeros when communication is
    /// disabled.
    comm_cost: Vec<u64>,
    /// Epoch time (ns), for traces.
    epoch_time: u64,
    /// With `k = min(N, N_idle)`: the `k` highest levels' sum less the
    /// `k` lowest's, the `Max − Min` behind `ΔF_b`.
    pub(crate) level_span: u64,
    /// The sum of the `k` largest per-task worst placement costs (each
    /// task's row maximum), the estimate behind `ΔF_c`.
    pub(crate) worst_sum: u64,
    /// Loader scratch: one task's predecessor placements and weights.
    preds: Vec<(ProcId, Work)>,
    /// Loader scratch: the values the two range sums are taken over.
    sorted: Vec<u64>,
}

impl AnnealingPacket {
    /// Builds the packet for an epoch ([`load`](AnnealingPacket::load)
    /// into a new packet).
    pub fn from_epoch(ctx: &EpochContext<'_>, levels: &[Work]) -> Self {
        let mut packet = AnnealingPacket::default();
        packet.load(ctx, levels);
        packet
    }

    /// Reloads this packet in place for an epoch, reusing its buffers.
    /// `levels` is the full per-task bottom-level vector for the graph
    /// (cached by the scheduler).
    #[expect(clippy::expect_used, reason = "ready tasks have placed predecessors")]
    pub fn load(&mut self, ctx: &EpochContext<'_>, levels: &[Work]) {
        let p = ctx.idle.len();
        self.tasks.clear();
        self.tasks.extend_from_slice(ctx.ready);
        self.procs.clear();
        self.procs.extend_from_slice(ctx.idle);
        self.levels.clear();
        self.levels
            .extend(ctx.ready.iter().map(|t| levels[t.index()]));
        self.comm_cost.clear();
        self.comm_cost.resize(ctx.ready.len() * p, 0);
        if ctx.comm_enabled && p > 0 {
            for (&t, row) in ctx.ready.iter().zip(self.comm_cost.chunks_exact_mut(p)) {
                // Predecessor placements are all known: ready ⇒ finished.
                self.preds.clear();
                self.preds.extend(ctx.graph.predecessors(t).iter().map(|e| {
                    let src = ctx.placement[e.target.index()]
                        .expect("predecessor of a ready task is placed");
                    (src, e.weight)
                }));
                for (c, &q) in row.iter_mut().zip(ctx.idle) {
                    for &(src, w) in &self.preds {
                        let d = ctx.routes.distance(src, q);
                        *c += ctx.params.eq4_cost(w, d, src == q);
                    }
                }
            }
        }
        self.epoch_time = ctx.time;
        self.take_range_sums();
    }

    /// A packet of tasks `0..levels.len()` on processors `0..p` from
    /// each task's level and its row of `p` eq. 4 placement costs, at
    /// epoch time 0: synthetic packets for tests and benches.
    pub fn from_rows<R: AsRef<[u64]>>(levels: &[Work], rows: &[R]) -> Self {
        assert_eq!(levels.len(), rows.len(), "one cost row per task");
        let p = rows.first().map_or(0, |row| row.as_ref().len());
        let mut packet = AnnealingPacket {
            tasks: (0..levels.len()).map(TaskId::from_index).collect(),
            procs: (0..p).map(ProcId::from_index).collect(),
            levels: levels.to_vec(),
            ..AnnealingPacket::default()
        };
        for row in rows {
            assert_eq!(row.as_ref().len(), p, "cost rows differ in length");
            packet.comm_cost.extend_from_slice(row.as_ref());
        }
        packet.take_range_sums();
        packet
    }

    /// Takes `level_span` and `worst_sum` from the loaded tables.
    fn take_range_sums(&mut self) {
        let k = self.num_selected();
        let p = self.procs.len();
        let sorted = &mut self.sorted;
        sorted.clear();
        sorted.extend_from_slice(&self.levels);
        sorted.sort_unstable();
        let lowest: u64 = sorted[..k].iter().sum();
        let highest: u64 = sorted[sorted.len() - k..].iter().sum();
        self.level_span = highest - lowest;
        sorted.clear();
        if p > 0 {
            let rows = self.comm_cost.chunks_exact(p);
            sorted.extend(rows.map(|row| row.iter().copied().max().unwrap_or(0)));
        }
        sorted.sort_unstable();
        self.worst_sum = sorted[sorted.len() - k..].iter().sum();
    }

    /// The candidate tasks, sorted by id.
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// The idle processors, sorted by id.
    pub fn procs(&self) -> &[ProcId] {
        &self.procs
    }

    /// The candidates' levels `n_i` (ns), in [`tasks`](Self::tasks)
    /// order.
    pub fn levels(&self) -> &[Work] {
        &self.levels
    }

    /// The eq. 4 cost of placing candidate `t` on idle processor `q`
    /// (packet indices).
    #[inline]
    pub fn comm_cost(&self, t: usize, q: usize) -> u64 {
        self.comm_cost[t * self.procs.len() + q]
    }

    /// Epoch time (ns).
    pub fn epoch_time(&self) -> u64 {
        self.epoch_time
    }

    /// Number of candidate tasks `N`.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of idle processors `N_idle`.
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Number of tasks that will actually be selected:
    /// `min(N, N_idle)` (the mapping always saturates).
    pub fn num_selected(&self) -> usize {
        self.tasks.len().min(self.procs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{BalanceRange, CostModel};
    use anneal_graph::levels::bottom_levels;
    use anneal_graph::{TaskGraph, TaskGraphBuilder};
    use anneal_sim::{simulate, OnlineScheduler, SimConfig};
    use anneal_topology::builders::linear;
    use anneal_topology::CommParams;

    /// Reloads one packet in place at every epoch, checks it against a
    /// packet built from scratch for the same epoch, and keeps the
    /// fresh ones. Dispatches greedily.
    struct Capture {
        levels: Vec<Work>,
        reused: AnnealingPacket,
        packets: Vec<AnnealingPacket>,
    }

    impl Capture {
        fn run(g: &TaskGraph, procs: usize, comm: bool) -> Vec<AnnealingPacket> {
            let mut s = Capture {
                levels: bottom_levels(g),
                reused: AnnealingPacket::default(),
                packets: Vec::new(),
            };
            let (params, cfg) = if comm {
                (CommParams::paper(), SimConfig::default())
            } else {
                let cfg = SimConfig {
                    comm_enabled: false,
                    ..SimConfig::default()
                };
                (CommParams::zero(), cfg)
            };
            simulate(g, &linear(procs), &params, &mut s, &cfg).unwrap();
            s.packets
        }
    }

    /// A packet's tables, field for field.
    type Tables = (Vec<TaskId>, Vec<ProcId>, Vec<Work>, Vec<u64>, u64, u64, u64);

    fn tables(pk: &AnnealingPacket) -> Tables {
        (
            pk.tasks.clone(),
            pk.procs.clone(),
            pk.levels.clone(),
            pk.comm_cost.clone(),
            pk.epoch_time,
            pk.level_span,
            pk.worst_sum,
        )
    }

    impl OnlineScheduler for Capture {
        fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
            self.reused.load(ctx, &self.levels);
            let fresh = AnnealingPacket::from_epoch(ctx, &self.levels);
            assert_eq!(tables(&self.reused), tables(&fresh), "t={}", ctx.time);
            for bal in [BalanceRange::Full, BalanceRange::PerIdle] {
                let reused = CostModel::new(&self.reused, 0.5, 0.5, bal);
                let built = CostModel::new(&fresh, 0.5, 0.5, bal);
                assert_eq!(
                    (reused.range_b(), reused.range_c()),
                    (built.range_b(), built.range_c()),
                    "t={} {bal:?}",
                    ctx.time
                );
            }
            self.packets.push(fresh);
            for (&t, &p) in ctx.ready.iter().zip(ctx.idle.iter()) {
                out.push((t, p));
            }
        }
    }

    /// `a -> b` with weight 4 µs.
    fn pair() -> (TaskGraph, TaskId) {
        let mut bld = TaskGraphBuilder::new();
        let a = bld.add_task(10_000);
        let b = bld.add_task(20_000);
        bld.add_edge(a, b, 4_000).unwrap();
        (bld.build().unwrap(), b)
    }

    #[test]
    fn packet_tabulates_eq4_costs() {
        // a runs on P0 (greedy assigns t0 -> P0); b is the packet of the
        // second epoch, so its predecessor has a real placement.
        let (g, b) = pair();
        let packets = Capture::run(&g, 3, true);
        let pk = packets.iter().find(|pk| pk.epoch_time() > 0).unwrap();
        assert_eq!(pk.tasks(), [b]);
        assert_eq!(pk.num_procs(), 3);
        // comm cost of b on P0 (same proc as a) = 0;
        // on P1 (d=1) = 4000*1 + sigma = 11_000;
        // on P2 (d=2) = 8000 + tau + sigma = 24_000.
        let row: Vec<u64> = (0..3).map(|q| pk.comm_cost(0, q)).collect();
        assert_eq!(row, vec![0, 11_000, 24_000]);
        assert_eq!(pk.worst_sum, 24_000);
        assert_eq!(pk.levels(), [20_000]);
        assert_eq!(pk.num_selected(), 1);
    }

    #[test]
    fn no_comm_mode_zeroes_table() {
        let (g, _) = pair();
        let packets = Capture::run(&g, 2, false);
        let pk = packets.iter().find(|pk| pk.epoch_time() > 0).unwrap();
        assert!(pk.comm_cost.iter().all(|&c| c == 0));
        assert_eq!(pk.worst_sum, 0);
    }

    /// A root forking into six tasks of unequal work, two of which fan
    /// into a second tier, all joining at one sink: on three processors
    /// the packets grow, shrink and change shape from epoch to epoch.
    fn fork_join() -> TaskGraph {
        let mut bld = TaskGraphBuilder::new();
        let root = bld.add_task(5_000);
        let sink = bld.add_task(7_000);
        for i in 0..6u64 {
            let mid = bld.add_task(3_000 + 4_000 * i);
            bld.add_edge(root, mid, 1_000 + 500 * i).unwrap();
            bld.add_edge(mid, sink, 2_000).unwrap();
            if i % 3 == 0 {
                for j in 0..3u64 {
                    let leaf = bld.add_task(2_000 + 1_500 * j);
                    bld.add_edge(mid, leaf, 800 * (j + 1)).unwrap();
                    bld.add_edge(leaf, sink, 600).unwrap();
                }
            }
        }
        bld.build().unwrap()
    }

    #[test]
    fn reloading_in_place_matches_a_fresh_packet_at_every_epoch() {
        let g = fork_join();
        for comm in [true, false] {
            // `Capture` asserts the reused packet against a fresh one at
            // every epoch; here the run must really resize the tables.
            let packets = Capture::run(&g, 3, comm);
            let shapes: Vec<(usize, usize)> = packets
                .iter()
                .map(|pk| (pk.num_tasks(), pk.num_procs()))
                .collect();
            let sizes: Vec<usize> = shapes.iter().map(|&(n, p)| n * p).collect();
            assert!(sizes.windows(2).any(|w| w[0] < w[1]), "{shapes:?}");
            assert!(sizes.windows(2).any(|w| w[0] > w[1]), "{shapes:?}");
            assert!(shapes.iter().any(|&(n, p)| n > p && p > 1), "{shapes:?}");
            let costly = packets.iter().any(|pk| pk.worst_sum > 0);
            assert_eq!(costly, comm, "{shapes:?}");
        }
    }
}

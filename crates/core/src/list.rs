//! Priority list scheduling: the paper's Highest Level First baseline
//! and its communication-aware relatives, as one algorithm.
//!
//! At each epoch the ready tasks are sorted by a static priority (higher
//! first, ties toward lower task ids) and placed, best first, on idle
//! processors by one of four rules. This is the split of Coleman et
//! al.'s parameterized list scheduler (PAPERS.md): a priority function
//! and a placement rule.
//!
//! * **In order** ([`ListScheduler::new`]): the ranked tasks are zipped
//!   with the idle processors in index order, which makes the paper's
//!   "arbitrary" placement (§1, §6) concrete. Under
//!   [`PriorityPolicy::HighestLevelFirst`] this is the paper's baseline,
//!   [`HlfScheduler`]; the other policies support the statistical
//!   comparisons of list schedules (Adam, Chandy & Dickinson, ref. 1 in
//!   the paper).
//! * **Least communication** ([`ListScheduler::mct`]): HLF ranking, and
//!   each task on the idle processor with the smallest eq. 4
//!   input-communication estimate. It sits between HLF's arbitrary
//!   placement and SA's annealed one, and shows how much of SA's gain
//!   comes from *placement awareness* versus *stochastic search*.
//! * **Earliest finish** ([`ListScheduler::heft`]): HEFT (Topcuoglu et
//!   al.) in the paper's online, homogeneous setting. Tasks rank by
//!   upward rank (bottom level including communication) and go to the
//!   idle processor with the smallest *estimated* finish time under the
//!   eq. 4 model,
//!
//!   ```text
//!   EFT(t, q) = max(time, max_p  finish(p) + c_eq4(w_pt, d(proc(p), q))) + r_t
//!   ```
//!
//!   over placed predecessors `p`. Unlike least communication, this
//!   folds in *when* each predecessor finished, so it can prefer a
//!   farther processor whose critical message left earlier.
//! * **Critical path on one processor** ([`ListScheduler::cpop`]): CPOP
//!   (Topcuoglu et al.). Tasks rank by top plus bottom level, both
//!   including communication. Every task whose rank attains the
//!   critical-path length runs on one host, the most *central* processor
//!   (minimum total hop distance, ties to the lowest id: on a hypercube
//!   every node qualifies, on a star the hub wins). A ready
//!   critical-path task waits until the host is idle and never spills
//!   elsewhere; the other tasks are placed by earliest finish.
//!
//! The argmin rules break ties toward the lowest processor id.

use anneal_graph::levels::{bottom_levels, bottom_levels_with_comm, top_levels_with_comm};
use anneal_graph::{TaskGraph, TaskId, Work};
use anneal_sim::{EpochContext, OnlineScheduler};
use anneal_topology::ProcId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Static priority policies (higher value dispatches first; ties break
/// toward lower task ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityPolicy {
    /// The paper's baseline: priority = task level `n_i` (bottom level).
    HighestLevelFirst,
    /// Bottom level including communication weights along the path.
    HighestLevelFirstComm,
    /// Largest processing time first.
    LongestTaskFirst,
    /// Smallest processing time first.
    ShortestTaskFirst,
    /// List order = task id order (Graham's classic "list" semantics).
    Fifo,
    /// A random (but seed-reproducible) permutation.
    Random(u64),
}

impl PriorityPolicy {
    /// Computes the static priority vector for a graph.
    pub fn priorities(self, g: &TaskGraph) -> Vec<Work> {
        match self {
            PriorityPolicy::HighestLevelFirst => bottom_levels(g),
            PriorityPolicy::HighestLevelFirstComm => bottom_levels_with_comm(g),
            PriorityPolicy::LongestTaskFirst => g.loads().to_vec(),
            PriorityPolicy::ShortestTaskFirst => g.loads().iter().map(|&l| Work::MAX - l).collect(),
            PriorityPolicy::Fifo => {
                let n = g.num_tasks() as Work;
                (0..g.num_tasks()).map(|i| n - i as Work).collect()
            }
            PriorityPolicy::Random(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ranks: Vec<Work> = (1..=g.num_tasks() as Work).collect();
                ranks.shuffle(&mut rng);
                ranks
            }
        }
    }

    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PriorityPolicy::HighestLevelFirst => "hlf",
            PriorityPolicy::HighestLevelFirstComm => "hlf-comm",
            PriorityPolicy::LongestTaskFirst => "lpt",
            PriorityPolicy::ShortestTaskFirst => "spt",
            PriorityPolicy::Fifo => "fifo",
            PriorityPolicy::Random(_) => "random",
        }
    }
}

/// How the ranked tasks pick their idle processors; each rule other
/// than `InOrder` fixes its own priority.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Zip with the idle processors in index order.
    InOrder(PriorityPolicy),
    /// HLF ranking; least eq. 4 input communication.
    LeastComm,
    /// Upward ranking; earliest estimated finish.
    EarliestFinish,
    /// Top-plus-bottom-level ranking; the critical path on one host,
    /// the rest by earliest finish.
    CriticalPath,
}

/// A list scheduler: a static priority plus a placement rule.
#[derive(Debug, Clone)]
pub struct ListScheduler {
    rule: Rule,
    /// Per-task priorities, computed at the first epoch.
    priorities: Option<Vec<Work>>,
    /// CPOP only: the critical-path length and the processor hosting
    /// the tasks that attain it, computed with the priorities.
    spine: Option<(Work, ProcId)>,
    /// The epoch's ready tasks, best first; reused across epochs.
    ranked: Vec<TaskId>,
    /// The epoch's processors still free (placement rules other than
    /// in-order); reused across epochs.
    free: Vec<ProcId>,
}

impl ListScheduler {
    fn with_rule(rule: Rule) -> Self {
        ListScheduler {
            rule,
            priorities: None,
            spine: None,
            ranked: Vec::new(),
            free: Vec::new(),
        }
    }

    /// In-order placement under `policy`.
    pub fn new(policy: PriorityPolicy) -> Self {
        Self::with_rule(Rule::InOrder(policy))
    }

    /// HLF ranking with least-eq. 4-input-communication placement
    /// (`hlf-mct`).
    pub fn mct() -> Self {
        Self::with_rule(Rule::LeastComm)
    }

    /// Upward ranking with earliest-finish-time placement (`heft`).
    pub fn heft() -> Self {
        Self::with_rule(Rule::EarliestFinish)
    }

    /// Critical path on one central processor, the other tasks by
    /// earliest finish time (`cpop`).
    pub fn cpop() -> Self {
        Self::with_rule(Rule::CriticalPath)
    }
}

/// The eq. 4 input-communication estimate of placing ready task `t` on
/// `q`, summed over its predecessors.
#[expect(clippy::expect_used, reason = "ready tasks have placed predecessors")]
fn input_comm(ctx: &EpochContext<'_>, t: TaskId, q: ProcId) -> Work {
    ctx.graph
        .predecessors(t)
        .iter()
        .map(|e| {
            let src = ctx.placement[e.target.index()].expect("predecessor of ready task is placed");
            let d = ctx.routes.distance(src, q);
            ctx.params.eq4_cost(e.weight, d, src == q)
        })
        .sum()
}

/// Estimated finish time of ready task `t` on `q`: data-ready time
/// under eq. 4 (clamped to "now"), plus the task's load.
#[expect(
    clippy::expect_used,
    reason = "t is ready, so every predecessor is placed and finished"
)]
fn estimated_finish(ctx: &EpochContext<'_>, t: TaskId, q: ProcId) -> Work {
    let ready = ctx
        .graph
        .predecessors(t)
        .iter()
        .map(|e| {
            let p = e.target;
            let src = ctx.placement[p.index()].expect("predecessor of ready task is placed");
            let fin = ctx.finish[p.index()].expect("predecessor of ready task finished");
            let d = ctx.routes.distance(src, q);
            fin + ctx.params.eq4_cost(e.weight, d, src == q)
        })
        .max()
        .unwrap_or(0)
        .max(ctx.time);
    ready + ctx.graph.load(t)
}

/// CPOP's priorities (top plus bottom level, both with communication),
/// the critical-path length and its host processor.
#[expect(clippy::expect_used, reason = "topologies have at least one processor")]
fn cpop_ranks(ctx: &EpochContext<'_>) -> (Vec<Work>, (Work, ProcId)) {
    let tl = top_levels_with_comm(ctx.graph);
    let bl = bottom_levels_with_comm(ctx.graph);
    let priority: Vec<Work> = tl.iter().zip(&bl).map(|(&a, &b)| a + b).collect();
    // Every task whose tl + bl sum attains the critical-path length lies
    // on some critical path; integer arithmetic makes equality exact.
    let cp = priority.iter().copied().max().unwrap_or(0);
    let host = ctx
        .topology
        .procs()
        .min_by_key(|&p| {
            let total: u64 = ctx
                .topology
                .procs()
                .map(|q| ctx.routes.distance(p, q) as u64)
                .sum();
            (total, p)
        })
        .expect("topology has at least one processor");
    (priority, (cp, host))
}

impl OnlineScheduler for ListScheduler {
    #[expect(
        clippy::expect_used,
        reason = "the loop breaks before `free` can be empty"
    )]
    fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
        let pr = self.priorities.get_or_insert_with(|| match self.rule {
            Rule::InOrder(policy) => policy.priorities(ctx.graph),
            Rule::LeastComm => bottom_levels(ctx.graph),
            Rule::EarliestFinish => bottom_levels_with_comm(ctx.graph),
            Rule::CriticalPath => {
                let (priority, spine) = cpop_ranks(ctx);
                self.spine = Some(spine);
                priority
            }
        });
        let ranked = &mut self.ranked;
        ranked.clear();
        ranked.extend_from_slice(ctx.ready);
        ranked.sort_by_key(|&t| (std::cmp::Reverse(pr[t.index()]), t));
        if let Rule::InOrder(_) = self.rule {
            out.extend(ranked.iter().copied().zip(ctx.idle.iter().copied()));
            return;
        }
        let free = &mut self.free;
        free.clear();
        free.extend_from_slice(ctx.idle);
        for &t in ranked.iter() {
            if free.is_empty() {
                break;
            }
            if let Some((_, host)) = self.spine.filter(|&(cp, _)| pr[t.index()] == cp) {
                // Critical-path tasks only ever run on the host.
                if let Some(i) = free.iter().position(|&q| q == host) {
                    out.push((t, free.swap_remove(i)));
                }
                continue;
            }
            let key = |q: ProcId| match self.rule {
                Rule::LeastComm => input_comm(ctx, t, q),
                _ => estimated_finish(ctx, t, q),
            };
            let (bi, _) = free
                .iter()
                .enumerate()
                .map(|(i, &q)| (i, key(q)))
                .min_by_key(|&(i, k)| (k, free[i]))
                .expect("free is non-empty");
            out.push((t, free.swap_remove(bi)));
        }
    }

    fn name(&self) -> &str {
        match self.rule {
            Rule::InOrder(policy) => policy.name(),
            Rule::LeastComm => "hlf-mct",
            Rule::EarliestFinish => "heft",
            Rule::CriticalPath => "cpop",
        }
    }
}

/// The paper's comparison baseline (§1, §6): "the well known Highest
/// Level First (HLF) list algorithm", ranking the ready tasks by level
/// `n_i` and placing them on the idle processors in index order. It is
/// `ListScheduler::new(PriorityPolicy::HighestLevelFirst)` under the
/// paper's name.
#[derive(Debug, Clone)]
pub struct HlfScheduler(ListScheduler);

impl HlfScheduler {
    /// The deterministic HLF baseline.
    pub fn new() -> Self {
        HlfScheduler(ListScheduler::new(PriorityPolicy::HighestLevelFirst))
    }
}

impl Default for HlfScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineScheduler for HlfScheduler {
    fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
        self.0.on_epoch(ctx, out);
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::units::us;
    use anneal_graph::TaskGraphBuilder;
    use anneal_sim::{simulate, SimConfig, SimResult};
    use anneal_topology::builders::{bus, linear, paper_architectures, ring, star};
    use anneal_topology::{CommParams, Topology};

    fn run(g: &TaskGraph, topo: &Topology, s: &mut dyn OnlineScheduler) -> SimResult {
        let r = simulate(g, topo, &CommParams::paper(), s, &SimConfig::default()).unwrap();
        r.audit(g).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        r
    }

    /// Two chains of different lengths sharing a root.
    fn two_chains() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let root = b.add_task(us(1.0));
        let long1 = b.add_task(us(10.0));
        let long2 = b.add_task(us(10.0));
        let long3 = b.add_task(us(10.0));
        let short1 = b.add_task(us(10.0));
        b.add_edge(root, long1, 0).unwrap();
        b.add_edge(long1, long2, 0).unwrap();
        b.add_edge(long2, long3, 0).unwrap();
        b.add_edge(root, short1, 0).unwrap();
        b.build().unwrap()
    }

    /// A root with four children of very different levels.
    fn wide_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let root = b.add_task(us(1.0));
        let chain_head = b.add_task(us(5.0)); // continues into a chain: high level
        let mid = b.add_task(us(5.0));
        let leafy1 = b.add_task(us(2.0)); // low level
        let leafy2 = b.add_task(us(3.0));
        let tail = b.add_task(us(50.0));
        b.add_edge(root, chain_head, 0).unwrap();
        b.add_edge(root, leafy1, 0).unwrap();
        b.add_edge(root, leafy2, 0).unwrap();
        b.add_edge(chain_head, mid, 0).unwrap();
        b.add_edge(mid, tail, 0).unwrap();
        b.build().unwrap()
    }

    /// A fork into six parallel tasks and a join, all communicating.
    fn fork_join() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(us(5.0));
        let xs: Vec<_> = (0..6).map(|_| b.add_task(us(25.0))).collect();
        let z = b.add_task(us(5.0));
        for &x in &xs {
            b.add_edge(a, x, us(4.0)).unwrap();
            b.add_edge(x, z, us(4.0)).unwrap();
        }
        b.build().unwrap()
    }

    /// A chain with a heavy comm spine plus a cheap side task hanging
    /// off each spine node.
    fn spine() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let mut prev = b.add_task(us(10.0));
        for _ in 0..4 {
            let next = b.add_task(us(10.0));
            b.add_edge(prev, next, us(20.0)).unwrap();
            let side = b.add_task(us(3.0));
            b.add_edge(prev, side, us(1.0)).unwrap();
            prev = next;
        }
        b.build().unwrap()
    }

    fn layered(seed: u64) -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        anneal_graph::generate::layered_random(
            &anneal_graph::generate::LayeredConfig::default(),
            &mut rng,
        )
    }

    /// One fresh scheduler per constructor.
    fn every_scheduler() -> Vec<Box<dyn OnlineScheduler>> {
        let mut all: Vec<Box<dyn OnlineScheduler>> = vec![Box::new(HlfScheduler::new())];
        for policy in [
            PriorityPolicy::HighestLevelFirst,
            PriorityPolicy::HighestLevelFirstComm,
            PriorityPolicy::LongestTaskFirst,
            PriorityPolicy::ShortestTaskFirst,
            PriorityPolicy::Fifo,
            PriorityPolicy::Random(5),
        ] {
            all.push(Box::new(ListScheduler::new(policy)));
        }
        all.push(Box::new(ListScheduler::mct()));
        all.push(Box::new(ListScheduler::heft()));
        all.push(Box::new(ListScheduler::cpop()));
        all
    }

    #[test]
    fn every_constructor_is_named_valid_and_deterministic() {
        let names: Vec<String> = every_scheduler()
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        assert_eq!(
            names,
            ["hlf", "hlf", "hlf-comm", "lpt", "spt", "fifo", "random", "hlf-mct", "heft", "cpop"]
        );
        let mut topologies = paper_architectures();
        topologies.extend([bus(2), ring(4)]);
        for g in [two_chains(), wide_graph(), fork_join(), spine(), layered(8)] {
            for topo in &topologies {
                let schedules = || -> Vec<_> {
                    every_scheduler()
                        .iter_mut()
                        .map(|s| {
                            let r = run(&g, topo, s.as_mut());
                            (r.placement, r.start, r.makespan)
                        })
                        .collect()
                };
                assert_eq!(schedules(), schedules());
            }
        }
    }

    #[test]
    fn hlf_is_optimal_on_two_chains() {
        // With 2 procs and no comm, HLF runs the long chain immediately:
        // makespan = 1 + 30 = 31us (short chain fits in parallel).
        let g = two_chains();
        let cfg = SimConfig {
            comm_enabled: false,
            ..SimConfig::default()
        };
        let mut s = HlfScheduler::new();
        let r = simulate(&g, &bus(2), &CommParams::zero(), &mut s, &cfg).unwrap();
        assert_eq!(r.makespan, us(31.0));
        r.audit(&g).unwrap();
    }

    #[test]
    fn hlf_prefers_long_chain() {
        let g = wide_graph();
        let pr = PriorityPolicy::HighestLevelFirst.priorities(&g);
        // chain head level = 5+5+50 = 60us; leafy1 = 2us.
        assert_eq!(pr[1], us(60.0));
        assert_eq!(pr[3], us(2.0));
        assert!(pr[1] > pr[3]);
    }

    #[test]
    fn fifo_respects_id_order() {
        let mut b = TaskGraphBuilder::new();
        for _ in 0..4 {
            b.add_task(us(1.0));
        }
        let g = b.build().unwrap();
        let pr = PriorityPolicy::Fifo.priorities(&g);
        assert!(pr[0] > pr[1] && pr[1] > pr[2] && pr[2] > pr[3]);
    }

    #[test]
    fn random_is_reproducible_permutation() {
        let g = wide_graph();
        let a = PriorityPolicy::Random(9).priorities(&g);
        let b = PriorityPolicy::Random(9).priorities(&g);
        let c = PriorityPolicy::Random(10).priorities(&g);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=6).collect::<Vec<_>>());
    }

    #[test]
    fn spt_inverts_lpt() {
        let g = wide_graph();
        let lpt = PriorityPolicy::LongestTaskFirst.priorities(&g);
        let spt = PriorityPolicy::ShortestTaskFirst.priorities(&g);
        // order reversed: the largest LPT priority has the smallest SPT
        let lpt_max = lpt.iter().position(|&v| v == *lpt.iter().max().unwrap());
        let spt_min = spt.iter().position(|&v| v == *spt.iter().min().unwrap());
        assert_eq!(lpt_max, spt_min);
    }

    #[test]
    fn mct_and_heft_place_consumer_next_to_producer() {
        let mut bld = TaskGraphBuilder::new();
        let a = bld.add_task(us(10.0));
        let b = bld.add_task(us(10.0));
        bld.add_edge(a, b, us(4.0)).unwrap();
        let g = bld.build().unwrap();
        for mut s in [ListScheduler::mct(), ListScheduler::heft()] {
            let r = run(&g, &linear(3), &mut s);
            assert_eq!(r.placement[a.index()], r.placement[b.index()]);
            assert_eq!(r.comm.messages, 0);
            assert_eq!(r.makespan, us(20.0));
        }
    }

    #[test]
    fn mct_beats_hlf_on_comm_heavy_lanes() {
        // Three equal-duration lanes whose task *ids* rotate every
        // level: HLF's (level, id) ranking assigns the rotated order to
        // processors in index order, so its placement bounces between
        // processors and pays crossing messages each level; MCT follows
        // the data and keeps every lane local.
        let mut bld = TaskGraphBuilder::new();
        let mut prev: Vec<_> = (0..3).map(|_| bld.add_task(us(10.0))).collect();
        for level in 1..5 {
            let mut next = prev.clone();
            for k in 0..3 {
                // lane (k + level) % 3 receives the k-th id of this level
                next[(k + level) % 3] = bld.add_task(us(10.0));
            }
            for (p, n) in prev.iter().zip(&next) {
                bld.add_edge(*p, *n, us(8.0)).unwrap();
            }
            prev = next;
        }
        let g = bld.build().unwrap();
        let rm = run(&g, &linear(3), &mut ListScheduler::mct());
        let rh = run(&g, &linear(3), &mut HlfScheduler::new());
        assert!(
            rm.makespan < rh.makespan,
            "mct {} vs hlf {}",
            rm.makespan,
            rh.makespan
        );
        // lanes stay fully local
        assert_eq!(rm.comm.messages, 0);
    }

    #[test]
    fn heft_accounts_for_predecessor_finish_times() {
        // Fork with two children; the child fed by the late-finishing
        // heavy predecessor can overlap its message with the light
        // sibling's compute — EFT placement keeps the makespan at the
        // no-contention bound.
        let mut b = TaskGraphBuilder::new();
        let heavy = b.add_task(us(40.0));
        let light = b.add_task(us(5.0));
        let sink = b.add_task(us(10.0));
        b.add_edge(heavy, sink, us(2.0)).unwrap();
        b.add_edge(light, sink, us(2.0)).unwrap();
        let g = b.build().unwrap();
        let r = run(&g, &ring(4), &mut ListScheduler::heft());
        // sink colocates with the heavy producer (its message would be
        // the late one), so only the light edge pays communication.
        assert_eq!(r.placement[heavy.index()], r.placement[sink.index()]);
    }

    #[test]
    fn cpop_keeps_the_critical_path_on_one_processor() {
        let r = run(&spine(), &ring(4), &mut ListScheduler::cpop());
        // The spine (ids 0,1,3,5,7) all share one processor: zero
        // communication along the critical path.
        let host = r.placement[0];
        for i in [0usize, 1, 3, 5, 7] {
            assert_eq!(r.placement[i], host, "spine task t{i} left the host");
        }
    }

    #[test]
    fn cpop_hosts_the_critical_path_on_the_star_hub() {
        // proc 0 is the hub (distance 1 to all)
        let r = run(&spine(), &star(5), &mut ListScheduler::cpop());
        assert_eq!(r.placement[0].index(), 0, "hub should host the path");
    }
}

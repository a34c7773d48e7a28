//! Property-based tests for the task-graph substrate.

use anneal_graph::critical_path::{critical_path, critical_path_length, max_speedup};
use anneal_graph::generate::{gnp_dag, layered_random, LayeredConfig, Range};
use anneal_graph::levels::{alap_starts, bottom_levels, co_levels, slacks, top_levels};
use anneal_graph::textio::{from_text, to_text};
use anneal_graph::topo::is_topological_order;
use anneal_graph::{Edge, GraphError, TaskGraph, TaskGraphBuilder, TaskId, Work};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Strategy: a random DAG described by (seed, n, p, style).
fn arb_dag() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 1usize..40, 0.0f64..1.0, 0u8..2).prop_map(|(seed, n, p, style)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match style {
            0 => gnp_dag(n, p, Range::new(1, 1_000), Range::new(0, 500), &mut rng),
            _ => {
                let cfg = LayeredConfig {
                    layers: 1 + n % 6,
                    width: 1 + n / 6,
                    edge_prob: p,
                    load: Range::new(1, 1_000),
                    comm: Range::new(0, 500),
                };
                layered_random(&cfg, &mut rng)
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_topo_order_is_valid(g in arb_dag()) {
        prop_assert!(is_topological_order(&g, g.topo_order()));
    }

    #[test]
    fn bottom_levels_dominate_successors(g in arb_dag()) {
        let bl = bottom_levels(&g);
        for (a, b, _) in g.edges() {
            // n_a = r_a + max(...) >= r_a + n_b > n_b (loads >= 1 here).
            prop_assert!(bl[a.index()] > bl[b.index()]);
            prop_assert!(bl[a.index()] >= g.load(a) + bl[b.index()]);
        }
        // Every level is at least the task's own load.
        for t in g.tasks() {
            prop_assert!(bl[t.index()] >= g.load(t));
        }
    }

    #[test]
    fn critical_path_consistency(g in arb_dag()) {
        let cp = critical_path_length(&g);
        let bl = bottom_levels(&g);
        prop_assert_eq!(cp, bl.iter().copied().max().unwrap());
        // The extracted path is a real chain whose loads sum to cp.
        let path = critical_path(&g);
        prop_assert!(!path.is_empty());
        let sum: u64 = path.iter().map(|&t| g.load(t)).sum();
        prop_assert_eq!(sum, cp);
        for w in path.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
        // cp also equals max over roots of bottom level.
        let root_max = g.roots().iter().map(|&r| bl[r.index()]).max().unwrap();
        prop_assert_eq!(cp, root_max);
    }

    #[test]
    fn top_plus_bottom_bounded_by_cp(g in arb_dag()) {
        let cp = critical_path_length(&g);
        let tl = top_levels(&g);
        let bl = bottom_levels(&g);
        for t in g.tasks() {
            prop_assert!(tl[t.index()] + bl[t.index()] <= cp);
        }
    }

    #[test]
    fn slack_zero_iff_on_critical_path(g in arb_dag()) {
        let cp = critical_path_length(&g);
        let tl = top_levels(&g);
        let bl = bottom_levels(&g);
        let sl = slacks(&g);
        let al = alap_starts(&g);
        for t in g.tasks() {
            prop_assert_eq!(sl[t.index()] == 0, tl[t.index()] + bl[t.index()] == cp);
            prop_assert_eq!(al[t.index()], cp - bl[t.index()]);
        }
    }

    #[test]
    fn max_speedup_bounds(g in arb_dag()) {
        let s = max_speedup(&g);
        prop_assert!(s >= 1.0 - 1e-12);
        prop_assert!(s <= g.num_tasks() as f64 + 1e-9);
    }

    #[test]
    fn co_levels_increase_along_edges(g in arb_dag()) {
        let cl = co_levels(&g);
        for (a, b, _) in g.edges() {
            prop_assert!(cl[a.index()] < cl[b.index()]);
        }
    }

    #[test]
    fn text_roundtrip(g in arb_dag()) {
        let h = from_text(&to_text(&g)).unwrap();
        prop_assert_eq!(h.num_tasks(), g.num_tasks());
        prop_assert_eq!(h.loads(), g.loads());
        let eg: Vec<_> = g.edges().collect();
        let eh: Vec<_> = h.edges().collect();
        prop_assert_eq!(eg, eh);
    }

    #[test]
    fn total_work_is_load_sum(g in arb_dag()) {
        let sum: u64 = g.loads().iter().sum();
        prop_assert_eq!(g.total_work(), sum);
    }

    #[test]
    fn degree_sums_match_edge_count(g in arb_dag()) {
        let out: usize = g.tasks().map(|t| g.out_degree(t)).sum();
        let inn: usize = g.tasks().map(|t| g.in_degree(t)).sum();
        prop_assert_eq!(out, g.num_edges());
        prop_assert_eq!(inn, g.num_edges());
    }
}

/// The builder's contract, restated over a `BTreeMap` edge set: what
/// `add_edge` and `add_or_merge_edge` accept, and the graph `build`
/// freezes (names, sorted adjacency, smallest-id-first Kahn order, the
/// culprit of a cycle).
#[derive(Default)]
struct BuilderModel {
    loads: Vec<Work>,
    names: Vec<String>,
    edges: BTreeMap<(u32, u32), Work>,
}

/// A frozen graph as plain data: names, loads, successor and
/// predecessor rows as `(other end, weight)`, topological order.
type Frozen = (
    Vec<String>,
    Vec<Work>,
    Vec<Vec<(u32, Work)>>,
    Vec<Vec<(u32, Work)>>,
    Vec<u32>,
);

impl BuilderModel {
    fn edge(&mut self, from: u32, to: u32, w: Work, merge: bool) -> Result<(), GraphError> {
        let n = self.loads.len() as u32;
        for end in [from, to] {
            if end >= n {
                return Err(GraphError::UnknownTask(task(end)));
            }
        }
        if from == to {
            return Err(GraphError::SelfLoop(task(from)));
        }
        match self.edges.get_mut(&(from, to)) {
            Some(weight) if merge => *weight += w,
            Some(_) => return Err(GraphError::DuplicateEdge(task(from), task(to))),
            None => {
                self.edges.insert((from, to), w);
            }
        }
        Ok(())
    }

    fn build(&self) -> Result<Frozen, GraphError> {
        let n = self.loads.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for (&(f, t), &w) in &self.edges {
            succ[f as usize].push((t, w));
            pred[t as usize].push((f, w));
        }
        for row in &mut pred {
            row.sort_unstable();
        }
        let mut indeg: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut ready: BTreeSet<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut topo = Vec::new();
        while let Some(i) = ready.pop_first() {
            topo.push(i);
            for &(t, _) in &succ[i as usize] {
                indeg[t as usize] -= 1;
                if indeg[t as usize] == 0 {
                    ready.insert(t);
                }
            }
        }
        if topo.len() != n {
            let culprit = indeg.iter().position(|&d| d > 0).unwrap();
            return Err(GraphError::Cycle(TaskId::from_index(culprit)));
        }
        Ok((self.names.clone(), self.loads.clone(), succ, pred, topo))
    }
}

fn task(i: u32) -> TaskId {
    TaskId::from_index(i as usize)
}

fn frozen(g: &TaskGraph) -> Frozen {
    let row = |edges: &[Edge]| -> Vec<(u32, Work)> {
        edges.iter().map(|e| (e.target.raw(), e.weight)).collect()
    };
    (
        g.tasks().map(|t| g.name(t).to_string()).collect(),
        g.loads().to_vec(),
        g.tasks().map(|t| row(g.successors(t))).collect(),
        g.tasks().map(|t| row(g.predecessors(t))).collect(),
        g.topo_order().iter().map(|t| t.raw()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random sequences of builder calls, with unknown endpoints,
    /// self-loops, cycles and duplicates arriving in and out of order,
    /// get the model's accept/reject decisions and build the model's
    /// graph.
    #[test]
    fn builder_matches_its_model(seed in any::<u64>(), ops in 0usize..160) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = TaskGraphBuilder::new();
        let mut model = BuilderModel::default();
        // a narrow id range makes duplicates and out-of-order edges
        // common; most sequences add forward edges only, so they build,
        // and some add each task's out-edges in target order, repeating
        // its latest target now and then
        let span = rng.gen_range(2u32..24);
        let backward = if rng.gen_bool(0.7) { 0.0 } else { 0.1 };
        let in_order = rng.gen_bool(0.3);
        for _ in 0..ops {
            let n = model.loads.len() as u32;
            match rng.gen_range(0..10) {
                0 | 1 => {
                    let load = rng.gen_range(0..1_000);
                    prop_assert_eq!(b.add_task(load), task(n));
                    model.loads.push(load);
                    model.names.push(format!("t{n}"));
                }
                2 => {
                    let load = rng.gen_range(0..1_000);
                    let stem = ["", "x", "fork", "τ-名"][rng.gen_range(0..4)];
                    let name = stem.repeat(rng.gen_range(0..3));
                    prop_assert_eq!(b.add_named_task(load, &name), task(n));
                    model.loads.push(load);
                    model.names.push(name);
                }
                op => {
                    let from = rng.gen_range(0..span.max(n + 1));
                    let to = rng.gen_range(0..span.max(n + 1));
                    let (from, mut to) = if rng.gen_bool(backward) {
                        (from, to)
                    } else {
                        (from.min(to), from.max(to))
                    };
                    if in_order {
                        let latest = model.edges.range((from, 0)..=(from, u32::MAX)).next_back();
                        to = to.max(latest.map_or(0, |(&(_, t), _)| t));
                    }
                    let w = rng.gen_range(0..100);
                    let merge = op >= 8;
                    let got = if merge {
                        b.add_or_merge_edge(task(from), task(to), w)
                    } else {
                        b.add_edge(task(from), task(to), w)
                    };
                    prop_assert_eq!(got, model.edge(from, to, w, merge));
                }
            }
            prop_assert_eq!(b.num_tasks(), model.loads.len());
            prop_assert_eq!(b.num_edges(), model.edges.len());
        }
        prop_assert_eq!(b.build().map(|g| frozen(&g)), model.build());
    }
}

/// A dense DAG whose 101,025 edges arrive in reverse order, each one
/// out of order for its source, builds in O(E log E): a quadratic
/// duplicate check would not finish. A duplicate is still rejected at
/// `add_edge`, and the adjacency comes out sorted.
#[test]
fn reverse_order_build_of_100k_edges() {
    let n = 450u32;
    let mut b = TaskGraphBuilder::with_capacity(n as usize, 101_025);
    for i in 0..n {
        b.add_task(1 + Work::from(i));
    }
    for from in (0..n).rev() {
        for to in (from + 1..n).rev() {
            b.add_edge(task(from), task(to), Work::from(from + to))
                .unwrap();
        }
    }
    assert_eq!(b.num_edges(), 101_025);
    assert_eq!(
        b.add_edge(task(7), task(300), 1),
        Err(GraphError::DuplicateEdge(task(7), task(300)))
    );
    b.add_or_merge_edge(task(0), task(1), 10).unwrap();
    let g = b.build().unwrap();
    assert_eq!(g.num_edges(), 101_025);
    let topo: Vec<u32> = g.topo_order().iter().map(|t| t.raw()).collect();
    assert_eq!(topo, (0..n).collect::<Vec<_>>());
    let targets: Vec<u32> = g
        .successors(task(0))
        .iter()
        .map(|e| e.target.raw())
        .collect();
    assert_eq!(targets, (1..n).collect::<Vec<_>>());
    assert_eq!(g.edge_weight(task(0), task(1)), Some(11));
    let sources: Vec<u32> = g
        .predecessors(task(n - 1))
        .iter()
        .map(|e| e.target.raw())
        .collect();
    assert_eq!(sources, (0..n - 1).collect::<Vec<_>>());
}

//! Acyclicity-preserving DAG perturbation operators.
//!
//! Adversarial instance search (PISA-style, see `anneal-arena`) anneals
//! over *problem space*: it repeatedly mutates a task graph and keeps
//! variants on which a target scheduler performs poorly. The mutations
//! here are designed so that **every reachable state is a valid DAG**:
//!
//! * [`DagEdit`] thaws a frozen [`TaskGraph`] into an editable edge list
//!   while pinning one linear extension (the graph's cached topological
//!   order). Every operator only creates edges that point *forward* in
//!   that extension, so acyclicity holds by construction — no cycle
//!   check is ever needed, and [`DagEdit::build`] cannot fail.
//! * [`DagEdit::rewire_edge`] moves one endpoint of an existing edge.
//! * [`DagEdit::scale_load`] / [`DagEdit::scale_comm`] rescale a task
//!   duration or an edge communication weight.
//! * [`DagEdit::add_edge`] / [`DagEdit::remove_edge`] tweak fan-out.
//!
//! All operators take an explicit RNG and return `false` (leaving the
//! edit untouched) when no legal mutation exists — degenerate shapes
//! (single task, saturated fan-out, no edges) are no-ops, never panics.
//!
//! ```
//! use anneal_graph::builder::TaskGraphBuilder;
//! use anneal_graph::perturb::{perturb, DagEdit, PerturbConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut b = TaskGraphBuilder::new();
//! let a = b.add_task(1_000);
//! let c = b.add_task(2_000);
//! b.add_edge(a, c, 50).unwrap();
//! let g = b.build().unwrap();
//!
//! let mut edit = DagEdit::from_graph(&g);
//! let mut rng = StdRng::seed_from_u64(7);
//! let applied = perturb(&mut edit, &PerturbConfig::default(), &mut rng);
//! assert!(applied.is_some(), "a 2-task DAG always admits a mutation");
//! let mutated = edit.build(); // cannot fail: acyclic by construction
//! assert_eq!(mutated.num_tasks(), g.num_tasks());
//! ```

use std::collections::BTreeSet;

use rand::Rng;

use crate::builder::TaskGraphBuilder;
use crate::dag::TaskGraph;
use crate::generate::Range;
use crate::ids::TaskId;
use crate::units::Work;

/// Ceiling on perturbed loads/weights (ns); keeps repeated up-scaling
/// from overflowing `Work` arithmetic downstream (~18 minutes).
pub const MAX_PERTURBED_NS: Work = 1 << 40;

/// An editable DAG: task loads plus an edge list constrained to one
/// fixed linear extension.
#[derive(Debug, Clone)]
pub struct DagEdit {
    loads: Vec<Work>,
    names: Vec<String>,
    /// `pos[t]` is the task's position in the pinned linear extension.
    pos: Vec<u32>,
    /// Tasks sorted by `pos` (the extension itself).
    order: Vec<TaskId>,
    /// Every edge satisfies `pos[from] < pos[to]`.
    edges: Vec<(TaskId, TaskId, Work)>,
    edge_set: BTreeSet<(u32, u32)>,
}

impl DagEdit {
    /// Thaws a graph; the pinned linear extension is its cached
    /// topological order.
    pub fn from_graph(g: &TaskGraph) -> Self {
        let n = g.num_tasks();
        let mut pos = vec![0u32; n];
        for t in g.tasks() {
            pos[t.index()] = g.topo_position(t) as u32;
        }
        let edges: Vec<_> = g.edges().collect();
        let edge_set = edges.iter().map(|&(f, t, _)| (f.raw(), t.raw())).collect();
        DagEdit {
            loads: g.loads().to_vec(),
            names: g.tasks().map(|t| g.name(t).to_string()).collect(),
            pos,
            order: g.topo_order().to_vec(),
            edges,
            edge_set,
        }
    }

    /// Number of tasks (fixed for the lifetime of the edit).
    pub fn num_tasks(&self) -> usize {
        self.loads.len()
    }

    /// Current number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the edit back into a [`TaskGraph`]. Infallible: the
    /// pinned extension guarantees acyclicity and the task set is
    /// non-empty by construction.
    #[expect(
        clippy::expect_used,
        reason = "the pinned linear extension keeps edges forward, unique and acyclic"
    )]
    pub fn build(&self) -> TaskGraph {
        let mut b = TaskGraphBuilder::with_capacity(self.loads.len(), self.edges.len());
        for (load, name) in self.loads.iter().zip(&self.names) {
            b.add_named_task(*load, name);
        }
        for &(f, t, w) in &self.edges {
            b.add_edge(f, t, w)
                .expect("edit edges are unique and valid");
        }
        b.build().expect("forward edges cannot form a cycle")
    }

    /// Moves one endpoint of a random edge to another task, keeping the
    /// edge pointing forward in the pinned extension. Returns `false`
    /// when the graph has no edges or the sampled endpoint has no legal
    /// replacement (e.g. saturated fan-out).
    pub fn rewire_edge<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        if self.edges.is_empty() {
            return false;
        }
        let ei = rng.gen_range(0..self.edges.len());
        let (from, to, w) = self.edges[ei];
        let move_source = rng.gen_bool(0.5);
        // Candidates keep the edge forward and unique; collected in id
        // order so the pick is deterministic given the RNG stream.
        let cands: Vec<TaskId> = if move_source {
            (0..self.num_tasks())
                .map(TaskId::from_index)
                .filter(|&a| {
                    a != from
                        && self.pos[a.index()] < self.pos[to.index()]
                        && !self.edge_set.contains(&(a.raw(), to.raw()))
                })
                .collect()
        } else {
            (0..self.num_tasks())
                .map(TaskId::from_index)
                .filter(|&b| {
                    b != to
                        && self.pos[b.index()] > self.pos[from.index()]
                        && !self.edge_set.contains(&(from.raw(), b.raw()))
                })
                .collect()
        };
        if cands.is_empty() {
            return false;
        }
        let pick = cands[rng.gen_range(0..cands.len())];
        self.edge_set.remove(&(from.raw(), to.raw()));
        let new_edge = if move_source {
            (pick, to, w)
        } else {
            (from, pick, w)
        };
        self.edge_set.insert((new_edge.0.raw(), new_edge.1.raw()));
        self.edges[ei] = new_edge;
        true
    }

    /// Rescales one random task load by a factor drawn uniformly from
    /// `[lo, hi]`; the result is clamped to `[1, MAX_PERTURBED_NS]`.
    pub fn scale_load<R: Rng + ?Sized>(&mut self, lo: f64, hi: f64, rng: &mut R) -> bool {
        assert!(0.0 < lo && lo <= hi, "invalid load factor range");
        let i = rng.gen_range(0..self.loads.len());
        let f = rng.gen_range(lo..=hi);
        self.loads[i] = scale(self.loads[i].max(1), f);
        true
    }

    /// Rescales one random edge communication weight by a factor drawn
    /// uniformly from `[lo, hi]`. Zero-weight edges are treated as
    /// weight 1 before scaling, so they can gain weight. Returns `false`
    /// when the graph has no edges.
    pub fn scale_comm<R: Rng + ?Sized>(&mut self, lo: f64, hi: f64, rng: &mut R) -> bool {
        assert!(0.0 < lo && lo <= hi, "invalid comm factor range");
        if self.edges.is_empty() {
            return false;
        }
        let ei = rng.gen_range(0..self.edges.len());
        let f = rng.gen_range(lo..=hi);
        self.edges[ei].2 = scale(self.edges[ei].2.max(1), f);
        true
    }

    /// Adds a forward edge between two previously unconnected tasks,
    /// with a communication weight drawn from `comm`. Returns `false`
    /// only when no free forward pair exists (the DAG is transitively
    /// complete, or `num_tasks() < 2`).
    pub fn add_edge<R: Rng + ?Sized>(&mut self, comm: Range, rng: &mut R) -> bool {
        let n = self.num_tasks();
        if n < 2 {
            return false;
        }
        // Fast path: random position pairs. Densely saturated graphs
        // fall through to an exhaustive scan so `false` is a guarantee,
        // not a sampling accident.
        for _ in 0..8 {
            let a = rng.gen_range(0..n - 1);
            let b = rng.gen_range(a + 1..n);
            let (from, to) = (self.order[a], self.order[b]);
            if self.edge_set.insert((from.raw(), to.raw())) {
                self.edges.push((from, to, comm.sample(rng)));
                return true;
            }
        }
        let free: Vec<(TaskId, TaskId)> = (0..n - 1)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .map(|(a, b)| (self.order[a], self.order[b]))
            .filter(|&(f, t)| !self.edge_set.contains(&(f.raw(), t.raw())))
            .collect();
        if free.is_empty() {
            return false;
        }
        let (from, to) = free[rng.gen_range(0..free.len())];
        self.edge_set.insert((from.raw(), to.raw()));
        self.edges.push((from, to, comm.sample(rng)));
        true
    }

    /// Removes one random edge. Returns `false` when there is none.
    pub fn remove_edge<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        if self.edges.is_empty() {
            return false;
        }
        let ei = rng.gen_range(0..self.edges.len());
        let (f, t, _) = self.edges.swap_remove(ei);
        self.edge_set.remove(&(f.raw(), t.raw()));
        true
    }
}

fn scale(v: Work, f: f64) -> Work {
    ((v as f64 * f).round() as Work).clamp(1, MAX_PERTURBED_NS)
}

/// The operator kinds applied by [`perturb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerturbOp {
    /// Move one endpoint of an edge.
    RewireEdge,
    /// Rescale a task duration.
    ScaleLoad,
    /// Rescale an edge communication weight.
    ScaleComm,
    /// Add a forward edge (fan-out grow).
    AddEdge,
    /// Remove an edge (fan-out shrink).
    RemoveEdge,
}

const ALL_OPS: [PerturbOp; 5] = [
    PerturbOp::RewireEdge,
    PerturbOp::ScaleLoad,
    PerturbOp::ScaleComm,
    PerturbOp::AddEdge,
    PerturbOp::RemoveEdge,
];

/// Mixture weights and factor ranges for [`perturb`].
#[derive(Debug, Clone)]
pub struct PerturbConfig {
    /// Relative weight of each operator, indexed like
    /// `[rewire, scale_load, scale_comm, add_edge, remove_edge]`.
    pub weights: [u32; 5],
    /// Load scaling factor range.
    pub load_factor: (f64, f64),
    /// Communication-weight scaling factor range.
    pub comm_factor: (f64, f64),
    /// Weight range for newly added edges (ns).
    pub new_edge_comm: Range,
}

impl Default for PerturbConfig {
    fn default() -> Self {
        PerturbConfig {
            weights: [3, 2, 3, 1, 1],
            load_factor: (0.5, 2.0),
            comm_factor: (0.5, 2.0),
            new_edge_comm: Range::new(500, 10_000),
        }
    }
}

/// Applies one random operator drawn from the configured mixture. When
/// the sampled operator has no legal move, the remaining operators are
/// tried in a fixed rotation; returns the operator that succeeded, or
/// `None` when the DAG admits no mutation at all (a single task with
/// load already pinned cannot happen — `scale_load` always succeeds, so
/// `None` only occurs with zero-weight mixtures).
pub fn perturb<R: Rng + ?Sized>(
    edit: &mut DagEdit,
    cfg: &PerturbConfig,
    rng: &mut R,
) -> Option<PerturbOp> {
    let total: u32 = cfg.weights.iter().sum();
    if total == 0 {
        return None;
    }
    let mut roll = rng.gen_range(0..total);
    let mut start = 0;
    for (i, &w) in cfg.weights.iter().enumerate() {
        if roll < w {
            start = i;
            break;
        }
        roll -= w;
    }
    for k in 0..ALL_OPS.len() {
        let i = (start + k) % ALL_OPS.len();
        if cfg.weights[i] == 0 {
            continue;
        }
        let op = ALL_OPS[i];
        let applied = match op {
            PerturbOp::RewireEdge => edit.rewire_edge(rng),
            PerturbOp::ScaleLoad => edit.scale_load(cfg.load_factor.0, cfg.load_factor.1, rng),
            PerturbOp::ScaleComm => edit.scale_comm(cfg.comm_factor.0, cfg.comm_factor.1, rng),
            PerturbOp::AddEdge => edit.add_edge(cfg.new_edge_comm, rng),
            PerturbOp::RemoveEdge => edit.remove_edge(rng),
        };
        if applied {
            return Some(op);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{gnp_dag, layered_random, LayeredConfig};
    use crate::topo::is_topological_order;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(11);
        layered_random(
            &LayeredConfig {
                layers: 4,
                width: 5,
                edge_prob: 0.4,
                load: Range::new(10, 500),
                comm: Range::new(1, 50),
            },
            &mut rng,
        )
    }

    #[test]
    fn round_trip_preserves_graph() {
        let g = sample();
        let edit = DagEdit::from_graph(&g);
        let back = edit.build();
        assert_eq!(back.num_tasks(), g.num_tasks());
        assert_eq!(back.loads(), g.loads());
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = back.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(
            back.name(TaskId::from_index(0)),
            g.name(TaskId::from_index(0))
        );
    }

    #[test]
    fn operators_preserve_acyclicity() {
        let g = sample();
        let mut edit = DagEdit::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = PerturbConfig::default();
        for _ in 0..200 {
            perturb(&mut edit, &cfg, &mut rng);
            let rebuilt = edit.build();
            assert!(is_topological_order(&rebuilt, rebuilt.topo_order()));
            assert_eq!(rebuilt.num_tasks(), g.num_tasks());
        }
    }

    #[test]
    fn rewire_keeps_edge_count() {
        let g = sample();
        let mut edit = DagEdit::from_graph(&g);
        let before = edit.num_edges();
        let mut rng = StdRng::seed_from_u64(3);
        let mut applied = 0;
        for _ in 0..50 {
            if edit.rewire_edge(&mut rng) {
                applied += 1;
            }
            assert_eq!(edit.num_edges(), before);
        }
        assert!(applied > 0, "rewire never fired on a 20-task graph");
    }

    #[test]
    fn add_and_remove_edges_adjust_count() {
        let g = sample();
        let mut edit = DagEdit::from_graph(&g);
        let before = edit.num_edges();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(edit.add_edge(Range::constant(7), &mut rng));
        assert_eq!(edit.num_edges(), before + 1);
        assert!(edit.remove_edge(&mut rng));
        assert_eq!(edit.num_edges(), before);
    }

    #[test]
    fn saturated_fanout_add_edge_fails_cleanly() {
        // A complete DAG admits no new edge.
        let mut rng = StdRng::seed_from_u64(6);
        let g = gnp_dag(6, 1.0, Range::constant(5), Range::constant(1), &mut rng);
        let mut edit = DagEdit::from_graph(&g);
        assert!(!edit.add_edge(Range::constant(1), &mut rng));
        // Rewire is also fully blocked: every forward pair is taken.
        assert!(!edit.rewire_edge(&mut rng));
    }

    #[test]
    fn scaling_clamps_to_bounds() {
        let g = sample();
        let mut edit = DagEdit::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..300 {
            edit.scale_load(8.0, 16.0, &mut rng);
        }
        let rebuilt = edit.build();
        assert!(rebuilt
            .loads()
            .iter()
            .all(|&l| (1..=MAX_PERTURBED_NS).contains(&l)));
    }

    #[test]
    fn perturb_is_deterministic_per_seed() {
        let g = sample();
        let cfg = PerturbConfig::default();
        let run = |seed: u64| {
            let mut edit = DagEdit::from_graph(&g);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..60 {
                perturb(&mut edit, &cfg, &mut rng);
            }
            let r = edit.build();
            let edges: Vec<_> = r.edges().collect();
            (r.loads().to_vec(), edges)
        };
        assert_eq!(run(12), run(12));
        assert_ne!(run(12), run(13));
    }

    #[test]
    fn zero_weight_mixture_is_none() {
        let g = sample();
        let mut edit = DagEdit::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = PerturbConfig {
            weights: [0; 5],
            ..PerturbConfig::default()
        };
        assert_eq!(perturb(&mut edit, &cfg, &mut rng), None);
    }
}

//! Seeded random task-graph generators.
//!
//! These produce the synthetic populations used for statistical
//! comparisons (Adam, Chandy & Dickinson-style surveys of list schedules,
//! referenced in the paper's §6) and for property tests. Every generator
//! takes an explicit RNG so experiments are reproducible from a `u64`
//! seed.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;

use crate::builder::TaskGraphBuilder;
use crate::dag::TaskGraph;
use crate::units::Work;

/// Inclusive load/weight range used by the generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Inclusive lower bound (ns).
    pub min: Work,
    /// Inclusive upper bound (ns).
    pub max: Work,
}

impl Range {
    /// A constant range `[v, v]`.
    pub const fn constant(v: Work) -> Self {
        Range { min: v, max: v }
    }

    /// A range `[min, max]`; panics if inverted.
    pub fn new(min: Work, max: Work) -> Self {
        assert!(min <= max, "inverted range");
        Range { min, max }
    }

    /// Draws a uniform value from the range.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Work {
        if self.min == self.max {
            self.min
        } else {
            Uniform::new_inclusive(self.min, self.max).sample(rng)
        }
    }
}

/// Parameters for [`layered_random`].
#[derive(Debug, Clone)]
pub struct LayeredConfig {
    /// Number of layers (depth of the DAG), ≥ 1.
    pub layers: usize,
    /// Tasks per layer (width), ≥ 1.
    pub width: usize,
    /// Probability of an edge between consecutive-layer task pairs.
    pub edge_prob: f64,
    /// Task load range.
    pub load: Range,
    /// Edge communication weight range.
    pub comm: Range,
}

impl Default for LayeredConfig {
    fn default() -> Self {
        LayeredConfig {
            layers: 5,
            width: 8,
            edge_prob: 0.35,
            load: Range::new(1_000, 100_000),
            comm: Range::new(500, 10_000),
        }
    }
}

/// A layered ("level-structured") random DAG: `layers × width` tasks;
/// edges only between consecutive layers, each drawn with probability
/// `edge_prob`. Every non-first-layer task is guaranteed at least one
/// predecessor (drawn uniformly) so the layer structure is respected.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "layer edges go strictly forward; the builder cannot fail"
)]
pub fn layered_random<R: Rng + ?Sized>(cfg: &LayeredConfig, rng: &mut R) -> TaskGraph {
    assert!(cfg.layers >= 1 && cfg.width >= 1);
    let mut b = TaskGraphBuilder::with_capacity(
        cfg.layers * cfg.width,
        cfg.layers * cfg.width * cfg.width / 2,
    );
    let mut layer_ids = Vec::with_capacity(cfg.layers);
    for _ in 0..cfg.layers {
        let ids: Vec<_> = (0..cfg.width)
            .map(|_| b.add_task(cfg.load.sample(rng)))
            .collect();
        layer_ids.push(ids);
    }
    for li in 1..cfg.layers {
        for &to in &layer_ids[li] {
            let mut has_pred = false;
            for &from in &layer_ids[li - 1] {
                if rng.gen_bool(cfg.edge_prob) {
                    b.add_edge(from, to, cfg.comm.sample(rng)).unwrap();
                    has_pred = true;
                }
            }
            if !has_pred {
                let pick = layer_ids[li - 1][rng.gen_range(0..cfg.width)];
                b.add_edge(pick, to, cfg.comm.sample(rng)).unwrap();
            }
        }
    }
    b.build().expect("layered graph is acyclic by construction")
}

/// An Erdős–Rényi-style random DAG on `n` tasks: each pair `(i, j)` with
/// `i < j` receives an edge with probability `p` (orientation low → high
/// id guarantees acyclicity).
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "edges are oriented low id -> high id, so the DAG check cannot fail"
)]
pub fn gnp_dag<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    load: Range,
    comm: Range,
    rng: &mut R,
) -> TaskGraph {
    assert!(n >= 1);
    let mut b = TaskGraphBuilder::with_capacity(n, (n * n / 4).max(4));
    let ids: Vec<_> = (0..n).map(|_| b.add_task(load.sample(rng))).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(ids[i], ids[j], comm.sample(rng)).unwrap();
            }
        }
    }
    b.build().expect("gnp dag is acyclic by construction")
}

/// A fork-join graph: one fork task, `width` parallel body tasks, one
/// join task.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "fork -> body -> join edges are forward and unique"
)]
pub fn fork_join<R: Rng + ?Sized>(
    width: usize,
    load: Range,
    comm: Range,
    rng: &mut R,
) -> TaskGraph {
    assert!(width >= 1);
    let mut b = TaskGraphBuilder::with_capacity(width + 2, 2 * width);
    let fork = b.add_named_task(load.sample(rng), "fork");
    let join_load = load.sample(rng);
    let body: Vec<_> = (0..width).map(|_| b.add_task(load.sample(rng))).collect();
    let join = b.add_named_task(join_load, "join");
    for &t in &body {
        b.add_edge(fork, t, comm.sample(rng)).unwrap();
        b.add_edge(t, join, comm.sample(rng)).unwrap();
    }
    b.build().expect("fork-join is acyclic")
}

/// A linear chain of `n` tasks.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "consecutive-id chain edges are forward and unique"
)]
pub fn chain<R: Rng + ?Sized>(n: usize, load: Range, comm: Range, rng: &mut R) -> TaskGraph {
    assert!(n >= 1);
    let mut b = TaskGraphBuilder::with_capacity(n, n);
    let ids: Vec<_> = (0..n).map(|_| b.add_task(load.sample(rng))).collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1], comm.sample(rng)).unwrap();
    }
    b.build().expect("chain is acyclic")
}

/// `n` fully independent tasks (no edges): the pure load-balancing case
/// (the "balancing problem" of Hwang & Xu that the paper generalizes).
#[expect(clippy::expect_used, reason = "an edgeless graph always builds")]
pub fn independent<R: Rng + ?Sized>(n: usize, load: Range, rng: &mut R) -> TaskGraph {
    assert!(n >= 1);
    let mut b = TaskGraphBuilder::with_capacity(n, 0);
    for _ in 0..n {
        b.add_task(load.sample(rng));
    }
    b.build().expect("independent set is acyclic")
}

/// A random series-parallel graph built by `ops` random series/parallel
/// compositions starting from single edges. Series-parallel DAGs are a
/// common model of structured parallel programs.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "SP composition only adds edges from earlier to later tasks"
)]
pub fn series_parallel<R: Rng + ?Sized>(
    ops: usize,
    load: Range,
    comm: Range,
    rng: &mut R,
) -> TaskGraph {
    // Represent the SP graph as a recursive expansion over a chain of
    // "segments": start with one segment; each op either splits a random
    // segment in two (series) or duplicates it (parallel).
    #[derive(Clone)]
    enum Sp {
        Task,
        Series(Box<Sp>, Box<Sp>),
        Parallel(Box<Sp>, Box<Sp>),
    }
    fn grow<R: Rng + ?Sized>(sp: &mut Sp, rng: &mut R) {
        match sp {
            Sp::Task => {
                *sp = if rng.gen_bool(0.5) {
                    Sp::Series(Box::new(Sp::Task), Box::new(Sp::Task))
                } else {
                    Sp::Parallel(Box::new(Sp::Task), Box::new(Sp::Task))
                };
            }
            Sp::Series(a, b) | Sp::Parallel(a, b) => {
                if rng.gen_bool(0.5) {
                    grow(a, rng)
                } else {
                    grow(b, rng)
                }
            }
        }
    }
    // Emit tasks: each SP node becomes (entry, exit) task pair boundaries.
    fn emit<R: Rng + ?Sized>(
        sp: &Sp,
        b: &mut TaskGraphBuilder,
        src: crate::ids::TaskId,
        dst: crate::ids::TaskId,
        load: Range,
        comm: Range,
        rng: &mut R,
    ) {
        match sp {
            Sp::Task => {
                let t = b.add_task(load.sample(rng));
                b.add_or_merge_edge(src, t, comm.sample(rng)).unwrap();
                b.add_or_merge_edge(t, dst, comm.sample(rng)).unwrap();
            }
            Sp::Series(x, y) => {
                let mid = b.add_task(load.sample(rng));
                emit(x, b, src, mid, load, comm, rng);
                emit(y, b, mid, dst, load, comm, rng);
            }
            Sp::Parallel(x, y) => {
                emit(x, b, src, dst, load, comm, rng);
                emit(y, b, src, dst, load, comm, rng);
            }
        }
    }
    let mut sp = Sp::Task;
    for _ in 0..ops {
        grow(&mut sp, rng);
    }
    let mut b = TaskGraphBuilder::new();
    let src = b.add_named_task(load.sample(rng), "source");
    let dst = b.add_named_task(load.sample(rng), "sink");
    emit(&sp, &mut b, src, dst, load, comm, rng);
    b.build().expect("series-parallel is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::critical_path_length;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn layered_shape() {
        let cfg = LayeredConfig {
            layers: 4,
            width: 6,
            ..LayeredConfig::default()
        };
        let g = layered_random(&cfg, &mut rng(1));
        assert_eq!(g.num_tasks(), 24);
        // every non-root has a predecessor
        let layers = crate::levels::layers(&g);
        assert_eq!(layers.len(), 4);
        for l in &layers {
            assert_eq!(l.len(), 6);
        }
    }

    #[test]
    fn layered_deterministic_per_seed() {
        let cfg = LayeredConfig::default();
        let g1 = layered_random(&cfg, &mut rng(7));
        let g2 = layered_random(&cfg, &mut rng(7));
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(g1.loads(), g2.loads());
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn gnp_extreme_probabilities() {
        let g0 = gnp_dag(10, 0.0, Range::constant(5), Range::constant(1), &mut rng(2));
        assert_eq!(g0.num_edges(), 0);
        let g1 = gnp_dag(10, 1.0, Range::constant(5), Range::constant(1), &mut rng(2));
        assert_eq!(g1.num_edges(), 45); // complete DAG on 10 nodes
        assert_eq!(critical_path_length(&g1), 50);
    }

    #[test]
    fn fork_join_shape() {
        let g = fork_join(8, Range::constant(10), Range::constant(2), &mut rng(3));
        assert_eq!(g.num_tasks(), 10);
        assert_eq!(g.num_edges(), 16);
        assert_eq!(g.roots().len(), 1);
        assert_eq!(g.leaves().len(), 1);
        assert_eq!(critical_path_length(&g), 30);
    }

    #[test]
    fn chain_and_independent() {
        let c = chain(5, Range::constant(4), Range::constant(1), &mut rng(4));
        assert_eq!(c.num_edges(), 4);
        assert_eq!(critical_path_length(&c), 20);
        let ind = independent(7, Range::constant(3), &mut rng(4));
        assert_eq!(ind.num_edges(), 0);
        assert_eq!(ind.num_tasks(), 7);
    }

    #[test]
    fn series_parallel_valid() {
        for seed in 0..5 {
            let g = series_parallel(10, Range::new(1, 9), Range::new(1, 3), &mut rng(seed));
            assert!(g.num_tasks() >= 3);
            assert!(crate::topo::is_topological_order(&g, g.topo_order()));
            // single source, single sink by construction
            assert_eq!(g.roots().len(), 1);
            assert_eq!(g.leaves().len(), 1);
        }
    }

    #[test]
    fn range_sampling_bounds() {
        let r = Range::new(5, 9);
        let mut rg = rng(9);
        for _ in 0..100 {
            let v = r.sample(&mut rg);
            assert!((5..=9).contains(&v));
        }
        assert_eq!(Range::constant(3).sample(&mut rg), 3);
    }

    #[test]
    #[should_panic(expected = "inverted range")]
    fn inverted_range_panics() {
        Range::new(9, 5);
    }
}

//! Affine calibration of task graphs toward target statistics.
//!
//! The structural generators fix task counts and dependence shape; these
//! helpers rescale durations and communication weights so aggregate
//! statistics (average duration, C/C ratio) land on the paper's Table-1
//! values. Scaling every load by one factor preserves the *relative*
//! shape (critical path, level ordering, max speedup), so calibration
//! never distorts the scheduling problem — it only changes units.

use anneal_graph::{TaskGraph, TaskGraphBuilder};

/// Rebuilds `g` with every load multiplied by `f` and every edge weight
/// multiplied by `h` (rounding to nearest ns, with a 1 ns floor for
/// nonzero inputs so nothing collapses to zero).
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "scaling copies the edges of an already-valid DAG"
)]
pub fn scale(g: &TaskGraph, f: f64, h: f64) -> TaskGraph {
    assert!(f >= 0.0 && h >= 0.0, "negative scale factor");
    let mut b = TaskGraphBuilder::with_capacity(g.num_tasks(), g.num_edges());
    for t in g.tasks() {
        b.add_named_task(scale_one(g.load(t), f), g.name(t));
    }
    for (from, to, w) in g.edges() {
        b.add_edge(from, to, scale_one(w, h)).unwrap();
    }
    b.build().expect("scaling preserves acyclicity")
}

fn scale_one(v: u64, f: f64) -> u64 {
    if v == 0 {
        return 0;
    }
    let scaled = (v as f64 * f).round() as u64;
    scaled.max(1)
}

/// Scales all communication weights so the C/C ratio
/// (`Σw / Σr`) becomes `target` (e.g. `0.43` for Newton-Euler).
/// Returns the rescaled graph and the factor used.
pub fn scale_comm_to_cc(g: &TaskGraph, target: f64) -> (TaskGraph, f64) {
    assert!(target >= 0.0);
    let total_comm = g.total_comm();
    assert!(total_comm > 0, "graph has no communication to scale");
    let h = target * g.total_work() as f64 / total_comm as f64;
    (scale(g, 1.0, h), h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::critical_path::max_speedup;
    use anneal_graph::metrics::GraphMetrics;

    fn sample() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(10_000);
        let c = b.add_task(30_000);
        let d = b.add_task(20_000);
        b.add_edge(a, c, 4_000).unwrap();
        b.add_edge(c, d, 2_000).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn scale_doubles() {
        let g = sample();
        let s = scale(&g, 2.0, 0.5);
        assert_eq!(s.total_work(), 120_000);
        assert_eq!(s.total_comm(), 3_000);
        // names preserved
        assert_eq!(s.name(anneal_graph::TaskId::from_index(0)), "t0");
    }

    #[test]
    fn scale_preserves_max_speedup() {
        let g = sample();
        let s = scale(&g, 3.0, 1.0);
        assert!((max_speedup(&g) - max_speedup(&s)).abs() < 1e-9);
    }

    #[test]
    fn comm_to_cc_hits_target(/* cc = total_comm / total_work */) {
        let g = sample();
        let (s, _) = scale_comm_to_cc(&g, 0.43);
        let m = GraphMetrics::compute(&s);
        assert!((m.cc_ratio - 0.43).abs() < 1e-4, "{}", m.cc_ratio);
    }

    #[test]
    fn nonzero_weights_never_collapse() {
        let g = sample();
        let s = scale(&g, 1.0, 1e-9);
        assert!(s.edges().all(|(_, _, w)| w >= 1));
    }

    #[test]
    fn zero_stays_zero() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(10);
        let c = b.add_task(10);
        b.add_edge(a, c, 0).unwrap();
        let g = b.build().unwrap();
        let s = scale(&g, 2.0, 2.0);
        assert_eq!(s.total_comm(), 0);
    }

    #[test]
    #[should_panic(expected = "negative scale factor")]
    fn negative_factor_panics() {
        scale(&sample(), -1.0, 1.0);
    }
}

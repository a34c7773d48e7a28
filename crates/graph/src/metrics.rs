//! Whole-graph summary statistics (the paper's Table 1 quantities and a
//! few structural extras).

use crate::critical_path::{critical_path_length, max_speedup};
use crate::dag::TaskGraph;
use crate::levels::layers;
use crate::units::Work;

/// Summary statistics of a task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Number of tasks `N_T`.
    pub tasks: usize,
    /// Number of precedence edges.
    pub edges: usize,
    /// Total work `T_1 = Σ r_i` (ns).
    pub total_work: Work,
    /// Total communication weight `Σ w_ij` (ns).
    pub total_comm: Work,
    /// Average task duration (ns).
    pub avg_duration: f64,
    /// Average edge communication weight (ns).
    pub avg_comm: f64,
    /// Total communication per task (ns) — Table 1's "Average Commun."
    /// column is consistent with this definition (`Σw / N_T`), not with a
    /// per-edge average.
    pub avg_comm_per_task: f64,
    /// Communication / computation ratio (Table 1's "C/C Ratio").
    pub cc_ratio: f64,
    /// Critical path length (ns).
    pub critical_path: Work,
    /// Maximum speedup `T_1 / cp` (Table 1's "Max. Speedup").
    pub max_speedup: f64,
    /// Longest chain length in hops + 1 (number of layers).
    pub depth: usize,
    /// Maximum layer width.
    pub width: usize,
    /// Number of root tasks.
    pub roots: usize,
    /// Number of leaf tasks.
    pub leaves: usize,
}

impl GraphMetrics {
    /// Computes all metrics for `g`.
    pub fn compute(g: &TaskGraph) -> Self {
        let tasks = g.num_tasks();
        let edges = g.num_edges();
        let total_work = g.total_work();
        let total_comm = g.total_comm();
        let ls = layers(g);
        GraphMetrics {
            tasks,
            edges,
            total_work,
            total_comm,
            avg_duration: total_work as f64 / tasks as f64,
            avg_comm: if edges == 0 {
                0.0
            } else {
                total_comm as f64 / edges as f64
            },
            avg_comm_per_task: total_comm as f64 / tasks as f64,
            cc_ratio: g.cc_ratio(),
            critical_path: critical_path_length(g),
            max_speedup: max_speedup(g),
            depth: ls.len(),
            width: ls.iter().map(Vec::len).max().unwrap_or(0),
            roots: g.roots().len(),
            leaves: g.leaves().len(),
        }
    }

    /// Average task duration in µs (Table 1 units).
    pub fn avg_duration_us(&self) -> f64 {
        self.avg_duration / 1_000.0
    }

    /// Average communication weight in µs (Table 1 units).
    pub fn avg_comm_us(&self) -> f64 {
        self.avg_comm / 1_000.0
    }

    /// Per-task average communication in µs (Table 1's column).
    pub fn avg_comm_per_task_us(&self) -> f64 {
        self.avg_comm_per_task / 1_000.0
    }
}

impl std::fmt::Display for GraphMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} tasks, {} edges, avg dur {:.2} us, avg comm {:.2} us, \
             C/C {:.1} %, max speedup {:.2}, depth {}, width {}",
            self.tasks,
            self.edges,
            self.avg_duration_us(),
            self.avg_comm_us(),
            self.cc_ratio * 100.0,
            self.max_speedup,
            self.depth,
            self.width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TaskGraphBuilder;

    fn diamond() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(10);
        let t1 = b.add_task(20);
        let t2 = b.add_task(30);
        let d = b.add_task(40);
        b.add_edge(a, t1, 1).unwrap();
        b.add_edge(a, t2, 2).unwrap();
        b.add_edge(t1, d, 3).unwrap();
        b.add_edge(t2, d, 4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn metrics_diamond() {
        let m = GraphMetrics::compute(&diamond());
        assert_eq!(m.tasks, 4);
        assert_eq!(m.edges, 4);
        assert_eq!(m.total_work, 100);
        assert_eq!(m.total_comm, 10);
        assert!((m.avg_duration - 25.0).abs() < 1e-12);
        assert!((m.avg_comm - 2.5).abs() < 1e-12);
        assert!((m.avg_comm_per_task - 2.5).abs() < 1e-12);
        assert!((m.cc_ratio - 0.1).abs() < 1e-12);
        assert_eq!(m.critical_path, 80);
        assert!((m.max_speedup - 1.25).abs() < 1e-12);
        assert_eq!(m.depth, 3);
        assert_eq!(m.width, 2);
        assert_eq!(m.roots, 1);
        assert_eq!(m.leaves, 1);
    }

    #[test]
    fn unit_helpers() {
        let m = GraphMetrics::compute(&diamond());
        assert!((m.avg_duration_us() - 0.025).abs() < 1e-12);
    }

    #[test]
    fn display_contains_key_fields() {
        let s = GraphMetrics::compute(&diamond()).to_string();
        assert!(s.contains("4 tasks"));
        assert!(s.contains("max speedup 1.25"));
    }

    #[test]
    fn no_edges_avg_comm_zero() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(10);
        b.add_task(10);
        let m = GraphMetrics::compute(&b.build().unwrap());
        assert_eq!(m.avg_comm, 0.0);
        assert_eq!(m.cc_ratio, 0.0);
    }
}

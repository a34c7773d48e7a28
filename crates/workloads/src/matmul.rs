//! Matrix-multiply task graph (vector operations).
//!
//! `C = A·B` partitioned into `n²` independent block/dot-product tasks
//! under one operand-distribution root, gathered into `n` result-row
//! tasks: `1 + n² + n` tasks (111 for the paper's `n = 10`), three
//! levels deep. This is the classic embarrassingly parallel MM
//! decomposition, consistent with Table 1's near-`N_T` max speedup
//! (82.10 with 111 tasks).

use anneal_graph::units::{us, Work};
use anneal_graph::{TaskGraph, TaskGraphBuilder};

/// Configuration of the matrix-multiply generator.
#[derive(Debug, Clone)]
pub struct MatMulConfig {
    /// Block grid dimension `n` (result split into `n × n` blocks).
    /// The paper's instance uses 10.
    pub n: usize,
    /// Duration of the operand-distribution root task (ns).
    pub distribute_op: Work,
    /// Duration of one block dot-product task (ns).
    pub product_op: Work,
    /// Duration of one result-row gather task (ns).
    pub gather_op: Work,
    /// Communication weight for operand blocks sent root → product (ns).
    pub operand_comm: Work,
    /// Communication weight for one result block product → gather (ns).
    pub result_comm: Work,
}

impl Default for MatMulConfig {
    fn default() -> Self {
        // Durations solve: d + 100·p + 10·g = 8210 us (work) and
        // d + p + g = 100 us (critical path), reproducing Table 1's
        // avg 73.96 us and max speedup ≈ 82.1 for 111 tasks.
        MatMulConfig {
            n: 10,
            distribute_op: us(5.0),
            product_op: us(80.6),
            gather_op: us(14.5),
            operand_comm: us(8.0),
            result_comm: us(4.0),
        }
    }
}

/// Number of tasks produced: `1 + n² + n`.
pub fn task_count(cfg: &MatMulConfig) -> usize {
    1 + cfg.n * cfg.n + cfg.n
}

/// Builds the matrix-multiply task graph.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "the workload generator emits forward, duplicate-free edges"
)]
pub fn matmul(cfg: &MatMulConfig) -> TaskGraph {
    assert!(cfg.n >= 1);
    let n = cfg.n;
    let mut b = TaskGraphBuilder::with_capacity(task_count(cfg), 2 * n * n);
    let root = b.add_named_task(cfg.distribute_op, "distribute");
    for i in 0..n {
        let gather = b.add_named_task(cfg.gather_op, format!("row.{i}"));
        for j in 0..n {
            let prod = b.add_named_task(cfg.product_op, format!("c{i}.{j}"));
            b.add_edge(root, prod, cfg.operand_comm).unwrap();
            b.add_edge(prod, gather, cfg.result_comm).unwrap();
        }
    }
    b.build().expect("matmul graph is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::critical_path::critical_path_length;
    use anneal_graph::levels::layers;
    use anneal_graph::metrics::GraphMetrics;

    #[test]
    fn paper_task_count() {
        assert_eq!(matmul(&MatMulConfig::default()).num_tasks(), 111);
    }

    #[test]
    fn depth_three_structure() {
        let g = matmul(&MatMulConfig::default());
        assert_eq!(layers(&g).len(), 3);
        assert_eq!(g.roots().len(), 1);
        assert_eq!(g.leaves().len(), 10);
    }

    #[test]
    fn table1_statistics() {
        let cfg = MatMulConfig::default();
        let g = matmul(&cfg);
        let m = GraphMetrics::compute(&g);
        assert!(
            (m.avg_duration_us() - 73.96).abs() < 0.1,
            "{}",
            m.avg_duration_us()
        );
        assert!((m.max_speedup - 82.1).abs() < 0.2, "{}", m.max_speedup);
        assert_eq!(
            critical_path_length(&g),
            cfg.distribute_op + cfg.product_op + cfg.gather_op
        );
    }

    #[test]
    fn every_product_reads_root_and_feeds_one_gather() {
        let g = matmul(&MatMulConfig::default());
        for t in g.tasks() {
            if g.name(t).starts_with('c') {
                assert_eq!(g.in_degree(t), 1);
                assert_eq!(g.out_degree(t), 1);
            }
        }
    }

    #[test]
    fn tiny_instance() {
        let cfg = MatMulConfig {
            n: 1,
            ..MatMulConfig::default()
        };
        let g = matmul(&cfg);
        assert_eq!(g.num_tasks(), 3);
        assert_eq!(task_count(&cfg), 3);
    }
}

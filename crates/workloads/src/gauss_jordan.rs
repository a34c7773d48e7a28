//! Gauss-Jordan linear-system solver task graph (vector operations).
//!
//! Gauss-Jordan elimination on an `n × n` system `Ax = b` proceeds in `n`
//! pivot stages. Stage `k` normalizes pivot row `k` (one *pivot task*)
//! and then updates every other row plus the right-hand side (`n`
//! *elimination tasks*, each a vector operation over the active columns).
//! A final task extracts the solution vector. Total tasks:
//! `n·(n+1) + 1` — 111 for the paper's `n = 10`.
//!
//! The critical path alternates pivot and elimination tasks
//! (`p_0 e_0 p_1 e_1 … p_{n−1} e_{n−1} x`), so with the default durations
//! (pivot 8 µs, elimination 93.1 µs, extract 18 µs) the graph reproduces
//! Table 1: average duration 84.77 µs and max speedup ≈ 9.14.

use anneal_graph::units::{us, Work};
use anneal_graph::{TaskGraph, TaskGraphBuilder, TaskId};

/// Configuration of the Gauss-Jordan generator.
#[derive(Debug, Clone)]
pub struct GaussJordanConfig {
    /// System dimension `n` (number of pivot stages). The paper uses 10.
    pub n: usize,
    /// Duration of a pivot-row normalization task (ns).
    pub pivot_op: Work,
    /// Duration of a row-elimination vector task (ns).
    pub elim_op: Work,
    /// Duration of the final solution-extraction task (ns).
    pub extract_op: Work,
    /// Communication weight per matrix value (ns). 40 bits at 10 Mb/s
    /// = 4 µs.
    pub value_comm: Work,
}

impl Default for GaussJordanConfig {
    fn default() -> Self {
        GaussJordanConfig {
            n: 10,
            pivot_op: us(8.0),
            elim_op: us(93.1),
            extract_op: us(18.0),
            value_comm: us(4.0),
        }
    }
}

/// Number of tasks produced: `n(n+1) + 1`.
pub fn task_count(cfg: &GaussJordanConfig) -> usize {
    cfg.n * (cfg.n + 1) + 1
}

/// Builds the Gauss-Jordan task graph.
///
/// Row indices run `0..n`; index `n` denotes the right-hand side, which
/// is updated every stage but never pivots.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "the workload generator emits forward, duplicate-free edges"
)]
pub fn gauss_jordan(cfg: &GaussJordanConfig) -> TaskGraph {
    assert!(cfg.n >= 1, "need at least a 1x1 system");
    let n = cfg.n;
    let mut b = TaskGraphBuilder::with_capacity(task_count(cfg), 2 * n * (n + 1));

    // latest[r] is the task that last wrote row r (None while the row is
    // still the untouched input from memory). Index n is the RHS.
    let mut latest: Vec<Option<TaskId>> = vec![None; n + 1];

    for k in 0..n {
        // Pivot task: normalize row k. Its input is row k as updated by
        // stage k−1 (or the original matrix row for k = 0).
        let pivot = b.add_named_task(cfg.pivot_op, format!("p{k}"));
        // Active row length shrinks as elimination proceeds.
        let row_vals = (n + 1 - k) as u64;
        if let Some(src) = latest[k] {
            b.add_edge(src, pivot, row_vals * cfg.value_comm).unwrap();
        }

        #[expect(clippy::needless_range_loop, reason = "r is a row *index* with skips")]
        for r in 0..=n {
            if r == k {
                continue;
            }
            let e = b.add_named_task(cfg.elim_op, format!("e{k}.{r}"));
            // Pivot row broadcast (the normalized row values).
            b.add_edge(pivot, e, row_vals * cfg.value_comm).unwrap();
            // The row's own current contents (no edge while the row still
            // comes straight from memory at stage 0).
            if let Some(src) = latest[r] {
                b.add_edge(src, e, row_vals * cfg.value_comm).unwrap();
            }
            latest[r] = Some(e);
        }
        // Row k itself was last written by its pivot normalization.
        latest[k] = Some(pivot);
    }

    // Solution extraction: gathers every row's final state (the solution
    // lives in the RHS column after full Gauss-Jordan elimination).
    let x = b.add_named_task(cfg.extract_op, "x");
    #[expect(
        clippy::needless_range_loop,
        reason = "r is a row *index*, as in the elimination loop above"
    )]
    for r in 0..=n {
        if let Some(src) = latest[r] {
            b.add_edge(src, x, cfg.value_comm).unwrap();
        }
    }

    b.build()
        .expect("gauss-jordan graph is acyclic by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::critical_path::{critical_path_length, max_speedup};
    use anneal_graph::metrics::GraphMetrics;

    #[test]
    fn paper_task_count() {
        let g = gauss_jordan(&GaussJordanConfig::default());
        assert_eq!(g.num_tasks(), 111);
    }

    #[test]
    fn critical_path_alternates_pivot_elim() {
        let cfg = GaussJordanConfig::default();
        let g = gauss_jordan(&cfg);
        let expect = cfg.n as u64 * (cfg.pivot_op + cfg.elim_op) + cfg.extract_op;
        assert_eq!(critical_path_length(&g), expect);
    }

    #[test]
    fn table1_statistics() {
        let g = gauss_jordan(&GaussJordanConfig::default());
        let m = GraphMetrics::compute(&g);
        // avg duration ~84.77 us, max speedup ~9.14 (paper values)
        assert!(
            (m.avg_duration_us() - 84.77).abs() < 0.2,
            "{}",
            m.avg_duration_us()
        );
        assert!((m.max_speedup - 9.14).abs() < 0.05, "{}", m.max_speedup);
    }

    #[test]
    fn single_root_single_leaf_structure() {
        let g = gauss_jordan(&GaussJordanConfig::default());
        // p0 is the only root: every stage-0 elim depends on it, rows
        // come from memory.
        let roots = g.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(g.name(roots[0]), "p0");
        // x is the only leaf.
        let leaves = g.leaves();
        assert_eq!(leaves.len(), 1);
        assert_eq!(g.name(leaves[0]), "x");
    }

    #[test]
    fn pivot_depends_on_previous_stage_row() {
        let g = gauss_jordan(&GaussJordanConfig::default());
        // find p1 and e0.1 by name
        let find = |name: &str| g.tasks().find(|&t| g.name(t) == name).unwrap();
        let p1 = find("p1");
        let e01 = find("e0.1");
        assert!(g.has_edge(e01, p1));
    }

    #[test]
    fn small_system() {
        let cfg = GaussJordanConfig {
            n: 2,
            ..GaussJordanConfig::default()
        };
        let g = gauss_jordan(&cfg);
        assert_eq!(g.num_tasks(), 7); // 2*(2+1)+1
        assert_eq!(task_count(&cfg), 7);
        assert!(max_speedup(&g) > 1.0);
    }

    #[test]
    fn n1_degenerate() {
        let cfg = GaussJordanConfig {
            n: 1,
            ..GaussJordanConfig::default()
        };
        let g = gauss_jordan(&cfg);
        assert_eq!(g.num_tasks(), 3); // p0, e0.1 (rhs), x
    }
}

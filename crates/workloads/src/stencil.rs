//! Wavefront stencil task graph (extension workload).
//!
//! A `w × h` grid of tile-update tasks where tile `(x, y)` depends on
//! its left and top neighbors — the dependence structure of a Gauss-
//! Seidel / SOR sweep, triangular solves and dynamic-programming
//! kernels. The anti-diagonal wavefront gives a parallelism profile
//! that *ramps up and down* (unlike the paper's four programs), which
//! stresses the packet scheduler with constantly changing
//! candidate/idle ratios.

use anneal_graph::units::{us, Work};
use anneal_graph::{TaskGraph, TaskGraphBuilder};

/// Configuration of the wavefront generator.
#[derive(Debug, Clone)]
pub struct StencilConfig {
    /// Tiles per row.
    pub width: usize,
    /// Tiles per column.
    pub height: usize,
    /// Duration of one tile update (ns).
    pub tile_op: Work,
    /// Communication weight of one halo exchange (ns).
    pub halo_comm: Work,
}

impl Default for StencilConfig {
    fn default() -> Self {
        StencilConfig {
            width: 10,
            height: 10,
            tile_op: us(40.0),
            halo_comm: us(6.0),
        }
    }
}

/// Number of tasks produced: `width × height`.
pub fn task_count(cfg: &StencilConfig) -> usize {
    cfg.width * cfg.height
}

/// Builds the wavefront task graph.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "the workload generator emits forward, duplicate-free edges"
)]
pub fn stencil(cfg: &StencilConfig) -> TaskGraph {
    assert!(cfg.width >= 1 && cfg.height >= 1);
    let mut b = TaskGraphBuilder::with_capacity(task_count(cfg), 2 * task_count(cfg));
    let idx = |x: usize, y: usize| y * cfg.width + x;
    let ids: Vec<_> = (0..cfg.height)
        .flat_map(|y| (0..cfg.width).map(move |x| (x, y)))
        .map(|(x, y)| b.add_named_task(cfg.tile_op, format!("tile.{x}.{y}")))
        .collect();
    for y in 0..cfg.height {
        for x in 0..cfg.width {
            if x > 0 {
                b.add_edge(ids[idx(x - 1, y)], ids[idx(x, y)], cfg.halo_comm)
                    .unwrap();
            }
            if y > 0 {
                b.add_edge(ids[idx(x, y - 1)], ids[idx(x, y)], cfg.halo_comm)
                    .unwrap();
            }
        }
    }
    b.build().expect("wavefront is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::critical_path::{critical_path_length, max_speedup};
    use anneal_graph::levels::layers;

    #[test]
    fn grid_shape() {
        let cfg = StencilConfig::default();
        let g = stencil(&cfg);
        assert_eq!(g.num_tasks(), 100);
        // edges: horizontal (w-1)*h + vertical w*(h-1)
        assert_eq!(g.num_edges(), 9 * 10 + 10 * 9);
        assert_eq!(g.roots().len(), 1);
        assert_eq!(g.leaves().len(), 1);
    }

    #[test]
    fn wavefront_depth_is_manhattan_diameter() {
        let cfg = StencilConfig {
            width: 7,
            height: 4,
            ..StencilConfig::default()
        };
        let g = stencil(&cfg);
        // layers = anti-diagonals: w + h - 1
        assert_eq!(layers(&g).len(), 10);
        assert_eq!(critical_path_length(&g), 10 * cfg.tile_op);
    }

    #[test]
    fn parallelism_ramps() {
        let g = stencil(&StencilConfig::default());
        let ls = layers(&g);
        // widths 1,2,...,10,...,2,1
        assert_eq!(ls[0].len(), 1);
        assert_eq!(ls[9].len(), 10);
        assert_eq!(ls[18].len(), 1);
        // max speedup = w*h / (w+h-1)
        assert!((max_speedup(&g) - 100.0 / 19.0).abs() < 1e-9);
    }

    #[test]
    fn single_row_is_a_chain() {
        let cfg = StencilConfig {
            width: 5,
            height: 1,
            ..StencilConfig::default()
        };
        let g = stencil(&cfg);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(critical_path_length(&g), g.total_work());
    }
}

//! Newton-Euler inverse dynamics task graph (scalar operations).
//!
//! The NE inverse-dynamics algorithm for an `L`-link manipulator runs a
//! *forward recursion* over the links (angular velocity ω, angular
//! acceleration ω̇, linear acceleration v̇, link force F and moment N)
//! followed by a *backward recursion* (joint force f, joint moment n and
//! actuator torque τ propagate from the last link to the base).
//!
//! The paper's instance is partitioned into **scalar operations**: 95
//! tasks of ~9.12 µs average duration, C/C ratio 43 %, 12 levels deep
//! (max speedup 7.86 ⇒ critical path ≈ 12 tasks). We reproduce that
//! shape with:
//!
//! * a forward block of [`FORWARD_OPS`] scalar tasks per link (level `i`),
//! * a backward block of [`BACKWARD_OPS`] scalar tasks per link
//!   (level `2L−1−i`),
//! * [`SETUP_OPS`] link-constant setup tasks at level 0 feeding link 1,
//!
//! giving `L·(8+7) + 5 = 95` tasks and exactly `2L` levels for the
//! default `L = 6`.

use anneal_graph::units::{us, Work};
use anneal_graph::{TaskGraph, TaskGraphBuilder, TaskId};

/// Scalar operations per forward (outward) block.
pub const FORWARD_OPS: usize = 8;
/// Scalar operations per backward (inward) block.
pub const BACKWARD_OPS: usize = 7;
/// Link-constant setup operations (inertia tensors, COM offsets, …).
pub const SETUP_OPS: usize = 5;

/// Configuration of the Newton-Euler generator.
#[derive(Debug, Clone)]
pub struct NewtonEulerConfig {
    /// Number of manipulator links `L` (≥ 1). The paper's robot has 6.
    pub links: usize,
    /// Duration of one scalar operation (ns). The paper's average scalar
    /// op takes 9.12 µs on the target machine.
    pub scalar_op: Work,
    /// Communication weight per scalar value (ns of link occupancy).
    /// One 40-bit variable at 10 Mb/s = 4 µs.
    pub value_comm: Work,
}

impl Default for NewtonEulerConfig {
    fn default() -> Self {
        NewtonEulerConfig {
            links: 6,
            scalar_op: us(9.12),
            value_comm: us(4.0),
        }
    }
}

/// Number of tasks produced by a configuration.
pub fn task_count(cfg: &NewtonEulerConfig) -> usize {
    cfg.links * (FORWARD_OPS + BACKWARD_OPS) + if cfg.links >= 2 { SETUP_OPS } else { 0 }
}

/// Builds the Newton-Euler inverse-dynamics task graph.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "the workload generator emits forward, duplicate-free edges"
)]
pub fn newton_euler(cfg: &NewtonEulerConfig) -> TaskGraph {
    assert!(cfg.links >= 1, "need at least one link");
    let l = cfg.links;
    let mut b = TaskGraphBuilder::with_capacity(task_count(cfg), task_count(cfg) * 3);

    // Forward blocks, one per link, level i.
    let mut fwd: Vec<Vec<TaskId>> = Vec::with_capacity(l);
    for i in 0..l {
        let block: Vec<TaskId> = (0..FORWARD_OPS)
            .map(|k| b.add_named_task(cfg.scalar_op, format!("fwd{i}.{k}")))
            .collect();
        fwd.push(block);
    }
    // Setup tasks: link constants consumed by link 1's forward block.
    // They are roots (level 0) so the graph depth stays 2L.
    let setup: Vec<TaskId> = if l >= 2 {
        (0..SETUP_OPS)
            .map(|k| b.add_named_task(cfg.scalar_op, format!("setup.{k}")))
            .collect()
    } else {
        Vec::new()
    };

    // Forward dependencies: scalar op k of link i propagates the same
    // physical quantity from link i−1 (one value per message — Table 1's
    // per-task communication of ~1 variable implies an in-degree close
    // to one).
    for i in 1..l {
        #[expect(clippy::needless_range_loop, reason = "k indexes two parallel blocks")]
        for k in 0..FORWARD_OPS {
            let t = fwd[i][k];
            b.add_edge(fwd[i - 1][k], t, cfg.value_comm).unwrap();
        }
    }
    // Link constants feed the corresponding ops of link 1.
    if l >= 2 {
        for (j, &s) in setup.iter().enumerate() {
            b.add_edge(s, fwd[1][j % FORWARD_OPS], cfg.value_comm)
                .unwrap();
        }
    }

    // Backward blocks, one per link, level 2L−1−i.
    let mut bwd: Vec<Vec<TaskId>> = Vec::with_capacity(l);
    for i in 0..l {
        let block: Vec<TaskId> = (0..BACKWARD_OPS)
            .map(|k| b.add_named_task(cfg.scalar_op, format!("bwd{i}.{k}")))
            .collect();
        bwd.push(block);
    }
    for i in (0..l).rev() {
        for k in 0..BACKWARD_OPS {
            let t = bwd[i][k];
            // Reads this link's forward results (F_i, N_i components)...
            b.add_edge(fwd[i][k % FORWARD_OPS], t, cfg.value_comm)
                .unwrap();
            // ...and the next link's backward results (f_{i+1}, n_{i+1}).
            if i + 1 < l {
                b.add_edge(bwd[i + 1][k], t, cfg.value_comm).unwrap();
            } else {
                // Turnaround at the end effector: the last backward
                // block also consumes the remaining forward outputs so
                // every forward value is used.
                b.add_edge(fwd[i][(k + BACKWARD_OPS) % FORWARD_OPS], t, cfg.value_comm)
                    .unwrap();
            }
        }
    }

    b.build()
        .expect("newton-euler graph is acyclic by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::critical_path::{critical_path_length, max_speedup};
    use anneal_graph::levels::layers;

    #[test]
    fn paper_task_count() {
        let g = newton_euler(&NewtonEulerConfig::default());
        assert_eq!(g.num_tasks(), 95);
    }

    #[test]
    fn depth_is_two_levels_per_link() {
        let g = newton_euler(&NewtonEulerConfig::default());
        assert_eq!(layers(&g).len(), 12);
    }

    #[test]
    fn critical_path_matches_depth() {
        let cfg = NewtonEulerConfig::default();
        let g = newton_euler(&cfg);
        assert_eq!(critical_path_length(&g), 12 * cfg.scalar_op);
        // max speedup close to the paper's 7.86
        let s = max_speedup(&g);
        assert!((s - 95.0 / 12.0).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn single_link_works() {
        let cfg = NewtonEulerConfig {
            links: 1,
            ..NewtonEulerConfig::default()
        };
        let g = newton_euler(&cfg);
        assert_eq!(g.num_tasks(), FORWARD_OPS + BACKWARD_OPS);
        assert_eq!(layers(&g).len(), 2);
    }

    #[test]
    fn forward_blocks_chain() {
        let g = newton_euler(&NewtonEulerConfig::default());
        // fwd0.0 is a root; bwd0.* are the leaves (torque outputs at base).
        let roots = g.roots();
        assert!(roots.iter().any(|&t| g.name(t) == "fwd0.0"));
        assert!(roots.iter().any(|&t| g.name(t) == "setup.0"));
        let leaves = g.leaves();
        assert!(leaves.iter().all(|&t| g.name(t).starts_with("bwd0")));
        assert_eq!(leaves.len(), BACKWARD_OPS);
    }

    #[test]
    fn all_scalar_durations_equal() {
        let cfg = NewtonEulerConfig::default();
        let g = newton_euler(&cfg);
        assert!(g.loads().iter().all(|&r| r == cfg.scalar_op));
    }

    #[test]
    fn task_count_helper_matches() {
        for links in 1..8 {
            let cfg = NewtonEulerConfig {
                links,
                ..NewtonEulerConfig::default()
            };
            assert_eq!(newton_euler(&cfg).num_tasks(), task_count(&cfg));
        }
    }
}

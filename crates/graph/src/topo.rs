//! Topological-order utilities.
//!
//! The canonical order is computed once at build time and cached on the
//! graph ([`crate::TaskGraph::topo_order`]); this module validates
//! orders.

use crate::dag::TaskGraph;
use crate::ids::TaskId;

/// Checks that `order` is a permutation of all tasks that respects every
/// precedence edge.
pub fn is_topological_order(g: &TaskGraph, order: &[TaskId]) -> bool {
    if order.len() != g.num_tasks() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.num_tasks()];
    for (i, &t) in order.iter().enumerate() {
        if t.index() >= g.num_tasks() || pos[t.index()] != usize::MAX {
            return false;
        }
        pos[t.index()] = i;
    }
    g.edges().all(|(a, b, _)| pos[a.index()] < pos[b.index()])
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
        b.add_edge(a, t1, 0).unwrap();
        b.add_edge(a, t2, 0).unwrap();
        b.add_edge(t1, d, 0).unwrap();
        b.add_edge(t2, d, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn cached_order_is_topological() {
        let g = diamond();
        assert!(is_topological_order(&g, g.topo_order()));
    }

    #[test]
    fn rejects_bad_orders() {
        let g = diamond();
        let mut order = g.topo_order().to_vec();
        order.swap(0, 3); // leaf before root
        assert!(!is_topological_order(&g, &order));
        // wrong length
        assert!(!is_topological_order(&g, &order[..3]));
        // duplicate entry
        let dup = vec![order[0], order[0], order[1], order[2]];
        assert!(!is_topological_order(&g, &dup));
    }
}

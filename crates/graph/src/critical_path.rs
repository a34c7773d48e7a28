//! Critical-path analysis.
//!
//! The critical path of a directed taskgraph is "the longest chain joining
//! the root task and a leaf task" (paper §4.2a). Its length bounds the
//! parallel execution time from below, so `T_1 / cp` is the maximum
//! speedup reported in Table 1.

use crate::dag::TaskGraph;
use crate::ids::TaskId;
use crate::levels::bottom_levels;
use crate::units::Work;

/// Length of the critical path (sum of loads along the longest chain),
/// ignoring communication.
pub fn critical_path_length(g: &TaskGraph) -> Work {
    bottom_levels(g).into_iter().max().unwrap_or(0)
}

/// One critical path, root to leaf, as a task sequence.
///
/// Deterministic: at each step the smallest-id successor that preserves
/// the critical length is chosen.
pub fn critical_path(g: &TaskGraph) -> Vec<TaskId> {
    let bl = bottom_levels(g);
    let mut cur = match g
        .tasks()
        .max_by_key(|t| (bl[t.index()], std::cmp::Reverse(t.raw())))
    {
        Some(t) => t,
        None => return Vec::new(),
    };
    let mut path = vec![cur];
    loop {
        let need = bl[cur.index()] - g.load(cur);
        if need == 0 {
            break;
        }
        // Successor slices are sorted by id, so `find` picks smallest id.
        #[expect(
            clippy::expect_used,
            reason = "bottom-level accounting guarantees a successor with bl == need"
        )]
        let next = g
            .successors(cur)
            .iter()
            .find(|e| bl[e.target.index()] == need)
            .expect("bottom level accounting guarantees a successor")
            .target;
        path.push(next);
        cur = next;
    }
    path
}

/// Maximum attainable speedup `T_1 / cp` with unlimited processors and
/// free communication (Table 1's "Max. Speedup").
pub fn max_speedup(g: &TaskGraph) -> f64 {
    let cp = critical_path_length(g);
    if cp == 0 {
        return 0.0;
    }
    g.total_work() as f64 / cp as f64
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
    fn cp_length_diamond() {
        assert_eq!(critical_path_length(&diamond()), 80);
    }

    #[test]
    fn cp_path_diamond() {
        let g = diamond();
        let path: Vec<usize> = critical_path(&g).iter().map(|t| t.index()).collect();
        assert_eq!(path, vec![0, 2, 3]); // a -> c -> d
    }

    #[test]
    fn cp_path_loads_sum_to_length() {
        let g = diamond();
        let sum: u64 = critical_path(&g).iter().map(|&t| g.load(t)).sum();
        assert_eq!(sum, critical_path_length(&g));
    }

    #[test]
    fn max_speedup_diamond() {
        let g = diamond();
        assert!((max_speedup(&g) - 100.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn independent_tasks_cp_is_max_load() {
        let mut b = TaskGraphBuilder::new();
        for i in 1..=4 {
            b.add_task(i * 10);
        }
        let g = b.build().unwrap();
        assert_eq!(critical_path_length(&g), 40);
        let p = critical_path(&g);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].index(), 3);
        assert!((max_speedup(&g) - 100.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn chain_cp_is_total_work() {
        let mut b = TaskGraphBuilder::new();
        let ids: Vec<_> = (0..6).map(|_| b.add_task(5)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 1).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(critical_path_length(&g), g.total_work());
        assert_eq!(critical_path(&g).len(), 6);
        assert!((max_speedup(&g) - 1.0).abs() < 1e-12);
    }
}

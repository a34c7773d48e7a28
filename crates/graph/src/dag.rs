//! The frozen task-graph representation.

use crate::ids::TaskId;
use crate::units::Work;

/// A weighted directed edge to `target`, carrying the communication
/// weight `w_ij` in nanoseconds (the time the message occupies one link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The task on the other end of the edge.
    pub target: TaskId,
    /// Communication weight `w_ij` (nanoseconds of link occupancy).
    pub weight: Work,
}

/// A frozen directed acyclic task graph `TG = {T, R, W, <*}`.
///
/// Built via [`crate::TaskGraphBuilder`]; immutable afterwards. Stores
/// successor and predecessor adjacency in compressed sparse rows, plus a
/// cached topological order, so scheduling inner loops get contiguous
/// slices with no hashing or pointer chasing.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    pub(crate) loads: Vec<Work>,
    /// Every task's name, back to back; task `i`'s is
    /// `names[name_off[i]..name_off[i + 1]]`.
    pub(crate) names: String,
    pub(crate) name_off: Vec<u32>,
    pub(crate) succ_off: Vec<u32>,
    pub(crate) succ_adj: Vec<Edge>,
    pub(crate) pred_off: Vec<u32>,
    pub(crate) pred_adj: Vec<Edge>,
    pub(crate) topo: Vec<TaskId>,
    pub(crate) topo_pos: Vec<u32>,
    pub(crate) total_work: Work,
}

impl TaskGraph {
    /// Number of tasks `N_T`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.loads.len()
    }

    /// Number of directed edges (precedence constraints with weights).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.succ_adj.len()
    }

    /// CPU load `r_i` of a task, in nanoseconds.
    #[inline]
    pub fn load(&self, t: TaskId) -> Work {
        self.loads[t.index()]
    }

    /// All task loads, indexed by `TaskId::index`.
    #[inline]
    pub fn loads(&self) -> &[Work] {
        &self.loads
    }

    /// The task's name. Auto-generated (`"t<i>"`) unless set at build time.
    #[inline]
    pub fn name(&self, t: TaskId) -> &str {
        let i = t.index();
        &self.names[self.name_off[i] as usize..self.name_off[i + 1] as usize]
    }

    /// Sum of all task loads, `T_1` (sequential execution time).
    #[inline]
    pub fn total_work(&self) -> Work {
        self.total_work
    }

    /// Outgoing edges of `t`: the tasks that must start after `t`.
    #[inline]
    pub fn successors(&self, t: TaskId) -> &[Edge] {
        let i = t.index();
        &self.succ_adj[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Incoming edges of `t`: the tasks that must finish before `t`.
    #[inline]
    pub fn predecessors(&self, t: TaskId) -> &[Edge] {
        let i = t.index();
        &self.pred_adj[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Out-degree of `t`.
    #[inline]
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.successors(t).len()
    }

    /// In-degree of `t`.
    #[inline]
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.predecessors(t).len()
    }

    /// A cached topological order (Kahn order; deterministic: smallest
    /// ready id first).
    #[inline]
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// The position of `t` in [`Self::topo_order`].
    #[inline]
    pub fn topo_position(&self, t: TaskId) -> usize {
        self.topo_pos[t.index()] as usize
    }

    /// Iterator over all task ids, in id order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        (0..self.num_tasks()).map(TaskId::from_index)
    }

    /// Tasks with no predecessors (entry tasks).
    pub fn roots(&self) -> Vec<TaskId> {
        self.tasks().filter(|&t| self.in_degree(t) == 0).collect()
    }

    /// Tasks with no successors (exit tasks).
    pub fn leaves(&self) -> Vec<TaskId> {
        self.tasks().filter(|&t| self.out_degree(t) == 0).collect()
    }

    /// The communication weight of edge `from -> to`, if present.
    ///
    /// Linear in the out-degree of `from`; fine for occasional queries,
    /// use [`Self::successors`] in hot loops.
    pub fn edge_weight(&self, from: TaskId, to: TaskId) -> Option<Work> {
        self.successors(from)
            .iter()
            .find(|e| e.target == to)
            .map(|e| e.weight)
    }

    /// `true` if edge `from -> to` exists.
    pub fn has_edge(&self, from: TaskId, to: TaskId) -> bool {
        self.edge_weight(from, to).is_some()
    }

    /// Iterates over every edge as `(from, to, weight)`, grouped by source.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId, Work)> + '_ {
        self.tasks().flat_map(move |t| {
            self.successors(t)
                .iter()
                .map(move |e| (t, e.target, e.weight))
        })
    }

    /// Sum of all edge communication weights.
    pub fn total_comm(&self) -> Work {
        self.succ_adj.iter().map(|e| e.weight).sum()
    }

    /// Communication-to-computation ratio (paper Table 1's C/C), defined
    /// as total communication weight over total work.
    pub fn cc_ratio(&self) -> f64 {
        if self.total_work == 0 {
            return 0.0;
        }
        self.total_comm() as f64 / self.total_work as f64
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::TaskGraphBuilder;
    use crate::ids::TaskId;

    /// diamond: a -> b, a -> c, b -> d, c -> d
    fn diamond() -> crate::TaskGraph {
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
    fn counts_and_loads() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.total_work(), 100);
        assert_eq!(g.load(TaskId::from_index(2)), 30);
        assert_eq!(g.loads(), &[10, 20, 30, 40]);
    }

    #[test]
    fn adjacency() {
        let g = diamond();
        let a = TaskId::from_index(0);
        let d = TaskId::from_index(3);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.out_degree(d), 0);
        let succs: Vec<usize> = g.successors(a).iter().map(|e| e.target.index()).collect();
        assert_eq!(succs, vec![1, 2]);
        let preds: Vec<usize> = g.predecessors(d).iter().map(|e| e.target.index()).collect();
        assert_eq!(preds, vec![1, 2]);
    }

    #[test]
    fn roots_and_leaves() {
        let g = diamond();
        assert_eq!(g.roots(), vec![TaskId::from_index(0)]);
        assert_eq!(g.leaves(), vec![TaskId::from_index(3)]);
    }

    #[test]
    fn edge_weights() {
        let g = diamond();
        let a = TaskId::from_index(0);
        let b = TaskId::from_index(1);
        let d = TaskId::from_index(3);
        assert_eq!(g.edge_weight(a, b), Some(1));
        assert_eq!(g.edge_weight(b, d), Some(3));
        assert_eq!(g.edge_weight(a, d), None);
        assert!(g.has_edge(a, b));
        assert!(!g.has_edge(d, a));
        assert_eq!(g.total_comm(), 10);
    }

    #[test]
    fn edges_iterator_covers_all() {
        let g = diamond();
        let mut edges: Vec<(usize, usize, u64)> = g
            .edges()
            .map(|(a, b, w)| (a.index(), b.index(), w))
            .collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1, 1), (0, 2, 2), (1, 3, 3), (2, 3, 4)]);
    }

    #[test]
    fn topo_order_is_consistent() {
        let g = diamond();
        let order = g.topo_order();
        assert_eq!(order.len(), 4);
        for (from, to, _) in g.edges() {
            assert!(g.topo_position(from) < g.topo_position(to));
        }
    }

    #[test]
    fn cc_ratio() {
        let g = diamond();
        assert!((g.cc_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn default_names() {
        let g = diamond();
        assert_eq!(g.name(TaskId::from_index(0)), "t0");
    }
}

//! Incremental construction of [`TaskGraph`]s.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::dag::{Edge, TaskGraph};
use crate::error::GraphError;
use crate::ids::TaskId;
use crate::units::Work;

/// Builds a [`TaskGraph`] incrementally, validating as it goes.
///
/// `add_task` assigns dense ids in insertion order. `add_edge` rejects
/// self-loops, unknown endpoints and duplicate edges immediately;
/// [`TaskGraphBuilder::build`] performs the final acyclicity check and
/// freezes the graph into its CSR form.
///
/// Adding a task or an edge allocates nothing beyond the amortized
/// growth of the builder's vectors. Explicit names share one buffer,
/// and `build` writes every name, auto names included, into another.
/// The duplicate check is free while each task's out-edges arrive in
/// increasing target order, as every generator in [`crate::generate`]
/// adds them: a new edge then either passes its source's latest target
/// or repeats it. The first edge that arrives out of that order indexes
/// every edge by `(from, to)`, and the rest are looked up there, in
/// O(log E) each.
#[derive(Debug, Default, Clone)]
pub struct TaskGraphBuilder {
    loads: Vec<Work>,
    /// The explicit names, back to back.
    names: String,
    /// `(task, end)` per explicitly named task, ascending by task: its
    /// name ends at byte `end` of `names`.
    named: Vec<(u32, u32)>,
    edges: Vec<(TaskId, TaskId, Work)>,
    /// Per task, 1 + the position in `edges` of its latest out-edge (0:
    /// none yet). Unused once `index` is built.
    latest: Vec<u32>,
    /// Every edge's position in `edges`, by `(from, to)`; built by the
    /// first edge that arrives out of order for its source.
    index: Option<BTreeMap<(u32, u32), u32>>,
}

impl TaskGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity hints.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        Self {
            loads: Vec::with_capacity(tasks),
            latest: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Adds a task with CPU load `r_i` (nanoseconds) and an auto-generated
    /// name (`t<id>`); returns its id.
    pub fn add_task(&mut self, load: Work) -> TaskId {
        let id = TaskId::from_index(self.loads.len());
        self.loads.push(load);
        self.latest.push(0);
        id
    }

    /// Adds a task with an explicit name.
    pub fn add_named_task(&mut self, load: Work, name: impl AsRef<str>) -> TaskId {
        let id = self.add_task(load);
        self.names.push_str(name.as_ref());
        self.named.push((id.raw(), self.names.len() as u32));
        id
    }

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.loads.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds precedence edge `from <* to` with communication weight
    /// `w_ij` (nanoseconds).
    pub fn add_edge(&mut self, from: TaskId, to: TaskId, weight: Work) -> Result<(), GraphError> {
        self.check_endpoints(from, to)?;
        if self.position(from, to).is_some() {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        self.push_edge(from, to, weight);
        Ok(())
    }

    /// Like [`Self::add_edge`], but accumulates the weight onto an existing
    /// edge instead of failing on duplicates. Useful for generators that
    /// emit one logical message per data item.
    pub fn add_or_merge_edge(
        &mut self,
        from: TaskId,
        to: TaskId,
        weight: Work,
    ) -> Result<(), GraphError> {
        self.check_endpoints(from, to)?;
        match self.position(from, to) {
            Some(i) => self.edges[i].2 += weight,
            None => self.push_edge(from, to, weight),
        }
        Ok(())
    }

    /// Rejects unknown endpoints and self-loops.
    fn check_endpoints(&self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        let n = self.loads.len() as u32;
        if from.raw() >= n {
            return Err(GraphError::UnknownTask(from));
        }
        if to.raw() >= n {
            return Err(GraphError::UnknownTask(to));
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        Ok(())
    }

    /// The position of edge `from -> to` in `edges`, if it was added.
    fn position(&mut self, from: TaskId, to: TaskId) -> Option<usize> {
        if self.index.is_none() {
            let latest = self.latest[from.index()] as usize;
            if latest == 0 || self.edges[latest - 1].1 < to {
                return None;
            }
            if self.edges[latest - 1].1 == to {
                return Some(latest - 1);
            }
            // `to` falls below the source's latest target: only an
            // index can tell whether it was added before.
            self.index = Some(
                self.edges
                    .iter()
                    .enumerate()
                    .map(|(i, &(f, t, _))| ((f.raw(), t.raw()), i as u32))
                    .collect(),
            );
        }
        let index = self.index.as_ref()?;
        index.get(&(from.raw(), to.raw())).map(|&i| i as usize)
    }

    fn push_edge(&mut self, from: TaskId, to: TaskId, weight: Work) {
        let i = self.edges.len() as u32;
        self.edges.push((from, to, weight));
        match &mut self.index {
            Some(index) => {
                index.insert((from.raw(), to.raw()), i);
            }
            None => self.latest[from.index()] = i + 1,
        }
    }

    /// Validates acyclicity and freezes the graph.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        let n = self.loads.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }

        // Degree counting for CSR construction.
        let mut succ_off = vec![0u32; n + 1];
        let mut pred_off = vec![0u32; n + 1];
        for &(f, t, _) in &self.edges {
            succ_off[f.index() + 1] += 1;
            pred_off[t.index() + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }

        // Adjacency slices sorted by the other endpoint's id, so
        // schedulers and tests iterate deterministically: a two-pass
        // counting sort. Bucket the edges by target (in insertion
        // order), walk the targets in id order to fill the successor
        // rows, then walk the sources in id order to refill the
        // predecessor rows.
        let placeholder = Edge {
            target: TaskId::from_index(0),
            weight: 0,
        };
        let mut succ_adj = vec![placeholder; self.edges.len()];
        let mut pred_adj = vec![placeholder; self.edges.len()];
        let mut cursor = pred_off.clone();
        for &(f, t, w) in &self.edges {
            let c = &mut cursor[t.index()];
            pred_adj[*c as usize] = Edge {
                target: f,
                weight: w,
            };
            *c += 1;
        }
        cursor.copy_from_slice(&succ_off);
        for t in 0..n {
            for e in &pred_adj[pred_off[t] as usize..pred_off[t + 1] as usize] {
                let c = &mut cursor[e.target.index()];
                succ_adj[*c as usize] = Edge {
                    target: TaskId::from_index(t),
                    weight: e.weight,
                };
                *c += 1;
            }
        }
        cursor.copy_from_slice(&pred_off);
        for f in 0..n {
            for e in &succ_adj[succ_off[f] as usize..succ_off[f + 1] as usize] {
                let c = &mut cursor[e.target.index()];
                pred_adj[*c as usize] = Edge {
                    target: TaskId::from_index(f),
                    weight: e.weight,
                };
                *c += 1;
            }
        }

        // Smallest-id-first Kahn order. When every edge runs from a lower
        // id to a higher one, as most generators' edges do, that order
        // is the id order itself (each task's predecessors all precede
        // it) and no cycle is possible.
        let (topo, topo_pos) = if self.edges.iter().all(|&(f, t, _)| f < t) {
            (
                (0..n).map(TaskId::from_index).collect(),
                (0..n as u32).collect(),
            )
        } else {
            kahn_order(&succ_off, &succ_adj, &pred_off)?
        };

        // Every name, in id order, into one buffer.
        let mut names = String::with_capacity(self.names.len() + 4 * (n - self.named.len()));
        let mut name_off = Vec::with_capacity(n + 1);
        name_off.push(0u32);
        let mut named = self.named.iter().peekable();
        let mut start = 0;
        for i in 0..n {
            match named.next_if(|&&(task, _)| task as usize == i) {
                Some(&(_, end)) => {
                    names.push_str(&self.names[start..end as usize]);
                    start = end as usize;
                }
                None => {
                    let _ = write!(names, "t{i}");
                }
            }
            name_off.push(names.len() as u32);
        }

        let total_work = self.loads.iter().sum();
        Ok(TaskGraph {
            loads: self.loads,
            names,
            name_off,
            succ_off,
            succ_adj,
            pred_off,
            pred_adj,
            topo,
            topo_pos,
            total_work,
        })
    }
}

/// Kahn's topological order, smallest ready id first (a min-heap over
/// the ready tasks), with each task's position in it; a cycle is an
/// error naming the first task whose in-degree never reached zero.
fn kahn_order(
    succ_off: &[u32],
    succ_adj: &[Edge],
    pred_off: &[u32],
) -> Result<(Vec<TaskId>, Vec<u32>), GraphError> {
    let n = succ_off.len() - 1;
    let mut indeg: Vec<u32> = pred_off.windows(2).map(|w| w[1] - w[0]).collect();
    let mut heap = std::collections::BinaryHeap::new();
    for (i, &d) in indeg.iter().enumerate() {
        if d == 0 {
            heap.push(std::cmp::Reverse(i as u32));
        }
    }
    let mut topo = Vec::with_capacity(n);
    let mut topo_pos = vec![0u32; n];
    while let Some(std::cmp::Reverse(i)) = heap.pop() {
        let t = TaskId(i);
        topo_pos[t.index()] = topo.len() as u32;
        topo.push(t);
        let lo = succ_off[t.index()] as usize;
        let hi = succ_off[t.index() + 1] as usize;
        for e in &succ_adj[lo..hi] {
            let d = &mut indeg[e.target.index()];
            *d -= 1;
            if *d == 0 {
                heap.push(std::cmp::Reverse(e.target.raw()));
            }
        }
    }
    if topo.len() != n {
        // Some task is on a cycle: any with nonzero in-degree left.
        #[expect(
            clippy::expect_used,
            reason = "topo.len() != n means a cycle, so some in-degree stays positive"
        )]
        let culprit = indeg
            .iter()
            .position(|&d| d > 0)
            .map(TaskId::from_index)
            .expect("cycle implies leftover in-degree");
        return Err(GraphError::Cycle(culprit));
    }
    Ok((topo, topo_pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unknown_endpoints() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(1);
        let ghost = TaskId::from_index(9);
        assert_eq!(b.add_edge(a, ghost, 0), Err(GraphError::UnknownTask(ghost)));
        assert_eq!(b.add_edge(ghost, a, 0), Err(GraphError::UnknownTask(ghost)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(1);
        assert_eq!(b.add_edge(a, a, 0), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(1);
        b.add_edge(a, c, 5).unwrap();
        assert_eq!(b.add_edge(a, c, 7), Err(GraphError::DuplicateEdge(a, c)));
    }

    #[test]
    fn merge_edge_accumulates() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(1);
        b.add_or_merge_edge(a, c, 5).unwrap();
        b.add_or_merge_edge(a, c, 7).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_weight(a, c), Some(12));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn detects_cycle() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(1);
        let d = b.add_task(1);
        b.add_edge(a, c, 0).unwrap();
        b.add_edge(c, d, 0).unwrap();
        b.add_edge(d, a, 0).unwrap();
        match b.build() {
            Err(GraphError::Cycle(_)) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_is_error() {
        assert_eq!(
            TaskGraphBuilder::new().build().err(),
            Some(GraphError::Empty)
        );
    }

    #[test]
    fn single_task_graph() {
        let mut b = TaskGraphBuilder::new();
        b.add_task(42);
        let g = b.build().unwrap();
        assert_eq!(g.num_tasks(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.topo_order().len(), 1);
    }

    #[test]
    fn named_tasks() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_named_task(1, "pivot");
        let g = b.build().unwrap();
        assert_eq!(g.name(a), "pivot");
    }

    #[test]
    fn adjacency_slices_sorted_by_target() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(1);
        let x = b.add_task(1);
        let y = b.add_task(1);
        let z = b.add_task(1);
        // Insert out of order.
        b.add_edge(a, z, 3).unwrap();
        b.add_edge(a, x, 1).unwrap();
        b.add_edge(a, y, 2).unwrap();
        let g = b.build().unwrap();
        let ids: Vec<usize> = g.successors(a).iter().map(|e| e.target.index()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn kahn_order_is_smallest_id_first() {
        // Two independent chains; ids should interleave smallest-first.
        let mut b = TaskGraphBuilder::new();
        let a0 = b.add_task(1);
        let b0 = b.add_task(1);
        let a1 = b.add_task(1);
        let b1 = b.add_task(1);
        b.add_edge(a0, a1, 0).unwrap();
        b.add_edge(b0, b1, 0).unwrap();
        let g = b.build().unwrap();
        let order: Vec<usize> = g.topo_order().iter().map(|t| t.index()).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}

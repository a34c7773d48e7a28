//! Incremental construction of [`TaskGraph`]s.

use std::collections::BTreeSet;

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
#[derive(Debug, Default, Clone)]
pub struct TaskGraphBuilder {
    loads: Vec<Work>,
    names: Vec<String>,
    edges: Vec<(TaskId, TaskId, Work)>,
    seen: BTreeSet<(u32, u32)>,
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
            names: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
            seen: BTreeSet::new(),
        }
    }

    /// Adds a task with CPU load `r_i` (nanoseconds) and an auto-generated
    /// name; returns its id.
    pub fn add_task(&mut self, load: Work) -> TaskId {
        let id = TaskId::from_index(self.loads.len());
        self.loads.push(load);
        self.names.push(format!("t{}", id.raw()));
        id
    }

    /// Adds a task with an explicit name.
    pub fn add_named_task(&mut self, load: Work, name: impl Into<String>) -> TaskId {
        let id = self.add_task(load);
        self.names[id.index()] = name.into();
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
        if !self.seen.insert((from.raw(), to.raw())) {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        self.edges.push((from, to, weight));
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
        match self.add_edge(from, to, weight) {
            Err(GraphError::DuplicateEdge(..)) => {
                // Linear scan is fine: merging is a construction-time
                // convenience, never on a hot path.
                #[expect(
                    clippy::expect_used,
                    reason = "guarded by the DuplicateEdge arm: the edge is present"
                )]
                let e = self
                    .edges
                    .iter_mut()
                    .find(|(f, t, _)| *f == from && *t == to)
                    .expect("duplicate edge must exist");
                e.2 += weight;
                Ok(())
            }
            other => other,
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

        let placeholder = Edge {
            target: TaskId::from_index(0),
            weight: 0,
        };
        let mut succ_adj = vec![placeholder; self.edges.len()];
        let mut pred_adj = vec![placeholder; self.edges.len()];
        let mut succ_cursor = succ_off.clone();
        let mut pred_cursor = pred_off.clone();
        // Insert in (from, to) sorted order so adjacency slices are sorted
        // by target id — deterministic iteration for schedulers and tests.
        let mut sorted = self.edges.clone();
        sorted.sort_unstable_by_key(|&(f, t, _)| (f, t));
        for &(f, t, w) in &sorted {
            let sc = &mut succ_cursor[f.index()];
            succ_adj[*sc as usize] = Edge {
                target: t,
                weight: w,
            };
            *sc += 1;
        }
        let mut sorted_by_to = sorted;
        sorted_by_to.sort_unstable_by_key(|&(f, t, _)| (t, f));
        for &(f, t, w) in &sorted_by_to {
            let pc = &mut pred_cursor[t.index()];
            pred_adj[*pc as usize] = Edge {
                target: f,
                weight: w,
            };
            *pc += 1;
        }

        // Kahn topological sort; deterministic (BinaryHeap keyed on
        // Reverse(id) would be O(E log V); a simple FIFO over a sorted
        // ready set is enough and we keep smallest-id-first via a
        // min-heap).
        let mut indeg: Vec<u32> = (0..n).map(|i| pred_off[i + 1] - pred_off[i]).collect();
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

        let total_work = self.loads.iter().sum();
        Ok(TaskGraph {
            loads: self.loads,
            names: self.names,
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

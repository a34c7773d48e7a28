//! Graham's multiprocessing anomalies (Graham 1969, the paper's ref. 6).
//!
//! The classic 9-task instance whose list schedule gets *worse* when the
//! system gets "better": more processors, shorter tasks or fewer
//! precedence constraints all increase the list-schedule makespan. The
//! paper observes that "the SA algorithm is able to optimally solve the
//! Graham list scheduling anomalies"; [`crate::optimal`] provides the
//! reference optimum and the tests in this crate (and the `anomalies`
//! bench binary) reproduce the claim.
//!
//! Task times `(3, 2, 2, 2, 4, 4, 4, 4, 9)` and precedence
//! `T1 <* T9`, `T4 <* T5, T6, T7, T8` (1-based); the classic list
//! `L = (T1, …, T9)` on 3 processors yields makespan 12 (optimal), but
//!
//! * 4 processors → 15,
//! * every time reduced by 1 → 13,
//! * dropping `T4 <* T5` and `T4 <* T6` → 16.

use anneal_graph::{TaskGraph, TaskGraphBuilder, Work};

/// Time scale: one Graham unit in nanoseconds (keeps integer math
/// comfortable alongside the µs-scale workloads).
pub const UNIT: Work = 1_000;

const TIMES: [Work; 9] = [3, 2, 2, 2, 4, 4, 4, 4, 9];
/// Edges in 0-based indices: T1→T9, T4→{T5,T6,T7,T8}.
const EDGES: [(usize, usize); 5] = [(0, 8), (3, 4), (3, 5), (3, 6), (3, 7)];

#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "the hard-coded Graham instances are valid DAGs"
)]
fn build(times: &[Work; 9], edges: &[(usize, usize)]) -> TaskGraph {
    let mut b = TaskGraphBuilder::with_capacity(9, edges.len());
    let ids: Vec<_> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| b.add_named_task(t * UNIT, format!("T{}", i + 1)))
        .collect();
    for &(x, y) in edges {
        b.add_edge(ids[x], ids[y], 0).unwrap();
    }
    b.build().expect("anomaly instance is acyclic")
}

/// The original instance (schedule on 3 processors; list makespan 12).
pub fn graham_original() -> TaskGraph {
    build(&TIMES, &EDGES)
}

/// Same instance with every task time reduced by one unit (list
/// makespan rises to 13 on 3 processors).
pub fn graham_shorter_times() -> TaskGraph {
    let times: [Work; 9] = std::array::from_fn(|i| TIMES[i] - 1);
    build(&times, &EDGES)
}

/// Same instance with `T4 <* T5` and `T4 <* T6` removed (list makespan
/// rises to 16 on 3 processors).
pub fn graham_relaxed_precedence() -> TaskGraph {
    build(
        &TIMES,
        EDGES[..1]
            .iter()
            .chain(&EDGES[3..])
            .copied()
            .collect::<Vec<_>>()
            .as_slice(),
    )
}

/// The four anomaly scenarios: `(name, graph, processors)`. The first
/// entry is the baseline; the others are the "improved" systems whose
/// list schedules degrade.
pub fn anomaly_scenarios() -> Vec<(&'static str, TaskGraph, usize)> {
    vec![
        ("original (3 procs)", graham_original(), 3),
        ("more processors (4 procs)", graham_original(), 4),
        ("shorter tasks (3 procs)", graham_shorter_times(), 3),
        (
            "relaxed precedence (3 procs)",
            graham_relaxed_precedence(),
            3,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{ListScheduler, PriorityPolicy};
    use crate::optimal::{optimal_makespan, OptimalResult};
    use anneal_sim::{simulate, SimConfig};
    use anneal_topology::builders::bus;
    use anneal_topology::CommParams;

    fn fifo_makespan(g: &TaskGraph, procs: usize) -> Work {
        let mut s = ListScheduler::new(PriorityPolicy::Fifo);
        let cfg = SimConfig {
            comm_enabled: false,
            ..SimConfig::default()
        };
        simulate(g, &bus(procs), &CommParams::zero(), &mut s, &cfg)
            .unwrap()
            .makespan
    }

    #[test]
    fn classic_list_makespans() {
        assert_eq!(fifo_makespan(&graham_original(), 3), 12 * UNIT);
        assert_eq!(fifo_makespan(&graham_original(), 4), 15 * UNIT);
        assert_eq!(fifo_makespan(&graham_shorter_times(), 3), 13 * UNIT);
        assert_eq!(fifo_makespan(&graham_relaxed_precedence(), 3), 16 * UNIT);
    }

    #[test]
    fn optima_are_unaffected_by_the_improvements() {
        assert_eq!(
            optimal_makespan(&graham_original(), 3, 10_000_000),
            OptimalResult::Exact(12 * UNIT)
        );
        assert_eq!(
            optimal_makespan(&graham_original(), 4, 10_000_000),
            OptimalResult::Exact(12 * UNIT)
        );
        assert_eq!(
            optimal_makespan(&graham_shorter_times(), 3, 10_000_000),
            OptimalResult::Exact(10 * UNIT)
        );
        assert_eq!(
            optimal_makespan(&graham_relaxed_precedence(), 3, 10_000_000),
            OptimalResult::Exact(12 * UNIT)
        );
    }

    #[test]
    fn anomalies_strictly_degrade_list_schedules() {
        let base = fifo_makespan(&graham_original(), 3);
        for (name, g, procs) in anomaly_scenarios().iter().skip(1) {
            let m = fifo_makespan(g, *procs);
            assert!(m > base, "{name}: {m} not worse than {base}");
        }
    }

    #[test]
    fn instance_shapes() {
        let g = graham_original();
        assert_eq!(g.num_tasks(), 9);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.total_work(), 34 * UNIT);
        let r = graham_relaxed_precedence();
        assert_eq!(r.num_edges(), 3);
        let s = graham_shorter_times();
        assert_eq!(s.total_work(), 25 * UNIT);
    }
}

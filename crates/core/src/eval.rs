//! Pricing complete mappings for whole-graph annealing.
//!
//! Whole-graph static SA anneals complete task→processor mappings with
//! the simulated makespan as its cost. It owns its mapping, applies
//! each move in place, and prices the whole mapping with one call:
//!
//! * [`anneal_sim::FixedEval::makespan`] — the allocation-free
//!   fast-path kernel under the fixed-mapping dispatch rule: one plain
//!   kernel run, no Gantt, no statistics, no allocated result;
//! * [`replay_mapping`] — the reference: one complete [`simulate`]
//!   (fresh route table, Gantt recording, statistics, allocated
//!   result). It is also the one shared "mapping → full [`SimResult`]"
//!   helper for the sites that need more than the makespan.
//!
//! The two agree **bit for bit** (the proptest suite in
//! `tests/evaluator.rs`). [`EvaluatorKind`] selects between them: the
//! binaries always run the kernel, the default; full replay is the
//! test and bench oracle.

use anneal_graph::levels::bottom_levels;
use anneal_graph::TaskGraph;
use anneal_sim::{simulate, FixedMapping, SimConfig, SimError, SimResult};
use anneal_topology::{CommParams, ProcId, Topology};

/// The dispatch priority shared by the level-aware static replays:
/// higher bottom level dispatches first, ties by task id (matches the
/// list-scheduler baselines).
pub fn level_dispatch_order(g: &TaskGraph) -> Vec<u64> {
    bottom_levels(g).iter().map(|&l| u64::MAX - l).collect()
}

/// How whole-graph static SA prices a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvaluatorKind {
    /// One full discrete-event simulation per mapping
    /// ([`replay_mapping`]; the reference semantics, slow).
    Full,
    /// The fast-path fixed-mapping kernel
    /// ([`anneal_sim::FixedEval::makespan`]): one kernel run per
    /// mapping, bit-identical makespans, several times faster. The name
    /// predates the kernel's plain runs and stays because the
    /// benchmark harness compiles against it: it parses an optional
    /// `evaluator=` field of `campaign.meta` into this type and passes
    /// it to `Portfolio::standard_with_lanes`.
    #[default]
    Incremental,
}

impl EvaluatorKind {
    /// Stable command-line name (`"full"` / `"incremental"`).
    pub fn name(self) -> &'static str {
        match self {
            EvaluatorKind::Full => "full",
            EvaluatorKind::Incremental => "incremental",
        }
    }
}

impl std::str::FromStr for EvaluatorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(EvaluatorKind::Full),
            "incremental" => Ok(EvaluatorKind::Incremental),
            other => Err(format!(
                "unknown evaluator '{other}' (expected 'full' or 'incremental')"
            )),
        }
    }
}

impl std::fmt::Display for EvaluatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Replays a complete mapping through the discrete-event engine.
///
/// The single shared implementation of "evaluate a static schedule
/// under the simulator's timing model": `static_sa` prices every
/// mapping with it under [`EvaluatorKind::Full`] and builds its final
/// result with it.
pub fn replay_mapping(
    g: &TaskGraph,
    topo: &Topology,
    params: &CommParams,
    sim_cfg: &SimConfig,
    mapping: Vec<ProcId>,
    order: Option<Vec<u64>>,
) -> Result<SimResult, SimError> {
    let mut sched = FixedMapping::new(mapping);
    if let Some(order) = order {
        sched = sched.with_order(order);
    }
    simulate(g, topo, params, &mut sched, sim_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::generate::{layered_random, LayeredConfig, Range};
    use anneal_graph::units::us;
    use anneal_sim::FixedEval;
    use anneal_topology::builders::hypercube;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> TaskGraph {
        let mut rng = StdRng::seed_from_u64(8);
        layered_random(
            &LayeredConfig {
                layers: 3,
                width: 5,
                edge_prob: 0.4,
                load: Range::new(us(2.0), us(30.0)),
                comm: Range::new(us(1.0), us(6.0)),
            },
            &mut rng,
        )
    }

    #[test]
    fn kind_parsing_and_names() {
        assert_eq!(
            "full".parse::<EvaluatorKind>().unwrap(),
            EvaluatorKind::Full
        );
        assert_eq!(
            "incremental".parse::<EvaluatorKind>().unwrap(),
            EvaluatorKind::Incremental
        );
        assert!("nope".parse::<EvaluatorKind>().is_err());
        assert_eq!(EvaluatorKind::Full.to_string(), "full");
        assert_eq!(EvaluatorKind::default(), EvaluatorKind::Incremental);
    }

    #[test]
    fn replay_mapping_matches_the_kernel_under_both_orders() {
        let g = sample();
        let n = g.num_tasks();
        let topo = hypercube(3);
        let params = CommParams::paper();
        let cfg = SimConfig::default();
        let mapping: Vec<ProcId> = (0..n).map(|i| ProcId::from_index(i % 8)).collect();
        // `None` is the task-id order.
        let id_order: Vec<u64> = (0..n as u64).collect();
        for (order, kernel_order) in [
            (None, id_order),
            (Some(level_dispatch_order(&g)), level_dispatch_order(&g)),
        ] {
            let r = replay_mapping(&g, &topo, &params, &cfg, mapping.clone(), order).unwrap();
            r.audit(&g).unwrap();
            let mut ev = FixedEval::new(&g, &topo, &params, &cfg, kernel_order).unwrap();
            assert_eq!(ev.makespan(&mapping).unwrap(), r.makespan);
        }
    }
}

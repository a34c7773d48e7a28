//! # annealsched
//!
//! A faithful, full-system reproduction of
//! **"Directed Taskgraph Scheduling Using Simulated Annealing"**
//! (Erik H. D'Hollander & Yves Devis, *Intl. Conf. on Parallel
//! Processing*, 1991): scheduling directed task graphs onto
//! multicomputers with staged simulated annealing, evaluated on a
//! discrete-event machine simulator against the Highest Level First
//! baseline.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`graph`] — directed task graphs (`TG = {T, R, W, <*}`), levels,
//!   critical paths, generators.
//! * [`topology`] — host architectures (`HC = {P, L}`): hypercube, bus,
//!   ring, …, distances, routes and the σ/τ communication model.
//! * [`workloads`] — the paper's four benchmark programs (Newton-Euler,
//!   Gauss-Jordan, FFT, Matrix Multiply), calibrated to Table 1.
//! * [`sim`] — the discrete-event multicomputer simulator (message
//!   overheads preempt processors, links carry one message at a time).
//! * [`core`] — the scheduling algorithms: staged SA (annealing packets,
//!   eq. 3–6 cost, heat-bath acceptance), the HLF baseline and one list
//!   scheduler with communication-aware placement rules, exact
//!   branch-and-bound, Graham anomaly instances.
//! * [`report`] — ASCII tables/charts/Gantt and CSV output.
//! * [`arena`] — scheduler-portfolio tournaments and PISA-style
//!   adversarial instance search (win/loss matrices, generated stress
//!   instances).
//!
//! ## Quickstart
//!
//! ```
//! use annealsched::prelude::*;
//!
//! // A small fork-join program.
//! let mut b = TaskGraphBuilder::new();
//! let fork = b.add_task(us(10.0));
//! let join = b.add_task(us(10.0));
//! for _ in 0..6 {
//!     let t = b.add_task(us(40.0));
//!     b.add_edge(fork, t, us(4.0)).unwrap();
//!     b.add_edge(t, join, us(4.0)).unwrap();
//! }
//! let program = b.build().unwrap();
//!
//! // Schedule it on a 8-node hypercube with the paper's comm model.
//! let host = hypercube(3);
//! let mut scheduler = SaScheduler::new(SaConfig::default());
//! let result = simulate(
//!     &program, &host, &CommParams::paper(), &mut scheduler,
//!     &SimConfig::default(),
//! ).unwrap();
//!
//! assert!(result.speedup > 1.0);
//! result.audit(&program).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub use anneal_arena as arena;
pub use anneal_core as core;
pub use anneal_graph as graph;
pub use anneal_report as report;
pub use anneal_sim as sim;
pub use anneal_topology as topology;
pub use anneal_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use anneal_arena::{
        adversarial_search, makespan_ratio, run_tournament, standard_instances, AdversaryConfig,
        ArenaInstance, Portfolio, PortfolioEntry, TournamentConfig,
    };
    pub use anneal_core::boltzmann::AcceptanceRule;
    pub use anneal_core::cooling::CoolingSchedule;
    pub use anneal_core::list::{ListScheduler, PriorityPolicy};
    pub use anneal_core::static_sa::{static_sa, StaticSaConfig};
    pub use anneal_core::{HlfScheduler, SaConfig, SaScheduler};
    pub use anneal_graph::critical_path::{critical_path_length, max_speedup};
    pub use anneal_graph::levels::bottom_levels;
    pub use anneal_graph::metrics::GraphMetrics;
    pub use anneal_graph::units::{as_us, us};
    pub use anneal_graph::{TaskGraph, TaskGraphBuilder, TaskId};
    pub use anneal_sim::{simulate, OnlineScheduler, SimConfig, SimResult};
    pub use anneal_topology::builders::{
        bus, complete, hypercube, linear, mesh, paper_architectures, ring, shared_bus, star, torus,
    };
    pub use anneal_topology::{CommParams, ProcId, Topology};
    pub use anneal_workloads::{fft_paper, gj_paper, mm_paper, ne_paper, paper_workloads};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_smoke() {
        let g = ne_paper();
        assert_eq!(g.num_tasks(), 95);
        let host = hypercube(3);
        assert_eq!(host.num_procs(), 8);
        assert!(max_speedup(&g) > 7.0);
    }
}

//! # anneal-graph
//!
//! Directed task-graph substrate for the `annealsched` project, a
//! reproduction of *"Directed Taskgraph Scheduling Using Simulated
//! Annealing"* (D'Hollander & Devis, ICPP 1991).
//!
//! A program is partitioned into a directed taskgraph
//! `TG = {T, R, W, <*}`: a set of tasks `T` with CPU-load requirements
//! `R = {r_i}`, communication weights `W = {w_ij}` on the edges, and
//! precedence constraints `<*`. This crate provides:
//!
//! * [`TaskGraph`] — a frozen, cache-friendly (CSR) representation with
//!   O(1) predecessor/successor slices,
//! * [`TaskGraphBuilder`] — incremental construction with cycle detection,
//! * level/priority computations ([`levels`]) including the paper's task
//!   level `n_i` (eq. 3 context),
//! * critical-path analysis ([`critical_path`]),
//! * seeded random-graph generators ([`generate`]),
//! * acyclicity-preserving perturbation operators for adversarial
//!   instance search ([`perturb`]),
//! * Graphviz and plain text export.
//!
//! All times are integer **nanoseconds** (see [`units`]); the paper's
//! microsecond quantities convert exactly.
//!
//! ```
//! use anneal_graph::{TaskGraphBuilder, units::us};
//!
//! let mut b = TaskGraphBuilder::new();
//! let a = b.add_task(us(4.0));
//! let c = b.add_task(us(2.0));
//! b.add_edge(a, c, us(1.0)).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.num_tasks(), 2);
//! assert_eq!(g.total_work(), us(6.0));
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
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod critical_path;
pub mod dag;
pub mod dot;
pub mod error;
pub mod generate;
pub mod ids;
pub mod levels;
pub mod metrics;
pub mod perturb;
pub mod textio;
pub mod topo;
pub mod units;

pub use builder::TaskGraphBuilder;
pub use dag::{Edge, TaskGraph};
pub use error::GraphError;
pub use ids::TaskId;
pub use units::Work;

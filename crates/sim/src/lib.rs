//! # anneal-sim
//!
//! Discrete-event multicomputer simulator for the `annealsched` project
//! (reproduction of D'Hollander & Devis, ICPP 1991).
//!
//! The paper evaluates schedules with "a simulation program … which
//! accurately records the execution and interprocessor communication".
//! This crate rebuilds that simulator:
//!
//! * **Epoch-driven online scheduling** — the first scheduling epoch is
//!   at time 0 and further epochs occur whenever processors become idle;
//!   at each epoch the engine hands the ready tasks and idle processors
//!   to an [`OnlineScheduler`] (the SA and HLF schedulers live in
//!   `anneal-core`).
//! * **Message lifecycle** — a message from a finished predecessor to a
//!   newly placed task pays the send overhead σ on the source processor,
//!   occupies each link on the route for `w_ij` (one message per channel
//!   at a time, FIFO), pays the routing overhead τ on every intermediate
//!   processor and the receive overhead τ at the destination.
//! * **Preemption** — σ/τ overheads run on the owning processor and
//!   preempt its compute task ("incoming messages preempt an active
//!   processor"); remaining compute work resumes afterwards.
//! * **Gantt recording** — compute/send/receive/route spans per
//!   processor (the paper's Figure 2), plus utilization, communication
//!   and annealing-packet statistics.
//!
//! All times are integer nanoseconds ([`SimTime`]).

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

pub mod engine;
pub mod eval;
pub mod fastpath;
pub mod gantt;
pub mod result;
pub mod scheduler;

pub use engine::{simulate, SimConfig, SimError};
pub use eval::FixedEval;
pub use fastpath::{
    simulate_makespan, simulate_makespans, KernelRunStats, LockstepStats, Rider, RouteCacheStats,
    SimScratch,
};
pub use gantt::{Gantt, Span, SpanKind};
pub use result::{CommStats, PacketStats, RunObs, SimResult};
pub use scheduler::{EpochContext, FixedMapping, GreedyScheduler, OnlineScheduler};

/// Simulated time in nanoseconds since the start of execution.
pub type SimTime = u64;

//! # anneal-core
//!
//! The primary contribution of D'Hollander & Devis (ICPP 1991): scheduling
//! a **directed** task graph onto a multicomputer by **staged simulated
//! annealing**, plus the Highest Level First baseline and supporting
//! solvers.
//!
//! ## The algorithm (paper §4–5)
//!
//! Until all tasks are assigned:
//!
//! 1. Assemble an **annealing packet**: the ready tasks (no unfinished
//!    predecessors) and the idle processors ([`packet`]).
//! 2. For cooling temperatures `Temp_k` until convergence (cost constant
//!    for five iterations) or an iteration cap ([`cooling`], [`annealer`]):
//!    * arbitrarily select a task `t_i` and a processor `p_j ≠ m_i`; if
//!      `p_j` is idle assign `t_i` to it (possibly removing `t_i` from
//!      another processor), otherwise exchange the two tasks
//!      ([`mapping`]);
//!    * accept with the Boltzmann probability `B(ΔF, Temp_k) =
//!      1/(1+e^{ΔF/Temp})` ([`boltzmann`]).
//! 3. Dispatch the selected tasks; unassigned tasks move to the next
//!    packet.
//!
//! The cost `F = w_c·F_c/ΔF_c + w_b·F_b/ΔF_b` combines the level-based
//! load-balancing term `F_b = −Σ n_i s(i)` and the eq. 4 communication
//! term ([`cost`]).
//!
//! ## Contents
//!
//! * [`sa::SaScheduler`] — the staged SA scheduler (an
//!   `anneal_sim::OnlineScheduler`).
//! * [`list::ListScheduler`] — the one list scheduler: a static priority
//!   plus a placement rule. In-order placement under
//!   [`list::PriorityPolicy::HighestLevelFirst`] is the paper's Highest
//!   Level First baseline ([`HlfScheduler`]); the other rules are
//!   communication-aware rivals adapted to the eq. 4 model — least
//!   input communication ([`list::ListScheduler::mct`]), HEFT-style
//!   earliest finish ([`list::ListScheduler::heft`]) and CPOP-style
//!   critical path on one processor ([`list::ListScheduler::cpop`]) —
//!   which isolate the value of placement awareness from stochastic
//!   search (portfolio rivals for `anneal-arena`).
//! * [`optimal`] — exact branch-and-bound makespan for small no-comm
//!   instances.
//! * [`anomaly`] — Graham (1969) multiprocessor anomaly instances; the
//!   paper observes SA "is able to optimally solve the Graham list
//!   scheduling anomalies".
//! * [`lane`] — the staged-SA lanes ([`lane::SaLane`]): the production
//!   **turbo** lane solves each packet's eq. 6 minimum exactly as a
//!   linear assignment problem, certified by a corpus-scale
//!   statistical equivalence study against the paper-literal **exact**
//!   annealer, which stays as the oracle.
//! * [`rng_stream`] — counter-based RNG streams for the turbo lane's
//!   tie-breaking: draw `k` of stream `(seed, packet)` is a pure
//!   function, so draws batch with no sequential dependency.
//! * [`parallel`] — the thread-cap-invariant job fan-out (workers claim
//!   job indices from a shared counter) with pooled per-worker scratch
//!   that portfolio evaluation runs on.
//! * [`eval`] — pricing a complete mapping: [`EvaluatorKind`] picks
//!   the fast-path fixed-mapping kernel or the full-replay reference
//!   ([`replay_mapping`]), with bit-identical makespans.
//! * [`static_sa`] — whole-graph annealing (the §3 balancing-problem
//!   style) with simulated-makespan cost, one pricing call per move,
//!   for comparison with the staged algorithm.

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

pub mod annealer;
pub mod anomaly;
pub mod boltzmann;
pub mod cooling;
pub mod cost;
pub mod eval;
pub mod lane;
pub mod list;
pub mod mapping;
pub mod optimal;
pub mod packet;
pub mod parallel;
pub mod rng_stream;
pub mod sa;
pub mod static_sa;
pub mod trace;

pub use eval::{level_dispatch_order, replay_mapping, EvaluatorKind};
pub use lane::{SaLane, SaScratch};
pub use list::HlfScheduler;
pub use parallel::{PoolStats, ScratchPool};
pub use rng_stream::{stream_draw, CounterRng};
pub use sa::{SaConfig, SaScheduler, SaStats};
pub use trace::{PacketTrace, TraceSample};

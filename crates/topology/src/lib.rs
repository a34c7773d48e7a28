//! # anneal-topology
//!
//! Host-architecture model for the `annealsched` project (reproduction of
//! D'Hollander & Devis, ICPP 1991).
//!
//! A distributed processing system `HC = {P, L}` consists of `N_p`
//! processors and an interconnection network described by the symmetric
//! link matrix `L` (`l_ij = 1` iff a point-to-point link joins `p_i` and
//! `p_j`). The distance `d(i, j)` is the number of links on the shortest
//! path. Links are bidirectional, have bandwidth `BW` and carry one
//! message at a time.
//!
//! This crate provides:
//!
//! * [`Topology`] — the link matrix plus *channel* identities used by the
//!   simulator for contention (a shared bus maps every processor pair to
//!   one channel),
//! * [`builders`] — hypercube, ring, bus, star, mesh, torus, tree, …
//!   (the paper evaluates hypercube(8), bus(8) and ring(9)),
//! * [`distance::DistanceMatrix`] — all-pairs shortest-path distances,
//! * [`routing::RouteTable`] — deterministic shortest-path routes (plus a
//!   classic e-cube router for hypercubes),
//! * [`params::CommParams`] — the message-overhead model: σ = 2S + O,
//!   τ = 2S + H + O and the eq. 4 point-to-point cost estimate.

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

pub mod builders;
pub mod distance;
pub mod metrics;
pub mod params;
pub mod proc_id;
pub mod routing;
pub mod topology;

pub use distance::DistanceMatrix;
pub use params::CommParams;
pub use proc_id::ProcId;
pub use routing::RouteTable;
pub use topology::Topology;

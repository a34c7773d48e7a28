//! # anneal-fleet
//!
//! Crash-safe campaign execution in one process. A campaign can be
//! killed at any instant, have its artifacts deleted, truncated or
//! corrupted, be resumed, re-sharded or run as several processes over
//! one directory, and the final merged artifacts are still
//! byte-identical to a fault-free run. Two pieces make that true:
//!
//! * [`artifact`] — crash-safe artifact I/O: every file is committed
//!   with write-then-rename ([`commit_bytes`]) so a kill at any instant
//!   never publishes a partial file, and every campaign artifact
//!   carries a content-checksum footer ([`seal`]/[`unseal`]) so a
//!   truncated or corrupted file is *detected* and
//!   [`quarantine`]d instead of poisoning a resume or merge.
//! * [`worker`] — [`run_worker`], one pass over the shards that skips
//!   shards whose artifacts are all valid, quarantines corrupt ones and
//!   runs each of the rest once. Resume plus quarantine is the whole
//!   recovery story because shard results are pure functions of the
//!   campaign parameters (cell seeds key on global instance indices):
//!   a re-run commits byte-identical artifacts, and a run that fails
//!   would fail the same way again, so nothing is retried.
//!
//! [`lease`] (claim files with expiry) is not used by the campaign; it
//! remains only because the benchmark harness times [`try_claim`].
//!
//! See `docs/FLEET.md` for the artifact layout and the recovery rules.

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

pub mod artifact;
pub mod lease;
pub mod worker;

pub use artifact::{
    commit_bytes, fnv1a64, quarantine, read_sealed, seal, unseal, ArtifactError, CHECKSUM_PREFIX,
};
pub use lease::{force_claim, lease_file_name, try_claim, unix_time_ms, Claim, Lease, LeaseConfig};
pub use worker::{run_worker, shard_done, FleetEvent, FleetStats, ShardRunner};

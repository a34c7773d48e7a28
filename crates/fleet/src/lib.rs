//! # anneal-fleet
//!
//! Fault-tolerant campaign execution in one process. A campaign can be
//! killed at any instant, have its artifacts truncated or corrupted,
//! be resumed, re-sharded or run as several processes over one
//! directory, and the final merged artifacts are still byte-identical
//! to a fault-free run. Three pieces make that true:
//!
//! * [`artifact`] — crash-safe artifact I/O: every file is committed
//!   with write-then-rename ([`commit_bytes`]) so a kill at any instant
//!   never publishes a partial file, and every campaign artifact
//!   carries a content-checksum footer ([`seal`]/[`unseal`]) so a
//!   truncated or corrupted file is *detected* and
//!   [`quarantine`]d instead of poisoning a resume or merge.
//! * [`worker`] — [`run_worker`], one sequential pass that skips shards
//!   whose artifacts are all valid, quarantines corrupt ones, re-runs
//!   the rest under a persisted attempt budget, and reports shards that
//!   exhaust it. Re-execution is always safe because shard results are
//!   pure functions of the campaign parameters (cell seeds key on
//!   global instance indices), so a re-run commits byte-identical
//!   artifacts.
//! * [`fault`] — a seeded, deterministic fault-injection plan
//!   ([`FaultPlan`]): kill-at-attempt, truncate-artifact and
//!   corrupt-byte injections keyed on `(seed, shard, attempt)`, which
//!   is what lets the chaos suite certify the headline invariant: *for
//!   any injected failure pattern, recovery produces a merge
//!   byte-identical to the fault-free run*.
//!
//! [`report`] renders the deterministic `fleet.report.json` failure
//! manifest so an exhausted shard is reported, never silently dropped.
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
pub mod fault;
pub mod lease;
pub mod report;
pub mod worker;

pub use artifact::{
    commit_bytes, fnv1a64, quarantine, read_sealed, seal, unseal, ArtifactError, CHECKSUM_PREFIX,
};
pub use fault::{FaultKind, FaultPlan};
pub use lease::{force_claim, lease_file_name, try_claim, unix_time_ms, Claim, Lease, LeaseConfig};
pub use report::{render_report, ShardReport};
pub use worker::{
    attempts_file_name, read_attempts, run_worker, shard_state, FleetConfig, FleetEvent,
    FleetStats, KillMode, ShardRunner, ShardState, WorkerOutcome, CHAOS_KILL_EXIT,
};

//! # anneal-obs
//!
//! The deterministic metrics & tracing layer for the annealsched
//! workspace. Everything in this repository is contractually
//! byte-reproducible — tournament CSVs, campaign merges, corpus
//! baselines — which rules out the usual observability approach of
//! sprinkling wall-clock reads and global mutable registries through
//! the hot path. This crate provides the sanctioned alternative:
//!
//! * [`Recorder`] — the narrow sink interface instrumented code writes
//!   to. [`NoopRecorder`] is the zero-cost default (every call is a
//!   no-op the optimizer deletes; no allocation, no branch on data);
//!   [`MetricsRegistry`] is the concrete collector.
//! * [`MetricsRegistry`] — deterministic counters, gauges (high-water
//!   marks) and fixed-bucket log₂-scale histograms. Its
//!   [`merge`](MetricsRegistry::merge) is associative and commutative,
//!   so merging per-worker or per-shard registries yields the same
//!   bytes regardless of worker count, merge order, or how the work was
//!   sharded.
//! * [`Clock`] / [`Span`] — the only sanctioned way to read time.
//!   [`WallClock`] lives *here* (and is constructed only by binaries);
//!   [`NullClock`] replaces it in deterministic CI mode, pinning every
//!   duration to zero. `clippy.toml` disallows `Instant` and
//!   `SystemTime` everywhere else (docs/LINTS.md, rule L5).
//! * [`JsonlSink`] — an append-only JSON-lines buffer with caller-fixed
//!   field order, so emitted artifacts diff cleanly and CI can compare
//!   them byte for byte.
//!
//! ## Metric classes
//!
//! Key names carry their determinism class (see
//! [`class_of`] and `docs/OBSERVABILITY.md`):
//!
//! | prefix   | class                        | invariant |
//! |----------|------------------------------|-----------|
//! | `time.`  | wall-clock timing            | none — varies run to run |
//! | `sched.` | execution-schedule dependent | deterministic totals only for a fixed thread plan and history |
//! | other    | deterministic                | byte-identical across `--threads`, re-sharding and resume |
//!
//! [`MetricsRegistry::deterministic_only`] filters a registry down to
//! the last class, which is what CI compares across re-sharding and
//! resume.

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

pub mod clock;
pub mod json;
pub mod jsonl;
pub mod recorder;
pub mod registry;

pub use clock::{Clock, NullClock, Span, WallClock};
pub use jsonl::{EventWriter, JsonlSink};
pub use recorder::{NoopRecorder, Recorder};
pub use registry::{class_of, Histogram, MetricClass, MetricValue, MetricsRegistry, ObsError};

//! # perfbench
//!
//! One benchmark for the annealsched scheduler stack. Four workloads:
//!
//! * `paper-sa` — the paper's Table 2 grid scheduled by staged SA, one
//!   schedule at a time ([`paper`]);
//! * `campaign-fast`, `campaign-full`, `campaign-metrics` — the real
//!   `campaign` binary on the generated campaign family (`campaign`).
//!
//! An untraced run measures the end-to-end metrics
//! ([`metrics::END_TO_END`]); a traced run (`--trace 1`) puts spans
//! (`trace`) around the benchmark's own calls into each layer's
//! public functions and reports [`metrics::per_layer`]. Both check
//! their outputs and count every failed cell.
//!
//! See `perfbench/README.md` for the workloads, metrics and baseline.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
pub mod host;
pub mod metrics;
pub mod paper;
#[allow(unsafe_code)]
mod proc;
pub mod stats;
mod trace;

use std::path::PathBuf;

use metrics::Report;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 2 grid, staged SA, closed loop of one user.
    PaperSa,
    /// `campaign` with the default (fast) portfolio.
    CampaignFast,
    /// `campaign --full` (adds whole-graph static SA).
    CampaignFull,
    /// `campaign --metrics PATH`.
    CampaignMetrics,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSa,
        Workload::CampaignFast,
        Workload::CampaignFull,
        Workload::CampaignMetrics,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSa => "paper-sa",
            Workload::CampaignFast => "campaign-fast",
            Workload::CampaignFull => "campaign-full",
            Workload::CampaignMetrics => "campaign-metrics",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work a run does. [`Sizes::standard`] is what the benchmark
/// measures; [`Sizes::tiny`] keeps the tests fast.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// SA seeds per Table 2 cell in one pass of `paper-sa`.
    pub paper_seeds: usize,
    /// Fewest schedules `paper-sa` measures, so that p99 has at least
    /// ten samples beyond it.
    pub min_schedules: usize,
    /// Campaign family size of `campaign-fast` and `campaign-metrics`.
    pub fast_instances: usize,
    /// Campaign family size of `campaign-full`.
    pub full_instances: usize,
    /// Campaign shard count.
    pub shards: usize,
    /// Set-ups whose median is `setup_s`: minimal campaign invocations,
    /// or `paper-sa`'s grid build plus warm-up schedule.
    pub setup_reps: usize,
    /// Fewest timed repetitions (passes or invocations) per run.
    pub min_reps: usize,
    /// Campaign cells re-evaluated through the general engine.
    pub check_cells: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn standard() -> Sizes {
        Sizes {
            paper_seeds: 16,
            min_schedules: 1000,
            fast_instances: 2000,
            full_instances: 500,
            shards: 8,
            setup_reps: 7,
            min_reps: 3,
            check_cells: 39,
        }
    }

    /// Small sizes for tests: seconds, not minutes.
    pub fn tiny() -> Sizes {
        Sizes {
            paper_seeds: 1,
            min_schedules: 0,
            fast_instances: 16,
            full_instances: 8,
            shards: 4,
            setup_reps: 2,
            min_reps: 2,
            check_cells: 13,
        }
    }
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures (it always completes `min_reps`).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Path of the built `campaign` binary.
    pub campaign_bin: PathBuf,
    /// Scratch directory for campaign output; created if missing.
    pub work_dir: PathBuf,
    /// Work sizes.
    pub sizes: Sizes,
    /// Worker threads (`--threads` of the campaign binary).
    pub threads: usize,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values.
    pub report: Report,
    /// Cells attempted (schedules for `paper-sa`).
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Digest of every makespan the run produced, in a fixed order.
    pub digest: u64,
    /// Human-readable lines printed with the result (decompositions).
    pub notes: Vec<String>,
    /// Recorded spans as JSON lines (traced runs).
    pub spans: String,
}

impl Outcome {
    /// Records a failed check covering `cells` cells.
    pub fn fail(&mut self, cells: u64, msg: impl Into<String>) {
        self.failed += cells;
        self.errors.push(msg.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }
}

/// Runs one workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = match cfg.workload {
        Workload::PaperSa => paper::run(cfg),
        _ => campaign::run(cfg),
    };
    let attempted = out.attempted.max(1) as f64;
    let failed_frac = out.failed as f64 / attempted;
    if !cfg.trace {
        out.report.set("failed_frac", failed_frac);
    } else {
        out.report.zero_missing(&metrics::per_layer());
    }
    out
}

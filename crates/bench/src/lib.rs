//! # anneal-bench
//!
//! Reproduction harness for every table and figure in D'Hollander &
//! Devis (ICPP 1991), plus ablation studies and Criterion benches.
//!
//! Binaries (run with `cargo run --release -p anneal-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — program characteristics |
//! | `table2` | Table 2 — SA vs HLF speedups (use `--fast` for a quick pass) |
//! | `figure1` | Figure 1 — cost trajectories of one NE annealing packet |
//! | `figure2` | Figure 2 — Gantt chart of NE on the 8-proc hypercube |
//! | `annealing_stats` | §6a — packets / candidates / idle processors |
//! | `anomalies` | §6b — Graham anomalies: list vs SA vs optimal |
//! | `random_survey` | §6 — HLF and SA vs exact optimum on random graphs |
//! | `ablations` | cooling / acceptance / weights / contention studies |
//! | `arena` | portfolio tournament over every scheduler (`anneal-arena`): win/loss CSV + SVG |
//! | `campaign` | sharded 1000-instance tournament with resumable shards and a byte-reproducible merge |
//! | `corpus_gen` | regenerates the frozen adversarial regression corpus (`corpus/`) and its baseline |
//! | `lane_study` | turbo-vs-exact SA lane equivalence study and gate (`results/LANE_EQUIV.json`) |
//! | `scaling` | extension: SA and HLF speedup vs processor count on growing hypercubes and rings |
//!
//! This library holds the shared experiment runners and the argument
//! parser ([`cli`]) so the binaries and the Criterion benches stay thin.
//!
//! Every bin that reproduces a paper table or figure (`table2`,
//! `figure1`, `figure2`, `annealing_stats`, `anomalies`,
//! `random_survey`, `ablations`, `scaling`) runs the paper's annealer,
//! [`SaLane::Exact`]: the production turbo lane solves each packet
//! without annealing it, so it has no trajectory to chart and no
//! cooling, acceptance or keep-best setting to compare.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod cli;

use anneal_core::{HlfScheduler, SaConfig, SaLane, SaScheduler};
use anneal_graph::TaskGraph;
use anneal_sim::{simulate, SimConfig, SimResult};
use anneal_topology::{CommParams, Topology};

/// Communication mode of an experiment (the two halves of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// "w/o Comm.": messages are free and skipped.
    Off,
    /// "with Comm.": the paper's σ = 7 µs, τ = 9 µs, 10 Mb/s model.
    On,
}

impl CommMode {
    /// Both modes, in Table-2 column order.
    pub fn both() -> [CommMode; 2] {
        [CommMode::Off, CommMode::On]
    }

    /// The communication parameters for this mode.
    pub fn params(self) -> CommParams {
        match self {
            CommMode::Off => CommParams::zero(),
            CommMode::On => CommParams::paper(),
        }
    }

    /// The engine configuration for this mode.
    pub fn sim_config(self) -> SimConfig {
        SimConfig {
            comm_enabled: self == CommMode::On,
            ..SimConfig::default()
        }
    }

    /// Table-2 column label.
    pub fn label(self) -> &'static str {
        match self {
            CommMode::Off => "w/o Comm.",
            CommMode::On => "with Comm.",
        }
    }
}

/// Runs the deterministic HLF baseline.
#[expect(
    clippy::expect_used,
    reason = "bench harness entry point: a failed simulation should abort the experiment"
)]
pub fn run_hlf(g: &TaskGraph, topo: &Topology, mode: CommMode) -> SimResult {
    let mut s = HlfScheduler::new();
    simulate(g, topo, &mode.params(), &mut s, &mode.sim_config()).expect("HLF run failed")
}

/// Runs SA once with an explicit configuration, on the lane it names.
#[expect(
    clippy::expect_used,
    reason = "bench harness entry point: a failed simulation should abort the experiment"
)]
pub fn run_sa(g: &TaskGraph, topo: &Topology, mode: CommMode, cfg: SaConfig) -> SimResult {
    let mut s = SaScheduler::new(cfg);
    simulate(g, topo, &mode.params(), &mut s, &mode.sim_config()).expect("SA run failed")
}

/// The tuning grid used by the Table-2 harness. The paper states the
/// weights "are chosen such that w_b + w_c = 1 and can be tuned to
/// optimize the allocation for the highest speed-up"; this mirrors that
/// methodology with a small deterministic sweep of the paper's
/// annealer ([`SaLane::Exact`]).
pub fn tuning_grid(fast: bool) -> Vec<SaConfig> {
    let weights: &[f64] = if fast { &[0.5] } else { &[0.3, 0.5, 0.7] };
    let seeds: &[u64] = if fast { &[42] } else { &[42, 1, 2] };
    let mut out = Vec::new();
    for &wb in weights {
        for &seed in seeds {
            out.push(
                SaConfig::default()
                    .with_balance_weight(wb)
                    .with_seed(seed)
                    .with_lane(SaLane::Exact),
            );
        }
    }
    out
}

/// Runs SA over the tuning grid and keeps the best (highest-speedup)
/// result; ties break toward the earlier grid entry. Returns the result
/// and the winning configuration.
#[expect(
    clippy::expect_used,
    reason = "the tuning grid is a non-empty constant"
)]
pub fn run_sa_tuned(
    g: &TaskGraph,
    topo: &Topology,
    mode: CommMode,
    fast: bool,
) -> (SimResult, SaConfig) {
    let mut best: Option<(SimResult, SaConfig)> = None;
    for cfg in tuning_grid(fast) {
        let r = run_sa(g, topo, mode, cfg.clone());
        let better = match &best {
            None => true,
            Some((b, _)) => r.makespan < b.makespan,
        };
        if better {
            best = Some((r, cfg));
        }
    }
    best.expect("non-empty grid")
}

/// Percentage gain of SA over HLF (the paper's "% gain" columns).
pub fn gain_pct(sa_speedup: f64, hlf_speedup: f64) -> f64 {
    (sa_speedup / hlf_speedup - 1.0) * 100.0
}

/// The paper's Table 2, for side-by-side comparison:
/// `(program, topology, [s_sa_wo, s_hlf_wo, s_sa_with, s_hlf_with])`.
pub fn paper_table2() -> Vec<(&'static str, &'static str, [f64; 4])> {
    vec![
        ("Newton-Euler", "hypercube(8)", [7.20, 6.90, 5.60, 4.90]),
        ("Newton-Euler", "bus(8)", [7.20, 6.90, 6.20, 5.20]),
        ("Newton-Euler", "ring(9)", [8.00, 8.00, 5.50, 3.60]),
        ("Gauss-Jordan", "hypercube(8)", [6.67, 6.67, 4.80, 4.64]),
        ("Gauss-Jordan", "bus(8)", [6.76, 6.67, 4.93, 4.74]),
        ("Gauss-Jordan", "ring(9)", [8.25, 8.25, 5.02, 4.77]),
        ("Matrix Multiply", "hypercube(8)", [7.75, 7.75, 6.11, 5.19]),
        ("Matrix Multiply", "bus(8)", [7.75, 7.75, 6.34, 5.71]),
        ("Matrix Multiply", "ring(9)", [8.38, 8.38, 6.04, 4.96]),
        ("FFT", "hypercube(8)", [7.38, 7.38, 6.23, 4.93]),
        ("FFT", "bus(8)", [7.48, 7.38, 6.27, 5.58]),
        ("FFT", "ring(9)", [8.43, 8.43, 5.97, 5.10]),
    ]
}

/// Where the harness binaries drop CSV artifacts.
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("results")
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_topology::builders::hypercube;
    use anneal_workloads::ne_paper;

    #[test]
    fn comm_modes() {
        assert!(CommMode::Off.params().is_free());
        assert!(!CommMode::On.params().is_free());
        assert!(!CommMode::Off.sim_config().comm_enabled);
        assert_eq!(CommMode::On.label(), "with Comm.");
    }

    #[test]
    fn tuning_grid_sizes() {
        assert_eq!(tuning_grid(true).len(), 1);
        assert_eq!(tuning_grid(false).len(), 9);
    }

    #[test]
    fn gain_formula() {
        assert!((gain_pct(5.6, 4.9) - 14.2857).abs() < 1e-3);
        assert_eq!(gain_pct(5.0, 5.0), 0.0);
    }

    #[test]
    fn runners_produce_audited_results() {
        let g = ne_paper();
        let topo = hypercube(3);
        let rh = run_hlf(&g, &topo, CommMode::Off);
        rh.audit(&g).unwrap();
        let (rs, _) = run_sa_tuned(&g, &topo, CommMode::Off, true);
        rs.audit(&g).unwrap();
        // w/o comm the two agree on this workload
        assert_eq!(rs.makespan, rh.makespan);
    }

    #[test]
    fn paper_reference_is_complete() {
        let t2 = paper_table2();
        assert_eq!(t2.len(), 12);
        for (_, _, vals) in t2 {
            assert!(vals.iter().all(|&v| v > 0.0));
        }
    }
}

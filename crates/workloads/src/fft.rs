//! Fast Fourier Transform task graphs (vector operations).
//!
//! Two generators:
//!
//! * [`fft_recombine`] — the paper-shaped decomposition: a radix-`r`
//!   decimation-in-time FFT computed as `r²` independent *leaf* FFTs over
//!   interleaved sub-sequences, recombined by `r` first-level combine
//!   tasks and one final combine. Tasks: `r² + r + 1` (73 for `r = 8`),
//!   three levels deep — matching Table 1's very high max speedup
//!   (40.85 with 73 tasks means a critical path under two average task
//!   durations, i.e. a wide and shallow graph).
//! * [`fft_butterfly`] — the textbook radix-2 butterfly dataflow
//!   (`log₂N` stages of `N/2` butterfly tasks), provided for experiments
//!   beyond the paper's instance.

use anneal_graph::units::{us, Work};
use anneal_graph::{TaskGraph, TaskGraphBuilder};

/// Configuration of the recombination-tree FFT generator.
#[derive(Debug, Clone)]
pub struct FftConfig {
    /// Radix `r`: `r²` leaf FFT tasks feed `r` combiners and one final
    /// combine. The paper instance uses 8.
    pub radix: usize,
    /// Mean duration of one leaf FFT task (ns).
    pub leaf_op: Work,
    /// Per-group duration spread (ns): leaves of group `g` run for
    /// `leaf_op + (radix − 1 − 2g)·leaf_spread/2`, so earlier groups are
    /// slightly heavier. Real partitioned FFT leaves never cost exactly
    /// the same; the spread also makes group affinity visible to
    /// level-based schedulers (group means differ while the global mean
    /// stays `leaf_op`).
    pub leaf_spread: Work,
    /// Duration of one first-level combine task (ns).
    pub combine_op: Work,
    /// Duration of the final combine task (ns).
    pub final_op: Work,
    /// Communication weight per sub-spectrum transfer (ns).
    pub block_comm: Work,
}

impl Default for FftConfig {
    fn default() -> Self {
        // Durations solve: 64·l + 8·c + f = 5310 us (work) and
        // l + c + f = 130 us (critical path), reproducing Table 1's
        // avg 72.74 us and max speedup 40.85 for 73 tasks.
        FftConfig {
            radix: 8,
            leaf_op: us(77.0),
            leaf_spread: us(0.4),
            combine_op: us(47.0),
            final_op: us(6.0),
            block_comm: us(6.5),
        }
    }
}

/// Number of tasks produced: `r² + r + 1`.
pub fn task_count(cfg: &FftConfig) -> usize {
    cfg.radix * cfg.radix + cfg.radix + 1
}

/// Builds the recombination-tree FFT task graph.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "the workload generator emits forward, duplicate-free edges"
)]
pub fn fft_recombine(cfg: &FftConfig) -> TaskGraph {
    assert!(cfg.radix >= 1);
    let r = cfg.radix;
    let mut b = TaskGraphBuilder::with_capacity(task_count(cfg), r * r + r);
    let final_t = b.add_named_task(cfg.final_op, "combine.final");
    for g in 0..r {
        let comb = b.add_named_task(cfg.combine_op, format!("combine.{g}"));
        // Group offsets are symmetric around zero so the mean duration
        // stays exactly `leaf_op` for even radices.
        let offset = (r as i64 - 1 - 2 * g as i64) * cfg.leaf_spread as i64 / 2;
        let leaf_dur = cfg.leaf_op.saturating_add_signed(offset);
        for j in 0..r {
            let leaf = b.add_named_task(leaf_dur, format!("leaf.{g}.{j}"));
            b.add_edge(leaf, comb, cfg.block_comm).unwrap();
        }
        b.add_edge(comb, final_t, cfg.block_comm).unwrap();
    }
    b.build().expect("fft recombination tree is acyclic")
}

/// Configuration of the radix-2 butterfly FFT generator.
#[derive(Debug, Clone)]
pub struct ButterflyConfig {
    /// Transform size `N` (power of two, ≥ 2).
    pub n: usize,
    /// Duration of one butterfly vector op (ns).
    pub butterfly_op: Work,
    /// Communication weight per operand pair (ns).
    pub pair_comm: Work,
}

impl Default for ButterflyConfig {
    fn default() -> Self {
        ButterflyConfig {
            n: 16,
            butterfly_op: us(20.0),
            pair_comm: us(8.0),
        }
    }
}

/// Builds the classic radix-2 decimation-in-time butterfly dataflow:
/// `log₂N` stages of `N/2` butterflies; the butterfly owning points
/// `(i, i ^ 2^s)` at stage `s` reads the two stage-`s−1` butterflies that
/// produced those points.
#[expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "the workload generator emits forward, duplicate-free edges"
)]
pub fn fft_butterfly(cfg: &ButterflyConfig) -> TaskGraph {
    let n = cfg.n;
    assert!(
        n >= 2 && n.is_power_of_two(),
        "N must be a power of two >= 2"
    );
    let stages = n.trailing_zeros() as usize;
    let half = n / 2;
    let mut b = TaskGraphBuilder::with_capacity(stages * half, stages * half * 2);

    // owner[i] = task that produced point i at the previous stage.
    let mut owner: Vec<Option<anneal_graph::TaskId>> = vec![None; n];
    for s in 0..stages {
        let stride = 1usize << s;
        let mut new_owner = vec![None; n];
        let mut bf_index = 0usize;
        for i in 0..n {
            if i & stride == 0 {
                let j = i | stride;
                let t = b.add_named_task(cfg.butterfly_op, format!("bf{s}.{bf_index}"));
                bf_index += 1;
                for &pt in &[i, j] {
                    if let Some(src) = owner[pt] {
                        b.add_or_merge_edge(src, t, cfg.pair_comm).unwrap();
                    }
                }
                new_owner[i] = Some(t);
                new_owner[j] = Some(t);
            }
        }
        owner = new_owner;
    }
    b.build().expect("butterfly dataflow is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::critical_path::{critical_path_length, max_speedup};
    use anneal_graph::levels::layers;
    use anneal_graph::metrics::GraphMetrics;

    #[test]
    fn paper_task_count() {
        assert_eq!(fft_recombine(&FftConfig::default()).num_tasks(), 73);
    }

    #[test]
    fn recombine_depth_three() {
        let g = fft_recombine(&FftConfig::default());
        assert_eq!(layers(&g).len(), 3);
        assert_eq!(g.roots().len(), 64);
        assert_eq!(g.leaves().len(), 1);
    }

    #[test]
    fn table1_statistics() {
        let cfg = FftConfig::default();
        let g = fft_recombine(&cfg);
        let m = GraphMetrics::compute(&g);
        assert!(
            (m.avg_duration_us() - 72.74).abs() < 0.1,
            "{}",
            m.avg_duration_us()
        );
        // the per-group spread lengthens the critical path slightly:
        // 40.4 vs the paper's 40.85 (within ~1.2 %)
        assert!((m.max_speedup - 40.85).abs() < 0.5, "{}", m.max_speedup);
        let heaviest_leaf = cfg.leaf_op + 7 * cfg.leaf_spread / 2;
        assert_eq!(
            critical_path_length(&g),
            heaviest_leaf + cfg.combine_op + cfg.final_op
        );
    }

    #[test]
    fn group_durations_symmetric_around_mean() {
        let cfg = FftConfig::default();
        let g = fft_recombine(&cfg);
        let leaf_total: u64 = g
            .tasks()
            .filter(|&t| g.name(t).starts_with("leaf"))
            .map(|t| g.load(t))
            .sum();
        assert_eq!(leaf_total, 64 * cfg.leaf_op);
    }

    #[test]
    fn radix_one_degenerate() {
        let cfg = FftConfig {
            radix: 1,
            ..FftConfig::default()
        };
        let g = fft_recombine(&cfg);
        assert_eq!(g.num_tasks(), 3);
        assert_eq!(layers(&g).len(), 3);
    }

    #[test]
    fn butterfly_shape() {
        let cfg = ButterflyConfig::default(); // N=16
        let g = fft_butterfly(&cfg);
        assert_eq!(g.num_tasks(), 4 * 8); // log2(16) stages x 8 butterflies
        assert_eq!(layers(&g).len(), 4);
        // First stage has no inputs; every other butterfly reads 2 parents.
        assert_eq!(g.roots().len(), 8);
        assert_eq!(g.leaves().len(), 8);
    }

    #[test]
    fn butterfly_speedup_bounded_by_width(/* wide graph, log-depth */) {
        let g = fft_butterfly(&ButterflyConfig::default());
        let s = max_speedup(&g);
        assert!(s <= 8.0 + 1e-9);
        assert!((s - 8.0).abs() < 1e-9); // uniform durations -> exactly N/2
    }

    #[test]
    fn butterfly_minimum_size() {
        let cfg = ButterflyConfig {
            n: 2,
            ..ButterflyConfig::default()
        };
        let g = fft_butterfly(&cfg);
        assert_eq!(g.num_tasks(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn butterfly_rejects_non_power() {
        fft_butterfly(&ButterflyConfig {
            n: 12,
            ..ButterflyConfig::default()
        });
    }
}

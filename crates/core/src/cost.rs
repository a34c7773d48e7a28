//! The cost function (paper §4.2, equations 3–6).
//!
//! ```text
//! F_b = − Σ_i n_i s(i)                       (3)  load balancing
//! F_c = Σ  c_ij  over the packet             (5)  communication
//! F   = w_c·F_c/ΔF_c + w_b·F_b/ΔF_b          (6)  normalized total
//! ```
//!
//! `ΔF_b` is the range of the balancing term: `Max − Min`, where `Max`
//! (`Min`) is the cumulative level value if the `N_idle` free processors
//! executed the highest- (lowest-) level candidates. `ΔF_c` estimates
//! the maximum communication cost by placing the tasks with the highest
//! communication at the largest distance — here computed exactly as the
//! sum of the `min(N, N_idle)` largest per-task worst-case placement
//! costs. The packet takes both integer sums when it is loaded
//! ([`AnnealingPacket`]); [`CostModel::new`] turns them into the two
//! ranges, each falling back to 1 when degenerate so the normalized
//! terms stay finite, and allocates nothing. Both SA lanes price with
//! one model: the exact lane's annealer by [`CostModel::delta`] per move,
//! the turbo lane's solver by the matrix `k_c·c_tq − k_b·n_t`
//! ([`crate::lane`]), and both by [`CostModel::raw_full`] for a whole
//! mapping.

use crate::mapping::Move;
use crate::packet::AnnealingPacket;

/// How `ΔF_b` is derived from the level range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceRange {
    /// `ΔF_b = Max − Min` (normalized balance term spans width 1).
    Full,
    /// `ΔF_b = (Max − Min) / N_idle` — the literal reading of the
    /// paper's "(Max − Min)/N_idle"; equivalent to `Full` up to a
    /// rescaling of `w_b`.
    PerIdle,
}

/// Evaluates packet mappings under eq. 6.
#[derive(Debug, Clone)]
pub struct CostModel<'p> {
    packet: &'p AnnealingPacket,
    /// Load-balance weight `w_b`.
    pub wb: f64,
    /// Communication weight `w_c`.
    pub wc: f64,
    range_b: f64,
    range_c: f64,
}

impl<'p> CostModel<'p> {
    /// Builds the model; `wb + wc` should be 1 (the paper's convention)
    /// but any finite non-negative weights work.
    pub fn new(packet: &'p AnnealingPacket, wb: f64, wc: f64, balance: BalanceRange) -> Self {
        assert!(
            wb >= 0.0 && wc >= 0.0 && wb.is_finite() && wc.is_finite(),
            "weights must be finite and non-negative"
        );
        let per = match balance {
            BalanceRange::Full => 1.0,
            BalanceRange::PerIdle => packet.num_procs() as f64,
        };
        let range_b = match packet.level_span {
            0 => 1.0,
            span => span as f64 / per,
        };
        let range_c = match packet.worst_sum {
            0 => 1.0,
            sum => sum as f64,
        };
        CostModel {
            packet,
            wb,
            wc,
            range_b,
            range_c,
        }
    }

    /// The packet this model prices.
    pub fn packet(&self) -> &'p AnnealingPacket {
        self.packet
    }

    /// The `ΔF_b` normalization constant.
    pub fn range_b(&self) -> f64 {
        self.range_b
    }

    /// The `ΔF_c` normalization constant.
    pub fn range_c(&self) -> f64 {
        self.range_c
    }

    /// Raw `(F_b, F_c)` of a mapping given as its `(task index,
    /// processor index)` pairs, by full recomputation in the pairs'
    /// order.
    pub fn raw_full(&self, assignments: impl IntoIterator<Item = (usize, usize)>) -> (f64, f64) {
        let mut fb = 0.0;
        let mut fc = 0.0;
        for (t, p) in assignments {
            fb -= self.packet.levels()[t] as f64;
            fc += self.packet.comm_cost(t, p) as f64;
        }
        (fb, fc)
    }

    /// Normalized weighted total of raw terms (eq. 6).
    pub fn total(&self, fb_raw: f64, fc_raw: f64) -> f64 {
        self.wb * fb_raw / self.range_b + self.wc * fc_raw / self.range_c
    }

    /// Normalized balance term alone.
    pub fn balance_term(&self, fb_raw: f64) -> f64 {
        self.wb * fb_raw / self.range_b
    }

    /// Normalized communication term alone.
    pub fn comm_term(&self, fc_raw: f64) -> f64 {
        self.wc * fc_raw / self.range_c
    }

    /// Raw `(ΔF_b, ΔF_c)` change if `mv` were applied to the mapping it
    /// was proposed against (without applying it). O(1) — the move
    /// already carries the affected occupancies, so no mapping lookup
    /// is needed.
    pub fn delta(&self, mv: Move) -> (f64, f64) {
        let lv = |t: usize| self.packet.levels()[t] as f64;
        let cc = |t: usize, p: usize| self.packet.comm_cost(t, p) as f64;
        match mv {
            Move::Transfer { task, to, from } => {
                let old_fc = from.map_or(0.0, |f| cc(task, f));
                let old_fb = if from.is_some() { -lv(task) } else { 0.0 };
                (-lv(task) - old_fb, cc(task, to) - old_fc)
            }
            Move::Swap {
                task,
                other,
                to,
                from,
            } => {
                // before: task on `from` (or out), other on `to`
                // after:  task on `to`, other on `from` (or out)
                let fb_before = from.map_or(0.0, |_| -lv(task)) - lv(other);
                let fb_after = -lv(task) + from.map_or(0.0, |_| -lv(other));
                let fc_before = from.map_or(0.0, |f| cc(task, f)) + cc(other, to);
                let fc_after = cc(task, to) + from.map_or(0.0, |f| cc(other, f));
                (fb_after - fb_before, fc_after - fc_before)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::PacketMapping;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 3 tasks (levels 100, 60, 30) on 2 procs with a comm table.
    fn packet() -> AnnealingPacket {
        AnnealingPacket::from_rows(&[100, 60, 30], &[[0, 40], [10, 0], [5, 25]])
    }

    #[test]
    fn ranges() {
        let p = packet();
        let cm = CostModel::new(&p, 0.5, 0.5, BalanceRange::Full);
        // k = 2; Max = 100+60, Min = 30+60 -> range_b = 70.
        assert_eq!(cm.range_b(), 70.0);
        // top-2 worst comm: 40 + 25 = 65.
        assert_eq!(cm.range_c(), 65.0);

        let cm2 = CostModel::new(&p, 0.5, 0.5, BalanceRange::PerIdle);
        assert_eq!(cm2.range_b(), 35.0);
    }

    #[test]
    fn degenerate_ranges_fall_back_to_one() {
        let p = AnnealingPacket::from_rows(&[50], &[[0]]);
        let cm = CostModel::new(&p, 0.5, 0.5, BalanceRange::Full);
        assert_eq!(cm.range_b(), 1.0);
        assert_eq!(cm.range_c(), 1.0);
    }

    #[test]
    fn full_cost_matches_hand_computation() {
        let p = packet();
        let cm = CostModel::new(&p, 0.5, 0.5, BalanceRange::Full);
        let mut m = PacketMapping::new(3, 2);
        m.saturate_in_order(); // t0->p0, t1->p1
        let (fb, fc) = cm.raw_full(m.assignments());
        assert_eq!(fb, -160.0);
        assert_eq!(fc, 0.0);
        let f = cm.total(fb, fc);
        assert!((f - 0.5 * (-160.0) / 70.0).abs() < 1e-12);
        assert_eq!(cm.balance_term(fb) + cm.comm_term(fc), f);
    }

    #[test]
    fn deltas_match_recomputation_randomized() {
        let p = packet();
        let cm = CostModel::new(&p, 0.4, 0.6, BalanceRange::Full);
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = PacketMapping::new(3, 2);
        m.saturate_random(&mut rng);
        let (mut fb, mut fc) = cm.raw_full(m.assignments());
        for _ in 0..500 {
            let task = rng.gen_range(0..3);
            let proc = rng.gen_range(0..2);
            let Some(mv) = m.propose(task, proc) else {
                continue;
            };
            let (dfb, dfc) = cm.delta(mv);
            m.apply(mv);
            fb += dfb;
            fc += dfc;
            let (fb2, fc2) = cm.raw_full(m.assignments());
            assert!((fb - fb2).abs() < 1e-9, "fb drift: {fb} vs {fb2}");
            assert!((fc - fc2).abs() < 1e-9, "fc drift: {fc} vs {fc2}");
        }
    }

    #[test]
    fn weights_scale_terms() {
        let p = packet();
        let cm_b = CostModel::new(&p, 1.0, 0.0, BalanceRange::Full);
        let cm_c = CostModel::new(&p, 0.0, 1.0, BalanceRange::Full);
        let mut m = PacketMapping::new(3, 2);
        m.saturate_in_order();
        let (fb, fc) = cm_b.raw_full(m.assignments());
        assert_eq!(cm_b.total(fb, fc), cm_b.balance_term(fb));
        assert_eq!(cm_c.total(fb, fc), cm_c.comm_term(fc));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weights_rejected() {
        let p = packet();
        CostModel::new(&p, -0.1, 1.1, BalanceRange::Full);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_weights_rejected() {
        let p = packet();
        CostModel::new(&p, 0.5, f64::INFINITY, BalanceRange::Full);
    }
}

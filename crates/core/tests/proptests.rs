//! Property-based tests for the SA core: mapping algebra, cost deltas,
//! acceptance bounds and annealer output validity on random packets.

use anneal_core::annealer::{anneal_packet, AnnealParams};
use anneal_core::boltzmann::{acceptance_probability, AcceptanceRule};
use anneal_core::cooling::CoolingSchedule;
use anneal_core::cost::{BalanceRange, CostModel};
use anneal_core::mapping::PacketMapping;
use anneal_core::packet::AnnealingPacket;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random synthetic packet (levels + comm table).
fn arb_packet() -> impl Strategy<Value = AnnealingPacket> {
    (1usize..20, 1usize..10, any::<u64>()).prop_map(|(tasks, procs, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels: Vec<u64> = (0..tasks).map(|_| rng.gen_range(0..400_000)).collect();
        let comm_cost: Vec<Vec<u64>> = (0..tasks)
            .map(|_| (0..procs).map(|_| rng.gen_range(0..80_000)).collect())
            .collect();
        AnnealingPacket::from_rows(&levels, &comm_cost)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random move sequences keep the mapping saturated and mirrored,
    /// and undo really is an inverse.
    #[test]
    fn mapping_move_algebra(n in 1usize..20, p in 1usize..10, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = PacketMapping::new(n, p);
        m.saturate_random(&mut rng);
        let sat = n.min(p);
        for _ in 0..100 {
            let t = rng.gen_range(0..n);
            let q = rng.gen_range(0..p);
            let Some(mv) = m.propose(t, q) else { continue };
            let before = m.clone();
            m.apply(mv);
            prop_assert_eq!(m.assigned_count(), sat);
            m.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(m.proc_of(t), Some(q));
            // undo restores exactly
            let mut copy = m.clone();
            copy.undo(mv);
            prop_assert_eq!(&copy, &before);
        }
    }

    /// Incremental cost deltas equal full recomputation after any
    /// accepted move sequence.
    #[test]
    fn cost_delta_parity(packet in arb_packet(), seed in any::<u64>()) {
        let cm = CostModel::new(&packet, 0.4, 0.6, BalanceRange::Full);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = PacketMapping::new(packet.num_tasks(), packet.num_procs());
        m.saturate_random(&mut rng);
        let (mut fb, mut fc) = cm.raw_full(m.assignments());
        for _ in 0..150 {
            let t = rng.gen_range(0..packet.num_tasks());
            let q = rng.gen_range(0..packet.num_procs());
            let Some(mv) = m.propose(t, q) else { continue };
            let (dfb, dfc) = cm.delta(mv);
            m.apply(mv);
            fb += dfb;
            fc += dfc;
            let (fb2, fc2) = cm.raw_full(m.assignments());
            prop_assert!((fb - fb2).abs() < 1e-6, "fb {fb} vs {fb2}");
            prop_assert!((fc - fc2).abs() < 1e-6, "fc {fc} vs {fc2}");
        }
    }

    /// Acceptance probabilities are proper probabilities with the
    /// paper's limits.
    #[test]
    fn acceptance_bounds(delta in -1e6f64..1e6, temp in 0.0f64..1e3) {
        for rule in [AcceptanceRule::HeatBath, AcceptanceRule::Metropolis] {
            let pr = acceptance_probability(rule, delta, temp);
            prop_assert!((0.0..=1.0).contains(&pr), "{rule:?} gave {pr}");
            // improvements never hurt acceptance
            let p_better = acceptance_probability(rule, delta - 1.0, temp);
            prop_assert!(p_better + 1e-12 >= pr);
        }
        // zero temperature is deterministic descent
        prop_assert_eq!(
            acceptance_probability(AcceptanceRule::HeatBath, delta, 0.0),
            if delta < 0.0 { 1.0 } else { 0.0 }
        );
    }

    /// The annealer always returns a valid saturated assignment, and
    /// its final cost is no worse than the worst possible mapping.
    #[test]
    fn annealer_output_valid(packet in arb_packet(), seed in any::<u64>()) {
        let cm = CostModel::new(&packet, 0.5, 0.5, BalanceRange::Full);
        let mut rng = StdRng::seed_from_u64(seed);
        let params = AnnealParams {
            max_iters: 60,
            ..AnnealParams::default()
        };
        let out = anneal_packet(&cm, &params, &mut rng, false);
        prop_assert_eq!(out.assignment.len(), packet.num_selected());
        let mut ts: Vec<_> = out.assignment.iter().map(|a| a.0).collect();
        let mut ps: Vec<_> = out.assignment.iter().map(|a| a.1).collect();
        ts.sort_unstable();
        ts.dedup();
        ps.sort_unstable();
        ps.dedup();
        prop_assert_eq!(ts.len(), packet.num_selected());
        prop_assert_eq!(ps.len(), packet.num_selected());
        for &(t, p) in &out.assignment {
            prop_assert!(t < packet.num_tasks());
            prop_assert!(p < packet.num_procs());
        }
        prop_assert!(out.iterations <= 60);
        prop_assert!(out.accepted <= out.moves);
    }

    /// Cooling schedules never go negative and never increase.
    #[test]
    fn cooling_monotone(t0 in 0.01f64..100.0, alpha in 0.5f64..0.999, k in 0u64..500) {
        let c = CoolingSchedule::Geometric { t0, alpha };
        prop_assert!(c.temperature(k) >= c.temperature(k + 1));
        prop_assert!(c.temperature(k) >= 0.0);
        let l = CoolingSchedule::Linear { t0, step: t0 / 100.0 };
        prop_assert!(l.temperature(k) >= l.temperature(k + 1));
    }
}

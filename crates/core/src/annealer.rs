//! The per-packet annealing loop (paper §5, step 2).

use rand::Rng;

use crate::boltzmann::{accept, AcceptanceRule};
use crate::cooling::CoolingSchedule;
use crate::cost::CostModel;
use crate::mapping::PacketMapping;
use crate::trace::{PacketTrace, TraceSample};

/// Knobs of the per-packet loop.
///
/// One *iteration* is one temperature step `Temp_k` during which
/// several moves are proposed (`moves_per_temp`); the stop rule
/// compares the cost at consecutive temperature steps. Stopping on raw
/// single-move constancy would fire almost immediately at high
/// temperature (where most proposals are rejected), long before the
/// packet has cooled — the paper's Figure 1 shows packets annealing for
/// 100+ iterations, which matches the per-temperature reading.
#[derive(Debug, Clone)]
pub struct AnnealParams {
    /// Temperature sequence.
    pub cooling: CoolingSchedule,
    /// Cap on temperature steps `N_I` ("until … exceeding the maximum
    /// number of iterations").
    pub max_iters: u64,
    /// Stop once the cost is unchanged across this many consecutive
    /// temperature steps (the paper uses five).
    pub stable_iters: u64,
    /// Moves proposed per temperature step; 0 = automatic
    /// (`max(8, 2 × packet tasks)`).
    pub moves_per_temp: usize,
    /// Accept/reject rule (the paper's heat bath by default).
    pub acceptance: AcceptanceRule,
    /// Track and restore the best mapping seen (guards against a late
    /// uphill wander at non-zero final temperature).
    pub keep_best: bool,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams {
            cooling: CoolingSchedule::default_geometric(),
            max_iters: 300,
            stable_iters: 5,
            moves_per_temp: 0,
            acceptance: AcceptanceRule::HeatBath,
            keep_best: true,
        }
    }
}

/// Result of annealing one packet.
#[derive(Debug, Clone)]
pub struct PacketOutcome {
    /// The converged mapping, as `(packet task index, packet proc
    /// index)` pairs.
    pub assignment: Vec<(usize, usize)>,
    /// Temperature steps executed.
    pub iterations: u64,
    /// Total moves proposed.
    pub moves: u64,
    /// Accepted moves.
    pub accepted: u64,
    /// Final normalized cost.
    pub final_cost: f64,
    /// Optional per-move trajectory.
    pub trace: Option<PacketTrace>,
}

/// Runs the annealing loop on the packet `cm` prices and returns the
/// converged mapping.
pub fn anneal_packet<R: Rng + ?Sized>(
    cm: &CostModel<'_>,
    params: &AnnealParams,
    rng: &mut R,
    want_trace: bool,
) -> PacketOutcome {
    let packet = cm.packet();
    let n = packet.num_tasks();
    let p = packet.num_procs();
    assert!(n > 0 && p > 0, "empty packet");

    // the paper's arbitrary start: a random saturating assignment
    let mut m = PacketMapping::new(n, p);
    m.saturate_random(rng);
    let (mut fb, mut fc) = cm.raw_full(m.assignments());
    let mut cost = cm.total(fb, fc);
    // The best-so-far mapping is kept in a reused buffer: `clone_from`
    // instead of `clone` per improvement, so the hot loop allocates
    // nothing after this point.
    let mut best_cost = cost;
    let mut best_m = m.clone();

    let mut trace = want_trace.then(|| PacketTrace {
        packet: 0,
        epoch_time: packet.epoch_time(),
        candidates: n,
        idle: p,
        samples: Vec::with_capacity(params.max_iters as usize),
    });

    // Auto sizing: ~2 proposals per candidate per temperature step keeps
    // the chance of a "false stable" window (five steps that never even
    // propose the one cost-changing move) negligible for tie-heavy
    // packets.
    let moves_per_temp = if params.moves_per_temp == 0 {
        (2 * n).max(8)
    } else {
        params.moves_per_temp
    };

    let mut accepted_count = 0u64;
    let mut stable = 0u64;
    let mut k = 0u64; // temperature step
    let mut moves = 0u64;
    while k < params.max_iters && stable < params.stable_iters {
        let temp = params.cooling.temperature(k);
        // "Cost remains constant" means no accepted move changed the
        // cost at any point during the step — a random walk that happens
        // to return to the same value is not convergence.
        let mut cost_changed = false;
        for _ in 0..moves_per_temp {
            // Arbitrarily select a task t_i and a processor p_j != m_i.
            let task = rng.gen_range(0..n);
            let cur = m.proc_of(task);
            let mv = if p == 1 && cur == Some(0) {
                None // no legal destination; a wasted draw
            } else {
                // Rejection-sample a processor different from the
                // current one; with p >= 2 or an unassigned task this
                // terminates quickly.
                let mut proc = rng.gen_range(0..p);
                while Some(proc) == cur {
                    proc = rng.gen_range(0..p);
                }
                m.propose(task, proc)
            };

            let mut was_accepted = false;
            if let Some(mv) = mv {
                let (dfb, dfc) = cm.delta(mv);
                let delta = cm.total(fb + dfb, fc + dfc) - cost;
                if accept(params.acceptance, delta, temp, rng) {
                    m.apply(mv);
                    fb += dfb;
                    fc += dfc;
                    was_accepted = true;
                    accepted_count += 1;
                    if delta.abs() > 1e-12 {
                        cost_changed = true;
                    }
                }
            }
            cost = cm.total(fb, fc);
            if params.keep_best && cost < best_cost {
                best_cost = cost;
                best_m.clone_from(&m);
            }
            if let Some(tr) = trace.as_mut() {
                tr.samples.push(TraceSample {
                    iter: moves,
                    temp,
                    f_b_raw: fb,
                    f_c_raw: fc,
                    f_b_norm: cm.balance_term(fb),
                    f_c_norm: cm.comm_term(fc),
                    f_total: cost,
                    accepted: was_accepted,
                });
            }
            moves += 1;
        }
        if cost_changed {
            stable = 0;
        } else {
            stable += 1;
        }
        k += 1;
    }

    let (final_cost, final_m) = if params.keep_best && best_cost < cost {
        (best_cost, best_m)
    } else {
        (cost, m)
    };
    PacketOutcome {
        assignment: final_m.assignments().collect(),
        iterations: k,
        moves,
        accepted: accepted_count,
        final_cost,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::BalanceRange;
    use crate::packet::AnnealingPacket;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn selects_highest_level_tasks(/* pure balancing, no comm */) {
        // 4 tasks, levels 100, 90, 10, 5; 2 procs; no communication.
        let p = AnnealingPacket::from_rows(&[100, 90, 10, 5], &[[0, 0]; 4]);
        let cm = CostModel::new(&p, 1.0, 0.0, BalanceRange::Full);
        let mut rng = StdRng::seed_from_u64(11);
        let out = anneal_packet(&cm, &AnnealParams::default(), &mut rng, false);
        let mut chosen: Vec<usize> = out.assignment.iter().map(|&(t, _)| t).collect();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![0, 1], "must select the two highest levels");
    }

    #[test]
    fn avoids_expensive_processors(/* pure communication */) {
        // 2 tasks, 2 procs; task 0 cheap on p0, task 1 cheap on p1.
        let p = AnnealingPacket::from_rows(&[50, 50], &[[0, 1000], [1000, 0]]);
        let cm = CostModel::new(&p, 0.0, 1.0, BalanceRange::Full);
        let mut rng = StdRng::seed_from_u64(7);
        let out = anneal_packet(&cm, &AnnealParams::default(), &mut rng, false);
        let mut map = out.assignment.clone();
        map.sort_unstable();
        assert_eq!(map, vec![(0, 0), (1, 1)]);
        assert!(out.final_cost.abs() < 1e-12);
    }

    #[test]
    fn trade_off_respects_weights() {
        // Task 0: high level but terrible comm on every proc; task 1:
        // low level, free comm. With w_b = 1 task 0 wins; with w_c = 1
        // task 1 wins.
        let p = AnnealingPacket::from_rows(&[100, 10], &[[500], [0]]);
        let mut rng = StdRng::seed_from_u64(3);
        let cm_b = CostModel::new(&p, 1.0, 0.0, BalanceRange::Full);
        let out_b = anneal_packet(&cm_b, &AnnealParams::default(), &mut rng, false);
        assert_eq!(out_b.assignment, vec![(0, 0)]);
        let cm_c = CostModel::new(&p, 0.0, 1.0, BalanceRange::Full);
        let out_c = anneal_packet(&cm_c, &AnnealParams::default(), &mut rng, false);
        assert_eq!(out_c.assignment, vec![(1, 0)]);
    }

    #[test]
    fn saturation_invariant_holds() {
        let p = AnnealingPacket::from_rows(&[10, 20, 30, 40, 50], &[[0, 0, 0]; 5]);
        let cm = CostModel::new(&p, 0.5, 0.5, BalanceRange::Full);
        let mut rng = StdRng::seed_from_u64(1);
        let out = anneal_packet(&cm, &AnnealParams::default(), &mut rng, false);
        assert_eq!(out.assignment.len(), 3);
        // distinct tasks, distinct procs
        let mut ts: Vec<_> = out.assignment.iter().map(|a| a.0).collect();
        let mut ps: Vec<_> = out.assignment.iter().map(|a| a.1).collect();
        ts.sort_unstable();
        ts.dedup();
        ps.sort_unstable();
        ps.dedup();
        assert_eq!(ts.len(), 3);
        assert_eq!(ps.len(), 3);
    }

    #[test]
    fn fewer_tasks_than_procs() {
        let p = AnnealingPacket::from_rows(&[10, 20], &[[0, 5, 9]; 2]);
        let cm = CostModel::new(&p, 0.5, 0.5, BalanceRange::Full);
        let mut rng = StdRng::seed_from_u64(2);
        let out = anneal_packet(&cm, &AnnealParams::default(), &mut rng, false);
        assert_eq!(out.assignment.len(), 2);
    }

    #[test]
    fn single_task_single_proc() {
        let p = AnnealingPacket::from_rows(&[42], &[[7]]);
        let cm = CostModel::new(&p, 0.5, 0.5, BalanceRange::Full);
        let mut rng = StdRng::seed_from_u64(2);
        let out = anneal_packet(&cm, &AnnealParams::default(), &mut rng, false);
        assert_eq!(out.assignment, vec![(0, 0)]);
        // converges via the stable-cost rule well before max_iters
        assert!(out.iterations <= AnnealParams::default().max_iters);
    }

    #[test]
    fn trace_records_iterations() {
        let p = AnnealingPacket::from_rows(&[100, 90, 10], &[[0, 50], [50, 0], [25, 25]]);
        let cm = CostModel::new(&p, 0.5, 0.5, BalanceRange::Full);
        let mut rng = StdRng::seed_from_u64(4);
        let out = anneal_packet(&cm, &AnnealParams::default(), &mut rng, true);
        let tr = out.trace.unwrap();
        assert_eq!(tr.samples.len() as u64, out.moves);
        // auto moves_per_temp for a 3-task packet is max(8, 2*3) = 8
        assert_eq!(out.moves, out.iterations * 8);
        assert_eq!(tr.candidates, 3);
        assert_eq!(tr.idle, 2);
        // trace totals equal term sums
        for s in &tr.samples {
            assert!((s.f_b_norm + s.f_c_norm - s.f_total).abs() < 1e-12);
        }
    }

    #[test]
    fn converges_by_stability_rule() {
        // One task, one proc: after the first draw the cost can never
        // change, so the run must stop after exactly `stable_iters`
        // additional iterations (plus the initial one).
        let p = AnnealingPacket::from_rows(&[42], &[[0]]);
        let cm = CostModel::new(&p, 0.5, 0.5, BalanceRange::Full);
        let mut rng = StdRng::seed_from_u64(6);
        let params = AnnealParams {
            stable_iters: 5,
            max_iters: 1000,
            ..AnnealParams::default()
        };
        let out = anneal_packet(&cm, &params, &mut rng, false);
        assert_eq!(out.iterations, 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = AnnealingPacket::from_rows(&[100, 90, 80, 10], &[[0, 9], [9, 0], [5, 5], [1, 8]]);
        let cm = CostModel::new(&p, 0.5, 0.5, BalanceRange::Full);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            anneal_packet(&cm, &AnnealParams::default(), &mut rng, false).assignment
        };
        assert_eq!(run(123), run(123));
    }
}

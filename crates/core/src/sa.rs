//! The staged simulated-annealing scheduler (the paper's algorithm).

use anneal_graph::levels::bottom_levels;
use anneal_graph::{TaskId, Work};
use anneal_sim::{EpochContext, OnlineScheduler};
use anneal_topology::ProcId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::annealer::{anneal_packet, AnnealParams};
use crate::boltzmann::AcceptanceRule;
use crate::cooling::CoolingSchedule;
use crate::cost::{BalanceRange, CostModel};
use crate::lane::{SaLane, SaScratch};
use crate::packet::AnnealingPacket;
use crate::rng_stream::CounterRng;
use crate::trace::PacketTrace;

/// Full configuration of the SA scheduler.
///
/// The annealing knobs (`cooling`, `max_iters`, `stable_iters`,
/// `moves_per_temp`, `acceptance`, `keep_best`) act on the
/// [`SaLane::Exact`] lane only: the turbo lane solves each packet
/// exactly instead of annealing it.
#[derive(Debug, Clone)]
pub struct SaConfig {
    /// Load-balance weight `w_b` (the paper tunes `w_b + w_c = 1`;
    /// Figure 1 uses 0.5/0.5).
    pub wb: f64,
    /// Communication weight `w_c`.
    pub wc: f64,
    /// Cooling schedule (exact lane only).
    pub cooling: CoolingSchedule,
    /// Per-packet temperature-step cap `N_I` (exact lane only).
    pub max_iters: u64,
    /// Convergence rule: cost constant across this many temperature
    /// steps (the paper uses five; exact lane only).
    pub stable_iters: u64,
    /// Moves proposed per temperature step (0 = `max(8, 2 × packet
    /// size)`; exact lane only).
    pub moves_per_temp: usize,
    /// Acceptance rule (paper: heat bath, eq. 1; exact lane only).
    pub acceptance: AcceptanceRule,
    /// Restore the best mapping seen in a packet before dispatching
    /// (exact lane only).
    pub keep_best: bool,
    /// `ΔF_b` convention.
    pub balance_range: BalanceRange,
    /// RNG seed; identical seeds give identical schedules.
    pub seed: u64,
    /// Record per-iteration traces of every packet (Figure 1 data).
    pub record_traces: bool,
    /// How packets are settled: the default [`SaLane::Turbo`]
    /// (production) solves each one exactly; [`SaLane::Exact`] anneals
    /// it as the paper does, and is the oracle turbo is certified
    /// against.
    pub lane: SaLane,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            wb: 0.5,
            wc: 0.5,
            cooling: CoolingSchedule::default_geometric(),
            max_iters: 300,
            stable_iters: 5,
            moves_per_temp: 0,
            acceptance: AcceptanceRule::HeatBath,
            keep_best: true,
            balance_range: BalanceRange::Full,
            seed: 42,
            record_traces: false,
            lane: SaLane::default(),
        }
    }
}

impl SaConfig {
    /// Sets `w_b` and `w_c = 1 − w_b`.
    pub fn with_balance_weight(mut self, wb: f64) -> Self {
        assert!((0.0..=1.0).contains(&wb));
        self.wb = wb;
        self.wc = 1.0 - wb;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the SA lane.
    pub fn with_lane(mut self, lane: SaLane) -> Self {
        self.lane = lane;
        self
    }
}

/// Aggregate statistics over a whole run (§6a of the paper reports, for
/// NE: 95 tasks in 65 packets, on average 15 candidates per 1.46 free
/// processors).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SaStats {
    /// Packets scheduled: annealed on the exact lane, solved exactly
    /// ([`SaScratch::solve`]) on the turbo lane.
    pub packets: u64,
    /// Total temperature steps across packets (exact lane only).
    pub iterations: u64,
    /// Total moves proposed (exact lane only).
    pub moves: u64,
    /// Total accepted moves (exact lane only).
    pub accepted: u64,
    /// Sum of candidate counts.
    pub candidates: u64,
    /// Sum of idle-processor counts.
    pub idle: u64,
    /// Total tasks dispatched.
    pub assigned: u64,
    /// Counter-RNG draws consumed by the turbo lane's tie shuffles
    /// (`m − 1` per packet for `m = max(n, p)`; zero on the exact
    /// lane).
    pub lane_rng_draws: u64,
}

impl SaStats {
    /// Mean candidates per packet.
    pub fn avg_candidates(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.candidates as f64 / self.packets as f64
        }
    }

    /// Mean idle processors per packet.
    pub fn avg_idle(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.idle as f64 / self.packets as f64
        }
    }

    /// Mean temperature iterations per packet.
    pub fn iterations_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.iterations as f64 / self.packets as f64
        }
    }

    /// Mean accepted-move rate.
    pub fn acceptance_rate(&self) -> f64 {
        if self.moves == 0 {
            0.0
        } else {
            self.accepted as f64 / self.moves as f64
        }
    }

    /// Accumulates this run into `r` (`sa.*` counters). Deterministic:
    /// every field is a pure function of graph, topology and seed.
    pub fn record_into(&self, r: &mut dyn anneal_obs::Recorder) {
        r.add("sa.packets", self.packets);
        r.add("sa.iterations", self.iterations);
        r.add("sa.moves", self.moves);
        r.add("sa.accepted", self.accepted);
        r.add("sa.candidates", self.candidates);
        r.add("sa.idle", self.idle);
        r.add("sa.assigned", self.assigned);
        r.add("sa.lane.rng_draws", self.lane_rng_draws);
    }
}

/// The staged SA scheduler. Implements [`OnlineScheduler`]; plug it into
/// `anneal_sim::simulate`.
#[derive(Debug)]
pub struct SaScheduler {
    cfg: SaConfig,
    rng: StdRng,
    levels: Option<Vec<Work>>,
    /// The current epoch's packet, reloaded in place.
    packet: AnnealingPacket,
    scratch: SaScratch,
    /// Run statistics (reset per scheduler instance).
    pub stats: SaStats,
    /// Recorded packet traces (when `cfg.record_traces`).
    pub traces: Vec<PacketTrace>,
}

impl SaScheduler {
    /// Creates a scheduler from a configuration.
    pub fn new(cfg: SaConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        SaScheduler {
            cfg,
            rng,
            levels: None,
            packet: AnnealingPacket::default(),
            scratch: SaScratch::new(),
            stats: SaStats::default(),
            traces: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SaConfig {
        &self.cfg
    }

    /// Resets the RNG to `seed` and clears statistics and traces while
    /// keeping the warmed buffers (levels cache, packet, turbo-lane
    /// scratch).
    /// Only valid for re-running the *same* instance: the cached
    /// bottom levels belong to the graph of the previous run.
    pub fn reseed(&mut self, seed: u64) {
        self.cfg.seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
        self.stats = SaStats::default();
        self.traces.clear();
    }
}

impl OnlineScheduler for SaScheduler {
    fn on_epoch(&mut self, ctx: &EpochContext<'_>, out: &mut Vec<(TaskId, ProcId)>) {
        if ctx.ready.is_empty() || ctx.idle.is_empty() {
            return;
        }
        let levels = self.levels.get_or_insert_with(|| bottom_levels(ctx.graph));
        self.packet.load(ctx, levels);
        let packet = &self.packet;
        let cm = CostModel::new(packet, self.cfg.wb, self.cfg.wc, self.cfg.balance_range);
        let before = out.len();
        let (iterations, moves, accepted, trace) = match self.cfg.lane {
            SaLane::Exact => {
                let params = AnnealParams {
                    cooling: self.cfg.cooling,
                    max_iters: self.cfg.max_iters,
                    stable_iters: self.cfg.stable_iters,
                    moves_per_temp: self.cfg.moves_per_temp,
                    acceptance: self.cfg.acceptance,
                    keep_best: self.cfg.keep_best,
                };
                let o = anneal_packet(&cm, &params, &mut self.rng, self.cfg.record_traces);
                out.extend(
                    o.assignment
                        .iter()
                        .map(|&(t, p)| (packet.tasks()[t], packet.procs()[p])),
                );
                (o.iterations, o.moves, o.accepted, o.trace)
            }
            SaLane::Turbo => {
                // Packet index = counter-RNG stream id: every packet
                // gets an independent, order-free draw stream keyed by
                // (seed, packet) — the sequential `self.rng` is not
                // touched, so its state never depends on packet count.
                let mut crng = CounterRng::new(self.cfg.seed, self.stats.packets);
                let lo = self.scratch.solve(&cm, &mut crng, self.cfg.record_traces);
                self.stats.lane_rng_draws += crng.draws();
                out.extend(
                    self.scratch
                        .assignments()
                        .map(|(t, p)| (packet.tasks()[t], packet.procs()[p])),
                );
                (0, 0, 0, lo.trace)
            }
        };

        self.stats.packets += 1;
        self.stats.iterations += iterations;
        self.stats.moves += moves;
        self.stats.accepted += accepted;
        self.stats.candidates += ctx.ready.len() as u64;
        self.stats.idle += ctx.idle.len() as u64;
        self.stats.assigned += (out.len() - before) as u64;
        if let Some(mut tr) = trace {
            tr.packet = self.stats.packets - 1;
            self.traces.push(tr);
        }
    }

    fn name(&self) -> &str {
        "simulated-annealing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::units::us;
    use anneal_graph::TaskGraphBuilder;
    use anneal_sim::{simulate, SimConfig};
    use anneal_topology::builders::{hypercube, linear};
    use anneal_topology::CommParams;

    fn diamondish() -> anneal_graph::TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(us(10.0));
        let x = b.add_task(us(20.0));
        let y = b.add_task(us(30.0));
        let z = b.add_task(us(25.0));
        let d = b.add_task(us(40.0));
        b.add_edge(a, x, us(4.0)).unwrap();
        b.add_edge(a, y, us(4.0)).unwrap();
        b.add_edge(a, z, us(8.0)).unwrap();
        b.add_edge(x, d, us(4.0)).unwrap();
        b.add_edge(y, d, us(4.0)).unwrap();
        b.add_edge(z, d, us(4.0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn schedules_complete_and_audit() {
        let g = diamondish();
        let mut s = SaScheduler::new(SaConfig::default());
        let r = simulate(
            &g,
            &hypercube(3),
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        r.audit(&g).unwrap();
        assert_eq!(s.stats.assigned, 5);
        assert!(s.stats.packets >= 2);
        assert_eq!(r.scheduler, "simulated-annealing");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = diamondish();
        let run = |seed| {
            let mut s = SaScheduler::new(SaConfig::default().with_seed(seed));
            simulate(
                &g,
                &hypercube(3),
                &CommParams::paper(),
                &mut s,
                &SimConfig::default(),
            )
            .unwrap()
            .makespan
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn single_proc_serial_schedule() {
        let g = diamondish();
        let mut s = SaScheduler::new(SaConfig::default());
        let cfg = SimConfig {
            comm_enabled: false,
            ..SimConfig::default()
        };
        let r = simulate(&g, &linear(1), &CommParams::zero(), &mut s, &cfg).unwrap();
        assert_eq!(r.makespan, g.total_work());
        r.audit(&g).unwrap();
    }

    #[test]
    fn traces_recorded_when_enabled() {
        let g = diamondish();
        let cfg = SaConfig {
            record_traces: true,
            ..SaConfig::default()
        };
        let mut s = SaScheduler::new(cfg);
        simulate(
            &g,
            &hypercube(3),
            &CommParams::paper(),
            &mut s,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(s.traces.len() as u64, s.stats.packets);
        assert!(s.traces.iter().all(|t| !t.samples.is_empty()));
    }

    #[test]
    fn stats_aggregate_sensibly() {
        let g = diamondish();
        let run = |lane| {
            let mut s = SaScheduler::new(SaConfig::default().with_lane(lane));
            simulate(
                &g,
                &hypercube(3),
                &CommParams::paper(),
                &mut s,
                &SimConfig::default(),
            )
            .unwrap();
            s.stats
        };
        let exact = run(SaLane::Exact);
        assert!(exact.avg_candidates() >= 1.0);
        assert!(exact.avg_idle() >= 1.0);
        assert!(exact.acceptance_rate() > 0.0 && exact.acceptance_rate() <= 1.0);
        assert!(exact.iterations_per_packet() >= 1.0);
        // The turbo lane solves every packet without annealing it.
        let turbo = run(SaLane::Turbo);
        assert!(turbo.avg_candidates() >= 1.0);
        assert_eq!(turbo.packets, exact.packets);
        assert_eq!((turbo.iterations, turbo.moves, turbo.accepted), (0, 0, 0));
        assert_eq!(turbo.acceptance_rate(), 0.0);
        assert_eq!(SaStats::default().iterations_per_packet(), 0.0);
    }

    #[test]
    fn weight_builder_enforces_sum() {
        let c = SaConfig::default().with_balance_weight(0.3);
        assert!((c.wb - 0.3).abs() < 1e-12);
        assert!((c.wc - 0.7).abs() < 1e-12);
    }
}

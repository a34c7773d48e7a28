//! How staged SA settles an annealing packet: the production **turbo**
//! lane, which solves the packet exactly, and the **exact** oracle,
//! which anneals it as the paper does.
//!
//! Eq. 6 is separable. Each placed `(task t, processor q)` pair adds
//! `−n_t` to eq. 3 and `c_tq` to eq. 5, so the normalized total of a
//! saturated mapping is the sum of `k_c·c_tq − k_b·n_t` over its pairs,
//! with `k_b = w_b/ΔF_b` and `k_c = w_c/ΔF_c`. Its minimum is therefore
//! a rectangular linear assignment problem with an exact polynomial
//! solution; annealing searches for the same minimum.
//!
//! [`SaLane`] selects how a scheduler settles each packet. Both lanes
//! read the same [`AnnealingPacket`](crate::packet::AnnealingPacket)
//! through the same [`CostModel`], so they differ in the settling rule
//! alone:
//!
//! * [`SaLane::Turbo`] — the production lane and the default.
//!   [`SaScratch::solve`] finds the packet's eq. 6 minimum with a
//!   shortest-augmenting-path assignment solver (Jonker–Volgenant form
//!   of the Hungarian method) in O(k²·m) for `k = min(n, p)` rows and
//!   `m = max(n, p)` columns, and breaks exact ties uniformly from the
//!   packet's counter-based stream ([`crate::rng_stream`]). It proposes
//!   no moves, so the annealing knobs of
//!   [`AnnealParams`](crate::annealer::AnnealParams) do not act on it.
//!   [`SaScratch`] holds only the solver's buffers and the solved
//!   mapping.
//! * [`SaLane::Exact`] — the paper-literal engine
//!   ([`crate::annealer::anneal_packet`] with
//!   [`crate::boltzmann::accept`]): the oracle, and the lane of every
//!   bin that reproduces a paper table or figure.
//!
//! The lane concerns staged SA only: whole-graph static SA
//! ([`crate::static_sa`]) decides every move with
//! [`crate::boltzmann::accept`] whatever lane it is given.
//!
//! # The oracle contract
//!
//! Annealing ends a packet on the solver's mapping only when it finds
//! the optimum and breaks its ties the same way, so turbo cannot be
//! checked bit for bit against the exact lane. It is certified on what
//! the paper compares:
//! final-makespan distributions against the exact lane over the frozen
//! corpus and a campaign slice (`lane_study` bin →
//! `results/LANE_EQUIV.json`, gated in `tests/sa_lane_turbo.rs`). The
//! mapping it returns is checked against a brute-force minimum in
//! `crates/core/tests/sa_lane.rs`, and its reported cost against the
//! solver's dual objective in debug builds.

use std::fmt;
use std::str::FromStr;

use rand::RngCore;

use crate::cost::CostModel;
use crate::trace::{PacketTrace, TraceSample};

/// How staged SA settles each annealing packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SaLane {
    /// The original per-move `exp()` + nested-table engine (the
    /// oracle). The only lane that anneals, so the only one the
    /// annealing knobs of [`crate::SaConfig`] act on.
    Exact,
    /// The production lane: each packet's eq. 6 minimum is solved
    /// exactly ([`SaScratch::solve`]), with ties broken from a
    /// counter-based stream ([`crate::rng_stream`]), and
    /// [`crate::SaConfig`]'s annealing knobs are ignored. Certified
    /// statistically against [`SaLane::Exact`], not bit for bit.
    #[default]
    Turbo,
}

impl SaLane {
    /// Every lane, in display order.
    pub const ALL: [SaLane; 2] = [SaLane::Exact, SaLane::Turbo];

    /// Stable lowercase name (CSV provenance, `campaign.meta`).
    pub fn name(self) -> &'static str {
        match self {
            SaLane::Exact => "exact",
            SaLane::Turbo => "turbo",
        }
    }

    /// The valid lane names as a human-readable list (parse errors).
    fn name_list() -> String {
        SaLane::ALL
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for SaLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SaLane {
    type Err = String;

    /// Case-insensitive: `Turbo`, `TURBO` and `turbo` all parse.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        SaLane::ALL
            .iter()
            .find(|l| l.name() == lower)
            .copied()
            .ok_or_else(|| {
                format!(
                    "unknown SA lane '{s}' (expected one of: {})",
                    SaLane::name_list()
                )
            })
    }
}

/// Sentinel for "unassigned" in [`SaScratch`]'s mapping array.
const NONE: u32 = u32::MAX;

/// Multiply-high bounded draw on a 32-bit word: maps it onto
/// `[0, bound)` with one widening multiply (bias < bound/2³²; packet
/// dimensions are far below 2¹⁶, so the bias is negligible).
#[inline]
fn mulhi32(v: u32, bound: u64) -> usize {
    ((u64::from(v) * bound) >> 32) as usize
}

/// Whether `cost` prices the same as `reference`, to 1e-9 relative.
fn prices_to(cost: f64, reference: f64) -> bool {
    (cost - reference).abs() <= 1e-9 * reference.abs().max(1.0)
}

/// What one turbo packet solve produced; the chosen mapping stays in
/// the scratch ([`SaScratch::assignments`]). A solved packet runs no
/// temperature steps and proposes no moves, so its callers report 0
/// iterations, moves and accepted moves for it.
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// The packet's eq. 6 minimum: the normalized cost of the chosen
    /// mapping.
    pub final_cost: f64,
    /// The one-sample trajectory (allocated only when requested).
    pub trace: Option<PacketTrace>,
}

/// Reusable turbo-lane state: the assignment solver's buffers and the
/// solved mapping. The packet tables it solves over belong to the
/// [`AnnealingPacket`](crate::packet::AnnealingPacket) its
/// [`CostModel`] prices. Built once per instance and reused across
/// packets and across
/// [`SaScheduler::reseed`](crate::SaScheduler::reseed) reruns, so a
/// warm solve performs zero heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SaScratch {
    /// The solved mapping: task index → processor index, or `NONE`.
    proc_of: Vec<u32>,
    // Assignment solver state over `k` rows (the packet's smaller side)
    // and `m` columns (its larger side). Rows and columns are 1-based;
    // column 0 is the virtual start of every augmenting path.
    /// The larger side's uniformly relabeled order: column `j` is
    /// element `perm[j − 1]`.
    perm: Vec<usize>,
    /// Row-major `k × m` cost matrix, columns in `perm` order.
    w: Vec<f64>,
    /// Row potentials `u[0..=k]`.
    u: Vec<f64>,
    /// Column potentials `v[0..=m]`.
    v: Vec<f64>,
    /// The row on each column (0 = free); `row_of[0]` is the row being
    /// inserted.
    row_of: Vec<usize>,
    /// Each column's predecessor on the current shortest-path tree.
    way: Vec<usize>,
    /// Least reduced cost reaching each column in the current phase.
    minv: Vec<f64>,
    /// Columns already in the current phase's tree.
    used: Vec<bool>,
}

impl SaScratch {
    /// An empty scratch; buffers grow to the high-water mark on use.
    pub fn new() -> Self {
        SaScratch::default()
    }

    /// The solved `(task index, proc index)` assignments in task order
    /// — the form of `PacketMapping::assignments`.
    pub fn assignments(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.proc_of
            .iter()
            .enumerate()
            .filter_map(|(t, &p)| (p != NONE).then_some((t, p as usize)))
    }

    /// Solves the packet `cm` prices exactly: leaves a mapping with the
    /// least eq. 6 cost over all its saturated mappings in the scratch
    /// ([`SaScratch::assignments`]).
    ///
    /// The rows of the assignment problem are the packet's smaller side
    /// (its tasks when `n ≤ p`, else its processors), the columns its
    /// larger side, and placing task `t` on processor `q` costs
    /// `k_c·c_tq − k_b·n_t`. Time is O(k²·m) for `k = min(n, p)` rows
    /// and `m = max(n, p)` columns; `k ≤ 33` on every topology the
    /// workspace builds. Topology specs allow up to 1024 processors, so
    /// a CLI packet can reach `k = m = 1024`; a fully tied one of that
    /// size takes seconds (`docs/ARCHITECTURE.md`, "SA lanes"). A warm
    /// scratch allocates nothing unless a trace is requested.
    ///
    /// **Ties.** The columns are first relabeled by a uniform shuffle
    /// drawn from `rng` (Fisher–Yates, `m − 1` draws), and the solver
    /// takes the lowest relabeled column among equal candidates, so in
    /// a fully tied packet every saturated mapping is equally likely.
    ///
    /// The reported cost is recomputed from the chosen mapping's raw
    /// sums ([`CostModel::raw_full`]); levels and eq. 4 costs are
    /// integers far below 2⁵³, so equal mappings price equal. Debug
    /// builds check it against the solver's own optimum. A traced solve
    /// records one sample: iteration 0, temperature 0, the optimum.
    pub fn solve<R: RngCore + ?Sized>(
        &mut self,
        cm: &CostModel<'_>,
        rng: &mut R,
        want_trace: bool,
    ) -> LaneOutcome {
        let pk = cm.packet();
        let (n, p) = (pk.num_tasks(), pk.num_procs());
        assert!(n > 0 && p > 0, "empty packet");
        debug_assert!(n < NONE as usize && p < NONE as usize);
        // Eq. 6 with the divisions hoisted: total = kb·F_b + kc·F_c.
        let kb = cm.wb / cm.range_b();
        let kc = cm.wc / cm.range_c();
        let tasks_are_rows = n <= p;
        let (k, m) = if tasks_are_rows { (n, p) } else { (p, n) };
        self.perm.clear();
        self.perm.extend(0..m);
        for i in (1..m).rev() {
            let j = mulhi32(rng.next_u64() as u32, i as u64 + 1);
            self.perm.swap(i, j);
        }
        self.w.clear();
        for r in 0..k {
            for &c in &self.perm {
                let (t, q) = if tasks_are_rows { (r, c) } else { (c, r) };
                self.w
                    .push(kc * pk.comm_cost(t, q) as f64 - kb * pk.levels()[t] as f64);
            }
        }
        let optimum = self.assign(k, m);
        self.proc_of.clear();
        self.proc_of.resize(n, NONE);
        for (j, &c) in self.perm.iter().enumerate() {
            if let Some(r) = self.row_of[j + 1].checked_sub(1) {
                let (t, q) = if tasks_are_rows { (r, c) } else { (c, r) };
                self.proc_of[t] = q as u32;
            }
        }
        let (fb, fc) = cm.raw_full(self.assignments());
        let final_cost = kb * fb + kc * fc;
        debug_assert!(
            prices_to(final_cost, optimum),
            "solved mapping costs {final_cost}, the solver's optimum is {optimum}"
        );
        let trace = want_trace.then(|| PacketTrace {
            packet: 0,
            epoch_time: pk.epoch_time(),
            candidates: n,
            idle: p,
            samples: vec![TraceSample {
                iter: 0,
                temp: 0.0,
                f_b_raw: fb,
                f_c_raw: fc,
                f_b_norm: kb * fb,
                f_c_norm: kc * fc,
                f_total: final_cost,
                accepted: false,
            }],
        });
        LaneOutcome { final_cost, trace }
    }

    /// Assigns every row of the `k × m` matrix `w` (`k ≤ m`) to a
    /// distinct column at least total cost, by shortest augmenting
    /// paths (the Jonker–Volgenant form of the Hungarian method). Row
    /// `i` enters by a Dijkstra search over the reduced costs
    /// `w − u − v`, which the potentials keep non-negative, from the
    /// virtual column 0 to a free column; the path found is then
    /// flipped. Among equally cheap columns the search takes the
    /// lowest. Leaves `row_of` filled and returns the optimum, `−v[0]`.
    fn assign(&mut self, k: usize, m: usize) -> f64 {
        let SaScratch {
            w,
            u,
            v,
            row_of,
            way,
            minv,
            used,
            ..
        } = self;
        u.clear();
        u.resize(k + 1, 0.0);
        v.clear();
        v.resize(m + 1, 0.0);
        row_of.clear();
        row_of.resize(m + 1, 0);
        way.clear();
        way.resize(m + 1, 0);
        for i in 1..=k {
            row_of[0] = i;
            minv.clear();
            minv.resize(m + 1, f64::INFINITY);
            used.clear();
            used.resize(m + 1, false);
            let mut j0 = 0;
            loop {
                used[j0] = true;
                let i0 = row_of[j0];
                let row = &w[(i0 - 1) * m..i0 * m];
                let mut delta = f64::INFINITY;
                let mut j1 = 0;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let cur = row[j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[row_of[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if row_of[j0] == 0 {
                    break;
                }
            }
            while j0 != 0 {
                let j1 = way[j0];
                row_of[j0] = row_of[j1];
                j0 = j1;
            }
        }
        -v[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_names_round_trip() {
        for lane in SaLane::ALL {
            assert_eq!(lane.name().parse::<SaLane>(), Ok(lane));
            assert_eq!(lane.to_string(), lane.name());
            // Case-insensitive parsing.
            assert_eq!(lane.name().to_ascii_uppercase().parse::<SaLane>(), Ok(lane));
        }
        assert_eq!("TURBO".parse::<SaLane>(), Ok(SaLane::Turbo));
        assert_eq!(SaLane::default(), SaLane::Turbo);
        assert_eq!(SaLane::name_list(), "exact, turbo");
        let err = "delta-table".parse::<SaLane>().unwrap_err();
        assert_eq!(
            err,
            "unknown SA lane 'delta-table' (expected one of: exact, turbo)"
        );
    }

    #[test]
    fn turbo_lane_replays_deterministically_per_stream() {
        use crate::rng_stream::CounterRng;

        // Same packet + same (seed, packet-index) stream → identical
        // outcome. Every mapping of this packet ties, so the stream
        // alone picks among the optima and distinct streams can differ.
        let packet = crate::packet::AnnealingPacket::from_rows(&[5; 6], &[[2; 3]; 6]);
        let cm = CostModel::new(&packet, 0.5, 0.5, crate::cost::BalanceRange::Full);
        let run = |seed: u64, stream: u64| {
            let mut scratch = SaScratch::new();
            let out = scratch.solve(&cm, &mut CounterRng::new(seed, stream), false);
            (out.final_cost, scratch.proc_of.clone())
        };
        assert_eq!(run(42, 0), run(42, 0));
        let a = run(42, 0);
        let b = run(43, 0);
        let c2 = run(42, 1);
        // Not a hard guarantee per pair, so only require *some*
        // difference across the two perturbations.
        assert!(a != b || a != c2, "distinct streams replayed identically");
    }
}

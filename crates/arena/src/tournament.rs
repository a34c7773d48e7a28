//! The parallel portfolio × instance tournament runner.
//!
//! Every `(scheduler, instance)` cell is an independent evaluation with
//! a seed mixed deterministically from `(base_seed, row, column)`, so
//! the whole matrix is reproducible bit-for-bit regardless of the
//! thread cap. The cells run through the crate's one cell loop (the
//! one campaign shards and the adversary use): a fan-out over
//! [`anneal_core::parallel::run_chunked_pooled`] with one job per
//! instance column, in which each worker carries one warm
//! `anneal_sim::SimScratch` across its columns and simulates each
//! column's schedulers together in one lockstep run of the fast-path
//! kernel (`anneal_sim::simulate_makespans`: no Gantt, no statistics,
//! reused buffers, cached route tables), with makespans bit-identical
//! to the full engine.

use anneal_obs::{Clock, MetricsRegistry, NullClock};
use anneal_report::{render_win_loss_matrix, Csv, WinLossOptions};
use anneal_sim::SimError;

use crate::cells::run_cells_observed;
use crate::instance::ArenaInstance;
use crate::portfolio::Portfolio;

/// Tournament settings.
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    /// Base seed mixed into every cell.
    pub base_seed: u64,
    /// Thread cap for the cell fan-out (`0` = available parallelism).
    pub max_threads: usize,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            base_seed: 42,
            max_threads: 0,
        }
    }
}

/// The full result matrix of one tournament.
#[derive(Debug, Clone)]
pub struct TournamentResult {
    /// Row labels (portfolio order).
    pub schedulers: Vec<String>,
    /// Column labels (instance order).
    pub instances: Vec<String>,
    /// `makespans[i][j]` — scheduler `i` on instance `j`, in ns.
    pub makespans: Vec<Vec<u64>>,
}

impl TournamentResult {
    /// The winning row on instance `j` and its makespan; ties break
    /// toward the earlier portfolio entry.
    #[expect(
        clippy::expect_used,
        reason = "tournaments are built from non-empty portfolios"
    )]
    pub fn best_for_instance(&self, j: usize) -> (usize, u64) {
        self.makespans
            .iter()
            .enumerate()
            .map(|(i, row)| (i, row[j]))
            .min_by_key(|&(i, m)| (m, i))
            .expect("portfolio is non-empty")
    }

    /// `makespan(i, j) / best makespan on j` — 1.0 for the per-instance
    /// winner.
    pub fn ratio(&self, i: usize, j: usize) -> f64 {
        let (_, best) = self.best_for_instance(j);
        if best == 0 {
            1.0
        } else {
            self.makespans[i][j] as f64 / best as f64
        }
    }

    /// The full ratio matrix, rows in scheduler order.
    pub fn ratios(&self) -> Vec<Vec<f64>> {
        (0..self.schedulers.len())
            .map(|i| {
                (0..self.instances.len())
                    .map(|j| self.ratio(i, j))
                    .collect()
            })
            .collect()
    }

    /// Per-scheduler count of instances where it attains the best
    /// makespan (ties count for every scheduler that attains it).
    pub fn wins(&self) -> Vec<usize> {
        let mut wins = vec![0usize; self.schedulers.len()];
        for j in 0..self.instances.len() {
            let (_, best) = self.best_for_instance(j);
            for (i, row) in self.makespans.iter().enumerate() {
                if row[j] == best {
                    wins[i] += 1;
                }
            }
        }
        wins
    }

    /// The head-to-head CSV table: one row per scheduler with its
    /// makespan on every instance, win count and mean ratio. Fully
    /// deterministic — byte-identical across runs with equal inputs.
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new();
        let mut header = vec!["scheduler".to_string()];
        header.extend(self.instances.iter().cloned());
        header.push("wins".into());
        header.push("mean_ratio".into());
        csv.row(&header);
        let wins = self.wins();
        for (i, name) in self.schedulers.iter().enumerate() {
            let mut row = vec![name.clone()];
            row.extend(self.makespans[i].iter().map(|m| m.to_string()));
            row.push(wins[i].to_string());
            let mean = (0..self.instances.len())
                .map(|j| self.ratio(i, j))
                .sum::<f64>()
                / (self.instances.len().max(1)) as f64;
            row.push(anneal_report::csv::f(mean, 4));
            csv.row(&row);
        }
        csv
    }

    /// The SVG win/loss matrix (ratio heatmap) via `anneal-report`.
    pub fn win_loss_svg(&self) -> String {
        render_win_loss_matrix(
            &self.schedulers,
            &self.instances,
            &self.ratios(),
            &WinLossOptions::default(),
        )
    }
}

/// Evaluates every portfolio entry on every instance in parallel.
///
/// Cell `(i, j)` simulates entry `i` on instance `j` with seed
/// `cell_seed(base_seed, i, j)`. The first simulation error aborts the
/// tournament (cells that already ran are discarded).
pub fn run_tournament(
    portfolio: &Portfolio,
    instances: &[ArenaInstance],
    cfg: &TournamentConfig,
) -> Result<TournamentResult, SimError> {
    run_tournament_observed(portfolio, instances, cfg, &NullClock).map(|(result, _)| result)
}

/// [`run_tournament`] that additionally aggregates a metrics registry:
/// summed kernel counters and an `arena.makespan_ns` histogram
/// (deterministic-class), scratch-pool / route-cache counters
/// (`sched.*`) and wall time (`time.cell_ns` / `time.total_ns`) read
/// from `clock`.
///
/// The science half is **exactly** what [`run_tournament`] produces
/// (which delegates here under a [`NullClock`]):
/// observation never touches cell seeds or the fan-out layout.
pub fn run_tournament_observed(
    portfolio: &Portfolio,
    instances: &[ArenaInstance],
    cfg: &TournamentConfig,
    clock: &(dyn Clock + Sync),
) -> Result<(TournamentResult, MetricsRegistry), SimError> {
    assert!(!portfolio.is_empty(), "empty portfolio");
    assert!(!instances.is_empty(), "no instances");
    let columns: Vec<usize> = (0..instances.len()).collect();
    let (cells, registry) = run_cells_observed(
        portfolio,
        instances,
        &columns,
        cfg.base_seed,
        cfg.max_threads,
        clock,
        "time.total_ns",
    )?;
    let makespans = cells
        .chunks(instances.len())
        .map(|row| row.iter().map(|cell| cell.makespan).collect())
        .collect();
    Ok((
        TournamentResult {
            schedulers: portfolio.names(),
            instances: instances.iter().map(|i| i.name.clone()).collect(),
            makespans,
        },
        registry,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::smoke_instances;

    fn tiny() -> TournamentResult {
        TournamentResult {
            schedulers: vec!["a".into(), "b".into()],
            instances: vec!["x".into(), "y".into(), "z".into()],
            makespans: vec![vec![100, 250, 300], vec![120, 200, 300]],
        }
    }

    #[test]
    fn winners_ratios_and_records() {
        let t = tiny();
        assert_eq!(t.best_for_instance(0), (0, 100));
        assert_eq!(t.best_for_instance(1), (1, 200));
        assert_eq!(t.best_for_instance(2), (0, 300)); // tie -> earlier row
        assert_eq!(t.ratio(1, 0), 1.2);
        assert_eq!(t.ratio(0, 1), 1.25);
        assert_eq!(t.wins(), vec![2, 2]); // both tie on z
    }

    #[test]
    fn csv_shape_and_determinism() {
        let t = tiny();
        let text = t.to_csv().as_str().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "scheduler,x,y,z,wins,mean_ratio");
        assert!(lines[1].starts_with("a,100,250,300,2,"));
        assert_eq!(text, t.to_csv().as_str());
    }

    #[test]
    fn svg_renders() {
        let svg = tiny().win_loss_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains(">a<") && svg.contains(">z<"));
    }

    #[test]
    fn observed_tournament_matches_plain_and_yields_metrics() {
        let p = Portfolio::fast();
        let insts = smoke_instances(2);
        let cfg = TournamentConfig {
            base_seed: 7,
            max_threads: 1,
        };
        let plain = run_tournament(&p, &insts, &cfg).unwrap();
        let (observed, reg) = run_tournament_observed(&p, &insts, &cfg, &NullClock).unwrap();
        assert_eq!(plain.makespans, observed.makespans);
        assert_eq!(reg.counter("arena.cells"), (p.len() * 2) as u64);
        assert!(reg.counter("sim.kernel.events") > 0);
        assert!(reg.counter("sched.pool.misses") >= 1);
        // deterministic view is thread-cap invariant
        let (_, par) = run_tournament_observed(
            &p,
            &insts,
            &TournamentConfig {
                base_seed: 7,
                max_threads: 0,
            },
            &NullClock,
        )
        .unwrap();
        assert_eq!(reg.deterministic_only(), par.deterministic_only());
    }

    #[test]
    fn tournament_runs_and_is_thread_cap_invariant() {
        let insts = smoke_instances(2);
        // `standard` adds static SA, whose factory anneals a mapping.
        for p in [Portfolio::fast(), Portfolio::standard()] {
            let run = |threads| {
                run_tournament(
                    &p,
                    &insts,
                    &TournamentConfig {
                        base_seed: 7,
                        max_threads: threads,
                    },
                )
                .unwrap()
            };
            let serial = run(1);
            let parallel = run(0);
            assert_eq!(serial.makespans, parallel.makespans);
            assert_eq!(serial.schedulers.len(), p.len());
            assert_eq!(serial.instances.len(), 2);
            // every makespan is a real schedule length
            assert!(serial.makespans.iter().flatten().all(|&m| m > 0));
        }
    }
}

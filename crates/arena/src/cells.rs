//! The one cell loop behind every portfolio comparison.
//!
//! A *cell* is one portfolio entry evaluated on one instance column
//! with seed `cell_seed(base, entry, column)`. Tournaments, campaign
//! shards and the adversary's ratio evaluations all fan their cells out
//! through [`run_cells`]; tournaments and shards also share its registry
//! fold ([`run_cells_observed`]).
//!
//! A column is one job: the entries' factories run in entry order, then
//! one lockstep kernel run ([`simulate_makespans`]) simulates all their
//! schedulers together, forking where their decisions part, so the
//! entries that schedule an instance alike share its simulation. Each
//! cell still gets its solo makespan and kernel counters. Its wall time
//! stays a measurement: its factory's time plus its share of every leg
//! it rode (a stretch of one branch with a fixed set of riders, see
//! [`Rider`]), each leg timed by the caller's clock and split among its
//! riders by the events each simulated there, which within a leg are
//! the same. A column's cells sum to the column's measured time.

use std::cmp::Reverse;

use anneal_core::parallel::{run_chunked_pooled, ScratchPool};
use anneal_obs::{Clock, Histogram, MetricsRegistry, Recorder};
use anneal_report::CELL_NS_PREFIX;
use anneal_sim::{
    simulate_makespans, KernelRunStats, LockstepStats, OnlineScheduler, Rider, SimError, SimScratch,
};

use crate::instance::ArenaInstance;
use crate::portfolio::{Portfolio, PortfolioEntry};

/// SplitMix64-style mixing of the base seed with a cell coordinate.
pub(crate) fn cell_seed(base: u64, row: u64, col: u64) -> u64 {
    let mut z = base
        .wrapping_add(row.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(col.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One evaluated cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell {
    /// The fast-path makespan (ns), bit-identical to the full engine.
    pub(crate) makespan: u64,
    /// The cell's share of its column's wall time, read from the
    /// caller's clock (ns).
    pub(crate) wall_ns: u64,
    /// The kernel counters of the cell's simulation, as its solo run
    /// would count them.
    pub(crate) stats: KernelRunStats,
}

/// Evaluates `entries[e]` on `instances[c]` for every `(e, c)`, with
/// seed `cell_seed(base_seed, e, columns[c])`: `columns[c]` is the
/// instance's global column index, so a campaign cell keeps its seed
/// under any sharding.
///
/// Each column is one job of [`run_chunked_pooled`] (worker scratch
/// drawn from `pool`), and the workers claim the largest instances
/// (tasks + edges) first, so no worker is left with one long column
/// while the others idle. Cells come back entry-major: cell `(e, c)`
/// sits at index `e * instances.len() + c`. The first error in that
/// order aborts.
pub(crate) fn run_cells(
    entries: &[&PortfolioEntry],
    instances: &[ArenaInstance],
    columns: &[usize],
    base_seed: u64,
    max_threads: usize,
    pool: &ScratchPool<SimScratch>,
    clock: &(dyn Clock + Sync),
) -> Result<(Vec<Cell>, LockstepStats), SimError> {
    debug_assert_eq!(columns.len(), instances.len());
    let mut order: Vec<usize> = (0..instances.len()).collect();
    order.sort_by_key(|&c| {
        let g = &instances[c].graph;
        (Reverse(g.num_tasks() + g.num_edges()), c)
    });
    let jobs = run_chunked_pooled(order.len(), max_threads, pool, |scratch, k| {
        let c = order[k];
        let seed_of = |e: usize| cell_seed(base_seed, e as u64, columns[c] as u64);
        run_column(entries, &instances[c], seed_of, scratch, clock)
    });
    let mut by_column: Vec<(usize, _)> = order.into_iter().zip(jobs).collect();
    by_column.sort_unstable_by_key(|&(c, _)| c);
    let mut work = LockstepStats::default();
    let mut column_cells = Vec::with_capacity(by_column.len());
    for (_, (cells, column_work)) in by_column {
        work.branches += column_work.branches;
        work.events += column_work.events;
        column_cells.push(cells.into_iter());
    }
    let mut cells = Vec::with_capacity(entries.len() * column_cells.len());
    for _ in entries {
        for column in &mut column_cells {
            if let Some(cell) = column.next() {
                cells.push(cell?);
            }
        }
    }
    Ok((cells, work))
}

/// Evaluates every entry on one instance: the factories in entry order,
/// then one lockstep run of the schedulers they built. Returns the
/// cells in entry order.
#[expect(
    clippy::expect_used,
    reason = "simulate_makespans reports a result for every scheduler built; a failed factory records its own"
)]
fn run_column(
    entries: &[&PortfolioEntry],
    inst: &ArenaInstance,
    seed_of: impl Fn(usize) -> u64,
    scratch: &mut SimScratch,
    clock: &(dyn Clock + Sync),
) -> (Vec<Result<Cell, SimError>>, LockstepStats) {
    let n = entries.len();
    let mut wall = vec![0u64; n];
    let mut results: Vec<Option<Result<Cell, SimError>>> = vec![None; n];
    let mut schedulers: Vec<Option<Box<dyn OnlineScheduler>>> = Vec::with_capacity(n);
    let mut last = clock.now_ns();
    for (e, entry) in entries.iter().enumerate() {
        match entry.instantiate(inst, seed_of(e)) {
            Ok(s) => schedulers.push(Some(s)),
            Err(err) => {
                schedulers.push(None);
                results[e] = Some(Err(err));
            }
        }
        let now = clock.now_ns();
        wall[e] += now.saturating_sub(last);
        last = now;
    }
    let work = simulate_makespans(
        &inst.graph,
        &inst.topology,
        &inst.params,
        &mut schedulers,
        &inst.sim_cfg,
        scratch,
        |riders| {
            let now = clock.now_ns();
            split_evenly(now.saturating_sub(last), riders, &mut wall);
            last = now;
            for r in riders {
                if let Some(res) = &r.result {
                    results[r.member] = Some(res.clone().map(|makespan| Cell {
                        makespan,
                        wall_ns: 0,
                        stats: r.stats,
                    }));
                }
            }
        },
    );
    let cells = results
        .into_iter()
        .zip(wall)
        .map(|(res, wall_ns)| {
            res.expect("every entry's cell ended")
                .map(|cell| Cell { wall_ns, ..cell })
        })
        .collect();
    (cells, work)
}

/// Adds `spent`, one leg's wall time, to its riders' `wall`. Every
/// rider of a leg simulated the same events in it, so each takes an
/// equal part; the parts sum to `spent` exactly.
fn split_evenly(spent: u64, riders: &[Rider], wall: &mut [u64]) {
    let k = riders.len().max(1) as u64;
    for (i, r) in riders.iter().enumerate() {
        let i = i as u64;
        wall[r.member] += spent * (i + 1) / k - spent * i / k;
    }
}

/// [`run_cells`] over every entry of `portfolio` on a fresh scratch
/// pool, folded into the registry tournaments and campaign shards
/// report: the `arena.cells` counter, the `arena.makespan_ns`,
/// `time.cell_ns` and `time.cell_ns.<scheduler>` histograms and the
/// summed kernel counters of every cell; the lockstep work
/// ([`LockstepStats`]); the fan-out's wall time under `span_key`; and
/// the pool and route-cache counters of the workers' scratch
/// ([`record_pool`]). The cells are folded locally, so each key is
/// written once per call, not once per cell.
pub(crate) fn run_cells_observed(
    portfolio: &Portfolio,
    instances: &[ArenaInstance],
    columns: &[usize],
    base_seed: u64,
    max_threads: usize,
    clock: &(dyn Clock + Sync),
    span_key: &str,
) -> Result<(Vec<Cell>, MetricsRegistry), SimError> {
    let entries: Vec<&PortfolioEntry> = portfolio.entries().iter().collect();
    let start = clock.now_ns();
    let pool = ScratchPool::new();
    let cells = run_cells(
        &entries,
        instances,
        columns,
        base_seed,
        max_threads,
        &pool,
        clock,
    );
    let span_ns = clock.now_ns().saturating_sub(start);
    let (cells, work) = cells?;

    let mut registry = MetricsRegistry::new();
    if !cells.is_empty() {
        let (mut makespans, mut cell_ns) = (Histogram::default(), Histogram::default());
        let mut kernel = KernelRunStats::default();
        // cells come back entry-major
        for (entry, row) in entries.iter().zip(cells.chunks(instances.len())) {
            let mut entry_ns = Histogram::default();
            for cell in row {
                makespans.observe(cell.makespan);
                cell_ns.observe(cell.wall_ns);
                entry_ns.observe(cell.wall_ns);
                kernel.events += cell.stats.events;
                kernel.epochs += cell.stats.epochs;
                kernel.messages += cell.stats.messages;
                kernel.heap_hwm = kernel.heap_hwm.max(cell.stats.heap_hwm);
            }
            registry.merge_histogram(&format!("{CELL_NS_PREFIX}{}", entry.name()), &entry_ns);
        }
        registry.add("arena.cells", cells.len() as u64);
        registry.merge_histogram("arena.makespan_ns", &makespans);
        registry.merge_histogram("time.cell_ns", &cell_ns);
        kernel.record_into(&mut registry);
    }
    work.record_into(&mut registry);
    registry.add(span_key, span_ns);
    record_pool(&pool, &mut registry);
    Ok((cells, registry))
}

/// Records `pool`'s hit/miss counters, then drains it and records each
/// scratch's route-cache counters. The snapshot comes first: the
/// drain's own takes must not count as reuse.
pub(crate) fn record_pool(pool: &ScratchPool<SimScratch>, registry: &mut MetricsRegistry) {
    pool.stats().record_into(registry);
    while !pool.is_empty() {
        pool.take().route_cache_stats().record_into(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_spreads() {
        let s = cell_seed(42, 0, 0);
        assert_ne!(s, cell_seed(42, 0, 1));
        assert_ne!(s, cell_seed(42, 1, 0));
        assert_ne!(s, cell_seed(43, 0, 0));
        assert_eq!(s, cell_seed(42, 0, 0));
    }

    /// A clock that advances one microsecond per reading.
    struct Ticking(std::sync::atomic::AtomicU64);

    impl Clock for Ticking {
        fn now_ns(&self) -> u64 {
            self.0
                .fetch_add(1_000, std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn columns_give_each_cell_its_solo_run_and_split_their_time() {
        let portfolio = Portfolio::standard();
        let entries: Vec<&PortfolioEntry> = portfolio.entries().iter().collect();
        let instances = crate::instance::smoke_instances(3);
        let columns: Vec<usize> = (10..10 + instances.len()).collect();
        let pool = ScratchPool::new();
        let clock = Ticking(Default::default());
        let (cells, work) = run_cells(&entries, &instances, &columns, 9, 1, &pool, &clock).unwrap();
        let mut scratch = SimScratch::new();
        let mut solo_events = 0;
        for (k, cell) in cells.iter().enumerate() {
            let (e, c) = (k / instances.len(), k % instances.len());
            let seed = cell_seed(9, e as u64, columns[c] as u64);
            let solo = entries[e]
                .evaluate_makespan(&instances[c], seed, &mut scratch)
                .unwrap();
            assert_eq!(cell.makespan, solo, "{} on column {c}", entries[e].name());
            assert_eq!(cell.stats, scratch.last_run_stats());
            solo_events += cell.stats.events;
        }
        assert!(work.branches < cells.len() as u64, "some entries share");
        assert!(work.events < solo_events);
        // One worker reads the clock back to back, so the cells' times
        // add up to every interval it measured: one reading opens each
        // column, and every factory and leg closes one.
        let readings = clock.0.into_inner() / 1_000;
        let total: u64 = cells.iter().map(|c| c.wall_ns).sum();
        assert_eq!(total, (readings - instances.len() as u64) * 1_000);
        assert!(cells.iter().all(|c| c.wall_ns > 0));
    }
}

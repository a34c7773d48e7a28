//! The one cell loop behind every portfolio comparison.
//!
//! A *cell* is one portfolio entry evaluated on one instance column
//! with seed `cell_seed(base, entry, column)`. Tournaments, campaign
//! shards and the adversary's ratio evaluations all fan their cells out
//! through [`run_cells`]; tournaments and shards also share its registry
//! fold ([`run_cells_observed`]).

use anneal_core::parallel::{run_chunked_pooled, ScratchPool};
use anneal_obs::{Clock, MetricsRegistry, Recorder};
use anneal_report::CELL_NS_PREFIX;
use anneal_sim::{KernelRunStats, SimError, SimScratch};

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
    /// Wall time of the evaluation read from the caller's clock (ns).
    pub(crate) wall_ns: u64,
    /// The kernel counters of the cell's simulation.
    pub(crate) stats: KernelRunStats,
}

/// Evaluates `entries[e]` on `instances[c]` for every `(e, c)`, with
/// seed `cell_seed(base_seed, e, columns[c])`: `columns[c]` is the
/// instance's global column index, so a campaign cell keeps its seed
/// under any sharding.
///
/// The cells fan out over [`run_chunked_pooled`] (worker scratch drawn
/// from `pool`) and come back entry-major: cell `(e, c)` sits at index
/// `e * instances.len() + c`. The first error in that order aborts.
///
/// Jobs are numbered from the last entry back, so the workers claim the
/// last entries' cells first. Portfolios register their entries
/// cheapest first ([`Portfolio::fast`], [`Portfolio::standard`]): the
/// annealers' cells, which cost milliseconds, start first, and the
/// heuristics' microsecond cells fill the tail, so no worker is left
/// with one long cell while the others idle.
pub(crate) fn run_cells(
    entries: &[&PortfolioEntry],
    instances: &[ArenaInstance],
    columns: &[usize],
    base_seed: u64,
    max_threads: usize,
    pool: &ScratchPool<SimScratch>,
    clock: &(dyn Clock + Sync),
) -> Result<Vec<Cell>, SimError> {
    debug_assert_eq!(columns.len(), instances.len());
    let cols = instances.len();
    let last = entries.len().saturating_sub(1);
    let mut cells = run_chunked_pooled(entries.len() * cols, max_threads, pool, |scratch, k| {
        let (e, c) = (last - k / cols, k % cols);
        let seed = cell_seed(base_seed, e as u64, columns[c] as u64);
        let start = clock.now_ns();
        let makespan = entries[e].evaluate_makespan(&instances[c], seed, scratch)?;
        let wall_ns = clock.now_ns().saturating_sub(start);
        Ok(Cell {
            makespan,
            wall_ns,
            stats: scratch.last_run_stats(),
        })
    });
    // Jobs hold the entries last to first; reversing the blocks, each
    // kept in column order, restores entry-major order.
    cells.reverse();
    for block in cells.chunks_mut(cols.max(1)) {
        block.reverse();
    }
    cells.into_iter().collect()
}

/// [`run_cells`] over every entry of `portfolio` on a fresh scratch
/// pool, folded into the registry tournaments and campaign shards
/// report: per cell the `arena.cells` counter, the `arena.makespan_ns`,
/// `time.cell_ns` and `time.cell_ns.<scheduler>` histograms and the
/// kernel counters; the fan-out's wall time under `span_key`; and the
/// pool and route-cache counters of the workers' scratch
/// ([`record_pool`]).
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
    let cells = cells?;

    let mut registry = MetricsRegistry::new();
    let entry_keys: Vec<String> = entries
        .iter()
        .map(|e| format!("{CELL_NS_PREFIX}{}", e.name()))
        .collect();
    for (k, cell) in cells.iter().enumerate() {
        registry.add("arena.cells", 1);
        registry.observe("arena.makespan_ns", cell.makespan);
        registry.observe("time.cell_ns", cell.wall_ns);
        // cells come back entry-major
        registry.observe(&entry_keys[k / instances.len()], cell.wall_ns);
        cell.stats.record_into(&mut registry);
    }
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
}

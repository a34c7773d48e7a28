//! Sharded, resumable large-scale tournaments ("campaigns").
//!
//! [`run_tournament`](crate::run_tournament) evaluates one in-process
//! matrix; a **campaign** scales the same portfolio ×
//! instance evaluation to 1000+ generated instances by splitting the
//! matrix into `shards` independently runnable chunks:
//!
//! * [`campaign_instance`] deterministically generates instance `i` of
//!   a parameterized family (six graph shapes × three size tiers ×
//!   three communication intensities × eight host topologies) from
//!   `(family_seed, i)` alone, so any shard can materialize exactly its
//!   own columns without generating the rest;
//! * [`shard_columns`] assigns instance indices to shards in strides,
//!   and [`run_shard`] evaluates one shard's cells with the seed
//!   derived from the **global** instance index — the cell values are
//!   invariant under re-sharding. The cells run through the same loop
//!   as a tournament's, so a one-shard campaign reproduces, cell for
//!   cell, `run_tournament` over [`campaign_instances`] with the same
//!   base seed;
//! * each [`ShardResult`] serializes to one CSV artifact
//!   ([`ShardResult::to_csv`]); a campaign is *resumed* by skipping
//!   shards whose artifact already exists, and *merged* by
//!   [`anneal_report::merge_shard_csvs`] — order-independent and
//!   byte-reproducible, so two runs of the same campaign produce
//!   byte-identical standings no matter how work was scheduled.
//!
//! The `campaign` binary in `anneal-bench` drives the whole pipeline
//! from the command line; `docs/ARCHITECTURE.md` shows where it sits in
//! the crate graph.

use anneal_graph::generate::{
    chain, fork_join, gnp_dag, independent, layered_random, series_parallel, LayeredConfig, Range,
};
use anneal_graph::units::us;
use anneal_obs::{Clock, JsonlSink, MetricsRegistry, NullClock};
use anneal_report::{cell_time_shares, slower_first, CellSample, Csv};
use anneal_sim::SimError;
use anneal_topology::builders::{binary_tree, bus, hypercube, linear, mesh, ring, star, torus};
use anneal_topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cells::{cell_seed, run_cells_observed};
use crate::instance::ArenaInstance;
use crate::portfolio::Portfolio;

/// Salt separating instance-generation seeds from tournament cell
/// seeds that share the same base seed.
const FAMILY_SALT: u64 = 0x5eed_fa41_11e5_0000;

/// Campaign shape: how many instances, how they are sharded, and how
/// cells are seeded.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Total number of generated instances (campaign columns).
    pub instances: usize,
    /// Number of shards the columns are split across.
    pub shards: usize,
    /// Base seed for both instance generation and cell evaluation.
    pub base_seed: u64,
    /// Thread cap for the per-shard cell fan-out (`0` = available
    /// parallelism). Does not affect results.
    pub max_threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            instances: 1000,
            shards: 8,
            base_seed: 42,
            max_threads: 0,
        }
    }
}

impl CampaignConfig {
    /// Validates the shape; called by [`run_shard`].
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` or `instances < shards` (an empty
    /// shard would produce a headerless artifact).
    pub fn validate(&self) {
        assert!(self.shards > 0, "campaign needs at least one shard");
        assert!(
            self.instances >= self.shards,
            "campaign needs at least one instance per shard ({} instances / {} shards)",
            self.instances,
            self.shards
        );
    }
}

/// Deterministically generates instance `i` of the campaign family.
///
/// The family sweeps, all as pure functions of `(family_seed, i)`:
///
/// * **shape** (round-robin `i % 6`, so every prefix covers all
///   shapes evenly): layered, G(n,p), fork-join, series-parallel,
///   chain, independent tasks;
/// * **host**: 8-hypercube, 5-ring, 4-bus, 3×2 mesh, 3×3 torus,
///   4-line, 6-star, 7-node binary tree;
/// * **communication intensity**: low, medium, high edge weights
///   against a common load range;
/// * **size tier**: roughly 10–60 tasks.
///
/// Host, intensity and size are drawn from *independent bit-fields of
/// a per-index hash*, not from `i` modulo their cardinality — moduli
/// that share factors with the shape stride would alias (e.g. `i % 3`
/// is fully determined by `i % 6`, so layered graphs would never see
/// high communication). Every shape therefore meets every host and
/// every intensity across a large family. The structure (shape, host,
/// intensity, size) depends on `i` alone; `family_seed` only drives
/// the load/weight/edge randomness, so two family seeds are comparable
/// instance by instance.
pub fn campaign_instance(family_seed: u64, i: usize) -> ArenaInstance {
    let mut rng = StdRng::seed_from_u64(cell_seed(family_seed ^ FAMILY_SALT, i as u64, 0));
    let mix = cell_seed(FAMILY_SALT, i as u64, 1);
    let load = Range::new(us(2.0), us(60.0));
    let comm = match (mix >> 8) % 3 {
        0 => Range::new(us(0.5), us(4.0)),
        1 => Range::new(us(1.0), us(12.0)),
        _ => Range::new(us(4.0), us(40.0)),
    };
    let scale = 1 + ((mix >> 16) % 3) as usize;
    let g = match i % 6 {
        0 => layered_random(
            &LayeredConfig {
                layers: 2 + scale,
                width: 2 + 2 * scale,
                edge_prob: 0.35,
                load,
                comm,
            },
            &mut rng,
        ),
        1 => gnp_dag(12 * scale, 0.18, load, comm, &mut rng),
        2 => fork_join(4 + 3 * scale, load, comm, &mut rng),
        3 => series_parallel(6 + 4 * scale, load, comm, &mut rng),
        4 => chain(6 + 5 * scale, load, comm, &mut rng),
        _ => independent(8 + 4 * scale, load, &mut rng),
    };
    let (topo, tname): (Topology, &str) = match (mix >> 24) % 8 {
        0 => (hypercube(3), "hc8"),
        1 => (ring(5), "ring5"),
        2 => (bus(4), "bus4"),
        3 => (mesh(3, 2), "mesh3x2"),
        4 => (torus(3, 3), "torus3x3"),
        5 => (linear(4), "lin4"),
        6 => (star(6), "star6"),
        _ => (binary_tree(7), "btree7"),
    };
    let shape = ["layered", "gnp", "forkjoin", "sp", "chain", "indep"][i % 6];
    let n = g.num_tasks();
    ArenaInstance::new(format!("c{i:04}-{shape}{n}-{tname}"), g, topo)
}

/// Generates the whole family `0..count` in memory. Prefer
/// per-shard generation ([`run_shard`] does this internally) for large
/// campaigns.
pub fn campaign_instances(family_seed: u64, count: usize) -> Vec<ArenaInstance> {
    (0..count)
        .map(|i| campaign_instance(family_seed, i))
        .collect()
}

/// The global instance indices shard `shard` is responsible for:
/// `shard, shard + shards, shard + 2*shards, ...` (strided so every
/// shard sees the same mix of shapes and sizes).
///
/// # Panics
///
/// Panics when `shard >= shards`.
pub fn shard_columns(instances: usize, shards: usize, shard: usize) -> Vec<usize> {
    assert!(
        shard < shards,
        "shard {shard} out of range (shards {shards})"
    );
    (shard..instances).step_by(shards).collect()
}

/// One shard's slice of the campaign matrix, ready for persistence.
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// Which shard this is.
    pub shard: usize,
    /// Scheduler names, in portfolio order (shared CSV header).
    pub schedulers: Vec<String>,
    /// Global instance indices, ascending.
    pub columns: Vec<usize>,
    /// Instance names, parallel to `columns`.
    pub instances: Vec<String>,
    /// `makespans[c][i]` — scheduler `i` on local column `c`, in ns.
    pub makespans: Vec<Vec<u64>>,
}

impl ShardResult {
    /// The shard artifact: header
    /// `instance_index,instance,<schedulers...>`, one row per column,
    /// sorted by ascending global index. Serialized by the same writer
    /// as `MergedCampaign::matrix_csv` and merged back with
    /// [`anneal_report::merge_shard_csvs`].
    pub fn to_csv(&self) -> Csv {
        anneal_report::render_matrix_csv(
            &self.schedulers,
            self.columns.iter().enumerate().map(|(c, &col)| {
                (
                    col as u64,
                    self.instances[c].as_str(),
                    self.makespans[c].as_slice(),
                )
            }),
        )
    }

    /// [`to_csv`](Self::to_csv) with the `anneal-fleet` checksum
    /// footer appended — the on-disk form of the shard artifact, so a
    /// truncated or corrupted file is detected on resume/merge instead
    /// of being parsed.
    pub fn to_sealed_csv(&self) -> String {
        anneal_fleet::seal(self.to_csv().as_str())
    }
}

/// The canonical artifact file name for a shard (`shard-007.csv`).
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:03}.csv")
}

/// The canonical metrics file name for a shard
/// (`metrics-007.jsonl`), written next to the shard CSV when the
/// campaign runs with `--metrics`.
pub fn shard_metrics_file_name(shard: usize) -> String {
    format!("metrics-{shard:03}.jsonl")
}

/// How many of its slowest cells a shard metrics artifact carries, and
/// how many the campaign summary lists. The summary's table needs no
/// more: the union of every shard's slowest `SLOWEST_CELLS` holds the
/// campaign's (see [`anneal_report::slower_first`]).
pub const SLOWEST_CELLS: usize = 10;

/// One cell's observation record (an event line in the shard's
/// metrics JSONL when it is among the shard's [`SLOWEST_CELLS`],
/// never part of the science CSVs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellObs {
    /// Global instance index (campaign column).
    pub instance_index: usize,
    /// Instance name.
    pub instance: String,
    /// Scheduler (portfolio entry) name.
    pub scheduler: String,
    /// The cell's makespan (ns) — identical to the CSV value.
    pub makespan: u64,
    /// Wall-clock time of the cell (ns); 0 under a
    /// [`NullClock`].
    pub wall_ns: u64,
}

impl From<CellObs> for CellSample {
    fn from(c: CellObs) -> Self {
        CellSample {
            scheduler: c.scheduler,
            instance: c.instance,
            wall_ns: c.wall_ns,
        }
    }
}

/// Everything [`run_shard_observed`] learned beyond the science
/// result: a metrics registry plus per-cell observation records.
///
/// Registry classes ([`anneal_obs::MetricClass`]):
///
/// * deterministic — `arena.cells`, the summed `sim.kernel.*` counters
///   and the `arena.makespan_ns` histogram are pure functions of the
///   campaign seed, identical across `--threads`, re-sharding and
///   resume once shards are merged;
/// * `sched.*` — scratch-pool and route-cache counters depend on the
///   thread plan;
/// * `time.*` — wall-clock, meaningful only with a real clock: the
///   shard's span, and cell wall time overall (`time.cell_ns`) and per
///   scheduler (`time.cell_ns.<scheduler>`).
#[derive(Debug, Clone)]
pub struct ShardObs {
    /// Which shard this is.
    pub shard: usize,
    /// Aggregated metrics of the shard.
    pub registry: MetricsRegistry,
    /// Per-cell records, ordered by (entry, local column) like the
    /// fan-out.
    pub cells: Vec<CellObs>,
}

impl ShardObs {
    /// The shard metrics artifact: every registry metric as one line
    /// (see [`MetricsRegistry::write_jsonl`]) followed by one `"cell"`
    /// event for each of the shard's [`SLOWEST_CELLS`] slowest cells,
    /// slowest first ([`anneal_report::slower_first`]). Metric lines
    /// merge back through [`MetricsRegistry::merge_jsonl`], which skips
    /// the cell events; [`parse_cells_jsonl`] reads the cell events.
    pub fn to_jsonl(&self) -> String {
        fn key(c: &CellObs) -> (u64, &str, &str) {
            (c.wall_ns, &c.scheduler, &c.instance)
        }
        let order = |a: &&CellObs, b: &&CellObs| slower_first(key(a), key(b));
        let mut slowest: Vec<&CellObs> = self.cells.iter().collect();
        if slowest.len() > SLOWEST_CELLS {
            slowest.select_nth_unstable_by(SLOWEST_CELLS - 1, order);
            slowest.truncate(SLOWEST_CELLS);
        }
        slowest.sort_by(order);

        let mut sink = JsonlSink::new();
        self.registry.write_jsonl(&mut sink);
        for c in slowest {
            sink.event("cell")
                .num("instance_index", c.instance_index as u64)
                .str("instance", &c.instance)
                .str("scheduler", &c.scheduler)
                .num("makespan", c.makespan)
                .num("wall_ns", c.wall_ns)
                .finish();
        }
        sink.as_str().to_string()
    }

    /// [`to_jsonl`](Self::to_jsonl) with the `anneal-fleet` checksum
    /// footer appended — the on-disk form of the shard metrics file.
    /// The footer line starts with `#`, which every JSONL reader in the
    /// workspace strips via [`anneal_fleet::unseal`] before parsing.
    pub fn to_sealed_jsonl(&self) -> String {
        anneal_fleet::seal(&self.to_jsonl())
    }
}

/// Parses the `"cell"` event lines back out of a shard metrics JSONL
/// (the inverse of the cell half of [`ShardObs::to_jsonl`]); metric
/// and other event lines are skipped. Returns an error message naming
/// the first malformed line.
pub fn parse_cells_jsonl(text: &str) -> Result<Vec<CellObs>, String> {
    let mut cells = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = anneal_obs::json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if v.get("type").and_then(|t| t.as_str()) != Some("cell") {
            continue;
        }
        let num = |field: &str| {
            v.get(field)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("line {}: cell without {field}", lineno + 1))
        };
        let string = |field: &str| {
            v.get(field)
                .and_then(|x| x.as_str())
                .map(String::from)
                .ok_or_else(|| format!("line {}: cell without {field}", lineno + 1))
        };
        cells.push(CellObs {
            instance_index: num("instance_index")? as usize,
            instance: string("instance")?,
            scheduler: string("scheduler")?,
            makespan: num("makespan")?,
            wall_ns: num("wall_ns")?,
        });
    }
    Ok(cells)
}

/// Folds one shard metrics artifact (the unsealed text of a
/// `metrics-<k>.jsonl`) into a campaign's metrics merge: its registry
/// into `registry`, its cell events onto `slowest`. Render the merge
/// with [`anneal_report::render_shares_summary`] over
/// [`cell_time_shares`]`(registry)` and `slowest`.
///
/// Refuses, leaving both untouched, an artifact whose
/// `time.cell_ns.<scheduler>` histograms do not count every cell its
/// `arena.cells` counts: one written before shards carried those
/// histograms, from which the time-share table would come out wrong.
pub fn merge_shard_metrics(
    text: &str,
    registry: &mut MetricsRegistry,
    slowest: &mut Vec<CellSample>,
) -> Result<(), String> {
    let mut shard = MetricsRegistry::new();
    shard.merge_jsonl(text).map_err(|e| e.to_string())?;
    let timed: u64 = cell_time_shares(&shard).iter().map(|s| s.cells).sum();
    let cells = shard.counter("arena.cells");
    if timed != cells {
        return Err(format!(
            "its per-scheduler cell times (time.cell_ns.<scheduler>) count {timed} of its \
             {cells} cells: it was written before shards recorded them"
        ));
    }
    let events = parse_cells_jsonl(text)?;
    registry.merge(&shard);
    slowest.extend(events.into_iter().map(CellSample::from));
    Ok(())
}

/// Runs shard `shard` of the campaign: generates exactly this shard's
/// instances and evaluates every portfolio entry on each, in parallel.
///
/// Cell `(entry e, global column j)` uses seed
/// `cell_seed(base_seed, e, j)` — the *global* index, not the
/// shard-local one — so a cell's makespan is identical whether the
/// campaign ran as 1 shard or 100. The first simulation error aborts
/// the shard.
pub fn run_shard(
    portfolio: &Portfolio,
    cfg: &CampaignConfig,
    shard: usize,
) -> Result<ShardResult, SimError> {
    run_shard_observed(portfolio, cfg, shard, &NullClock).map(|(result, _)| result)
}

/// [`run_shard`] that additionally aggregates a [`ShardObs`]: summed
/// kernel counters, scratch-pool / route-cache statistics and per-cell
/// wall time read from `clock`.
///
/// The science half of the return value is **exactly** what
/// [`run_shard`] produces (which is implemented as this function under
/// a [`NullClock`]): observation never touches cell seeds, the RNG
/// streams or the fan-out layout. Pass a
/// [`WallClock`](anneal_obs::WallClock) for real `time.*` metrics or a
/// `NullClock` for the deterministic CI mode, where every `wall_ns`
/// is 0 and the whole artifact is byte-reproducible.
pub fn run_shard_observed(
    portfolio: &Portfolio,
    cfg: &CampaignConfig,
    shard: usize,
    clock: &(dyn Clock + Sync),
) -> Result<(ShardResult, ShardObs), SimError> {
    cfg.validate();
    assert!(!portfolio.is_empty(), "empty portfolio");
    let columns = shard_columns(cfg.instances, cfg.shards, shard);
    let instances: Vec<ArenaInstance> = columns
        .iter()
        .map(|&j| campaign_instance(cfg.base_seed, j))
        .collect();
    let (cells, registry) = run_cells_observed(
        portfolio,
        &instances,
        &columns,
        cfg.base_seed,
        cfg.max_threads,
        clock,
        "time.shard_ns",
    )?;

    let cols = columns.len();
    let mut obs_cells = Vec::with_capacity(cells.len());
    let mut makespans = vec![vec![0u64; portfolio.len()]; cols];
    for (k, cell) in cells.iter().enumerate() {
        let (e, c) = (k / cols, k % cols);
        makespans[c][e] = cell.makespan;
        obs_cells.push(CellObs {
            instance_index: columns[c],
            instance: instances[c].name.clone(),
            scheduler: portfolio.entries()[e].name().to_string(),
            makespan: cell.makespan,
            wall_ns: cell.wall_ns,
        });
    }

    let result = ShardResult {
        shard,
        schedulers: portfolio.names(),
        columns,
        instances: instances.into_iter().map(|i| i.name).collect(),
        makespans,
    };
    let obs = ShardObs {
        shard,
        registry,
        cells: obs_cells,
    };
    Ok((result, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::PortfolioEntry;
    use anneal_core::list::ListScheduler;
    use anneal_core::HlfScheduler;
    use anneal_report::merge_shard_csvs;
    use anneal_sim::GreedyScheduler;

    fn tiny_portfolio() -> Portfolio {
        let mut p = Portfolio::new();
        p.register(PortfolioEntry::new("hlf", |_, _| {
            Box::new(HlfScheduler::new())
        }));
        p.register(PortfolioEntry::new("heft", |_, _| {
            Box::new(ListScheduler::heft())
        }));
        p.register(PortfolioEntry::new("greedy", |_, _| {
            Box::new(GreedyScheduler)
        }));
        p
    }

    #[test]
    fn family_is_deterministic_and_prefix_stable() {
        let a = campaign_instances(9, 12);
        let b = campaign_instances(9, 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph.loads(), y.graph.loads());
        }
        // instance i never depends on the family size
        let solo = campaign_instance(9, 7);
        assert_eq!(solo.name, a[7].name);
        assert_eq!(solo.graph.loads(), a[7].graph.loads());
        // different family seeds give different programs
        let c = campaign_instance(10, 7);
        assert_ne!(a[7].graph.loads(), c.graph.loads());
    }

    #[test]
    fn family_sweeps_shapes_and_hosts() {
        let insts = campaign_instances(3, 24);
        let shapes: std::collections::HashSet<&str> = insts
            .iter()
            .map(|i| i.name.split('-').nth(1).unwrap())
            .collect();
        assert!(shapes.len() >= 12, "24 instances should sweep many shapes");
        let hosts: std::collections::HashSet<&str> = insts
            .iter()
            .map(|i| i.name.rsplit('-').next().unwrap())
            .collect();
        assert_eq!(hosts.len(), 8, "all eight topologies appear");
        // names are CSV-safe
        assert!(insts.iter().all(|i| !i.name.contains(',')));
    }

    #[test]
    fn shape_and_host_dimensions_are_not_aliased() {
        // Host/intensity/size come from hashed bits, not `i mod k`, so
        // every shape must meet every host — a `i % 6` vs `i % 8`
        // scheme would confine even shapes to even hosts forever.
        let mut pairs = std::collections::HashSet::new();
        for i in 0..240 {
            let inst = campaign_instance(3, i);
            let shape = i % 6;
            let host = inst.name.rsplit('-').next().unwrap().to_string();
            pairs.insert((shape, host));
        }
        assert_eq!(pairs.len(), 6 * 8, "all shape x host combinations occur");
    }

    #[test]
    fn shard_columns_partition_the_family() {
        let mut seen = [false; 10];
        for s in 0..3 {
            for c in shard_columns(10, 3, s) {
                assert!(!seen[c], "column {c} assigned twice");
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every column assigned");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_out_of_range_panics() {
        shard_columns(10, 3, 3);
    }

    #[test]
    #[should_panic(expected = "at least one instance per shard")]
    fn more_shards_than_instances_panics() {
        let cfg = CampaignConfig {
            instances: 2,
            shards: 3,
            ..CampaignConfig::default()
        };
        let _ = run_shard(&tiny_portfolio(), &cfg, 0);
    }

    #[test]
    fn resharding_and_thread_caps_do_not_change_the_merge() {
        let p = tiny_portfolio();
        let base = CampaignConfig {
            instances: 6,
            shards: 1,
            base_seed: 11,
            max_threads: 1,
        };
        let whole = run_shard(&p, &base, 0).unwrap();
        let merged_whole = merge_shard_csvs(&[whole.to_csv().as_str()]).unwrap();

        let split = CampaignConfig {
            shards: 3,
            max_threads: 0,
            ..base.clone()
        };
        // run shards out of order on purpose
        let parts: Vec<String> = [2usize, 0, 1]
            .iter()
            .map(|&s| {
                run_shard(&p, &split, s)
                    .unwrap()
                    .to_csv()
                    .as_str()
                    .to_string()
            })
            .collect();
        let merged_split = merge_shard_csvs(&parts).unwrap();

        assert_eq!(merged_whole, merged_split);
        assert_eq!(
            merged_whole.matrix_csv().as_str(),
            merged_split.matrix_csv().as_str()
        );
        assert_eq!(
            merged_whole.standings_csv().as_str(),
            merged_split.standings_csv().as_str()
        );
        assert_eq!(merged_whole.num_instances(), 6);
    }

    #[test]
    fn observation_never_changes_science_and_is_reshard_invariant() {
        let p = tiny_portfolio();
        // shard 0 holds 5 columns x 3 entries = 15 cells, more than the
        // SLOWEST_CELLS its artifact carries
        let base = CampaignConfig {
            instances: 10,
            shards: 2,
            base_seed: 13,
            max_threads: 1,
        };
        // metrics on vs off: byte-identical science CSVs
        let plain = run_shard(&p, &base, 0).unwrap();
        let (observed, obs) = run_shard_observed(&p, &base, 0, &NullClock).unwrap();
        assert_eq!(
            plain.to_csv().as_str(),
            observed.to_csv().as_str(),
            "observation changed the science artifact"
        );
        // the registry sums are real and the cells mirror the CSV
        assert_eq!(obs.registry.counter("arena.cells"), 5 * 3);
        assert!(obs.registry.counter("sim.kernel.events") > 0);
        assert_eq!(obs.cells.len(), 15);
        for c in &obs.cells {
            assert_eq!(c.wall_ns, 0, "NullClock must observe zero wall time");
            let col = observed.columns.iter().position(|&j| j == c.instance_index);
            let e = observed.schedulers.iter().position(|s| s == &c.scheduler);
            assert_eq!(
                observed.makespans[col.unwrap()][e.unwrap()],
                c.makespan,
                "cell event diverges from the CSV"
            );
        }
        // NullClock artifacts are byte-reproducible, and they carry the
        // SLOWEST_CELLS slowest cells, slowest first
        let (_, again) = run_shard_observed(&p, &base, 0, &NullClock).unwrap();
        assert_eq!(obs.to_jsonl(), again.to_jsonl());
        let mut slowest = obs.cells.clone();
        slowest.sort_by(|a, b| {
            slower_first(
                (a.wall_ns, &a.scheduler, &a.instance),
                (b.wall_ns, &b.scheduler, &b.instance),
            )
        });
        slowest.truncate(SLOWEST_CELLS);
        assert_eq!(parse_cells_jsonl(&obs.to_jsonl()).unwrap(), slowest);
        assert!(parse_cells_jsonl("not json").is_err());

        // merged deterministic metrics are invariant under re-sharding
        // and thread caps (sched.*/time.* are excluded by design)
        let merge = |shards: usize, threads: usize| {
            let cfg = CampaignConfig {
                shards,
                max_threads: threads,
                ..base.clone()
            };
            let mut reg = MetricsRegistry::new();
            for s in 0..shards {
                let (_, o) = run_shard_observed(&p, &cfg, s, &NullClock).unwrap();
                reg.merge_jsonl(&o.to_jsonl()).unwrap();
            }
            reg.deterministic_only()
        };
        let one = merge(1, 1);
        let three = merge(3, 0);
        assert_eq!(one, three, "deterministic metrics depend on sharding");
        assert_eq!(one.counter("arena.cells"), 30);
        assert_eq!(
            one.histogram("arena.makespan_ns").map(|h| h.count()),
            Some(30)
        );
    }

    /// A clock that advances by a pseudo-random step on every reading,
    /// so that cells observe wall times with zeros, ties and very large
    /// values.
    struct JumpClock(std::sync::Mutex<(u64, StdRng)>);

    impl JumpClock {
        fn new(seed: u64) -> Self {
            JumpClock(std::sync::Mutex::new((0, StdRng::seed_from_u64(seed))))
        }
    }

    impl Clock for JumpClock {
        fn now_ns(&self) -> u64 {
            use rand::Rng;
            let mut state = self.0.lock().unwrap();
            let step = match state.1.gen_range(0..6) {
                0 => 0,
                1 => 1_000,
                2 => 250_000,
                3 => 1 << 40,
                _ => state.1.gen_range(0..5_000_000),
            };
            state.0 += step;
            state.0
        }
    }

    /// The campaign summary the merge renders from per-scheduler
    /// histograms and each shard's slowest cells equals, byte for byte,
    /// the one rendered from every cell.
    #[test]
    fn summary_from_shard_artifacts_matches_the_full_cell_list() {
        use anneal_report::{
            render_metrics_summary, render_shares_summary, render_shares_svg, render_time_share_svg,
        };
        use rand::Rng;
        let p = tiny_portfolio();
        let mut rng = StdRng::seed_from_u64(0x5a11);
        let mut truncated = 0;
        for case in 0..24 {
            let shards = rng.gen_range(1..=8);
            let cfg = CampaignConfig {
                instances: shards * rng.gen_range(1..=6) + rng.gen_range(0..shards),
                shards,
                base_seed: case,
                max_threads: 1,
            };
            let clock = JumpClock::new(case);
            let (mut registry, mut slowest, mut every) = (MetricsRegistry::new(), vec![], vec![]);
            for s in 0..shards {
                let (_, obs) = run_shard_observed(&p, &cfg, s, &clock).unwrap();
                merge_shard_metrics(&obs.to_jsonl(), &mut registry, &mut slowest).unwrap();
                truncated += usize::from(obs.cells.len() > SLOWEST_CELLS);
                every.extend(obs.cells.into_iter().map(CellSample::from));
            }
            let shares = cell_time_shares(&registry);
            assert_eq!(
                render_shares_summary(&shares, &slowest, SLOWEST_CELLS),
                render_metrics_summary(&every, SLOWEST_CELLS),
                "case {case}: {cfg:?}"
            );
            assert_eq!(
                render_shares_svg(&shares),
                render_time_share_svg(&every),
                "case {case}: {cfg:?}"
            );
        }
        assert!(
            truncated > 0,
            "some shard must ship fewer cells than it ran"
        );
    }

    #[test]
    fn shard_csv_shape() {
        let p = tiny_portfolio();
        let cfg = CampaignConfig {
            instances: 5,
            shards: 2,
            base_seed: 4,
            max_threads: 1,
        };
        let r = run_shard(&p, &cfg, 1).unwrap();
        assert_eq!(r.columns, vec![1, 3]);
        let text = r.to_csv().as_str().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "instance_index,instance,hlf,heft,greedy");
        assert!(lines[1].starts_with("1,c0001-"));
        assert!(lines[2].starts_with("3,c0003-"));
        // every makespan is a real schedule length
        assert!(r.makespans.iter().flatten().all(|&m| m > 0));
        assert_eq!(shard_file_name(1), "shard-001.csv");
    }

    #[test]
    fn sealed_artifacts_round_trip_and_detect_damage() {
        let p = tiny_portfolio();
        let cfg = CampaignConfig {
            instances: 4,
            shards: 2,
            base_seed: 9,
            max_threads: 1,
        };
        let (r, obs) = run_shard_observed(&p, &cfg, 0, &NullClock).unwrap();
        // seal is a pure footer: unsealing returns the plain artifact
        let sealed = r.to_sealed_csv();
        assert_eq!(anneal_fleet::unseal(&sealed).unwrap(), r.to_csv().as_str());
        let sealed_jsonl = obs.to_sealed_jsonl();
        assert_eq!(anneal_fleet::unseal(&sealed_jsonl).unwrap(), obs.to_jsonl());
        // truncation of the sealed form is detected, and the metrics
        // parser still merges the unsealed body
        assert!(anneal_fleet::unseal(&sealed[..sealed.len() - 2]).is_err());
        let mut reg = MetricsRegistry::new();
        reg.merge_jsonl(anneal_fleet::unseal(&sealed_jsonl).unwrap())
            .unwrap();
        assert_eq!(
            reg.counter("arena.cells"),
            obs.registry.counter("arena.cells")
        );
    }
}

//! # anneal-arena
//!
//! A scheduler-portfolio and adversarial-benchmarking subsystem for the
//! `annealsched` reproduction.
//!
//! The paper compares its staged SA scheduler against a single HLF
//! baseline on four fixed programs. Modern scheduler methodology goes
//! further in two directions, and this crate provides both:
//!
//! * **Portfolio tournaments** ([`portfolio`], [`tournament`]) — a
//!   [`Portfolio`] registers every scheduler in the workspace (the HLF
//!   list family, MCT, greedy, HEFT, CPOP, staged SA and whole-graph
//!   static SA) behind one factory interface, and [`run_tournament`]
//!   evaluates the full portfolio × instance matrix in parallel with a
//!   deterministic seed per cell. Static SA prices each annealing move
//!   with one simulation of its whole mapping —
//!   [`Portfolio::standard_with_lanes`] pins how
//!   ([`EvaluatorKind`](anneal_core::EvaluatorKind): full replay vs the
//!   fast-path fixed-mapping kernel; bit-identical results, very
//!   different cost) and the [`SaLane`](anneal_core::SaLane).
//!   Results feed `anneal-report`: a head-to-head CSV table and an SVG
//!   win/loss matrix.
//! * **Adversarial instance search** ([`adversary`]) — PISA-style
//!   benchmarking (problem-space search for the instances that separate
//!   algorithms, rather than a fixed benchmark set):
//!   [`adversarial_search`] runs simulated annealing over **problem
//!   space**: starting from a seed task graph it applies the
//!   acyclicity-preserving perturbation operators of
//!   `anneal_graph::perturb` (edge rewire, duration/communication
//!   scaling, fan-out tweaks) and accepts mutations by the Boltzmann
//!   rule on the **makespan ratio** between a *target* scheduler and
//!   the best of the rest of the portfolio. The search therefore climbs
//!   toward instances where the target scheduler loses by the widest
//!   margin — a generated stress suite for every future scheduling PR.
//! * **Sharded campaigns** ([`campaign`]) — the tournament at scale:
//!   [`campaign_instance`] generates instance `i` of a parameterized
//!   1000+ family from `(seed, i)` alone, [`run_shard`] evaluates one
//!   independently runnable chunk of the portfolio × instance matrix
//!   (cell seeds use *global* instance indices, so results are
//!   invariant under re-sharding), and per-shard CSV artifacts merge
//!   order-independently via `anneal_report::merge_shard_csvs`.
//! * **Frozen regression corpus** ([`corpus`]) — adversarial finds,
//!   persisted: a [`FrozenInstance`] stores a task graph plus replay
//!   metadata (topology spec, communication model, provenance) in the
//!   versioned `.tgi` text format, and `tests/corpus_regression.rs`
//!   fails any PR that makes a portfolio scheduler measurably worse on
//!   a checked-in instance (see `docs/CORPUS_FORMAT.md`).
//!
//! Every layer is deterministic given its seeds: tournaments, campaign
//! shards and the adversary evaluate their cells through one loop, in
//! which a cell derives its seed from (base seed, scheduler index,
//! instance column) via a SplitMix64-style mixer; the adversary threads
//! one seeded RNG; and neither thread-pool sizing nor which worker
//! claims a cell changes results (see
//! `anneal_core::parallel::run_chunked_pooled`). The loop claims the
//! last-registered, costliest portfolio rows first.
//!
//! ```
//! use anneal_arena::{run_tournament, standard_instances, Portfolio, TournamentConfig};
//!
//! let portfolio = Portfolio::standard();
//! let instances = standard_instances(7, 2);
//! let result = run_tournament(&portfolio, &instances, &TournamentConfig::default()).unwrap();
//! assert_eq!(result.schedulers.len(), portfolio.len());
//! // every instance has a winner with ratio 1.0
//! for j in 0..instances.len() {
//!     let (winner, _) = result.best_for_instance(j);
//!     assert_eq!(result.ratio(winner, j), 1.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversary;
pub mod campaign;
mod cells;
pub mod corpus;
pub mod instance;
pub mod portfolio;
pub mod tournament;

pub use adversary::{
    adversarial_search, makespan_ratio, makespan_ratio_pooled, AdversaryConfig, AdversaryOutcome,
    RatioBreakdown,
};
pub use campaign::{
    campaign_instance, campaign_instances, merge_shard_metrics, parse_cells_jsonl, run_shard,
    run_shard_observed, shard_columns, shard_file_name, shard_metrics_file_name, CampaignConfig,
    CellObs, ShardObs, ShardResult, SLOWEST_CELLS,
};
pub use corpus::{
    lane_instance_gate, lane_study_seed, load_corpus_dir, parse_params, parse_topology,
    regression_seed, CorpusError, FrozenInstance, CORPUS_EXTENSION, LANE_CORPUS_MEAN_MAX,
    LANE_GATE_SEEDS, LANE_INSTANCE_MEAN_MAX, REGRESSION_TOLERANCE,
};
pub use instance::{paper_instances, smoke_instances, standard_instances, ArenaInstance};
pub use portfolio::{static_sa_cell_config, Portfolio, PortfolioEntry};
pub use tournament::{run_tournament, run_tournament_observed, TournamentConfig, TournamentResult};

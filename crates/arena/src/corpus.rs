//! The frozen adversarial regression corpus.
//!
//! [`adversarial_search`](crate::adversarial_search) finds instances on
//! which a target scheduler loses — but a found instance that lives
//! only in one run's memory proves nothing about the *next* scheduler
//! PR. This module freezes such finds into versioned on-disk artifacts
//! (`corpus/*.tgi` at the repository root) so they become a permanent
//! stress suite:
//!
//! * a [`FrozenInstance`] is a task graph plus provenance metadata
//!   (instance name, host-topology spec, communication model, adversary
//!   target/seed/ratio), serialized through the versioned
//!   `anneal_graph::textio` header (`format tg 1` + `meta` lines, see
//!   `docs/CORPUS_FORMAT.md`);
//! * [`load_corpus_dir`] reads a corpus directory back, and
//!   [`FrozenInstance::to_instance`] rebuilds the exact
//!   [`ArenaInstance`] (topology specs like `ring 5` or `mesh 3 2` are
//!   re-parsed against `anneal_topology::builders`);
//! * [`regression_seed`] derives the evaluation seed for a
//!   `(scheduler, instance)` pair from the *names* alone, so baseline
//!   makespans recorded in `corpus/baseline.csv` stay comparable when
//!   the portfolio grows or reorders;
//! * the turbo-vs-exact lane equivalence gate ([`LANE_CORPUS_MEAN_MAX`],
//!   [`lane_instance_gate`], [`lane_study_seed`]) is defined here once,
//!   for both the `lane_study` bin and `tests/sa_lane_turbo.rs`.
//!
//! `tests/corpus_regression.rs` is the enforcement point: it re-runs
//! every portfolio scheduler on every frozen instance and fails if any
//! makespan regresses beyond tolerance against the checked-in baseline.
//! The `corpus_gen` binary in `anneal-bench` regenerates the corpus and
//! baseline deterministically.

use std::fmt;
use std::path::Path;

use anneal_graph::textio::{from_text_with_meta, to_text_with_meta, TextMeta};
use anneal_graph::{GraphError, TaskGraph};
use anneal_topology::builders::{
    binary_tree, bus, complete, hypercube, linear, mesh, ring, shared_bus, star, torus,
};
use anneal_topology::{CommParams, Topology};

use crate::instance::ArenaInstance;

/// File extension of frozen instances (`<name>.tgi`, "task graph
/// instance").
pub const CORPUS_EXTENSION: &str = "tgi";

/// Relative tolerance of the corpus regression gate: a scheduler fails
/// when its makespan on a frozen instance exceeds the recorded baseline
/// by more than 5%.
pub const REGRESSION_TOLERANCE: f64 = 1.05;

/// Errors raised while reading or rebuilding frozen instances.
#[derive(Debug)]
pub enum CorpusError {
    /// The underlying `.tg` document failed to parse.
    Graph(GraphError),
    /// Reading the corpus directory failed.
    Io(std::io::Error),
    /// The file has no `format tg <v>` header (frozen instances are
    /// always versioned).
    MissingHeader,
    /// A required `meta` key is absent.
    MissingMeta(&'static str),
    /// A topology or params spec did not parse.
    BadSpec {
        /// Which spec (`"topology"` or `"params"`).
        what: &'static str,
        /// The offending value.
        spec: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Graph(e) => write!(f, "graph: {e}"),
            CorpusError::Io(e) => write!(f, "io: {e}"),
            CorpusError::MissingHeader => write!(f, "missing 'format tg <v>' header"),
            CorpusError::MissingMeta(key) => write!(f, "missing required meta key '{key}'"),
            CorpusError::BadSpec { what, spec } => write!(f, "bad {what} spec {spec:?}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<GraphError> for CorpusError {
    fn from(e: GraphError) -> Self {
        CorpusError::Graph(e)
    }
}

impl From<std::io::Error> for CorpusError {
    fn from(e: std::io::Error) -> Self {
        CorpusError::Io(e)
    }
}

/// A task graph frozen together with the context needed to replay it:
/// instance name, host-topology spec, communication model and free-form
/// provenance metadata.
#[derive(Debug, Clone)]
pub struct FrozenInstance {
    /// The program.
    pub graph: TaskGraph,
    /// The `.tg` header. Always contains `name` and `topology`.
    pub meta: TextMeta,
}

impl FrozenInstance {
    /// Freezes a graph under `name` on the host described by
    /// `topology_spec` (e.g. `"ring 5"`; see [`parse_topology`]).
    ///
    /// # Panics
    ///
    /// Panics when `topology_spec` does not parse — freezing an
    /// unreplayable instance is a bug at the call site.
    // lint:allow(panic) reason="freezing an unreplayable topology spec is a caller bug, as documented"
    pub fn new(
        name: impl Into<String>,
        topology_spec: impl Into<String>,
        graph: TaskGraph,
    ) -> Self {
        let topology_spec = topology_spec.into();
        parse_topology(&topology_spec)
            .unwrap_or_else(|e| panic!("unreplayable topology spec: {e}"));
        let mut meta = TextMeta::new();
        meta.push("name", name).push("topology", topology_spec);
        FrozenInstance { graph, meta }
    }

    /// Appends a provenance entry (`target`, `ratio`, `seed`, ...).
    pub fn push_meta(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        self.meta.push(key, value);
        self
    }

    /// The instance name.
    // lint:allow(panic) reason="the constructor always records name and topology meta"
    pub fn name(&self) -> &str {
        self.meta.get("name").expect("constructor guarantees name")
    }

    /// The host-topology spec.
    // lint:allow(panic) reason="the constructor always records name and topology meta"
    pub fn topology_spec(&self) -> &str {
        self.meta
            .get("topology")
            .expect("constructor guarantees topology")
    }

    /// The communication-model spec (`"paper"` when absent).
    pub fn params_spec(&self) -> &str {
        self.meta.get("params").unwrap_or("paper")
    }

    /// Serializes to the versioned `.tg` text format.
    pub fn to_text(&self) -> String {
        to_text_with_meta(&self.graph, &self.meta)
    }

    /// Parses a frozen instance, validating the header: a version line
    /// and the `name`/`topology` keys are required, and both the
    /// topology and params specs must be replayable.
    pub fn from_text(text: &str) -> Result<Self, CorpusError> {
        let (graph, meta) = from_text_with_meta(text)?;
        if meta.version.is_none() {
            return Err(CorpusError::MissingHeader);
        }
        if meta.get("name").is_none() {
            return Err(CorpusError::MissingMeta("name"));
        }
        let frozen = FrozenInstance { graph, meta };
        match frozen.meta.get("topology") {
            None => return Err(CorpusError::MissingMeta("topology")),
            Some(spec) => {
                parse_topology(spec)?;
            }
        }
        parse_params(frozen.params_spec())?;
        Ok(frozen)
    }

    /// Rebuilds the runnable [`ArenaInstance`].
    pub fn to_instance(&self) -> Result<ArenaInstance, CorpusError> {
        let topology = parse_topology(self.topology_spec())?;
        let params = parse_params(self.params_spec())?;
        Ok(ArenaInstance::new(self.name(), self.graph.clone(), topology).with_params(params))
    }
}

/// The most processors a topology spec may ask for. A [`Topology`]
/// holds two n×n tables, so the size is checked before any builder
/// allocates; the largest host any bin builds is `ring(33)`.
pub const MAX_SPEC_PROCS: usize = 1024;

/// Parses a host-topology spec: a builder name followed by its integer
/// arguments, e.g. `hypercube 3`, `ring 5`, `mesh 3 2`, `torus 3 3`,
/// `bus 4`, `sharedbus 4`, `linear 4`, `star 6`, `binary_tree 7`,
/// `complete 4`. A spec asking for more than [`MAX_SPEC_PROCS`]
/// processors is a [`CorpusError::BadSpec`].
pub fn parse_topology(spec: &str) -> Result<Topology, CorpusError> {
    let bad = || CorpusError::BadSpec {
        what: "topology",
        spec: spec.to_string(),
    };
    let mut parts = spec.split_whitespace();
    let name = parts.next().ok_or_else(bad)?;
    let args: Vec<usize> = parts
        .map(|a| a.parse::<usize>().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    let procs = match (name, args.as_slice()) {
        ("hypercube", [d]) => u32::try_from(*d).ok().and_then(|d| 1usize.checked_shl(d)),
        ("mesh" | "torus", [w, h]) => w.checked_mul(*h),
        (_, [n]) => Some(*n),
        _ => None,
    };
    if procs.is_none_or(|n| n > MAX_SPEC_PROCS) {
        return Err(bad());
    }
    // Guards mirror the builders' preconditions so malformed specs
    // surface as BadSpec instead of panicking inside the builder.
    let topo = match (name, args.as_slice()) {
        ("hypercube", [d]) => hypercube(*d as u32),
        ("ring", [n]) if *n >= 2 => ring(*n),
        ("bus", [n]) if *n >= 1 => bus(*n),
        ("sharedbus", [n]) if *n >= 1 => shared_bus(*n),
        ("linear", [n]) if *n >= 1 => linear(*n),
        ("star", [n]) if *n >= 2 => star(*n),
        ("complete", [n]) if *n >= 1 => complete(*n),
        ("binary_tree", [n]) if *n >= 1 => binary_tree(*n),
        ("mesh", [w, h]) if *w >= 1 && *h >= 1 => mesh(*w, *h),
        ("torus", [w, h]) if *w >= 2 && *h >= 2 => torus(*w, *h),
        _ => return Err(bad()),
    };
    Ok(topo)
}

/// Parses a communication-model spec: `paper` (σ = 7 µs, τ = 9 µs,
/// 10 Mb/s) or `zero` (free communication).
pub fn parse_params(spec: &str) -> Result<CommParams, CorpusError> {
    match spec {
        "paper" => Ok(CommParams::paper()),
        "zero" => Ok(CommParams::zero()),
        _ => Err(CorpusError::BadSpec {
            what: "params",
            spec: spec.to_string(),
        }),
    }
}

/// Loads every `*.tgi` file under `dir`, sorted by file name so the
/// result order is stable across platforms.
pub fn load_corpus_dir(dir: impl AsRef<Path>) -> Result<Vec<FrozenInstance>, CorpusError> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(CORPUS_EXTENSION))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| FrozenInstance::from_text(&std::fs::read_to_string(p)?))
        .collect()
}

/// The evaluation seed for a `(scheduler, instance)` baseline cell,
/// derived from the names alone (FNV-1a 64) so recorded baselines stay
/// valid when the portfolio grows, shrinks or reorders.
pub fn regression_seed(scheduler: &str, instance: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in scheduler
        .as_bytes()
        .iter()
        .chain(&[0u8])
        .chain(instance.as_bytes())
    {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Lane equivalence gate: ceiling on the corpus mean of per-instance
/// makespan ratios (`mean(turbo) / mean(exact)` over the seed set) — no
/// systematic regression beyond 0.5%.
pub const LANE_CORPUS_MEAN_MAX: f64 = 1.005;

/// Lane equivalence gate: per-instance makespan-ratio ceiling at
/// [`LANE_GATE_SEEDS`] seeds — no instance regresses beyond 2%.
pub const LANE_INSTANCE_MEAN_MAX: f64 = 1.02;

/// Seed count the per-instance lane gate is calibrated for.
pub const LANE_GATE_SEEDS: u64 = 32;

/// Per-instance lane-gate ceiling at `seeds` seeds: the calibrated ±2%
/// widened by `sqrt(32/seeds)` when fewer seeds shrink the sample
/// (never tightened beyond the calibrated bound for larger samples).
pub fn lane_instance_gate(seeds: u64) -> f64 {
    let scale = (LANE_GATE_SEEDS as f64 / seeds as f64).sqrt().max(1.0);
    1.0 + (LANE_INSTANCE_MEAN_MAX - 1.0) * scale
}

/// Seed `k` of the lane equivalence study for instance `name`
/// (name-derived like [`regression_seed`], so the study is stable under
/// reordering).
pub fn lane_study_seed(name: &str, k: u64) -> u64 {
    regression_seed("lane-equiv", name).wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::builder::TaskGraphBuilder;
    use anneal_sim::GreedyScheduler;

    fn sample_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task(10_000);
        let c = b.add_task(20_000);
        let d = b.add_task(5_000);
        b.add_edge(a, c, 700).unwrap();
        b.add_edge(a, d, 900).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut fi = FrozenInstance::new("adv-001", "mesh 3 2", sample_graph());
        fi.push_meta("target", "hlf").push_meta("ratio", "1.3100");
        let text = fi.to_text();
        let back = FrozenInstance::from_text(&text).unwrap();
        assert_eq!(back.name(), "adv-001");
        assert_eq!(back.topology_spec(), "mesh 3 2");
        assert_eq!(back.params_spec(), "paper");
        assert_eq!(back.meta.get("target"), Some("hlf"));
        assert_eq!(back.graph.loads(), fi.graph.loads());
        // byte-stable reserialization
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn to_instance_is_runnable() {
        let fi = FrozenInstance::new("adv-002", "ring 5", sample_graph());
        let inst = fi.to_instance().unwrap();
        assert_eq!(inst.topology.num_procs(), 5);
        let mut s = GreedyScheduler;
        let r = anneal_sim::simulate(
            &inst.graph,
            &inst.topology,
            &inst.params,
            &mut s,
            &inst.sim_cfg,
        )
        .unwrap();
        assert!(r.makespan > 0);
    }

    #[test]
    fn topology_specs_parse() {
        for (spec, procs) in [
            ("hypercube 3", 8),
            ("ring 5", 5),
            ("bus 4", 4),
            ("linear 4", 4),
            ("star 6", 6),
            ("complete 4", 4),
            ("binary_tree 7", 7),
            ("mesh 3 2", 6),
            ("torus 3 3", 9),
            ("sharedbus 4", 4),
            ("hypercube 10", 1024),
            ("ring 1024", 1024),
            ("mesh 32 32", 1024),
        ] {
            assert_eq!(parse_topology(spec).unwrap().num_procs(), procs, "{spec}");
        }
        for bad in [
            "",
            "ring",
            "ring x",
            "ring 5 5",
            "mesh 3",
            "warp 9",
            // degenerate argument values must be BadSpec errors, not
            // builder panics (the regression suite loads corpus files
            // through this path)
            "ring 1",
            "ring 0",
            "star 1",
            "torus 1 3",
            "mesh 0 2",
            "bus 0",
            "sharedbus 0",
            "hypercube 20",
        ] {
            assert!(parse_topology(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn oversized_topology_specs_are_bad_specs() {
        // Each would otherwise allocate two n×n tables (or take minutes
        // to route) before the scheduler ever runs.
        let overflow = format!("mesh {} 2", usize::MAX);
        let dir = std::env::temp_dir().join("annealsched-corpus-oversized");
        for spec in [
            "ring 200000",
            "bus 100000",
            "hypercube 16",
            "hypercube 11",
            "mesh 2000 2000",
            "torus 33 32",
            "ring 1025",
            overflow.as_str(),
        ] {
            assert!(
                matches!(
                    parse_topology(spec),
                    Err(CorpusError::BadSpec {
                        what: "topology",
                        ..
                    })
                ),
                "{spec:?} should be a BadSpec"
            );
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let text = format!("format tg 1\nmeta name big\nmeta topology {spec}\ntask 0 5\n");
            std::fs::write(dir.join("big.tgi"), text).unwrap();
            assert!(
                matches!(load_corpus_dir(&dir), Err(CorpusError::BadSpec { .. })),
                "{spec:?} should fail to load"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn params_specs_parse() {
        assert!(!parse_params("paper").unwrap().is_free());
        assert!(parse_params("zero").unwrap().is_free());
        assert!(parse_params("fancy").is_err());
    }

    #[test]
    fn validation_rejects_incomplete_files() {
        // no header
        assert!(matches!(
            FrozenInstance::from_text("task 0 5\n"),
            Err(CorpusError::MissingHeader)
        ));
        // no name
        assert!(matches!(
            FrozenInstance::from_text("format tg 1\nmeta topology ring 5\ntask 0 5\n"),
            Err(CorpusError::MissingMeta("name"))
        ));
        // no topology
        assert!(matches!(
            FrozenInstance::from_text("format tg 1\nmeta name x\ntask 0 5\n"),
            Err(CorpusError::MissingMeta("topology"))
        ));
        // unreplayable topology
        assert!(matches!(
            FrozenInstance::from_text("format tg 1\nmeta name x\nmeta topology warp 9\ntask 0 5\n"),
            Err(CorpusError::BadSpec {
                what: "topology",
                ..
            })
        ));
        // unreplayable params
        assert!(FrozenInstance::from_text(
            "format tg 1\nmeta name x\nmeta topology ring 5\nmeta params fancy\ntask 0 5\n"
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "unreplayable topology")]
    fn freezing_with_bad_spec_panics() {
        let _ = FrozenInstance::new("x", "warp 9", sample_graph());
    }

    #[test]
    fn lane_gate_widens_below_its_calibration_only() {
        assert_eq!(lane_instance_gate(LANE_GATE_SEEDS), LANE_INSTANCE_MEAN_MAX);
        assert_eq!(
            lane_instance_gate(4 * LANE_GATE_SEEDS),
            LANE_INSTANCE_MEAN_MAX
        );
        assert!((lane_instance_gate(LANE_GATE_SEEDS / 4) - 1.04).abs() < 1e-12);
        assert_ne!(lane_study_seed("x", 0), lane_study_seed("x", 1));
        assert_eq!(lane_study_seed("x", 0), regression_seed("lane-equiv", "x"));
    }

    #[test]
    fn regression_seed_is_stable_and_spreads() {
        let s = regression_seed("hlf", "adv-001");
        assert_eq!(s, regression_seed("hlf", "adv-001"));
        assert_ne!(s, regression_seed("heft", "adv-001"));
        assert_ne!(s, regression_seed("hlf", "adv-002"));
        // the separator prevents boundary aliasing
        assert_ne!(regression_seed("ab", "c"), regression_seed("a", "bc"));
    }

    #[test]
    fn load_corpus_dir_roundtrip() {
        let dir = std::env::temp_dir().join("annealsched-corpus-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["b-second", "a-first"] {
            let fi = FrozenInstance::new(name, "ring 5", sample_graph());
            std::fs::write(dir.join(format!("{name}.tgi")), fi.to_text()).unwrap();
        }
        // non-corpus files are ignored
        std::fs::write(dir.join("notes.txt"), "ignore me").unwrap();
        let loaded = load_corpus_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].name(), "a-first", "sorted by file name");
        assert_eq!(loaded[1].name(), "b-second");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn errors_render() {
        for e in [
            CorpusError::MissingHeader,
            CorpusError::MissingMeta("name"),
            CorpusError::BadSpec {
                what: "topology",
                spec: "warp 9".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}

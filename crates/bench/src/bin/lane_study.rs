//! Corpus-scale statistical equivalence study for the turbo SA lane
//! (`results/LANE_EQUIV.json`) — the certification of the production
//! lane against its oracle.
//!
//! The turbo lane (`anneal_core::SaLane::Turbo`, the default every bin
//! runs) changes the annealing trajectory: counter-based RNG streams
//! and midpoint-table acceptance. What it must **not** change is the
//! *result distribution*: scheduler comparisons are properly made on
//! final-makespan distributions (Workflow-Schedulers, PAPERS.md), and a
//! lane must be stress-tested where it is most likely to crack — the
//! frozen adversarial corpus (PISA's methodology), not just random
//! instances.
//!
//! The study runs the staged SA scheduler under the **exact** lane and
//! the **turbo** lane on every instance of
//!
//! * the full frozen corpus (`corpus/*.tgi`, adversarial), and
//! * a deterministic slice of the campaign family
//!   (`anneal_arena::campaign_instance`, random),
//!
//! across many seeds, and reports per-instance makespan-ratio
//! (`turbo / exact`) distributions. Because one flipped accept decision
//! re-routes every later packet, a *per-seed* ratio is trajectory
//! noise, and the mean of per-seed ratios is Jensen-biased upward
//! whenever both lanes have variance. The gates therefore bind the
//! **ratio of mean final makespans** (`mean(turbo) / mean(exact)` over
//! the seed set):
//!
//! * per-instance makespan ratio ≤ 1.02 (no instance regresses >2%),
//!   and
//! * corpus-mean (mean of instance makespan ratios) ≤ 1.005 (no
//!   systematic regression >0.5%).
//!
//! The ±2% per-instance bound is calibrated at 32 seeds. Below that
//! (e.g. `--smoke`'s 8 seeds) the standard error of a per-instance
//! mean grows like `sqrt(32/S)`, so the per-instance bound widens by
//! the same factor — the smoke gate still catches real breakage (a
//! quality bug shows up as tens of percent) without tripping on
//! small-sample noise. The corpus-mean bound averages across
//! instances and is left unscaled. The constants and the seed stream
//! live in `anneal_arena` and are shared with the enforced `cargo test`
//! gate in `tests/sa_lane_turbo.rs`.
//!
//! The same distributions are reported for **static SA** (exact vs
//! turbo acceptance) at the portfolio's cell settings
//! (`anneal_arena::static_sa_cell_config`), under `"static_sa"`. Those
//! rows are not gated: at 32 seeds a per-instance bound on them would
//! gate on noise.
//!
//! The study itself is a pure function of its arguments — no timing,
//! no threads — so two runs emit byte-identical JSON.
//!
//! Usage: `lane_study [--smoke] [--seeds S] [--campaign N] [--out PATH]`
//!
//! * `--smoke` — reduced CI configuration: 8 seeds × (sa-targeted
//!   corpus + 8 campaign instances). The gate is still enforced.
//! * `--seeds S` — seeds per instance (default 32; ≥32 required for
//!   the full-mode gate to be meaningful).
//! * `--campaign N` — campaign-family instances to include (default
//!   24).
//! * `--out PATH` — output path (default `results/LANE_EQUIV.json`).
//!
//! Exit status is 1 when a gate fails, so CI can run the binary
//! directly. An unknown flag, a missing or unparsable value or
//! `--seeds 0` prints the usage on stderr and exits 2.

use std::fmt::Write as _;
use std::path::PathBuf;

use anneal_arena::{
    campaign_instance, lane_instance_gate, lane_study_seed, load_corpus_dir, static_sa_cell_config,
    ArenaInstance, LANE_CORPUS_MEAN_MAX, LANE_GATE_SEEDS, LANE_INSTANCE_MEAN_MAX,
};
use anneal_bench::cli::Cli;
use anneal_core::static_sa::static_sa;
use anneal_core::{EvaluatorKind, SaConfig, SaLane, SaScheduler};
use anneal_sim::simulate;

struct StudyArgs {
    smoke: bool,
    seeds: u64,
    campaign: usize,
    out: PathBuf,
}

fn parse_args() -> StudyArgs {
    let mut cli = Cli::from_env(format!(
        "usage: lane_study [--smoke] [--seeds S] [--campaign N] [--out PATH]\n\
         emits results/LANE_EQUIV.json and exits nonzero when the\n\
         turbo-vs-exact equivalence gate fails\n\
         (corpus mean <= {LANE_CORPUS_MEAN_MAX}, instance mean <= {LANE_INSTANCE_MEAN_MAX})"
    ));
    let mut smoke = false;
    let mut seeds = None;
    let mut campaign = None;
    let mut out = PathBuf::from("results/LANE_EQUIV.json");
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seeds" => seeds = Some(cli.value(&arg)),
            "--campaign" => campaign = Some(cli.value(&arg)),
            "--out" => out = cli.value(&arg),
            other => cli.fail(format!("unknown argument {other:?}")),
        }
    }
    let args = StudyArgs {
        smoke,
        seeds: seeds.unwrap_or(if smoke { 8 } else { 32 }),
        campaign: campaign.unwrap_or(if smoke { 8 } else { 24 }),
        out,
    };
    if args.seeds == 0 {
        cli.fail("--seeds must be positive");
    }
    args
}

/// Final makespan of the staged SA scheduler under `lane`.
fn staged_makespan(inst: &ArenaInstance, lane: SaLane, seed: u64) -> u64 {
    let mut sched = SaScheduler::new(SaConfig::default().with_seed(seed).with_lane(lane));
    simulate(
        &inst.graph,
        &inst.topology,
        &inst.params,
        &mut sched,
        &inst.sim_cfg,
    )
    .expect("staged SA schedules the study instance")
    .makespan
}

/// Final makespan of a portfolio `static-sa` cell under `lane`.
fn static_makespan(inst: &ArenaInstance, lane: SaLane, seed: u64) -> u64 {
    static_sa(
        &inst.graph,
        &inst.topology,
        &inst.params,
        &inst.sim_cfg,
        &static_sa_cell_config(seed, EvaluatorKind::default(), lane),
    )
    .expect("static SA anneals the study instance")
    .result
    .makespan
}

struct InstanceRow {
    name: String,
    source: &'static str,
    ratios: Vec<f64>,
    exact_mean_ns: f64,
    turbo_mean_ns: f64,
}

impl InstanceRow {
    /// The gated statistic: ratio of mean final makespans over the
    /// seed set. Unlike the mean of per-seed ratios, this is unbiased
    /// when both lanes' distributions have variance.
    fn makespan_ratio(&self) -> f64 {
        self.turbo_mean_ns / self.exact_mean_ns
    }

    /// Mean of per-seed ratios (diagnostic only — Jensen-biased).
    fn seed_mean(&self) -> f64 {
        self.ratios.iter().sum::<f64>() / self.ratios.len() as f64
    }

    /// p95 by the nearest-rank rule on the sorted per-seed ratios.
    fn p95(&self) -> f64 {
        let mut sorted = self.ratios.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn worst(&self) -> f64 {
        self.ratios.iter().cloned().fold(f64::MIN, f64::max)
    }

    fn best(&self) -> f64 {
        self.ratios.iter().cloned().fold(f64::MAX, f64::min)
    }
}

/// Corpus mean, worst instance and worst per-seed ratio of a study.
struct Aggregate<'a> {
    corpus_mean: f64,
    worst_name: &'a str,
    worst_mean: f64,
    worst_seed: f64,
}

fn aggregate(rows: &[InstanceRow]) -> Aggregate<'_> {
    let (worst_name, worst_mean) = rows
        .iter()
        .map(|r| (r.name.as_str(), r.makespan_ratio()))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite means"))
        .expect("nonempty study");
    Aggregate {
        corpus_mean: rows.iter().map(InstanceRow::makespan_ratio).sum::<f64>() / rows.len() as f64,
        worst_name,
        worst_mean,
        worst_seed: rows.iter().map(InstanceRow::worst).fold(f64::MIN, f64::max),
    }
}

fn study_instances(args: &StudyArgs) -> Vec<(ArenaInstance, &'static str)> {
    let corpus = load_corpus_dir("corpus").expect("corpus/ must load cleanly");
    let mut out = Vec::new();
    for fi in &corpus {
        // Smoke keeps only the instances frozen *against staged SA* —
        // the adversarially hardest subset for this lane.
        if args.smoke && !fi.name().starts_with("sa-") {
            continue;
        }
        let inst = fi.to_instance().expect("frozen instance replays");
        out.push((inst, "corpus"));
    }
    assert!(!out.is_empty(), "corpus must hold study instances");
    for i in 0..args.campaign {
        out.push((campaign_instance(42, i), "campaign"));
    }
    out
}

/// Runs exact vs turbo through `makespan` on every instance and seed,
/// printing one line per instance under `label`.
fn study(
    instances: &[(ArenaInstance, &'static str)],
    seeds: u64,
    label: &str,
    makespan: fn(&ArenaInstance, SaLane, u64) -> u64,
) -> Vec<InstanceRow> {
    let mut rows: Vec<InstanceRow> = Vec::with_capacity(instances.len());
    for (inst, source) in instances {
        let mut ratios = Vec::with_capacity(seeds as usize);
        let mut exact_sum = 0.0;
        let mut turbo_sum = 0.0;
        for k in 0..seeds {
            let seed = lane_study_seed(&inst.name, k);
            let exact = makespan(inst, SaLane::Exact, seed);
            let turbo = makespan(inst, SaLane::Turbo, seed);
            ratios.push(turbo as f64 / exact as f64);
            exact_sum += exact as f64;
            turbo_sum += turbo as f64;
        }
        let row = InstanceRow {
            name: inst.name.clone(),
            source,
            ratios,
            exact_mean_ns: exact_sum / seeds as f64,
            turbo_mean_ns: turbo_sum / seeds as f64,
        };
        println!(
            "{label}{:32} makespan {:.4}  seed-mean {:.4}  p95 {:.4}  worst {:.4}",
            row.name,
            row.makespan_ratio(),
            row.seed_mean(),
            row.p95(),
            row.worst()
        );
        rows.push(row);
    }
    rows
}

/// The per-instance JSON rows, one per line at `indent`.
fn json_rows(json: &mut String, rows: &[InstanceRow], indent: &str) {
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "{indent}{{\"name\": \"{}\", \"source\": \"{}\", \"makespan_ratio\": {:.6}, \
             \"seed_mean_ratio\": {:.6}, \"p95_ratio\": {:.6}, \"worst_ratio\": {:.6}, \
             \"best_ratio\": {:.6}, \"exact_mean_ns\": {:.1}, \"turbo_mean_ns\": {:.1}}}",
            r.name,
            r.source,
            r.makespan_ratio(),
            r.seed_mean(),
            r.p95(),
            r.worst(),
            r.best(),
            r.exact_mean_ns,
            r.turbo_mean_ns
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
}

fn main() {
    let args = parse_args();
    let instances = study_instances(&args);

    let rows = study(&instances, args.seeds, "", staged_makespan);
    let staged = aggregate(&rows);
    let instance_max = lane_instance_gate(args.seeds);
    let gate_pass = staged.corpus_mean <= LANE_CORPUS_MEAN_MAX
        && rows.iter().all(|r| r.makespan_ratio() <= instance_max);

    let static_rows = study(&instances, args.seeds, "static-sa ", static_makespan);
    let stat = aggregate(&static_rows);

    // Hand-rolled JSON (no serde in the workspace); deterministic field
    // order and fixed-precision floats, so re-runs are byte-identical.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"study\": \"lane_equivalence\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if args.smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"lanes\": [\"exact\", \"turbo\"],");
    let _ = writeln!(json, "  \"seeds_per_instance\": {},", args.seeds);
    let _ = writeln!(
        json,
        "  \"gates\": {{\"corpus_mean_max\": {LANE_CORPUS_MEAN_MAX}, \
         \"instance_mean_max\": {instance_max:.6}, \
         \"instance_mean_max_calibrated\": {LANE_INSTANCE_MEAN_MAX}, \
         \"calibration_seeds\": {LANE_GATE_SEEDS}}},"
    );
    json.push_str("  \"instances\": [\n");
    json_rows(&mut json, &rows, "    ");
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"aggregate\": {{\"corpus_mean_ratio\": {:.6}, \
         \"worst_instance\": \"{}\", \"worst_instance_mean\": {:.6}, \
         \"worst_seed_ratio\": {:.6}, \"gate_pass\": {gate_pass}}},",
        staged.corpus_mean, staged.worst_name, staged.worst_mean, staged.worst_seed
    );
    let cell = static_sa_cell_config(0, EvaluatorKind::default(), SaLane::default());
    let _ = writeln!(
        json,
        "  \"static_sa\": {{\"gated\": false, \"max_iters\": {}, \"stable_iters\": {}, \
         \"instances\": [",
        cell.max_iters, cell.stable_iters
    );
    json_rows(&mut json, &static_rows, "      ");
    let _ = writeln!(
        json,
        "    ],\n    \"aggregate\": {{\"corpus_mean_ratio\": {:.6}, \
         \"worst_instance\": \"{}\", \"worst_instance_mean\": {:.6}, \
         \"worst_seed_ratio\": {:.6}}}}}\n}}",
        stat.corpus_mean, stat.worst_name, stat.worst_mean, stat.worst_seed
    );

    if let Some(parent) = args.out.parent() {
        std::fs::create_dir_all(parent).expect("create output dir");
    }
    std::fs::write(&args.out, &json).expect("write LANE_EQUIV.json");
    println!(
        "\ncorpus makespan ratio {:.4} (max {LANE_CORPUS_MEAN_MAX}), worst instance \
         {} {:.4} (max {instance_max:.4} at {} seeds), worst per-seed ratio {:.4}",
        staged.corpus_mean, staged.worst_name, staged.worst_mean, args.seeds, staged.worst_seed
    );
    println!(
        "static-sa (not gated): corpus makespan ratio {:.4}, worst instance {} {:.4}",
        stat.corpus_mean, stat.worst_name, stat.worst_mean
    );
    println!("wrote {}", args.out.display());

    if !gate_pass {
        eprintln!("EQUIVALENCE GATE FAILED");
        std::process::exit(1);
    }
    println!("equivalence gate: PASS");
}

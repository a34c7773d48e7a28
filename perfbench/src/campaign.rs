//! Campaign workloads: the real `campaign` binary on the generated
//! campaign family, with the project defaults (no `--sa-lane`, no
//! `--evaluator`), `--threads nproc` and a fresh directory per run.
//!
//! * `campaign-fast` — the default portfolio (12 schedulers);
//! * `campaign-full` — `--full`, which adds whole-graph static SA;
//! * `campaign-metrics` — `campaign-fast` plus `--metrics PATH`.
//!
//! The untraced run times whole invocations and checks each one: exit
//! code 0, a sealed and complete `matrix.csv` whose makespans match the
//! warm-up invocation's exactly, a sealed `standings.csv`, and for
//! `--metrics` a deterministic metrics view that counts every cell and
//! sums to the matrix. A sample of cells is re-evaluated through the
//! general engine (`PortfolioEntry::evaluate`) and must match.
//!
//! The traced run replays the binary's work in-process through the
//! layers' public functions, with spans around each call: lease claim,
//! shard run, artifact commit, scan, merge and metrics merge. Its merged
//! matrix must equal the binary's byte for byte. Probes outside the
//! replica time instance generation, the staged-SA cell minus its
//! replay through the fast path, the same replay through the general
//! engine, and static SA at the portfolio's cell settings.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use anneal_arena::{
    campaign_instance, parse_cells_jsonl, run_shard_observed, shard_file_name,
    shard_metrics_file_name, CampaignConfig, Portfolio, ShardObs,
};
use anneal_core::static_sa::{static_sa, StaticSaConfig};
use anneal_core::{EvaluatorKind, SaConfig, SaLane, SaScheduler, SaStats};
use anneal_fleet::{commit_bytes, read_sealed, seal, try_claim, unix_time_ms, Claim, LeaseConfig};
use anneal_obs::{MetricsRegistry, NullClock, WallClock};
use anneal_report::{merge_shard_csvs, scan_sealed_shards, CellSample, MergedCampaign};
use anneal_sim::{simulate, simulate_makespan, FixedMapping, SimScratch};

use crate::metrics::{CELL_NS, SCHEDULERS};
use crate::proc::{self, ChildRun};
use crate::stats::{geomean, median, mix, spread_note, Digest};
use crate::trace::{Tracer, NO_CELL};
use crate::{Outcome, RunCfg, Workload};

/// Name of the metrics file the `campaign-metrics` workload asks for.
const METRICS_FILE: &str = "metrics.json";

/// The shape of one workload's invocation.
#[derive(Debug, Clone, Copy)]
struct Shape {
    instances: usize,
    shards: usize,
    full: bool,
    metrics: bool,
    /// Portfolio entries, i.e. matrix columns.
    entries: usize,
}

impl Shape {
    fn of(cfg: &RunCfg) -> Shape {
        let full = cfg.workload == Workload::CampaignFull;
        Shape {
            instances: if full {
                cfg.sizes.full_instances
            } else {
                cfg.sizes.fast_instances
            },
            shards: cfg.sizes.shards,
            full,
            metrics: cfg.workload == Workload::CampaignMetrics,
            entries: if full {
                Portfolio::standard().len()
            } else {
                Portfolio::fast().len()
            },
        }
    }

    /// The same invocation on the minimal family: one instance per
    /// shard — the fixed cost every campaign pays.
    fn minimal(self) -> Shape {
        Shape {
            instances: self.shards,
            ..self
        }
    }

    fn cells(self) -> u64 {
        (self.instances * self.entries) as u64
    }
}

/// The settings the binary ran with, read back from its sealed
/// `campaign.meta`, so the in-process replica and the checks build the
/// portfolio the binary used (its defaults, whatever they are).
#[derive(Debug, Clone, Copy)]
struct Production {
    /// Staged-SA inner-loop lane.
    pub lane: SaLane,
    /// Static SA move evaluator.
    pub evaluator: EvaluatorKind,
}

impl Production {
    /// Parses `campaign.meta`; a field the binary no longer writes
    /// falls back to the library default.
    fn read(dir: &Path) -> Result<Production, String> {
        let body =
            read_sealed(&dir.join("campaign.meta")).map_err(|e| format!("campaign.meta: {e}"))?;
        let field = |key: &str| {
            body.lines()
                .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                .map(str::to_string)
        };
        let lane = match field("sa-lane") {
            Some(v) => v
                .parse()
                .map_err(|e| format!("campaign.meta sa-lane: {e}"))?,
            None => SaLane::default(),
        };
        let evaluator = match field("evaluator") {
            Some(v) => v
                .parse()
                .map_err(|e| format!("campaign.meta evaluator: {e}"))?,
            None => EvaluatorKind::default(),
        };
        Ok(Production { lane, evaluator })
    }

    /// The portfolio the binary evaluates.
    fn portfolio(self, full: bool) -> Portfolio {
        if full {
            Portfolio::standard_with_lanes(self.evaluator, self.lane)
        } else {
            Portfolio::fast_with_lane(self.lane)
        }
    }
}

/// The seed of campaign cell (entry `e`, instance `j`): the arena's
/// SplitMix64 cell seed over the global instance index.
fn cell_seed(base: u64, e: usize, j: usize) -> u64 {
    mix(base, e as u64, j as u64)
}

/// Runs the binary once on `shape` in a fresh `dir`.
fn invoke(cfg: &RunCfg, shape: Shape, dir: &Path) -> Result<ChildRun, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut cmd = Command::new(&cfg.campaign_bin);
    cmd.arg(shape.instances.to_string())
        .arg(shape.shards.to_string())
        .arg(cfg.seed.to_string())
        .arg("--threads")
        .arg(cfg.threads.to_string())
        .arg("--dir")
        .arg(dir);
    if shape.full {
        cmd.arg("--full");
    }
    if shape.metrics {
        cmd.arg("--metrics").arg(dir.join(METRICS_FILE));
    }
    let log = dir.with_extension("stderr");
    let run = proc::run(&mut cmd, Stdio::null(), &log)
        .map_err(|e| format!("{}: {e}", cfg.campaign_bin.display()))?;
    let _ = fs::remove_file(&log);
    if run.ok() {
        Ok(run)
    } else {
        Err(format!(
            "campaign exited with {:?}: {}",
            run.code,
            run.stderr.lines().last().unwrap_or("")
        ))
    }
}

/// A validated campaign result.
#[derive(Debug)]
struct Checked {
    merged: MergedCampaign,
    matrix: String,
    digest: u64,
}

/// Checks one invocation's artifacts: sealed and complete matrix and
/// standings, the expected scheduler columns, positive makespans, and
/// for `--metrics` a deterministic view that accounts for every cell.
fn check_outputs(dir: &Path, shape: Shape, names: Option<&[String]>) -> Result<Checked, String> {
    let matrix = read_sealed(&dir.join("matrix.csv")).map_err(|e| format!("matrix.csv: {e}"))?;
    read_sealed(&dir.join("standings.csv")).map_err(|e| format!("standings.csv: {e}"))?;
    let merged = merge_shard_csvs(&[matrix.as_str()]).map_err(|e| format!("matrix.csv: {e}"))?;
    if merged.schedulers.len() != shape.entries {
        return Err(format!("matrix.csv has columns {:?}", merged.schedulers));
    }
    if let Some(names) = names {
        if merged.schedulers != names {
            return Err(format!(
                "matrix.csv columns {:?} are not the portfolio {names:?}",
                merged.schedulers
            ));
        }
    }
    if merged.rows.len() != shape.instances {
        return Err(format!(
            "matrix.csv has {} rows, expected {}",
            merged.rows.len(),
            shape.instances
        ));
    }
    for (i, row) in merged.rows.iter().enumerate() {
        if row.index != i as u64 || row.makespans.contains(&0) {
            return Err(format!("matrix.csv row {i} is missing or empty"));
        }
    }
    let sum: u64 = merged.rows.iter().flat_map(|r| r.makespans.iter()).sum();
    if shape.metrics {
        let det_path = dir.join(METRICS_FILE).with_extension("det.json");
        let text =
            fs::read_to_string(&det_path).map_err(|e| format!("{}: {e}", det_path.display()))?;
        let v = anneal_obs::json::parse(&text).map_err(|e| format!("metrics.det.json: {e}"))?;
        let m = v.get("metrics");
        let cells = m
            .and_then(|m| m.get("arena.cells"))
            .and_then(|c| c.get("value"))
            .and_then(|c| c.as_u64());
        let total = m
            .and_then(|m| m.get("arena.makespan_ns"))
            .and_then(|h| h.get("sum"))
            .and_then(|s| s.as_u64());
        if cells != Some(shape.cells()) || total != Some(sum) {
            return Err(format!(
                "metrics.det.json counts {cells:?} cells summing to {total:?}, matrix has {} summing to {sum}",
                shape.cells()
            ));
        }
        for ext in ["summary.txt", "timeshare.svg"] {
            let p = dir.join(METRICS_FILE).with_extension(ext);
            if fs::metadata(&p).map_or(true, |m| m.len() == 0) {
                return Err(format!("{} is missing", p.display()));
            }
        }
    }
    Ok(Checked {
        digest: makespan_digest(&merged),
        merged,
        matrix,
    })
}

/// Digest of every makespan of a merged matrix, row by row.
fn makespan_digest(merged: &MergedCampaign) -> u64 {
    let mut digest = Digest::default();
    for &m in merged.rows.iter().flat_map(|r| r.makespans.iter()) {
        digest.push(m);
    }
    digest.value()
}

/// Geometric mean over instances of `column` / `hlf`.
fn vs_hlf(merged: &MergedCampaign, column: &str) -> Option<f64> {
    let col = merged.schedulers.iter().position(|s| s == column)?;
    let hlf = merged.schedulers.iter().position(|s| s == "hlf")?;
    let ratios: Vec<f64> = merged
        .rows
        .iter()
        .map(|r| r.makespans[col] as f64 / r.makespans[hlf] as f64)
        .collect();
    Some(geomean(&ratios))
}

/// Re-evaluates `n` cells through the general engine and compares them
/// with the matrix. Returns the mismatching cells' descriptions.
fn sample_check(seed: u64, port: &Portfolio, merged: &MergedCampaign, n: usize) -> Vec<String> {
    let mut bad = Vec::new();
    let rows = merged.rows.len();
    for i in 0..n {
        let e = i % port.len();
        let j = (mix(seed, i as u64, 0x5a) % rows as u64) as usize;
        let inst = campaign_instance(seed, j);
        let entry = &port.entries()[e];
        match entry.evaluate(&inst, cell_seed(seed, e, j)) {
            Ok(r) => {
                if let Err(err) = r.audit(&inst.graph) {
                    bad.push(format!(
                        "{} on {}: audit failed: {err}",
                        entry.name(),
                        inst.name
                    ));
                }
                let want = merged.rows[j].makespans[e];
                if r.makespan != want {
                    bad.push(format!(
                        "{} on {}: general engine {} vs matrix {want}",
                        entry.name(),
                        inst.name,
                        r.makespan
                    ));
                }
            }
            Err(err) => bad.push(format!("{} on {}: {err}", entry.name(), inst.name)),
        }
    }
    bad
}

/// Runs a campaign workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = fs::create_dir_all(&cfg.work_dir) {
        out.fail(1, format!("{}: {e}", cfg.work_dir.display()));
        return out;
    }
    let shape = Shape::of(cfg);
    let dir = |tag: &str| {
        cfg.work_dir
            .join(format!("{}-{}-{tag}", cfg.workload.name(), cfg.seed))
    };

    // Set-up: the fixed cost of an invocation, on the minimal family.
    let mut setup_s = Vec::new();
    if !cfg.trace {
        for k in 0..cfg.sizes.setup_reps.max(1) {
            let d = dir(&format!("setup{k}"));
            out.attempted += shape.minimal().cells();
            match invoke(cfg, shape.minimal(), &d).and_then(|r| {
                check_outputs(&d, shape.minimal(), None)?;
                Ok(r)
            }) {
                Ok(r) => setup_s.push(r.wall_s),
                Err(e) => out.fail(shape.minimal().cells(), format!("set-up invocation: {e}")),
            }
            let _ = fs::remove_dir_all(&d);
        }
    }

    // Warm-up: the reference matrix and the binary's own settings.
    let d = dir("warm");
    out.attempted += shape.cells();
    let warm = invoke(cfg, shape, &d)
        .and_then(|_| Ok((check_outputs(&d, shape, None)?, Production::read(&d)?)));
    let _ = fs::remove_dir_all(&d);
    let (reference, prod) = match warm {
        Ok(w) => w,
        Err(e) => {
            out.fail(shape.cells(), format!("warm-up invocation: {e}"));
            return out;
        }
    };
    let port = prod.portfolio(shape.full);
    if reference.merged.schedulers != port.names() {
        out.fail(
            shape.cells(),
            "matrix columns are not the binary's portfolio",
        );
        return out;
    }
    out.digest = reference.digest;

    if cfg.trace {
        traced(cfg, shape, prod, &port, &reference, &mut out);
        return out;
    }

    out.attempted += cfg.sizes.check_cells as u64;
    for e in sample_check(cfg.seed, &port, &reference.merged, cfg.sizes.check_cells) {
        out.fail(1, e);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    while walls.len() < cfg.sizes.min_reps || Instant::now() < deadline {
        let d = dir(&format!("rep{}", walls.len()));
        out.attempted += shape.cells();
        match invoke(cfg, shape, &d) {
            Ok(r) => {
                match check_outputs(&d, shape, Some(&reference.merged.schedulers)) {
                    Ok(c) if c.digest == reference.digest => {}
                    Ok(_) => out.fail(
                        shape.cells(),
                        "makespans differ between invocations of one seed",
                    ),
                    Err(e) => out.fail(shape.cells(), e),
                }
                walls.push(r.wall_s);
                rss.push(r.maxrss_kib as f64 * 1024.0 / 1e6);
            }
            Err(e) => out.fail(shape.cells(), e),
        }
        let _ = fs::remove_dir_all(&d);
        if out.failed > 0 {
            break;
        }
    }
    let wall_s = median(&walls);
    out.notes.push(spread_note(&walls));
    let r = &mut out.report;
    r.set("setup_s", median(&setup_s));
    r.set("wall_s", wall_s);
    r.set("cells_per_s", shape.cells() as f64 / wall_s);
    r.set(
        "sa_vs_hlf",
        vs_hlf(&reference.merged, "sa").unwrap_or(f64::NAN),
    );
    r.set("peak_rss_mb", median(&rss));
    if let Some(v) = vs_hlf(&reference.merged, "static-sa") {
        r.set("static_sa_vs_hlf", v);
    }
    out
}

const OWNER: &str = "perfbench";
const LEASE: LeaseConfig = LeaseConfig {
    timeout_ms: 30_000,
    heartbeat_ms: 3_000,
};

/// One in-process replica of an invocation.
#[derive(Debug)]
struct Replica {
    wall_ns: u64,
    matrix: String,
    obs: Vec<ShardObs>,
    /// Wall time of each shard's `run_shard_observed`, ns.
    shard_ns: Vec<u64>,
    /// Bytes committed through `commit_bytes`.
    bytes: u64,
    /// Bytes of sealed shard metrics JSONL.
    jsonl_bytes: u64,
}

fn commit(
    tr: &mut Tracer,
    cell: u64,
    path: &Path,
    text: &str,
    bytes: &mut u64,
) -> Result<(), String> {
    *bytes += text.len() as u64;
    tr.span("fleet.artifact.commit", cell, |_| {
        commit_bytes(path, text.as_bytes())
    })
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// The binary's work, through the layers' public functions: provenance
/// stamp, then per shard lease claim, shard run under a wall clock,
/// sealed commit (plus metrics JSONL), then scan, merge, commit of the
/// merged matrix and standings, and the metrics merge.
fn replica(
    shape: Shape,
    ccfg: &CampaignConfig,
    prod: Production,
    port: &Portfolio,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Replica, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let clock = WallClock::new();
    let t0 = Instant::now();
    let mut rep = tr.span(
        "campaign.replica",
        NO_CELL,
        |tr| -> Result<Replica, String> {
            let mut rep = Replica {
                wall_ns: 0,
                matrix: String::new(),
                obs: Vec::new(),
                shard_ns: Vec::new(),
                bytes: 0,
                jsonl_bytes: 0,
            };
            let meta = format!(
                "instances={}\nshards={}\nseed={}\nportfolio={}\nevaluator={}\nsa-lane={}\n",
                ccfg.instances,
                ccfg.shards,
                ccfg.base_seed,
                if shape.full { "standard" } else { "fast" },
                prod.evaluator,
                prod.lane
            );
            commit(
                tr,
                NO_CELL,
                &dir.join("campaign.meta"),
                &seal(&meta),
                &mut rep.bytes,
            )?;
            for k in 0..ccfg.shards {
                let cell = k as u64;
                let claim = tr
                    .span("fleet.lease.claim", cell, |_| {
                        try_claim(dir, k, OWNER, unix_time_ms(), &LEASE)
                    })
                    .map_err(|e| format!("lease {k}: {e}"))?;
                let Claim::Acquired(lease) = claim else {
                    return Err(format!("lease {k} is held elsewhere"));
                };
                let ts = Instant::now();
                let (result, obs) = tr
                    .span("arena.shard", cell, |_| {
                        run_shard_observed(port, ccfg, k, &clock)
                    })
                    .map_err(|e| format!("shard {k}: {e}"))?;
                rep.shard_ns.push(ts.elapsed().as_nanos() as u64);
                commit(
                    tr,
                    cell,
                    &dir.join(shard_file_name(k)),
                    &result.to_sealed_csv(),
                    &mut rep.bytes,
                )?;
                if shape.metrics {
                    let text = tr.span("obs.encode", cell, |_| obs.to_sealed_jsonl());
                    rep.jsonl_bytes += text.len() as u64;
                    commit(
                        tr,
                        cell,
                        &dir.join(shard_metrics_file_name(k)),
                        &text,
                        &mut rep.bytes,
                    )?;
                }
                lease.release().map_err(|e| format!("lease {k}: {e}"))?;
                rep.obs.push(obs);
            }
            let scan = tr
                .span("report.merge.scan", NO_CELL, |_| {
                    scan_sealed_shards(dir, ccfg.shards, shard_file_name)
                })
                .map_err(|e| format!("scan: {e}"))?;
            if !scan.complete() {
                return Err(format!("scan found missing shards {:?}", scan.missing));
            }
            let (matrix, standings) = tr
                .span("report.merge.merge", NO_CELL, |_| {
                    let texts: Vec<&str> = scan.valid.iter().map(|(_, t)| t.as_str()).collect();
                    merge_shard_csvs(&texts).map(|m| (m.matrix_csv(), m.standings_csv()))
                })
                .map_err(|e| format!("merge: {e}"))?;
            commit(
                tr,
                NO_CELL,
                &dir.join("matrix.csv"),
                &seal(matrix.as_str()),
                &mut rep.bytes,
            )?;
            commit(
                tr,
                NO_CELL,
                &dir.join("standings.csv"),
                &seal(standings.as_str()),
                &mut rep.bytes,
            )?;
            rep.matrix = matrix.as_str().to_string();
            if shape.metrics {
                let mut bytes = 0;
                tr.span("obs.merge", NO_CELL, |tr| {
                    merge_metrics(dir, ccfg.shards, tr, &mut bytes)
                })?;
                rep.bytes += bytes;
            }
            Ok(rep)
        },
    )?;
    rep.wall_ns = t0.elapsed().as_nanos() as u64;
    let _ = fs::remove_dir_all(dir);
    Ok(rep)
}

/// The binary's `--metrics` merge: every shard's sealed JSONL into one
/// registry plus the cell events, then the registry, its deterministic
/// view, the summary and the time-share SVG.
fn merge_metrics(
    dir: &Path,
    shards: usize,
    tr: &mut Tracer,
    bytes: &mut u64,
) -> Result<(), String> {
    let mut registry = MetricsRegistry::new();
    let mut cells = Vec::new();
    for k in 0..shards {
        let path = dir.join(shard_metrics_file_name(k));
        let text = read_sealed(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        registry
            .merge_jsonl(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        cells.extend(parse_cells_jsonl(&text)?);
    }
    cells.sort_by(|a, b| (a.instance_index, &a.scheduler).cmp(&(b.instance_index, &b.scheduler)));
    let samples: Vec<CellSample> = cells
        .iter()
        .map(|c| CellSample {
            scheduler: c.scheduler.clone(),
            instance: c.instance.clone(),
            wall_ns: c.wall_ns,
        })
        .collect();
    let path = dir.join(METRICS_FILE);
    commit(tr, NO_CELL, &path, &registry.to_json(), bytes)?;
    let det = registry.deterministic_only().to_json();
    commit(tr, NO_CELL, &path.with_extension("det.json"), &det, bytes)?;
    let summary = anneal_report::render_metrics_summary(&samples, 10);
    commit(
        tr,
        NO_CELL,
        &path.with_extension("summary.txt"),
        &summary,
        bytes,
    )?;
    let svg = anneal_report::render_time_share_svg(&samples);
    commit(
        tr,
        NO_CELL,
        &path.with_extension("timeshare.svg"),
        &svg,
        bytes,
    )
}

/// Totals of the single-threaded probes over every instance.
#[derive(Debug, Default)]
struct Probe {
    gen_ns: u64,
    tasks: u64,
    sa: SaStats,
    sa_ns: u64,
    replay_ns: u64,
    replay_events: u64,
    engine_ns: u64,
    engine_events: u64,
    static_ns: u64,
    static_evals: u64,
    static_proposed: u64,
    static_accepted: u64,
    /// Probe cells whose makespan differs from the matrix.
    mismatches: u64,
}

/// Times the layers under a campaign cell, one instance at a time:
/// `campaign_instance`; the staged-SA cell through `simulate_makespan`
/// and the replay of its schedule as a `FixedMapping` (the difference
/// is SA's own time); the same replay through the general engine
/// (`simulate`, which the campaign itself never calls, so the layer is
/// measured by a workload the benchmark bounds); and, with `--full`,
/// `static_sa` at the portfolio's cell settings.
fn probe(
    cfg: &RunCfg,
    shape: Shape,
    prod: Production,
    port: &Portfolio,
    reference: &MergedCampaign,
    tr: &mut Tracer,
) -> Result<Probe, String> {
    let names = port.names();
    let pos = |n: &str| names.iter().position(|s| s == n);
    let e_sa = pos("sa").ok_or("portfolio has no sa entry")?;
    let e_static = pos("static-sa");
    let mut p = Probe::default();
    let mut scratch = SimScratch::new();
    for j in 0..shape.instances {
        let cell = j as u64;
        let t = Instant::now();
        let inst = tr.span("probe.graph.generate", cell, |_| {
            campaign_instance(cfg.seed, j)
        });
        p.gen_ns += t.elapsed().as_nanos() as u64;
        p.tasks += inst.graph.num_tasks() as u64;
        let (g, topo, params, sim_cfg) = (&inst.graph, &inst.topology, &inst.params, &inst.sim_cfg);
        let err = |e: anneal_sim::SimError| format!("probe on {}: {e}", inst.name);

        let sa_cfg = SaConfig::default()
            .with_seed(cell_seed(cfg.seed, e_sa, j))
            .with_lane(prod.lane);
        let schedule = simulate(
            g,
            topo,
            params,
            &mut SaScheduler::new(sa_cfg.clone()),
            sim_cfg,
        )
        .map_err(err)?;
        let mut sched = SaScheduler::new(sa_cfg);
        let t = Instant::now();
        let makespan = tr
            .span("probe.core.sa", cell, |_| {
                simulate_makespan(g, topo, params, &mut sched, sim_cfg, &mut scratch)
            })
            .map_err(err)?;
        p.sa_ns += t.elapsed().as_nanos() as u64;
        let s = &sched.stats;
        p.sa.packets += s.packets;
        p.sa.moves += s.moves;
        p.sa.accepted += s.accepted;
        p.sa.candidates += s.candidates;
        p.mismatches += u64::from(makespan != reference.rows[j].makespans[e_sa]);

        let mut fm =
            FixedMapping::new(schedule.placement.clone()).with_order(schedule.start.clone());
        let t = Instant::now();
        let replay = tr
            .span("probe.sim.engine.replay", cell, |_| {
                simulate(g, topo, params, &mut fm, sim_cfg)
            })
            .map_err(err)?;
        p.engine_ns += t.elapsed().as_nanos() as u64;
        p.engine_events += replay.obs.events;

        let mut fm = FixedMapping::new(schedule.placement).with_order(schedule.start);
        let t = Instant::now();
        tr.span("probe.sim.fastpath.replay", cell, |_| {
            simulate_makespan(g, topo, params, &mut fm, sim_cfg, &mut scratch)
        })
        .map_err(err)?;
        p.replay_ns += t.elapsed().as_nanos() as u64;
        p.replay_events += scratch.last_run_stats().events;

        if let Some(e) = e_static {
            let st_cfg = StaticSaConfig {
                max_iters: 40,
                stable_iters: 6,
                seed: cell_seed(cfg.seed, e, j),
                evaluator: prod.evaluator,
                lane: prod.lane,
                ..StaticSaConfig::default()
            };
            let t = Instant::now();
            let o = tr
                .span("probe.core.static_sa", cell, |_| {
                    static_sa(g, topo, params, sim_cfg, &st_cfg)
                })
                .map_err(err)?;
            p.static_ns += t.elapsed().as_nanos() as u64;
            p.static_evals += o.evaluations;
            p.static_proposed += o.proposed;
            p.static_accepted += o.accepted;
            p.mismatches += u64::from(o.result.makespan != reference.rows[j].makespans[e]);
        }
    }
    Ok(p)
}

/// The traced run: probes once, then alternates untraced binary
/// invocations, untraced and traced replicas, and a `NullClock` pass
/// over the shards until the time is up.
fn traced(
    cfg: &RunCfg,
    shape: Shape,
    prod: Production,
    port: &Portfolio,
    reference: &Checked,
    out: &mut Outcome,
) {
    let ccfg = CampaignConfig {
        instances: shape.instances,
        shards: shape.shards,
        base_seed: cfg.seed,
        max_threads: cfg.threads,
    };
    // `arena.cell_ns.<name>` reads 0 for a declared name the portfolio
    // lacks, so a renamed entry must fail rather than vanish.
    let names = port.names();
    if names.len() > SCHEDULERS.len() || names.iter().zip(SCHEDULERS).any(|(n, s)| n != s) {
        out.fail(
            shape.cells(),
            format!("portfolio {names:?} is not a prefix of the declared {SCHEDULERS:?}"),
        );
        return;
    }
    let mut spans = String::new();
    let mut ptr = Tracer::on();
    out.attempted += shape.instances as u64;
    let pb = match probe(cfg, shape, prod, port, &reference.merged, &mut ptr) {
        Ok(p) => p,
        Err(e) => {
            out.fail(shape.instances as u64, e);
            return;
        }
    };
    // The probes must time the campaign's own cells.
    if pb.mismatches > 0 {
        out.fail(
            pb.mismatches,
            format!("{} probe makespans differ from the matrix", pb.mismatches),
        );
        return;
    }
    ptr.write_jsonl(&mut spans, 0);

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let dir = |tag: &str| {
        cfg.work_dir
            .join(format!("{}-{}-{tag}", cfg.workload.name(), cfg.seed))
    };
    let mut binary_ns = Vec::new();
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut null_ns = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, u64>> = Vec::new();
    let mut reps: Vec<Replica> = Vec::new();
    while traced_ns.len() < cfg.sizes.min_reps || Instant::now() < deadline {
        out.attempted += 3 * shape.cells();
        let d = dir("bin");
        match invoke(cfg, shape, &d).and_then(|r| Ok((r, check_outputs(&d, shape, None)?))) {
            Ok((r, c)) if c.digest == reference.digest => binary_ns.push(r.wall_s * 1e9),
            Ok(_) => out.fail(
                shape.cells(),
                "makespans differ between invocations of one seed",
            ),
            Err(e) => out.fail(shape.cells(), e),
        }
        let _ = fs::remove_dir_all(&d);
        for trace_on in [false, true] {
            let mut tr = if trace_on {
                Tracer::on()
            } else {
                Tracer::off()
            };
            match replica(shape, &ccfg, prod, port, &dir("replica"), &mut tr) {
                Ok(rep) if rep.matrix == reference.matrix => {
                    if trace_on {
                        traced_ns.push(rep.wall_ns as f64);
                        layers.push(tr.self_by_name());
                        let first_id = spans.lines().count();
                        tr.write_jsonl(&mut spans, first_id);
                        reps.push(rep);
                    } else {
                        plain_ns.push(rep.wall_ns as f64);
                    }
                }
                Ok(_) => out.fail(
                    shape.cells(),
                    "in-process replica's matrix differs from the binary's",
                ),
                Err(e) => out.fail(shape.cells(), e),
            }
        }
        let t = Instant::now();
        for k in 0..shape.shards {
            if let Err(e) = run_shard_observed(port, &ccfg, k, &NullClock) {
                out.fail(shape.cells(), format!("null-clock shard {k}: {e}"));
            }
        }
        null_ns.push(t.elapsed().as_nanos() as f64);
        if out.failed > 0 {
            return;
        }
    }
    out.spans = spans;
    match merge_shard_csvs(&[reps[0].matrix.as_str()]) {
        Ok(m) => out.digest = makespan_digest(&m),
        Err(e) => out.fail(shape.cells(), format!("replica matrix: {e}")),
    }

    let layer = |name: &str| {
        median(
            &layers
                .iter()
                .map(|m| *m.get(name).unwrap_or(&0) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let per_rep = |f: &dyn Fn(&Replica) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let per = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    let threads = cfg.threads.max(1) as f64;
    let counter =
        |rep: &Replica, key: &str| rep.obs.iter().map(|o| o.registry.counter(key)).sum::<u64>();
    let fanout = per_rep(&|rep| counter(rep, "time.shard_ns") as f64);
    let busy = per_rep(&|rep| {
        let cells: u64 = rep
            .obs
            .iter()
            .flat_map(|o| o.cells.iter().map(|c| c.wall_ns))
            .sum();
        cells as f64 / (threads * counter(rep, "time.shard_ns").max(1) as f64)
    });
    let mut cell_ns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for c in reps
        .iter()
        .flat_map(|r| r.obs.iter().flat_map(|o| o.cells.iter()))
    {
        cell_ns
            .entry(c.scheduler.as_str())
            .or_default()
            .push(c.wall_ns as f64);
    }

    let first = &reps[0];
    let sa_self = pb.sa_ns as f64 - pb.replay_ns as f64;
    let gen_total = pb.gen_ns as f64;
    let r = &mut out.report;
    r.set("core.sa.packets", pb.sa.packets as f64);
    r.set("core.sa.moves", pb.sa.moves as f64);
    r.set("core.sa.accepted", pb.sa.accepted as f64);
    r.set(
        "core.sa.accept_ratio",
        per(pb.sa.accepted as f64, pb.sa.moves),
    );
    r.set(
        "core.sa.candidates_per_packet",
        per(pb.sa.candidates as f64, pb.sa.packets),
    );
    r.set("core.sa.self_ns", sa_self);
    r.set("core.sa.ns_per_move", per(sa_self, pb.sa.moves));
    r.set("sim.engine.events", pb.engine_events as f64);
    r.set("sim.engine.self_ns", pb.engine_ns as f64);
    r.set(
        "sim.engine.ns_per_event",
        per(pb.engine_ns as f64, pb.engine_events),
    );
    r.set(
        "sim.fastpath.events",
        counter(first, "sim.kernel.events") as f64,
    );
    r.set(
        "sim.fastpath.epochs",
        counter(first, "sim.kernel.epochs") as f64,
    );
    r.set(
        "sim.fastpath.messages",
        counter(first, "sim.kernel.messages") as f64,
    );
    r.set(
        "sim.fastpath.ns_per_event",
        per(pb.replay_ns as f64, pb.replay_events),
    );
    r.set(
        "sim.fastpath.route_builds",
        counter(first, "sched.route_cache.builds") as f64,
    );
    r.set(
        "sim.fastpath.route_hits",
        counter(first, "sched.route_cache.hits") as f64,
    );
    r.set("core.static_sa.evaluations", pb.static_evals as f64);
    r.set(
        "core.static_sa.accept_ratio",
        per(pb.static_accepted as f64, pb.static_proposed),
    );
    r.set(
        "core.static_sa.ns_per_eval",
        per(pb.static_ns as f64, pb.static_evals),
    );
    r.set("core.static_sa.self_ns", pb.static_ns as f64);
    for (name, metric) in SCHEDULERS.iter().zip(CELL_NS) {
        r.set(metric, cell_ns.get(name).map_or(0.0, |v| median(v)));
    }
    r.set("arena.fanout_ns", fanout);
    r.set("core.parallel.busy_frac", busy);
    r.set(
        "graph.generate.ns_per_instance",
        per(gen_total, shape.instances as u64),
    );
    r.set(
        "graph.generate.tasks_mean",
        per(pb.tasks as f64, shape.instances as u64),
    );
    r.set("fleet.artifact.commit_ns", layer("fleet.artifact.commit"));
    r.set("fleet.artifact.bytes", first.bytes as f64);
    r.set("fleet.lease.claim_ns", layer("fleet.lease.claim"));
    r.set("report.merge.scan_ns", layer("report.merge.scan"));
    r.set("report.merge.merge_ns", layer("report.merge.merge"));
    // Binary, replicas and the NullClock pass of one iteration run back
    // to back, so differences are taken per iteration, where slow drift
    // of the host cancels, and then their median.
    let record: Vec<f64> = reps
        .iter()
        .zip(&null_ns)
        .map(|(rep, null)| rep.shard_ns.iter().sum::<u64>() as f64 - null)
        .collect();
    r.set("obs.record_ns", median(&record));
    r.set("obs.encode_ns", layer("obs.encode"));
    r.set("obs.jsonl_bytes", first.jsonl_bytes as f64);
    r.set("obs.merge_ns", layer("obs.merge"));
    let wall = median(&binary_ns);
    let parts = [
        ("graph.generate", gen_total),
        ("arena.fanout", fanout),
        ("fleet.artifact.commit", layer("fleet.artifact.commit")),
        ("fleet.lease.claim", layer("fleet.lease.claim")),
        ("report.merge.scan", layer("report.merge.scan")),
        ("report.merge.merge", layer("report.merge.merge")),
        ("obs.encode", layer("obs.encode")),
        ("obs.merge", layer("obs.merge")),
    ];
    let unattributed: Vec<f64> = binary_ns
        .iter()
        .zip(&layers)
        .zip(&reps)
        .map(|((bin, spans), rep)| {
            let traced: u64 = parts[2..]
                .iter()
                .map(|(name, _)| spans.get(name).copied().unwrap_or(0))
                .sum();
            bin - gen_total - counter(rep, "time.shard_ns") as f64 - traced as f64
        })
        .collect();
    let unattributed = median(&unattributed);
    r.set("campaign.wall_ns", wall);
    r.set("campaign.unattributed_ns", unattributed);
    let plain = median(&plain_ns);
    r.set("trace.overhead_frac", (median(&traced_ns) - plain) / plain);

    out.notes.push(format!(
        "decomposition of campaign wall_s ({:.1} ms, binary, {} threads, {} reps):",
        wall / 1e6,
        cfg.threads,
        binary_ns.len()
    ));
    for (name, v) in parts
        .iter()
        .chain([("campaign.unattributed", unattributed)].iter())
    {
        out.notes.push(format!(
            "  {name:<24} {:>10.2} ms {:>6.1}%",
            v / 1e6,
            100.0 * v / wall
        ));
    }
    let cells_total: f64 = cell_ns.values().map(|v| v.iter().sum::<f64>()).sum();
    let mut by_cell: Vec<(&str, f64)> = cell_ns
        .iter()
        .map(|(k, v)| (*k, v.iter().sum::<f64>()))
        .collect();
    by_cell.sort_by(|a, b| b.1.total_cmp(&a.1));
    let shares: Vec<String> = by_cell
        .iter()
        .take(4)
        .map(|(k, v)| format!("{k} {:.1}%", 100.0 * v / cells_total))
        .collect();
    out.notes
        .push(format!("share of cell time: {}", shares.join(", ")));
    out.notes.push(format!(
        "probe (1 thread): sa cell {:.1} ms = core.sa {:.1}% + sim.fastpath replay {:.1}%; static-sa {:.1} ms",
        pb.sa_ns as f64 / 1e6,
        100.0 * sa_self / pb.sa_ns.max(1) as f64,
        100.0 * pb.replay_ns as f64 / pb.sa_ns.max(1) as f64,
        pb.static_ns as f64 / 1e6
    ));
}

//! `paper-sa`: the paper's Table 2 grid scheduled by staged SA.
//!
//! Four paper programs × `paper_architectures()` × communication off/on
//! make 24 cells. One pass schedules every cell with `S` SA seeds drawn
//! from the workload seed, one `simulate` call at a time: a closed loop
//! of one user who schedules one program and waits for the result. HLF
//! is the quality reference (deterministic, computed once in set-up).
//!
//! Every schedule is audited, and every pass must reproduce the first
//! pass's makespans exactly.

use std::time::{Duration, Instant};

use anneal_core::{HlfScheduler, SaConfig, SaScheduler, SaStats};
use anneal_graph::TaskGraph;
use anneal_sim::{simulate, FixedMapping, SimConfig};
use anneal_topology::builders::paper_architectures;
use anneal_topology::{CommParams, Topology};
use anneal_workloads::paper_workloads;

use crate::stats::{geomean, median, mix, percentile, spread_note, Digest};
use crate::trace::Tracer;
use crate::{Outcome, RunCfg};

/// One Table 2 cell: a program on an architecture, with or without
/// communication, plus its HLF makespan.
#[derive(Debug, Clone)]
struct Cell {
    /// Program name.
    pub program: &'static str,
    /// The program's task graph.
    pub graph: TaskGraph,
    /// The host architecture.
    pub topo: Topology,
    /// Communication overheads (zero without communication).
    pub params: CommParams,
    /// Engine configuration.
    pub sim_cfg: SimConfig,
    /// HLF makespan, ns.
    pub hlf: u64,
}

/// Builds the 24-cell grid and its HLF references.
fn build_grid() -> Result<Vec<Cell>, String> {
    let mut cells = Vec::with_capacity(24);
    for (program, graph) in paper_workloads() {
        for topo in paper_architectures() {
            for comm in [false, true] {
                let params = if comm {
                    CommParams::paper()
                } else {
                    CommParams::zero()
                };
                let sim_cfg = SimConfig {
                    comm_enabled: comm,
                    ..SimConfig::default()
                };
                let r = simulate(&graph, &topo, &params, &mut HlfScheduler::new(), &sim_cfg)
                    .map_err(|e| format!("HLF on {program}/{}: {e}", topo.name()))?;
                r.audit(&graph)
                    .map_err(|e| format!("HLF on {program}/{}: {e}", topo.name()))?;
                cells.push(Cell {
                    program,
                    graph: graph.clone(),
                    topo: topo.clone(),
                    params,
                    sim_cfg,
                    hlf: r.makespan,
                });
            }
        }
    }
    Ok(cells)
}

/// The SA seed of cell `cell`, repetition `s`, under workload `seed`.
pub fn sa_seed(seed: u64, cell: usize, s: usize) -> u64 {
    mix(seed ^ 0x7061_7065_7273_6121, cell as u64, s as u64)
}

/// The benchmark's set-up: the grid plus one warm-up schedule whose
/// result is not measured.
fn setup(seed: u64) -> Result<Vec<Cell>, String> {
    let grid = build_grid()?;
    let c = &grid[0];
    let mut sched = SaScheduler::new(SaConfig::default().with_seed(sa_seed(seed, 0, 0)));
    simulate(&c.graph, &c.topo, &c.params, &mut sched, &c.sim_cfg)
        .map_err(|e| format!("warm-up schedule: {e}"))?;
    Ok(grid)
}

/// What one pass over the grid measured.
#[derive(Debug, Default)]
struct Pass {
    /// Σ schedule latencies, ns.
    wall_ns: u64,
    /// Per-schedule latency, ms.
    lat_ms: Vec<f64>,
    digest: Digest,
    /// SA makespan / HLF makespan per schedule.
    ratios: Vec<f64>,
    /// SA counters summed over the pass.
    sa: SaStats,
    /// Σ replay time of SA's schedules through the engine, ns.
    engine_ns: u64,
    /// Σ engine events of those replays.
    engine_events: u64,
}

/// Schedules every (seed, cell) once, `seeds` SA seeds per cell. With
/// `probe`, each schedule is also replayed as a `FixedMapping` through
/// the general engine, so the engine's share of a schedule can be
/// subtracted from SA's.
fn pass(
    grid: &[Cell],
    seed: u64,
    seeds: usize,
    tr: &mut Tracer,
    probe: bool,
    out: &mut Outcome,
) -> Pass {
    let mut p = Pass::default();
    for s in 0..seeds {
        for (c, cell) in grid.iter().enumerate() {
            let id = (c * seeds + s) as u64;
            let sa_cfg = SaConfig::default().with_seed(sa_seed(seed, c, s));
            out.attempted += 1;
            let t0 = Instant::now();
            let (res, stats) = tr.span("paper.schedule", id, |_| {
                let mut sched = SaScheduler::new(sa_cfg);
                let r = simulate(
                    &cell.graph,
                    &cell.topo,
                    &cell.params,
                    &mut sched,
                    &cell.sim_cfg,
                );
                (r, std::mem::take(&mut sched.stats))
            });
            let dt = t0.elapsed().as_nanos() as u64;
            let r = match res {
                Ok(r) => r,
                Err(e) => {
                    out.fail(
                        1,
                        format!("SA on {}/{}: {e}", cell.program, cell.topo.name()),
                    );
                    continue;
                }
            };
            if let Err(e) = r.audit(&cell.graph) {
                out.fail(
                    1,
                    format!(
                        "SA on {}/{} failed audit: {e}",
                        cell.program,
                        cell.topo.name()
                    ),
                );
            }
            p.wall_ns += dt;
            p.lat_ms.push(dt as f64 / 1e6);
            p.digest.push(r.makespan);
            p.ratios.push(r.makespan as f64 / cell.hlf as f64);
            p.sa.packets += stats.packets;
            p.sa.moves += stats.moves;
            p.sa.accepted += stats.accepted;
            p.sa.candidates += stats.candidates;
            if probe {
                let mut fm = FixedMapping::new(r.placement.clone()).with_order(r.start.clone());
                let t1 = Instant::now();
                let replay = tr.span("probe.sim.engine.replay", id, |_| {
                    simulate(
                        &cell.graph,
                        &cell.topo,
                        &cell.params,
                        &mut fm,
                        &cell.sim_cfg,
                    )
                });
                p.engine_ns += t1.elapsed().as_nanos() as u64;
                match replay {
                    Ok(rr) => p.engine_events += rr.obs.events,
                    Err(e) => out.fail(1, format!("replay on {}: {e}", cell.program)),
                }
            }
        }
    }
    p
}

/// Peak resident memory of this process (VmHWM), MB; 0 if unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Runs `paper-sa`.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        out.fail(1, format!("{}: {e}", cfg.work_dir.display()));
        return out;
    }
    // Set-up is repeated and its median reported, like the campaign
    // workloads' minimal invocations.
    let mut setup_s = Vec::new();
    let mut grid = Vec::new();
    for _ in 0..cfg.sizes.setup_reps.max(1) {
        let t = Instant::now();
        match setup(cfg.seed) {
            Ok(g) => grid = g,
            Err(e) => {
                out.fail(1, e);
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let per_pass = grid.len() * cfg.sizes.paper_seeds;
    let enough = |reps: usize, deadline: Instant| {
        reps >= cfg.sizes.min_reps
            && reps * per_pass >= cfg.sizes.min_schedules
            && Instant::now() >= deadline
    };
    if cfg.trace {
        traced(cfg, &grid, per_pass, &enough, &mut out);
        return out;
    }

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    while !enough(passes.len(), deadline) {
        let p = pass(
            &grid,
            cfg.seed,
            cfg.sizes.paper_seeds,
            &mut Tracer::off(),
            false,
            &mut out,
        );
        if passes.first().is_some_and(|f| f.digest != p.digest) {
            out.fail(
                per_pass as u64,
                "makespans differ between passes of one seed",
            );
        }
        passes.push(p);
        if out.failed > 0 {
            return out;
        }
    }
    out.digest = passes[0].digest.value();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    out.notes.push(spread_note(&walls));
    let wall_s = median(&walls);
    let r = &mut out.report;
    r.set("setup_s", median(&setup_s));
    r.set("wall_s", wall_s);
    r.set("cells_per_s", per_pass as f64 / wall_s);
    r.set("sa_vs_hlf", geomean(&passes[0].ratios));
    r.set("peak_rss_mb", peak_rss_mb());
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.lat_ms.iter().copied())
        .collect();
    r.set("schedule_samples", lat.len() as f64);
    for (name, pct) in [("schedule_p50_ms", 50.0), ("schedule_p99_ms", 99.0)] {
        match percentile(&lat, pct) {
            Ok(v) => r.set(name, v),
            Err(e) => out.notes.push(format!("{name} refused: {e}")),
        }
    }
    out
}

/// The traced run, in this process: alternates an untraced pass with a
/// traced one (spans plus the engine replay probe) until the time is up.
fn traced(
    cfg: &RunCfg,
    grid: &[Cell],
    per_pass: usize,
    enough: &dyn Fn(usize, Instant) -> bool,
    out: &mut Outcome,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let seeds = cfg.sizes.paper_seeds;
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut spans = String::new();
    while !enough(traced.len(), deadline) {
        plain.push(pass(grid, cfg.seed, seeds, &mut Tracer::off(), false, out));
        let mut tr = Tracer::on();
        traced.push(pass(grid, cfg.seed, seeds, &mut tr, true, out));
        let first_id = spans.lines().count();
        tr.write_jsonl(&mut spans, first_id);
    }
    let first = plain[0].digest;
    if plain.iter().chain(&traced).any(|p| p.digest != first) {
        out.fail(
            per_pass as u64,
            "traced and untraced passes gave different makespans",
        );
    }
    out.spans = spans;

    let t = &traced[0];
    out.digest = t.digest.value();
    let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>());
    let traced_wall = wall(&traced);
    let engine_ns = median(
        &traced
            .iter()
            .map(|p| p.engine_ns as f64)
            .collect::<Vec<_>>(),
    );
    let sa_self = traced_wall - engine_ns;
    let per = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    let r = &mut out.report;
    r.set("core.sa.packets", t.sa.packets as f64);
    r.set("core.sa.moves", t.sa.moves as f64);
    r.set("core.sa.accepted", t.sa.accepted as f64);
    r.set(
        "core.sa.accept_ratio",
        per(t.sa.accepted as f64, t.sa.moves),
    );
    r.set(
        "core.sa.candidates_per_packet",
        per(t.sa.candidates as f64, t.sa.packets),
    );
    r.set("core.sa.self_ns", sa_self);
    r.set("core.sa.ns_per_move", per(sa_self, t.sa.moves));
    r.set("sim.engine.events", t.engine_events as f64);
    r.set("sim.engine.self_ns", engine_ns);
    r.set("sim.engine.ns_per_event", per(engine_ns, t.engine_events));
    let plain_wall = wall(&plain);
    r.set(
        "trace.overhead_frac",
        (traced_wall - plain_wall) / plain_wall,
    );
    out.notes.push(format!(
        "decomposition of one pass ({per_pass} schedules, {:.1} ms): core.sa {:.1}%, sim.engine {:.1}%",
        traced_wall / 1e6,
        100.0 * sa_self / traced_wall,
        100.0 * engine_ns / traced_wall
    ));
}

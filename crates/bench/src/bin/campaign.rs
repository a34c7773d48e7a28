//! Sharded campaign runner: resumable crash-safe shards, a per-shard
//! retry budget, deterministic chaos and an incremental,
//! byte-reproducible merge, all in one process.
//!
//! A campaign evaluates a scheduler portfolio on a large generated
//! instance family (`anneal_arena::campaign_instance`), split into
//! shards that can run in separate invocations — one after another or
//! at the same time — and merge deterministically. Shards run through
//! `anneal_fleet::run_worker` (see `docs/FLEET.md`):
//!
//! * each shard commits a sealed `shard-<k>.csv` (plus
//!   `metrics-<k>.jsonl` under `--metrics`) into the campaign
//!   directory with write-then-rename; a shard whose artifacts are all
//!   valid is **skipped**, which is what makes a partial campaign
//!   resumable, while a missing or corrupt artifact is quarantined and
//!   its shard re-run;
//! * re-running is always safe because cell seeds key on global
//!   instance indices, so a re-run commits byte-identical bytes. For
//!   the same reason several invocations may share a directory (say,
//!   one `--shard K` per core, then `--merge-only`): an overlap only
//!   duplicates work;
//! * a shard that exhausts `--max-attempts` is reported in
//!   `fleet.report.json` and the campaign exits 3 after writing
//!   `matrix.partial.csv`/`standings.partial.csv` — degraded results
//!   are flagged, never silently dropped;
//! * when every shard is done, the runner merges the shard artifacts
//!   into `matrix.csv` and `standings.csv` via
//!   `anneal_report::merge_shard_csvs` — order-independent and
//!   byte-identical across runs, thread counts, re-sharding and resume;
//! * `--chaos SPEC` (e.g. `seed=7,kill=40,truncate=30`) injects
//!   deterministic faults for certification: a kill exits the process
//!   with status 17, and CI byte-compares a campaign recovered by a
//!   resume loop against the fault-free run.
//!
//! Usage: `campaign [instances] [shards] [seed] [--full] [--shard K]
//! [--threads T] [--merge-only] [--dir PATH] [--metrics PATH]
//! [--null-clock] [--progress] [--chaos SPEC] [--max-attempts N]`
//!
//! * `instances` — family size (default 1000).
//! * `shards` — shard count (default 8).
//! * `seed` — base seed for generation and evaluation (default 42).
//! * `--full` — use `Portfolio::standard()` including whole-graph
//!   static SA (slower; default is `Portfolio::fast()`). Both run the
//!   production SA lane (`SaLane::default()`, turbo), stamped into
//!   `campaign.meta` as `sa-lane=` together with its exact-packet limit
//!   (`packet-enum=`), so a directory written under another lane is
//!   refused on resume (exit 1).
//! * `--shard K` — restrict this invocation to shard `K`.
//! * `--threads T` — cap the per-shard evaluation thread pool (default
//!   `0` = available parallelism). Never changes results.
//! * `--merge-only` — skip running, only validate + merge artifacts.
//! * `--dir PATH` — campaign directory (default `results/campaign`).
//! * `--metrics PATH` — observe through `anneal-obs`: shards write
//!   sealed `metrics-<k>.jsonl` (the shard's registry and its 10
//!   slowest cells), the merge combines them into `PATH` plus its
//!   deterministic-class view `PATH.det.json` and a summary (text +
//!   SVG). Fleet counters land under `sched.fleet.*` — out of the
//!   deterministic view by class. Not part of provenance. A metrics
//!   artifact the merge cannot use, such as one written before shards
//!   recorded per-scheduler cell times, exits 1 naming the file;
//!   deleting it makes the next `--metrics` run redo its shard.
//! * `--null-clock` — metrics under the deterministic `NullClock`.
//! * `--progress` — per-shard progress lines on stderr.
//! * `--chaos SPEC` — seeded deterministic fault injection
//!   (`seed=..,kill=..,truncate=..,corrupt=..,only=K`, percentages
//!   0–100). Debug/certification only.
//! * `--max-attempts N` — per-shard retry budget before the shard is
//!   declared failed (default 5, at least 1).
//!
//! An unknown flag, a missing or unparsable value, a fourth positional
//! argument, `--max-attempts 0`, an out-of-range `--shard` or fewer
//! instances than shards print the usage on stderr and exit 2.

use std::path::{Path, PathBuf};

use anneal_arena::{
    merge_shard_metrics, run_shard_observed, shard_file_name, shard_metrics_file_name,
    CampaignConfig, Portfolio, SLOWEST_CELLS,
};
use anneal_bench::cli::Cli;
use anneal_core::{SaLane, EXACT_PACKET_LIMIT};
use anneal_fleet::{
    commit_bytes, read_attempts, read_sealed, render_report, run_worker, seal, shard_state, unseal,
    FaultPlan, FleetConfig, FleetEvent, FleetStats, KillMode, ShardReport, ShardRunner, ShardState,
    CHAOS_KILL_EXIT,
};
use anneal_obs::{Clock, MetricsRegistry, NullClock, WallClock};
use anneal_report::{cell_time_shares, merge_shard_csvs, scan_sealed_shards, Table};

/// Exit status of a campaign whose `--metrics` merge found a shard
/// metrics artifact it cannot use.
const METRICS_EXIT: i32 = 1;

/// Exit status of a campaign refused by the directory's
/// `campaign.meta`.
const PROVENANCE_EXIT: i32 = 1;

/// Exit status of a campaign that completed but left failed shards
/// behind — degraded, documented in `fleet.report.json`.
const DEGRADED_EXIT: i32 = 3;

const USAGE: &str =
    "usage: campaign [instances] [shards] [seed] [--full] [--shard K] [--threads T]\n\
     \x20               [--merge-only] [--dir PATH] [--metrics PATH] [--null-clock] [--progress]\n\
     \x20               [--chaos SPEC] [--max-attempts N]\n\
     \n\
     --chaos SPEC example: seed=7,kill=40,truncate=30,corrupt=10,only=2";

struct Args {
    cfg: CampaignConfig,
    full: bool,
    only_shard: Option<usize>,
    merge_only: bool,
    dir: PathBuf,
    metrics: Option<PathBuf>,
    null_clock: bool,
    progress: bool,
    chaos: Option<FaultPlan>,
    max_attempts: u32,
}

fn parse_args() -> Args {
    let mut cli = Cli::from_env(USAGE);
    let mut positional = 0;
    let mut args = Args {
        cfg: CampaignConfig::default(),
        full: false,
        only_shard: None,
        merge_only: false,
        dir: PathBuf::from("results/campaign"),
        metrics: None,
        null_clock: false,
        progress: false,
        chaos: None,
        max_attempts: FleetConfig::default().max_attempts,
    };
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--full" => args.full = true,
            "--merge-only" => args.merge_only = true,
            "--null-clock" => args.null_clock = true,
            "--progress" => args.progress = true,
            "--shard" => args.only_shard = Some(cli.value(&arg)),
            "--threads" => args.cfg.max_threads = cli.value(&arg),
            "--dir" => args.dir = cli.value(&arg),
            "--metrics" => args.metrics = Some(cli.value(&arg)),
            "--chaos" => {
                let spec: String = cli.value(&arg);
                args.chaos = Some(FaultPlan::parse(&spec).unwrap_or_else(|e| cli.fail(e)));
            }
            "--max-attempts" => {
                args.max_attempts = cli.value(&arg);
                if args.max_attempts == 0 {
                    cli.fail("--max-attempts must be at least 1");
                }
            }
            flag if flag.starts_with('-') => cli.fail(format!("unknown flag {flag:?}")),
            value => {
                let v: u64 = cli.parse(value);
                match positional {
                    0 => args.cfg.instances = v as usize,
                    1 => args.cfg.shards = v as usize,
                    2 => args.cfg.base_seed = v,
                    _ => cli.fail(format!("unexpected argument {value:?}")),
                }
                positional += 1;
            }
        }
    }
    if args.cfg.shards == 0 || args.cfg.instances < args.cfg.shards {
        cli.fail("a campaign needs at least one shard and one instance per shard");
    }
    if let Some(k) = args.only_shard.filter(|&k| k >= args.cfg.shards) {
        cli.fail(format!("--shard {k} out of range"));
    }
    args
}

/// The campaign directory's provenance stamp. Shard artifacts carry no
/// parameters of their own, so resuming must refuse to mix artifacts
/// produced under different settings — a shard computed with another
/// seed would merge cleanly (same header, same shape) into a silently
/// wrong matrix. (`--threads`/`--metrics`/`--chaos` are deliberately
/// absent: they never change a cell.) The SA lane is the production
/// default, and `packet-enum=` the turbo lane's exact-packet limit;
/// both are recorded so that a directory written under another lane,
/// or by a turbo lane that annealed every packet, is refused.
fn provenance(cfg: &CampaignConfig, full: bool) -> String {
    format!(
        "instances={}\nshards={}\nseed={}\nportfolio={}\nsa-lane={}\npacket-enum={}\n",
        cfg.instances,
        cfg.shards,
        cfg.base_seed,
        if full { "standard" } else { "fast" },
        SaLane::default(),
        EXACT_PACKET_LIMIT
    )
}

/// Refuses, with exit status [`PROVENANCE_EXIT`], a directory whose
/// `campaign.meta` is corrupt or records other parameters; stamps a
/// directory that has none.
fn check_provenance(dir: &Path, expected: &str) {
    let path = dir.join("campaign.meta");
    match std::fs::read_to_string(&path) {
        Ok(sealed) => {
            let refusal = match unseal(&sealed) {
                Err(e) => format!(
                    "{} failed checksum validation ({e}). Delete the directory to start over.",
                    path.display()
                ),
                Ok(found) if found != expected => format!(
                    "{} was produced with different parameters:\n--- existing\n{found}--- requested\n{expected}\
                     Delete the directory (or its shard-*.csv files and campaign.meta) to start over.",
                    dir.display()
                ),
                Ok(_) => return,
            };
            eprintln!("campaign: {refusal}");
            std::process::exit(PROVENANCE_EXIT);
        }
        Err(_) => commit_bytes(&path, seal(expected).as_bytes()).expect("write campaign.meta"),
    }
}

/// The real shard runner: executes one campaign shard and returns the
/// sealed shard CSV (plus sealed metrics JSONL when observing).
struct CampaignRunner {
    portfolio: Portfolio,
    cfg: CampaignConfig,
    metrics: bool,
    null_clock: bool,
    progress: bool,
    wall: WallClock,
}

impl ShardRunner for CampaignRunner {
    fn artifact_names(&self, shard: usize) -> Vec<String> {
        let mut names = vec![shard_file_name(shard)];
        if self.metrics {
            names.push(shard_metrics_file_name(shard));
        }
        names
    }

    fn run(&self, shard: usize) -> Result<Vec<(String, String)>, String> {
        if self.progress {
            eprintln!("[campaign] shard {shard}: starting");
        }
        let clock: &(dyn Clock + Sync) = if self.null_clock {
            &NullClock
        } else {
            &self.wall
        };
        let (r, obs) = run_shard_observed(&self.portfolio, &self.cfg, shard, clock)
            .map_err(|e| format!("shard {shard}: {e}"))?;
        if self.progress {
            eprintln!(
                "[campaign] shard {shard}: done, {} cells in {:.1} ms",
                obs.cells.len(),
                obs.registry.counter("time.shard_ns") as f64 / 1e6
            );
        }
        let mut files = vec![(shard_file_name(shard), r.to_sealed_csv())];
        if self.metrics {
            files.push((shard_metrics_file_name(shard), obs.to_sealed_jsonl()));
        }
        Ok(files)
    }
}

fn print_event(dir: &Path, ev: &FleetEvent) {
    match ev {
        FleetEvent::ShardSkipped { shard } => {
            println!(
                "shard {shard}: {} exists, skipping (resume)",
                dir.join(shard_file_name(*shard)).display()
            );
        }
        FleetEvent::Started { shard, attempt } => {
            if *attempt > 1 {
                println!("shard {shard}: attempt {attempt}");
            }
        }
        FleetEvent::Quarantined {
            shard,
            path,
            reason,
        } => {
            println!("shard {shard}: corrupt artifact quarantined to {path} ({reason})");
        }
        FleetEvent::Chaos {
            shard,
            attempt,
            kind,
        } => {
            println!("shard {shard}: chaos {kind} injected (attempt {attempt})");
        }
        FleetEvent::ShardDone { shard, attempt } => {
            println!(
                "shard {shard}: done (attempt {attempt}) -> {}",
                dir.join(shard_file_name(*shard)).display()
            );
        }
        FleetEvent::RunFailed {
            shard,
            attempt,
            msg,
        } => {
            eprintln!("shard {shard}: attempt {attempt} failed: {msg}");
        }
        FleetEvent::Exhausted { shard, attempts } => {
            eprintln!("shard {shard}: FAILED after {attempts} attempts");
        }
    }
}

/// Runs `shards` through the worker, then adds this invocation's
/// counters to the process's sealed `fleet-metrics-<pid>.jsonl`.
fn run_shards(args: &Args, shards: &[usize], runner: &CampaignRunner) {
    let cfg = FleetConfig {
        max_attempts: args.max_attempts,
        chaos: args.chaos,
        // a chaos kill is a real death of this process
        kill_mode: KillMode::ExitProcess(CHAOS_KILL_EXIT),
    };
    let mut stats = FleetStats::default();
    run_worker(&args.dir, shards, &cfg, runner, &mut stats, &mut |ev| {
        print_event(&args.dir, ev)
    })
    .expect("fleet worker I/O");
    let path = args
        .dir
        .join(format!("fleet-metrics-{}.jsonl", std::process::id()));
    let mut reg = MetricsRegistry::new();
    // a reused process id adds to its predecessor's counters
    if let Ok(prev) = read_sealed(&path) {
        let _ = reg.merge_jsonl(&prev);
    }
    stats.record_into(&mut reg);
    if !reg.is_empty() {
        let mut sink = anneal_obs::JsonlSink::new();
        reg.write_jsonl(&mut sink);
        commit_bytes(&path, seal(sink.as_str()).as_bytes()).expect("write fleet metrics");
    }
}

/// Reads every invocation's sealed `fleet-metrics-*.jsonl` into one
/// registry (sorted file order; unreadable files are reported and
/// skipped — fleet counters are diagnostics, not science).
fn read_fleet_metrics(dir: &Path) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("fleet-metrics-") && n.ends_with(".jsonl"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    for name in names {
        match read_sealed(&dir.join(&name)) {
            Ok(text) => {
                if let Err(e) = reg.merge_jsonl(&text) {
                    eprintln!("{name}: skipping fleet metrics ({e})");
                }
            }
            Err(e) => eprintln!("{name}: skipping fleet metrics ({e})"),
        }
    }
    reg
}

/// Validates and merges shard artifacts; writes the failure manifest.
/// Returns the process exit code: 0 on a clean (or deferred) merge,
/// [`DEGRADED_EXIT`] when shards exhausted their retries,
/// [`METRICS_EXIT`] when the `--metrics` merge refuses an artifact.
fn merge_campaign(args: &Args, runner: &CampaignRunner) -> i32 {
    let scan = scan_sealed_shards(&args.dir, args.cfg.shards, shard_file_name)
        .expect("scan shard artifacts");
    for (k, path, reason) in &scan.quarantined {
        println!(
            "shard {k}: corrupt artifact quarantined to {path} ({reason}); re-run to regenerate"
        );
    }
    let fleet_reg = read_fleet_metrics(&args.dir);
    let states: Vec<ShardState> = (0..args.cfg.shards)
        .map(|k| shard_state(&args.dir, k, &runner.artifact_names(k), args.max_attempts))
        .collect();
    let in_state = |want: ShardState| -> Vec<usize> {
        (0..states.len()).filter(|&k| states[k] == want).collect()
    };
    let failed = in_state(ShardState::Failed);
    let reports: Vec<ShardReport> = (0..args.cfg.shards)
        .map(|k| ShardReport {
            shard: k,
            state: states[k],
            attempts: read_attempts(&args.dir, k),
        })
        .collect();
    let report_path = args.dir.join("fleet.report.json");
    commit_bytes(&report_path, render_report(&reports, &fleet_reg).as_bytes())
        .expect("write fleet report");
    let done: Vec<&str> = scan
        .valid
        .iter()
        .filter(|(k, _)| states[*k] == ShardState::Done)
        .map(|(_, t)| t.as_str())
        .collect();

    if !failed.is_empty() {
        // degraded: merge what is done into .partial artifacts, report
        // loudly, exit non-zero — never pretend the campaign is whole
        if !done.is_empty() {
            let partial = merge_shard_csvs(&done).expect("valid shard artifacts are inconsistent");
            commit_bytes(
                &args.dir.join("matrix.partial.csv"),
                seal(partial.matrix_csv().as_str()).as_bytes(),
            )
            .expect("write partial matrix");
            commit_bytes(
                &args.dir.join("standings.partial.csv"),
                seal(partial.standings_csv().as_str()).as_bytes(),
            )
            .expect("write partial standings");
        }
        eprintln!(
            "campaign degraded: shards {failed:?} exhausted {} attempts; see {}",
            args.max_attempts,
            report_path.display()
        );
        return DEGRADED_EXIT;
    }

    let waiting = in_state(ShardState::Pending);
    if !waiting.is_empty() {
        println!(
            "merge deferred: {}/{} shards done (missing {waiting:?})",
            done.len(),
            args.cfg.shards
        );
        return 0;
    }

    let merged = merge_shard_csvs(&done).expect("shard artifacts are inconsistent");
    assert_eq!(
        merged.num_instances(),
        args.cfg.instances,
        "merged instance count must match the campaign"
    );
    let matrix_path = args.dir.join("matrix.csv");
    let standings_path = args.dir.join("standings.csv");
    commit_bytes(&matrix_path, seal(merged.matrix_csv().as_str()).as_bytes())
        .expect("write matrix");
    commit_bytes(
        &standings_path,
        seal(merged.standings_csv().as_str()).as_bytes(),
    )
    .expect("write standings");

    let standings = merged.standings_csv();
    let mut table = Table::new(vec![
        "Scheduler",
        "Instances",
        "Wins",
        "Mean ratio",
        "Worst ratio",
    ])
    .with_title(format!(
        "Campaign: {} schedulers x {} instances, {} shards (seed {})",
        merged.schedulers.len(),
        merged.num_instances(),
        args.cfg.shards,
        args.cfg.base_seed
    ));
    for line in standings.as_str().lines().skip(1) {
        table.row(line.split(',').map(String::from).collect());
    }
    print!("{}", table.render());
    println!("wrote {}", matrix_path.display());
    println!("wrote {}", standings_path.display());

    if let Some(metrics_path) = &args.metrics {
        if let Err(e) = merge_metrics(args, metrics_path, &fleet_reg) {
            eprintln!("campaign: {e}");
            return METRICS_EXIT;
        }
    }
    0
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.dir).expect("create campaign dir");
    check_provenance(&args.dir, &provenance(&args.cfg, args.full));
    let runner = CampaignRunner {
        portfolio: if args.full {
            Portfolio::standard()
        } else {
            Portfolio::fast()
        },
        cfg: args.cfg.clone(),
        metrics: args.metrics.is_some(),
        null_clock: args.null_clock,
        progress: args.progress,
        wall: WallClock::new(),
    };
    if !args.merge_only {
        let shards: Vec<usize> = match args.only_shard {
            Some(k) => vec![k],
            None => (0..args.cfg.shards).collect(),
        };
        run_shards(&args, &shards, &runner);
    }
    std::process::exit(merge_campaign(&args, &runner));
}

/// Merges every shard's sealed `metrics-<k>.jsonl` into the campaign
/// registry (plus the fleet counters), then writes the full registry,
/// its deterministic-class view and the time-share summary (text +
/// SVG) — all committed atomically. The summary's shares come from the
/// merged `time.cell_ns.<scheduler>` histograms, its slowest cells from
/// the few each shard ships. Only called once every shard is done,
/// which under `--metrics` includes a valid metrics artifact. An
/// artifact the merge cannot use is an error naming every such file.
fn merge_metrics(
    args: &Args,
    metrics_path: &Path,
    fleet_reg: &MetricsRegistry,
) -> Result<(), String> {
    let mut registry = MetricsRegistry::new();
    let mut slowest = Vec::new();
    let mut refused = Vec::new();
    for k in 0..args.cfg.shards {
        let path = args.dir.join(shard_metrics_file_name(k));
        if let Err(e) = read_sealed(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| merge_shard_metrics(&text, &mut registry, &mut slowest))
        {
            refused.push(format!("{}: {e}", path.display()));
        }
    }
    if !refused.is_empty() {
        return Err(format!(
            "cannot merge shard metrics:\n  {}\nDelete each file named above; the next --metrics \
             run re-runs its shard and writes it anew.",
            refused.join("\n  ")
        ));
    }
    registry.merge(fleet_reg);
    commit_bytes(metrics_path, registry.to_json().as_bytes()).expect("write merged metrics");
    let det_path = metrics_path.with_extension("det.json");
    commit_bytes(
        &det_path,
        registry.deterministic_only().to_json().as_bytes(),
    )
    .expect("write deterministic metrics view");

    let shares = cell_time_shares(&registry);
    let mut summary = anneal_report::render_shares_summary(&shares, &slowest, SLOWEST_CELLS);
    if let Some(fleet_line) = anneal_report::render_fleet_summary(&registry) {
        summary.push('\n');
        summary.push_str(&fleet_line);
    }
    let summary_path = metrics_path.with_extension("summary.txt");
    commit_bytes(&summary_path, summary.as_bytes()).expect("write metrics summary");
    let svg_path = metrics_path.with_extension("timeshare.svg");
    commit_bytes(
        &svg_path,
        anneal_report::render_shares_svg(&shares).as_bytes(),
    )
    .expect("write time-share svg");
    println!("wrote {}", metrics_path.display());
    println!("wrote {}", det_path.display());
    println!("wrote {}", summary_path.display());
    println!("wrote {}", svg_path.display());
    Ok(())
}

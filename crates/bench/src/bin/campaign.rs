//! Sharded campaign runner: resumable crash-safe shards and an
//! incremental, byte-reproducible merge, all in one process.
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
//! * a shard whose run returns an error is run once and not retried
//!   (the error is a pure function of the parameters too): the other
//!   shards still run, and the invocation names it and exits 1 without
//!   merging;
//! * when every shard is done, the runner merges the shard artifacts
//!   into `matrix.csv` and `standings.csv` via
//!   `anneal_report::merge_shard_csvs` — order-independent and
//!   byte-identical across runs, thread counts, re-sharding and resume.
//!   A shard CSV that rotted after its worker pass is quarantined by
//!   the merge, which then waits for that shard's re-run;
//! * files that older campaign binaries left in the directory
//!   (`fleet.report.json`, `attempts-*.txt`, `lease-*.lock`) are named
//!   in one stdout line and otherwise left alone.
//!
//! Usage: `campaign [instances] [shards] [seed] [--full] [--shard K]
//! [--threads T] [--merge-only] [--dir PATH] [--metrics PATH]
//! [--null-clock] [--progress]`
//!
//! * `instances` — family size (default 1000).
//! * `shards` — shard count (default 8).
//! * `seed` — base seed for generation and evaluation (default 42).
//! * `--full` — use `Portfolio::standard()` including whole-graph
//!   static SA (slower; default is `Portfolio::fast()`). Both run the
//!   production SA lane (`SaLane::default()`, turbo), stamped into
//!   `campaign.meta` as `sa-lane=` together with how it settles a
//!   packet (`packet-solve=assignment`), so a directory written under
//!   another lane, or by a turbo lane that annealed packets, is refused
//!   on resume (exit 1). A `--full` stamp also records that static SA
//!   accepts by eq. 1 (`static-sa=eq1`), so a `--full` directory whose
//!   static SA accepted by a lookup table is refused too.
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
//!   deterministic view by class — and count the quarantines of both
//!   the worker pass and the merge. Not part of provenance. A metrics
//!   artifact the merge cannot use, such as one written before shards
//!   recorded per-scheduler cell times, exits 1 naming the file;
//!   deleting it makes the next `--metrics` run redo its shard.
//! * `--null-clock` — metrics under the deterministic `NullClock`.
//! * `--progress` — per-shard progress lines on stderr.
//!
//! Exit status: 0 when merged, or when the merge waits for shards
//! outside this invocation's `--shard`; 1 when a shard's run failed,
//! the directory's `campaign.meta` refuses the parameters, or the
//! `--metrics` merge refuses an artifact; 2 when an unknown flag, a
//! missing or unparsable value, a fourth positional argument, an
//! out-of-range `--shard` or fewer instances than shards print the
//! usage on stderr.

use std::path::{Path, PathBuf};

use anneal_arena::{
    merge_shard_metrics, run_shard_observed, shard_file_name, shard_metrics_file_name,
    CampaignConfig, Portfolio, SLOWEST_CELLS,
};
use anneal_bench::cli::Cli;
use anneal_core::SaLane;
use anneal_fleet::{
    commit_bytes, read_sealed, run_worker, seal, shard_done, unseal, FleetEvent, FleetStats,
    ShardRunner,
};
use anneal_obs::{Clock, MetricsRegistry, NullClock, WallClock};
use anneal_report::{cell_time_shares, merge_shard_csvs, scan_sealed_shards, Table};

/// Exit status of a campaign that cannot finish: a shard's run failed,
/// the directory's `campaign.meta` refuses the parameters, or the
/// `--metrics` merge found a shard metrics artifact it cannot use.
const FAILURE_EXIT: i32 = 1;

const USAGE: &str =
    "usage: campaign [instances] [shards] [seed] [--full] [--shard K] [--threads T]\n\
     \x20               [--merge-only] [--dir PATH] [--metrics PATH] [--null-clock] [--progress]";

struct Args {
    cfg: CampaignConfig,
    full: bool,
    only_shard: Option<usize>,
    merge_only: bool,
    dir: PathBuf,
    metrics: Option<PathBuf>,
    null_clock: bool,
    progress: bool,
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
/// wrong matrix. (`--threads`/`--metrics` are deliberately absent:
/// they never change a cell.) The SA lane is the production
/// default, and `packet-solve=assignment` says that its turbo lane
/// solves every packet with the assignment solver; both are recorded
/// so that a directory written under another lane, or by a turbo lane
/// that annealed packets (stamped `packet-enum=24` or with no packet
/// line), is refused. A `--full` stamp ends with `static-sa=eq1`:
/// static SA decides every move by eq. 1, and a `--full` directory
/// without that line was written when its turbo lane accepted by a
/// lookup table. Fast directories run no static SA and keep their
/// stamp.
fn provenance(cfg: &CampaignConfig, full: bool) -> String {
    let mut stamp = format!(
        "instances={}\nshards={}\nseed={}\nportfolio={}\nsa-lane={}\npacket-solve=assignment\n",
        cfg.instances,
        cfg.shards,
        cfg.base_seed,
        if full { "standard" } else { "fast" },
        SaLane::default(),
    );
    if full {
        stamp.push_str("static-sa=eq1\n");
    }
    stamp
}

/// Refuses, with exit status [`FAILURE_EXIT`], a directory whose
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
            std::process::exit(FAILURE_EXIT);
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
        FleetEvent::Quarantined {
            shard,
            path,
            reason,
        } => {
            println!("shard {shard}: corrupt artifact quarantined to {path} ({reason})");
        }
        FleetEvent::ShardDone { shard } => {
            println!(
                "shard {shard}: done -> {}",
                dir.join(shard_file_name(*shard)).display()
            );
        }
        FleetEvent::RunFailed { shard, msg } => {
            eprintln!("shard {shard}: run failed: {msg}");
        }
    }
}

/// Runs `shards` through the worker, then adds this invocation's
/// counters to the process's fleet metrics ([`record_fleet_stats`]).
/// Returns the shards whose run failed.
fn run_shards(args: &Args, shards: &[usize], runner: &CampaignRunner) -> Vec<usize> {
    let mut stats = FleetStats::default();
    let failed = run_worker(&args.dir, shards, runner, &mut stats, &mut |ev| {
        print_event(&args.dir, ev)
    })
    .expect("fleet worker I/O");
    record_fleet_stats(&args.dir, &stats);
    failed
}

/// Adds `stats` to the process's sealed `fleet-metrics-<pid>.jsonl` in
/// `dir`, which the `--metrics` merge sums over every invocation.
fn record_fleet_stats(dir: &Path, stats: &FleetStats) {
    let path = dir.join(format!("fleet-metrics-{}.jsonl", std::process::id()));
    let mut reg = MetricsRegistry::new();
    // a reused process id, or an earlier pass of this one, adds to the
    // counters already there
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

/// The sorted names of the files in `dir` that `keep` accepts (none
/// when `dir` cannot be read).
fn file_names(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| keep(n))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// Files that campaign binaries before the one-pass worker left in a
/// campaign directory (attempt counters, the fleet report, leases).
/// This binary neither reads nor removes them.
fn older_binary_files(dir: &Path) -> Vec<String> {
    file_names(dir, |n| {
        n == "fleet.report.json"
            || (n.starts_with("attempts-") && n.ends_with(".txt"))
            || (n.starts_with("lease-") && n.ends_with(".lock"))
    })
}

/// Reads every invocation's sealed `fleet-metrics-*.jsonl` into one
/// registry (sorted file order; unreadable files are reported and
/// skipped — fleet counters are diagnostics, not science).
fn read_fleet_metrics(dir: &Path) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let names = file_names(dir, |n| {
        n.starts_with("fleet-metrics-") && n.ends_with(".jsonl")
    });
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

/// Validates and merges shard artifacts. Returns the process exit
/// code: 0 on a clean (or deferred) merge, [`FAILURE_EXIT`] when the
/// `--metrics` merge refuses an artifact.
fn merge_campaign(args: &Args, runner: &CampaignRunner) -> i32 {
    let scan = scan_sealed_shards(&args.dir, args.cfg.shards, shard_file_name)
        .expect("scan shard artifacts");
    for (k, path, reason) in &scan.quarantined {
        println!(
            "shard {k}: corrupt artifact quarantined to {path} ({reason}); re-run to regenerate"
        );
    }
    if !scan.quarantined.is_empty() {
        let n = scan.quarantined.len() as u64;
        record_fleet_stats(
            &args.dir,
            &FleetStats {
                checksum_failures: n,
                quarantines: n,
                ..FleetStats::default()
            },
        );
    }
    let waiting: Vec<usize> = (0..args.cfg.shards)
        .filter(|&k| !shard_done(&args.dir, &runner.artifact_names(k)))
        .collect();
    if !waiting.is_empty() {
        println!(
            "merge deferred: {}/{} shards done (missing {waiting:?})",
            args.cfg.shards - waiting.len(),
            args.cfg.shards
        );
        return 0;
    }

    let done: Vec<&str> = scan.valid.iter().map(|(_, t)| t.as_str()).collect();
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
        if let Err(e) = merge_metrics(args, metrics_path, &read_fleet_metrics(&args.dir)) {
            eprintln!("campaign: {e}");
            return FAILURE_EXIT;
        }
    }
    0
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.dir).expect("create campaign dir");
    check_provenance(&args.dir, &provenance(&args.cfg, args.full));
    let stray = older_binary_files(&args.dir);
    if !stray.is_empty() {
        println!(
            "ignoring files an older campaign binary left: {}",
            stray.join(", ")
        );
    }
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
        let failed = run_shards(&args, &shards, &runner);
        if !failed.is_empty() {
            eprintln!("campaign: shards {failed:?} failed (see above); not merging");
            std::process::exit(FAILURE_EXIT);
        }
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

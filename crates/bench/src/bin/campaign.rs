//! Sharded 1000-instance campaign runner with fault-tolerant workers,
//! resumable crash-safe shards, a supervised multi-process driver and
//! an incremental, byte-reproducible merge.
//!
//! A campaign evaluates a scheduler portfolio on a large generated
//! instance family (`anneal_arena::campaign_instance`), split into
//! shards that can run in separate invocations — or separate machines
//! sharing the campaign directory — and merge deterministically. Since
//! the `anneal-fleet` layer, shard execution is coordinated by a lease
//! protocol and every artifact is crash-safe (see `docs/FLEET.md`):
//!
//! * each shard writes `shard-<k>.csv` (write-then-rename, checksum
//!   footer) into the campaign directory; a valid existing artifact is
//!   **skipped**, which is what makes a partial campaign resumable,
//!   while a truncated or corrupt one is quarantined and re-run;
//! * any number of workers can join a campaign (`--join DIR`): each
//!   claims shards through `lease-<k>.lock` files, heartbeats while
//!   running, and steals expired leases from crashed or stalled
//!   workers. Re-execution is always safe because cell seeds key on
//!   global instance indices — a re-run commits byte-identical bytes;
//! * `--procs N` supervises `N` `--join` workers: a worker that dies
//!   is respawned (bounded budget), a campaign that stops making
//!   progress has its workers restarted after a stall timeout, and a
//!   child's exit status is surfaced per worker — no wait-forever;
//! * a shard that exhausts `--max-attempts` is reported in
//!   `fleet.report.json` and the campaign exits 3 after writing
//!   `matrix.partial.csv`/`standings.partial.csv` — degraded results
//!   are flagged, never silently dropped;
//! * when every shard artifact is present and valid, the runner merges
//!   them into `matrix.csv` and `standings.csv` via
//!   `anneal_report::merge_shard_csvs` — order-independent and
//!   byte-identical across runs, worker counts and re-sharding;
//! * `--chaos SPEC` (e.g. `seed=7,kill=40,truncate=30`) injects
//!   deterministic faults for certification: CI byte-compares a
//!   recovered chaotic campaign against the fault-free run.
//!
//! Usage: `campaign [instances] [shards] [seed] [--full] [--shard K]
//! [--procs N] [--join DIR] [--threads T] [--merge-only] [--no-merge]
//! [--dir PATH] [--metrics PATH] [--null-clock] [--progress]
//! [--chaos SPEC] [--max-attempts N] [--lease-ms MS] [--poll-ms MS]
//! [--stall-timeout-ms MS]`
//!
//! * `instances` — family size (default 1000).
//! * `shards` — shard count (default 8).
//! * `seed` — base seed for generation and evaluation (default 42).
//! * `--full` — use `Portfolio::standard()` including whole-graph
//!   static SA (slower; default is `Portfolio::fast()`). Both run the
//!   production SA lane (`SaLane::default()`, turbo), stamped into
//!   `campaign.meta` as `sa-lane=`, so a directory written under
//!   another lane is refused on resume.
//! * `--shard K` — restrict this invocation to shard `K`.
//! * `--procs N` — supervised multi-worker driver: spawn `N` `--join`
//!   workers over the campaign directory, respawn dead ones, restart
//!   them all on a stall, then merge. Merged output is byte-identical
//!   to `--procs 0` (in-process; the default).
//! * `--join DIR` — worker mode: read the campaign parameters from
//!   `DIR/campaign.meta` and run shards under the lease protocol until
//!   every shard is terminal. Never merges.
//! * `--threads T` — cap the per-shard evaluation thread pool (default
//!   `0` = available parallelism). Never changes results.
//! * `--merge-only` — skip running, only validate + merge artifacts.
//! * `--no-merge` — run shards but never merge.
//! * `--dir PATH` — campaign directory (default `results/campaign`).
//! * `--metrics PATH` — observe through `anneal-obs`: shards write
//!   sealed `metrics-<k>.jsonl`, the merge combines them into `PATH`
//!   plus its deterministic-class view `PATH.det.json` and a summary
//!   (text + SVG). Fleet counters land under `sched.fleet.*` — out of
//!   the deterministic view by class. Not part of provenance.
//! * `--null-clock` — metrics under the deterministic `NullClock`.
//! * `--progress` — per-shard heartbeat lines on stderr.
//! * `--chaos SPEC` — seeded deterministic fault injection
//!   (`seed=..,kill=..,truncate=..,corrupt=..,stall=..,only=K`,
//!   percentages 0–100). Debug/certification only.
//! * `--max-attempts N` — per-shard retry budget before the shard is
//!   declared failed (default 5).
//! * `--lease-ms MS` — lease expiry timeout (default 30000); the
//!   heartbeat interval is a tenth of it.
//! * `--poll-ms MS` — worker poll interval while shards are held
//!   elsewhere (default 50; backs off exponentially, bounded).
//! * `--stall-timeout-ms MS` — supervisor watchdog: restart workers
//!   after this long without campaign progress (default: 4 × lease).

use std::path::{Path, PathBuf};
use std::process::{Child, Command};

use anneal_arena::{
    parse_cells_jsonl, run_shard_observed, shard_file_name, shard_metrics_file_name,
    CampaignConfig, Portfolio,
};
use anneal_core::SaLane;
use anneal_fleet::{
    commit_bytes, fnv1a64, read_attempts, render_report, run_worker, seal, shard_state, unseal,
    FaultPlan, FleetConfig, FleetEvent, FleetStats, KillMode, LeaseConfig, ShardReport,
    ShardRunner, ShardState, WorkerOutcome, CHAOS_KILL_EXIT,
};
use anneal_obs::{Clock, MetricsRegistry, NullClock, WallClock};
use anneal_report::{merge_shard_csvs, scan_sealed_shards, CellSample, Table};

/// Exit status of a campaign (or worker) that completed but left
/// failed shards behind — degraded, documented in `fleet.report.json`.
const DEGRADED_EXIT: i32 = 3;

struct Args {
    cfg: CampaignConfig,
    full: bool,
    only_shard: Option<usize>,
    procs: usize,
    join: Option<PathBuf>,
    merge_only: bool,
    no_merge: bool,
    dir: PathBuf,
    metrics: Option<PathBuf>,
    null_clock: bool,
    progress: bool,
    chaos: Option<FaultPlan>,
    max_attempts: u32,
    lease_ms: u64,
    poll_ms: u64,
    stall_timeout_ms: u64,
}

fn usage() -> &'static str {
    "campaign [instances] [shards] [seed] [--full] [--shard K]\n\
     \x20        [--procs N] [--join DIR] [--threads T] [--merge-only] [--no-merge]\n\
     \x20        [--dir PATH] [--metrics PATH] [--null-clock] [--progress]\n\
     \x20        [--chaos SPEC] [--max-attempts N] [--lease-ms MS] [--poll-ms MS]\n\
     \x20        [--stall-timeout-ms MS]\n\
     \n\
     --chaos SPEC example: seed=7,kill=40,truncate=30,corrupt=10,stall=5,only=2"
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        std::process::exit(0);
    }
    let mut positional: Vec<u64> = Vec::new();
    let mut full = false;
    let mut only_shard = None;
    let mut procs = 0usize;
    let mut join = None;
    let mut threads = 0usize;
    let mut merge_only = false;
    let mut no_merge = false;
    let mut dir = PathBuf::from("results/campaign");
    let mut metrics = None;
    let mut null_clock = false;
    let mut progress = false;
    let mut chaos = None;
    let mut max_attempts = 5u32;
    let mut lease_ms = 30_000u64;
    let mut poll_ms = 50u64;
    let mut stall_timeout_ms = 0u64;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--merge-only" => merge_only = true,
            "--no-merge" => no_merge = true,
            "--null-clock" => null_clock = true,
            "--progress" => progress = true,
            "--metrics" => {
                metrics = Some(PathBuf::from(it.next().expect("--metrics needs a path")));
            }
            "--shard" => {
                let k = it.next().and_then(|v| v.parse().ok());
                only_shard = Some(k.expect("--shard needs an index"));
            }
            "--procs" => {
                let n = it.next().and_then(|v| v.parse().ok());
                procs = n.expect("--procs needs a process count");
            }
            "--join" => {
                join = Some(PathBuf::from(it.next().expect("--join needs a directory")));
            }
            "--threads" => {
                let t = it.next().and_then(|v| v.parse().ok());
                threads = t.expect("--threads needs a thread count");
            }
            "--dir" => {
                dir = PathBuf::from(it.next().expect("--dir needs a path"));
            }
            "--chaos" => {
                let spec = it.next().expect("--chaos needs a fault spec");
                chaos = Some(FaultPlan::parse(spec).unwrap_or_else(|e| panic!("{e}\n{}", usage())));
            }
            "--max-attempts" => {
                let n: u32 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-attempts needs a count");
                assert!(n > 0, "--max-attempts must be at least 1");
                max_attempts = n;
            }
            "--lease-ms" => {
                let n = it.next().and_then(|v| v.parse().ok());
                lease_ms = n.expect("--lease-ms needs milliseconds");
            }
            "--poll-ms" => {
                let n = it.next().and_then(|v| v.parse().ok());
                poll_ms = n.expect("--poll-ms needs milliseconds");
            }
            "--stall-timeout-ms" => {
                let n = it.next().and_then(|v| v.parse().ok());
                stall_timeout_ms = n.expect("--stall-timeout-ms needs milliseconds");
            }
            other => match other.parse() {
                Ok(v) => positional.push(v),
                Err(_) => panic!("unknown argument {other:?}"),
            },
        }
    }
    let cfg = CampaignConfig {
        instances: positional.first().map(|&v| v as usize).unwrap_or(1000),
        shards: positional.get(1).map(|&v| v as usize).unwrap_or(8),
        base_seed: positional.get(2).copied().unwrap_or(42),
        max_threads: threads,
    };
    if stall_timeout_ms == 0 {
        stall_timeout_ms = (4 * lease_ms).max(10_000);
    }
    Args {
        cfg,
        full,
        only_shard,
        procs,
        join,
        merge_only,
        no_merge,
        dir,
        metrics,
        null_clock,
        progress,
        chaos,
        max_attempts,
        lease_ms,
        poll_ms,
        stall_timeout_ms,
    }
}

/// The campaign directory's provenance stamp. Shard artifacts carry no
/// parameters of their own, so resuming must refuse to mix artifacts
/// produced under different settings — a shard computed with another
/// seed would merge cleanly (same header, same shape) into a silently
/// wrong matrix. (`--procs`/`--threads`/`--metrics`/`--chaos` are
/// deliberately absent: they never change a cell.) The SA lane is the
/// production default, recorded so that a directory written under
/// another lane is refused. The stamp is also what `--join` workers
/// read their parameters from, so every fleet member computes from
/// identical settings by construction.
fn provenance(cfg: &CampaignConfig, full: bool) -> String {
    format!(
        "instances={}\nshards={}\nseed={}\nportfolio={}\nsa-lane={}\n",
        cfg.instances,
        cfg.shards,
        cfg.base_seed,
        if full { "standard" } else { "fast" },
        SaLane::default()
    )
}

/// The portfolio a campaign evaluates.
fn portfolio(full: bool) -> Portfolio {
    if full {
        Portfolio::standard()
    } else {
        Portfolio::fast()
    }
}

/// Parses a provenance body back into campaign settings — the inverse
/// of [`provenance`], used by `--join` workers. A stamp this binary
/// would not write (another SA lane, an older format) is refused.
fn parse_provenance(body: &str) -> (CampaignConfig, bool) {
    let field = |key: &str| -> &str {
        body.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
            .unwrap_or_else(|| panic!("campaign.meta is missing `{key}=`"))
    };
    let cfg = CampaignConfig {
        instances: field("instances").parse().expect("instances in meta"),
        shards: field("shards").parse().expect("shards in meta"),
        base_seed: field("seed").parse().expect("seed in meta"),
        max_threads: 0,
    };
    let full = match field("portfolio") {
        "standard" => true,
        "fast" => false,
        other => panic!("campaign.meta has unknown portfolio {other:?}"),
    };
    let expected = provenance(&cfg, full);
    if body != expected {
        panic!(
            "campaign.meta was produced with different parameters:\n--- existing\n{body}\
             --- this binary\n{expected}"
        );
    }
    (cfg, full)
}

fn check_provenance(dir: &Path, expected: &str) {
    let path = dir.join("campaign.meta");
    match std::fs::read_to_string(&path) {
        Ok(sealed) => {
            let found = unseal(&sealed).unwrap_or_else(|e| {
                panic!(
                    "{} failed checksum validation ({e}). \
                     Delete the directory to start over.",
                    path.display()
                )
            });
            if found != expected {
                panic!(
                    "{} was produced with different parameters:\n--- existing\n{found}--- requested\n{expected}\
                     Delete the directory (or its shard-*.csv files and campaign.meta) to start over.",
                    dir.display()
                );
            }
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
    fn artifact_name(&self, shard: usize) -> String {
        shard_file_name(shard)
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

fn fleet_config(args: &Args) -> FleetConfig {
    FleetConfig {
        lease: LeaseConfig {
            timeout_ms: args.lease_ms,
            heartbeat_ms: (args.lease_ms / 10).max(5),
        },
        max_attempts: args.max_attempts,
        poll_ms: args.poll_ms,
        chaos: args.chaos,
        // workers are real processes: a chaos kill is a real death
        kill_mode: KillMode::ExitProcess(CHAOS_KILL_EXIT),
    }
}

fn print_event(dir: &Path, ev: &FleetEvent) {
    match ev {
        FleetEvent::ShardSkipped { shard, artifact } => {
            println!(
                "shard {shard}: {} exists, skipping (resume)",
                dir.join(artifact).display()
            );
        }
        FleetEvent::Claimed {
            shard,
            attempt,
            stolen,
        } => {
            if *attempt > 1 || *stolen {
                println!(
                    "shard {shard}: attempt {attempt}{}",
                    if *stolen { " (lease stolen)" } else { "" }
                );
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

/// Runs a fleet worker inline over `shards`, publishes its
/// `fleet-metrics-<owner>.jsonl` counters, and returns the outcome.
fn run_fleet_worker(
    dir: &Path,
    shards: &[usize],
    cfg: &FleetConfig,
    runner: &CampaignRunner,
) -> WorkerOutcome {
    let owner = format!("w{}-{}", std::process::id(), anneal_fleet::unix_time_ms());
    let mut stats = FleetStats::default();
    let outcome = run_worker(dir, shards, &owner, cfg, runner, &mut stats, &mut |ev| {
        print_event(dir, ev)
    })
    .expect("fleet worker I/O");
    let mut reg = MetricsRegistry::new();
    stats.record_into(&mut reg);
    if !reg.is_empty() {
        let mut sink = anneal_obs::JsonlSink::new();
        reg.write_jsonl(&mut sink);
        commit_bytes(
            &dir.join(format!("fleet-metrics-{owner}.jsonl")),
            seal(sink.as_str()).as_bytes(),
        )
        .expect("write fleet metrics");
    }
    outcome
}

/// Worker mode (`--join DIR`): campaign parameters come from the
/// directory's provenance stamp, so every fleet member — whichever
/// machine it runs on — computes from identical settings. Exits 0 when
/// all shards are terminal, [`DEGRADED_EXIT`] when some failed.
fn run_join(args: &Args, dir: &Path) -> i32 {
    let sealed = std::fs::read_to_string(dir.join("campaign.meta")).unwrap_or_else(|e| {
        panic!(
            "--join {}: no readable campaign.meta ({e}); start the campaign first",
            dir.display()
        )
    });
    let body = unseal(&sealed).unwrap_or_else(|e| {
        panic!(
            "--join {}: campaign.meta failed validation: {e}",
            dir.display()
        )
    });
    let (mut cfg, full) = parse_provenance(body);
    cfg.max_threads = args.cfg.max_threads;
    let runner = CampaignRunner {
        portfolio: portfolio(full),
        cfg: cfg.clone(),
        metrics: args.metrics.is_some(),
        null_clock: args.null_clock,
        progress: args.progress,
        wall: WallClock::new(),
    };
    let shards: Vec<usize> = (0..cfg.shards).collect();
    match run_fleet_worker(dir, &shards, &fleet_config(args), &runner) {
        WorkerOutcome::Completed { failed, .. } if failed.is_empty() => 0,
        WorkerOutcome::Completed { failed, .. } => {
            eprintln!("worker done; shards {failed:?} exhausted their attempts");
            DEGRADED_EXIT
        }
        // unreachable under KillMode::ExitProcess, but keep it total
        WorkerOutcome::Killed { .. } => CHAOS_KILL_EXIT,
    }
}

/// A cheap fingerprint of campaign progress: shard artifact sizes,
/// attempt counters and lease contents. The supervisor restarts its
/// workers when this stops changing for the stall timeout — a frozen
/// child must not block the campaign forever.
fn progress_signature(dir: &Path, shards: usize) -> u64 {
    let mut state = String::new();
    for k in 0..shards {
        let len = std::fs::metadata(dir.join(shard_file_name(k)))
            .map(|m| m.len())
            .unwrap_or(0);
        state.push_str(&format!("a{k}={len};t{k}={};", read_attempts(dir, k)));
        let lease =
            std::fs::read_to_string(dir.join(anneal_fleet::lease_file_name(k))).unwrap_or_default();
        state.push_str(&lease);
        state.push(';');
    }
    fnv1a64(state.as_bytes())
}

/// Supervised scale-out: spawn `--procs` `--join` workers over the
/// campaign directory, respawn any that die (bounded budget, exit
/// status surfaced per worker), and restart the lot if campaign
/// progress stalls. Returns when every worker has completed; the lease
/// protocol has then left all shards terminal.
fn run_multiprocess(args: &Args) {
    let exe = std::env::current_exe().expect("own executable path");
    let worker_args: Vec<String> = {
        let mut v = vec![
            "--join".into(),
            args.dir.display().to_string(),
            "--threads".into(),
            args.cfg.max_threads.to_string(),
            "--max-attempts".into(),
            args.max_attempts.to_string(),
            "--lease-ms".into(),
            args.lease_ms.to_string(),
            "--poll-ms".into(),
            args.poll_ms.to_string(),
        ];
        if let Some(plan) = &args.chaos {
            v.push("--chaos".into());
            v.push(plan.to_spec());
        }
        if let Some(path) = &args.metrics {
            v.push("--metrics".into());
            v.push(path.display().to_string());
        }
        if args.null_clock {
            v.push("--null-clock".into());
        }
        if args.progress {
            v.push("--progress".into());
        }
        v
    };
    let spawn_worker = |slot: usize| -> Child {
        let child = Command::new(&exe)
            .args(&worker_args)
            .spawn()
            .unwrap_or_else(|e| panic!("spawn worker {slot}: {e}"));
        println!("worker {slot}: spawned process {}", child.id());
        child
    };
    // Enough budget to survive every chaos kill the retry policy can
    // absorb, but bounded: a worker that dies instantly forever cannot
    // spin the supervisor.
    let mut respawns_left = args.procs + args.cfg.shards * args.max_attempts as usize;
    let mut children: Vec<(usize, Child)> = (0..args.procs.max(1))
        .map(|slot| (slot, spawn_worker(slot)))
        .collect();
    let mut last_sig = progress_signature(&args.dir, args.cfg.shards);
    let mut last_change = anneal_fleet::unix_time_ms();
    while !children.is_empty() {
        let mut i = 0;
        let mut reaped = false;
        while i < children.len() {
            let (slot, child) = &mut children[i];
            match child.try_wait().expect("poll worker") {
                Some(status) => {
                    let slot = *slot;
                    children.remove(i);
                    reaped = true;
                    match status.code() {
                        Some(0) => {}
                        Some(DEGRADED_EXIT) => {
                            // worker finished, some shards exhausted —
                            // the merge step below reports them
                        }
                        _ => {
                            let what = if status.code() == Some(CHAOS_KILL_EXIT) {
                                "chaos-killed".to_string()
                            } else {
                                format!("died ({status})")
                            };
                            if respawns_left == 0 {
                                panic!("worker {slot} {what} and the respawn budget is exhausted");
                            }
                            respawns_left -= 1;
                            println!("worker {slot}: {what}; respawning");
                            children.push((slot, spawn_worker(slot)));
                        }
                    }
                }
                None => i += 1,
            }
        }
        if children.is_empty() {
            break;
        }
        let sig = progress_signature(&args.dir, args.cfg.shards);
        let now = anneal_fleet::unix_time_ms();
        if sig != last_sig || reaped {
            last_sig = sig;
            last_change = now;
        } else if now.saturating_sub(last_change) > args.stall_timeout_ms {
            let n = children.len();
            eprintln!(
                "no campaign progress for {} ms; restarting {n} stalled worker(s)",
                args.stall_timeout_ms
            );
            for (_, child) in children.iter_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
            let slots: Vec<usize> = children.drain(..).map(|(slot, _)| slot).collect();
            for slot in slots {
                if respawns_left == 0 {
                    panic!("campaign stalled and the respawn budget is exhausted");
                }
                respawns_left -= 1;
                children.push((slot, spawn_worker(slot)));
            }
            last_change = now;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Reads every worker's sealed `fleet-metrics-*.jsonl` into one
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
        match anneal_fleet::read_sealed(&dir.join(&name)) {
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
/// [`DEGRADED_EXIT`] when shards exhausted their retries.
fn merge_campaign(args: &Args) -> i32 {
    let scan = scan_sealed_shards(&args.dir, args.cfg.shards, shard_file_name)
        .expect("scan shard artifacts");
    for (k, path, reason) in &scan.quarantined {
        println!(
            "shard {k}: corrupt artifact quarantined to {path} ({reason}); re-run to regenerate"
        );
    }
    let fleet_reg = read_fleet_metrics(&args.dir);
    let states: Vec<ShardState> = (0..args.cfg.shards)
        .map(|k| shard_state(&args.dir, k, &shard_file_name(k), args.max_attempts))
        .collect();
    let failed: Vec<usize> = (0..args.cfg.shards)
        .filter(|&k| states[k] == ShardState::Failed)
        .collect();
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

    if !failed.is_empty() {
        // degraded: merge what exists into .partial artifacts, report
        // loudly, exit non-zero — never pretend the campaign is whole
        if !scan.valid.is_empty() {
            let texts: Vec<&str> = scan.valid.iter().map(|(_, t)| t.as_str()).collect();
            let partial = merge_shard_csvs(&texts).expect("valid shard artifacts are inconsistent");
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

    let waiting: Vec<usize> = (0..args.cfg.shards)
        .filter(|&k| states[k] == ShardState::Pending)
        .collect();
    if !waiting.is_empty() {
        println!(
            "merge deferred: {}/{} shard artifacts present (missing {waiting:?})",
            scan.valid.len(),
            args.cfg.shards
        );
        return 0;
    }

    let texts: Vec<&str> = scan.valid.iter().map(|(_, t)| t.as_str()).collect();
    let merged = merge_shard_csvs(&texts).expect("shard artifacts are inconsistent");
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
        merge_metrics(args, metrics_path, &fleet_reg);
    }
    0
}

fn main() {
    let args = parse_args();
    if let Some(dir) = args.join.clone() {
        std::process::exit(run_join(&args, &dir));
    }
    args.cfg.validate();
    std::fs::create_dir_all(&args.dir).expect("create campaign dir");
    check_provenance(&args.dir, &provenance(&args.cfg, args.full));

    let mut worker_degraded = false;
    if !args.merge_only {
        if args.procs > 0 && args.only_shard.is_none() {
            run_multiprocess(&args);
        } else {
            let shards: Vec<usize> = match args.only_shard {
                Some(k) => {
                    assert!(k < args.cfg.shards, "--shard {k} out of range");
                    vec![k]
                }
                None => (0..args.cfg.shards).collect(),
            };
            let runner = CampaignRunner {
                portfolio: portfolio(args.full),
                cfg: args.cfg.clone(),
                metrics: args.metrics.is_some(),
                null_clock: args.null_clock,
                progress: args.progress,
                wall: WallClock::new(),
            };
            let outcome = run_fleet_worker(&args.dir, &shards, &fleet_config(&args), &runner);
            if let WorkerOutcome::Completed { failed, .. } = &outcome {
                worker_degraded = !failed.is_empty();
            }
        }
    }
    if args.no_merge {
        // no failure manifest without a merge phase, but never report
        // a campaign with exhausted shards as success
        std::process::exit(if worker_degraded { DEGRADED_EXIT } else { 0 });
    }
    std::process::exit(merge_campaign(&args));
}

/// Merges every present sealed `metrics-<k>.jsonl` into the campaign
/// registry (plus the fleet counters), then writes the full registry,
/// its deterministic-class view and the time-share summary (text +
/// SVG) — all committed atomically. Shards resumed from a
/// pre-`--metrics` run have no metrics artifact; they are reported and
/// skipped rather than failing the merge.
fn merge_metrics(args: &Args, metrics_path: &Path, fleet_reg: &MetricsRegistry) {
    let mut registry = MetricsRegistry::new();
    let mut cells = Vec::new();
    let mut missing = Vec::new();
    for k in 0..args.cfg.shards {
        let path = args.dir.join(shard_metrics_file_name(k));
        match anneal_fleet::read_sealed(&path) {
            Ok(text) => {
                registry
                    .merge_jsonl(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                cells.extend(
                    parse_cells_jsonl(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
                );
            }
            Err(anneal_fleet::ArtifactError::Missing { .. }) => missing.push(k),
            Err(e) => panic!("{}: {e}", path.display()),
        }
    }
    if !missing.is_empty() {
        println!(
            "metrics merge: {} shard metrics files absent (shards {missing:?} \
             resumed from a run without --metrics)",
            missing.len()
        );
    }
    registry.merge(fleet_reg);
    commit_bytes(metrics_path, registry.to_json().as_bytes()).expect("write merged metrics");
    let det_path = metrics_path.with_extension("det.json");
    commit_bytes(
        &det_path,
        registry.deterministic_only().to_json().as_bytes(),
    )
    .expect("write deterministic metrics view");

    // Cell events feed the human-facing summary. Sort for a
    // deterministic artifact regardless of shard visit order.
    cells.sort_by(|a, b| (a.instance_index, &a.scheduler).cmp(&(b.instance_index, &b.scheduler)));
    let samples: Vec<CellSample> = cells
        .iter()
        .map(|c| CellSample {
            scheduler: c.scheduler.clone(),
            instance: c.instance.clone(),
            wall_ns: c.wall_ns,
        })
        .collect();
    let mut summary = anneal_report::render_metrics_summary(&samples, 10);
    if let Some(fleet_line) = anneal_report::render_fleet_summary(&registry) {
        summary.push('\n');
        summary.push_str(&fleet_line);
    }
    let summary_path = metrics_path.with_extension("summary.txt");
    commit_bytes(&summary_path, summary.as_bytes()).expect("write metrics summary");
    let svg_path = metrics_path.with_extension("timeshare.svg");
    commit_bytes(
        &svg_path,
        anneal_report::render_time_share_svg(&samples).as_bytes(),
    )
    .expect("write time-share svg");
    println!("wrote {}", metrics_path.display());
    println!("wrote {}", det_path.display());
    println!("wrote {}", summary_path.display());
    println!("wrote {}", svg_path.display());
}

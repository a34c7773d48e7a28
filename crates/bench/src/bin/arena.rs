//! Portfolio-vs-portfolio tournament over the full scheduler registry.
//!
//! Evaluates every scheduler in `Portfolio::standard()` (HLF family,
//! greedy, MCT, HEFT, CPOP, staged SA, static SA) on a deterministic
//! instance family and reports the win/loss picture: an ASCII summary
//! table, a head-to-head CSV (`results/arena.csv`) and an SVG win/loss
//! matrix (`results/arena_winloss.svg`). All output is a pure function
//! of the arguments — two runs with the same arguments are
//! byte-identical, which CI asserts.
//!
//! Usage: `arena [random_instances] [seed] [--paper] [--threads T]
//! [--metrics PATH] [--null-clock]`
//!
//! * `random_instances` — size of the synthetic family (default 6).
//! * `seed` — base seed for instance generation and every cell
//!   (default 42).
//! * `--paper` — additionally include the paper's four programs on
//!   their Table-2 architectures (slower; static SA anneals a complete
//!   mapping per cell).
//! * `--threads T` — cap the tournament's worker threads (default `0`
//!   = available parallelism). Never changes results; makes throughput
//!   measurements reproducible on shared CI runners.
//! * `--metrics PATH` — additionally write the tournament's
//!   `anneal-obs` registry (JSON) to `PATH` and its
//!   deterministic-class view to `PATH.det.json`, creating `PATH`'s
//!   directory first (exit 1, before anything runs, if it cannot be
//!   created). Observation never changes the science artifacts.
//! * `--null-clock` — record metrics with the deterministic
//!   `NullClock` (every `time.*` value 0), making the metrics files
//!   byte-reproducible too.
//!
//! Staged SA runs the production SA lane (`SaLane::default()`, turbo),
//! and static SA anneals with eq. 1 on the default move evaluator, the
//! fast-path fixed-mapping kernel. An unknown flag, a
//! missing flag value, an unparsable count or seed, a third positional
//! argument, or a count of 0 without `--paper` (no instances) prints
//! the usage on stderr and exits 2.

use std::path::{Path, PathBuf};

use anneal_arena::{
    paper_instances, run_tournament_observed, standard_instances, Portfolio, TournamentConfig,
};
use anneal_bench::cli::Cli;
use anneal_obs::{Clock, NullClock, WallClock};
use anneal_report::csv::f;
use anneal_report::Table;

const USAGE: &str = "usage: arena [random_instances] [seed] [--paper] [--threads T] \
                     [--metrics PATH] [--null-clock]";

struct Args {
    count: usize,
    seed: u64,
    with_paper: bool,
    threads: usize,
    metrics: Option<PathBuf>,
    null_clock: bool,
}

fn parse_args() -> Args {
    let mut cli = Cli::from_env(USAGE);
    let mut args = Args {
        count: 6,
        seed: 42,
        with_paper: false,
        threads: 0,
        metrics: None,
        null_clock: false,
    };
    let mut positional = 0;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--paper" => args.with_paper = true,
            "--null-clock" => args.null_clock = true,
            "--threads" => args.threads = cli.value(&arg),
            "--metrics" => args.metrics = Some(cli.value(&arg)),
            flag if flag.starts_with('-') => cli.fail(format!("unknown flag {flag:?}")),
            value => {
                match positional {
                    0 => args.count = cli.parse(value),
                    1 => args.seed = cli.parse(value),
                    _ => cli.fail(format!("unexpected argument {value:?}")),
                }
                positional += 1;
            }
        }
    }
    if args.count == 0 && !args.with_paper {
        cli.fail("no instances: give a positive count or --paper");
    }
    args
}

fn main() {
    let Args {
        count,
        seed,
        with_paper,
        threads,
        metrics,
        null_clock,
    } = parse_args();
    // Create the metrics directory before anything runs, so a metrics
    // path that cannot be created fails before the results are written.
    if let Some(dir) = metrics.as_deref().and_then(Path::parent) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("arena: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let portfolio = Portfolio::standard();
    let mut instances = standard_instances(seed, count);
    if with_paper {
        instances.extend(paper_instances());
    }

    let wall = WallClock::new();
    let clock: &(dyn Clock + Sync) = if null_clock { &NullClock } else { &wall };
    let (result, registry) = run_tournament_observed(
        &portfolio,
        &instances,
        &TournamentConfig {
            base_seed: seed,
            max_threads: threads,
        },
        clock,
    )
    .expect("tournament run failed");

    let wins = result.wins();
    let mut table =
        Table::new(vec!["Scheduler", "Wins", "Mean ratio", "Worst ratio"]).with_title(format!(
            "Arena: {} schedulers x {} instances (seed {seed})",
            result.schedulers.len(),
            result.instances.len()
        ));
    for (i, name) in result.schedulers.iter().enumerate() {
        let ratios: Vec<f64> = (0..result.instances.len())
            .map(|j| result.ratio(i, j))
            .collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let worst = ratios.iter().cloned().fold(0.0f64, f64::max);
        table.row(vec![
            name.clone(),
            format!("{}/{}", wins[i], result.instances.len()),
            f(mean, 4),
            f(worst, 4),
        ]);
    }
    print!("{}", table.render());

    let dir = anneal_bench::results_dir();
    let csv_path = dir.join("arena.csv");
    result.to_csv().write_to(&csv_path).expect("write csv");
    let svg_path = dir.join("arena_winloss.svg");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(&svg_path, result.win_loss_svg()).expect("write svg");
    println!("wrote {}", csv_path.display());
    println!("wrote {}", svg_path.display());

    if let Some(path) = &metrics {
        std::fs::write(path, registry.to_json()).expect("write metrics");
        let det_path = path.with_extension("det.json");
        std::fs::write(&det_path, registry.deterministic_only().to_json())
            .expect("write deterministic metrics view");
        println!("wrote {}", path.display());
        println!("wrote {}", det_path.display());
    }
}

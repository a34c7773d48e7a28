//! Statistical comparison on random task graphs (the paper cites Adam,
//! Chandy & Dickinson's result that HLF stays within 5 % of optimal in
//! all but one of 900 random graphs, and observes that SA matches or
//! slightly beats HLF without communication).
//!
//! Generates a population of small random layered graphs, computes the
//! exact optimum (branch and bound, no communication) and reports how
//! close HLF and SA (the paper's annealer, `SaLane::Exact`) get.
//!
//! Usage: `random_survey [count] [procs]` (defaults 100 graphs on 3
//! processors). A count or processor number that is not a positive
//! integer, a third argument or a flag prints the usage on stderr and
//! exits 2.

use anneal_bench::cli::Cli;
use anneal_core::optimal::optimal_makespan;
use anneal_core::{HlfScheduler, SaConfig, SaLane, SaScheduler};
use anneal_report::{csv::f, Csv, Table};
use anneal_sim::{simulate, SimConfig};
use anneal_topology::builders::bus;
use anneal_topology::CommParams;
use anneal_workloads::random::Population;

fn parse_args() -> (usize, usize) {
    let mut cli = Cli::from_env("usage: random_survey [count] [procs]");
    let mut sizes = [100, 3];
    let mut positional = 0;
    while let Some(arg) = cli.next_arg() {
        if arg.starts_with('-') {
            cli.fail(format!("unknown flag {arg:?}"));
        }
        let Some(slot) = sizes.get_mut(positional) else {
            cli.fail(format!("unexpected argument {arg:?}"));
        };
        *slot = cli.parse(&arg);
        if *slot == 0 {
            cli.fail(format!("{arg:?} must be a positive integer"));
        }
        positional += 1;
    }
    (sizes[0], sizes[1])
}

fn main() {
    let (count, procs) = parse_args();
    let pop = Population::survey_small(2024, count);
    let topo = bus(procs);
    let cfg = SimConfig {
        comm_enabled: false,
        ..SimConfig::default()
    };

    let mut hlf_ratios = Vec::with_capacity(count);
    let mut sa_ratios = Vec::with_capacity(count);
    let mut exact = 0usize;
    let mut csv = Csv::new();
    csv.row(&[
        "instance",
        "optimal_ns",
        "hlf_ns",
        "sa_ns",
        "hlf_ratio",
        "sa_ratio",
    ]);

    for (i, g) in pop.instances().enumerate() {
        let opt = optimal_makespan(&g, procs, 20_000_000);
        if opt.is_exact() {
            exact += 1;
        }
        let mut hlf = HlfScheduler::new();
        let mh = simulate(&g, &topo, &CommParams::zero(), &mut hlf, &cfg)
            .unwrap_or_else(|e| panic!("instance {i}: HLF run failed: {e}"))
            .makespan;
        let mut sa = SaScheduler::new(
            SaConfig::default()
                .with_seed(i as u64)
                .with_lane(SaLane::Exact),
        );
        let ms = simulate(&g, &topo, &CommParams::zero(), &mut sa, &cfg)
            .unwrap_or_else(|e| panic!("instance {i}: SA run failed: {e}"))
            .makespan;
        let rh = mh as f64 / opt.value() as f64;
        let rs = ms as f64 / opt.value() as f64;
        hlf_ratios.push(rh);
        sa_ratios.push(rs);
        csv.row(&[
            i.to_string(),
            opt.value().to_string(),
            mh.to_string(),
            ms.to_string(),
            f(rh, 4),
            f(rs, 4),
        ]);
    }

    let summarize = |v: &[f64]| {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let max = v.iter().cloned().fold(0.0f64, f64::max);
        let within5 = v.iter().filter(|&&r| r <= 1.05).count();
        let optimal = v.iter().filter(|&&r| r <= 1.0 + 1e-12).count();
        (mean, max, within5, optimal)
    };
    let (h_mean, h_max, h_w5, h_opt) = summarize(&hlf_ratios);
    let (s_mean, s_max, s_w5, s_opt) = summarize(&sa_ratios);

    let mut table = Table::new(vec![
        "Scheduler",
        "Mean ratio",
        "Worst ratio",
        "Within 5% of opt",
        "Exactly optimal",
    ])
    .with_title(format!(
        "Random survey: {count} layered graphs (16 tasks) on {procs} processors, no comm \
         ({exact}/{count} optima proven exact)"
    ));
    table.row(vec![
        "HLF".into(),
        f(h_mean, 4),
        f(h_max, 4),
        format!("{h_w5}/{count}"),
        format!("{h_opt}/{count}"),
    ]);
    table.row(vec![
        "SA".into(),
        f(s_mean, 4),
        f(s_max, 4),
        format!("{s_w5}/{count}"),
        format!("{s_opt}/{count}"),
    ]);
    print!("{}", table.render());

    let path = anneal_bench::results_dir().join("random_survey.csv");
    csv.write_to(&path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

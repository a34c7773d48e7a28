//! Reproduces **Table 2** — "Speedup figures for the benchmark
//! programs": SA vs HLF on hypercube(8), bus(8) and ring(9), with and
//! without communication, plus the "% gain" columns.
//!
//! By default SA uses the paper's tuning methodology (a small sweep of
//! `w_b` and seeds per cell, keeping the best); pass `--fast` for a
//! single-configuration pass. Writes `results/table2.csv`.
//!
//! Usage: `table2 [--fast]`. Any other argument prints the usage on
//! stderr and exits 2.

use anneal_bench::cli::Cli;
use anneal_bench::{gain_pct, paper_table2, results_dir, run_hlf, run_sa_tuned, CommMode};
use anneal_report::{csv::f, Csv, Table};
use anneal_topology::builders::paper_architectures;
use anneal_workloads::paper_workloads;

fn main() {
    let fast = Cli::from_env("usage: table2 [--fast]").only_switch("--fast");
    if fast {
        println!("(--fast: single SA configuration, no tuning sweep)\n");
    }
    let paper = paper_table2();
    let mut csv = Csv::new();
    csv.row(&[
        "program",
        "topology",
        "comm",
        "sa_speedup",
        "hlf_speedup",
        "gain_pct",
        "paper_sa",
        "paper_hlf",
        "paper_gain_pct",
    ]);

    for (name, g) in paper_workloads() {
        let mut table = Table::new(vec![
            "Architecture",
            "(Sp)SA w/o",
            "(Sp)HLF w/o",
            "% gain w/o",
            "(Sp)SA with",
            "(Sp)HLF with",
            "% gain with",
        ])
        .with_title(format!(
            "Table 2 [{name}] (first row measured, second row paper)"
        ));

        for topo in paper_architectures() {
            let mut measured = [0.0f64; 4]; // sa_wo, hlf_wo, sa_with, hlf_with
            for (i, mode) in CommMode::both().into_iter().enumerate() {
                let rh = run_hlf(&g, &topo, mode);
                let (rs, _cfg) = run_sa_tuned(&g, &topo, mode, fast);
                rs.audit(&g).expect("SA schedule valid");
                rh.audit(&g).expect("HLF schedule valid");
                measured[2 * i] = rs.speedup;
                measured[2 * i + 1] = rh.speedup;
            }
            let p = paper
                .iter()
                .find(|(pn, pt, _)| *pn == name && *pt == topo.name())
                .map(|(_, _, v)| *v)
                .expect("paper reference row");

            table.row(vec![
                topo.name().to_string(),
                f(measured[0], 2),
                f(measured[1], 2),
                f(gain_pct(measured[0], measured[1]), 1),
                f(measured[2], 2),
                f(measured[3], 2),
                f(gain_pct(measured[2], measured[3]), 1),
            ]);
            table.row(vec![
                "  (paper)".into(),
                f(p[0], 2),
                f(p[1], 2),
                f(gain_pct(p[0], p[1]), 1),
                f(p[2], 2),
                f(p[3], 2),
                f(gain_pct(p[2], p[3]), 1),
            ]);
            table.separator();

            for (mode, si, hi, psi, phi) in
                [(CommMode::Off, 0, 1, 0, 1), (CommMode::On, 2, 3, 2, 3)]
            {
                csv.row(&[
                    name.to_string(),
                    topo.name().to_string(),
                    mode.label().to_string(),
                    f(measured[si], 3),
                    f(measured[hi], 3),
                    f(gain_pct(measured[si], measured[hi]), 2),
                    f(p[psi], 3),
                    f(p[phi], 3),
                    f(gain_pct(p[psi], p[phi]), 2),
                ]);
            }
        }
        print!("{}", table.render());
        println!();
    }

    let path = results_dir().join("table2.csv");
    csv.write_to(&path).expect("write csv");
    println!("wrote {}", path.display());
}

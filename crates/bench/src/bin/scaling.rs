//! Scaling study (extension): speedup vs processor count.
//!
//! The paper evaluates fixed machine sizes (8/8/9). This sweep grows the
//! hypercube from 2 to 32 nodes and the ring from 3 to 33, showing where
//! each workload saturates: the knee should track Table 1's max-speedup
//! column without communication and arrive much earlier with it.
//! Writes `results/scaling.csv`.
//!
//! Usage: `scaling [--fast]` (`--fast`: one SA configuration per cell
//! instead of the tuning sweep). Any other argument prints the usage on
//! stderr and exits 2.

use anneal_bench::cli::Cli;
use anneal_bench::{results_dir, run_hlf, run_sa_tuned, CommMode};
use anneal_report::{csv::f, Csv, Table};
use anneal_topology::builders::{hypercube, ring};
use anneal_workloads::paper_workloads;

fn main() {
    let fast = Cli::from_env("usage: scaling [--fast]").only_switch("--fast");
    let mut csv = Csv::new();
    csv.row(&["workload", "topology", "procs", "comm", "sa", "hlf"]);

    for (name, g) in paper_workloads() {
        let mut table = Table::new(vec!["Machine", "SA w/o", "SA with", "HLF with", "SA gain"])
            .with_title(format!("Scaling [{name}] (max speedup from Table 1 shape)"));
        let machines = [
            hypercube(1),
            hypercube(2),
            hypercube(3),
            hypercube(4),
            hypercube(5),
            ring(3),
            ring(9),
            ring(17),
            ring(33),
        ];
        for host in machines {
            let (sa_wo, _) = run_sa_tuned(&g, &host, CommMode::Off, fast);
            let (sa_w, _) = run_sa_tuned(&g, &host, CommMode::On, fast);
            let hlf_w = run_hlf(&g, &host, CommMode::On);
            table.row(vec![
                host.name().to_string(),
                f(sa_wo.speedup, 2),
                f(sa_w.speedup, 2),
                f(hlf_w.speedup, 2),
                format!("{:+.1} %", (sa_w.speedup / hlf_w.speedup - 1.0) * 100.0),
            ]);
            for (comm, sa, hlf) in [
                ("off", sa_wo.speedup, f64::NAN),
                ("on", sa_w.speedup, hlf_w.speedup),
            ] {
                csv.row(&[
                    name.to_string(),
                    host.name().to_string(),
                    host.num_procs().to_string(),
                    comm.to_string(),
                    f(sa, 3),
                    if hlf.is_nan() {
                        String::new()
                    } else {
                        f(hlf, 3)
                    },
                ]);
            }
        }
        print!("{}", table.render());
        println!();
    }
    let path = results_dir().join("scaling.csv");
    csv.write_to(&path).expect("write csv");
    println!("wrote {}", path.display());
}

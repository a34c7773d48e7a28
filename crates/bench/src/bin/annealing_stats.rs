//! Reproduces the **§6a annealing-process statistics**: the paper
//! reports that the Newton-Euler program's 95 tasks "are assigned in 65
//! annealing packets. On the average there are 15 candidates for 1.46
//! free processors."
//!
//! Runs the paper's annealer (`SaLane::Exact`): the production turbo
//! lane solves each packet exactly, with no temperature steps or moves
//! to count.

use anneal_core::{SaConfig, SaLane, SaScheduler};
use anneal_obs::{MetricsRegistry, Recorder as _};
use anneal_report::{csv::f, Table};
use anneal_sim::{simulate, SimConfig};
use anneal_topology::builders::paper_architectures;
use anneal_topology::CommParams;
use anneal_workloads::paper_workloads;

fn main() {
    let mut table = Table::new(vec![
        "Program",
        "Architecture",
        "Tasks",
        "Packets",
        "Avg candidates",
        "Avg idle procs",
        "Temp steps/packet",
        "Accept rate",
    ])
    .with_title(
        "Annealing-process statistics (paper, NE: 95 tasks, 65 packets, 15 cand / 1.46 idle)",
    );

    let mut totals = MetricsRegistry::new();
    for (name, g) in paper_workloads() {
        for topo in paper_architectures() {
            let mut sa = SaScheduler::new(SaConfig::default().with_lane(SaLane::Exact));
            simulate(
                &g,
                &topo,
                &CommParams::paper(),
                &mut sa,
                &SimConfig::default(),
            )
            .expect("simulation");
            let st = &sa.stats;
            st.record_into(&mut totals);
            totals.add("runs", 1);
            table.row(vec![
                name.to_string(),
                topo.name().to_string(),
                g.num_tasks().to_string(),
                st.packets.to_string(),
                f(st.avg_candidates(), 2),
                f(st.avg_idle(), 2),
                f(st.iterations_per_packet(), 1),
                f(st.acceptance_rate(), 2),
            ]);
        }
        table.separator();
    }
    print!("{}", table.render());
    println!(
        "totals: {} runs, {} packets, {} iterations, {} moves ({} accepted), {} tasks assigned",
        totals.counter("runs"),
        totals.counter("sa.packets"),
        totals.counter("sa.iterations"),
        totals.counter("sa.moves"),
        totals.counter("sa.accepted"),
        totals.counter("sa.assigned"),
    );
}

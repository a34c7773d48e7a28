//! Reproduces **Figure 2** — "Gantt-chart of the Newton-Euler program on
//! an 8 processor Hypercube (detail)": numbered compute blocks with
//! send/receive half-blocks and routing marks.
//!
//! Runs the paper's annealer (`SaLane::Exact`). Renders the first 30 %
//! of the SA run (the paper shows the start of
//! the program) plus the whole run at coarser resolution, and writes
//! `results/figure2.csv` with every span.

use anneal_bench::results_dir;
use anneal_core::{SaConfig, SaLane, SaScheduler};
use anneal_report::gantt::{render_gantt, GanttOptions};
use anneal_report::svg::{render_svg, SvgOptions};
use anneal_report::{csv::f, Csv};
use anneal_sim::{simulate, SimConfig, SpanKind};
use anneal_topology::builders::hypercube;
use anneal_topology::CommParams;
use anneal_workloads::ne_paper;

fn main() {
    let g = ne_paper();
    let topo = hypercube(3);
    let mut sa = SaScheduler::new(
        SaConfig::default()
            .with_balance_weight(0.5)
            .with_lane(SaLane::Exact),
    );
    let r = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut sa,
        &SimConfig::default(),
    )
    .expect("NE simulation");
    r.audit(&g).expect("valid schedule");

    println!(
        "Figure 2: Newton-Euler on hypercube(8), SA schedule — makespan {:.1} us, speedup {:.2}\n",
        r.makespan_us(),
        r.speedup
    );
    println!("Detail: start of the program (first 30% of the run)\n");
    let detail = GanttOptions {
        width: 110,
        window: Some((0, r.makespan * 3 / 10)),
        task_ids: true,
    };
    print!("{}", render_gantt(&r.gantt, topo.num_procs(), &detail));

    println!("\nFull run (coarse)\n");
    let full = GanttOptions {
        width: 110,
        window: None,
        task_ids: false,
    };
    print!("{}", render_gantt(&r.gantt, topo.num_procs(), &full));

    let mut csv = Csv::new();
    csv.row(&["proc", "kind", "start_us", "end_us", "task"]);
    for s in &r.gantt.spans {
        csv.row(&[
            s.proc.index().to_string(),
            match s.kind {
                SpanKind::Compute => "compute".to_string(),
                SpanKind::Send => "send".to_string(),
                SpanKind::Receive => "receive".to_string(),
                SpanKind::Route => "route".to_string(),
            },
            f(s.start as f64 / 1000.0, 3),
            f(s.end as f64 / 1000.0, 3),
            s.task.map(|t| t.index().to_string()).unwrap_or_default(),
        ]);
    }
    let path = results_dir().join("figure2.csv");
    csv.write_to(&path).expect("write csv");
    println!("wrote {}", path.display());

    let svg = render_svg(&r.gantt, topo.num_procs(), &SvgOptions::default());
    let svg_path = results_dir().join("figure2.svg");
    std::fs::write(&svg_path, svg).expect("write svg");
    println!("wrote {}", svg_path.display());
}

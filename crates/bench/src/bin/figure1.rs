//! Reproduces **Figure 1** — "Cost trajectories F_b (level), F_c
//! (communication) and F_tot (weighted sum) of a Newton-Euler annealing
//! packet for an 8 node hypercube. The weights are w_b = w_c = 0.5."
//!
//! Runs NE on the hypercube with trace recording on the paper's
//! annealer (`SaLane::Exact`; the production turbo lane solves each
//! packet without annealing it), picks the packet whose F_tot takes the
//! most distinct values (the paper shows a "rich" packet with a long
//! trajectory), renders an ASCII chart and writes
//! `results/figure1.csv` with every sample of the chosen packet plus
//! `results/figure1.jsonl` with every sample of *every* packet (the
//! `anneal-obs` trace-event export).

use anneal_bench::results_dir;
use anneal_core::{PacketTrace, SaConfig, SaLane, SaScheduler, TraceSample};
use anneal_obs::JsonlSink;
use anneal_report::{csv::f, Chart, Csv, Series};
use anneal_sim::{simulate, SimConfig};
use anneal_topology::builders::hypercube;
use anneal_topology::CommParams;
use anneal_workloads::ne_paper;

fn main() {
    let g = ne_paper();
    let topo = hypercube(3);
    let cfg = SaConfig {
        record_traces: true,
        ..SaConfig::default()
            .with_balance_weight(0.5)
            .with_lane(SaLane::Exact)
    };
    let mut sa = SaScheduler::new(cfg);
    let result = simulate(
        &g,
        &topo,
        &CommParams::paper(),
        &mut sa,
        &SimConfig::default(),
    )
    .expect("NE simulation");

    // The paper shows a packet whose cost evolves over a long
    // trajectory: chart the packet whose F_tot takes the most distinct
    // values, then the one with the most samples, then the earliest.
    let distinct = |t: &PacketTrace, term: fn(&TraceSample) -> f64| {
        let mut vals: Vec<f64> = t.samples.iter().map(term).collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        vals.len()
    };
    let trace = sa
        .traces
        .iter()
        .max_by_key(|t| {
            (
                distinct(t, |s| s.f_total),
                t.samples.len(),
                std::cmp::Reverse(t.packet),
            )
        })
        .expect("at least one packet traced");
    println!("packet choice: most distinct F_tot values, then most samples, then lowest index");
    println!(
        "Figure 1: packet #{} at t = {:.1} us ({} candidates, {} idle procs, {} moves, final cost {:.3})",
        trace.packet,
        trace.epoch_time as f64 / 1000.0,
        trace.candidates,
        trace.idle,
        trace.samples.len(),
        trace.final_cost()
    );
    println!(
        "distinct values: F_b {}, F_c {}, F_tot {}",
        distinct(trace, |s| s.f_b_raw),
        distinct(trace, |s| s.f_c_raw),
        distinct(trace, |s| s.f_total)
    );

    // The paper plots the raw cost terms in microsecond units: the
    // communication cost decreasing from above, the (negative) level
    // cost decreasing from below, and the weighted sum in between.
    let fb: Vec<f64> = trace.samples.iter().map(|s| s.f_b_raw / 1_000.0).collect();
    let fc: Vec<f64> = trace.samples.iter().map(|s| s.f_c_raw / 1_000.0).collect();
    let ft: Vec<f64> = trace
        .samples
        .iter()
        .map(|s| s.weighted_raw(0.5, 0.5) / 1_000.0)
        .collect();
    let mut chart = Chart::new(100, 28).with_labels("iterations", "cost (us)");
    chart.add(Series::new("Comm. Cost Fc", 'c', fc));
    chart.add(Series::new("Level Cost Fb", 'b', fb));
    chart.add(Series::new("Tot. Cost (wb*Fb + wc*Fc)", 'T', ft));
    print!("{}", chart.render());

    let mut csv = Csv::new();
    csv.row(&[
        "iter",
        "temp",
        "f_b_raw_ns",
        "f_c_raw_ns",
        "f_b_norm",
        "f_c_norm",
        "f_total",
        "accepted",
    ]);
    for s in &trace.samples {
        csv.row(&[
            s.iter.to_string(),
            f(s.temp, 6),
            f(s.f_b_raw, 1),
            f(s.f_c_raw, 1),
            f(s.f_b_norm, 6),
            f(s.f_c_norm, 6),
            f(s.f_total, 6),
            (s.accepted as u8).to_string(),
        ]);
    }
    let path = results_dir().join("figure1.csv");
    csv.write_to(&path).expect("write csv");

    // Full trace export: one JSONL event per sample of every packet,
    // for ad-hoc analysis beyond the single charted packet.
    let mut sink = JsonlSink::new();
    for t in &sa.traces {
        t.export_jsonl(&mut sink);
    }
    let jsonl_path = results_dir().join("figure1.jsonl");
    std::fs::write(&jsonl_path, sink.as_str()).expect("write jsonl");
    println!(
        "wrote {} ({} packets, {} samples)",
        jsonl_path.display(),
        sa.traces.len(),
        sa.traces.iter().map(|t| t.samples.len()).sum::<usize>()
    );
    println!(
        "run: makespan {:.1} us, speedup {:.2}; wrote {}",
        result.makespan_us(),
        result.speedup,
        path.display()
    );
}

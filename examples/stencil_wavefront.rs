//! Wavefront stencil on a 2-D mesh: parallelism that ramps up and down.
//!
//! Compares four schedulers on a workload shape the paper never tested:
//! the plain HLF baseline, the comm-aware greedy (HLF ranking +
//! minimum-eq.4 placement), the paper's staged SA, and whole-graph
//! static SA with simulation-in-the-loop cost.
//!
//! ```text
//! cargo run --release --example stencil_wavefront
//! ```

use annealsched::prelude::*;
use annealsched::workloads::stencil::{stencil, StencilConfig};

fn main() {
    let g = stencil(&StencilConfig::default()); // 10x10 wavefront
    println!("workload: {}\n", GraphMetrics::compute(&g));
    let host = mesh(3, 3);
    let params = CommParams::paper();
    let sim_cfg = SimConfig::default();

    let mut hlf = HlfScheduler::new();
    let rh = simulate(&g, &host, &params, &mut hlf, &sim_cfg).unwrap();
    println!("{:22} speedup {:.2}", "HLF", rh.speedup);

    let mut mct = ListScheduler::mct();
    let rm = simulate(&g, &host, &params, &mut mct, &sim_cfg).unwrap();
    println!("{:22} speedup {:.2}", "HLF + MCT placement", rm.speedup);

    let mut sa = SaScheduler::new(SaConfig::default());
    let rs = simulate(&g, &host, &params, &mut sa, &sim_cfg).unwrap();
    println!("{:22} speedup {:.2}", "staged SA (paper)", rs.speedup);

    let st = static_sa(&g, &host, &params, &sim_cfg, &StaticSaConfig::default()).unwrap();
    println!(
        "{:22} speedup {:.2}  ({} full simulations)",
        "whole-graph static SA", st.result.speedup, st.evaluations
    );

    println!(
        "\nwavefront width ramps 1..10..1, so the packet scheduler sees the\n\
         candidate/idle ratio change every epoch; placement-aware schedulers\n\
         keep diagonal neighbors together and save halo messages:"
    );
    for (name, r) in [
        ("HLF", &rh),
        ("MCT", &rm),
        ("SA", &rs),
        ("static", &st.result),
    ] {
        println!(
            "  {name:8} messages {:4}  comm overhead {:7.1} us",
            r.comm.messages,
            r.comm.overhead_ns as f64 / 1000.0
        );
    }
}

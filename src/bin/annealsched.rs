//! `annealsched` — command-line scheduler.
//!
//! Schedules a task graph (`.tg` text format, see
//! `anneal_graph::textio`) onto a named topology and reports makespan,
//! speedup, utilization and an optional Gantt chart.
//!
//! ```text
//! annealsched <graph.tg|@workload> [options]
//!
//!   @ne | @gj | @fft | @mm     built-in paper workloads
//!   --topo <spec>              hypercube:<dim> | bus:<n> | ring:<n> |
//!                              star:<n> | mesh:<w>x<h> | torus:<w>x<h> |
//!                              sharedbus:<n> | linear:<n> | complete:<n> |
//!                              binary_tree:<n>, at most 1024 processors
//!                              (default hypercube:3)
//!   --scheduler <sa|hlf|mct|fifo|lpt>     (default sa)
//!   --no-comm                  disable the communication model
//!   --seed <u64>               SA seed (default 42)
//!   --wb <0..1>                SA balance weight (default 0.5)
//!   --gantt                    print an ASCII Gantt chart
//!   --dot <file>               export the graph as Graphviz DOT
//! ```

use annealsched::core::list::{ListScheduler, PriorityPolicy};
use annealsched::graph::textio;
use annealsched::prelude::*;
use annealsched::report::gantt::{render_gantt, GanttOptions};

fn usage() -> ! {
    eprintln!(
        "usage: annealsched <graph.tg|@ne|@gj|@fft|@mm> [--topo spec] \
         [--scheduler sa|hlf|mct|fifo|lpt] [--no-comm] [--seed N] [--wb F] \
         [--gantt] [--dot FILE]"
    );
    std::process::exit(2);
}

/// Builds the `--topo` host: `KIND:N` or `KIND:WxH` is the corpus spec
/// `KIND N` or `KIND W H`, parsed (and size-capped) by
/// `anneal_arena::parse_topology`.
fn parse_topology(spec: &str) -> Topology {
    let (kind, size) = spec.split_once(':').unwrap_or((spec, ""));
    let tokens: Vec<&str> = std::iter::once(kind).chain(size.split('x')).collect();
    // A blank token would vanish in the corpus parser's whitespace split.
    let blank = |t: &str| t.is_empty() || t.contains(char::is_whitespace);
    let parsed = if tokens.iter().any(|t| blank(t)) {
        Err("want KIND:N or KIND:WxH".to_string())
    } else {
        annealsched::arena::parse_topology(&tokens.join(" ")).map_err(|e| e.to_string())
    };
    parsed.unwrap_or_else(|reason| {
        eprintln!("bad --topo '{spec}': {reason}");
        usage()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut input: Option<String> = None;
    let mut topo_spec = "hypercube:3".to_string();
    let mut scheduler = "sa".to_string();
    let mut comm = true;
    let mut seed = 42u64;
    let mut wb = 0.5f64;
    let mut want_gantt = false;
    let mut dot_file: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--topo" => topo_spec = it.next().unwrap_or_else(|| usage()),
            "--scheduler" => scheduler = it.next().unwrap_or_else(|| usage()),
            "--no-comm" => comm = false,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--wb" => {
                wb = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--gantt" => want_gantt = true,
            "--dot" => dot_file = Some(it.next().unwrap_or_else(|| usage())),
            "-h" | "--help" => usage(),
            other if input.is_none() => input = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument '{other}'");
                usage();
            }
        }
    }
    let input = input.unwrap_or_else(|| usage());

    let g: TaskGraph = match input.as_str() {
        "@ne" => ne_paper(),
        "@gj" => gj_paper(),
        "@fft" => fft_paper(),
        "@mm" => mm_paper(),
        path => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            textio::from_text(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(1);
            })
        }
    };
    let host = parse_topology(&topo_spec);
    let params = if comm {
        CommParams::paper()
    } else {
        CommParams::zero()
    };
    let sim_cfg = SimConfig {
        comm_enabled: comm,
        ..SimConfig::default()
    };

    println!("graph:    {}", GraphMetrics::compute(&g));
    println!("machine:  {} ({} procs)", host.name(), host.num_procs());

    let mut sched: Box<dyn OnlineScheduler> = match scheduler.as_str() {
        "sa" => Box::new(SaScheduler::new(
            SaConfig::default().with_balance_weight(wb).with_seed(seed),
        )),
        "hlf" => Box::new(HlfScheduler::new()),
        "mct" => Box::new(ListScheduler::mct()),
        "fifo" => Box::new(ListScheduler::new(PriorityPolicy::Fifo)),
        "lpt" => Box::new(ListScheduler::new(PriorityPolicy::LongestTaskFirst)),
        other => {
            eprintln!("unknown scheduler '{other}'");
            std::process::exit(2);
        }
    };
    let r = simulate(&g, &host, &params, sched.as_mut(), &sim_cfg).unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    });
    if let Err(e) = r.audit(&g) {
        eprintln!("internal error: schedule failed audit: {e}");
        std::process::exit(1);
    }

    println!("scheduler: {}", r.scheduler);
    println!(
        "makespan: {:.1} us   speedup {:.2}   utilization {:.1} %",
        r.makespan_us(),
        r.speedup,
        r.utilization() * 100.0
    );
    println!(
        "comm:     {} messages, {} hops, transfer {:.1} us, overhead {:.1} us",
        r.comm.messages,
        r.comm.hops,
        r.comm.transfer_ns as f64 / 1000.0,
        r.comm.overhead_ns as f64 / 1000.0
    );
    if want_gantt {
        println!();
        print!(
            "{}",
            render_gantt(&r.gantt, host.num_procs(), &GanttOptions::default())
        );
    }
    if let Some(path) = dot_file {
        let dot = annealsched::graph::dot::to_dot(&g, &Default::default());
        std::fs::write(&path, dot).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
}

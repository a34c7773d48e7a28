//! Ablation studies for the choices the paper leaves open or this
//! implementation makes:
//!
//! 1. **Cooling schedule** (geometric / linear / logarithmic / constant).
//! 2. **Acceptance rule** (the paper's heat bath vs Metropolis).
//! 3. **Weight sweep** `w_b` from 0 to 1 (the paper's tunable trade-off).
//! 4. **Balance-range convention** (`Full` vs the literal `PerIdle`).
//! 5. **keep-best** on/off (restoring the best mapping seen).
//! 6. **Bus contention**: dedicated pairwise channels vs one shared
//!    channel (`shared_bus`).
//! 7. **Scheduler family**: HLF vs HLF+MCT placement vs staged SA vs
//!    whole-graph static SA (simulation-in-the-loop cost), separating
//!    the value of placement awareness from stochastic search and of
//!    staging from whole-graph annealing.
//!
//! All runs: Newton-Euler with communication unless stated. Staged SA
//! runs the paper's annealer (`SaLane::Exact`, set on every config): the
//! production turbo lane solves each packet exactly and ignores the
//! cooling, acceptance and keep-best settings compared here. Writes
//! `results/ablations.csv`.

use anneal_bench::{results_dir, run_hlf, run_sa, CommMode};
use anneal_core::boltzmann::AcceptanceRule;
use anneal_core::cooling::CoolingSchedule;
use anneal_core::cost::BalanceRange;
use anneal_core::list::ListScheduler;
use anneal_core::static_sa::{static_sa, StaticSaConfig};
use anneal_core::{SaConfig, SaLane};
use anneal_report::{csv::f, Csv, Table};
use anneal_sim::simulate;
use anneal_topology::builders::{bus, hypercube, shared_bus};
use anneal_workloads::{ne_paper, paper_workloads};

fn main() {
    let annealer = SaConfig::default().with_lane(SaLane::Exact);
    let g = ne_paper();
    let cube = hypercube(3);
    let mut csv = Csv::new();
    csv.row(&["study", "variant", "workload", "topology", "speedup"]);

    // 1. Cooling schedules.
    let mut t1 = Table::new(vec!["Cooling", "Speedup (NE, hypercube, comm)"])
        .with_title("Ablation 1: cooling schedule");
    for (name, cooling) in [
        ("geometric(1.0, 0.95)", CoolingSchedule::default_geometric()),
        (
            "geometric(1.0, 0.85)",
            CoolingSchedule::Geometric {
                t0: 1.0,
                alpha: 0.85,
            },
        ),
        (
            "linear(1.0, 0.01)",
            CoolingSchedule::Linear {
                t0: 1.0,
                step: 0.01,
            },
        ),
        ("logarithmic(1.0)", CoolingSchedule::Logarithmic { t0: 1.0 }),
        (
            "constant(0.0) = descent",
            CoolingSchedule::Constant { temp: 0.0 },
        ),
        (
            "constant(1.0) = random walk",
            CoolingSchedule::Constant { temp: 1.0 },
        ),
    ] {
        let cfg = SaConfig {
            cooling,
            ..annealer.clone()
        };
        let r = run_sa(&g, &cube, CommMode::On, cfg);
        t1.row(vec![name.to_string(), f(r.speedup, 2)]);
        csv.row(&[
            "cooling".into(),
            name.to_string(),
            "NE".into(),
            "hypercube(8)".into(),
            f(r.speedup, 3),
        ]);
    }
    print!("{}", t1.render());
    println!();

    // 2. Acceptance rules.
    let mut t2 = Table::new(vec!["Acceptance", "Speedup (NE, hypercube, comm)"])
        .with_title("Ablation 2: acceptance rule");
    for (name, acceptance) in [
        ("heat bath (paper eq. 1)", AcceptanceRule::HeatBath),
        ("Metropolis", AcceptanceRule::Metropolis),
    ] {
        let cfg = SaConfig {
            acceptance,
            ..annealer.clone()
        };
        let r = run_sa(&g, &cube, CommMode::On, cfg);
        t2.row(vec![name.to_string(), f(r.speedup, 2)]);
        csv.row(&[
            "acceptance".into(),
            name.to_string(),
            "NE".into(),
            "hypercube(8)".into(),
            f(r.speedup, 3),
        ]);
    }
    print!("{}", t2.render());
    println!();

    // 3. Weight sweep over every workload.
    let mut t3 = Table::new(vec!["w_b", "NE", "GJ", "FFT", "MM"])
        .with_title("Ablation 3: balance weight w_b (w_c = 1 - w_b), hypercube, comm");
    for wb in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let mut cells = vec![f(wb, 1)];
        for (name, wg) in paper_workloads() {
            let cfg = annealer.clone().with_balance_weight(wb);
            let r = run_sa(&wg, &cube, CommMode::On, cfg);
            cells.push(f(r.speedup, 2));
            csv.row(&[
                "weights".into(),
                format!("wb={wb}"),
                name.to_string(),
                "hypercube(8)".into(),
                f(r.speedup, 3),
            ]);
        }
        t3.row(cells);
    }
    print!("{}", t3.render());
    println!();

    // 4. Balance-range convention.
    let mut t4 = Table::new(vec!["dF_b convention", "Speedup (NE, hypercube, comm)"])
        .with_title("Ablation 4: balance normalization range");
    for (name, balance_range) in [
        ("Max - Min (Full)", BalanceRange::Full),
        ("(Max - Min)/N_idle (PerIdle)", BalanceRange::PerIdle),
    ] {
        let cfg = SaConfig {
            balance_range,
            ..annealer.clone()
        };
        let r = run_sa(&g, &cube, CommMode::On, cfg);
        t4.row(vec![name.to_string(), f(r.speedup, 2)]);
        csv.row(&[
            "balance_range".into(),
            name.to_string(),
            "NE".into(),
            "hypercube(8)".into(),
            f(r.speedup, 3),
        ]);
    }
    print!("{}", t4.render());
    println!();

    // 5. keep-best.
    let mut t5 = Table::new(vec!["keep_best", "Speedup (NE, hypercube, comm)"])
        .with_title("Ablation 5: restore best-seen mapping");
    for keep_best in [true, false] {
        let cfg = SaConfig {
            keep_best,
            ..annealer.clone()
        };
        let r = run_sa(&g, &cube, CommMode::On, cfg);
        t5.row(vec![keep_best.to_string(), f(r.speedup, 2)]);
        csv.row(&[
            "keep_best".into(),
            keep_best.to_string(),
            "NE".into(),
            "hypercube(8)".into(),
            f(r.speedup, 3),
        ]);
    }
    print!("{}", t5.render());
    println!();

    // 6. Bus contention model.
    let mut t6 = Table::new(vec!["Bus model", "SA", "HLF"])
        .with_title("Ablation 6: dedicated channels vs single shared channel (NE, comm)");
    for (name, topo) in [
        ("bus(8) dedicated", bus(8)),
        ("shared_bus(8)", shared_bus(8)),
    ] {
        let rs = run_sa(&g, &topo, CommMode::On, annealer.clone());
        let rh = run_hlf(&g, &topo, CommMode::On);
        t6.row(vec![name.to_string(), f(rs.speedup, 2), f(rh.speedup, 2)]);
        csv.row(&[
            "bus_contention".into(),
            format!("{name} SA"),
            "NE".into(),
            name.to_string(),
            f(rs.speedup, 3),
        ]);
        csv.row(&[
            "bus_contention".into(),
            format!("{name} HLF"),
            "NE".into(),
            name.to_string(),
            f(rh.speedup, 3),
        ]);
    }
    print!("{}", t6.render());
    println!();

    // 7. Scheduler family across all workloads.
    let mut t7 = Table::new(vec!["Workload", "HLF", "HLF+MCT", "staged SA", "static SA"])
        .with_title("Ablation 7: scheduler family (hypercube, comm)");
    for (name, wg) in paper_workloads() {
        let rh = run_hlf(&wg, &cube, CommMode::On);
        let mut mct = ListScheduler::mct();
        let rm = simulate(
            &wg,
            &cube,
            &CommMode::On.params(),
            &mut mct,
            &CommMode::On.sim_config(),
        )
        .expect("mct run");
        let rs = run_sa(&wg, &cube, CommMode::On, annealer.clone());
        let st = static_sa(
            &wg,
            &cube,
            &CommMode::On.params(),
            &CommMode::On.sim_config(),
            &StaticSaConfig::default(),
        )
        .expect("static sa run");
        t7.row(vec![
            name.to_string(),
            f(rh.speedup, 2),
            f(rm.speedup, 2),
            f(rs.speedup, 2),
            f(st.result.speedup, 2),
        ]);
        for (variant, sp) in [
            ("hlf", rh.speedup),
            ("hlf+mct", rm.speedup),
            ("staged-sa", rs.speedup),
            ("static-sa", st.result.speedup),
        ] {
            csv.row(&[
                "scheduler_family".into(),
                variant.to_string(),
                name.to_string(),
                "hypercube(8)".into(),
                f(sp, 3),
            ]);
        }
    }
    print!("{}", t7.render());

    let path = results_dir().join("ablations.csv");
    csv.write_to(&path).expect("write csv");
    println!("\nwrote {}", path.display());
}

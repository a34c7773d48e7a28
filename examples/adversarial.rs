//! Adversarial benchmarking walkthrough: search problem space for an
//! instance on which a target scheduler loses to the portfolio best.
//!
//! The paper compares schedulers on four fixed programs; this example
//! does the opposite — it holds the schedulers fixed and *anneals the
//! program*. Starting from a random layered graph on a 4-ring, the
//! adversary applies acyclicity-preserving perturbations (edge rewires,
//! duration/communication scaling, fan-out tweaks) and keeps mutations
//! that widen the makespan gap between plain HLF (the paper's baseline,
//! which places tasks without looking at communication) and the best of
//! a communication-aware field (HEFT, MCT, CPOP, staged SA).
//!
//! Run with: `cargo run --example adversarial`

use annealsched::graph::generate::{layered_random, LayeredConfig, Range};
use annealsched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The field: HLF is the target; its rivals all price communication.
    let mut portfolio = Portfolio::new();
    portfolio.register(PortfolioEntry::new("hlf", |_, _| {
        Box::new(HlfScheduler::new())
    }));
    portfolio.register(PortfolioEntry::new("heft", |_, _| {
        Box::new(ListScheduler::heft())
    }));
    portfolio.register(PortfolioEntry::new("hlf-mct", |_, _| {
        Box::new(ListScheduler::mct())
    }));
    portfolio.register(PortfolioEntry::new("cpop", |_, _| {
        Box::new(ListScheduler::cpop())
    }));
    portfolio.register(PortfolioEntry::new("sa", |_, seed| {
        Box::new(SaScheduler::new(SaConfig::default().with_seed(seed)))
    }));

    // Seed instance: a moderately communication-heavy layered program.
    let mut rng = StdRng::seed_from_u64(2);
    let graph = layered_random(
        &LayeredConfig {
            layers: 4,
            width: 5,
            edge_prob: 0.35,
            load: Range::new(us(5.0), us(40.0)),
            comm: Range::new(us(2.0), us(10.0)),
        },
        &mut rng,
    );
    let seed_instance = ArenaInstance::new("seed", graph, ring(4));

    let cfg = AdversaryConfig {
        iterations: 25,
        moves_per_temp: 3,
        seed: 7,
        ..AdversaryConfig::new("hlf")
    };
    let before = makespan_ratio(&portfolio, "hlf", &seed_instance, cfg.seed, 0).unwrap();
    println!(
        "seed instance : hlf {:.1}us vs best rival {} {:.1}us  (ratio {:.4})",
        as_us(before.target_makespan),
        before.best_rival,
        as_us(before.best_rival_makespan),
        before.ratio,
    );

    let out = adversarial_search(&portfolio, &seed_instance, &cfg).unwrap();
    println!(
        "after {} candidate instances, best-so-far ratio per step:",
        out.evaluations
    );
    for (k, r) in out.trajectory.iter().enumerate() {
        if k % 5 == 0 || k + 1 == out.trajectory.len() {
            println!("  step {k:>3}: {r:.4}");
        }
    }
    println!(
        "adversarial   : hlf {:.1}us vs best rival {} {:.1}us  (ratio {:.4})",
        as_us(out.best.target_makespan),
        out.best.best_rival,
        as_us(out.best.best_rival_makespan),
        out.best.ratio,
    );

    // Under this fixed seed the search must produce a concrete instance
    // where the target demonstrably trails the portfolio best.
    assert!(
        out.best.ratio > 1.0,
        "expected an instance where hlf loses, got ratio {:.4}",
        out.best.ratio
    );
    assert!(out.best.ratio >= out.initial.ratio);

    // The found instance slots straight back into a tournament.
    let adversarial = out.instance(&seed_instance, "adversarial");
    let result = run_tournament(
        &portfolio,
        &[seed_instance, adversarial],
        &TournamentConfig::default(),
    )
    .unwrap();
    println!("\nhead-to-head on [seed, adversarial]:");
    print!("{}", result.to_csv().as_str());
    println!(
        "\nhlf is beaten by {:.1}% on the adversarial instance",
        (out.best.ratio - 1.0) * 100.0
    );
}

//! End-to-end arena tests: full-registry tournaments are reproducible
//! byte-for-byte, a one-shard campaign is the same tournament, and the
//! adversarial loop closes (search → instance → tournament).

use anneal_arena::{
    adversarial_search, campaign_instances, run_shard, run_shard_observed, run_tournament,
    run_tournament_observed, smoke_instances, standard_instances, AdversaryConfig, CampaignConfig,
    Portfolio, TournamentConfig,
};
use anneal_obs::NullClock;

#[test]
fn full_registry_tournament_is_byte_reproducible() {
    let portfolio = Portfolio::standard();
    let instances = standard_instances(9, 3);
    let run = |threads: usize| {
        run_tournament(
            &portfolio,
            &instances,
            &TournamentConfig {
                base_seed: 9,
                max_threads: threads,
            },
        )
        .unwrap()
    };
    let a = run(0);
    let b = run(2);
    assert_eq!(a.to_csv().as_str(), b.to_csv().as_str());
    assert_eq!(a.win_loss_svg(), b.win_loss_svg());
    // sanity: the matrix is fully populated with real schedules
    assert_eq!(a.makespans.len(), portfolio.len());
    assert!(a.makespans.iter().flatten().all(|&m| m > 0));
}

/// Tournaments and campaign shards seed cell (entry `e`, column `j`)
/// with `cell_seed(base_seed, e, j)`, `j` the global instance index. A
/// tournament over the campaign family is therefore a one-shard
/// campaign: the same cells, stored transposed, with the same
/// deterministic metrics.
#[test]
fn one_shard_campaign_is_the_tournament_transposed() {
    let portfolio = Portfolio::standard();
    let (seed, n) = (5, 4);
    let tcfg = TournamentConfig {
        base_seed: seed,
        max_threads: 0,
    };
    let ccfg = CampaignConfig {
        instances: n,
        shards: 1,
        base_seed: seed,
        max_threads: 0,
    };
    let instances = campaign_instances(seed, n);
    let t = run_tournament(&portfolio, &instances, &tcfg).unwrap();
    let shard = run_shard(&portfolio, &ccfg, 0).unwrap();
    assert_eq!(shard.schedulers, t.schedulers);
    assert_eq!(shard.instances, t.instances);
    assert_eq!(shard.columns, (0..n).collect::<Vec<_>>());
    let transposed: Vec<Vec<u64>> = (0..n)
        .map(|j| t.makespans.iter().map(|row| row[j]).collect())
        .collect();
    assert_eq!(shard.makespans, transposed);

    let (_, treg) = run_tournament_observed(&portfolio, &instances, &tcfg, &NullClock).unwrap();
    let (_, obs) = run_shard_observed(&portfolio, &ccfg, 0, &NullClock).unwrap();
    let det = treg.deterministic_only();
    assert_eq!(det, obs.registry.deterministic_only());
    assert_eq!(det.counter("arena.cells"), (portfolio.len() * n) as u64);
}

#[test]
fn adversarial_instance_feeds_back_into_a_tournament() {
    let portfolio = Portfolio::fast();
    let seed_instance = &smoke_instances(14)[0];
    let cfg = AdversaryConfig {
        iterations: 5,
        moves_per_temp: 2,
        seed: 3,
        max_threads: 1,
        ..AdversaryConfig::new("fifo")
    };
    let out = adversarial_search(&portfolio, seed_instance, &cfg).unwrap();
    assert!(out.best.ratio >= out.initial.ratio);
    assert_eq!(out.graph.num_tasks(), seed_instance.graph.num_tasks());

    // The reported best ratio is reproducible from the returned graph…
    let adversarial = out.instance(seed_instance, "adversarial");
    let again =
        anneal_arena::makespan_ratio(&portfolio, "fifo", &adversarial, cfg.seed, 0).unwrap();
    assert_eq!(again.ratio, out.best.ratio);

    // …and the instance drops straight into a tournament next to its
    // seed (cell seeds differ from the search's, so only shape is
    // asserted here).
    let insts = vec![seed_instance.clone(), adversarial];
    let t = run_tournament(&portfolio, &insts, &TournamentConfig::default()).unwrap();
    assert_eq!(t.instances, vec!["layered-ring4", "adversarial"]);
    assert!(t.schedulers.iter().any(|s| s == "fifo"));
}

//! Property-based tests for the task-graph substrate.

use anneal_graph::critical_path::{critical_path, critical_path_length, max_speedup};
use anneal_graph::generate::{gnp_dag, layered_random, LayeredConfig, Range};
use anneal_graph::levels::{alap_starts, bottom_levels, co_levels, slacks, top_levels};
use anneal_graph::textio::{from_text, to_text};
use anneal_graph::topo::is_topological_order;
use anneal_graph::TaskGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random DAG described by (seed, n, p, style).
fn arb_dag() -> impl Strategy<Value = TaskGraph> {
    (any::<u64>(), 1usize..40, 0.0f64..1.0, 0u8..2).prop_map(|(seed, n, p, style)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match style {
            0 => gnp_dag(n, p, Range::new(1, 1_000), Range::new(0, 500), &mut rng),
            _ => {
                let cfg = LayeredConfig {
                    layers: 1 + n % 6,
                    width: 1 + n / 6,
                    edge_prob: p,
                    load: Range::new(1, 1_000),
                    comm: Range::new(0, 500),
                };
                layered_random(&cfg, &mut rng)
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_topo_order_is_valid(g in arb_dag()) {
        prop_assert!(is_topological_order(&g, g.topo_order()));
    }

    #[test]
    fn bottom_levels_dominate_successors(g in arb_dag()) {
        let bl = bottom_levels(&g);
        for (a, b, _) in g.edges() {
            // n_a = r_a + max(...) >= r_a + n_b > n_b (loads >= 1 here).
            prop_assert!(bl[a.index()] > bl[b.index()]);
            prop_assert!(bl[a.index()] >= g.load(a) + bl[b.index()]);
        }
        // Every level is at least the task's own load.
        for t in g.tasks() {
            prop_assert!(bl[t.index()] >= g.load(t));
        }
    }

    #[test]
    fn critical_path_consistency(g in arb_dag()) {
        let cp = critical_path_length(&g);
        let bl = bottom_levels(&g);
        prop_assert_eq!(cp, bl.iter().copied().max().unwrap());
        // The extracted path is a real chain whose loads sum to cp.
        let path = critical_path(&g);
        prop_assert!(!path.is_empty());
        let sum: u64 = path.iter().map(|&t| g.load(t)).sum();
        prop_assert_eq!(sum, cp);
        for w in path.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
        // cp also equals max over roots of bottom level.
        let root_max = g.roots().iter().map(|&r| bl[r.index()]).max().unwrap();
        prop_assert_eq!(cp, root_max);
    }

    #[test]
    fn top_plus_bottom_bounded_by_cp(g in arb_dag()) {
        let cp = critical_path_length(&g);
        let tl = top_levels(&g);
        let bl = bottom_levels(&g);
        for t in g.tasks() {
            prop_assert!(tl[t.index()] + bl[t.index()] <= cp);
        }
    }

    #[test]
    fn slack_zero_iff_on_critical_path(g in arb_dag()) {
        let cp = critical_path_length(&g);
        let tl = top_levels(&g);
        let bl = bottom_levels(&g);
        let sl = slacks(&g);
        let al = alap_starts(&g);
        for t in g.tasks() {
            prop_assert_eq!(sl[t.index()] == 0, tl[t.index()] + bl[t.index()] == cp);
            prop_assert_eq!(al[t.index()], cp - bl[t.index()]);
        }
    }

    #[test]
    fn max_speedup_bounds(g in arb_dag()) {
        let s = max_speedup(&g);
        prop_assert!(s >= 1.0 - 1e-12);
        prop_assert!(s <= g.num_tasks() as f64 + 1e-9);
    }

    #[test]
    fn co_levels_increase_along_edges(g in arb_dag()) {
        let cl = co_levels(&g);
        for (a, b, _) in g.edges() {
            prop_assert!(cl[a.index()] < cl[b.index()]);
        }
    }

    #[test]
    fn text_roundtrip(g in arb_dag()) {
        let h = from_text(&to_text(&g)).unwrap();
        prop_assert_eq!(h.num_tasks(), g.num_tasks());
        prop_assert_eq!(h.loads(), g.loads());
        let eg: Vec<_> = g.edges().collect();
        let eh: Vec<_> = h.edges().collect();
        prop_assert_eq!(eg, eh);
    }

    #[test]
    fn total_work_is_load_sum(g in arb_dag()) {
        let sum: u64 = g.loads().iter().sum();
        prop_assert_eq!(g.total_work(), sum);
    }

    #[test]
    fn degree_sums_match_edge_count(g in arb_dag()) {
        let out: usize = g.tasks().map(|t| g.out_degree(t)).sum();
        let inn: usize = g.tasks().map(|t| g.in_degree(t)).sum();
        prop_assert_eq!(out, g.num_edges());
        prop_assert_eq!(inn, g.num_edges());
    }
}

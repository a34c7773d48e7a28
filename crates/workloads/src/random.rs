//! Random-graph populations for statistical experiments.
//!
//! The paper cites Adam, Chandy & Dickinson's comparison of list
//! schedules over 900 random task graphs (HLF within 5 % of optimal in
//! all but one case) and reports that SA matches or beats HLF without
//! communication. These presets generate comparable populations with
//! reproducible seeds.

use anneal_graph::generate::{gnp_dag, layered_random, LayeredConfig, Range};
use anneal_graph::TaskGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Preset describing a random-graph population.
#[derive(Debug, Clone)]
pub struct Population {
    /// Base RNG seed; instance `i` uses `seed + i`.
    pub seed: u64,
    /// Number of instances.
    pub count: usize,
    /// Kind of graphs to draw.
    pub kind: PopulationKind,
}

/// Shape family of a random population.
#[derive(Debug, Clone)]
pub enum PopulationKind {
    /// Layered DAGs (`layers × width`, edge probability between layers).
    Layered {
        /// Number of layers.
        layers: usize,
        /// Tasks per layer.
        width: usize,
        /// Inter-layer edge probability.
        edge_prob: f64,
    },
    /// Erdős–Rényi DAGs on `n` nodes with edge probability `p`.
    Gnp {
        /// Number of tasks.
        n: usize,
        /// Edge probability.
        p: f64,
    },
}

impl Population {
    /// The Adam-et-al-style survey population: small layered graphs
    /// (8–20 tasks) suitable for exact branch-and-bound comparison.
    pub fn survey_small(seed: u64, count: usize) -> Self {
        Population {
            seed,
            count,
            kind: PopulationKind::Layered {
                layers: 4,
                width: 4,
                edge_prob: 0.4,
            },
        }
    }

    /// Generates instance `i` of the population.
    pub fn instance(&self, i: usize) -> TaskGraph {
        assert!(i < self.count, "instance index out of range");
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(i as u64));
        let load = Range::new(2_000, 120_000);
        let comm = Range::new(1_000, 20_000);
        match &self.kind {
            PopulationKind::Layered {
                layers,
                width,
                edge_prob,
            } => layered_random(
                &LayeredConfig {
                    layers: *layers,
                    width: *width,
                    edge_prob: *edge_prob,
                    load,
                    comm,
                },
                &mut rng,
            ),
            PopulationKind::Gnp { n, p } => gnp_dag(*n, *p, load, comm, &mut rng),
        }
    }

    /// Iterator over all instances.
    pub fn instances(&self) -> impl Iterator<Item = TaskGraph> + '_ {
        (0..self.count).map(|i| self.instance(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survey_small_sizes() {
        let p = Population::survey_small(42, 5);
        for g in p.instances() {
            assert_eq!(g.num_tasks(), 16);
        }
    }

    #[test]
    fn instances_differ_but_reproduce() {
        let p = Population::survey_small(7, 3);
        let g0a = p.instance(0);
        let g0b = p.instance(0);
        let g1 = p.instance(1);
        assert_eq!(g0a.loads(), g0b.loads());
        assert_ne!(g0a.loads(), g1.loads());
    }

    #[test]
    fn gnp_population() {
        let p = Population {
            seed: 1,
            count: 2,
            kind: PopulationKind::Gnp { n: 12, p: 0.3 },
        };
        for g in p.instances() {
            assert_eq!(g.num_tasks(), 12);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn instance_bounds_checked() {
        Population::survey_small(1, 2).instance(5);
    }
}

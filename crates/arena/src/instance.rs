//! Benchmark instances: a task graph bound to a host architecture.

use anneal_graph::generate::{
    chain, fork_join, gnp_dag, layered_random, series_parallel, LayeredConfig, Range,
};
use anneal_graph::units::us;
use anneal_graph::TaskGraph;
use anneal_sim::SimConfig;
use anneal_topology::builders::{bus, hypercube, linear, mesh, ring};
use anneal_topology::{CommParams, Topology};
use anneal_workloads::paper_workloads;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One cell column of a tournament: a program, the machine it runs on
/// and the communication model.
#[derive(Debug, Clone)]
pub struct ArenaInstance {
    /// Display name (CSV column / SVG header).
    pub name: String,
    /// The program.
    pub graph: TaskGraph,
    /// The host architecture.
    pub topology: Topology,
    /// Communication overheads.
    pub params: CommParams,
    /// Engine configuration.
    pub sim_cfg: SimConfig,
}

impl ArenaInstance {
    /// Creates an instance with the paper's communication model and the
    /// default engine configuration.
    pub fn new(name: impl Into<String>, graph: TaskGraph, topology: Topology) -> Self {
        ArenaInstance {
            name: name.into(),
            graph,
            topology,
            params: CommParams::paper(),
            sim_cfg: SimConfig::default(),
        }
    }

    /// Replaces the communication parameters.
    pub fn with_params(mut self, params: CommParams) -> Self {
        self.params = params;
        self
    }
}

/// A deterministic family of `count` small synthetic instances rotating
/// through graph shapes (layered, G(n,p), fork-join, series-parallel,
/// chain) and host architectures (hypercube, ring, bus, mesh, linear).
/// Instance `i` depends only on `(seed, i)`, so growing `count` extends
/// the family without changing earlier instances.
pub fn standard_instances(seed: u64, count: usize) -> Vec<ArenaInstance> {
    let load = Range::new(us(2.0), us(60.0));
    let comm = Range::new(us(0.5), us(12.0));
    (0..count)
        .map(|i| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)));
            let g = match i % 5 {
                0 => layered_random(
                    &LayeredConfig {
                        layers: 4,
                        width: 6,
                        edge_prob: 0.35,
                        load,
                        comm,
                    },
                    &mut rng,
                ),
                1 => gnp_dag(24, 0.18, load, comm, &mut rng),
                2 => fork_join(10, load, comm, &mut rng),
                3 => series_parallel(12, load, comm, &mut rng),
                _ => chain(16, load, comm, &mut rng),
            };
            let (topo, tname): (Topology, &str) = match i % 4 {
                0 => (hypercube(3), "hc8"),
                1 => (ring(5), "ring5"),
                2 => (bus(4), "bus4"),
                _ => (mesh(3, 2), "mesh3x2"),
            };
            let shape = ["layered", "gnp", "forkjoin", "sp", "chain"][i % 5];
            ArenaInstance::new(format!("{shape}{i}-{tname}"), g, topo)
        })
        .collect()
}

/// The paper's four benchmark programs on the paper's 8-processor
/// hypercube, plus Newton-Euler on a 9-ring (its hardest Table-2 row).
pub fn paper_instances() -> Vec<ArenaInstance> {
    let mut out: Vec<ArenaInstance> = paper_workloads()
        .into_iter()
        .map(|(name, g)| ArenaInstance::new(format!("{name}-hc8"), g, hypercube(3)))
        .collect();
    let ne = anneal_workloads::ne_paper();
    out.push(ArenaInstance::new("NE-ring9", ne, ring(9)));
    out
}

/// A tiny two-instance family for smoke tests and CI: a 12-task layered
/// graph on a 4-ring and an 8-task fork-join on a 3-processor line.
pub fn smoke_instances(seed: u64) -> Vec<ArenaInstance> {
    let load = Range::new(us(2.0), us(30.0));
    let comm = Range::new(us(1.0), us(8.0));
    let mut rng = StdRng::seed_from_u64(seed);
    let g1 = layered_random(
        &LayeredConfig {
            layers: 3,
            width: 4,
            edge_prob: 0.4,
            load,
            comm,
        },
        &mut rng,
    );
    let g2 = fork_join(6, load, comm, &mut rng);
    vec![
        ArenaInstance::new("layered-ring4", g1, ring(4)),
        ArenaInstance::new("forkjoin-lin3", g2, linear(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_family_is_deterministic_and_stable_under_growth() {
        let a = standard_instances(3, 6);
        let b = standard_instances(3, 6);
        let longer = standard_instances(3, 8);
        assert_eq!(a.len(), 6);
        for ((x, y), z) in a.iter().zip(&b).zip(&longer) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph.loads(), y.graph.loads());
            assert_eq!(x.name, z.name, "prefix must not change when count grows");
            assert_eq!(x.graph.loads(), z.graph.loads());
        }
        // different seeds give different programs
        let c = standard_instances(4, 6);
        assert_ne!(a[0].graph.loads(), c[0].graph.loads());
    }

    #[test]
    fn paper_family_shapes() {
        let insts = paper_instances();
        assert_eq!(insts.len(), 5);
        assert_eq!(insts[0].graph.num_tasks(), 95); // NE
        assert_eq!(insts[4].topology.num_procs(), 9);
    }

    #[test]
    fn smoke_family_is_small() {
        let insts = smoke_instances(1);
        assert_eq!(insts.len(), 2);
        assert!(insts.iter().all(|i| i.graph.num_tasks() <= 12));
    }
}

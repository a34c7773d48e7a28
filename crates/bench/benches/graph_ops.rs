//! Graph-substrate operations: level computation and critical path on
//! workload- and stress-sized DAGs.

use anneal_graph::critical_path::{critical_path, critical_path_length};
use anneal_graph::generate::{layered_random, LayeredConfig, Range};
use anneal_graph::levels::{bottom_levels, top_levels};
use anneal_graph::TaskGraph;
use anneal_workloads::ne_paper;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn stress_graph(layers: usize, width: usize) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(3);
    layered_random(
        &LayeredConfig {
            layers,
            width,
            edge_prob: 0.25,
            load: Range::new(1_000, 100_000),
            comm: Range::new(0, 10_000),
        },
        &mut rng,
    )
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_ops");
    let graphs = [
        ("ne_95", ne_paper()),
        ("layered_1k", stress_graph(25, 40)),
        ("layered_10k", stress_graph(100, 100)),
    ];
    for (name, g) in &graphs {
        group.bench_with_input(BenchmarkId::new("bottom_levels", name), g, |b, g| {
            b.iter(|| black_box(bottom_levels(g)))
        });
        group.bench_with_input(BenchmarkId::new("top_levels", name), g, |b, g| {
            b.iter(|| black_box(top_levels(g)))
        });
        group.bench_with_input(BenchmarkId::new("critical_path", name), g, |b, g| {
            b.iter(|| {
                black_box(critical_path_length(g));
                black_box(critical_path(g))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);

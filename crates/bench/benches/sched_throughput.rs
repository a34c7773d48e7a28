//! Scheduling throughput: wall time of a full schedule-and-simulate run
//! for SA (the default lane, named in the benchmark id) vs HLF across
//! the paper workloads on the hypercube.

use anneal_bench::{run_hlf, run_sa, CommMode};
use anneal_core::SaConfig;
use anneal_topology::builders::hypercube;
use anneal_workloads::paper_workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_schedulers(c: &mut Criterion) {
    let host = hypercube(3);
    let mut group = c.benchmark_group("sched_throughput");
    for (name, g) in paper_workloads() {
        group.bench_with_input(BenchmarkId::new("hlf", name), &g, |b, g| {
            b.iter(|| run_hlf(g, &host, CommMode::On))
        });
        let sa = SaConfig::default();
        let id = BenchmarkId::new(format!("sa-{}", sa.lane), name);
        group.bench_with_input(id, &g, |b, g| {
            b.iter(|| run_sa(g, &host, CommMode::On, sa.clone()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);

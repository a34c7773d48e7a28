//! Settling one packet, the paper's inner optimization, across packet
//! shapes (the NE average is ~15 candidates for ~1.5 idle processors;
//! MM packets reach 100 candidates), on both SA lanes. Both rows read
//! one `AnnealingPacket` through one `CostModel`, built outside the
//! timed loop: `exact` times the paper-literal annealing loop
//! (`anneal_packet`, the oracle), and `turbo-solve` times the
//! production lane's exact assignment solve (`SaScratch::solve`: tie
//! shuffle, cost matrix from the packet's tables, solve, pricing of the
//! solved mapping), which replaces annealing. Loading the packet from
//! an epoch is untimed here; `sched_throughput` times it inside whole
//! schedule-and-simulate runs.

use anneal_core::annealer::{anneal_packet, AnnealParams};
use anneal_core::cost::{BalanceRange, CostModel};
use anneal_core::packet::AnnealingPacket;
use anneal_core::{CounterRng, SaScratch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn synthetic_packet(tasks: usize, procs: usize, seed: u64) -> AnnealingPacket {
    let mut rng = StdRng::seed_from_u64(seed);
    let levels: Vec<u64> = (0..tasks).map(|_| rng.gen_range(1_000..500_000)).collect();
    let comm_cost: Vec<Vec<u64>> = (0..tasks)
        .map(|_| (0..procs).map(|_| rng.gen_range(0..60_000)).collect())
        .collect();
    AnnealingPacket::from_rows(&levels, &comm_cost)
}

fn bench_anneal(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_anneal");
    for (tasks, procs) in [(2, 2), (15, 2), (15, 8), (100, 8)] {
        let packet = synthetic_packet(tasks, procs, 1);
        let cm = CostModel::new(&packet, 0.5, 0.5, BalanceRange::Full);
        group.bench_function(BenchmarkId::new("exact", format!("{tasks}x{procs}")), |b| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                black_box(anneal_packet(
                    &cm,
                    &AnnealParams::default(),
                    &mut rng,
                    false,
                ))
            })
        });
        group.bench_function(
            BenchmarkId::new("turbo-solve", format!("{tasks}x{procs}")),
            |b| {
                let mut scratch = SaScratch::new();
                let mut packet_idx = 0u64;
                b.iter(|| {
                    let mut rng = CounterRng::new(7, packet_idx);
                    packet_idx += 1;
                    black_box(scratch.solve(&cm, &mut rng, false))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_anneal);
criterion_main!(benches);

//! Cost-function evaluation: incremental move deltas vs full
//! recomputation, across packet sizes — the SA inner loop's hot path.

use anneal_core::cost::{BalanceRange, CostModel};
use anneal_core::mapping::PacketMapping;
use anneal_core::packet::AnnealingPacket;
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

fn bench_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_eval");
    for (tasks, procs) in [(15, 8), (64, 8), (256, 16)] {
        let packet = synthetic_packet(tasks, procs, 9);
        let cm = CostModel::new(&packet, 0.5, 0.5, BalanceRange::Full);
        let mut m = PacketMapping::new(tasks, procs);
        m.saturate_in_order();
        let mut rng = StdRng::seed_from_u64(4);
        let moves: Vec<_> = (0..256)
            .filter_map(|_| {
                let t = rng.gen_range(0..tasks);
                let p = rng.gen_range(0..procs);
                m.propose(t, p)
            })
            .collect();

        group.bench_with_input(
            BenchmarkId::new("delta_x256", format!("{tasks}x{procs}")),
            &moves,
            |b, moves| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for &mv in moves {
                        let (dfb, dfc) = cm.delta(mv);
                        acc += dfb + dfc;
                    }
                    black_box(acc)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("full", format!("{tasks}x{procs}")),
            &m,
            |b, m| {
                b.iter(|| {
                    let (fb, fc) = cm.raw_full(black_box(m).assignments());
                    black_box(cm.total(fb, fc))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cost);
criterion_main!(benches);

//! Property-based tests for the counter-based RNG streams
//! (`anneal_core::rng_stream`) the turbo SA lane runs on.
//!
//! Three properties carry the turbo lane's correctness argument:
//!
//! * **Reproducibility** — a stream is a pure function of
//!   `(seed, packet, k)`: the incremental [`CounterRng`] must
//!   reproduce the pure [`stream_draw`] form exactly, from any
//!   starting point, under any interleaving of
//!   `next_u64`/`next_u32`/`fill_bytes`.
//! * **Stream independence** — distinct `(seed, packet)` streams must
//!   be unrelated: neighboring packets (the case every staged-SA run
//!   exercises) may not produce correlated draws.
//! * **Uniformity smoke** — the SplitMix64 finalizer is a studied
//!   generator, so these are smoke bounds (bit balance, mean of the
//!   53-bit unit floats), not a statistical test battery: they catch a
//!   broken mixing constant or a truncated counter, not subtle bias.

use anneal_core::{stream_draw, CounterRng};
use proptest::prelude::*;
use rand::RngCore;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental generator reproduces the pure counter function
    /// for any stream and any draw count.
    #[test]
    fn counter_rng_replays_the_pure_stream(
        seed in any::<u64>(),
        packet in any::<u64>(),
        draws in 1usize..300,
    ) {
        let mut rng = CounterRng::new(seed, packet);
        for k in 0..draws {
            prop_assert_eq!(rng.next_u64(), stream_draw(seed, packet, k as u64));
        }
        prop_assert_eq!(rng.draws(), draws as u64);
    }

    /// Two generators on the same stream agree under different
    /// interleavings of the `RngCore` surface (`next_u32` and
    /// `fill_bytes` both consume whole `next_u64` draws).
    #[test]
    fn rng_core_surface_is_a_view_of_one_stream(
        seed in any::<u64>(),
        packet in any::<u64>(),
        ops in prop::collection::vec(0u8..3, 1..40),
    ) {
        let mut rng = CounterRng::new(seed, packet);
        let mut k = 0u64;
        for op in ops {
            match op {
                0 => {
                    prop_assert_eq!(rng.next_u64(), stream_draw(seed, packet, k));
                    k += 1;
                }
                1 => {
                    let expect = (stream_draw(seed, packet, k) >> 32) as u32;
                    prop_assert_eq!(rng.next_u32(), expect);
                    k += 1;
                }
                _ => {
                    let mut buf = [0u8; 12];
                    rng.fill_bytes(&mut buf);
                    let w1 = stream_draw(seed, packet, k).to_le_bytes();
                    let w2 = stream_draw(seed, packet, k + 1).to_le_bytes();
                    prop_assert_eq!(&buf[..8], &w1);
                    prop_assert_eq!(&buf[8..], &w2[..4]);
                    k += 2;
                }
            }
        }
    }

    /// Neighboring packet streams of the same seed — the pairing every
    /// staged-SA run produces — share no draws in a prefix and differ
    /// in roughly half their bits (full-avalanche bases, not a small
    /// offset).
    #[test]
    fn neighboring_packet_streams_are_unrelated(
        seed in any::<u64>(),
        packet in 0u64..1_000_000,
    ) {
        let n = 256u64;
        let mut differing_bits = 0u32;
        for k in 0..n {
            let a = stream_draw(seed, packet, k);
            let b = stream_draw(seed, packet + 1, k);
            prop_assert_ne!(a, b);
            differing_bits += (a ^ b).count_ones();
        }
        // Mean Hamming distance for independent u64s is 32 bits with
        // sigma ≈ 4/sqrt(256) = 0.25 over the sample mean; 8 sigma.
        let mean = f64::from(differing_bits) / n as f64;
        prop_assert!((mean - 32.0).abs() < 2.0, "mean Hamming distance {mean}");
    }

    /// Same-packet streams of neighboring seeds are equally unrelated
    /// (a campaign sweeps seeds at fixed packet indices).
    #[test]
    fn neighboring_seed_streams_are_unrelated(
        seed in any::<u64>(),
        packet in any::<u64>(),
    ) {
        let n = 256u64;
        let mut differing_bits = 0u32;
        for k in 0..n {
            let a = stream_draw(seed, packet, k);
            let b = stream_draw(seed.wrapping_add(1), packet, k);
            prop_assert_ne!(a, b);
            differing_bits += (a ^ b).count_ones();
        }
        let mean = f64::from(differing_bits) / n as f64;
        prop_assert!((mean - 32.0).abs() < 2.0, "mean Hamming distance {mean}");
    }

    /// Uniformity smoke over one stream: every bit position is set in
    /// roughly half the draws, and the unit-interval projection
    /// `(u >> 11) / 2^53` has mean ≈ 0.5.
    #[test]
    fn stream_prefix_passes_uniformity_smoke(
        seed in any::<u64>(),
        packet in any::<u64>(),
    ) {
        const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
        let n = 4096u64;
        let mut bit_counts = [0u32; 64];
        let mut unit_sum = 0.0f64;
        for k in 0..n {
            let v = stream_draw(seed, packet, k);
            for (bit, count) in bit_counts.iter_mut().enumerate() {
                *count += ((v >> bit) & 1) as u32;
            }
            unit_sum += (v >> 11) as f64 * UNIT;
        }
        // Per-bit: Binomial(4096, 1/2), sigma = 32; allow 6 sigma.
        for (bit, &count) in bit_counts.iter().enumerate() {
            let dev = (f64::from(count) - 2048.0).abs();
            prop_assert!(dev < 192.0, "bit {bit} set {count}/4096 times");
        }
        // Mean of 4096 U(0,1): sigma ≈ 0.0045; allow 6 sigma.
        let mean = unit_sum / n as f64;
        prop_assert!((mean - 0.5).abs() < 0.027, "unit mean {mean}");
    }
}

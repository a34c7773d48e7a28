//! Property tests for the registry merge algebra.
//!
//! The campaign driver's invariance ("non-timing metrics are identical
//! across re-sharding and resume") reduces to three algebraic laws of
//! [`MetricsRegistry::merge`]: it must be associative, commutative,
//! and must make any sharded replay of an observation stream collapse
//! to the unsharded replay. These tests pin the laws on randomized
//! streams, including the JSONL round trip every shard's metrics
//! artifact actually takes.

use anneal_obs::{JsonlSink, MetricsRegistry, Recorder};
use proptest::prelude::*;

/// One observation: `kind` selects the instrument (and with it the
/// key, so no key ever mixes instruments), `v` is the value.
type Op = (u8, u64);

const COUNTER_KEYS: [&str; 2] = ["arena.cells", "sim.kernel.events"];
const GAUGE_KEYS: [&str; 2] = ["sim.kernel.heap_hwm", "sa.trace.max_samples"];
const HIST_KEYS: [&str; 2] = ["arena.makespan_ns", "time.cell_ns"];

fn apply(reg: &mut MetricsRegistry, ops: &[Op]) {
    for &(kind, v) in ops {
        let slot = (kind >> 2) as usize % 2;
        match kind % 3 {
            0 => reg.add(COUNTER_KEYS[slot], v % 1000),
            1 => reg.hwm(GAUGE_KEYS[slot], v),
            _ => reg.observe(HIST_KEYS[slot], v),
        }
    }
}

fn replay(ops: &[Op]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    apply(&mut reg, ops);
    reg
}

/// Canonical form for equality: `to_json` renders keys in sorted order
/// with every bucket, so byte equality is registry equality.
fn canon(reg: &MetricsRegistry) -> String {
    reg.to_json()
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(A, B) == merge(B, A).
    #[test]
    fn merge_is_commutative(a in arb_ops(), b in arb_ops()) {
        let (ra, rb) = (replay(&a), replay(&b));
        let mut ab = replay(&a);
        ab.merge(&rb);
        let mut ba = replay(&b);
        ba.merge(&ra);
        prop_assert_eq!(canon(&ab), canon(&ba));
    }

    /// (A + B) + C == A + (B + C).
    #[test]
    fn merge_is_associative(a in arb_ops(), b in arb_ops(), c in arb_ops()) {
        let (rb, rc) = (replay(&b), replay(&c));
        let mut left = replay(&a);
        left.merge(&rb);
        left.merge(&rc);
        let mut bc = replay(&b);
        bc.merge(&rc);
        let mut right = replay(&a);
        right.merge(&bc);
        prop_assert_eq!(canon(&left), canon(&right));
    }

    /// Splitting one observation stream into shards at *any* boundary
    /// and merging the per-shard registries reproduces the unsharded
    /// replay — the law the campaign's re-sharding and resume
    /// invariance rests on.
    #[test]
    fn merge_is_reshard_invariant(ops in arb_ops(), cut_a in 0u64..48, cut_b in 0u64..48) {
        let whole = replay(&ops);
        for cuts in [[cut_a, cut_b], [cut_b, cut_a]] {
            let mut i = cuts[0] as usize % (ops.len() + 1);
            let mut j = cuts[1] as usize % (ops.len() + 1);
            if i > j {
                std::mem::swap(&mut i, &mut j);
            }
            let mut merged = replay(&ops[..i]);
            merged.merge(&replay(&ops[i..j]));
            merged.merge(&replay(&ops[j..]));
            prop_assert_eq!(canon(&merged), canon(&whole));
        }
    }

    /// The multi-process path — each shard serialized to JSONL, the
    /// parent merging the files — is equivalent to in-process merge.
    #[test]
    fn jsonl_round_trip_matches_in_process_merge(ops in arb_ops(), cut in 0u64..48) {
        let i = cut as usize % (ops.len() + 1);
        let whole = replay(&ops);
        let mut merged = MetricsRegistry::new();
        for shard in [&ops[..i], &ops[i..]] {
            let mut sink = JsonlSink::new();
            replay(shard).write_jsonl(&mut sink);
            let consumed = merged.merge_jsonl(sink.as_str()).expect("well-formed jsonl");
            prop_assert_eq!(consumed, replay(shard).len());
        }
        prop_assert_eq!(canon(&merged), canon(&whole));
    }
}

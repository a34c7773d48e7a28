//! Certification by damage. Whatever a kill or bit rot can leave in a
//! campaign directory — a deleted artifact, a truncated one, a flipped
//! byte, a stray temp file — one `run_worker` pass restores artifacts
//! byte-identical to a fault-free pass and runs only the damaged
//! shards. A shard whose run returns an error is run once, reported,
//! and does not stop the others.

use std::cell::RefCell;
use std::path::{Path, PathBuf};

use anneal_fleet::{run_worker, seal, FleetEvent, FleetStats, ShardRunner};
use proptest::prelude::*;

const SHARDS: usize = 4;
const ALL: [usize; SHARDS] = [0, 1, 2, 3];

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fleet-damage-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A deterministic stand-in for the campaign shard runner: content is
/// a pure function of the shard index, as the real one is of the
/// campaign parameters. It logs every run, and fails on `fail`.
#[derive(Default)]
struct MockRunner {
    runs: RefCell<Vec<usize>>,
    fail: Option<usize>,
}

impl ShardRunner for MockRunner {
    fn artifact_names(&self, shard: usize) -> Vec<String> {
        vec![
            format!("shard-{shard:03}.csv"),
            format!("metrics-{shard:03}.jsonl"),
        ]
    }

    fn run(&self, shard: usize) -> Result<Vec<(String, String)>, String> {
        self.runs.borrow_mut().push(shard);
        if self.fail == Some(shard) {
            return Err(format!("shard {shard}: scheduler error"));
        }
        let mut body = String::from("instance_index,hlf,sa\n");
        for row in 0..4 {
            let i = shard * 4 + row;
            body.push_str(&format!("{i},{},{}\n", 100 + 7 * i, 90 + 5 * i));
        }
        let metrics = format!(
            "{{\"type\": \"counter\", \"key\": \"arena.cells\", \"value\": {}}}\n",
            4 * (shard + 1)
        );
        let [csv, jsonl]: [String; 2] = self.artifact_names(shard).try_into().unwrap();
        Ok(vec![(csv, seal(&body)), (jsonl, seal(&metrics))])
    }
}

/// One `run_worker` pass over every shard of `dir`: its counters, the
/// shards whose run failed, and its events.
fn pass(dir: &Path, runner: &MockRunner) -> (FleetStats, Vec<usize>, Vec<FleetEvent>) {
    let mut stats = FleetStats::default();
    let mut events = Vec::new();
    let failed = run_worker(dir, &ALL, runner, &mut stats, &mut |ev| {
        events.push(ev.clone())
    })
    .unwrap();
    (stats, failed, events)
}

fn artifact_bytes(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name} in {dir:?}: {e}"))
}

fn assert_same_artifacts(dir: &Path, clean: &Path) {
    for k in ALL {
        for name in MockRunner::default().artifact_names(k) {
            assert_eq!(
                artifact_bytes(dir, &name),
                artifact_bytes(clean, &name),
                "{name}"
            );
        }
    }
}

/// What a damage plan does to one artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    None,
    Delete,
    /// Cut 1 to all of its bytes off the tail.
    Truncate,
    /// XOR one byte with a nonzero mask.
    Flip,
    /// Leave a half-written `.{name}.tmp-<pid>` beside it, as a kill
    /// between a commit's write and its rename does.
    StrayTemp,
}

const DAMAGES: [Damage; 5] = [
    Damage::None,
    Damage::Delete,
    Damage::Truncate,
    Damage::Flip,
    Damage::StrayTemp,
];

/// Applies `damage` to artifact `name` in `dir`; `h` picks where.
fn apply(dir: &Path, name: &str, damage: Damage, h: u64) {
    let path = dir.join(name);
    let bytes = artifact_bytes(dir, name);
    let at = (h % bytes.len() as u64) as usize;
    match damage {
        Damage::None => {}
        Damage::Delete => std::fs::remove_file(&path).unwrap(),
        Damage::Truncate => std::fs::write(&path, &bytes[..at]).unwrap(),
        Damage::Flip => {
            let mut bad = bytes;
            bad[at] ^= 1 + (h >> 32) as u8 % 255;
            std::fs::write(&path, bad).unwrap();
        }
        Damage::StrayTemp => {
            // another process id than ours, so our own commits never
            // reuse the name
            let pid = std::process::id().wrapping_add(1);
            std::fs::write(dir.join(format!(".{name}.tmp-{pid}")), &bytes[..at]).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: after any mix of damage, one pass
    /// restores every artifact to the fault-free bytes, runs exactly
    /// the shards with a deleted, truncated or flipped artifact (each
    /// once, in order), and quarantines every artifact that was
    /// present but invalid. A second pass runs nothing.
    #[test]
    fn one_pass_restores_any_damage(
        plan in prop::collection::vec((0usize..DAMAGES.len(), any::<u64>()), 2 * SHARDS..2 * SHARDS + 1),
    ) {
        let clean = fresh_dir("clean");
        let (_, failed, _) = pass(&clean, &MockRunner::default());
        prop_assert!(failed.is_empty());

        let dir = fresh_dir("damaged");
        pass(&dir, &MockRunner::default());
        let mut damaged = Vec::new();
        let mut corrupt = Vec::new();
        for (i, &(kind, h)) in plan.iter().enumerate() {
            let (shard, damage) = (i / 2, DAMAGES[kind]);
            let name = MockRunner::default().artifact_names(shard).swap_remove(i % 2);
            apply(&dir, &name, damage, h);
            if matches!(damage, Damage::Truncate | Damage::Flip) {
                corrupt.push(name);
            }
            if !matches!(damage, Damage::None | Damage::StrayTemp) && damaged.last() != Some(&shard) {
                damaged.push(shard);
            }
        }

        let runner = MockRunner::default();
        let (stats, failed, _) = pass(&dir, &runner);
        prop_assert!(failed.is_empty());
        prop_assert_eq!(runner.runs.borrow().clone(), damaged.clone(), "plan {:?}", plan);
        prop_assert_eq!(stats.shards_run, damaged.len() as u64);
        prop_assert_eq!(stats.checksum_failures, corrupt.len() as u64);
        prop_assert_eq!(stats.quarantines, corrupt.len() as u64);
        for name in &corrupt {
            prop_assert!(dir.join(format!("{name}.quarantined-1")).exists(), "{}", name);
        }
        assert_same_artifacts(&dir, &clean);

        let again = MockRunner::default();
        pass(&dir, &again);
        prop_assert!(again.runs.borrow().is_empty());
        let _ = std::fs::remove_dir_all(&clean);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Corrupt artifacts are quarantined (evidence preserved) before the
/// shard is re-run, and the re-run result is pristine.
#[test]
fn corruption_is_quarantined_then_rerun() {
    let dir = fresh_dir("quarantine");
    // plant a corrupt artifact where shard 1's output belongs
    std::fs::write(dir.join("shard-001.csv"), b"instance_index,hlf,sa\ngarbage").unwrap();
    let runner = MockRunner::default();
    let (stats, failed, _) = pass(&dir, &runner);
    assert!(failed.is_empty());
    assert_eq!(stats.checksum_failures, 1);
    assert_eq!(stats.quarantines, 1);
    assert!(dir.join("shard-001.csv.quarantined-1").exists());
    let fresh = runner.run(1).unwrap().remove(0).1;
    assert_eq!(artifact_bytes(&dir, "shard-001.csv"), fresh.into_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard counts as done only when every artifact it writes is
/// valid: a missing companion and a corrupt one each make the shard
/// re-run, and the re-run commits the fault-free bytes. Shards whose
/// artifacts are intact are skipped.
#[test]
fn missing_or_corrupt_companion_reruns_its_shard() {
    let clean = fresh_dir("companion-clean");
    pass(&clean, &MockRunner::default());

    let dir = fresh_dir("companion");
    pass(&dir, &MockRunner::default());
    // shard 1 lost its metrics (a kill between the two commits, or a
    // run that did not write them); shard 2's metrics rotted
    std::fs::remove_file(dir.join("metrics-001.jsonl")).unwrap();
    let mut bytes = artifact_bytes(&dir, "metrics-002.jsonl");
    bytes[3] ^= 0x21;
    std::fs::write(dir.join("metrics-002.jsonl"), bytes).unwrap();

    let runner = MockRunner::default();
    let (stats, failed, events) = pass(&dir, &runner);
    assert!(failed.is_empty());
    assert!(matches!(
        events.first(),
        Some(FleetEvent::ShardSkipped { shard: 0 })
    ));
    assert_eq!(*runner.runs.borrow(), [1, 2], "{events:?}");
    assert_eq!(stats.shards_run, 2);
    assert_eq!(stats.quarantines, 1);
    assert!(dir.join("metrics-002.jsonl.quarantined-1").exists());
    assert_same_artifacts(&dir, &clean);
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard whose run returns an error is run exactly once and reported
/// failed, while the other shards complete.
#[test]
fn failing_shard_runs_once_and_is_reported() {
    let dir = fresh_dir("run-error");
    let runner = MockRunner {
        fail: Some(1),
        ..MockRunner::default()
    };
    let (stats, failed, events) = pass(&dir, &runner);
    assert_eq!(*runner.runs.borrow(), ALL);
    assert_eq!(failed, [1]);
    assert_eq!(stats.shards_run, 4);
    assert_eq!(stats.run_failures, 1);
    assert!(events.iter().any(|ev| matches!(
        ev,
        FleetEvent::RunFailed { shard: 1, msg } if msg.contains("scheduler error")
    )));
    assert!(!dir.join("shard-001.csv").exists());
    for k in [0, 2, 3] {
        assert!(anneal_fleet::shard_done(&dir, &runner.artifact_names(k)));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Chaos certification: for any seeded fault pattern — worker kills,
//! artifact truncation, byte corruption — a sequence of worker
//! sessions produces artifacts byte-identical to the fault-free run,
//! and the failure manifest is deterministic. A shard that exhausts its
//! retries lands in the manifest, never silently dropped, and a shard
//! with a missing or corrupt companion artifact re-runs.

use std::path::{Path, PathBuf};

use anneal_fleet::{
    read_attempts, render_report, run_worker, seal, shard_state, FaultPlan, FleetConfig,
    FleetEvent, FleetStats, KillMode, ShardReport, ShardRunner, ShardState, WorkerOutcome,
};
use anneal_obs::MetricsRegistry;
use proptest::prelude::*;

const SHARDS: usize = 3;

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fleet-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A deterministic stand-in for the campaign shard runner: content is
/// a pure function of the shard index, as the real one is of the
/// campaign parameters.
struct MockRunner;

impl ShardRunner for MockRunner {
    fn artifact_names(&self, shard: usize) -> Vec<String> {
        vec![
            format!("shard-{shard:03}.csv"),
            format!("metrics-{shard:03}.jsonl"),
        ]
    }

    fn run(&self, shard: usize) -> Result<Vec<(String, String)>, String> {
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

fn chaos_config(plan: FaultPlan) -> FleetConfig {
    FleetConfig {
        // generous so a run of unlucky (but deterministic) kill draws
        // cannot exhaust a shard in the identity property
        max_attempts: 16,
        chaos: Some(plan),
        kill_mode: KillMode::Simulate,
    }
}

/// Runs worker sessions until every shard is terminal, resuming after
/// each simulated kill — exactly what an operator's resume loop does
/// with real processes. Returns the accumulated stats and final
/// outcome.
fn run_until_terminal(dir: &Path, cfg: &FleetConfig) -> (FleetStats, WorkerOutcome) {
    let shards: Vec<usize> = (0..SHARDS).collect();
    let mut stats = FleetStats::default();
    for _session in 0..200 {
        let outcome = run_worker(dir, &shards, cfg, &MockRunner, &mut stats, &mut |_| {}).unwrap();
        match outcome {
            WorkerOutcome::Completed { .. } => return (stats, outcome),
            WorkerOutcome::Killed { .. } => continue,
        }
    }
    panic!("fleet did not reach a terminal state in 200 sessions");
}

fn manifest(dir: &Path, cfg: &FleetConfig, stats: &FleetStats) -> String {
    let reports: Vec<ShardReport> = (0..SHARDS)
        .map(|k| ShardReport {
            shard: k,
            state: shard_state(dir, k, &MockRunner.artifact_names(k), cfg.max_attempts),
            attempts: read_attempts(dir, k),
        })
        .collect();
    let mut reg = MetricsRegistry::new();
    stats.record_into(&mut reg);
    render_report(&reports, &reg)
}

fn artifact_bytes(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name} in {dir:?}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline invariant: whatever the injected failure pattern,
    /// recovery converges and every merged-input artifact is
    /// byte-identical to the fault-free run — and replaying the same
    /// fault pattern reproduces the same failure manifest, byte for
    /// byte.
    #[test]
    fn recovered_artifacts_are_byte_identical_to_fault_free(
        seed in 0u64..1_000,
        kill in 0u8..=60,
        truncate in 0u8..=60,
        corrupt in 0u8..=60,
    ) {
        let plan = FaultPlan {
            seed,
            kill_pct: kill,
            truncate_pct: truncate,
            corrupt_pct: corrupt,
            only: None,
        };
        let cfg = chaos_config(plan);

        // fault-free reference
        let clean = fresh_dir(&format!("clean-{seed}-{kill}-{truncate}-{corrupt}"));
        let clean_cfg = FleetConfig { chaos: None, ..cfg.clone() };
        let (clean_stats, clean_outcome) = run_until_terminal(&clean, &clean_cfg);
        let clean_ok = matches!(
            &clean_outcome,
            WorkerOutcome::Completed { failed, .. } if failed.is_empty()
        );
        prop_assert!(clean_ok);
        prop_assert_eq!(clean_stats.retries, 0);

        // two independent chaos runs of the same plan
        let mut manifests = Vec::new();
        for replay in 0..2 {
            let dir = fresh_dir(&format!("chaos-{replay}-{seed}-{kill}-{truncate}-{corrupt}"));
            let (stats, outcome) = run_until_terminal(&dir, &cfg);
            let chaos_ok = matches!(
                &outcome,
                WorkerOutcome::Completed { failed, .. } if failed.is_empty()
            );
            prop_assert!(chaos_ok, "replay {} did not complete cleanly", replay);
            for k in 0..SHARDS {
                prop_assert_eq!(
                    artifact_bytes(&dir, &format!("shard-{k:03}.csv")),
                    artifact_bytes(&clean, &format!("shard-{k:03}.csv")),
                    "shard {} diverged from the fault-free run", k
                );
                prop_assert_eq!(
                    artifact_bytes(&dir, &format!("metrics-{k:03}.jsonl")),
                    artifact_bytes(&clean, &format!("metrics-{k:03}.jsonl")),
                    "metrics {} diverged from the fault-free run", k
                );
            }
            manifests.push(manifest(&dir, &cfg, &stats));
            let _ = std::fs::remove_dir_all(&dir);
        }
        prop_assert_eq!(
            &manifests[0],
            &manifests[1],
            "failure manifest must be deterministic for a fixed fault pattern"
        );
        prop_assert!(manifests[0].contains("\"status\": \"ok\""));
        let _ = std::fs::remove_dir_all(&clean);
    }
}

/// A shard that fails every attempt exhausts its retries, is reported
/// `failed` in a degraded manifest, and does not block the rest of the
/// campaign.
#[test]
fn exhausted_shard_lands_in_failure_manifest() {
    let plan = FaultPlan::parse("seed=1,kill=100,only=0").unwrap();
    let cfg = FleetConfig {
        max_attempts: 2,
        ..chaos_config(plan)
    };
    let dir = fresh_dir("exhaust");
    let (stats, outcome) = run_until_terminal(&dir, &cfg);
    match &outcome {
        WorkerOutcome::Completed { done, failed } => {
            assert_eq!(failed, &vec![0]);
            assert_eq!(done, &vec![1, 2]);
        }
        other => panic!("expected completion, got {other:?}"),
    }
    assert_eq!(
        shard_state(&dir, 0, &MockRunner.artifact_names(0), 2),
        ShardState::Failed
    );
    assert_eq!(read_attempts(&dir, 0), 2);
    assert!(stats.faults[0] >= 2, "both attempts must have been killed");
    let m = manifest(&dir, &cfg, &stats);
    assert!(m.contains("\"status\": \"degraded\""));
    assert!(m.contains("\"failed\": [0]"));
    assert!(m.contains("{\"shard\": 0, \"state\": \"failed\", \"attempts\": 2}"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt artifacts are quarantined (evidence preserved) before the
/// shard is re-run, and the re-run result is pristine.
#[test]
fn corruption_is_quarantined_then_rerun() {
    let dir = fresh_dir("quarantine");
    let cfg = FleetConfig::default();
    // plant a corrupt artifact where shard 1's output belongs
    std::fs::write(dir.join("shard-001.csv"), b"instance_index,hlf,sa\ngarbage").unwrap();
    let (stats, outcome) = run_until_terminal(&dir, &cfg);
    assert!(matches!(
        &outcome,
        WorkerOutcome::Completed { failed, .. } if failed.is_empty()
    ));
    assert_eq!(stats.checksum_failures, 1);
    assert_eq!(stats.quarantines, 1);
    assert!(dir.join("shard-001.csv.quarantined-1").exists());
    // the re-run artifact matches the other shards' pristine pattern
    let fresh = MockRunner.run(1).unwrap().remove(0).1;
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
    let cfg = FleetConfig::default();
    run_until_terminal(&clean, &cfg);

    let dir = fresh_dir("companion");
    run_until_terminal(&dir, &cfg);
    // shard 1 lost its metrics (a kill between the two commits, or a
    // run that did not write them); shard 2's metrics rotted
    std::fs::remove_file(dir.join("metrics-001.jsonl")).unwrap();
    let mut bytes = artifact_bytes(&dir, "metrics-002.jsonl");
    bytes[3] ^= 0x21;
    std::fs::write(dir.join("metrics-002.jsonl"), bytes).unwrap();

    let mut stats = FleetStats::default();
    let mut events = Vec::new();
    let outcome = run_worker(&dir, &[0, 1, 2], &cfg, &MockRunner, &mut stats, &mut |ev| {
        events.push(ev.clone())
    })
    .unwrap();
    assert_eq!(
        outcome,
        WorkerOutcome::Completed {
            done: vec![0, 1, 2],
            failed: vec![]
        }
    );
    assert!(matches!(
        events.first(),
        Some(FleetEvent::ShardSkipped { shard: 0 })
    ));
    assert_eq!(stats.shards_run, 2, "shards 1 and 2 re-run: {events:?}");
    assert_eq!(stats.quarantines, 1);
    assert!(dir.join("metrics-002.jsonl.quarantined-1").exists());
    for k in 0..SHARDS {
        for name in MockRunner.artifact_names(k) {
            assert_eq!(
                artifact_bytes(&dir, &name),
                artifact_bytes(&clean, &name),
                "{name}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&dir);
}

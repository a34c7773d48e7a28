//! The campaign worker: one sequential pass over the shards, with
//! resume, quarantine of corrupt artifacts, persisted retry accounting
//! and optional chaos injection.
//!
//! [`run_worker`] visits each shard in turn and drives it to a terminal
//! state before moving on — [`ShardState::Done`] (every artifact the
//! shard writes is present and valid) or [`ShardState::Failed`] (the
//! shard used up [`FleetConfig::max_attempts`]). Re-running a shard is
//! always safe: its artifacts are pure functions of the campaign
//! parameters, so a re-run commits byte-identical bytes. That is also
//! why processes sharing a directory need no coordination: each
//! publishes the same bytes through an atomic rename, and the only cost
//! of an overlap is duplicated work.
//!
//! Attempt counts persist in sealed `attempts-<k>.txt` files, so a
//! *resumed* campaign keeps counting where the killed one stopped —
//! without this, a shard that deterministically crashes its process
//! would be retried forever across resumes instead of landing in the
//! failure manifest.

use std::io;
use std::path::Path;

use anneal_obs::{MetricsRegistry, Recorder as _};

use crate::artifact::{commit_bytes, quarantine, read_sealed, seal, unseal, ArtifactError};
use crate::fault::{FaultKind, FaultPlan};

/// Exit code a campaign process dies with when a chaos kill fires under
/// [`KillMode::ExitProcess`] — distinguishable from real failures in
/// resume loops and the chaos test driver.
pub const CHAOS_KILL_EXIT: i32 = 17;

/// What a chaos kill does to the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Return [`WorkerOutcome::Killed`] immediately, leaving the counted
    /// attempt and the missing artifacts behind exactly as a real kill
    /// would — lets in-crate tests exercise crash recovery without
    /// spawning processes.
    Simulate,
    /// `std::process::exit` with the given code — real crash semantics
    /// for the campaign process.
    ExitProcess(i32),
}

/// Worker policy knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// A shard is declared [`ShardState::Failed`] once it has been
    /// attempted this many times without producing valid artifacts.
    pub max_attempts: u32,
    /// Deterministic fault injection; `None` in production.
    pub chaos: Option<FaultPlan>,
    /// How an injected kill manifests.
    pub kill_mode: KillMode,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            max_attempts: 5,
            chaos: None,
            kill_mode: KillMode::Simulate,
        }
    }
}

/// Executes one shard and returns its artifacts.
///
/// Implementations must be deterministic in the shard index — that is
/// the foundation the whole recovery story rests on: a re-run after a
/// kill or quarantine publishes byte-identical artifacts.
pub trait ShardRunner {
    /// File names of every artifact the shard writes, primary first
    /// (e.g. `shard-003.csv`, plus `metrics-003.jsonl` when observing).
    /// The shard is [`ShardState::Done`] only when all of them are
    /// present and valid.
    fn artifact_names(&self, shard: usize) -> Vec<String>;

    /// Runs the shard, returning `(file name, sealed content)` pairs to
    /// commit — one per [`artifact_names`](Self::artifact_names) entry.
    /// Contents must already carry their checksum footer (see [`seal`]).
    fn run(&self, shard: usize) -> Result<Vec<(String, String)>, String>;
}

/// Where a shard stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Every artifact is present and valid.
    Done,
    /// Some artifact is missing or invalid; attempts remain.
    Pending,
    /// Attempts exhausted without valid artifacts.
    Failed,
}

/// The sealed per-shard attempt counter file (`attempts-007.txt`).
pub fn attempts_file_name(shard: usize) -> String {
    format!("attempts-{shard:03}.txt")
}

/// Reads a shard's persisted attempt count (0 when absent or
/// unreadable — an unreadable counter only means extra, harmless
/// retries).
pub fn read_attempts(dir: &Path, shard: usize) -> u32 {
    std::fs::read_to_string(dir.join(attempts_file_name(shard)))
        .ok()
        .and_then(|t| unseal(&t).ok().map(str::to_string))
        .and_then(|body| body.trim().parse().ok())
        .unwrap_or(0)
}

fn write_attempts(dir: &Path, shard: usize, n: u32) -> io::Result<()> {
    commit_bytes(
        &dir.join(attempts_file_name(shard)),
        seal(&format!("{n}\n")).as_bytes(),
    )
}

/// Classifies a shard: valid sealed `artifact_names` mean
/// [`ShardState::Done`] regardless of attempt count; otherwise the
/// persisted attempt counter decides between [`ShardState::Pending`]
/// and [`ShardState::Failed`].
pub fn shard_state(
    dir: &Path,
    shard: usize,
    artifact_names: &[String],
    max_attempts: u32,
) -> ShardState {
    if artifact_names
        .iter()
        .all(|name| read_sealed(&dir.join(name)).is_ok())
    {
        ShardState::Done
    } else if read_attempts(dir, shard) >= max_attempts {
        ShardState::Failed
    } else {
        ShardState::Pending
    }
}

/// Worker activity counters. Flushed to `anneal-obs` under
/// `sched.fleet.*` — the scheduling class — because every one of them
/// depends on the execution history (kills, resumes, overlapping
/// processes), never on the science; the deterministic metrics view
/// stays clean.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Shard executions started.
    pub shards_run: u64,
    /// Executions beyond each shard's first attempt.
    pub retries: u64,
    /// Runner executions that returned an error.
    pub run_failures: u64,
    /// Sealed artifacts that failed checksum validation.
    pub checksum_failures: u64,
    /// Corrupt artifacts moved aside for post-mortem.
    pub quarantines: u64,
    /// Chaos faults injected, by kind in [`FaultKind::ALL`] order.
    pub faults: [u64; 3],
}

impl FleetStats {
    fn fault(&mut self, kind: FaultKind) {
        self.faults[kind as usize] += 1;
    }

    /// Flushes the counters into `reg` as `sched.fleet.*` keys.
    pub fn record_into(&self, reg: &mut MetricsRegistry) {
        for (key, v) in [
            ("sched.fleet.shards_run", self.shards_run),
            ("sched.fleet.retries", self.retries),
            ("sched.fleet.run_failures", self.run_failures),
            ("sched.fleet.checksum_failures", self.checksum_failures),
            ("sched.fleet.quarantines", self.quarantines),
        ] {
            if v > 0 {
                reg.add(key, v);
            }
        }
        for (kind, v) in FaultKind::ALL.iter().zip(self.faults) {
            if v > 0 {
                reg.add(&format!("sched.fleet.faults_{kind}"), v);
            }
        }
    }
}

/// Worker lifecycle notifications, for human-readable progress output.
#[derive(Debug, Clone)]
pub enum FleetEvent {
    /// The shard's artifacts were already valid — skipped on resume.
    ShardSkipped {
        /// Shard index.
        shard: usize,
    },
    /// An attempt is counted and about to run.
    Started {
        /// Shard index.
        shard: usize,
        /// 1-based attempt number (global across resumes).
        attempt: u32,
    },
    /// An existing artifact failed validation and was moved aside.
    Quarantined {
        /// Shard index.
        shard: usize,
        /// Where the corrupt file went.
        path: String,
        /// Why validation rejected it.
        reason: String,
    },
    /// A chaos fault fired.
    Chaos {
        /// Shard index.
        shard: usize,
        /// Attempt it fired on.
        attempt: u32,
        /// Which fault.
        kind: FaultKind,
    },
    /// The shard's artifacts were committed and validated.
    ShardDone {
        /// Shard index.
        shard: usize,
        /// Attempt that succeeded.
        attempt: u32,
    },
    /// The runner returned an error; the shard is retried.
    RunFailed {
        /// Shard index.
        shard: usize,
        /// Attempt that failed.
        attempt: u32,
        /// The runner's error.
        msg: String,
    },
    /// The shard exhausted its attempts without valid artifacts.
    Exhausted {
        /// Shard index.
        shard: usize,
        /// Attempts consumed.
        attempts: u32,
    },
}

/// How a [`run_worker`] call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// Every shard is terminal.
    Completed {
        /// Shards with valid artifacts.
        done: Vec<usize>,
        /// Shards that exhausted their attempts — the failure manifest
        /// input; never silently dropped.
        failed: Vec<usize>,
    },
    /// A chaos kill fired under [`KillMode::Simulate`]; the counted
    /// attempt and missing artifacts are left behind for recovery.
    Killed {
        /// Shard being run when the kill fired.
        shard: usize,
    },
}

/// Whether every artifact in `names` is present and valid. Each one
/// that exists but fails validation is quarantined on the way, which
/// preserves the evidence and frees its path for the re-run.
fn artifacts_valid(
    dir: &Path,
    shard: usize,
    names: &[String],
    stats: &mut FleetStats,
    on_event: &mut dyn FnMut(&FleetEvent),
) -> io::Result<bool> {
    let mut valid = true;
    for name in names {
        let path = dir.join(name);
        match read_sealed(&path) {
            Ok(_) => {}
            Err(ArtifactError::Missing { .. }) => valid = false,
            Err(reason) => {
                valid = false;
                stats.checksum_failures += 1;
                match quarantine(&path) {
                    Ok(qpath) => {
                        stats.quarantines += 1;
                        on_event(&FleetEvent::Quarantined {
                            shard,
                            path: qpath.display().to_string(),
                            reason: reason.to_string(),
                        });
                    }
                    // another process sharing the directory moved it first
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(valid)
}

/// Runs `shards` in campaign directory `dir`, in order, driving each to
/// a terminal state before the next. Events stream to `on_event`;
/// counters accumulate in `stats`.
///
/// Per shard, until it is terminal:
///
/// 1. every artifact valid: done (skipped when it already was);
/// 2. quarantine each artifact that exists but fails validation;
/// 3. attempts used up: failed;
/// 4. otherwise bump the persisted attempt count, let chaos kill, run
///    the shard, commit its artifacts atomically, let chaos damage one
///    of them, and go back to 1.
pub fn run_worker(
    dir: &Path,
    shards: &[usize],
    cfg: &FleetConfig,
    runner: &dyn ShardRunner,
    stats: &mut FleetStats,
    on_event: &mut dyn FnMut(&FleetEvent),
) -> io::Result<WorkerOutcome> {
    std::fs::create_dir_all(dir)?;
    let mut done = Vec::new();
    let mut failed = Vec::new();
    for &shard in shards {
        let names = runner.artifact_names(shard);
        let mut last_attempt = None;
        loop {
            if artifacts_valid(dir, shard, &names, stats, on_event)? {
                on_event(&match last_attempt {
                    Some(attempt) => FleetEvent::ShardDone { shard, attempt },
                    None => FleetEvent::ShardSkipped { shard },
                });
                done.push(shard);
                break;
            }
            // never below our own last attempt, so the loop ends even
            // if the counter file cannot be read back
            let attempts = read_attempts(dir, shard).max(last_attempt.unwrap_or(0));
            if attempts >= cfg.max_attempts {
                on_event(&FleetEvent::Exhausted { shard, attempts });
                failed.push(shard);
                break;
            }
            let attempt = attempts + 1;
            write_attempts(dir, shard, attempt)?;
            last_attempt = Some(attempt);
            if attempt > 1 {
                stats.retries += 1;
            }
            on_event(&FleetEvent::Started { shard, attempt });

            // chaos: kill fires before any artifact is published
            if let Some(plan) = &cfg.chaos {
                if plan.fires(FaultKind::Kill, shard, attempt) {
                    stats.fault(FaultKind::Kill);
                    on_event(&FleetEvent::Chaos {
                        shard,
                        attempt,
                        kind: FaultKind::Kill,
                    });
                    match cfg.kill_mode {
                        KillMode::Simulate => return Ok(WorkerOutcome::Killed { shard }),
                        KillMode::ExitProcess(code) => std::process::exit(code),
                    }
                }
            }

            stats.shards_run += 1;
            let files = match runner.run(shard) {
                Ok(files) => files,
                Err(msg) => {
                    stats.run_failures += 1;
                    on_event(&FleetEvent::RunFailed {
                        shard,
                        attempt,
                        msg,
                    });
                    continue;
                }
            };
            for (name, content) in &files {
                commit_bytes(&dir.join(name), content.as_bytes())?;
            }
            // chaos: damage one published artifact with a raw write —
            // a torn copy or bit rot, which by definition bypasses the
            // atomic commit
            let Some(plan) = &cfg.chaos else { continue };
            for kind in [FaultKind::Truncate, FaultKind::Corrupt] {
                if !plan.fires(kind, shard, attempt) {
                    continue;
                }
                let Some(name) = names.get(plan.target(kind, shard, attempt, names.len())) else {
                    continue;
                };
                let path = dir.join(name);
                if let Ok(bytes) = std::fs::read(&path) {
                    if let Some(bad) = plan.damage(kind, shard, attempt, &bytes) {
                        stats.fault(kind);
                        on_event(&FleetEvent::Chaos {
                            shard,
                            attempt,
                            kind,
                        });
                        std::fs::write(&path, bad)?;
                    }
                }
            }
        }
    }
    Ok(WorkerOutcome::Completed { done, failed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_file_round_trips() {
        let d = std::env::temp_dir().join(format!("fleet-attempts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        assert_eq!(read_attempts(&d, 2), 0);
        write_attempts(&d, 2, 3).unwrap();
        assert_eq!(read_attempts(&d, 2), 3);
        // unreadable counters degrade to 0, never panic
        std::fs::write(d.join(attempts_file_name(2)), b"junk").unwrap();
        assert_eq!(read_attempts(&d, 2), 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn stats_record_as_sched_class() {
        let mut stats = FleetStats {
            shards_run: 3,
            retries: 2,
            ..FleetStats::default()
        };
        stats.fault(FaultKind::Kill);
        stats.fault(FaultKind::Kill);
        stats.fault(FaultKind::Corrupt);
        assert_eq!(stats.faults, [2, 0, 1]);
        let mut reg = MetricsRegistry::new();
        stats.record_into(&mut reg);
        assert_eq!(reg.counter("sched.fleet.shards_run"), 3);
        assert_eq!(reg.counter("sched.fleet.retries"), 2);
        assert_eq!(reg.counter("sched.fleet.faults_kill"), 2);
        assert_eq!(reg.counter("sched.fleet.faults_corrupt"), 1);
        // zero counters stay absent; every key is sched-class
        assert_eq!(reg.counter("sched.fleet.quarantines"), 0);
        assert!(reg.deterministic_only().is_empty());
    }

    #[test]
    fn shard_state_classifies() {
        let d = std::env::temp_dir().join(format!("fleet-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        let names = ["s.csv".to_string(), "m.jsonl".to_string()];
        assert_eq!(shard_state(&d, 0, &names, 3), ShardState::Pending);
        write_attempts(&d, 0, 3).unwrap();
        assert_eq!(shard_state(&d, 0, &names, 3), ShardState::Failed);
        // the primary alone is not enough
        commit_bytes(&d.join("s.csv"), seal("h\n1\n").as_bytes()).unwrap();
        assert_eq!(shard_state(&d, 0, &names, 3), ShardState::Failed);
        assert_eq!(shard_state(&d, 0, &names[..1], 3), ShardState::Done);
        // valid artifacts trump exhausted attempts
        commit_bytes(&d.join("m.jsonl"), seal("{}\n").as_bytes()).unwrap();
        assert_eq!(shard_state(&d, 0, &names, 3), ShardState::Done);
        // a corrupt artifact does not count as done
        std::fs::write(d.join("m.jsonl"), b"torn").unwrap();
        assert_eq!(shard_state(&d, 0, &names, 3), ShardState::Failed);
        let _ = std::fs::remove_dir_all(&d);
    }
}

//! The campaign worker: one pass over the shards, with resume and
//! quarantine of corrupt artifacts.
//!
//! [`run_worker`] visits each shard once. A shard whose artifacts are
//! all valid is skipped; each artifact that exists but fails validation
//! is quarantined; every other shard runs once and its artifacts are
//! committed by write-then-rename. Re-running a shard is always safe:
//! its artifacts are pure functions of the campaign parameters, so a
//! re-run commits byte-identical bytes. That is also why processes
//! sharing a directory need no coordination: each publishes the same
//! bytes through an atomic rename, and the only cost of an overlap is
//! duplicated work. For the same reason a run that returns an error is
//! not retried: it would return the same error again. It is reported,
//! and the pass goes on with the other shards.

use std::io;
use std::path::Path;

use anneal_obs::{MetricsRegistry, Recorder as _};

use crate::artifact::{commit_bytes, quarantine, read_sealed, ArtifactError};

/// Executes one shard and returns its artifacts.
///
/// Implementations must be deterministic in the shard index — that is
/// the foundation the whole recovery story rests on: a re-run after a
/// kill or quarantine publishes byte-identical artifacts.
pub trait ShardRunner {
    /// File names of every artifact the shard writes, primary first
    /// (e.g. `shard-003.csv`, plus `metrics-003.jsonl` when observing).
    /// The shard is done only when all of them are present and valid.
    fn artifact_names(&self, shard: usize) -> Vec<String>;

    /// Runs the shard, returning `(file name, sealed content)` pairs to
    /// commit — one per [`artifact_names`](Self::artifact_names) entry.
    /// Contents must already carry their checksum footer (see
    /// [`seal`](crate::seal)).
    fn run(&self, shard: usize) -> Result<Vec<(String, String)>, String>;
}

/// Whether every artifact in `artifact_names` is present in `dir` and
/// passes checksum validation.
pub fn shard_done(dir: &Path, artifact_names: &[String]) -> bool {
    artifact_names
        .iter()
        .all(|name| read_sealed(&dir.join(name)).is_ok())
}

/// Worker activity counters. Flushed to `anneal-obs` under
/// `sched.fleet.*` — the scheduling class — because every one of them
/// depends on the execution history (kills, damage, resumes,
/// overlapping processes), never on the science; the deterministic
/// metrics view stays clean.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Shard runs started.
    pub shards_run: u64,
    /// Shard runs that returned an error.
    pub run_failures: u64,
    /// Sealed artifacts that failed checksum validation.
    pub checksum_failures: u64,
    /// Corrupt artifacts moved aside for post-mortem.
    pub quarantines: u64,
}

impl FleetStats {
    /// Flushes the counters into `reg` as `sched.fleet.*` keys.
    pub fn record_into(&self, reg: &mut MetricsRegistry) {
        for (key, v) in [
            ("sched.fleet.shards_run", self.shards_run),
            ("sched.fleet.run_failures", self.run_failures),
            ("sched.fleet.checksum_failures", self.checksum_failures),
            ("sched.fleet.quarantines", self.quarantines),
        ] {
            if v > 0 {
                reg.add(key, v);
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
    /// An existing artifact failed validation and was moved aside.
    Quarantined {
        /// Shard index.
        shard: usize,
        /// Where the corrupt file went.
        path: String,
        /// Why validation rejected it.
        reason: String,
    },
    /// The shard ran and its artifacts were committed.
    ShardDone {
        /// Shard index.
        shard: usize,
    },
    /// The runner returned an error; the shard is not retried.
    RunFailed {
        /// Shard index.
        shard: usize,
        /// The runner's error.
        msg: String,
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

/// Runs `shards` in campaign directory `dir`, in order, visiting each
/// once, and returns the shards whose run returned an error — never
/// silently dropped. Events stream to `on_event`; counters accumulate
/// in `stats`.
///
/// Per shard:
///
/// 1. every artifact valid: done, skipped;
/// 2. quarantine each artifact that exists but fails validation;
/// 3. run the shard once and commit its artifacts atomically; a run
///    that returns an error marks the shard failed.
///
/// Only filesystem errors end the pass early.
pub fn run_worker(
    dir: &Path,
    shards: &[usize],
    runner: &dyn ShardRunner,
    stats: &mut FleetStats,
    on_event: &mut dyn FnMut(&FleetEvent),
) -> io::Result<Vec<usize>> {
    std::fs::create_dir_all(dir)?;
    let mut failed = Vec::new();
    for &shard in shards {
        let names = runner.artifact_names(shard);
        if artifacts_valid(dir, shard, &names, stats, on_event)? {
            on_event(&FleetEvent::ShardSkipped { shard });
            continue;
        }
        stats.shards_run += 1;
        match runner.run(shard) {
            Ok(files) => {
                for (name, content) in &files {
                    commit_bytes(&dir.join(name), content.as_bytes())?;
                }
                on_event(&FleetEvent::ShardDone { shard });
            }
            Err(msg) => {
                stats.run_failures += 1;
                on_event(&FleetEvent::RunFailed { shard, msg });
                failed.push(shard);
            }
        }
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::seal;

    #[test]
    fn stats_record_as_sched_class() {
        let stats = FleetStats {
            shards_run: 3,
            quarantines: 2,
            ..FleetStats::default()
        };
        let mut reg = MetricsRegistry::new();
        stats.record_into(&mut reg);
        assert_eq!(reg.counter("sched.fleet.shards_run"), 3);
        assert_eq!(reg.counter("sched.fleet.quarantines"), 2);
        // zero counters stay absent; every key is sched-class
        assert!(!reg.iter().any(|(k, _)| k == "sched.fleet.run_failures"));
        assert!(reg.deterministic_only().is_empty());
    }

    #[test]
    fn shard_done_needs_every_artifact_valid() {
        let d = std::env::temp_dir().join(format!("fleet-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        let names = ["s.csv".to_string(), "m.jsonl".to_string()];
        assert!(!shard_done(&d, &names));
        // the primary alone is not enough
        commit_bytes(&d.join("s.csv"), seal("h\n1\n").as_bytes()).unwrap();
        assert!(!shard_done(&d, &names));
        assert!(shard_done(&d, &names[..1]));
        commit_bytes(&d.join("m.jsonl"), seal("{}\n").as_bytes()).unwrap();
        assert!(shard_done(&d, &names));
        // a corrupt artifact does not count as done
        std::fs::write(d.join("m.jsonl"), b"torn").unwrap();
        assert!(!shard_done(&d, &names));
        let _ = std::fs::remove_dir_all(&d);
    }
}

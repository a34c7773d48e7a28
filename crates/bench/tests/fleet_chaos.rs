//! Chaos certification for the fault-tolerant campaign fleet.
//!
//! The `anneal-fleet` recovery machinery (quarantine, retry, resume)
//! must be invisible in the science: for any injected failure pattern,
//! a campaign recovered by a resume loop has a merged `matrix.csv`,
//! `standings.csv` and deterministic metrics view are byte-identical
//! to the fault-free run — and a shard that exhausts its retry budget
//! is reported in `fleet.report.json` and the exit status, never
//! silently dropped.

use std::path::{Path, PathBuf};
use std::process::Command;

use anneal_fleet::CHAOS_KILL_EXIT;

const DEGRADED_EXIT: i32 = 3;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("annealsched-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `campaign 10 3 7` into `dir` with extra args; returns the exit
/// code plus captured stdout/stderr (chaos runs die on purpose, so no
/// success assertion here).
fn run_campaign(dir: &Path, extra: &[&str]) -> (i32, String, String) {
    let out = bin()
        .args(["10", "3", "7", "--threads", "2", "--dir"])
        .arg(dir)
        .args(extra)
        .output()
        .expect("run campaign binary");
    (
        out.status.code().expect("campaign exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("read {}/{file}: {e}", dir.display()))
}

/// Re-invokes a chaotic campaign until it converges — exactly the
/// operator workflow after real crashes. A chaos kill exits the whole
/// process (`CHAOS_KILL_EXIT`), so recovery is a resume loop; any
/// other non-zero exit is a test failure, and a session that exits 0
/// has retried its damaged shards in place and merged. Returns the
/// number of sessions.
fn run_until_converged(dir: &Path, extra: &[&str]) -> usize {
    for session in 1..=60 {
        let (code, _out, err) = run_campaign(dir, extra);
        if code == CHAOS_KILL_EXIT {
            continue;
        }
        assert_eq!(code, 0, "chaotic campaign session failed:\n{err}");
        assert!(dir.join("matrix.csv").exists(), "exit 0 without a merge");
        return session;
    }
    panic!("chaotic campaign did not converge in 60 sessions");
}

#[test]
fn chaos_recovery_is_byte_identical_to_fault_free() {
    let reference = fresh_dir("ref");
    let ref_metrics = reference.join("m.json").display().to_string();
    let (code, _out, err) = run_campaign(&reference, &["--metrics", &ref_metrics, "--null-clock"]);
    assert_eq!(code, 0, "fault-free reference run failed:\n{err}");

    let chaos = fresh_dir("injected");
    let chaos_metrics = chaos.join("m.json").display().to_string();
    let sessions = run_until_converged(
        &chaos,
        &[
            "--chaos",
            "seed=5,kill=40,truncate=25,corrupt=10",
            "--max-attempts",
            "16",
            "--metrics",
            &chaos_metrics,
            "--null-clock",
        ],
    );
    assert!(sessions > 1, "the plan must kill at least one session");

    // The science is byte-identical: merged CSVs and the
    // deterministic-class metrics view. (The full `m.json` is allowed
    // to differ — it carries the `sched.fleet.*` recovery counters,
    // which are exactly the point of the exercise.)
    for file in ["matrix.csv", "standings.csv", "m.det.json"] {
        let expect = read(&reference, file);
        let got = read(&chaos, file);
        assert_eq!(
            got, expect,
            "recovered campaign diverged from fault-free run on {file}"
        );
    }
    let report = String::from_utf8(read(&chaos, "fleet.report.json")).unwrap();
    assert!(
        report.contains("\"status\": \"ok\""),
        "recovered campaign must report ok: {report}"
    );
    let _ = std::fs::remove_dir_all(reference);
    let _ = std::fs::remove_dir_all(chaos);
}

#[test]
fn exhausted_shard_is_reported_not_dropped() {
    let dir = fresh_dir("exhausted");
    let args = ["--chaos", "seed=1,kill=100,only=0", "--max-attempts", "2"];
    // Shard 0 is killed on every attempt; each session dies with it.
    // After the retry budget, the next session runs the healthy shards
    // and exits degraded.
    let mut last = None;
    for _session in 0..8 {
        let (code, _out, err) = run_campaign(&dir, &args);
        if code == CHAOS_KILL_EXIT {
            continue;
        }
        last = Some((code, err));
        break;
    }
    let (code, err) = last.expect("campaign never got past its chaos kills");
    assert_eq!(code, DEGRADED_EXIT, "exhausted shard must fail the run");
    assert!(
        err.contains("degraded"),
        "degraded campaign must say so on stderr:\n{err}"
    );

    let report = String::from_utf8(read(&dir, "fleet.report.json")).unwrap();
    assert!(
        report.contains("\"status\": \"degraded\""),
        "manifest must flag the degraded campaign: {report}"
    );
    assert!(
        report.contains("\"shard\": 0, \"state\": \"failed\", \"attempts\": 2"),
        "manifest must name the exhausted shard: {report}"
    );
    // Partial results exist for the healthy shards; the real merged
    // artifacts must NOT exist — degraded output is never mistakable
    // for the full campaign.
    assert!(dir.join("matrix.partial.csv").exists());
    assert!(dir.join("standings.partial.csv").exists());
    assert!(!dir.join("matrix.csv").exists());
    assert!(!dir.join("standings.csv").exists());
    let _ = std::fs::remove_dir_all(dir);
}

//! Integration tests for the multi-process campaign driver.
//!
//! The `--procs N` scale-out must be a pure implementation detail of
//! *where* shards run: the merged `matrix.csv`/`standings.csv` are
//! byte-identical whether shards ran in-process, under `--procs 1`, or
//! under `--procs N` — and a campaign killed halfway resumes from
//! whatever shard artifacts survived, in any mode, to the same bytes.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("annealsched-procs-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `campaign 10 3 7` into `dir` with extra args; asserts success.
fn run_campaign(dir: &Path, extra: &[&str]) -> String {
    let out = bin()
        .args(["10", "3", "7", "--threads", "2", "--dir"])
        .arg(dir)
        .args(extra)
        .output()
        .expect("run campaign binary");
    assert!(
        out.status.success(),
        "campaign {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("read {}/{file}: {e}", dir.display()))
}

#[test]
fn procs_modes_merge_byte_identically() {
    let inproc = fresh_dir("inproc");
    let one = fresh_dir("one");
    let many = fresh_dir("many");
    run_campaign(&inproc, &[]);
    run_campaign(&one, &["--procs", "1"]);
    run_campaign(&many, &["--procs", "3"]);
    for file in ["matrix.csv", "standings.csv"] {
        let expect = read(&inproc, file);
        assert_eq!(read(&one, file), expect, "--procs 1 diverged on {file}");
        assert_eq!(read(&many, file), expect, "--procs 3 diverged on {file}");
    }
    // every shard artifact exists in every mode, and is identical too
    for k in 0..3 {
        let f = format!("shard-00{k}.csv");
        let expect = read(&inproc, &f);
        assert_eq!(read(&many, &f), expect, "shard artifact {f} diverged");
    }
    for d in [inproc, one, many] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn killed_campaign_resumes_from_shard_artifacts() {
    // Reference: a clean in-process run.
    let reference = fresh_dir("ref");
    run_campaign(&reference, &[]);

    // "Killed" run: only shard 1 completed before the campaign died
    // (simulated by running exactly that shard with the merge off).
    let resumed = fresh_dir("resumed");
    run_campaign(&resumed, &["--shard", "1", "--no-merge"]);
    assert!(resumed.join("shard-001.csv").exists());
    assert!(!resumed.join("matrix.csv").exists(), "no merge yet");

    // Resume under the multi-process driver: the surviving artifact is
    // skipped, the missing shards run, the merge completes.
    let stdout = run_campaign(&resumed, &["--procs", "2"]);
    assert!(
        stdout.contains("skipping (resume)"),
        "surviving shard artifact must be skipped:\n{stdout}"
    );
    for file in ["matrix.csv", "standings.csv"] {
        assert_eq!(
            read(&resumed, file),
            read(&reference, file),
            "resumed campaign diverged on {file}"
        );
    }
    let _ = std::fs::remove_dir_all(reference);
    let _ = std::fs::remove_dir_all(resumed);
}

#[test]
fn no_merge_child_mode_never_writes_merged_csvs() {
    let dir = fresh_dir("nomerge");
    run_campaign(&dir, &["--no-merge"]);
    // all shards ran...
    for k in 0..3 {
        assert!(dir.join(format!("shard-00{k}.csv")).exists());
    }
    // ...but no merge happened
    assert!(!dir.join("matrix.csv").exists());
    assert!(!dir.join("standings.csv").exists());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn default_run_stamps_the_production_lane_into_campaign_meta() {
    let dir = fresh_dir("lane");
    run_campaign(&dir, &[]);
    let meta = String::from_utf8(read(&dir, "campaign.meta")).unwrap();
    let body = anneal_fleet::unseal(&meta).expect("campaign.meta is sealed");
    let expected = format!("sa-lane={}", anneal_core::SaLane::default());
    assert!(
        body.lines().any(|l| l == expected),
        "campaign.meta must record `{expected}`:\n{body}"
    );
    assert!(
        !body.contains("evaluator="),
        "the evaluator never changes a cell and is not provenance:\n{body}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn mismatched_parameters_are_refused_on_resume() {
    let dir = fresh_dir("prov");
    run_campaign(&dir, &[]);
    // same directory, different seed: the provenance stamp must refuse
    let out = bin()
        .args(["10", "3", "8", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success(), "seed mismatch must abort");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different parameters"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

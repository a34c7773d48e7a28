//! Integration tests for resuming and sharing campaign directories.
//!
//! Where and when shards run is an implementation detail: the merged
//! `matrix.csv`/`standings.csv` (and, under `--metrics --null-clock`,
//! the deterministic metrics view and the time-share tables) are
//! byte-identical whether the shards ran in one invocation, one at a
//! time in any order, in two processes at once, in a campaign killed
//! halfway and resumed, or in one resumed after its artifacts were
//! damaged — including a directory written by the lease-based campaign
//! that came before campaigns ran in one process.
//! Metrics artifacts written before shards recorded per-scheduler cell
//! times are refused until regenerated. A directory stamped with other
//! parameters, or with a corrupt `campaign.meta`, is refused with exit
//! 1 before any shard runs.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("annealsched-resume-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `campaign 10 3 7` into `dir` with extra args.
fn campaign(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = bin();
    cmd.args(["10", "3", "7", "--threads", "2", "--dir"])
        .arg(dir)
        .args(extra);
    cmd
}

/// Runs `campaign 10 3 7` into `dir` with extra args; asserts success.
fn run_campaign(dir: &Path, extra: &[&str]) -> String {
    let out = campaign(dir, extra).output().expect("run campaign binary");
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

/// Copies the committed fixture directory `name` into `dir`.
fn copy_fixture(name: &str, dir: &Path) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
}

fn assert_same(dir: &Path, reference: &Path, files: &[&str], what: &str) {
    for file in files {
        assert_eq!(
            read(dir, file),
            read(reference, file),
            "{what} diverged on {file}"
        );
    }
}

const SCIENCE: &[&str] = &["matrix.csv", "standings.csv"];

#[test]
fn killed_campaign_resumes_from_shard_artifacts() {
    let reference = fresh_dir("ref");
    run_campaign(&reference, &[]);

    // "Killed" run: only shard 1 completed before the campaign died.
    let resumed = fresh_dir("resumed");
    let stdout = run_campaign(&resumed, &["--shard", "1"]);
    assert!(stdout.contains("merge deferred"), "{stdout}");
    assert!(resumed.join("shard-001.csv").exists());
    assert!(!resumed.join("matrix.csv").exists(), "no merge yet");

    // A plain invocation resumes: the surviving artifact is skipped,
    // the missing shards run, the merge completes.
    let stdout = run_campaign(&resumed, &[]);
    assert!(
        stdout.contains("shard 1:") && stdout.contains("skipping (resume)"),
        "surviving shard artifact must be skipped:\n{stdout}"
    );
    assert_same(&resumed, &reference, SCIENCE, "resumed campaign");
    let _ = std::fs::remove_dir_all(reference);
    let _ = std::fs::remove_dir_all(resumed);
}

#[test]
fn shards_run_one_at_a_time_in_reverse_order_merge_identically() {
    let reference = fresh_dir("order-ref");
    run_campaign(&reference, &[]);
    let dir = fresh_dir("order");
    for k in ["2", "1", "0"] {
        run_campaign(&dir, &["--shard", k]);
    }
    assert_same(&dir, &reference, SCIENCE, "shard-at-a-time campaign");
    let _ = std::fs::remove_dir_all(reference);
    let _ = std::fs::remove_dir_all(dir);
}

/// A directory the lease-based campaign wrote — shard 1 finished, then
/// a kill on shard 0 left a stale `lease-000.lock`, attempt counters
/// and a `fleet.report.json` behind — resumes under a plain invocation
/// to the same bytes as a fresh run. The stray files are named in one
/// line and otherwise ignored: left as they were, and no shard is held
/// back by them.
#[test]
fn lease_era_directory_resumes() {
    let reference = fresh_dir("lease-era-ref");
    let stdout = run_campaign(&reference, &[]);
    assert!(!stdout.contains("older campaign binary"), "{stdout}");

    let dir = fresh_dir("lease-era");
    copy_fixture("lease_era_campaign", &dir);
    let stdout = run_campaign(&dir, &[]);
    let named: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("older campaign binary"))
        .collect();
    assert_eq!(
        named,
        [
            "ignoring files an older campaign binary left: attempts-000.txt, \
             attempts-001.txt, fleet.report.json, lease-000.lock"
        ],
        "{stdout}"
    );
    assert!(
        stdout.contains("shard-001.csv exists, skipping (resume)"),
        "{stdout}"
    );
    assert!(stdout.contains("shard 0: done"), "{stdout}");
    assert_same(&dir, &reference, SCIENCE, "resumed lease-era campaign");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lease_era_campaign");
    for stray in ["attempts-000.txt", "fleet.report.json", "lease-000.lock"] {
        assert_eq!(read(&dir, stray), read(&fixture, stray), "{stray}");
    }
    let _ = std::fs::remove_dir_all(reference);
    let _ = std::fs::remove_dir_all(dir);
}

/// Two processes over one directory at once need no coordination:
/// both run every shard they find unfinished, publish identical bytes
/// through atomic renames, and both merge.
#[test]
fn concurrent_processes_converge_identically() {
    let solo = fresh_dir("solo");
    run_campaign(&solo, &[]);

    let duo = fresh_dir("duo");
    let children: Vec<_> = (0..2)
        .map(|_| {
            campaign(&duo, &[])
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn campaign")
        })
        .collect();
    for child in children {
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "concurrent campaign failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_same(&duo, &solo, SCIENCE, "concurrent campaign");
    let _ = std::fs::remove_dir_all(solo);
    let _ = std::fs::remove_dir_all(duo);
}

/// Runs `campaign 10 3 7 --null-clock --metrics DIR/m.json` into `dir`.
fn run_observed(dir: &Path) -> String {
    let m = dir.join("m.json").display().to_string();
    run_campaign(dir, &["--null-clock", "--metrics", &m])
}

/// `dir/m.summary.txt` up to its fleet line: the time-share and
/// slowest-cells tables. The fleet line counts the shard runs that
/// built the directory, which differ between a fresh and a resumed
/// campaign.
fn time_share_tables(dir: &Path) -> String {
    let summary = String::from_utf8(read(dir, "m.summary.txt")).unwrap();
    match summary.split_once("\nFleet: ") {
        Some((tables, _)) => tables.to_string(),
        None => summary,
    }
}

/// A shard counts as done only when every artifact it writes is valid:
/// a shard run without `--metrics` is re-run by a later `--metrics`
/// invocation, so the merged metrics count every cell.
#[test]
fn shard_run_without_metrics_reruns_under_metrics() {
    let reference = fresh_dir("metrics-ref");
    run_observed(&reference);

    let dir = fresh_dir("metrics-late");
    run_campaign(&dir, &["--shard", "0"]);
    let stdout = run_observed(&dir);
    assert!(!stdout.contains("skipping (resume)"), "{stdout}");
    let files = [
        "matrix.csv",
        "standings.csv",
        "m.det.json",
        "m.timeshare.svg",
    ];
    assert_same(&dir, &reference, &files, "late --metrics campaign");
    assert_eq!(
        time_share_tables(&dir),
        time_share_tables(&reference),
        "late --metrics campaign diverged on m.summary.txt"
    );
    let _ = std::fs::remove_dir_all(reference);
    let _ = std::fs::remove_dir_all(dir);
}

/// A directory finished by the campaign binary that wrote every cell
/// into the shard metrics artifacts, but no per-scheduler cell times,
/// is refused at the metrics merge: exit 1, no panic, every stale file
/// named with how to regenerate it, and no summary. Deleting the named
/// files re-runs their shards, and the merge then matches a fresh run.
#[test]
fn stale_metrics_artifacts_are_refused_until_regenerated() {
    let reference = fresh_dir("stale-ref");
    run_observed(&reference);

    let dir = fresh_dir("stale");
    copy_fixture("stale_metrics_campaign", &dir);
    let m = dir.join("m.json").display().to_string();
    let out = campaign(&dir, &["--null-clock", "--metrics", &m])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let stale: Vec<String> = (0..3).map(anneal_arena::shard_metrics_file_name).collect();
    for name in &stale {
        assert!(
            stderr.contains(name.as_str()),
            "{name} not named:\n{stderr}"
        );
    }
    assert!(stderr.contains("Delete each file named above"), "{stderr}");
    assert!(!dir.join("m.summary.txt").exists());

    for name in &stale {
        std::fs::remove_file(dir.join(name)).unwrap();
    }
    let stdout = run_observed(&dir);
    assert!(!stdout.contains("skipping (resume)"), "{stdout}");
    let files = [
        "matrix.csv",
        "standings.csv",
        "m.det.json",
        "m.summary.txt",
        "m.timeshare.svg",
    ];
    assert_same(&dir, &reference, &files, "regenerated metrics");
    let _ = std::fs::remove_dir_all(reference);
    let _ = std::fs::remove_dir_all(dir);
}

/// Certification by damage on the real binary. A finished `--metrics`
/// campaign loses what a kill or bit rot can take: one shard CSV is
/// truncated, a byte of another shard's metrics flips, a third shard's
/// CSV is deleted, and a half-written temp file is left behind. One
/// re-run quarantines the corrupt artifacts, runs exactly the three
/// damaged shards, and merges to the fault-free bytes.
#[test]
fn damaged_campaign_resumes_to_fault_free_bytes() {
    let reference = fresh_dir("damage-ref");
    run_observed(&reference);

    let dir = fresh_dir("damage");
    run_observed(&dir);
    let csv = read(&dir, "shard-000.csv");
    std::fs::write(dir.join("shard-000.csv"), &csv[..csv.len() / 2]).unwrap();
    let mut metrics = read(&dir, "metrics-001.jsonl");
    metrics[10] ^= 0x21;
    std::fs::write(dir.join("metrics-001.jsonl"), metrics).unwrap();
    std::fs::remove_file(dir.join("shard-002.csv")).unwrap();
    std::fs::write(dir.join(".shard-002.csv.tmp-1"), &csv[..7]).unwrap();
    // the merged outputs must come from the re-run, not survive it
    for file in ["matrix.csv", "standings.csv", "m.det.json"] {
        std::fs::remove_file(dir.join(file)).unwrap();
    }

    let stdout = run_observed(&dir);
    for quarantined in [
        "shard-000.csv.quarantined-1",
        "metrics-001.jsonl.quarantined-1",
    ] {
        assert!(stdout.contains(quarantined), "{stdout}");
        assert!(dir.join(quarantined).exists(), "{quarantined}");
    }
    for k in 0..3 {
        assert!(stdout.contains(&format!("shard {k}: done")), "{stdout}");
    }
    assert!(!stdout.contains("skipping (resume)"), "{stdout}");
    let files = ["matrix.csv", "standings.csv", "m.det.json"];
    assert_same(&dir, &reference, &files, "damaged campaign");
    let _ = std::fs::remove_dir_all(reference);
    let _ = std::fs::remove_dir_all(dir);
}

/// A shard CSV that rots after its worker pass is quarantined by the
/// merge, and that quarantine is counted: the `--merge-only` run that
/// finds it records it in its fleet metrics, so the summary of the
/// merge after the shard's re-run shows it.
#[test]
fn merge_quarantines_are_counted_in_the_fleet_summary() {
    let dir = fresh_dir("merge-quarantine");
    run_observed(&dir);
    let csv = read(&dir, "shard-001.csv");
    std::fs::write(dir.join("shard-001.csv"), &csv[..csv.len() / 2]).unwrap();
    let m = dir.join("m.json").display().to_string();
    let stdout = run_campaign(&dir, &["--null-clock", "--metrics", &m, "--merge-only"]);
    assert!(stdout.contains("shard-001.csv.quarantined-1"), "{stdout}");
    assert!(stdout.contains("merge deferred"), "{stdout}");
    let stdout = run_observed(&dir);
    assert!(stdout.contains("shard 1: done"), "{stdout}");
    let summary = String::from_utf8(read(&dir, "m.summary.txt")).unwrap();
    assert!(
        summary.ends_with("Fleet: 4 shards run, 1 checksum failures, 1 quarantined\n"),
        "{summary}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn default_run_stamps_the_production_lane_into_campaign_meta() {
    let dir = fresh_dir("lane");
    run_campaign(&dir, &[]);
    let meta = String::from_utf8(read(&dir, "campaign.meta")).unwrap();
    let body = anneal_fleet::unseal(&meta).expect("campaign.meta is sealed");
    for expected in [
        format!("sa-lane={}", anneal_core::SaLane::default()),
        "packet-solve=assignment".to_string(),
    ] {
        assert!(
            body.lines().any(|l| l == expected),
            "campaign.meta must record `{expected}`:\n{body}"
        );
    }
    assert!(
        !body.contains("evaluator="),
        "the evaluator never changes a cell and is not provenance:\n{body}"
    );
    assert!(!body.contains("packet-enum="), "{body}");
    assert!(
        !body.contains("static-sa="),
        "a fast campaign runs no static SA:\n{body}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bare_merge_only_stamps_the_library_defaults() {
    // With no positional arguments the campaign takes its shape from
    // `CampaignConfig::default()`; `--merge-only` runs nothing, so the
    // merge defers with every shard missing.
    let dir = fresh_dir("defaults");
    let out = bin()
        .args(["--merge-only", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("merge deferred: 0/8"), "{stdout}");
    let defaults = anneal_arena::CampaignConfig::default();
    let meta = String::from_utf8(read(&dir, "campaign.meta")).unwrap();
    let body = anneal_fleet::unseal(&meta).expect("campaign.meta is sealed");
    for expected in [
        format!("instances={}", defaults.instances),
        format!("shards={}", defaults.shards),
        format!("seed={}", defaults.base_seed),
    ] {
        assert!(
            body.lines().any(|l| l == expected),
            "campaign.meta must record `{expected}`:\n{body}"
        );
    }
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
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "seed mismatch must abort: {stderr}"
    );
    assert!(stderr.contains("different parameters"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Refuses, before any shard runs, a directory whose `campaign.meta`
/// holds `body`, when resumed with `extra` args.
fn assert_stamp_refused(name: &str, body: &str, extra: &[&str]) {
    let dir = fresh_dir(name);
    std::fs::write(dir.join("campaign.meta"), anneal_fleet::seal(body)).unwrap();
    let out = campaign(&dir, extra).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("different parameters"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!dir.join("shard-000.csv").exists(), "no shard may run");
    let _ = std::fs::remove_dir_all(dir);
}

/// A directory stamped by the turbo lane that annealed every packet
/// (no packet line) is refused: its shards would merge cleanly with
/// shards whose packets are solved.
#[test]
fn directory_from_the_annealing_only_turbo_lane_is_refused() {
    assert_stamp_refused(
        "pre-enum",
        "instances=10\nshards=3\nseed=7\nportfolio=fast\nsa-lane=turbo\n",
        &[],
    );
}

/// A directory stamped by the turbo lane that enumerated packets with
/// at most 24 mappings and annealed the rest (`packet-enum=24`) is
/// refused for the same reason.
#[test]
fn directory_from_the_enumerating_turbo_lane_is_refused() {
    assert_stamp_refused(
        "enum",
        "instances=10\nshards=3\nseed=7\nportfolio=fast\nsa-lane=turbo\npacket-enum=24\n",
        &[],
    );
}

/// A `--full` run stamps `static-sa=eq1`, and a `--full` directory
/// stamped without it (written when static SA's turbo lane accepted by
/// a lookup table) is refused: its static-sa column would merge cleanly
/// with cells annealed under eq. 1.
#[test]
fn full_directory_from_the_table_accepting_static_sa_is_refused() {
    let dir = fresh_dir("full-stamp");
    run_campaign(&dir, &["--full"]);
    let meta = String::from_utf8(read(&dir, "campaign.meta")).unwrap();
    let body = anneal_fleet::unseal(&meta).expect("campaign.meta is sealed");
    assert!(
        body.ends_with("packet-solve=assignment\nstatic-sa=eq1\n"),
        "{body}"
    );
    let _ = std::fs::remove_dir_all(dir);
    assert_stamp_refused(
        "table-static-sa",
        "instances=10\nshards=3\nseed=7\nportfolio=standard\nsa-lane=turbo\npacket-solve=assignment\n",
        &["--full"],
    );
}

#[test]
fn corrupt_campaign_meta_is_refused_without_a_panic() {
    let dir = fresh_dir("meta-rot");
    std::fs::write(
        dir.join("campaign.meta"),
        "instances=10\n#checksum,fnv1a64,0\n",
    )
    .unwrap();
    let out = campaign(&dir, &[]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed checksum validation"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

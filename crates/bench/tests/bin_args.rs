//! Argument handling of the harness binaries that read arguments
//! (`arena`, `campaign`, `corpus_gen`, `lane_study`, `random_survey`,
//! `scaling`, `table2`, all on `anneal_bench::cli`): anything a binary
//! does not understand is refused with the usage text and exit status
//! 2, like the root `annealsched` CLI, instead of panicking or silently
//! running with defaults. `arena --metrics PATH` creates a missing
//! directory instead of panicking, and `lane_study` run away from the
//! repository root names `corpus/` and exits 1.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    let exe = match bin {
        "arena" => env!("CARGO_BIN_EXE_arena"),
        "campaign" => env!("CARGO_BIN_EXE_campaign"),
        "lane_study" => env!("CARGO_BIN_EXE_lane_study"),
        "corpus_gen" => env!("CARGO_BIN_EXE_corpus_gen"),
        "random_survey" => env!("CARGO_BIN_EXE_random_survey"),
        "scaling" => env!("CARGO_BIN_EXE_scaling"),
        "table2" => env!("CARGO_BIN_EXE_table2"),
        other => panic!("no binary {other}"),
    };
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"))
}

/// A campaign directory that must stay empty: a refused invocation
/// never creates it.
fn untouched_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("annealsched-args-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    let dir = untouched_dir();
    let d = dir.to_str().unwrap();
    let cases: &[(&str, &[&str])] = &[
        ("arena", &["2", "7", "--bogus"]),
        ("arena", &["2x", "7"]),
        ("arena", &["2", "seven"]),
        ("arena", &["2", "7", "9"]),
        ("arena", &["2", "7", "--sa-lane", "exact"]),
        ("arena", &["2", "7", "--evaluator", "full"]),
        ("arena", &["2", "7", "--threads"]),
        ("arena", &["2", "7", "--threads", "two"]),
        ("arena", &["2", "7", "--metrics"]),
        ("arena", &["0", "7"]),
        // the multi-process fleet flags are gone
        ("campaign", &["4", "2", "--dir", d, "--procs", "2"]),
        ("campaign", &["4", "2", "--dir", d, "--join", "d"]),
        ("campaign", &["4", "2", "--dir", d, "--lease-ms", "5"]),
        ("campaign", &["4", "2", "--dir", d, "--poll-ms", "5"]),
        (
            "campaign",
            &["4", "2", "--dir", d, "--stall-timeout-ms", "5"],
        ),
        ("campaign", &["4", "2", "--dir", d, "--no-merge"]),
        // so are the retry budget and chaos injection
        ("campaign", &["4", "2", "--dir", d, "--max-attempts", "0"]),
        ("campaign", &["4", "2", "--dir", d, "--max-attempts", "x"]),
        ("campaign", &["4", "2", "--dir", d, "--chaos", "stall=5"]),
        ("campaign", &["4", "2", "--dir", d, "--chaos"]),
        ("campaign", &["4", "2", "--dir", d, "--threads", "two"]),
        ("campaign", &["4", "2", "--dir", d, "--shard", "2"]),
        ("campaign", &["4", "2", "7", "9", "--dir", d]),
        ("campaign", &["four", "--dir", d]),
        ("campaign", &["1", "2", "--dir", d]),
        ("campaign", &["4", "2", "--dir", d, "--bogus"]),
        ("lane_study", &["--bogus"]),
        ("lane_study", &["--seeds", "x"]),
        ("lane_study", &["--seeds", "0"]),
        ("lane_study", &["--smoke", "extra"]),
        ("lane_study", &["--out"]),
        ("corpus_gen", &["--bogus"]),
        ("corpus_gen", &["--dir"]),
        ("corpus_gen", &["--dir", d, "extra"]),
        ("random_survey", &["3", "2", "junk"]),
        ("random_survey", &["three"]),
        ("random_survey", &["0"]),
        ("random_survey", &["3", "0"]),
        ("random_survey", &["--bogus"]),
        // a misspelt --fast must not run the full sweep
        ("scaling", &["--fsat"]),
        ("scaling", &["--fast", "extra"]),
        ("table2", &["--fsat"]),
        ("table2", &["--fast", "extra"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {bin}")),
            "{bin} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
    }
    assert!(
        !dir.exists(),
        "a refused campaign or corpus_gen must not create its directory"
    );
}

#[test]
fn help_prints_usage_and_exits_0() {
    for bin in [
        "arena",
        "campaign",
        "lane_study",
        "corpus_gen",
        "random_survey",
        "scaling",
        "table2",
    ] {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.contains(&format!("usage: {bin}")), "{bin} --help");
        for removed in ["--chaos", "--max-attempts", "--procs"] {
            assert!(!usage.contains(removed), "{bin} --help: {usage}");
        }
    }
}

/// `lane_study` reads `corpus/` from the working directory; without it,
/// or with an empty one, it names the directory and exits 1 before
/// studying anything.
#[test]
fn lane_study_without_a_corpus_exits_1() {
    let cwd = std::env::temp_dir().join(format!("annealsched-lane-cwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    for make_corpus in [false, true] {
        if make_corpus {
            std::fs::create_dir(cwd.join("corpus")).unwrap();
        }
        let out = Command::new(env!("CARGO_BIN_EXE_lane_study"))
            .arg("--smoke")
            .current_dir(&cwd)
            .output()
            .expect("run lane_study");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("corpus/"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(cwd);
}

/// `arena --metrics PATH` creates `PATH`'s directory when it does not
/// exist yet, as the results directory is created, and writes both
/// metrics files.
#[test]
fn arena_metrics_into_a_missing_directory() {
    let cwd =
        std::env::temp_dir().join(format!("annealsched-arena-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_arena"))
        .args(["1", "7", "--null-clock", "--metrics", "nodir/M.json"])
        .current_dir(&cwd)
        .output()
        .expect("run arena");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    for file in ["nodir/M.json", "nodir/M.det.json", "results/arena.csv"] {
        let len = std::fs::metadata(cwd.join(file)).map_or(0, |m| m.len());
        assert!(len > 0, "{file} missing or empty");
    }
    let _ = std::fs::remove_dir_all(cwd);
}

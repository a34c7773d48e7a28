//! Argument handling of the harness binaries that take flags (`arena`,
//! `campaign`, `lane_study`, all on `anneal_bench::cli`): anything a
//! binary does not understand is refused with the usage text and exit
//! status 2, like the root `annealsched` CLI, instead of panicking or
//! silently running with defaults.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    let exe = match bin {
        "arena" => env!("CARGO_BIN_EXE_arena"),
        "campaign" => env!("CARGO_BIN_EXE_campaign"),
        "lane_study" => env!("CARGO_BIN_EXE_lane_study"),
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
        "a refused campaign must not create its directory"
    );
}

#[test]
fn help_prints_usage_and_exits_0() {
    for bin in ["arena", "campaign", "lane_study"] {
        let out = run(bin, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{bin} --help");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(&format!("usage: {bin}")),
            "{bin} --help"
        );
    }
}

//! The `arena` binary's argument handling: anything it does not
//! understand is refused with the usage text and exit status 2, like
//! the root `annealsched` CLI, instead of silently running a default
//! tournament.

use std::process::{Command, Output};

fn arena(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_arena"))
        .args(args)
        .output()
        .expect("run arena binary")
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [
        &["2", "7", "--bogus"][..],
        &["2x", "7"],
        &["2", "seven"],
        &["2", "7", "9"],
        &["2", "7", "--sa-lane", "exact"],
        &["2", "7", "--evaluator", "full"],
        &["2", "7", "--threads"],
        &["2", "7", "--threads", "two"],
        &["2", "7", "--metrics"],
    ] {
        let out = arena(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "arena {args:?}: {stderr}");
        assert!(stderr.contains("usage: arena"), "arena {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "arena {args:?} ran anyway");
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    let out = arena(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: arena"));
}

//! The workspace lint rules that clippy cannot state (docs/LINTS.md).
//! Clippy enforces the others through `clippy.toml` and the deny block
//! at each library crate root; these tests keep that block and the
//! unsafe-code rules in place (L3), keep every lint escape an
//! `#[expect]` with a reason, and keep the fast path's public API under
//! its equality oracles (L4).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The lints every library crate root denies.
const DENIED: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
];

/// `path` relative to the repository root, for messages.
fn rel(path: &Path) -> String {
    path.strip_prefix(ROOT)
        .unwrap_or(path)
        .display()
        .to_string()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", rel(path)))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", rel(dir))) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// The `src/` directory of the root package and of every `crates/*` member.
fn source_dirs() -> Vec<PathBuf> {
    let crates = fs::read_dir(Path::new(ROOT).join("crates")).expect("crates/");
    let members = crates.map(|e| e.expect("directory entry").path().join("src"));
    let mut dirs: Vec<PathBuf> = members.filter(|src| src.is_dir()).collect();
    dirs.push(Path::new(ROOT).join("src"));
    dirs
}

/// Every `.rs` file of the workspace's own code: the library and binary
/// sources, integration tests, benches and examples. The vendored
/// shims (`vendor/`) and the benchmark harness (`perfbench/`, its own
/// workspace) are not ours to lint.
fn workspace_rust_files() -> Vec<PathBuf> {
    let root = Path::new(ROOT);
    let mut dirs = source_dirs();
    for member in fs::read_dir(root.join("crates")).expect("crates/") {
        let member = member.expect("directory entry").path();
        dirs.extend([member.join("tests"), member.join("benches")]);
    }
    dirs.extend([root.join("tests"), root.join("examples")]);
    dirs.iter()
        .filter(|d| d.is_dir())
        .flat_map(|d| rust_files(d))
        .collect()
}

/// The line with its `//` comment, if any, cut off.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

/// The line's code without its comment and without the text of its
/// string literals, so that a message or a pattern naming a keyword
/// does not count as using it.
fn code_outside_strings(line: &str) -> String {
    let mut out = String::new();
    let mut in_string = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_string => {
                chars.next();
            }
            '"' => in_string = !in_string,
            '/' if !in_string && chars.peek() == Some(&'/') => break,
            _ if !in_string => out.push(c),
            _ => {}
        }
    }
    out
}

/// The identifiers (and numbers) of `text`, comments excluded.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(code)
        .flat_map(|l| l.split(|c: char| !(c.is_alphanumeric() || c == '_')))
        .filter(|w| !w.is_empty())
}

/// L3: each library crate root forbids unsafe code and denies the
/// panic lints and escapes without a reason, so neither can go by
/// deleting one attribute.
#[test]
fn library_roots_forbid_unsafe_and_deny_panics() {
    let mut faults = Vec::new();
    for lib in source_dirs().iter().map(|src| src.join("lib.rs")) {
        if !lib.is_file() {
            continue;
        }
        let text = read(&lib);
        let flat: String = text
            .lines()
            .map(code)
            .collect::<String>()
            .split_whitespace()
            .collect();
        if !flat.contains("#![forbid(unsafe_code)]") {
            faults.push(format!("{}: no #![forbid(unsafe_code)]", rel(&lib)));
        }
        let denied: BTreeSet<&str> = flat
            .split("#![deny(")
            .skip(1)
            .filter_map(|block| block.split(")]").next())
            .flat_map(|block| block.split(','))
            .collect();
        for lint in DENIED.iter().filter(|l| !denied.contains(*l)) {
            faults.push(format!("{}: does not deny {lint}", rel(&lib)));
        }
    }
    assert!(faults.is_empty(), "{faults:#?}");
}

/// L3: every `unsafe` in the workspace's own code (binaries, tests,
/// benches and examples included, where no crate-level forbid reaches)
/// has a `// SAFETY:` comment on its line or within the three lines
/// above.
#[test]
fn unsafe_code_carries_a_safety_comment() {
    let mut undocumented = Vec::new();
    for path in workspace_rust_files() {
        let text = read(&path);
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let documented = || {
                lines[i.saturating_sub(3)..=i]
                    .iter()
                    .any(|l| l.contains("SAFETY:"))
            };
            if words(&code_outside_strings(line)).any(|w| w == "unsafe") && !documented() {
                undocumented.push(format!("{}:{}", rel(&path), i + 1));
            }
        }
    }
    assert!(undocumented.is_empty(), "{undocumented:#?}");
}

/// A lint escape is `#[expect(clippy::<lint>, reason = "…")]`, which
/// clippy reports once it is stale, never `#[allow]` or `#![allow]`,
/// which stays silent. The library crate roots deny
/// `clippy::allow_attributes`; this covers every other target.
#[test]
fn no_allow_attributes() {
    let mut allows = Vec::new();
    for path in workspace_rust_files() {
        for (i, line) in read(&path).lines().enumerate() {
            let flat: String = code_outside_strings(line).split_whitespace().collect();
            if flat.contains("#[allow(") || flat.contains("#![allow(") {
                allows.push(format!("{}:{}", rel(&path), i + 1));
            }
        }
    }
    assert!(
        allows.is_empty(),
        "use #[expect(.., reason = ..)]: {allows:#?}"
    );
}

/// L4: every bare-`pub` fn of the fast-path kernel and the fixed-mapping
/// evaluator is named in an equality-oracle test file, so the
/// bit-identical contract cannot lose coverage when an entry point is
/// added.
#[test]
fn fast_path_pub_fns_are_named_by_an_oracle_test() {
    let root = Path::new(ROOT);
    let oracle_dirs = [
        "crates/sim/tests",
        "crates/core/tests",
        "crates/bench/tests",
        "crates/bench/benches",
        "tests",
    ];
    let oracle_text: Vec<String> = oracle_dirs
        .iter()
        .flat_map(|d| rust_files(&root.join(d)))
        .filter(|p| *p != root.join(file!()))
        .map(|p| read(&p))
        .collect();
    let named: BTreeSet<&str> = oracle_text.iter().flat_map(|t| words(t)).collect();
    let mut unnamed = Vec::new();
    for target in ["crates/sim/src/fastpath.rs", "crates/sim/src/eval.rs"] {
        let text = read(&root.join(target));
        let mut fns = 0;
        for (i, line) in text.lines().enumerate() {
            let Some(mut rest) = line.trim_start().strip_prefix("pub ") else {
                continue;
            };
            for qualifier in ["const ", "async ", "unsafe "] {
                rest = rest.strip_prefix(qualifier).unwrap_or(rest);
            }
            let Some(name) = rest.strip_prefix("fn ").and_then(|sig| words(sig).next()) else {
                continue;
            };
            fns += 1;
            if !named.contains(name) {
                unnamed.push(format!("{target}:{}: pub fn {name}", i + 1));
            }
        }
        assert!(fns > 0, "{target} has no pub fn: is the scan broken?");
    }
    assert!(
        unnamed.is_empty(),
        "not named by any oracle test: {unnamed:#?}"
    );
}

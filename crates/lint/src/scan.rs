//! Workspace discovery and the per-file source model.
//!
//! The scan covers `crates/*/src/**/*.rs` plus the root package's
//! `src/**/*.rs`. It deliberately excludes:
//!
//! * `vendor/` — offline API shims standing in for crates.io
//!   dependencies; they intentionally contain things the lints deny
//!   (criterion's wall-clock timers, for instance) and are not part of
//!   the determinism contract;
//! * `tests/`, `benches/`, `examples/` directories — test code may
//!   panic freely, and benches must read the clock. (The oracle pass
//!   *reads* test files, but never lints them.)
//!
//! Within a scanned file, items under `#[cfg(test)]` / `#[test]` are
//! mapped to *test spans* that the panic and nondeterminism passes
//! skip.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::allows::{self, Allow};
use crate::diag::{Diagnostic, Pass};
use crate::lexer::{self, Lexed, Tok};

/// Whether a file is library code or a binary root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Lib,
    Bin,
}

/// One lexed source file with everything the passes need.
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// The crate directory name (`graph`, `sim`, …; `.` for the root
    /// package).
    pub crate_name: String,
    pub kind: FileKind,
    pub lexed: Lexed,
    /// Inclusive line spans of `#[cfg(test)]` / `#[test]` items.
    pub test_spans: Vec<(u32, u32)>,
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// True when `line` is inside test-gated code.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Linter configuration. `for_workspace` wires in this repository's
/// policy; fixtures construct their own.
pub struct Config {
    pub root: PathBuf,
    /// Crate directory names whose code may not read clocks, the
    /// environment, or thread identity (the replayable hot path).
    pub hot_crates: Vec<String>,
    /// Crate directory names that may use `std::time` directly — the
    /// sanctioned home of wall-clock access behind the
    /// `anneal_obs::Clock` trait. Every other crate outside
    /// `hot_crates` (which deny clocks entirely) must take a `Clock`
    /// instead of reading ambient time.
    pub clock_sanctioned_crates: Vec<String>,
    /// Files whose `pub fn`s must each be referenced from at least one
    /// oracle test file (workspace-relative paths).
    pub oracle_targets: Vec<String>,
    /// Directories (workspace-relative) holding the oracle test files.
    pub oracle_test_dirs: Vec<String>,
}

impl Config {
    /// The annealsched workspace policy.
    pub fn for_workspace(root: &Path) -> Config {
        Config {
            root: root.to_path_buf(),
            hot_crates: ["core", "sim", "graph", "arena"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            // `fleet` is sanctioned for `lease::unix_time_ms` only, which
            // the benchmark harness's lease probe calls; no campaign
            // code path reads it, and no science artifact carries it.
            clock_sanctioned_crates: vec!["obs".to_string(), "fleet".to_string()],
            oracle_targets: vec![
                "crates/sim/src/fastpath.rs".into(),
                "crates/sim/src/eval.rs".into(),
            ],
            oracle_test_dirs: vec![
                "crates/sim/tests".into(),
                "crates/core/tests".into(),
                "crates/bench/tests".into(),
                "crates/bench/benches".into(),
                "tests".into(),
            ],
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted by path for a
/// deterministic scan order.
pub fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lists the crate source roots to scan: `(crate_name, src_dir)`.
pub fn crate_src_roots(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut roots = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            let src = d.join("src");
            if src.is_dir() {
                let name = d
                    .file_name()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                roots.push((name, src));
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        roots.push((".".to_string(), root_src));
    }
    Ok(roots)
}

/// Loads and lexes every scanned file. Unlexable files become `lexer`
/// diagnostics rather than aborting the run.
pub fn load_workspace(cfg: &Config) -> io::Result<(Vec<SourceFile>, Vec<Diagnostic>)> {
    let mut files = Vec::new();
    let mut diags = Vec::new();
    for (crate_name, src_dir) in crate_src_roots(&cfg.root)? {
        for path in rust_files(&src_dir)? {
            let rel = rel_path(&cfg.root, &path);
            let in_bin = path
                .strip_prefix(&src_dir)
                .ok()
                .is_some_and(|p| p.starts_with("bin"));
            let kind = if in_bin || path.file_name().is_some_and(|f| f == "main.rs") {
                FileKind::Bin
            } else {
                FileKind::Lib
            };
            let text = fs::read_to_string(&path)?;
            match lexer::lex(&text) {
                Ok(lexed) => {
                    let test_spans = test_spans(&lexed.toks);
                    let (allows, mut allow_diags) =
                        allows::collect(&rel, &lexed.comments, &lexed.toks);
                    diags.append(&mut allow_diags);
                    files.push(SourceFile {
                        rel,
                        crate_name: crate_name.clone(),
                        kind,
                        lexed,
                        test_spans,
                        allows,
                    });
                }
                Err(e) => diags.push(Diagnostic {
                    file: rel,
                    line: e.line,
                    pass: Pass::Lexer,
                    msg: e.msg,
                }),
            }
        }
    }
    Ok((files, diags))
}

/// Workspace-relative, `/`-separated path for diagnostics.
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

/// Finds the inclusive line spans of items gated behind `#[cfg(test)]`
/// or `#[test]` (any `cfg(…)` that mentions `test` without `not`
/// counts). The span runs from the attribute to the end of the item it
/// decorates: the matching `}` of the first base-depth `{`, or the
/// first base-depth `;`.
pub fn test_spans(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        // Collect the attribute's identifiers up to the matching `]`.
        let attr_line = toks[i].line;
        let mut j = i + 2;
        let mut brackets = 1i32;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() && brackets > 0 {
            let t = &toks[j];
            if t.is_punct('[') {
                brackets += 1;
            } else if t.is_punct(']') {
                brackets -= 1;
            } else if t.kind == crate::lexer::TokKind::Ident {
                idents.push(&t.text);
            }
            j += 1;
        }
        let gates_test = idents.first() == Some(&"test")
            || (idents.first() == Some(&"cfg")
                && idents.contains(&"test")
                && !idents.contains(&"not"));
        if !gates_test {
            i = j;
            continue;
        }
        // Skip any further attributes, then span the decorated item.
        let mut k = j;
        while k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
            let mut b = 1i32;
            k += 2;
            while k < toks.len() && b > 0 {
                if toks[k].is_punct('[') {
                    b += 1;
                } else if toks[k].is_punct(']') {
                    b -= 1;
                }
                k += 1;
            }
        }
        if k >= toks.len() {
            spans.push((attr_line, toks[toks.len() - 1].line));
            break;
        }
        let base = toks[k].depth;
        let mut end_line = toks[k].line;
        let mut m = k;
        while m < toks.len() {
            let t = &toks[m];
            if t.depth < base {
                break;
            }
            if t.depth == base && t.is_punct(';') {
                end_line = t.line;
                m += 1;
                break;
            }
            if t.depth == base && t.is_punct('{') {
                let mut q = m + 1;
                while q < toks.len() {
                    if toks[q].depth == base && toks[q].is_punct('}') {
                        break;
                    }
                    q += 1;
                }
                end_line = toks.get(q).map_or(t.line, |t| t.line);
                m = q + 1;
                break;
            }
            end_line = t.line;
            m += 1;
        }
        spans.push((attr_line, end_line));
        i = m;
    }
    spans
}

//! Host and run metadata recorded with every result, so numbers from
//! different hosts or sources are never compared silently.

use std::path::Path;
use std::process::Command;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Git revision of the checkout, or `unknown` outside a repository.
    pub git: String,
    /// FNV-1a digest of the program's sources (`crates/*/src`, `src`,
    /// manifests), which identifies the measured code where git cannot.
    pub source_digest: String,
}

/// Available parallelism (1 if it cannot be read).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Host {
    /// Reads the metadata of this host and of the checkout at `root`.
    pub fn detect(root: &Path) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: nproc(),
            cpu,
            rustc,
            git: git_revision(root).unwrap_or_else(|| "unknown".into()),
            source_digest: format!("{:016x}", source_digest(root)),
        }
    }

    /// One JSON object with the host fields plus the run's workload,
    /// seed and trace mode.
    pub fn json(&self, workload: &str, seed: u64, trace: bool) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\", \"source_digest\": \"{}\"}}",
            u8::from(trace),
            self.nproc,
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.git),
            self.source_digest
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Resolves `.git/HEAD` by hand (no `git` process, no repository
/// needed): a detached hash, a loose ref, or a packed ref.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
}

/// FNV-1a over the relative paths and contents of every `.rs` file and
/// manifest under `crates/*/src`, `src`, plus the root manifest and
/// lock file, visited in sorted order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect(&root.join("src"), &mut files);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            collect(&e.path().join("src"), &mut files);
            files.push(e.path().join("Cargo.toml"));
        }
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        if let Ok(content) = std::fs::read(f) {
            bytes.extend_from_slice(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            bytes.extend_from_slice(&content);
        }
    }
    anneal_fleet::fnv1a64(&bytes)
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

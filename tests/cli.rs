//! CLI smoke tests: the `annealsched` binary schedules built-in
//! workloads and user `.tg` files end to end.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_annealsched"))
}

#[test]
fn schedules_builtin_workload() {
    for topo in ["hypercube:3", "sharedbus:4"] {
        let out = bin()
            .args(["@ne", "--topo", topo, "--scheduler", "sa"])
            .output()
            .expect("run binary");
        assert!(
            out.status.success(),
            "{topo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("95 tasks"));
        assert!(stdout.contains("speedup"));
        assert!(stdout.contains("simulated-annealing"));
    }
}

#[test]
fn schedules_tg_file_with_gantt() {
    let dir = std::env::temp_dir().join("annealsched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.tg");
    std::fs::write(&path, "task 0 10000\ntask 1 20000\nedge 0 1 4000\n").unwrap();
    let out = bin()
        .args([
            path.to_str().unwrap(),
            "--topo",
            "bus:2",
            "--scheduler",
            "hlf",
            "--gantt",
        ])
        .output()
        .expect("run binary");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 tasks"));
    assert!(stdout.contains("compute")); // gantt legend
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn no_comm_flag_and_alt_schedulers() {
    for sched in ["hlf", "mct", "fifo", "lpt", "sa"] {
        let out = bin()
            .args(["@mm", "--topo", "ring:9", "--scheduler", sched, "--no-comm"])
            .output()
            .expect("run binary");
        assert!(out.status.success(), "{sched}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("0 messages"), "{sched}: {stdout}");
    }
}

#[test]
fn rejects_bad_arguments() {
    // Unknown, degenerate and oversized hosts are usage errors (exit 2),
    // never builder panics (exit 101) or allocation aborts (exit 134).
    for topo in [
        "klein-bottle:4",
        "ring:1",
        "ring:0",
        "bus:0",
        "star:1",
        "mesh:0x3",
        "torus:1x1",
        "linear:0",
        "sharedbus:0",
        "hypercube:20",
    ] {
        let out = bin().args(["@ne", "--topo", topo]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{topo}: {stderr}");
        assert!(!stderr.contains("panicked"), "{topo}: {stderr}");
    }
    // So is a balance weight outside [0, 1].
    for wb in ["2", "-0.1", "NaN"] {
        let out = bin().args(["@ne", "--wb", wb]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--wb {wb}: {stderr}");
        assert!(!stderr.contains("panicked"), "--wb {wb}: {stderr}");
    }
    let out = bin().output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn dot_export_writes_file() {
    let dir = std::env::temp_dir().join("annealsched-cli-dot");
    std::fs::create_dir_all(&dir).unwrap();
    let dot = dir.join("out.dot");
    let out = bin()
        .args(["@fft", "--dot", dot.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&dot).unwrap();
    assert!(text.starts_with("digraph"));
    let _ = std::fs::remove_dir_all(dir);
}

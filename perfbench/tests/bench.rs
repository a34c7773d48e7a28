//! Tests of the benchmark itself: metric names and sets, the percentile
//! helper, seeds, and that tracing never changes a makespan.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use anneal_arena::campaign_instance;
use perfbench::metrics::{self, valid_name, END_TO_END, EXTRA};
use perfbench::paper::sa_seed;
use perfbench::stats::percentile;
use perfbench::{run, Outcome, RunCfg, Sizes, Workload};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// Builds the `campaign` binary once, into the target directory this
/// test executable was built in, and returns its path.
fn campaign_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let exe = std::env::current_exe().expect("test executable path");
        // <target>/<profile>/deps/<test>
        let target = exe
            .ancestors()
            .nth(3)
            .expect("target directory")
            .to_path_buf();
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .current_dir(repo_root())
            .env("CARGO_TARGET_DIR", &target)
            .args([
                "build",
                "--release",
                "--quiet",
                "--offline",
                "-p",
                "anneal-bench",
                "--bin",
                "campaign",
            ])
            .status()
            .expect("run cargo");
        assert!(status.success(), "building the campaign binary failed");
        target.join("release").join("campaign")
    })
    .clone()
}

fn tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> RunCfg {
    RunCfg {
        workload,
        seed,
        seconds: 0.0,
        trace,
        campaign_bin: campaign_bin(),
        work_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}")),
        sizes: Sizes::tiny(),
        threads: 2,
    }
}

fn run_ok(cfg: &RunCfg) -> Outcome {
    let out = run(cfg);
    assert!(
        out.correct(),
        "{} seed {} trace {}: {:?}",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace,
        out.errors
    );
    out
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let all: Vec<_> = END_TO_END
        .iter()
        .chain(EXTRA)
        .copied()
        .chain(metrics::per_layer())
        .collect();
    let mut seen = BTreeSet::new();
    for d in &all {
        assert!(valid_name(d.name), "bad metric name {:?}", d.name);
        assert!(seen.insert(d.name), "metric {} declared twice", d.name);
        assert!(
            !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?} of {}",
            d.unit,
            d.name
        );
    }
    assert!(!valid_name("a b") && !valid_name(".x") && !valid_name(""));
}

/// Names listed under `"name"` keys between two top-level keys of
/// BENCHMARK.json.
fn names_between(text: &str, from: &str, to: Option<&str>) -> Vec<String> {
    let start = text.find(&format!("\"{from}\"")).expect("section present");
    let end = to.map_or(text.len(), |t| {
        text.find(&format!("\"{t}\"")).expect("section present")
    });
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_workloads_emit() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    // paper-sa runs but is not bounded: host phases move its medians
    // beyond the bounds (see README.md).
    let workloads: Vec<&str> = Workload::ALL[1..].iter().map(|w| w.name()).collect();
    assert_eq!(
        names_between(&text, "workloads", Some("end_to_end")),
        workloads
    );
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(names_between(&text, "end_to_end", Some("per_layer")), e2e);
    let layers: Vec<&str> = metrics::per_layer().iter().map(|d| d.name).collect();
    assert_eq!(names_between(&text, "per_layer", None), layers);
}

#[test]
fn each_workload_emits_exactly_its_declared_metrics() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run_ok(&tiny(
                workload,
                5,
                trace,
                &format!("emit-{}-{trace}", workload.name()),
            ));
            let declared = metrics::declared(trace);
            let json = out
                .report
                .json(&declared)
                .expect("every declared metric measured");
            for d in &declared {
                assert!(
                    json.contains(&format!("\"{}\": {{\"value\": ", d.name))
                        && json.contains(&format!("\"unit\": \"{}\"", d.unit)),
                    "{} lacks {}",
                    workload.name(),
                    d.name
                );
            }
            let other = metrics::declared(!trace);
            for name in out.report.names() {
                assert!(
                    !other.iter().any(|d| d.name == name),
                    "{} trace {trace} also measured {name}",
                    workload.name()
                );
            }
            if !trace {
                for d in END_TO_END {
                    let v = out.report.get(d.name).expect("measured");
                    assert!(v > 0.0, "{} reads {v} on {}", d.name, workload.name());
                }
            }
        }
    }
}

#[test]
fn percentile_refuses_thin_tails() {
    let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
    assert!(percentile(&samples(999), 99.0).is_err());
    assert_eq!(percentile(&samples(1000), 99.0), Ok(989.0));
    assert!(percentile(&samples(19), 50.0).is_err());
    assert_eq!(percentile(&samples(20), 50.0), Ok(9.0));
    assert!(percentile(&[], 50.0).is_err());
}

#[test]
fn changing_the_seed_changes_inputs_but_not_the_metric_set() {
    assert_ne!(sa_seed(1, 3, 0), sa_seed(2, 3, 0));
    assert_ne!(
        campaign_instance(1, 7).graph.loads(),
        campaign_instance(2, 7).graph.loads()
    );
    for workload in [Workload::PaperSa, Workload::CampaignFast] {
        let a = run_ok(&tiny(
            workload,
            1,
            false,
            &format!("seed-{}-a", workload.name()),
        ));
        let b = run_ok(&tiny(
            workload,
            2,
            false,
            &format!("seed-{}-b", workload.name()),
        ));
        assert_ne!(
            a.digest,
            b.digest,
            "{}: seeds 1 and 2 gave the same makespans",
            workload.name()
        );
        assert_eq!(a.report.names(), b.report.names());
    }
}

#[test]
fn tracing_never_changes_a_makespan() {
    for workload in [
        Workload::PaperSa,
        Workload::CampaignFast,
        Workload::CampaignFull,
    ] {
        let plain = run_ok(&tiny(
            workload,
            3,
            false,
            &format!("trace-{}-0", workload.name()),
        ));
        let traced = run_ok(&tiny(
            workload,
            3,
            true,
            &format!("trace-{}-1", workload.name()),
        ));
        assert_eq!(plain.digest, traced.digest, "{}", workload.name());
        assert!(
            !traced.spans.is_empty(),
            "{} recorded no spans",
            workload.name()
        );
    }
}

//! Benchmark runner: runs one workload and prints every metric by name
//! and unit, then one JSON result line.
//!
//! Usage: `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--campaign-bin PATH] [--work-dir DIR]`. Normally started through
//! `perfbench/run.sh`, which builds the `campaign` binary and this
//! runner first.
//!
//! The last line of standard output is
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only when every check passed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::host::{nproc, Host};
use perfbench::metrics::{self, EXTRA};
use perfbench::{RunCfg, Sizes, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
         [--campaign-bin PATH] [--work-dir DIR]\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse(argv: &[String]) -> Result<RunCfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut campaign_bin = PathBuf::from("target/release/campaign");
    let mut work_dir = PathBuf::from(".perfbench_work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be within 0..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                })
            }
            "--campaign-bin" => campaign_bin = PathBuf::from(value()?),
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunCfg {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        campaign_bin,
        work_dir,
        sizes: Sizes::standard(),
        threads: nproc(),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if !cfg.campaign_bin.is_file() && cfg.workload != Workload::PaperSa {
        eprintln!(
            "perfbench: no campaign binary at {} (build it with perfbench/run.sh)",
            cfg.campaign_bin.display()
        );
        return ExitCode::from(2);
    }
    let host = Host::detect(std::path::Path::new("."));
    let host_json = host.json(cfg.workload.name(), cfg.seed, cfg.trace);
    println!("# host {host_json}");

    let out = perfbench::run(&cfg);
    for line in &out.notes {
        println!("# {line}");
    }
    let declared = metrics::declared(cfg.trace);
    print!("{}", out.report.table(&declared));
    if !cfg.trace {
        print!("{}", out.report.table(EXTRA));
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let (metrics_json, mut correct) = match out.report.json(&declared) {
        Ok(j) => (j, out.correct()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ("{}".to_string(), false)
        }
    };
    correct &= out.correct();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        out.attempted.max(1),
        out.failed
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    let record = format!(
        "{{\"host\": {host_json}, \"digest\": \"{:016x}\", \"result\": {result}}}\n",
        out.digest
    );
    let results = cfg.work_dir.join("results");
    let saved = std::fs::create_dir_all(&results)
        .and_then(|_| std::fs::write(results.join(format!("{stem}.json")), record))
        .and_then(|_| match out.spans.is_empty() {
            true => Ok(()),
            false => std::fs::write(results.join(format!("{stem}.spans.jsonl")), &out.spans),
        });
    if let Err(e) = saved {
        eprintln!("perfbench: writing {}: {e}", results.display());
        correct = false;
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

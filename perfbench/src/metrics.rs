//! The benchmark's metric declarations and the report that holds one
//! run's values.
//!
//! Every workload emits the same metric set: the [`END_TO_END`] list on
//! an untraced run and [`per_layer`] on a traced one, exactly as
//! `BENCHMARK.json` declares them. A layer a workload never calls reads
//! 0 in the traced run. [`EXTRA`] metrics are printed with the run but
//! carry no bound: they exist on one workload only, or read 0 when all
//! is well.

use std::collections::BTreeMap;

/// A metric name with its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics: what a user of the scheduler sees.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("wall_s", "s"),
    def("cells_per_s", "cells/s"),
    def("sa_vs_hlf", "ratio"),
    def("peak_rss_mb", "MB"),
];

/// Printed beside the end-to-end metrics of an untraced run, unbounded.
pub const EXTRA: &[MetricDef] = &[
    def("schedule_p50_ms", "ms"),
    def("schedule_p99_ms", "ms"),
    def("schedule_samples", "count"),
    def("static_sa_vs_hlf", "ratio"),
    def("failed_frac", "fraction"),
];

/// The campaign portfolio's scheduler names, in `Portfolio::standard()`
/// order (the fast portfolio is the first twelve).
pub const SCHEDULERS: [&str; 13] = [
    "greedy",
    "hlf",
    "hlf-list",
    "hlf-comm",
    "lpt",
    "spt",
    "fifo",
    "random-list",
    "hlf-mct",
    "heft",
    "cpop",
    "sa",
    "static-sa",
];

/// `arena.cell_ns.<scheduler>` names, parallel to [`SCHEDULERS`].
pub const CELL_NS: [&str; 13] = [
    "arena.cell_ns.greedy",
    "arena.cell_ns.hlf",
    "arena.cell_ns.hlf-list",
    "arena.cell_ns.hlf-comm",
    "arena.cell_ns.lpt",
    "arena.cell_ns.spt",
    "arena.cell_ns.fifo",
    "arena.cell_ns.random-list",
    "arena.cell_ns.hlf-mct",
    "arena.cell_ns.heft",
    "arena.cell_ns.cpop",
    "arena.cell_ns.sa",
    "arena.cell_ns.static-sa",
];

const LAYER_HEAD: &[MetricDef] = &[
    def("core.sa.packets", "count"),
    def("core.sa.moves", "count"),
    def("core.sa.accepted", "count"),
    def("core.sa.accept_ratio", "ratio"),
    def("core.sa.candidates_per_packet", "tasks"),
    def("core.sa.self_ns", "ns"),
    def("core.sa.ns_per_move", "ns"),
    def("sim.engine.events", "count"),
    def("sim.engine.self_ns", "ns"),
    def("sim.engine.ns_per_event", "ns"),
    def("sim.fastpath.events", "count"),
    def("sim.fastpath.epochs", "count"),
    def("sim.fastpath.messages", "count"),
    def("sim.fastpath.ns_per_event", "ns"),
    def("sim.fastpath.route_builds", "count"),
    def("sim.fastpath.route_hits", "count"),
    def("core.static_sa.evaluations", "count"),
    def("core.static_sa.accept_ratio", "ratio"),
    def("core.static_sa.ns_per_eval", "ns"),
    def("core.static_sa.self_ns", "ns"),
];

const LAYER_TAIL: &[MetricDef] = &[
    def("arena.fanout_ns", "ns"),
    def("core.parallel.busy_frac", "fraction"),
    def("graph.generate.ns_per_instance", "ns"),
    def("graph.generate.tasks_mean", "tasks"),
    def("fleet.artifact.commit_ns", "ns"),
    def("fleet.artifact.bytes", "bytes"),
    def("fleet.lease.claim_ns", "ns"),
    def("report.merge.scan_ns", "ns"),
    def("report.merge.merge_ns", "ns"),
    def("obs.record_ns", "ns"),
    def("obs.encode_ns", "ns"),
    def("obs.jsonl_bytes", "bytes"),
    def("obs.merge_ns", "ns"),
    def("campaign.wall_ns", "ns"),
    def("campaign.unattributed_ns", "ns"),
    def("trace.overhead_frac", "fraction"),
];

/// Per-layer metrics of a traced run, in report order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = LAYER_HEAD.to_vec();
    v.extend(CELL_NS.iter().map(|&name| def(name, "ns")));
    v.extend_from_slice(LAYER_TAIL);
    v
}

/// The metrics a run's JSON line carries.
pub fn declared(trace: bool) -> Vec<MetricDef> {
    if trace {
        per_layer()
    } else {
        END_TO_END.to_vec()
    }
}

/// Whether `name` is a well-formed metric name: it starts with a
/// letter or digit and is made of `[A-Za-z0-9_.-]`, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The values one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under a declared metric name.
    ///
    /// # Panics
    ///
    /// Panics on a name no list declares: that is a bug in a workload.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(EXTRA).any(|d| d.name == name)
            || per_layer().iter().any(|d| d.name == name);
        assert!(known, "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names of every recorded metric.
    pub fn names(&self) -> Vec<&'static str> {
        self.values.keys().copied().collect()
    }

    /// Sets every declared metric of `defs` that is still missing to 0.
    pub fn zero_missing(&mut self, defs: &[MetricDef]) {
        for d in defs {
            self.values.entry(d.name).or_insert(0.0);
        }
    }

    /// The `metrics` object of the run's JSON line: every metric of
    /// `defs`, with its unit. `Err` names a missing or non-finite value.
    pub fn json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// Human-readable table of the `defs` metrics this report holds.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            if let Some(v) = self.get(d.name) {
                out.push_str(&format!("{:<34} {:>18.6} {}\n", d.name, v, d.unit));
            }
        }
        out
    }
}

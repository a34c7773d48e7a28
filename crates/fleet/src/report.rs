//! The `fleet.report.json` failure manifest.
//!
//! A campaign that cannot complete every shard must say so loudly and
//! machine-readably: the manifest lists every shard with its terminal
//! state and attempt count, names the failed ones, and carries the
//! fleet counters. The rendering is deterministic — fixed field order,
//! shards sorted by index, counters sorted by key — so the chaos suite
//! can assert the manifest byte-for-byte for a given fault pattern.

use anneal_obs::{MetricValue, MetricsRegistry};

use crate::worker::ShardState;

/// One shard's line in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Terminal state.
    pub state: ShardState,
    /// Attempts consumed (global, across resumes).
    pub attempts: u32,
}

fn state_str(s: ShardState) -> &'static str {
    match s {
        ShardState::Done => "done",
        ShardState::Pending => "pending",
        ShardState::Failed => "failed",
    }
}

/// Renders the manifest. `status` is `"ok"` when no shard failed,
/// `"degraded"` otherwise; only `sched.fleet.*` counters from `reg`
/// are included (the manifest is about fleet behavior, not science).
pub fn render_report(shards: &[ShardReport], reg: &MetricsRegistry) -> String {
    let mut shards = shards.to_vec();
    shards.sort_by_key(|s| s.shard);
    let failed: Vec<usize> = shards
        .iter()
        .filter(|s| s.state == ShardState::Failed)
        .map(|s| s.shard)
        .collect();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"status\": \"{}\",\n",
        if failed.is_empty() { "ok" } else { "degraded" }
    ));
    out.push_str("  \"failed\": [");
    for (i, k) in failed.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&k.to_string());
    }
    out.push_str("],\n");
    out.push_str("  \"shards\": [");
    for (i, s) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"shard\": {}, \"state\": \"{}\", \"attempts\": {}}}",
            s.shard,
            state_str(s.state),
            s.attempts
        ));
    }
    if !shards.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str("  \"counters\": {");
    let fleet_counters: Vec<(&str, u64)> = reg
        .iter()
        .filter(|(k, _)| k.starts_with("sched.fleet."))
        .filter_map(|(k, v)| match v {
            MetricValue::Counter(c) => Some((k, *c)),
            _ => None,
        })
        .collect();
    for (i, (k, v)) in fleet_counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{k}\": {v}"));
    }
    if !fleet_counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_obs::Recorder as _;

    #[test]
    fn manifest_is_deterministic_and_sorted() {
        let shards = vec![
            ShardReport {
                shard: 2,
                state: ShardState::Failed,
                attempts: 5,
            },
            ShardReport {
                shard: 0,
                state: ShardState::Done,
                attempts: 1,
            },
            ShardReport {
                shard: 1,
                state: ShardState::Done,
                attempts: 2,
            },
        ];
        let mut reg = MetricsRegistry::new();
        reg.add("sched.fleet.retries", 4);
        reg.add("sched.fleet.shards_run", 7);
        reg.add("sim.events", 99); // non-fleet: excluded
        reg.hwm("sched.fleet.some_gauge", 3); // non-counter: excluded
        let a = render_report(&shards, &reg);
        let b = render_report(&shards, &reg);
        assert_eq!(a, b);
        assert!(a.contains("\"status\": \"degraded\""));
        assert!(a.contains("\"failed\": [2]"));
        // shards render sorted by index
        let p0 = a.find("\"shard\": 0").unwrap();
        let p1 = a.find("\"shard\": 1").unwrap();
        let p2 = a.find("\"shard\": 2").unwrap();
        assert!(p0 < p1 && p1 < p2);
        assert!(a.contains("\"sched.fleet.retries\": 4"));
        assert!(a.contains("\"sched.fleet.shards_run\": 7"));
        assert!(!a.contains("sim.events"));
        assert!(!a.contains("some_gauge"));
    }

    #[test]
    fn clean_manifest_is_ok() {
        let shards = vec![ShardReport {
            shard: 0,
            state: ShardState::Done,
            attempts: 1,
        }];
        let reg = MetricsRegistry::new();
        let r = render_report(&shards, &reg);
        assert!(r.contains("\"status\": \"ok\""));
        assert!(r.contains("\"failed\": []"));
        assert!(r.contains("\"counters\": {}"));
        // empty everything still renders valid JSON scaffolding
        let empty = render_report(&[], &reg);
        assert!(empty.contains("\"shards\": []"));
    }
}

//! Campaign metrics summaries: per-scheduler time share and the
//! slowest cells, as text and SVG.
//!
//! Input is the flat list of per-cell observation records a campaign's
//! `metrics-<k>.jsonl` files carry (one record per `(scheduler,
//! instance)` cell with its wall time). Rendering is deterministic for
//! a fixed input — rows sort by time share descending with name as the
//! tiebreak — but wall times themselves are `time.*`-class data:
//! meaningful only when the campaign ran with a real clock, all-zero
//! under a `NullClock`.

use crate::table::Table;

/// One cell's timing record, decoupled from `anneal-arena`'s types so
/// this crate stays dependency-light.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSample {
    /// Scheduler (portfolio entry) name.
    pub scheduler: String,
    /// Instance name.
    pub instance: String,
    /// Wall-clock time of the cell (ns).
    pub wall_ns: u64,
}

/// Per-scheduler aggregate over a set of cells.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SchedulerShare {
    name: String,
    cells: u64,
    total_ns: u64,
    max_ns: u64,
}

fn shares(cells: &[CellSample]) -> Vec<SchedulerShare> {
    let mut by_name: std::collections::BTreeMap<&str, SchedulerShare> =
        std::collections::BTreeMap::new();
    for c in cells {
        let e = by_name
            .entry(c.scheduler.as_str())
            .or_insert_with(|| SchedulerShare {
                name: c.scheduler.clone(),
                cells: 0,
                total_ns: 0,
                max_ns: 0,
            });
        e.cells += 1;
        e.total_ns += c.wall_ns;
        e.max_ns = e.max_ns.max(c.wall_ns);
    }
    let mut v: Vec<SchedulerShare> = by_name.into_values().collect();
    // heaviest first; BTreeMap already fixed the name order for ties
    v.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    v
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// The text summary: a per-scheduler time-share table followed by the
/// `top` slowest cells. Ties sort deterministically (time descending,
/// then scheduler and instance name ascending).
pub fn render_metrics_summary(cells: &[CellSample], top: usize) -> String {
    let total: u64 = cells.iter().map(|c| c.wall_ns).sum();
    let mut out = String::new();
    let mut table =
        Table::new(vec!["Scheduler", "Cells", "Total ms", "Share %", "Max ms"]).with_title(
            format!("Time share: {} cells, {} ms total", cells.len(), ms(total)),
        );
    for s in shares(cells) {
        table.row(vec![
            s.name.clone(),
            s.cells.to_string(),
            ms(s.total_ns),
            format!("{:.1}", pct(s.total_ns, total)),
            ms(s.max_ns),
        ]);
    }
    out.push_str(&table.render());

    let mut slowest: Vec<&CellSample> = cells.iter().collect();
    slowest.sort_by(|a, b| {
        b.wall_ns
            .cmp(&a.wall_ns)
            .then(a.scheduler.cmp(&b.scheduler))
            .then(a.instance.cmp(&b.instance))
    });
    slowest.truncate(top);
    let mut worst = Table::new(vec!["Scheduler", "Instance", "ms", "% of total"])
        .with_title(format!("Slowest {} cells", slowest.len()));
    for c in &slowest {
        worst.row(vec![
            c.scheduler.clone(),
            c.instance.clone(),
            ms(c.wall_ns),
            format!("{:.2}", pct(c.wall_ns, total)),
        ]);
    }
    out.push('\n');
    out.push_str(&worst.render());
    out
}

/// One-line fleet activity summary from the `sched.fleet.*` counters,
/// appended to the campaign metrics summary. `None` when the registry
/// carries no fleet counters — fault-free solo runs stay noise-free.
/// Deterministic for a fixed registry (fixed field order, zero fields
/// elided).
pub fn render_fleet_summary(reg: &anneal_obs::MetricsRegistry) -> Option<String> {
    if !reg.iter().any(|(k, _)| k.starts_with("sched.fleet.")) {
        return None;
    }
    let c = |key: &str| reg.counter(&format!("sched.fleet.{key}"));
    let mut parts = vec![format!("{} shards run", c("shards_run"))];
    for (key, label) in [
        ("retries", "retries"),
        ("run_failures", "run failures"),
        ("checksum_failures", "checksum failures"),
        ("quarantines", "quarantined"),
    ] {
        let v = c(key);
        if v > 0 {
            parts.push(format!("{v} {label}"));
        }
    }
    let faults: u64 = ["kill", "truncate", "corrupt"]
        .iter()
        .map(|k| c(&format!("faults_{k}")))
        .sum();
    if faults > 0 {
        parts.push(format!("{faults} faults injected"));
    }
    Some(format!("Fleet: {}\n", parts.join(", ")))
}

/// A horizontal bar chart of per-scheduler time share, one bar per
/// scheduler, heaviest first.
pub fn render_time_share_svg(cells: &[CellSample]) -> String {
    let shares = shares(cells);
    let total: u64 = shares.iter().map(|s| s.total_ns).sum();
    let max_ns = shares.iter().map(|s| s.total_ns).max().unwrap_or(0);
    let (label_w, bar_w, row_h, pad) = (160.0f64, 420.0f64, 22.0f64, 8.0f64);
    let width = label_w + bar_w + 120.0;
    let height = pad * 2.0 + row_h * shares.len() as f64 + 20.0;
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" font-family=\"monospace\" font-size=\"12\">\n"
    );
    svg.push_str(&format!(
        "  <text x=\"{pad}\" y=\"{:.0}\">per-scheduler wall-time share ({} ms total)</text>\n",
        pad + 10.0,
        ms(total)
    ));
    for (i, s) in shares.iter().enumerate() {
        let y = pad + 20.0 + i as f64 * row_h;
        let w = if max_ns == 0 {
            0.0
        } else {
            bar_w * s.total_ns as f64 / max_ns as f64
        };
        svg.push_str(&format!(
            "  <text x=\"{pad}\" y=\"{:.0}\">{}</text>\n",
            y + 14.0,
            s.name
        ));
        svg.push_str(&format!(
            "  <rect x=\"{label_w}\" y=\"{y:.0}\" width=\"{w:.1}\" height=\"{:.0}\" fill=\"#4878a8\"/>\n",
            row_h - 6.0
        ));
        svg.push_str(&format!(
            "  <text x=\"{:.1}\" y=\"{:.0}\">{} ms ({:.1}%)</text>\n",
            label_w + w + 6.0,
            y + 14.0,
            ms(s.total_ns),
            pct(s.total_ns, total)
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<CellSample> {
        let mk = |s: &str, i: &str, ns: u64| CellSample {
            scheduler: s.into(),
            instance: i.into(),
            wall_ns: ns,
        };
        vec![
            mk("sa", "a", 3_000_000),
            mk("sa", "b", 5_000_000),
            mk("hlf", "a", 1_000_000),
            mk("hlf", "b", 1_000_000),
        ]
    }

    #[test]
    fn summary_orders_by_share() {
        let text = render_metrics_summary(&cells(), 3);
        let sa = text.find("sa").unwrap();
        let hlf = text.find("hlf").unwrap();
        assert!(sa < hlf, "sa (8ms) must precede hlf (2ms)");
        assert!(text.contains("Slowest 3 cells"));
        assert!(text.contains("80.0"), "sa holds 80% of 10ms: {text}");
        // deterministic
        assert_eq!(text, render_metrics_summary(&cells(), 3));
    }

    #[test]
    fn all_zero_walls_render_without_dividing_by_zero() {
        let zeroed: Vec<CellSample> = cells()
            .into_iter()
            .map(|mut c| {
                c.wall_ns = 0;
                c
            })
            .collect();
        let text = render_metrics_summary(&zeroed, 2);
        assert!(text.contains("0.00 ms total"));
        let svg = render_time_share_svg(&zeroed);
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn svg_bars_scale_to_heaviest() {
        let svg = render_time_share_svg(&cells());
        assert!(
            svg.contains("width=\"420.0\""),
            "heaviest bar is full width"
        );
        assert!(svg.contains("8.00 ms (80.0%)"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn fleet_summary_line() {
        use anneal_obs::Recorder as _;
        let mut reg = anneal_obs::MetricsRegistry::new();
        assert_eq!(render_fleet_summary(&reg), None, "no counters, no noise");
        reg.add("sim.events", 5);
        assert_eq!(render_fleet_summary(&reg), None, "non-fleet keys ignored");
        reg.add("sched.fleet.shards_run", 4);
        reg.add("sched.fleet.retries", 2);
        reg.add("sched.fleet.faults_kill", 1);
        reg.add("sched.fleet.faults_truncate", 1);
        let line = render_fleet_summary(&reg).unwrap();
        assert_eq!(line, "Fleet: 4 shards run, 2 retries, 2 faults injected\n");
        // deterministic
        assert_eq!(render_fleet_summary(&reg).unwrap(), line);
    }
}

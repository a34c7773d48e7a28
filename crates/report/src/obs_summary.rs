//! Campaign metrics summaries: per-scheduler time share and the
//! slowest cells, as text and SVG.
//!
//! One renderer takes per-scheduler shares plus candidate slowest
//! cells. A campaign merge reads the shares from its registry's
//! `time.cell_ns.<scheduler>` histograms ([`cell_time_shares`]) and the
//! candidates from the few slowest cells each shard ships;
//! [`render_metrics_summary`] and [`render_time_share_svg`] derive
//! both from a full list of cells. Rendering is deterministic for a
//! fixed input — rows sort by time share descending with name as the
//! tiebreak, cells by [`slower_first`] — but wall times themselves are
//! `time.*`-class data: meaningful only when the campaign ran with a
//! real clock, all-zero under a `NullClock`.

use std::cmp::Ordering;

use anneal_obs::{MetricValue, MetricsRegistry};

use crate::table::Table;

/// Registry key prefix of the per-scheduler cell wall-time histograms
/// (`time.cell_ns.<scheduler>`).
pub const CELL_NS_PREFIX: &str = "time.cell_ns.";

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

/// One scheduler's wall time over a set of cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerShare {
    /// Scheduler (portfolio entry) name.
    pub name: String,
    /// Cells timed.
    pub cells: u64,
    /// Summed wall time of those cells (ns, saturating).
    pub total_ns: u64,
    /// The slowest of those cells (ns).
    pub max_ns: u64,
}

/// The shares of `reg`'s `time.cell_ns.<scheduler>` histograms (count,
/// sum and max), in scheduler-name order.
pub fn cell_time_shares(reg: &MetricsRegistry) -> Vec<SchedulerShare> {
    reg.iter()
        .filter_map(
            |(key, value)| match (key.strip_prefix(CELL_NS_PREFIX), value) {
                (Some(name), MetricValue::Histogram(h)) => Some(SchedulerShare {
                    name: name.to_string(),
                    cells: h.count(),
                    total_ns: h.sum(),
                    max_ns: h.max().unwrap_or(0),
                }),
                _ => None,
            },
        )
        .collect()
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
        e.total_ns = e.total_ns.saturating_add(c.wall_ns);
        e.max_ns = e.max_ns.max(c.wall_ns);
    }
    by_name.into_values().collect()
}

/// `shares` heaviest first, name ascending among ties, with their
/// summed wall time.
fn heaviest_first(shares: &[SchedulerShare]) -> (Vec<&SchedulerShare>, u64) {
    let mut v: Vec<&SchedulerShare> = shares.iter().collect();
    v.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    let total = v.iter().fold(0u64, |t, s| t.saturating_add(s.total_ns));
    (v, total)
}

/// The slowest-cells order over `(wall_ns, scheduler, instance)`: wall
/// time descending, then scheduler and instance name ascending. A
/// campaign's cells differ in (scheduler, instance), so this is a total
/// order on them, and the union of every shard's first `K` cells holds
/// the campaign's first `K`.
pub fn slower_first(a: (u64, &str, &str), b: (u64, &str, &str)) -> Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(b.1)).then(a.2.cmp(b.2))
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

/// The text summary: a per-scheduler time-share table over `shares`,
/// then the `top` slowest of `slowest` in [`slower_first`] order.
/// `slowest` may be any superset, in any order, of the `top` slowest
/// cells behind `shares`.
pub fn render_shares_summary(
    shares: &[SchedulerShare],
    slowest: &[CellSample],
    top: usize,
) -> String {
    let (shares, total) = heaviest_first(shares);
    let cells: u64 = shares.iter().map(|s| s.cells).sum();
    let mut out = String::new();
    let mut table = Table::new(vec!["Scheduler", "Cells", "Total ms", "Share %", "Max ms"])
        .with_title(format!("Time share: {cells} cells, {} ms total", ms(total)));
    for s in shares {
        table.row(vec![
            s.name.clone(),
            s.cells.to_string(),
            ms(s.total_ns),
            format!("{:.1}", pct(s.total_ns, total)),
            ms(s.max_ns),
        ]);
    }
    out.push_str(&table.render());

    fn key(c: &CellSample) -> (u64, &str, &str) {
        (c.wall_ns, &c.scheduler, &c.instance)
    }
    let mut slowest: Vec<&CellSample> = slowest.iter().collect();
    slowest.sort_by(|a, b| slower_first(key(a), key(b)));
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

/// [`render_shares_summary`] over every cell of a run: the shares and
/// the slowest cells both come from `cells`.
pub fn render_metrics_summary(cells: &[CellSample], top: usize) -> String {
    render_shares_summary(&shares(cells), cells, top)
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
        ("run_failures", "run failures"),
        ("checksum_failures", "checksum failures"),
        ("quarantines", "quarantined"),
    ] {
        let v = c(key);
        if v > 0 {
            parts.push(format!("{v} {label}"));
        }
    }
    Some(format!("Fleet: {}\n", parts.join(", ")))
}

/// A horizontal bar chart of `shares`, one bar per scheduler,
/// heaviest first.
pub fn render_shares_svg(shares: &[SchedulerShare]) -> String {
    let (shares, total) = heaviest_first(shares);
    let max_ns = shares.first().map_or(0, |s| s.total_ns);
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

/// [`render_shares_svg`] over the shares of every cell of a run.
pub fn render_time_share_svg(cells: &[CellSample]) -> String {
    render_shares_svg(&shares(cells))
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
        reg.add("sched.fleet.checksum_failures", 2);
        reg.add("sched.fleet.quarantines", 2);
        let line = render_fleet_summary(&reg).unwrap();
        assert_eq!(
            line,
            "Fleet: 4 shards run, 2 checksum failures, 2 quarantined\n"
        );
        // deterministic
        assert_eq!(render_fleet_summary(&reg).unwrap(), line);
    }
}

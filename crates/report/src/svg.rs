//! SVG Gantt rendering — the paper's Figure 2 as a vector graphic.
//!
//! Follows the paper's visual conventions: full-height blocks for
//! executing tasks (numbered), half-height blocks above/below the lane
//! baseline for send/receive overheads, quarter-height blocks for
//! routing.

use std::fmt::Write as _;

use anneal_graph::units::as_us;
use anneal_sim::{Gantt, SpanKind};
use anneal_topology::ProcId;

/// SVG rendering options.
#[derive(Debug, Clone)]
pub struct SvgOptions {
    /// Drawing width in pixels (time axis).
    pub width: u32,
    /// Lane height per processor in pixels.
    pub lane_height: u32,
    /// Render only `[t_start, t_end)` (ns); `None` = whole run.
    pub window: Option<(u64, u64)>,
    /// Label compute blocks with task ids.
    pub task_ids: bool,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 1200,
            lane_height: 34,
            window: None,
            task_ids: true,
        }
    }
}

const MARGIN_LEFT: u32 = 46;
const MARGIN_TOP: u32 = 20;
const MARGIN_BOTTOM: u32 = 28;

/// Renders the trace as an SVG document string.
#[expect(clippy::expect_used, reason = "fmt::Write into a String is infallible")]
pub fn render_svg(g: &Gantt, num_procs: usize, opts: &SvgOptions) -> String {
    render_svg_impl(g, num_procs, opts).expect("String formatting cannot fail")
}

fn render_svg_impl(
    g: &Gantt,
    num_procs: usize,
    opts: &SvgOptions,
) -> Result<String, std::fmt::Error> {
    let (t0, t1) = opts.window.unwrap_or((0, g.makespan.max(1)));
    assert!(t1 > t0, "empty time window");
    let span = (t1 - t0) as f64;
    let plot_w = opts.width.saturating_sub(MARGIN_LEFT + 8).max(100) as f64;
    let lane_h = opts.lane_height as f64;
    let height = MARGIN_TOP + opts.lane_height * num_procs as u32 + MARGIN_BOTTOM;
    let x_of = |t: u64| MARGIN_LEFT as f64 + (t.saturating_sub(t0)) as f64 / span * plot_w;

    let mut svg = String::new();
    writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{height}" font-family="monospace" font-size="10">"#,
        w = opts.width
    )?;
    writeln!(svg, r#"<rect width="100%" height="100%" fill="white"/>"#)?;

    for p in 0..num_procs {
        let lane_top = MARGIN_TOP as f64 + p as f64 * lane_h;
        let base = lane_top + lane_h * 0.78; // lane baseline
        writeln!(
            svg,
            r#"<text x="4" y="{y:.1}">P{p}</text>"#,
            y = lane_top + lane_h * 0.55
        )?;
        writeln!(
            svg,
            r##"<line x1="{x0}" y1="{base:.1}" x2="{x1:.1}" y2="{base:.1}" stroke="#bbb" stroke-width="0.5"/>"##,
            x0 = MARGIN_LEFT,
            x1 = MARGIN_LEFT as f64 + plot_w
        )?;

        for s in g.proc_spans(ProcId::from_index(p)) {
            if s.end <= t0 || s.start >= t1 {
                continue;
            }
            let xa = x_of(s.start.max(t0));
            let xb = x_of(s.end.min(t1));
            let w = (xb - xa).max(0.75);
            // Geometry per kind: compute fills the lane; send sits above
            // the baseline, receive below-to-baseline, route is a thin
            // strip on the baseline.
            let (y, h, fill) = match s.kind {
                SpanKind::Compute => (lane_top + lane_h * 0.18, lane_h * 0.60, "#5b8fd6"),
                SpanKind::Send => (base - lane_h * 0.30, lane_h * 0.30, "#e0a030"),
                SpanKind::Receive => (base - lane_h * 0.0, lane_h * 0.18, "#4aa86a"),
                SpanKind::Route => (base - lane_h * 0.08, lane_h * 0.08, "#b06ad0"),
            };
            writeln!(
                svg,
                r##"<rect x="{xa:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="{fill}" stroke="#333" stroke-width="0.3"/>"##,
            )?;
            if opts.task_ids && s.kind == SpanKind::Compute && w > 14.0 {
                if let Some(t) = s.task {
                    writeln!(
                        svg,
                        r#"<text x="{x:.1}" y="{ty:.1}" fill="white">{id}</text>"#,
                        x = xa + 2.0,
                        ty = y + h * 0.7,
                        id = t.index()
                    )?;
                }
            }
        }
    }

    // time axis labels
    let axis_y = height - 10;
    for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let t = t0 + ((t1 - t0) as f64 * frac) as u64;
        writeln!(
            svg,
            r#"<text x="{x:.1}" y="{axis_y}">{label:.0}us</text>"#,
            x = x_of(t).min(MARGIN_LEFT as f64 + plot_w - 30.0),
            label = as_us(t)
        )?;
    }
    svg.push_str("</svg>\n");
    Ok(svg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anneal_graph::TaskId;
    use anneal_sim::Span;

    fn sample() -> Gantt {
        Gantt {
            spans: vec![
                Span {
                    proc: ProcId::from_index(0),
                    kind: SpanKind::Compute,
                    start: 0,
                    end: 60_000,
                    task: Some(TaskId::from_index(3)),
                },
                Span {
                    proc: ProcId::from_index(0),
                    kind: SpanKind::Send,
                    start: 60_000,
                    end: 67_000,
                    task: Some(TaskId::from_index(4)),
                },
                Span {
                    proc: ProcId::from_index(1),
                    kind: SpanKind::Route,
                    start: 70_000,
                    end: 79_000,
                    task: Some(TaskId::from_index(4)),
                },
                Span {
                    proc: ProcId::from_index(1),
                    kind: SpanKind::Receive,
                    start: 80_000,
                    end: 89_000,
                    task: Some(TaskId::from_index(4)),
                },
            ],
            makespan: 100_000,
        }
    }

    #[test]
    fn emits_wellformed_svg() {
        let s = render_svg(&sample(), 2, &SvgOptions::default());
        assert!(s.starts_with("<svg"));
        assert!(s.trim_end().ends_with("</svg>"));
        // one rect per span + background
        assert_eq!(s.matches("<rect").count(), 1 + 4);
        // lane labels and a task id
        assert!(s.contains(">P0<"));
        assert!(s.contains(">P1<"));
        assert!(s.contains(">3<"));
    }

    #[test]
    fn all_kinds_have_distinct_fills() {
        let s = render_svg(&sample(), 2, &SvgOptions::default());
        for fill in ["#5b8fd6", "#e0a030", "#4aa86a", "#b06ad0"] {
            assert!(s.contains(fill), "missing {fill}");
        }
    }

    #[test]
    fn window_crops_spans() {
        let opts = SvgOptions {
            window: Some((75_000, 100_000)),
            ..SvgOptions::default()
        };
        let s = render_svg(&sample(), 2, &opts);
        // compute and send are outside the window; receive survives
        assert!(s.contains("#4aa86a"));
        assert!(!s.contains("#5b8fd6"));
    }

    #[test]
    #[should_panic(expected = "empty time window")]
    fn rejects_empty_window() {
        let opts = SvgOptions {
            window: Some((5, 5)),
            ..SvgOptions::default()
        };
        render_svg(&sample(), 2, &opts);
    }
}

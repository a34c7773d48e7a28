//! SVG win/loss matrix for scheduler tournaments.
//!
//! Renders a scheduler × instance heatmap of makespan ratios (cell value
//! = scheduler makespan / best makespan on that instance, so 1.0 means
//! the scheduler is the per-instance winner). Winners are drawn green
//! and shades degrade toward red as the ratio grows; each cell carries
//! its ratio as text. The output is deterministic for identical input.

use std::fmt::Write as _;

/// Rendering options for [`render_win_loss_matrix`].
#[derive(Debug, Clone)]
pub struct WinLossOptions {
    /// Cell width in pixels.
    pub cell_w: u32,
    /// Cell height in pixels.
    pub cell_h: u32,
    /// Ratio at (or beyond) which a cell is fully red.
    pub worst_ratio: f64,
}

impl Default for WinLossOptions {
    fn default() -> Self {
        WinLossOptions {
            cell_w: 74,
            cell_h: 26,
            worst_ratio: 2.0,
        }
    }
}

const LABEL_W: u32 = 110;
const HEADER_H: u32 = 78;

/// Renders the matrix: `ratios[i][j]` is row scheduler `i`'s makespan on
/// column instance `j`, divided by the best makespan on `j` (`>= 1.0`).
///
/// # Panics
///
/// Panics when the ratio matrix shape disagrees with the label slices.
#[expect(clippy::expect_used, reason = "fmt::Write into a String is infallible")]
pub fn render_win_loss_matrix(
    schedulers: &[String],
    instances: &[String],
    ratios: &[Vec<f64>],
    opts: &WinLossOptions,
) -> String {
    assert_eq!(
        ratios.len(),
        schedulers.len(),
        "one ratio row per scheduler"
    );
    for row in ratios {
        assert_eq!(row.len(), instances.len(), "one ratio per instance");
    }
    render_impl(schedulers, instances, ratios, opts).expect("String formatting cannot fail")
}

fn render_impl(
    schedulers: &[String],
    instances: &[String],
    ratios: &[Vec<f64>],
    opts: &WinLossOptions,
) -> Result<String, std::fmt::Error> {
    let width = LABEL_W + opts.cell_w * instances.len() as u32 + 8;
    let height = HEADER_H + opts.cell_h * schedulers.len() as u32 + 8;
    let mut svg = String::new();
    writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="monospace" font-size="11">"#,
    )?;
    writeln!(svg, r#"<rect width="100%" height="100%" fill="white"/>"#)?;

    for (j, inst) in instances.iter().enumerate() {
        // rotated column headers so long instance names stay readable
        let x = LABEL_W + opts.cell_w * j as u32 + opts.cell_w / 2;
        writeln!(
            svg,
            r#"<text x="{x}" y="{y}" transform="rotate(-35 {x} {y})">{name}</text>"#,
            y = HEADER_H - 8,
            name = xml_escape(inst)
        )?;
    }

    for (i, sched) in schedulers.iter().enumerate() {
        let row_y = HEADER_H + opts.cell_h * i as u32;
        writeln!(
            svg,
            r#"<text x="4" y="{y}">{name}</text>"#,
            y = row_y + opts.cell_h * 2 / 3,
            name = xml_escape(sched)
        )?;
        for (j, &r) in ratios[i].iter().enumerate() {
            let x = LABEL_W + opts.cell_w * j as u32;
            writeln!(
                svg,
                r##"<rect x="{x}" y="{row_y}" width="{w}" height="{h}" fill="{fill}" stroke="#444" stroke-width="0.4"/>"##,
                w = opts.cell_w,
                h = opts.cell_h,
                fill = ratio_color(r, opts.worst_ratio),
            )?;
            writeln!(
                svg,
                r#"<text x="{tx}" y="{ty}">{label:.3}</text>"#,
                tx = x + 4,
                ty = row_y + opts.cell_h * 2 / 3,
                label = r,
            )?;
        }
    }
    svg.push_str("</svg>\n");
    Ok(svg)
}

/// Green at ratio 1.0 blending to red at `worst` and beyond; out-of-range
/// inputs (NaN, sub-1.0) clamp to the winner color.
fn ratio_color(ratio: f64, worst: f64) -> String {
    let span = (worst - 1.0).max(1e-9);
    let t = ((ratio - 1.0) / span).clamp(0.0, 1.0);
    if !ratio.is_finite() {
        return "#cccccc".into();
    }
    // winner #4aa86a -> loser #d65b5b
    let lerp = |a: u32, b: u32| -> u32 { (a as f64 + (b as f64 - a as f64) * t).round() as u32 };
    format!(
        "#{:02x}{:02x}{:02x}",
        lerp(0x4a, 0xd6),
        lerp(0xa8, 0x5b),
        lerp(0x6a, 0x5b)
    )
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn renders_all_cells() {
        let s = render_win_loss_matrix(
            &labels(&["hlf", "sa"]),
            &labels(&["ne", "gj", "fft"]),
            &[vec![1.0, 1.2, 2.5], vec![1.1, 1.0, 1.0]],
            &WinLossOptions::default(),
        );
        assert!(s.starts_with("<svg"));
        assert!(s.trim_end().ends_with("</svg>"));
        // background + 6 cells
        assert_eq!(s.matches("<rect").count(), 1 + 6);
        assert!(s.contains(">hlf<"));
        assert!(s.contains(">fft<"));
        assert!(s.contains(">1.000<"));
        assert!(s.contains(">2.500<"));
    }

    #[test]
    fn winner_is_green_and_losers_degrade() {
        assert_eq!(ratio_color(1.0, 2.0), "#4aa86a");
        assert_eq!(ratio_color(2.0, 2.0), "#d65b5b");
        assert_eq!(ratio_color(99.0, 2.0), "#d65b5b");
        // halfway is neither endpoint
        let mid = ratio_color(1.5, 2.0);
        assert_ne!(mid, "#4aa86a");
        assert_ne!(mid, "#d65b5b");
        assert_eq!(ratio_color(f64::NAN, 2.0), "#cccccc");
    }

    #[test]
    fn escapes_labels() {
        let s = render_win_loss_matrix(
            &labels(&["a<b"]),
            &labels(&["x&y"]),
            &[vec![1.0]],
            &WinLossOptions::default(),
        );
        assert!(s.contains("a&lt;b"));
        assert!(s.contains("x&amp;y"));
    }

    #[test]
    #[should_panic(expected = "one ratio row per scheduler")]
    fn shape_is_checked() {
        render_win_loss_matrix(
            &labels(&["a", "b"]),
            &labels(&["x"]),
            &[vec![1.0]],
            &WinLossOptions::default(),
        );
    }

    #[test]
    fn deterministic_output() {
        let render = || {
            render_win_loss_matrix(
                &labels(&["a", "b"]),
                &labels(&["x", "y"]),
                &[vec![1.0, 1.5], vec![1.25, 1.0]],
                &WinLossOptions::default(),
            )
        };
        assert_eq!(render(), render());
    }
}

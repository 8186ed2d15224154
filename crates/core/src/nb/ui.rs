//! The UI Manager (paper §III-A 2E): result rendering.
//!
//! The paper's prototype uses JfreeChart; this reproduction renders the
//! same information as text — the Figure 6 validation report, Figure 9
//! style time-series as ASCII charts, CSV exports, and aligned tables.

use athena_ml::ValidationSummary;

/// A named time series: `(label, points as (time, value))`.
pub type Series = (String, Vec<(f64, f64)>);

/// Chart width in characters (also the report rule's length).
const WIDTH: usize = 72;
/// Chart height in rows.
const HEIGHT: usize = 16;

/// Renders Athena results for operators (`ShowResults`) on one
/// 72x16 chart canvas.
#[derive(Debug, Clone, Default)]
pub struct UiManager;

impl UiManager {
    /// Creates the manager.
    pub fn new() -> Self {
        UiManager
    }

    /// Renders the Figure 6 validation report.
    pub fn render_summary(&self, summary: &ValidationSummary) -> String {
        let line = "-".repeat(WIDTH);
        format!("{line}\n{summary}{line}")
    }

    /// Renders time series as an ASCII chart (the Figure 9 view). Each
    /// series gets its own glyph; axes are annotated with ranges.
    pub fn render_series(&self, title: &str, series: &[Series]) -> String {
        let glyphs = ['*', 'o', '+', 'x', '#', '@'];
        let (w, h) = (WIDTH, HEIGHT);
        let all: Vec<(f64, f64)> = series
            .iter()
            .flat_map(|(_, pts)| pts.iter().copied())
            .collect();
        if all.is_empty() {
            return format!("{title}\n(no data)");
        }
        let (tmin, tmax) = min_max(all.iter().map(|p| p.0));
        let (vmin, vmax) = min_max(all.iter().map(|p| p.1));
        let tspan = (tmax - tmin).max(1e-12);
        let vspan = (vmax - vmin).max(1e-12);

        let mut canvas = vec![vec![' '; w]; h];
        for (si, (_, pts)) in series.iter().enumerate() {
            let glyph = glyphs[si % glyphs.len()];
            for (t, v) in pts {
                let x = (((t - tmin) / tspan) * (w as f64 - 1.0)).round() as usize;
                let y = (((v - vmin) / vspan) * (h as f64 - 1.0)).round() as usize;
                let row = h - 1 - y.min(h - 1);
                canvas[row][x.min(w - 1)] = glyph;
            }
        }
        let mut out = String::new();
        out.push_str(title);
        out.push('\n');
        for (si, (label, _)) in series.iter().enumerate() {
            out.push_str(&format!("  {} {}\n", glyphs[si % glyphs.len()], label));
        }
        out.push_str(&format!("{vmax:>12.1} +{}\n", "-".repeat(w)));
        for row in canvas {
            out.push_str("             |");
            out.extend(row);
            out.push('\n');
        }
        out.push_str(&format!("{vmin:>12.1} +{}\n", "-".repeat(w)));
        out.push_str(&format!(
            "{:>14}t={tmin:.0}s{}t={tmax:.0}s\n",
            "",
            " ".repeat(w.saturating_sub(16))
        ));
        out
    }

    /// Exports time series as CSV (`time,series1,series2,…` by sample
    /// index).
    pub fn to_csv(&self, series: &[Series]) -> String {
        let mut out = String::from("time");
        for (label, _) in series {
            out.push(',');
            out.push_str(label);
        }
        out.push('\n');
        let max_len = series.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
        for i in 0..max_len {
            let t = series
                .iter()
                .find_map(|(_, p)| p.get(i).map(|(t, _)| *t))
                .unwrap_or(i as f64);
            out.push_str(&format!("{t}"));
            for (_, pts) in series {
                match pts.get(i) {
                    Some((_, v)) => out.push_str(&format!(",{v}")),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders an aligned text table.
    pub fn render_table(&self, headers: &[&str], rows: &[Vec<String>]) -> String {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line.push('\n');
            line
        };
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s.push('\n');
            s
        };
        out.push_str(&sep);
        out.push_str(&fmt_row(
            headers.iter().map(|h| (*h).to_owned()).collect(),
            &widths,
        ));
        out.push_str(&sep);
        for row in rows {
            out.push_str(&fmt_row(row.clone(), &widths));
        }
        out.push_str(&sep);
        out
    }
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_ml::ConfusionMatrix;

    #[test]
    fn summary_rendering_contains_rates() {
        let ui = UiManager::new();
        let summary = ValidationSummary {
            confusion: ConfusionMatrix {
                true_positive: 90,
                false_negative: 10,
                true_negative: 95,
                false_positive: 5,
            },
            ..ValidationSummary::default()
        };
        let text = ui.render_summary(&summary);
        assert!(text.contains("Detection Rate : 0.9"));
        assert!(text.contains("Total : 200 entries"));
    }

    #[test]
    fn series_chart_plots_every_series() {
        let ui = UiManager::new();
        let s1: Series = (
            "sw6".into(),
            (0..20).map(|i| (f64::from(i), f64::from(i * 2))).collect(),
        );
        let s2: Series = (
            "sw3".into(),
            (0..20).map(|i| (f64::from(i), 10.0)).collect(),
        );
        let chart = ui.render_series("packet counts", &[s1, s2]);
        assert!(chart.contains("packet counts"));
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("sw6"));
    }

    #[test]
    fn empty_series_is_handled() {
        let ui = UiManager::new();
        assert!(ui.render_series("t", &[]).contains("no data"));
    }

    #[test]
    fn csv_export_shape() {
        let ui = UiManager::new();
        let s: Series = ("a".into(), vec![(0.0, 1.0), (1.0, 2.0)]);
        let csv = ui.to_csv(&[s]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,a");
        assert_eq!(lines[1], "0,1");
        assert_eq!(lines[2], "1,2");
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let ui = UiManager::new();
        let t = ui.render_table(
            &["Category", "Value"],
            &[
                vec!["Switch".into(), "18 OF switches".into()],
                vec!["Link".into(), "48".into()],
            ],
        );
        assert!(t.contains("| Category |"));
        assert!(t.contains("| 18 OF switches |"));
        let widths: Vec<usize> = t.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{t}");
    }
}

//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! Each evaluation artifact has its own binary:
//!
//! | Artifact | Binary |
//! |----------|--------|
//! | Table VI (DDoS test environment) | `table6_environment` |
//! | Figure 6 (DDoS detector output) | `fig6_ddos_detector` |
//! | Table VII (LFA comparison) | `table7_lfa` |
//! | Figure 9 (NAE analysis) | `fig9_nae` |
//! | Table VIII (SLoC usability) | `table8_sloc` |
//! | Figure 10 (compute-cluster scalability) | `fig10_scalability` |
//! | Table IX (Cbench overhead) | `table9_cbench` |
//! | Figure 11 (CPU usage vs flow events) | `fig11_cpu` |
//!
//! Every binary prints the paper's reported values next to the measured
//! ones. Scale factors (dataset sizes, round counts) default to values
//! that finish in seconds; each binary reads its own environment
//! variables to raise them (`ATHENA_FIG10_ENTRIES`,
//! `ATHENA_CBENCH_ROUNDS`, …) through [`athena_types::env_usize`], so an
//! unset, empty, zero or unparsable value keeps the default.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod matrix;
pub mod stream;

/// Renders a section header; the caller prints it (library code stays
/// free of direct console output).
#[must_use]
pub fn header(title: &str) -> String {
    let line = "=".repeat(title.len().max(24));
    format!("{line}\n{title}\n{line}")
}

/// Renders a `paper vs measured` row; the caller prints it.
#[must_use]
pub fn compare_row(label: &str, paper: &str, measured: &str) -> String {
    format!("{label:<38} paper: {paper:<22} measured: {measured}")
}

/// Formats a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5313), "53.13%");
    }

    #[test]
    fn header_and_rows_render() {
        let h = header("Hi");
        assert_eq!(h.lines().count(), 3);
        assert!(h.contains("Hi"));
        let row = compare_row("label", "1", "2");
        assert!(row.contains("paper: 1"));
        assert!(row.contains("measured: 2"));
    }
}

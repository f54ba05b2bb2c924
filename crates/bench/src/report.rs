//! Result reporting: aligned text tables on stdout, plus conversion of
//! each subfigure into `xk_bench::trial` cases so every series lands in
//! the one `results/BENCH_figures.json` artifact.

use crate::measure::Measurement;
use crate::trial::Suite;
use std::fmt::Write as _;

/// One row of a figure: an x-axis label and one measurement per series.
pub struct Row {
    pub x: String,
    pub series: Vec<(String, Measurement)>,
}

/// A rendered experiment: id (e.g. "fig8a_hot"), a human title, and rows.
pub struct Table {
    pub id: String,
    pub title: String,
    pub x_label: String,
    pub rows: Vec<Row>,
}

impl Table {
    /// Renders the aligned text table the harness prints.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} — {} ==", self.id, self.title);
        if self.rows.is_empty() {
            let _ = writeln!(out, "(no data)");
            return out;
        }
        let _ = write!(out, "{:<14}", self.x_label);
        for (name, _) in &self.rows[0].series {
            let _ = write!(out, " {:>10} {:>9} {:>9}", format!("{name} ms"), "dskRd", "ops");
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let _ = write!(out, "{:<14}", row.x);
            for (_, m) in &row.series {
                let ops = m.stats.match_lookups + m.stats.nodes_scanned;
                let _ = write!(
                    out,
                    " {:>10.3} {:>9.1} {:>9}",
                    m.mean_ms(),
                    m.mean_disk_reads(),
                    ops / m.queries as u64
                );
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Records every (x, series) point of this table as a trial case
    /// (`<id>/x=<x>/<series>`) in the shared figures suite.
    pub fn record(&self, suite: &mut Suite) {
        for row in &self.rows {
            for (name, m) in &row.series {
                let series = name.to_ascii_lowercase();
                suite
                    .case(format!("{}/x={}/{}", self.id, row.x, series))
                    .metric("mean_ms", m.mean_ms())
                    .metric("mean_disk_reads", m.mean_disk_reads())
                    .metric("queries", m.queries as f64)
                    .metric("results", m.results as f64)
                    .metric("match_lookups", m.stats.match_lookups as f64)
                    .metric("nodes_scanned", m.stats.nodes_scanned as f64)
                    .metric("lca_computations", m.stats.lca_computations as f64);
            }
        }
    }
}

//! Online statistics and benchmark series collection.
//!
//! The figure/table harnesses sweep a parameter (block size, access size,
//! node count, ...) and report latency/bandwidth per point. [`OnlineStats`]
//! accumulates repetitions at one point; [`Series`] collects `(x, y)` pairs
//! for one curve; [`Table`] renders aligned text tables so harness output
//! matches the paper's row/column layout.

use core::fmt::Write as _;

/// Welford-style online mean/variance with min/max tracking.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// One labelled curve of `(x, y)` points, e.g. "direct_pack_ff inter-node"
/// bandwidth over block size.
#[derive(Clone, Debug)]
pub struct Series {
    /// Curve label as it should appear in the legend/table header.
    pub label: String,
    /// The data points in sweep order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append one point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Look up `y` at an exact `x` (sweeps use exact powers of two).
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| *px == x)
            .map(|(_, py)| *py)
    }

    /// Maximum `y` over the series (0 if empty).
    pub fn max_y(&self) -> f64 {
        self.points.iter().map(|(_, y)| *y).fold(0.0, f64::max)
    }
}

/// A simple aligned text table, used by every harness binary so the output
/// format is uniform and easy to diff against EXPERIMENTS.md.
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; it is padded or truncated to the header width.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut row: Vec<String> = row.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = width[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                width[i] = width[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>w$}", cell, w = width[i]);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Build a table from a shared x-column plus several series (curves become
/// columns). Series missing a point render an empty cell.
pub fn series_table(x_label: &str, x_fmt: impl Fn(f64) -> String, series: &[Series]) -> Table {
    let mut header = vec![x_label.to_string()];
    header.extend(series.iter().map(|s| s.label.clone()));
    let mut table = Table::new(header);
    // x values in order of first appearance across all series
    let mut xs: Vec<f64> = Vec::new();
    for s in series {
        for (x, _) in &s.points {
            if !xs.contains(x) {
                xs.push(*x);
            }
        }
    }
    for x in xs {
        let mut row = vec![x_fmt(x)];
        for s in series {
            row.push(match s.at(x) {
                Some(y) => format!("{y:.2}"),
                None => String::new(),
            });
        }
        table.push_row(row);
    }
    table
}

/// Format a byte count with binary units, matching the paper's axes
/// (8, 64, "1k", "128k", ...).
pub fn fmt_bytes(bytes: f64) -> String {
    let b = bytes as u64;
    if b >= 1024 * 1024 && b.is_multiple_of(1024 * 1024) {
        format!("{}M", b / (1024 * 1024))
    } else if b >= 1024 && b.is_multiple_of(1024) {
        format!("{}k", b / 1024)
    } else {
        format!("{b}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138).abs() < 0.01);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn stats_single_observation() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn series_lookup() {
        let mut s = Series::new("bw");
        s.push(8.0, 10.0);
        s.push(16.0, 20.0);
        assert_eq!(s.at(8.0), Some(10.0));
        assert_eq!(s.at(32.0), None);
        assert_eq!(s.max_y(), 20.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["size", "bw"]);
        t.push_row(vec!["8", "1.50"]);
        t.push_row(vec!["128", "90.25"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("size"));
        assert!(lines[2].trim_start().starts_with('8'));
        // all rows same width
        assert_eq!(lines[0].len(), lines[3].len());
    }

    #[test]
    fn table_row_padding() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.push_row(vec!["1"]);
        assert_eq!(t.len(), 1);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn series_table_merges_x_values() {
        let mut s1 = Series::new("one");
        s1.push(8.0, 1.0);
        s1.push(16.0, 2.0);
        let mut s2 = Series::new("two");
        s2.push(16.0, 4.0);
        let t = series_table("size", fmt_bytes, &[s1, s2]);
        let r = t.render();
        assert!(r.contains("one"));
        assert!(r.contains("two"));
        assert!(r.contains("16"));
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(8.0), "8");
        assert_eq!(fmt_bytes(1024.0), "1k");
        assert_eq!(fmt_bytes(131072.0), "128k");
        assert_eq!(fmt_bytes((4 * 1024 * 1024) as f64), "4M");
        assert_eq!(fmt_bytes(1500.0), "1500");
    }
}

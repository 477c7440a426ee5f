//! Machine-readable bench output — `BENCH_<name>.json` next to the text
//! tables.
//!
//! Every binary emits one JSON document describing the same series the
//! rendered table shows, so plots and regression checks can consume the
//! numbers without scraping text:
//!
//! ```json
//! {"bench":"fig7_noncontig","series":[
//!   {"label":"SCI direct_pack_ff","points":[
//!     {"x":8,"mean_us":1942.3,"stddev":null,"mbps":128.7}, ...]}, ...]}
//! ```
//!
//! Fields that a benchmark does not measure are `null`. `mbps` carries
//! the MiB/s value the tables print (the paper's unit); `mean_us` is the
//! mean virtual time in microseconds. Virtual time repeats exactly, so no
//! benchmark has a spread to report: `stddev` is always `null`, kept so
//! every document keeps its shape.

use obs::json::{self, Json};
use scimpi::RunReport;
use simclock::stats::Series;
use std::path::PathBuf;

/// One measured point of one series.
#[derive(Clone, Copy, Debug, Default)]
pub struct BenchPoint {
    /// Sweep coordinate (block size, access size, process count, ...).
    pub x: f64,
    /// Mean virtual latency in microseconds, if measured.
    pub mean_us: Option<f64>,
    /// Bandwidth in MiB/s, if measured.
    pub mbps: Option<f64>,
}

impl BenchPoint {
    /// A point at sweep coordinate `x` with no measurements yet.
    pub fn at(x: f64) -> Self {
        BenchPoint {
            x,
            ..Default::default()
        }
    }

    /// Set the mean latency \[µs\].
    pub fn mean_us(mut self, v: f64) -> Self {
        self.mean_us = Some(v);
        self
    }

    /// Set the bandwidth [MiB/s].
    pub fn mbps(mut self, v: f64) -> Self {
        self.mbps = Some(v);
        self
    }

    fn to_value(self) -> Json {
        Json::obj([
            ("x", self.x.into()),
            ("mean_us", self.mean_us.into()),
            ("stddev", Json::Null),
            ("mbps", self.mbps.into()),
        ])
    }
}

/// The JSON document one bench binary writes.
#[derive(Debug, Default)]
pub struct BenchDoc {
    name: String,
    series: Vec<(String, Vec<BenchPoint>)>,
    /// Labelled per-rank mailbox high-water snapshots (see
    /// [`BenchDoc::record_peak_backlog`]); empty unless a bench opts in.
    backlogs: Vec<(String, Vec<obs::PeakBacklog>)>,
}

impl BenchDoc {
    /// A document for the binary `name` (`BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchDoc {
            name: name.into(),
            series: Vec::new(),
            backlogs: Vec::new(),
        }
    }

    /// Append `point` to the series `label`, creating it if new.
    pub fn push(&mut self, label: &str, point: BenchPoint) {
        match self.series.iter_mut().find(|(l, _)| l == label) {
            Some((_, pts)) => pts.push(point),
            None => self.series.push((label.to_string(), vec![point])),
        }
    }

    /// Copy a whole bandwidth [`Series`] (y = MiB/s).
    pub fn push_bw_series(&mut self, s: &Series) {
        for &(x, y) in &s.points {
            self.push(&s.label, BenchPoint::at(x).mbps(y));
        }
    }

    /// File `report`'s per-rank peak-backlog gauges (recorded at teardown
    /// from the mailbox's virtual-time event log) under `label`. The
    /// document gains a `"peak_backlog"` section listing every snapshot
    /// taken.
    pub fn record_peak_backlog(&mut self, label: &str, report: &RunReport) {
        self.backlogs
            .push((label.to_string(), report.peak_backlogs.clone()));
    }

    /// Render the whole document.
    pub fn to_json(&self) -> String {
        let series = self.series.iter().map(|(label, pts)| {
            Json::obj([
                ("label", label.as_str().into()),
                ("points", Json::arr(pts.iter().map(|p| p.to_value()))),
            ])
        });
        let mut members = vec![
            ("bench", Json::from(self.name.as_str())),
            ("series", Json::arr(series).lines()),
        ];
        if !self.backlogs.is_empty() {
            let snaps = self.backlogs.iter().map(|(label, ranks)| {
                let ranks = ranks.iter().map(|p| {
                    Json::obj([
                        ("rank", p.rank.into()),
                        ("msgs", p.msgs.into()),
                        ("eager_bytes", p.eager_bytes.into()),
                    ])
                });
                Json::obj([
                    ("label", label.as_str().into()),
                    ("ranks", Json::arr(ranks)),
                ])
            });
            members.push(("peak_backlog", Json::arr(snaps).lines()));
        }
        json::render(&Json::obj(members))
    }

    /// Write `BENCH_<name>.json` in the current directory and return the
    /// path. `profiled` names the run whose wait-state profile the bench
    /// publishes: its `PROFILE_<name>.json` is written next to the
    /// document so the regression gate and CI artifacts always travel as
    /// a pair (nothing is written for `None` or an unprofiled run).
    pub fn write(&self, profiled: Option<&RunReport>) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        if let Some(report) = profiled.filter(|r| r.profile.is_some()) {
            let path = format!("PROFILE_{}.json", self.name);
            std::fs::write(path, report.profile_json())?;
        }
        Ok(path)
    }

    /// [`BenchDoc::write`], reporting the path (or the error) on stdout.
    pub fn write_and_report(&self, profiled: Option<&RunReport>) {
        match self.write(profiled) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("BENCH_{}.json not written: {e}", self.name),
        }
    }
}

/// Write `text` to `path`, then report `wrote <path>` on stdout, or the
/// error on stderr: what a bench binary does with each file it publishes
/// outside a [`BenchDoc`].
pub fn write_reported(path: &str, text: &str) {
    match std::fs::write(path, text) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("{path} not written: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_shape() {
        let mut doc = BenchDoc::new("unit");
        doc.push("a", BenchPoint::at(8.0).mbps(12.5).mean_us(3.0));
        doc.push("a", BenchPoint::at(16.0).mbps(25.0));
        doc.push("b", BenchPoint::at(8.0));
        assert_eq!(
            doc.to_json(),
            "{\"bench\":\"unit\",\"series\":[\n\
             {\"label\":\"a\",\"points\":[{\"x\":8,\"mean_us\":3,\"stddev\":null,\"mbps\":12.500000},\
             {\"x\":16,\"mean_us\":null,\"stddev\":null,\"mbps\":25}]},\n\
             {\"label\":\"b\",\"points\":[{\"x\":8,\"mean_us\":null,\"stddev\":null,\"mbps\":null}]}\n\
             ]}\n"
        );
    }

    #[test]
    fn peak_backlog_section_is_opt_in() {
        let mut doc = BenchDoc::new("unit");
        doc.push("a", BenchPoint::at(1.0).mbps(1.0));
        assert_eq!(
            doc.to_json(),
            "{\"bench\":\"unit\",\"series\":[\n\
             {\"label\":\"a\",\"points\":[{\"x\":1,\"mean_us\":null,\"stddev\":null,\"mbps\":1}]}\n\
             ]}\n"
        );
        doc.backlogs.push((
            "flood".into(),
            vec![obs::PeakBacklog {
                rank: 1,
                msgs: 4,
                eager_bytes: 16384,
            }],
        ));
        assert_eq!(
            doc.to_json(),
            "{\"bench\":\"unit\",\"series\":[\n\
             {\"label\":\"a\",\"points\":[{\"x\":1,\"mean_us\":null,\"stddev\":null,\"mbps\":1}]}\n\
             ],\"peak_backlog\":[\n\
             {\"label\":\"flood\",\"ranks\":[{\"rank\":1,\"msgs\":4,\"eager_bytes\":16384}]}\n\
             ]}\n"
        );
    }

    #[test]
    fn series_copies() {
        let mut s = Series::new("bw");
        s.push(8.0, 100.0);
        s.push(16.0, 200.0);
        let mut doc = BenchDoc::new("unit");
        doc.push_bw_series(&s);
        doc.push_bw_series(&s);
        let j = doc.to_json();
        // Both copies land in the same labelled series.
        assert_eq!(j.matches("\"label\":\"bw\"").count(), 1);
        assert_eq!(j.matches("\"mbps\":200").count(), 2);
    }
}

//! Named metrics with units, the result line the driver reads, and the
//! result-set file `hostbench all` writes and `hostbench compare` reads.

use crate::json::Json;
use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Metrics in the order they were measured; names are unique.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push(Metric {
            name,
            value,
            unit: unit.to_string(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Names of the metrics whose value is not a number (a rate over a
    /// zero time, say). They cannot be reported; the run counts each as a
    /// failed operation.
    pub fn non_finite(&self) -> Vec<&str> {
        let bad = self.0.iter().filter(|m| !m.value.is_finite());
        bad.map(|m| m.name.as_str()).collect()
    }

    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.push(m.name, m.value, &m.unit);
        }
    }

    /// `{"name":{"value":…,"unit":"…"},…}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }

    pub fn from_json(j: &Json) -> Option<Metrics> {
        let mut out = Metrics::default();
        for (name, m) in j.as_object()? {
            out.0.push(Metric {
                name: name.clone(),
                value: m.get("value")?.as_f64()?,
                unit: m.get("unit")?.as_str()?.to_string(),
            });
        }
        Some(out)
    }

    /// Aligned `name value unit` rows.
    pub fn table(&self) -> String {
        let width = self.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>16}  {}",
                m.name,
                human(m.value),
                m.unit
            );
        }
        out
    }
}

/// A number as measured, with all its digits (shortest form that
/// round-trips). JSON cannot carry a non-finite value: it is written as
/// 0, and the run that measured it has failed (`Metrics::non_finite`).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn human(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 || (1e-3..1e7).contains(&a) {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{v:.4e}")
    }
}

/// The outcome of one workload run: what the driver's result line holds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// What the run measured beyond its result line — the exact metrics
    /// and the spreads of an untraced run, the metrics only this workload
    /// has of a traced one. Printed on the line before the result line,
    /// kept in result sets.
    pub detail: Metrics,
}

/// What the detail line starts with.
const DETAIL: &str = "detail ";

impl RunResult {
    /// The one-line JSON object printed last on standard output.
    pub fn to_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }

    /// The run as a result set keeps it: the result line's object with
    /// the detail beside the metrics.
    pub fn to_entry(&self) -> String {
        let line = self.to_line();
        format!(
            "{}, \"detail\": {}}}",
            line.strip_suffix('}').unwrap_or(&line),
            self.detail.to_json()
        )
    }

    /// The detail line, then the result line.
    pub fn to_lines(&self) -> String {
        format!("{DETAIL}{}\n{}", self.detail.to_json(), self.to_line())
    }

    /// Read back what `to_lines` ended a run's standard output with.
    pub fn from_output(text: &str) -> Option<RunResult> {
        let mut lines = text.lines().rev();
        let mut result = RunResult::from_json(&Json::parse(lines.next()?).ok()?)?;
        let detail = lines.next()?.strip_prefix(DETAIL)?;
        result.detail = Metrics::from_json(&Json::parse(detail).ok()?)?;
        Some(result)
    }

    pub fn from_json(j: &Json) -> Option<RunResult> {
        Some(RunResult {
            correct: j.get("correct")?.as_bool()?,
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            metrics: Metrics::from_json(j.get("metrics")?)?,
            detail: j
                .get("detail")
                .map_or(Some(Metrics::default()), Metrics::from_json)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let mut metrics = Metrics::default();
        metrics.push("ops_per_host_s", 1234.567890123456, "ops/s");
        metrics.push("setup_s", 0.1 + 0.2, "s");
        let mut r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            detail: Metrics::default(),
        };
        let line = r.to_line();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, r);

        r.detail.push("sim_us", 12.5, "us_virtual");
        let output = format!("a table\n{}\n", r.to_lines());
        assert_eq!(output.lines().last(), Some(line.as_str()));
        assert_eq!(RunResult::from_output(&output).as_ref(), Some(&r));
        let entry = Json::parse(&r.to_entry()).unwrap();
        assert_eq!(RunResult::from_json(&entry), Some(r));
    }

    #[test]
    fn non_finite_values_stay_valid_json_and_are_named() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("b", 1.0 / 0.0, "1/s");
        assert_eq!(m.non_finite(), ["b"]);
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        assert_eq!(number(1.5), "1.5");
    }
}

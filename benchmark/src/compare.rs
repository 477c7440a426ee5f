//! `hostbench compare <a.json> <b.json>`: hold result set `b` against
//! result set `a` with the benchmark's own bounds, one row per
//! (metric, workload) pair.

use crate::json::Json;
use crate::layers::{END_TO_END, EXACT};
use crate::report::{Metrics, RunResult};
use crate::workloads;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Improved,
    /// The metric's own spread within the run, on either side, is wider
    /// than the bound: the pair shows neither a regression nor its
    /// absence.
    Unresolved,
    Regression,
}

/// One workload of a result set.
pub struct Entry {
    pub untraced: RunResult,
    pub traced: RunResult,
}

/// A result set: the probe table it keeps once, and its workloads.
pub struct ResultSet {
    pub layers: Metrics,
    pub workloads: Vec<(String, Entry)>,
}

impl ResultSet {
    fn workload(&self, name: &str) -> Option<&Entry> {
        let found = self.workloads.iter().find(|(n, _)| n == name);
        found.map(|(_, e)| e)
    }
}

pub fn load(text: &str) -> Result<ResultSet, String> {
    let j = Json::parse(text)?;
    let layers = j
        .get("layers")
        .and_then(Metrics::from_json)
        .ok_or("no \"layers\" table")?;
    let workloads = j
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("no \"workloads\" object")?;
    let workloads = workloads
        .iter()
        .map(|(name, w)| {
            let part = |key: &str| {
                w.get(key)
                    .and_then(RunResult::from_json)
                    .ok_or(format!("workload {name}: bad \"{key}\" result"))
            };
            Ok((
                name.clone(),
                Entry {
                    untraced: part("untraced")?,
                    traced: part("traced")?,
                },
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(ResultSet { layers, workloads })
}

/// Rows without a verdict: the per-layer metrics have no bound.
fn inform(scope: &str, a: &Metrics, b: &Metrics) {
    for m in &a.0 {
        if let Some(vb) = b.get(&m.name) {
            let change = if m.value == 0.0 {
                0.0
            } else {
                (vb - m.value) / m.value * 100.0
            };
            println!(
                "{scope:<14} {:<44} {:>16.6} {vb:>16.6} {change:>+8.2}%  {}",
                m.name, m.value, m.unit
            );
        }
    }
}

/// `b` against `a` for one metric. `worse` is the share of `a` by which
/// `b` is worse (negative when better).
pub fn judge(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> (f64, Verdict) {
    let worse = if a == 0.0 {
        if b == a {
            0.0
        } else if (b > a) != higher_is_better {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let verdict = if bound > 0.0 && spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound && bound > 0.0 {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Prints the table; returns the process exit code.
pub fn run(a_text: &str, b_text: &str) -> Result<i32, String> {
    let (a, b) = (load(a_text)?, load(b_text)?);
    let mut bad = 0;
    println!(
        "{:<14} {:<15} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a", "b", "worse by"
    );
    for name in workloads::NAMES {
        let (Some(ea), Some(eb)) = (a.workload(name), b.workload(name)) else {
            println!("{name:<14} missing from one result set");
            bad += 1;
            continue;
        };
        // Each timing against the spread of its own samples in the
        // untraced run (memory is read once and has none).
        let measured = END_TO_END.iter().map(|&(m, _, higher, bound)| {
            let spread = |e: &Entry| {
                let own = e.untraced.detail.get(&format!("spread.{m}"));
                own.unwrap_or(0.0)
            };
            let spread = spread(ea).max(spread(eb));
            (m, higher, bound, spread, &ea.untraced, &eb.untraced)
        });
        // Virtual time, paper deviation and failures repeat exactly: any
        // worsening at all is a regression.
        let exact = EXACT
            .iter()
            .map(|&(m, _)| (m, false, 0.0, 0.0, &ea.traced, &eb.traced));
        for (metric, higher, bound, spread, ra, rb) in measured.chain(exact) {
            let (Some(va), Some(vb)) = (ra.metrics.get(metric), rb.metrics.get(metric)) else {
                println!("{name:<14} {metric:<15} missing");
                bad += 1;
                continue;
            };
            let (worse, verdict) = judge(va, vb, higher, bound, spread);
            if verdict == Verdict::Regression {
                bad += 1;
            }
            println!(
                "{name:<14} {metric:<15} {va:>16.6} {vb:>16.6} {:>8.2}%  {verdict:?}",
                worse * 100.0
            );
        }
        for (side, e) in [("a", ea), ("b", eb)] {
            let failed = e.untraced.failed + e.traced.failed;
            if failed > 0 || !e.untraced.correct || !e.traced.correct {
                println!("{name:<14} result set {side} has {failed} failed operations");
                bad += 1;
            }
        }
    }
    println!("\nper-layer metrics, b against a (no bounds; change is b over a):");
    inform("every workload", &a.layers, &b.layers);
    for name in workloads::NAMES {
        if let (Some(ea), Some(eb)) = (a.workload(name), b.workload(name)) {
            inform(name, &ea.traced.metrics, &eb.traced.metrics);
            inform(name, &ea.traced.detail, &eb.traced.detail);
        }
    }
    println!(
        "{}",
        if bad == 0 {
            "no regression"
        } else {
            "REGRESSION or failed operations"
        }
    );
    Ok(if bad == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        assert_eq!(judge(100.0, 95.0, true, 0.10, 0.02).1, Verdict::Ok);
        assert_eq!(judge(100.0, 85.0, true, 0.10, 0.02).1, Verdict::Regression);
        assert_eq!(judge(100.0, 120.0, true, 0.10, 0.02).1, Verdict::Improved);
        assert_eq!(judge(1.0, 1.3, false, 0.25, 0.02).1, Verdict::Regression);
        assert_eq!(judge(1.0, 0.7, false, 0.25, 0.02).1, Verdict::Improved);
        // A spread wider than the bound resolves nothing.
        assert_eq!(judge(100.0, 85.0, true, 0.10, 0.15).1, Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_allow_no_worsening() {
        assert_eq!(judge(12.5, 12.5, false, 0.0, 0.5).1, Verdict::Ok);
        assert_eq!(
            judge(12.5, 12.500001, false, 0.0, 0.5).1,
            Verdict::Regression
        );
        assert_eq!(judge(12.5, 12.4, false, 0.0, 0.5).1, Verdict::Ok);
        assert_eq!(judge(0.0, 0.0, false, 0.0, 0.0).1, Verdict::Ok);
        assert_eq!(judge(0.0, 0.001, false, 0.0, 0.0).1, Verdict::Regression);
    }
}

//! Structural comparison of bench JSON documents against committed
//! baselines — the engine behind the `bench_diff` binary.
//!
//! The simulation is deterministic, so a committed `BENCH_<name>.json`
//! is an exact promise: the same seed must reproduce every number, and
//! the comparison is exact. A deliberate recalibration re-commits the
//! baseline.
//!
//! The documents are read with [`obs::json::parse`], the parser of the
//! codec that wrote them; this module only compares.

use obs::json::Json;
use std::fmt;

/// One baseline/current disagreement, with the JSON path that diverged.
#[derive(Clone, Debug)]
pub struct Mismatch {
    pub path: String,
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// Compare `current` against `baseline` structurally and exactly:
/// scalars must be equal, arrays must match element-wise, and objects
/// must carry the same keys on both sides. Returns every disagreement
/// found, each under the JSON path that diverged.
pub fn compare(baseline: &Json, current: &Json) -> Vec<Mismatch> {
    let mut out = Vec::new();
    walk(baseline, current, "$", &mut out);
    out
}

fn push(out: &mut Vec<Mismatch>, path: &str, detail: String) {
    out.push(Mismatch {
        path: path.to_string(),
        detail,
    });
}

fn walk(b: &Json, c: &Json, path: &str, out: &mut Vec<Mismatch>) {
    match (b, c) {
        (Json::Obj(bf, _), Json::Obj(cf, _)) => {
            for (k, bv) in bf {
                match c.get(k) {
                    Some(cv) => walk(bv, cv, &format!("{path}.{k}"), out),
                    None => push(out, path, format!("missing key '{k}'")),
                }
            }
            for (k, _) in cf {
                if b.get(k).is_none() {
                    push(out, path, format!("unexpected key '{k}'"));
                }
            }
        }
        (Json::Arr(ba, _), Json::Arr(ca, _)) => {
            if ba.len() != ca.len() {
                push(
                    out,
                    path,
                    format!("length {} differs from baseline {}", ca.len(), ba.len()),
                );
            }
            for (i, (bv, cv)) in ba.iter().zip(ca).enumerate() {
                walk(bv, cv, &format!("{path}[{i}]"), out);
            }
        }
        _ if b == c => {}
        _ => push(out, path, format!("{c} differs from baseline {b}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::parse;

    const DOC: &str = r#"{"bench":"unit","series":[
{"label":"a","points":[{"x":8,"mean_us":100.000000,"stddev":null}]}
]}"#;

    #[test]
    fn identical_documents_have_no_mismatches() {
        let b = parse(DOC).unwrap();
        let c = parse(DOC).unwrap();
        assert!(compare(&b, &c).is_empty());
    }

    #[test]
    fn any_numeric_difference_is_a_mismatch() {
        let b = parse(r#"{"series":[{"mean_us":100.0,"buckets":[[3,17]]}]}"#).unwrap();
        let c = parse(r#"{"series":[{"mean_us":100.000001,"buckets":[[3,18]]}]}"#).unwrap();
        let bad = compare(&b, &c);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert_eq!(bad[0].path, "$.series[0].mean_us");
        assert_eq!(bad[1].path, "$.series[0].buckets[0][1]");
        assert_eq!(bad[1].detail, "18 differs from baseline 17");
    }

    #[test]
    fn structural_changes_are_always_mismatches() {
        let b = parse(r#"{"series":[{"x":1},{"x":2}],"flag":true}"#).unwrap();
        let shorter = parse(r#"{"series":[{"x":1}],"flag":true}"#).unwrap();
        let retyped = parse(r#"{"series":[{"x":1},{"x":2}],"flag":"yes"}"#).unwrap();
        let missing = parse(r#"{"series":[{"x":1},{"x":2}]}"#).unwrap();
        let extra = parse(r#"{"series":[{"x":1},{"x":2}],"flag":true,"new":1}"#).unwrap();
        for doc in [&shorter, &retyped, &missing, &extra] {
            assert!(!compare(&b, doc).is_empty());
        }
    }
}

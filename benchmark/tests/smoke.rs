//! The binary end to end at 1/20 size: `hostbench --smoke`, the shape of
//! the result line the driver reads, and a result set through `compare`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::PathBuf;
use std::process::Command;

fn hostbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hostbench"))
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn smoke_passes() {
    let out = hostbench()
        .arg("--smoke")
        .arg("--out-dir")
        .arg(scratch("smoke"))
        .output()
        .expect("hostbench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout)
        .trim_end()
        .ends_with("smoke: ok"));
}

fn result_line(trace: &str) -> Json {
    let out = hostbench()
        .args(["--smoke", "--workload", "pingpong", "--seed", "7"])
        .args(["--trace", trace])
        .arg("--out-dir")
        .arg(scratch(&format!("line{trace}")))
        .output()
        .expect("hostbench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    Json::parse(text.lines().last().expect("a last line")).expect("the last line is JSON")
}

fn keys(j: &Json) -> Vec<&str> {
    j.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn untraced_line_has_exactly_the_end_to_end_metrics() {
    let j = result_line("0");
    assert_eq!(keys(&j), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
    assert!(j.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(j.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = j.get("metrics").unwrap();
    assert_eq!(keys(metrics), ["ops_per_host_s", "setup_s", "peak_rss_mib"]);
    for (name, m) in metrics.as_object().unwrap() {
        assert_eq!(keys(m), ["value", "unit"], "{name}");
        assert!(
            m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
            "{name} must never be 0"
        );
    }
}

#[test]
fn traced_line_reports_the_layer_table_and_writes_the_trace() {
    let j = result_line("1");
    assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
    let names = keys(j.get("metrics").unwrap());
    for expected in [
        "sim_us",
        "fail_share",
        "rep.verbs_share",
        "trace.overhead_share",
        "datatype.pack_vs_loop.b128",
        "sci-fabric.pio_tx_per_s",
        "sched.handoff_us.t2",
    ] {
        assert!(names.contains(&expected), "{expected} missing");
    }
    // What only pingpong measures stays out of the line the driver reads.
    assert!(!names.contains(&"core.eager_msgs_per_s"));
    let trace = std::fs::read_to_string(scratch("line1").join("trace_pingpong.json"))
        .expect("trace written");
    let trace = Json::parse(&trace).expect("trace is JSON");
    assert_eq!(
        trace.get("workload").and_then(Json::as_str),
        Some("pingpong")
    );
    let Some(Json::Arr(spans)) = trace.get("spans") else {
        panic!("no spans array");
    };
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Json::as_str) == Some("core.run")));
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Json::as_str) == Some("core.send")));
}

/// `all` writes what `compare` reads; a result set held against itself
/// shows no regression, and keeps the probe table once.
#[test]
fn result_set_compares_clean_with_itself() {
    let dir = scratch("all");
    let set = dir.join("results.json");
    let out = hostbench()
        .args(["all", "--smoke", "--commit", "test", "--out"])
        .arg(&set)
        .arg("--out-dir")
        .arg(&dir)
        .output()
        .expect("hostbench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&set).expect("result set written");
    let j = Json::parse(&text).expect("result set is JSON");
    assert!(j
        .get("layers")
        .unwrap()
        .get("sched.handoff_us.t2")
        .is_some());
    let pingpong = j.get("workloads").unwrap().get("pingpong").unwrap();
    let traced = pingpong.get("traced").unwrap();
    assert!(traced.get("metrics").unwrap().get("sim_us").is_some());
    assert!(traced
        .get("metrics")
        .unwrap()
        .get("sched.handoff_us.t2")
        .is_none());
    assert!(traced
        .get("detail")
        .unwrap()
        .get("core.eager_msgs_per_s")
        .is_some());

    let out = hostbench()
        .arg("compare")
        .args([&set, &set])
        .output()
        .expect("hostbench runs");
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "{table}");
    assert!(table.contains("no regression"));
    assert!(!table.contains("missing"));
}

#[test]
fn bad_usage_prints_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "pingpong", "--trace", "2"][..],
        &[][..],
    ] {
        let out = hostbench().args(args).output().expect("hostbench runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}

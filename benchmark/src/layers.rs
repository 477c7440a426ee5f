//! From spans and probes to the per-layer metrics: the names a traced
//! run reports, the statistics every timing goes through, the `core.*`
//! verb metrics read off a workload's own traced repetition, and the
//! `rep.*` account of where that repetition's wall time went.

use crate::report::Metrics;
use crate::trace::{Span, Trace};

/// The end-to-end metrics of `BENCHMARK.json`: `(name, unit, higher is
/// better, bound)`. See README, "Repeatability", for where the bounds
/// come from.
pub const END_TO_END: [(&str, &str, bool, f64); 3] = [
    ("ops_per_host_s", "ops/s", true, 0.25),
    ("setup_s", "s", false, 0.25),
    ("peak_rss_mib", "MiB", false, 0.15),
];

/// Reported with the per-layer metrics because the driver's contract
/// refuses end-to-end metrics that can be 0 or that repeat exactly;
/// `hostbench compare` still holds them to "no worse, exactly".
pub const EXACT: [(&str, &str); 3] = [
    ("sim_us", "us_virtual"),
    ("paper_dev_pct", "%"),
    ("fail_share", "ratio"),
];

/// What a traced run measures about the workload it was given; the rest
/// of its result line is the workload-independent probe table.
pub const OWN: [&str; 10] = [
    "sim_us",
    "paper_dev_pct",
    "fail_share",
    "rep.launch_share",
    "rep.verbs_share",
    "rep.teardown_share",
    "rep.harness_share",
    "host.cpu_s",
    "host.iqr_share",
    "trace.overhead_share",
];

/// Every metric of a traced run's result line, in table order: `OWN`,
/// then the direct layer probes. `tasks` is the task count of the
/// many-task scheduler probe (2048 at full size). The metrics only one
/// workload can measure (`core.*` verbs, `model.*`, the backend and
/// recorder ratios) are printed by that workload's run and kept in result
/// sets, but are not in this list: the driver wants the same names from
/// every workload.
pub fn per_layer_names(tasks: usize) -> Vec<String> {
    let mut names: Vec<String> = OWN.iter().map(|n| n.to_string()).collect();
    let mut add = |stem: &str, suffixes: &[&str]| {
        if suffixes.is_empty() {
            names.push(stem.to_string());
        }
        for s in suffixes {
            names.push(format!("{stem}.{s}"));
        }
    };
    let t = format!("t{tasks}");
    add("datatype.commit_cold_us", &[]);
    add("datatype.commit_hit_us", &[]);
    add(
        "datatype.pack_ff_gbps",
        &["b8", "b128", "b16k", "irregular"],
    );
    add("datatype.unpack_ff_gbps", &["b8", "b128", "b16k"]);
    add("datatype.mpi_pack_gbps", &["b128"]);
    add("datatype.find_position_us", &[]);
    add("datatype.pack_vs_loop", &["b8", "b128", "b16k"]);
    add("ref.copy_loop_gbps", &["b8", "b128", "b16k"]);
    add("ref.memcpy_gbps", &[]);
    add("sci-fabric.pio_write_calls_per_s", &["b8", "b128", "b64k"]);
    add("sci-fabric.pio_write_batched_calls_per_s", &["b8"]);
    add("sci-fabric.pio_read_calls_per_s", &["b8", "b64k"]);
    add("sci-fabric.pio_tx_per_s", &[]);
    add("sci-fabric.dma_write_gbps", &["b64k"]);
    add("sci-fabric.stream_open_us", &[]);
    add("sci-fabric.barrier_us", &[]);
    add("core.sink_ff_gbps", &["b8", "b128"]);
    add("sched.handoff_us", &["t2", &t]);
    add("sched.handoff_unpinned_us", &["t2"]);
    add("sched.root_launch_us_per_task", &[&t]);
    add("sched.events_per_s", &[&t]);
    add("sched.spawn_join_us", &[]);
    add("smi.lock_pairs_per_s", &[]);
    add("smi.region_write_calls_per_s", &["b64"]);
    add("smi.alloc_free_pairs_per_s", &[]);
    add("simclock.clock_ops_per_s", &[]);
    names
}

/// `p`-quantile of `sorted` by the exclusive method, as Python's
/// `statistics.quantiles`.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = (p * (sorted.len() + 1) as f64 - 1.0).clamp(0.0, last as f64);
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    sorted[lo] + frac * (sorted[(lo + 1).min(last)] - sorted[lo])
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// What repeated timings of one thing are reported as: their lower
/// quartile. The host only ever adds time to a repetition, and on the
/// sandbox it does so in bursts that last from seconds to minutes. Over
/// ten-seed passes in a quiet stretch the lower quartile and the median of
/// a run's repetitions repeated equally well from run to run (worst
/// workload 11 % against 14 %); between two result sets of one commit, one
/// of which met a burst, the median moved by 32 % and 23 % on two
/// workloads and the lower quartile by 21 % and 7 % (README,
/// "Repeatability").
pub fn typical(times: &[f64]) -> f64 {
    quantile(&sorted(times), 0.25)
}

/// Interquartile spread over the median — the repeatability figure the
/// comparison uses to call a pair unresolved.
pub fn iqr_share(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let s = sorted(v);
    (quantile(&s, 0.75) - quantile(&s, 0.25)) / quantile(&s, 0.5)
}

fn rate<'a>(spans: impl Iterator<Item = &'a Span>, per: impl Fn(&Span) -> u64) -> f64 {
    let (mut n, mut secs) = (0u64, 0.0);
    for s in spans {
        n += per(s);
        secs += s.secs();
    }
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

/// Host cost of a collective: per instance (the k-th call on every
/// rank), wall time from the first rank entering to the last leaving;
/// the median over instances, in µs. Includes whatever ranks that had
/// not arrived yet still had to do first.
fn collective_us(trace: &Trace, name: &str, detail: &str) -> f64 {
    let mut per_rank: std::collections::BTreeMap<u32, Vec<&Span>> = Default::default();
    for s in trace.of(name, detail) {
        per_rank.entry(s.rank).or_default().push(s);
    }
    let instances = per_rank.values().map(Vec::len).min().unwrap_or(0);
    let walls = (0..instances)
        .map(|k| {
            let first = per_rank.values().map(|v| v[k].start_ns).min().unwrap_or(0);
            let last = per_rank.values().map(|v| v[k].end_ns).max().unwrap_or(0);
            (last - first) as f64 / 1e3
        })
        .collect::<Vec<f64>>();
    median(&walls)
}

fn one<'a>(mut spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.next().map_or(0.0, Span::secs)
}

/// `core.*` metrics read off a program's own traced repetition. `ranks`
/// is the size of `scale_ring`.
pub fn verb_metrics(program: &str, trace: &Trace, ranks: usize, out: &mut Metrics) {
    let bytes = |s: &Span| s.bytes;
    let count = |s: &Span| s.count;
    match program {
        "noncontig" => {
            for b in ["b8", "b128", "b16k"] {
                let key = format!("ff.{b}");
                out.push(
                    format!("core.send_typed_host_gbps.{b}"),
                    rate(trace.of("core.send_typed", &key), bytes) / 1e9,
                    "GB/s",
                );
            }
        }
        "pingpong" => {
            let phase = |label: &'static str| {
                trace
                    .of("core.pingpong_phase", label)
                    .filter(|s| s.rank == 0)
            };
            out.push("core.eager_msgs_per_s", rate(phase("b64"), count), "1/s");
            out.push("core.eager_4k_msgs_per_s", rate(phase("b4k"), count), "1/s");
            out.push("core.rndv_msgs_per_s", rate(phase("b256k"), count), "1/s");
            out.push(
                "core.rndv_host_gbps",
                rate(phase("b256k"), bytes) / 1e9,
                "GB/s",
            );
            out.push(
                "core.launch_us_per_rank.r2",
                one(trace.named("core.launch")) / 2.0 * 1e6,
                "us",
            );
        }
        "sparse_osc" => {
            let sweep = |key: &'static str| rate(trace.of("core.osc_sweep", key), count);
            out.push("core.put_calls_per_s.b8", sweep("put.shared.b8"), "1/s");
            out.push("core.get_calls_per_s.b8", sweep("get.shared.b8"), "1/s");
            out.push(
                "core.put_emul_calls_per_s.b8",
                sweep("put.private.b8"),
                "1/s",
            );
            out.push(
                "core.get_rput_calls_per_s.b16k",
                sweep("get.shared.b16k"),
                "1/s",
            );
            out.push(
                "core.accumulate_calls_per_s",
                sweep("accumulate.shared.b512"),
                "1/s",
            );
            out.push(
                "core.fence_us",
                collective_us(trace, "core.fence", ""),
                "us",
            );
        }
        "halo_requests" => {
            out.push(
                "core.isend_irecv_pairs_per_s",
                rate(trace.named("core.isend_irecv"), count),
                "1/s",
            );
            let waits: Vec<f64> = trace
                .named("core.waitall")
                .map(|s| s.secs() * 1e6)
                .collect();
            out.push("core.waitall_us", median(&waits), "us");
            out.push(
                "core.barrier_us.r16",
                collective_us(trace, "core.barrier", "r16"),
                "us",
            );
            out.push(
                "core.allreduce_us.r16",
                collective_us(trace, "core.allreduce", "r16"),
                "us",
            );
        }
        "scale_ring" => {
            let r = format!("r{ranks}");
            out.push(
                format!("core.barrier_us.{r}"),
                collective_us(trace, "core.barrier", &r),
                "us",
            );
            out.push(
                format!("core.allreduce_us.{r}"),
                collective_us(trace, "core.allreduce", &r),
                "us",
            );
            out.push(
                format!("core.launch_us_per_rank.{r}"),
                one(trace.named("core.launch")) / ranks as f64 * 1e6,
                "us",
            );
            out.push(
                format!("core.teardown_ms.{r}"),
                one(trace.named("core.teardown")) * 1e3,
                "ms",
            );
        }
        _ => {}
    }
}

/// `rep.*`: where the wall time of one traced repetition went, as far
/// as spans recorded from outside can tell. `launch` and `teardown` are
/// the `core.launch` and `core.teardown` spans; `harness` is the
/// benchmark's own work — each `rank.body` less the verb spans inside it
/// (stamping, checking, recording), plus what the launching thread did
/// outside `core.run`; `verbs` is the rest: a rank inside a runtime call,
/// or the runtime choosing the next one. Sound under `Backend::Event`
/// only, where one rank runs at a time and the ranks' own times add up.
pub fn rep_shares(trace: &Trace, wall_ns: u64, out: &mut Metrics) {
    let total = |name: &str| trace.named(name).map(Span::dur_ns).sum::<u64>();
    let bodies: u64 = trace
        .spans
        .iter()
        .zip(trace.self_times())
        .filter(|(s, _)| s.name == "rank.body")
        .map(|(_, own)| own)
        .sum();
    let (launch, teardown) = (total("core.launch"), total("core.teardown"));
    let harness = bodies + wall_ns.saturating_sub(total("core.run"));
    let verbs = wall_ns.saturating_sub(launch + teardown + harness);
    let share = |ns: u64| ns as f64 / wall_ns.max(1) as f64;
    out.push("rep.launch_share", share(launch), "ratio");
    out.push("rep.verbs_share", share(verbs), "ratio");
    out.push("rep.teardown_share", share(teardown), "ratio");
    out.push("rep.harness_share", share(harness), "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(typical(&v), 2.75);
        assert_eq!(typical(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(typical(&[5.0]), 5.0);
    }

    #[test]
    fn rep_shares_split_the_wall_time() {
        let span = |id, parent, name, rank, start_ns, end_ns| Span {
            id,
            parent,
            name,
            detail: String::new(),
            layer: "core",
            rank,
            rep: 1,
            start_ns,
            end_ns,
            count: 1,
            bytes: 0,
        };
        // Two ranks under one run; rank 1 waits in a verb while rank 0
        // works, so the ranks' own times add up to the time between
        // launch and teardown.
        let trace = Trace {
            spans: vec![
                span(1, 0, "core.run", u32::MAX, 100, 1000),
                span(2, 1, "core.launch", u32::MAX, 100, 200),
                span(3, 1, "rank.body", 0, 200, 900),
                span(4, 3, "core.send", 0, 300, 500),
                span(5, 1, "rank.body", 1, 200, 900),
                span(6, 5, "core.recv", 1, 200, 900),
                span(7, 1, "core.teardown", u32::MAX, 900, 1000),
            ],
        };
        let mut out = Metrics::default();
        rep_shares(&trace, 1100, &mut out);
        // Harness: 500 ns of rank 0 outside its send + 200 ns outside
        // the run; verbs: what is left, the 200 ns of the send.
        assert_eq!(out.get("rep.launch_share"), Some(100.0 / 1100.0));
        assert_eq!(out.get("rep.teardown_share"), Some(100.0 / 1100.0));
        assert_eq!(out.get("rep.harness_share"), Some(700.0 / 1100.0));
        assert_eq!(out.get("rep.verbs_share"), Some(200.0 / 1100.0));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names = per_layer_names(2048);
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.len() <= 128);
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
    }

    /// `BENCHMARK.json` is written by hand; it must name what the code
    /// reports.
    #[test]
    fn benchmark_json_matches_the_code() {
        use crate::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| match j.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("no {key} list"),
        };
        let text = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("no {key}"))
                .to_string()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        for w in list("workloads") {
            assert_eq!(text(&w, "why"), crate::workloads::why(&text(&w, "name")));
        }

        let declared: Vec<(String, String, bool, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better") == "higher",
                    m.get("bound").and_then(Json::as_f64).expect("a bound"),
                )
            })
            .collect();
        let coded: Vec<(String, String, bool, f64)> = END_TO_END
            .iter()
            .map(|&(n, u, h, b)| (n.to_string(), u.to_string(), h, b))
            .collect();
        assert_eq!(declared, coded);

        let per_layer: Vec<String> = list("per_layer").iter().map(|m| text(m, "name")).collect();
        assert_eq!(per_layer, per_layer_names(2048));
        for m in list("per_layer") {
            let better = text(&m, "better");
            assert!(better == "higher" || better == "lower", "{better}");
        }
        assert_eq!(list("paths"), [Json::Str("benchmark".into())]);
    }
}

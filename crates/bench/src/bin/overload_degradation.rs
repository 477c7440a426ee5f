//! Graceful degradation under overload: offered load vs goodput for
//! every [`OverloadPolicy`].
//!
//! A fast sender floods a slow receiver (fixed 200 µs service time per
//! message) with eager messages while the sender's inter-message gap
//! sweeps from underload (gap > service) to saturation (gap = 0). The
//! pair's eager-credit budget is 8× oversubscribed at the top of the
//! sweep, so the run measures what each policy actually does when the
//! receiver cannot keep up:
//!
//! - `Stall` and `Degrade` deliver everything; their goodput at
//!   saturation must hold ≥ 70% of their sweep peak (the receiver, not
//!   the flow control, is the bottleneck).
//! - `Shed` and `Error` deliver only the burst prefix that found
//!   credits (credits fold back at sync points, and a lossy sender
//!   never waits for one), so their goodput is bounded but never zero.
//!
//! The document carries a `peak_backlog` section with the receiver's
//! mailbox high-water marks at saturation per policy — the governed
//! policies must stay at or below the credit budget.
//!
//! Everything is virtual time under one seed, so the bench asserts its
//! own determinism by building the whole document twice and comparing
//! bytes before writing `BENCH_overload_degradation.json` and
//! `PROFILE_overload_degradation.json`.
//!
//! Run: `cargo run --release -p repro-bench --bin overload_degradation`

use obs::Counter;
use repro_bench::{BenchDoc, BenchPoint};
use scimpi::{
    ClusterSpec, ErrorMode, ObsConfig, OverloadPolicy, RunReport, Source, TagSel, Tuning,
};
use simclock::stats::Table;
use simclock::SimDuration;

/// Eager flood message size (under the 16 KiB eager threshold).
const MSG: usize = 4096;
/// Messages per run: 8× the credit budget at `MSG` bytes each.
const COUNT: usize = 64;
/// Pair eager-credit budget (the minimum `Tuning::validate` allows).
const BUDGET: usize = 16 * 1024;
/// Receiver service time per message.
const SERVICE_US: u64 = 200;
/// Sender inter-message gaps, underload → saturation.
const GAPS_US: [u64; 5] = [400, 200, 100, 50, 0];
/// Messages a lossy policy delivers: the burst prefix that fits the
/// byte budget (credits only fold back at sync points, and neither
/// `Shed` nor `Error` ever waits for a grant).
const LOSSY_DELIVERED: usize = BUDGET / MSG;
/// `Stall` last: the committed PROFILE then carries a live
/// `backpressure` wait bucket.
const POLICIES: [OverloadPolicy; 4] = [
    OverloadPolicy::Error,
    OverloadPolicy::Shed,
    OverloadPolicy::Degrade,
    OverloadPolicy::Stall,
];
const SEED: u64 = 20020415; // IPPS 2002

fn policy_name(p: OverloadPolicy) -> &'static str {
    match p {
        OverloadPolicy::Stall => "stall",
        OverloadPolicy::Degrade => "degrade",
        OverloadPolicy::Shed => "shed",
        OverloadPolicy::Error => "error",
    }
}

fn lossy(p: OverloadPolicy) -> bool {
    matches!(p, OverloadPolicy::Shed | OverloadPolicy::Error)
}

fn spec(policy: OverloadPolicy) -> ClusterSpec {
    let mut spec = ClusterSpec::ringlet(2)
        .errors(ErrorMode::ErrorsReturn)
        .obs(ObsConfig::enabled())
        .tuning(Tuning {
            eager_credits_bytes: BUDGET,
            eager_credit_slots: 256,
            overload_policy: policy,
            ..Tuning::default()
        });
    spec.seed = SEED;
    spec
}

fn payload(i: usize) -> Vec<u8> {
    (0..MSG).map(|j| (i * 131 + j * 7) as u8).collect()
}

struct RunOut {
    makespan_us: f64,
    goodput_mbps: f64,
    delivered: usize,
    peak_eager_bytes: u64,
    report: RunReport,
}

/// One flood at one (policy, gap) point; asserts delivery and returns
/// the measured goodput plus the receiver's backlog high-water mark and
/// the run's report.
fn one_run(policy: OverloadPolicy, gap_us: u64) -> RunOut {
    let delivered = if lossy(policy) {
        LOSSY_DELIVERED
    } else {
        COUNT
    };
    let (times, report) = scimpi::run_report(spec(policy), move |r| {
        if r.rank() == 0 {
            let mut refused = 0usize;
            for i in 0..COUNT {
                if gap_us > 0 {
                    r.compute(SimDuration::from_us(gap_us));
                }
                match r.send(1, 9, &payload(i)) {
                    Ok(()) => {}
                    Err(e) => {
                        assert_eq!(policy, OverloadPolicy::Error, "only Error refuses: {e:?}");
                        refused += 1;
                    }
                }
            }
            if policy == OverloadPolicy::Error {
                assert_eq!(
                    refused,
                    COUNT - LOSSY_DELIVERED,
                    "refusals are deterministic"
                );
            } else {
                assert_eq!(refused, 0);
            }
        } else {
            for i in 0..delivered {
                r.compute(SimDuration::from_us(SERVICE_US));
                let mut buf = vec![0u8; MSG];
                r.recv(Source::Rank(0), TagSel::Value(9), &mut buf)
                    .expect("flood recv");
                assert_eq!(buf, payload(i), "message {i}: in order and bit-perfect");
            }
        }
        r.barrier();
        r.now()
    });
    let makespan = times.into_iter().max().expect("nonempty cluster");
    let makespan_us = makespan.as_ps() as f64 / 1e6;
    let goodput_mbps =
        (delivered * MSG) as f64 / (1024.0 * 1024.0) / (makespan.as_ps() as f64 / 1e12);
    let peak_eager_bytes = report
        .peak_backlogs
        .iter()
        .find(|p| p.rank == 1)
        .map(|p| p.eager_bytes)
        .unwrap_or(0);
    RunOut {
        makespan_us,
        goodput_mbps,
        delivered,
        peak_eager_bytes,
        report,
    }
}

/// One full sweep: the bench document, the report of the final run, and
/// the human table.
fn build() -> (BenchDoc, RunReport, Table) {
    let mut doc = BenchDoc::new("overload_degradation");
    let mut table = Table::new(vec![
        "policy",
        "gap [us]",
        "makespan [us]",
        "goodput [MiB/s]",
        "delivered",
        "peak backlog [B]",
        "stalls/degr/shed/denied",
    ]);
    let mut last = None;
    for policy in POLICIES {
        let name = policy_name(policy);
        let mut goodputs = Vec::new();
        for gap_us in GAPS_US {
            let out = one_run(policy, gap_us);
            let stalls = out.report.counters[Counter::EagerCreditStalls];
            let degraded = out.report.counters[Counter::DegradedPaths];
            let shed = out.report.counters[Counter::MessagesShed];
            let denied = out.report.counters[Counter::BudgetDenials];
            assert!(
                out.peak_eager_bytes <= BUDGET as u64,
                "{name} gap {gap_us}: backlog {} exceeds the {BUDGET}-byte budget",
                out.peak_eager_bytes
            );
            assert!(
                out.goodput_mbps > 0.0,
                "{name} gap {gap_us}: goodput is zero"
            );
            if gap_us == 0 {
                // The saturation run's high-water marks go into the doc.
                doc.record_peak_backlog(name, &out.report);
                match policy {
                    OverloadPolicy::Stall => assert!(stalls > 0, "saturation must stall"),
                    OverloadPolicy::Degrade => assert!(degraded > 0, "saturation must degrade"),
                    OverloadPolicy::Shed => assert!(shed > 0, "saturation must shed"),
                    OverloadPolicy::Error => assert!(denied > 0, "saturation must refuse"),
                }
            }
            goodputs.push((gap_us, out.goodput_mbps));
            table.push_row(vec![
                name.to_string(),
                format!("{gap_us}"),
                format!("{:.1}", out.makespan_us),
                format!("{:.2}", out.goodput_mbps),
                format!("{}", out.delivered),
                format!("{}", out.peak_eager_bytes),
                format!("{stalls}/{degraded}/{shed}/{denied}"),
            ]);
            doc.push(
                name,
                BenchPoint::at(gap_us as f64)
                    .mean_us(out.makespan_us)
                    .mbps(out.goodput_mbps),
            );
            last = Some(out.report);
        }
        if !lossy(policy) {
            // Underloaded points (gap > service) are bounded by their
            // own offered load; graceful degradation is judged where
            // the receiver is the bottleneck: goodput at every
            // *overloaded* point must hold ≥ 70% of the sweep peak.
            let peak = goodputs.iter().map(|&(_, g)| g).fold(0.0f64, f64::max);
            let floor = goodputs
                .iter()
                .filter(|&&(gap, _)| gap < SERVICE_US)
                .map(|&(_, g)| g)
                .fold(f64::INFINITY, f64::min);
            assert!(
                floor >= 0.7 * peak,
                "{name}: goodput under overload ({floor:.2} MiB/s) fell below 70% of the \
                 sweep peak ({peak:.2} MiB/s) — not graceful"
            );
        }
    }
    (doc, last.expect("the sweep is not empty"), table)
}

fn main() {
    let (doc, last, table) = build();
    let (doc2, last2, _) = build();
    assert_eq!(
        doc.to_json(),
        doc2.to_json(),
        "same seed must reproduce byte-identical results"
    );
    assert!(last.profile.is_some(), "obs-enabled run builds a profile");
    assert_eq!(
        last.profile_json(),
        last2.profile_json(),
        "same seed must reproduce a byte-identical profile"
    );

    println!("== Offered load vs goodput per overload policy ==\n");
    println!("{}", table.render());
    doc.write_and_report(Some(&last));
}

//! Throughput degradation under injected fabric faults.
//!
//! Sweeps the transaction error rate over a multi-ring cluster while every
//! rank streams large one-sided puts at its ring neighbour, and reports
//! how aggregate throughput degrades as the fault-tolerant protocol layer
//! absorbs retries, route failovers, and direct→emulated fallbacks. The
//! recovery counters for each rate ride along in the JSON document so a
//! regression check can assert the machinery actually engaged (all zero at
//! rate 0, nonzero above).
//!
//! `max_retries` is pinned low so a realistic share of bursts escalates
//! from soft retry to hard failure, and `osc_fallback_threshold` to 1 so a
//! single hard failure demotes the target — the bench then measures the
//! cost of the *recovery paths*, not just the retry latency.
//!
//! Run: `cargo run --release -p repro-bench --bin fault_degradation`

use obs::json::{self, Json};
use obs::Counter;
use repro_bench::jsonout::write_reported;
use sci_fabric::{death_schedule, FaultConfig};
use scimpi::{shrink, ClusterSpec, ErrorMode, ObsConfig, Tuning, WinMemory};
use simclock::stats::Table;
use simclock::{SimDuration, SimTime};

const PUT_SIZE: usize = 128 * 1024;
const ROUNDS: usize = 8;
const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.1];

/// The recovery-counter totals of one run, in JSON field order.
const RECOVERY: [(&str, Counter); 8] = [
    ("link_txn_retries", Counter::LinkTxnRetries),
    ("link_hard_failures", Counter::LinkHardFailures),
    ("route_failovers", Counter::RouteFailovers),
    ("route_heals", Counter::RouteHeals),
    ("osc_fallbacks", Counter::OscFallbacks),
    ("osc_repromotions", Counter::OscRepromotions),
    ("peers_declared_dead", Counter::PeersDeclaredDead),
    ("protocol_timeouts", Counter::ProtocolTimeouts),
];

fn spec_for(rate: f64) -> ClusterSpec {
    // Retry draws of all ranks come off one shared RNG stream, in
    // dispatch order: every row reproduces from the seed.
    let mut spec = ClusterSpec::multi_ring(2, 4)
        .errors(ErrorMode::ErrorsReturn)
        .tuning(Tuning {
            osc_fallback_threshold: 1,
            ..Tuning::default()
        })
        .obs(ObsConfig::enabled());
    spec.faults = FaultConfig {
        error_rate: rate,
        max_retries: 1,
        ..FaultConfig::default()
    };
    spec.seed = 20020415; // IPPS 2002
    spec
}

/// Run the workload and return aggregate throughput in MiB/s with the
/// run's counter table.
fn throughput_at(rate: f64) -> (f64, obs::CounterTable) {
    let (times, report): (Vec<SimTime>, _) = scimpi::run_report(spec_for(rate), |r| {
        let size = r.size();
        let mem = r.alloc_mem(PUT_SIZE).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        let data = vec![r.rank() as u8; PUT_SIZE];
        win.fence(r).unwrap();
        for _ in 0..ROUNDS {
            let target = (r.rank() + 1) % size;
            // With `osc_fallback_threshold: 1` a hard failure demotes the
            // target and the same call is served by the emulation path, so
            // the put itself never errors — its *cost* is what degrades.
            win.put(r, target, 0, &data)
                .expect("fallback absorbs hard failures");
            // The fence re-promotes demoted targets (the admin route is
            // healthy; only random transaction faults are injected), so
            // every round re-attempts the direct path first.
            win.fence(r).unwrap();
        }
        r.now()
    });
    let total_bytes = (times.len() * ROUNDS * PUT_SIZE) as f64;
    let max_time = times.into_iter().max().expect("nonempty cluster");
    let mbps = total_bytes / (1024.0 * 1024.0) / max_time.as_secs_f64();
    (mbps, report.counters)
}

/// Same streaming workload, but one seeded rank dies halfway through:
/// the survivors shrink to the new membership, rebuild their window, and
/// finish the remaining rounds. The returned MiB/s is the job's
/// aggregate over its whole (stalled-and-shrunk) lifetime — what a user
/// actually retains when a rank is lost at this fault rate.
fn survivor_throughput_at(rate: f64) -> f64 {
    let victim = death_schedule(20020415, 8, 1, SimDuration::from_ms(10))[0].node;
    let results: Vec<(SimTime, usize)> = scimpi::run(spec_for(rate), move |r| {
        let mem = r.alloc_mem(PUT_SIZE).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        let data = vec![r.rank() as u8; PUT_SIZE];
        win.fence(r).unwrap();
        let mut sent = 0usize;
        for _ in 0..ROUNDS / 2 {
            let target = (r.rank() + 1) % r.size();
            win.put(r, target, 0, &data)
                .expect("fallback absorbs hard failures");
            win.fence(r).unwrap();
            sent += PUT_SIZE;
        }
        r.barrier();
        if r.world_rank() == victim {
            r.fabric().faults().kill_node(r.node().0);
            return (r.now(), sent);
        }
        shrink(r).expect("survivors agree on the shrunk membership");
        // The old window is pinned to the dead epoch; stream the second
        // half through a fresh one over the survivors.
        let mem = r.alloc_mem(PUT_SIZE).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.fence(r).unwrap();
        for _ in 0..ROUNDS / 2 {
            let target = (r.rank() + 1) % r.size();
            win.put(r, target, 0, &data)
                .expect("fallback absorbs hard failures");
            win.fence(r).unwrap();
            sent += PUT_SIZE;
        }
        (r.now(), sent)
    });
    let total_bytes: f64 = results.iter().map(|&(_, b)| b as f64).sum();
    let max_time = results.iter().map(|&(t, _)| t).max().expect("nonempty");
    total_bytes / (1024.0 * 1024.0) / max_time.as_secs_f64()
}

fn main() {
    let mut table = Table::new(vec![
        "error rate",
        "throughput [MiB/s]",
        "degradation",
        "survivor [MiB/s]",
        "hard failures",
        "failovers",
        "fallbacks",
        "repromotions",
    ]);
    let mut points = Vec::new();
    let mut baseline = 0.0;
    for &rate in &RATES {
        let (mbps, swept) = throughput_at(rate);
        let counters: Vec<(&str, u64)> =
            RECOVERY.iter().map(|&(name, c)| (name, swept[c])).collect();
        let total_recoveries: u64 = counters.iter().map(|&(_, v)| v).sum();
        if rate == 0.0 {
            baseline = mbps;
            assert_eq!(
                total_recoveries, 0,
                "a healthy fabric must not trip any recovery counter"
            );
            assert_eq!(
                swept[Counter::Retransmits],
                0,
                "a healthy fabric must not trip an integrity retransmission"
            );
        } else {
            assert!(
                total_recoveries > 0,
                "error rate {rate} engaged no recovery machinery"
            );
        }
        let survivor_mbps = survivor_throughput_at(rate);
        assert!(
            survivor_mbps < mbps,
            "losing a rank at rate {rate} cannot speed the job up"
        );
        let find = |name: &str| counters.iter().find(|&&(n, _)| n == name).unwrap().1;
        table.push_row(vec![
            format!("{rate}"),
            format!("{mbps:.1}"),
            format!("{:.1}%", (1.0 - mbps / baseline) * 100.0),
            format!("{survivor_mbps:.1}"),
            format!("{}", find("link_hard_failures")),
            format!("{}", find("route_failovers")),
            format!("{}", find("osc_fallbacks")),
            format!("{}", find("osc_repromotions")),
        ]);
        points.push(Json::obj([
            ("error_rate", rate.into()),
            ("mbps", mbps.into()),
            ("degradation_pct", ((1.0 - mbps / baseline) * 100.0).into()),
            ("survivor_mbps", survivor_mbps.into()),
            (
                "recovery",
                Json::obj(counters.iter().map(|&(name, v)| (name, v.into()))),
            ),
        ]));
    }

    println!("== One-sided throughput vs injected fault rate ==\n");
    println!("{}", table.render());
    // Its own shape: the recovery-counter objects don't fit BenchDoc's
    // series of BenchPoints, but the envelope matches the other benches.
    let doc = Json::obj([
        ("bench", "fault_degradation".into()),
        ("put_bytes", PUT_SIZE.into()),
        ("rounds", ROUNDS.into()),
        ("points", Json::arr(points).lines()),
    ]);
    write_reported("BENCH_fault_degradation.json", &json::render(&doc));
}

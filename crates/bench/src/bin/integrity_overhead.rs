//! The price of data integrity: virtual-time overhead of the three
//! [`IntegrityMode`]s over a mixed p2p + one-sided workload.
//!
//! Sweeps `integrity_mode` at a healthy fabric (pure protocol tax:
//! sequence-guard charges for `SequenceCheck`, CRC framing for
//! `EndToEnd`) and then raises the silent-corruption rate to show the two
//! failure philosophies: `Off` keeps its full speed but delivers corrupt
//! bytes (the `undetected` column), while `EndToEnd` keeps every byte
//! exact and pays for it in retransmissions.
//!
//! `SequenceCheck` runs only on the healthy fabric: at any positive rate
//! it (correctly) aborts the transfers instead of degrading, so there is
//! no throughput to report.
//!
//! Run: `cargo run --release -p repro-bench --bin integrity_overhead`

use obs::json::{self, Json};
use obs::Counter;
use repro_bench::jsonout::write_reported;
use sci_fabric::FaultConfig;
use scimpi::{ClusterSpec, IntegrityMode, ObsConfig, Source, TagSel, Tuning, WinMemory};
use simclock::stats::Table;
use simclock::SimTime;

const MSG_SIZE: usize = 256 * 1024;
const PUT_SIZE: usize = 128 * 1024;
const ROUNDS: usize = 4;

/// (mode, corrupt_rate) points, in table order. Dropped-store rate rides
/// along at a quarter of the corruption rate.
const POINTS: [(IntegrityMode, f64); 6] = [
    (IntegrityMode::Off, 0.0),
    (IntegrityMode::SequenceCheck, 0.0),
    (IntegrityMode::EndToEnd, 0.0),
    (IntegrityMode::Off, 1e-3),
    (IntegrityMode::EndToEnd, 1e-4),
    (IntegrityMode::EndToEnd, 1e-3),
];

fn mode_name(mode: IntegrityMode) -> &'static str {
    match mode {
        IntegrityMode::Off => "off",
        IntegrityMode::SequenceCheck => "sequence_check",
        IntegrityMode::EndToEnd => "end_to_end",
    }
}

fn spec_for(mode: IntegrityMode, corrupt: f64) -> ClusterSpec {
    let mut spec = ClusterSpec::ringlet(4)
        .tuning(Tuning {
            integrity_mode: mode,
            max_retransmits: 64,
            ..Tuning::default()
        })
        .obs(ObsConfig::enabled());
    spec.faults = FaultConfig::silent(corrupt, corrupt / 4.0);
    spec.seed = 20020415; // IPPS 2002
    spec
}

/// Ring-shift rendezvous messages plus fenced one-sided puts; returns
/// aggregate goodput in MiB/s with the run's counter table.
fn throughput(mode: IntegrityMode, corrupt: f64) -> (f64, obs::CounterTable) {
    let (times, report): (Vec<SimTime>, _) = scimpi::run_report(spec_for(mode, corrupt), |r| {
        let size = r.size();
        let right = (r.rank() + 1) % size;
        let left = (r.rank() + size - 1) % size;
        let msg = vec![r.rank() as u8; MSG_SIZE];
        let put = vec![0x5A; PUT_SIZE];
        let mem = r.alloc_mem(PUT_SIZE).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.fence(r).unwrap();
        for _ in 0..ROUNDS {
            let mut buf = vec![0u8; MSG_SIZE];
            // Even ranks send first — a deadlock-free ring shift through
            // the rendezvous protocol (ringlet sizes are even).
            if r.rank() % 2 == 0 {
                r.send(right, 7, &msg).unwrap();
                r.recv(Source::Rank(left), TagSel::Value(7), &mut buf)
                    .unwrap();
            } else {
                r.recv(Source::Rank(left), TagSel::Value(7), &mut buf)
                    .unwrap();
                r.send(right, 7, &msg).unwrap();
            }
            win.put(r, right, 0, &put).expect("put");
            win.fence(r).unwrap();
        }
        r.now()
    });
    let total_bytes = (times.len() * ROUNDS * (MSG_SIZE + PUT_SIZE)) as f64;
    let max_time = times.into_iter().max().expect("nonempty cluster");
    let mbps = total_bytes / (1024.0 * 1024.0) / max_time.as_secs_f64();
    (mbps, report.counters)
}

fn main() {
    let mut table = Table::new(vec![
        "mode",
        "corrupt rate",
        "goodput [MiB/s]",
        "overhead",
        "injected",
        "detected",
        "retransmits",
        "undetected",
    ]);
    let mut points = Vec::new();
    let mut baseline = 0.0;
    for &(mode, corrupt) in &POINTS {
        let (mbps, counters) = throughput(mode, corrupt);
        let injected = counters[Counter::CorruptionsInjected];
        let detected = counters[Counter::CorruptionsDetected];
        let retransmits = counters[Counter::Retransmits];
        let undetected = counters[Counter::UndetectedAtOff];
        if corrupt == 0.0 {
            assert_eq!(injected, 0, "a healthy fabric must not inject");
            assert_eq!(
                retransmits,
                0,
                "{}: zero corruption must mean zero retransmissions",
                mode_name(mode)
            );
        }
        if mode == IntegrityMode::EndToEnd {
            assert_eq!(undetected, 0, "EndToEnd leaves no fault uncovered");
        }
        if mode == IntegrityMode::Off && corrupt > 0.0 {
            assert!(undetected > 0, "Off must expose the injected faults");
        }
        if mode == IntegrityMode::Off && corrupt == 0.0 {
            baseline = mbps;
        }
        table.push_row(vec![
            mode_name(mode).into(),
            format!("{corrupt}"),
            format!("{mbps:.1}"),
            format!("{:.1}%", (1.0 - mbps / baseline) * 100.0),
            format!("{injected}"),
            format!("{detected}"),
            format!("{retransmits}"),
            format!("{undetected}"),
        ]);
        points.push(Json::obj([
            ("mode", mode_name(mode).into()),
            ("corrupt_rate", corrupt.into()),
            ("mbps", mbps.into()),
            ("overhead_pct", ((1.0 - mbps / baseline) * 100.0).into()),
            ("corruptions_injected", injected.into()),
            ("corruptions_detected", detected.into()),
            ("retransmits", retransmits.into()),
            ("undetected_at_off", undetected.into()),
        ]));
    }

    println!("== Integrity-mode overhead over a mixed p2p + one-sided workload ==\n");
    println!("{}", table.render());
    // Its own shape: the per-point counter fields don't fit BenchDoc's
    // series of BenchPoints, but the envelope matches the other benches.
    let doc = Json::obj([
        ("bench", "integrity_overhead".into()),
        ("msg_bytes", MSG_SIZE.into()),
        ("put_bytes", PUT_SIZE.into()),
        ("rounds", ROUNDS.into()),
        ("points", Json::arr(points).lines()),
    ]);
    write_reported("BENCH_integrity_overhead.json", &json::render(&doc));
}

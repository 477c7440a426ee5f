//! Cost of surviving: buddy-checkpoint overhead and time-to-recover.
//!
//! Part one sweeps the checkpoint interval over a fixed compute loop
//! (allreduce rounds) and reports the virtual-time overhead each cadence
//! adds over an uncheckpointed baseline — the price of being *able* to
//! recover. Part two kills one rank (drawn from the seeded
//! `death_schedule`, which never picks the shrink leader) and measures
//! the survivors' time from entering the shrink to being rebound over
//! the new membership with their images restored — the price of
//! *actually* recovering, as the world grows.
//!
//! Everything is virtual time under one seed, so the bench asserts its
//! own determinism by building the whole document twice and comparing
//! bytes before writing `BENCH_recovery_cost.json` and
//! `PROFILE_recovery_cost.json`.
//!
//! Run: `cargo run --release -p repro-bench --bin recovery_cost`

use obs::json::{self, Json};
use obs::Counter;
use repro_bench::jsonout::write_reported;
use sci_fabric::death_schedule;
use scimpi::{shrink, Checkpointer, ClusterSpec, ErrorMode, ObsConfig, ReduceOp, RunReport};
use simclock::stats::Table;
use simclock::{SimDuration, SimTime};

const IMAGE: usize = 32 * 1024;
const WORDS: usize = 2048;
const ROUNDS: usize = 8;
/// Checkpoint cadences: 0 = never (the baseline), else every c rounds.
const INTERVALS: [usize; 5] = [0, 1, 2, 4, 8];
/// Cluster sizes for the kill-one recovery scenario.
const SIZES: [usize; 3] = [2, 4, 8];
const SEED: u64 = 20020415; // IPPS 2002

fn spec(n: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::ringlet(n)
        .errors(ErrorMode::ErrorsReturn)
        .obs(ObsConfig::enabled());
    spec.seed = SEED;
    spec
}

/// Run the compute loop checkpointing every `interval` rounds (never for
/// 0); returns the makespan and the run's counter table.
fn checkpoint_run(interval: usize) -> (SimTime, obs::CounterTable) {
    let (times, report) = scimpi::run_report(spec(4), move |r| {
        let mut state = vec![(r.rank() + 1) as f64; WORDS];
        let mut ckpt = (interval > 0).then(|| Checkpointer::new(r, IMAGE).unwrap());
        let image = vec![0xA5u8; IMAGE];
        for round in 1..=ROUNDS {
            let mut sum = state.clone();
            r.allreduce(&mut sum, ReduceOp::Sum).unwrap();
            for (s, t) in state.iter_mut().zip(sum) {
                *s = 0.5 * (*s + t);
            }
            if let Some(c) = ckpt.as_mut() {
                if round % interval == 0 {
                    c.checkpoint(r, &image).unwrap();
                }
            }
        }
        if let Some(c) = ckpt.take() {
            c.free(r);
        }
        r.barrier();
        r.now()
    });
    let makespan = times.into_iter().max().expect("nonempty cluster");
    (makespan, report.counters)
}

/// Kill one seeded victim on an `n`-rank ring and measure the slowest
/// survivor's shrink → restore → rebind span; returned with the run's
/// report.
fn recover_run(n: usize) -> (SimDuration, RunReport) {
    let victim = death_schedule(SEED, n, 1, SimDuration::from_ms(10))[0].node;
    let (durations, report) = scimpi::run_report(spec(n), move |r| {
        let mut ckpt = Checkpointer::new(r, IMAGE).unwrap();
        ckpt.checkpoint(r, &vec![r.rank() as u8; IMAGE]).unwrap();
        r.barrier();
        if r.world_rank() == victim {
            r.fabric().faults().kill_node(r.node().0);
            return SimDuration::ZERO;
        }
        let start = r.now();
        let report = shrink(r).unwrap();
        assert_eq!(report.dead, vec![victim], "agreement found the victim");
        let restored = ckpt.restore(r).unwrap();
        assert_eq!(restored, vec![r.world_rank() as u8; IMAGE]);
        let ckpt = ckpt.rebind(r).unwrap();
        let recovered = r.now() - start;
        ckpt.free(r);
        recovered
    });
    let slowest = durations.into_iter().max().expect("nonempty cluster");
    (slowest, report)
}

/// One full sweep: returns the bench JSON document, the profile JSON of
/// the final run, and the two human tables.
fn build() -> (String, String, Table, Table) {
    let mut ckpt_table = Table::new(vec![
        "interval",
        "makespan [us]",
        "overhead",
        "checkpoints",
        "replicated [MiB]",
    ]);
    let mut ckpt_points = Vec::new();
    let mut baseline_us = 0.0;
    for &interval in &INTERVALS {
        let (makespan, counters) = checkpoint_run(interval);
        let taken = counters[Counter::CheckpointsTaken];
        let bytes = counters[Counter::CheckpointBytes];
        let expect = 4 * ROUNDS.checked_div(interval).unwrap_or(0) as u64;
        assert_eq!(taken, expect, "interval {interval} checkpoint count");
        assert_eq!(
            counters[Counter::Revocations] + counters[Counter::RecoveryRestores],
            0,
            "a fault-free sweep must not touch the recovery paths"
        );
        let us = makespan.as_ps() as f64 / 1e6;
        if interval == 0 {
            baseline_us = us;
        }
        let overhead_pct = (us / baseline_us - 1.0) * 100.0;
        let mib = bytes as f64 / (1024.0 * 1024.0);
        ckpt_table.push_row(vec![
            if interval == 0 {
                "never".to_string()
            } else {
                format!("every {interval}")
            },
            format!("{us:.1}"),
            format!("{overhead_pct:.1}%"),
            format!("{taken}"),
            format!("{mib:.2}"),
        ]);
        ckpt_points.push(Json::obj([
            ("interval", interval.into()),
            ("makespan_us", us.into()),
            ("overhead_pct", overhead_pct.into()),
            ("checkpoints", taken.into()),
            ("checkpoint_mib", mib.into()),
        ]));
    }

    let mut rec_table = Table::new(vec![
        "ranks",
        "recover [us]",
        "agreement exchanges",
        "peers declared dead",
    ]);
    let mut rec_points = Vec::new();
    let mut last = None;
    for &n in &SIZES {
        let (recover, report) = recover_run(n);
        let exchanges = report.counters[Counter::AgreementRounds];
        let declared = report.counters[Counter::PeersDeclaredDead];
        last = Some(report);
        let us = recover.as_ps() as f64 / 1e6;
        rec_table.push_row(vec![
            format!("{n}"),
            format!("{us:.1}"),
            format!("{exchanges}"),
            format!("{declared}"),
        ]);
        rec_points.push(Json::obj([
            ("ranks", n.into()),
            ("recover_us", us.into()),
            ("agreement_exchanges", exchanges.into()),
            ("peers_declared_dead", declared.into()),
        ]));
    }

    let json = json::render(&Json::obj([
        ("bench", "recovery_cost".into()),
        ("image_bytes", IMAGE.into()),
        ("rounds", ROUNDS.into()),
        ("checkpoint", Json::arr(ckpt_points).lines()),
        ("recover", Json::arr(rec_points).lines()),
    ]));
    let last = last.expect("the sweep is not empty");
    assert!(last.profile.is_some(), "obs-enabled run builds a profile");
    (json, last.profile_json(), ckpt_table, rec_table)
}

fn main() {
    let (json, profile, ckpt_table, rec_table) = build();
    let (json2, profile2, _, _) = build();
    assert_eq!(
        json, json2,
        "same seed must reproduce byte-identical results"
    );
    assert_eq!(
        profile, profile2,
        "same seed must reproduce a byte-identical profile"
    );

    println!("== Buddy-checkpoint overhead vs cadence (4 ranks) ==\n");
    println!("{}", ckpt_table.render());
    println!("== Time to recover from one rank death ==\n");
    println!("{}", rec_table.render());
    write_reported("BENCH_recovery_cost.json", &json);
    write_reported("PROFILE_recovery_cost.json", &profile);
}

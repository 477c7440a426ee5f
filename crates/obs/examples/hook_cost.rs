//! Host cost of the recorder, hook by hook: nanoseconds per call on an
//! unbound thread (recording off) and on a bound, attributing one, at the
//! size of one `pingpong_obs` repetition of `benchmark/` (about 150 000
//! spans and 86 404 waits), plus what teardown pays for them — dropping
//! kept events and walking the critical path of a 2-rank ping-pong in its
//! wait logs — and the bytes a recorded wait takes. It fails if a wait
//! takes more than [`MAX_BYTES_PER_WAIT`].
//!
//! ```bash
//! cargo run --release -p scimpi-obs --example hook_cost
//! ```
//!
//! Every bound round starts from a fresh [`Recorder`], as every run does,
//! so the event vector's growth and first-touch page faults are in the
//! `span` row that keeps events; the row without events is what a run
//! that asked for no trace pays. Each cell is the median of [`ROUNDS`]
//! rounds (the fastest round in brackets). docs/OBSERVABILITY.md, "Host
//! cost of recording", keeps the readings.

use obs::attrib::{self, Bucket, WaitKind, WaitLog};
use obs::{Arg, Counter, Recorder};
use simclock::{Clock, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const CALLS: u64 = 150_000;
const CHAIN_WAITS: u64 = 86_404;
const ROUNDS: usize = 9;
/// What a recorded wait may take in its rank's log; a 40-byte
/// `WaitEvent` per wait is what the logs replaced.
const MAX_BYTES_PER_WAIT: f64 = 12.0;

/// Median and minimum over the rounds of `round`, which returns seconds.
fn rounds(mut round: impl FnMut() -> f64) -> (f64, f64) {
    let mut s: Vec<f64> = (0..ROUNDS).map(|_| round()).collect();
    s.sort_by(f64::total_cmp);
    (s[ROUNDS / 2], s[0])
}

/// Seconds `hook` takes over [`CALLS`] calls.
fn timed(mut hook: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..CALLS {
        hook(black_box(i));
    }
    t0.elapsed().as_secs_f64()
}

/// One row: `hook` on this (unbound) thread, then bound to a fresh
/// `recorder()` and marked as attributing, in ns per call.
fn row(name: &str, recorder: fn() -> Arc<Recorder>, mut hook: impl FnMut(u64)) {
    let ns = |(median, min): (f64, f64)| {
        let per_call = 1e9 / CALLS as f64;
        format!("{:7.1} ({:5.1})", median * per_call, min * per_call)
    };
    let unbound = rounds(|| timed(&mut hook));
    let bound = rounds(|| {
        let rec = recorder();
        let _bound = rec.bind(0);
        attrib::set_thread_attrib(true);
        timed(&mut hook)
    });
    println!("{name:<28} {:>16} {:>16}", ns(unbound), ns(bound));
}

/// What a p2p span carries.
fn three_args(bytes: u64) -> Vec<(&'static str, Arg)> {
    vec![
        ("bytes", Arg::U64(bytes)),
        ("peer", Arg::U64(1)),
        ("tag", Arg::U64(7)),
    ]
}

fn main() {
    println!(
        "{CALLS} calls a round, median of {ROUNDS} rounds (fastest round)\n\n{:<28} {:>16} {:>16}",
        "hook", "unbound ns/call", "bound ns/call"
    );
    let mut clock = Clock::new();
    row("attrib::advance", Recorder::new, |i| {
        attrib::advance(
            &mut clock,
            Bucket::Transfer,
            SimDuration::from_ps(1 + (i & 7)),
        );
    });
    row("attrib::wait", Recorder::new, |i| {
        let (start, end) = (SimTime::from_ps(10 * i), SimTime::from_ps(10 * i + 5));
        attrib::wait(WaitKind::LateSender, start, end, Some(1));
    });
    row("inc", Recorder::new, |_| obs::inc(Counter::EagerSends));
    let span = |i| {
        // Call sites build their arguments only when recording is on.
        let args = match obs::is_enabled() {
            true => three_args(i),
            false => Vec::new(),
        };
        obs::span(
            "p2p.send",
            SimTime::from_ps(i),
            SimTime::from_ps(i + 9),
            args,
        );
    };
    row("span, three args, events", Recorder::with_events, span);
    row("span, three args, no events", Recorder::new, span);

    let (median, min) = rounds(|| {
        let rec = Recorder::with_events();
        let _bound = rec.bind(0);
        for i in 0..CALLS {
            obs::span(
                "p2p.send",
                SimTime::ZERO,
                SimTime::from_ps(9),
                three_args(i),
            );
        }
        let events = rec.take_events();
        let t0 = Instant::now();
        drop(black_box(events));
        t0.elapsed().as_secs_f64()
    });
    let per_event = 1e9 / CALLS as f64;
    println!(
        "{:<28} {:>16} {:>9.1} ({:5.1})",
        "dropping those events",
        "",
        median * per_event,
        min * per_event
    );

    // The wait graph of a 2-rank ping-pong: each rank waits for the other
    // in turn, so the critical path changes rank at every wait. Each rank
    // logs its waits in clock order, as its lane does.
    let mut logs: BTreeMap<u32, WaitLog> = BTreeMap::new();
    for k in 0..CHAIN_WAITS {
        let rank = (k % 2) as u32;
        let log = logs.entry(rank).or_insert_with(|| WaitLog::new(rank));
        let (start, end) = (40_000 * k + 10_000, 40_000 * (k + 1));
        log.push(WaitKind::LateSender, start, end, Some(1 - rank));
    }
    let bytes: usize = logs.values().map(WaitLog::byte_len).sum();
    let per_wait = bytes as f64 / CHAIN_WAITS as f64;
    let makespans = [(0, 40_000 * CHAIN_WAITS + 5_000), (1, 40_000 * CHAIN_WAITS)];
    let mut hops = 0;
    let (median, min) = rounds(|| {
        let t0 = Instant::now();
        hops = black_box(obs::critpath::walk(&makespans, black_box(&logs)))
            .hops
            .len();
        t0.elapsed().as_secs_f64()
    });
    println!(
        "\nwait logs, 2-rank chain of {CHAIN_WAITS} waits: {bytes} bytes, {per_wait:.2} bytes per wait"
    );
    println!(
        "critpath::walk over them ({hops} hops kept): {:.3} ms ({:.3})",
        median * 1e3,
        min * 1e3
    );
    assert!(
        per_wait <= MAX_BYTES_PER_WAIT,
        "a recorded wait takes {per_wait:.2} bytes, more than {MAX_BYTES_PER_WAIT}"
    );
}

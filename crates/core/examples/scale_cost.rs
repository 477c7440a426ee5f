//! Host cost of a run by phase and world size: microseconds per rank for
//! cluster launch, a barrier, one ring round (a 64-byte send and receive
//! per rank), one 8-byte allreduce and teardown, at
//! 256 / 1 024 / 2 048 / 4 096 ranks — the shape of
//! `scale_ring` in `benchmark/` and of the `megascale` bin. A phase whose
//! per-rank cost grows with the rank count has a world-size term in it.
//!
//! ```bash
//! cargo run --release -p scimpi --example scale_cost              # all four
//! cargo run --release -p scimpi --example scale_cost -- --ranks 2048
//! ```
//!
//! One task runs at a time, so host time between two instants belongs to
//! whatever ran between them. The instants are barrier completions: the
//! last arriver of a barrier leaves it at once, so the earliest exit over
//! all ranks is the moment the phase before it ended. Launch ends when
//! the first rank body starts (the scheduler grants nobody before every
//! rank has checked in); `cold barrier` is every rank's first slice, up
//! to the first completion; `barrier` is one full cycle after it — `n`
//! resumes, `n` arrivals — and is subtracted from the two phases that
//! follow, each of which is closed by a barrier of its own; teardown
//! starts at the last completion and ends when the run returns. `faults`
//! is the minor page faults the process took during the run, per rank:
//! about one per rank while each rank's coroutine stack is touched for
//! the first time, about none once the stacks of an earlier run in the
//! process are reused (the first run in the process is cold). Each cell
//! is the median of [`RUNS`] runs. docs/SCHEDULER.md, "Measured: where a
//! megascale run spends its host time", keeps the readings.

use scimpi::{run, ClusterSpec, ReduceOp, Source, TagSel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const RUNS: usize = 5;
const RING_ROUNDS: usize = 8;
const RING_BYTES: usize = 64;
const SIZES: [usize; 4] = [256, 1024, 2048, 4096];
const PHASES: [&str; 6] = [
    "launch",
    "cold barrier",
    "barrier",
    "ring round",
    "allreduce",
    "teardown",
];

/// Nanoseconds since the run's start at which the first rank body began
/// and each of the four barriers completed: the earliest over the ranks.
struct Marks {
    t0: Instant,
    earliest: [AtomicU64; 5],
}

impl Marks {
    fn mark(&self, edge: usize) {
        let now = self.t0.elapsed().as_nanos() as u64;
        self.earliest[edge].fetch_min(now, Ordering::Relaxed);
    }
}

/// Minor page faults the process has taken so far: `minflt`, the tenth
/// field of `/proc/self/stat`.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // The fields after the parenthesised command name start at the third.
    let rest = &stat[stat.rfind(')').expect("a command name") + 1..];
    let minflt = rest.split_whitespace().nth(10 - 3);
    minflt.and_then(|f| f.parse().ok()).expect("a minflt field")
}

/// One run at `ranks` ranks: host seconds per phase, in [`PHASES`] order,
/// then of the whole run, then the minor page faults the run took.
fn one_run(ranks: usize) -> [f64; 8] {
    let faults = minor_faults();
    let marks = Marks {
        t0: Instant::now(),
        earliest: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
    };
    run(ClusterSpec::ringlet(ranks), |r| {
        marks.mark(0);
        let (me, n) = (r.rank(), r.size());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        r.barrier();
        marks.mark(1);
        r.barrier();
        marks.mark(2);
        let payload = [me as u8; RING_BYTES];
        let mut buf = [0u8; RING_BYTES];
        for _ in 0..RING_ROUNDS {
            // Parity split: evens talk first, odds listen first.
            if me % 2 == 0 {
                r.send(right, 7, &payload).unwrap();
                r.recv(Source::Rank(left), TagSel::Value(7), &mut buf)
                    .unwrap();
            } else {
                r.recv(Source::Rank(left), TagSel::Value(7), &mut buf)
                    .unwrap();
                r.send(right, 7, &payload).unwrap();
            }
        }
        assert_eq!(buf[0], left as u8, "ring payload corrupted");
        r.barrier();
        marks.mark(3);
        let mut sum = [1.0f64];
        r.allreduce(&mut sum, ReduceOp::Sum).unwrap();
        assert_eq!(sum[0] as usize, n, "allreduce lost a rank");
        r.barrier();
        marks.mark(4);
    });
    let end = marks.t0.elapsed().as_secs_f64();
    let at = |edge: usize| marks.earliest[edge].load(Ordering::Relaxed) as f64 / 1e9;
    let barrier = at(2) - at(1);
    [
        at(0),
        at(1) - at(0),
        barrier,
        (at(3) - at(2) - barrier) / RING_ROUNDS as f64,
        at(4) - at(3) - barrier,
        end - at(4),
        end,
        (minor_faults() - faults) as f64,
    ]
}

fn ranks_from_args() -> Vec<usize> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => SIZES.to_vec(),
        [flag, n] if flag == "--ranks" => match n.parse::<usize>() {
            // The parity-split ring needs an even rank count.
            Ok(n) if n >= 2 && n % 2 == 0 => vec![n],
            _ => panic!("--ranks takes an even rank count >= 2, got {n:?}"),
        },
        _ => panic!("usage: scale_cost [--ranks <n>]"),
    }
}

fn main() {
    println!(
        "host us per rank, median of {RUNS} runs; ring round = one {RING_BYTES}-byte \
         send + recv per rank; faults = minor page faults per rank per run\n"
    );
    print!("{:>6}", "ranks");
    for name in PHASES {
        print!(" {name:>12}");
    }
    println!(" {:>12} {:>12}", "run, s", "faults");
    for ranks in ranks_from_args() {
        let runs: Vec<[f64; 8]> = (0..RUNS).map(|_| one_run(ranks)).collect();
        let median = |column: usize| {
            let mut s: Vec<f64> = runs.iter().map(|r| r[column]).collect();
            s.sort_by(f64::total_cmp);
            s[RUNS / 2]
        };
        print!("{ranks:>6}");
        for phase in 0..PHASES.len() {
            print!(" {:>12.2}", median(phase) * 1e6 / ranks as f64);
        }
        let faults = median(PHASES.len() + 1) / ranks as f64;
        println!(" {:>12.3} {faults:>12.2}", median(PHASES.len()));
    }
}

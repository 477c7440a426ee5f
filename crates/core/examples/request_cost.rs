//! Host cost of a nonblocking receive: nanoseconds per `irecv` + `wait`
//! of one message on a two-rank ringlet, for the three ways a receive
//! meets its message —
//!
//! * **eager, posted after arrival**: the message is queued when `irecv`
//!   is posted, so the receive completes at post and no engine task runs;
//! * **eager, posted before arrival**: `irecv` finds nothing and leaves
//!   a delivery on its posted-queue entry; the send consumes the message
//!   into it, and no engine task runs either;
//! * **rendezvous** (20 000 B, one ring chunk), posted before the RTS:
//!   the sender starts the receive's engine, which drives the CTS and
//!   chunk conversation —
//!
//! the `core` protocol row beneath `hostbench`'s `halo_requests`, which
//! mixes the first two with `isend`s, compute and an allreduce.
//!
//! ```bash
//! taskset -c 0 cargo run --release -p scimpi --example request_cost
//! ```
//!
//! Run it pinned to one CPU, as `hostbench` runs: unpinned, every
//! handoff between rank tasks may cross cores, and the readings swing
//! with where the threads land (the posted-before row read 18.8 µs
//! unpinned against 5.45 µs pinned while an engine still waited for
//! the message, on a 2-core Intel Xeon).
//!
//! Rank 1 sends [`BATCH`] messages to rank 0 per round, and a barrier
//! separates the rounds. "After": rank 1 sends before the barrier, and
//! after it rank 0 posts and waits each receive in turn. Otherwise rank 0
//! posts the whole batch before the barrier, rank 1 sends after it, and
//! rank 0 `waitall`s. One task runs at a time, so the host time of a
//! round covers everything every task did in it, the sends included. A
//! round of the same shape with no messages (the barrier) is subtracted
//! and the rest divided by the batch. Each cell is the median of
//! [`RUNS`] runs.

use scimpi::{run, ClusterSpec, Rank, Source, TagSel};
use std::time::Instant;

const RUNS: usize = 5;
const ROUNDS: usize = 200;
const BATCH: usize = 32;
const EAGER_BYTES: usize = 64;
const RDV_BYTES: usize = 20_000;

fn send_batch(r: &mut Rank, payload: &[u8], batch: usize) {
    for _ in 0..batch {
        r.send(0, 0, payload).expect("healthy fabric");
    }
}

/// Host ns per round of `batch` messages of `len` bytes, receives posted
/// before the messages are sent (`post_first`) or after they are queued.
fn round_ns(len: usize, batch: usize, post_first: bool) -> f64 {
    let out = run(ClusterSpec::ringlet(2), move |r| {
        let payload = vec![5u8; len];
        let (from, tag) = (Source::Rank(1), TagSel::Value(0));
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            if r.rank() == 1 {
                if !post_first {
                    send_batch(r, &payload, batch);
                }
                r.barrier();
                if post_first {
                    send_batch(r, &payload, batch);
                }
            } else if post_first {
                let mut reqs: Vec<_> = (0..batch)
                    .map(|_| r.irecv(from, tag, len).expect("posted"))
                    .collect();
                r.barrier();
                r.waitall(&mut reqs).expect("healthy fabric");
            } else {
                r.barrier();
                for _ in 0..batch {
                    let mut req = r.irecv(from, tag, len).expect("posted");
                    r.wait(&mut req).expect("healthy fabric");
                }
            }
        }
        r.barrier();
        t0.elapsed().as_secs_f64()
    });
    out[0] * 1e9 / ROUNDS as f64
}

fn median(mut cell: impl FnMut() -> f64) -> f64 {
    let mut runs: Vec<f64> = (0..RUNS).map(|_| cell()).collect();
    runs.sort_by(f64::total_cmp);
    runs[RUNS / 2]
}

fn main() {
    let barrier = median(|| round_ns(0, 0, false));
    println!(
        "host ns per irecv + wait, one message ({BATCH} per round, {ROUNDS} rounds, \
         barrier of {barrier:.0} ns per round subtracted, median of {RUNS})"
    );
    println!("{:<30} {:>10} {:>12}", "case", "ns", "messages/s");
    let cases = [
        ("eager, posted after arrival", EAGER_BYTES, false),
        ("eager, posted before arrival", EAGER_BYTES, true),
        ("rendezvous, posted before", RDV_BYTES, true),
    ];
    for (name, len, post_first) in cases {
        let ns = (median(|| round_ns(len, BATCH, post_first)) - barrier) / BATCH as f64;
        println!("{name:<30} {ns:>10.0} {:>12.0}", 1e9 / ns);
    }
}

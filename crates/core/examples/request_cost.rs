//! Host cost of a receive: nanoseconds per message on a two-rank
//! ringlet, for the ways a receive meets its message —
//!
//! * **eager `irecv`, posted after arrival**: the message is queued when
//!   `irecv` is posted, so the receive completes at post and no engine
//!   task runs;
//! * **eager `irecv`, posted before arrival**: `irecv` finds nothing and
//!   leaves a delivery on its posted-queue entry; the send consumes the
//!   message into it, and no engine task runs either;
//! * **rendezvous `irecv`** (20 000 B, one ring chunk), posted before the
//!   RTS: the sender starts the receive's engine, which drives the CTS
//!   and chunk conversation;
//! * **eager blocking `recv`, posted after arrival**: `recv` claims the
//!   queued message and never parks;
//! * **eager blocking `recv`, posted before arrival**: the two ranks
//!   ping-pong, so every `recv` parks until its message is handed to it —
//!
//! the `core` protocol rows beneath `hostbench`'s `halo_requests` (the
//! first two, with `isend`s, compute and an allreduce) and `pingpong`
//! (the last).
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
//! A barrier separates the rounds. "After": rank 1 sends [`BATCH`]
//! messages to rank 0 before the barrier, and after it rank 0 receives
//! each in turn. "Before", nonblocking: rank 0 posts the whole batch
//! before the barrier, rank 1 sends after it, and rank 0 `waitall`s.
//! "Before", blocking: after the barrier the ranks ping-pong [`BATCH`]
//! messages each way. One task runs at a time, so the host time of a
//! round covers everything every task did in it, the sends included. A
//! round of the same shape with no messages (the barrier) is subtracted
//! and the rest divided by the messages of the round. Each cell is the
//! median of [`RUNS`] runs.

use scimpi::{run, ClusterSpec, Rank, Source, TagSel};
use std::time::Instant;

const RUNS: usize = 5;
const ROUNDS: usize = 200;
const BATCH: usize = 32;
const EAGER_BYTES: usize = 64;
const RDV_BYTES: usize = 20_000;

/// How rank 0 receives a round's messages.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    IrecvAfter,
    IrecvBefore,
    RecvAfter,
    RecvBefore,
}

fn send_batch(r: &mut Rank, payload: &[u8], batch: usize) {
    for _ in 0..batch {
        r.send(0, 0, payload).expect("healthy fabric");
    }
}

/// Host ns per round of `batch` messages of `len` bytes each way
/// (ping-pong) or towards rank 0 (every other shape).
fn round_ns(len: usize, batch: usize, shape: Shape) -> f64 {
    let out = run(ClusterSpec::ringlet(2), move |r| {
        let payload = vec![5u8; len];
        let mut buf = vec![0u8; len];
        let tag = TagSel::Value(0);
        let from = Source::Rank(1 - r.rank());
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            match (r.rank(), shape) {
                (_, Shape::RecvBefore) => {
                    r.barrier();
                    for _ in 0..batch {
                        if r.rank() == 1 {
                            r.send(0, 0, &payload).expect("healthy fabric");
                        }
                        r.recv(from, tag, &mut buf).expect("healthy fabric");
                        if r.rank() == 0 {
                            r.send(1, 0, &payload).expect("healthy fabric");
                        }
                    }
                }
                (1, Shape::IrecvBefore) => {
                    r.barrier();
                    send_batch(r, &payload, batch);
                }
                (1, _) => {
                    send_batch(r, &payload, batch);
                    r.barrier();
                }
                (_, Shape::IrecvBefore) => {
                    let mut reqs: Vec<_> = (0..batch)
                        .map(|_| r.irecv(from, tag, len).expect("posted"))
                        .collect();
                    r.barrier();
                    r.waitall(&mut reqs).expect("healthy fabric");
                }
                (_, Shape::IrecvAfter) => {
                    r.barrier();
                    for _ in 0..batch {
                        let mut req = r.irecv(from, tag, len).expect("posted");
                        r.wait(&mut req).expect("healthy fabric");
                    }
                }
                (_, Shape::RecvAfter) => {
                    r.barrier();
                    for _ in 0..batch {
                        r.recv(from, tag, &mut buf).expect("healthy fabric");
                    }
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
    let barrier = median(|| round_ns(0, 0, Shape::IrecvAfter));
    println!(
        "host ns per message ({BATCH} per round, {ROUNDS} rounds, \
         barrier of {barrier:.0} ns per round subtracted, median of {RUNS})"
    );
    println!("{:<36} {:>10} {:>12}", "case", "ns", "messages/s");
    let cases = [
        (
            "irecv, eager, posted after arrival",
            EAGER_BYTES,
            Shape::IrecvAfter,
        ),
        (
            "irecv, eager, posted before arrival",
            EAGER_BYTES,
            Shape::IrecvBefore,
        ),
        (
            "irecv, rendezvous, posted before",
            RDV_BYTES,
            Shape::IrecvBefore,
        ),
        (
            "recv, eager, posted after arrival",
            EAGER_BYTES,
            Shape::RecvAfter,
        ),
        (
            "recv, eager, posted before arrival",
            EAGER_BYTES,
            Shape::RecvBefore,
        ),
    ];
    for (name, len, shape) in cases {
        let messages = if shape == Shape::RecvBefore {
            2 * BATCH
        } else {
            BATCH
        };
        let ns = (median(|| round_ns(len, BATCH, shape)) - barrier) / messages as f64;
        println!("{name:<36} {ns:>10.0} {:>12.0}", 1e9 / ns);
    }
}

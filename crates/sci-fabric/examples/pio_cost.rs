//! Host cost of the PIO store path: nanoseconds per store for
//! `PioStream::write`, `PioStream::write_batched` and the batch entry point
//! `PioStream::write_run`, next to a plain copy of the same stores — the
//! `sci-fabric` layer number under `hostbench`'s `noncontig` workload.
//!
//! ```bash
//! taskset -c 0 cargo run --release -p sci-fabric --example pio_cost
//! ```
//!
//! The store lists are those of fig7's vectors (256 KiB in 8, 128 and
//! 16 384-byte blocks) and `hostbench`'s seeded irregular layout (blocks of
//! 8–512 bytes, 256 KiB in all). Every list lands back to back from offset
//! 0 of a remote segment on a healthy two-node ringlet, one barrier per
//! pass. `write_run` gets an equal list as one run and the irregular list
//! as runs of one, 64 to a call — the batches `ff::pack_runs` hands a
//! sink. Each cell is the median of [`RUNS`] timings of at least
//! [`MIN_SECONDS`] each.

use sci_fabric::{Fabric, FabricSpec, NodeId};
use simclock::{Clock, SplitMix64};
use std::hint::black_box;
use std::time::Instant;

const PAYLOAD: usize = 256 * 1024;
const RUNS: usize = 5;
const MIN_SECONDS: f64 = 0.1;
/// Runs of one per `write_run` call for the irregular list.
const RUNS_PER_CALL: usize = 64;
/// `hostbench`'s default seed.
const SEED: u64 = 20020415;

/// A run of `n` equal stores of `len` bytes.
#[derive(Clone, Copy)]
struct Stores {
    len: usize,
    n: usize,
}

/// `hostbench`'s irregular layout: block lengths as its generator draws
/// them for `seed`.
fn irregular(seed: u64) -> Vec<Stores> {
    let mut rng = SplitMix64::new(seed).fork(0x1447);
    let (mut runs, mut left) = (Vec::new(), PAYLOAD);
    while left > 0 {
        let len = (8 * rng.next_range(1, 64) as usize).min(left);
        // The generator draws the gap after each block too.
        rng.next_range(1, 64);
        runs.push(Stores { len, n: 1 });
        left -= len;
    }
    runs
}

/// Median host ns per store of `pass`, which issues `stores` stores.
fn ns_per_store(stores: usize, mut pass: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let (t0, mut passes) = (Instant::now(), 0u32);
            while passes == 0 || t0.elapsed().as_secs_f64() < MIN_SECONDS {
                pass();
                passes += 1;
            }
            t0.elapsed().as_secs_f64() * 1e9 / (f64::from(passes) * stores as f64)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[RUNS / 2]
}

fn main() {
    let fabric = Fabric::new(FabricSpec::default());
    let seg = fabric.export(NodeId(1), PAYLOAD);
    let src: Vec<u8> = (0..PAYLOAD).map(|i| (i * 7) as u8).collect();
    let equal = |len| {
        vec![Stores {
            len,
            n: PAYLOAD / len,
        }]
    };
    let lists = [
        ("b8", equal(8)),
        ("b128", equal(128)),
        ("b16k", equal(16384)),
        ("irregular", irregular(SEED)),
    ];
    println!(
        "{:<10} {:>7} {:>10} {:>14} {:>10} {:>8}",
        "stores", "count", "write", "write_batched", "write_run", "copy"
    );
    for (label, runs) in &lists {
        let stores: usize = runs.iter().map(|r| r.n).sum();
        // Each run with the payload byte it starts at.
        let placed: Vec<(usize, Stores)> = runs
            .iter()
            .scan(0, |at, &r| {
                *at += r.len * r.n;
                Some((*at - r.len * r.n, r))
            })
            .collect();
        let blocks = || {
            placed
                .iter()
                .flat_map(|&(at, r)| (0..r.n).map(move |i| (at + i * r.len, r.len)))
        };
        let per_store = |batched: bool| {
            let mut stream = fabric.pio_stream(NodeId(0), &seg, PAYLOAD);
            let mut clock = Clock::new();
            ns_per_store(stores, || {
                for (at, len) in blocks() {
                    let data = &src[at..][..len];
                    let res = if batched {
                        stream.write_batched(&mut clock, at, data)
                    } else {
                        stream.write(&mut clock, at, data)
                    };
                    res.expect("in bounds");
                }
                stream.flush_wc(&mut clock).expect("in bounds");
                stream.barrier(&mut clock);
            })
        };
        let (write, batched) = (per_store(false), per_store(true));
        let write_run = {
            let mut stream = fabric.pio_stream(NodeId(0), &seg, PAYLOAD);
            let mut clock = Clock::new();
            ns_per_store(stores, || {
                for chunk in placed.chunks(RUNS_PER_CALL) {
                    stream
                        .write_run(
                            &mut clock,
                            chunk[0].0,
                            chunk,
                            true,
                            |&(_, r)| (r.len, r.n),
                            |&(at, r), i| &src[at + i * r.len..][..r.len],
                            |&(at, r), blocks, dst| {
                                dst.copy_from_slice(&src[at + blocks.start * r.len..][..dst.len()])
                            },
                        )
                        .expect("in bounds");
                }
                stream.flush_wc(&mut clock).expect("in bounds");
                stream.barrier(&mut clock);
            })
        };
        let copy = {
            let mut dst = vec![0u8; PAYLOAD];
            ns_per_store(stores, || {
                for (at, len) in blocks() {
                    dst[at..][..len].copy_from_slice(&src[at..][..len]);
                }
                black_box(&mut dst);
            })
        };
        println!(
            "{label:<10} {stores:>7} {write:>10.1} {batched:>14.1} {write_run:>10.1} {copy:>8.1}"
        );
    }
    println!("(host ns per store; `copy` is the same stores copied into a local buffer)");
}

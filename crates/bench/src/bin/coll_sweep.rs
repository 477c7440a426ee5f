//! Collective algorithm crossover sweep — the ablation behind the
//! engine's `Auto` selection rules.
//!
//! Part 1 sweeps four collectives over payload size on an 8-rank
//! ringlet, once per algorithm knob (`naive`, forced `ring` /
//! `recursive_doubling` / `binomial` / `bruck`, and `auto`). One warmup
//! round amortizes the collective window creation for the one-sided ring
//! broadcast, then the measured rounds reuse it across epochs. The
//! virtual per-round latency of every arm lands in
//! `BENCH_coll_sweep.json` as crossover curves; the binary *asserts*
//! that `auto` matches or beats `naive` at every swept point, so a
//! selection-rule regression fails the bench rather than just bending a
//! curve.
//!
//! Part 2 compares the datatype-aware collectives against explicit
//! pack+send on a strided vector-of-doubles layout: the same
//! `bcast_typed` / `allreduce_typed` call once under the adaptive
//! noncontig selector (which picks `direct_pack_ff` for these block
//! sizes — counter-asserted via `coll_packed_bytes == 0`) and once with
//! `NoncontigMode::Generic` forcing pack → contiguous send → unpack
//! (counter-asserted `coll_packed_bytes > 0`). The typed path must never
//! lose.
//!
//! Run: `cargo run --release -p repro-bench --bin coll_sweep`

use mpi_datatype::{Committed, Datatype};
use obs::Counter;
use repro_bench::{BenchDoc, BenchPoint};
use scimpi::{
    ClusterSpec, CollectiveAlgo, NoncontigMode, ObsConfig, Rank, ReduceOp, RunReport, Tuning,
};
use simclock::stats::fmt_bytes;

/// One swept collective: a label plus the per-rank workload closure.
type CollOp = (&'static str, fn(&mut Rank, usize));

const RANKS: usize = 8;
const ROUNDS: usize = 4;
/// Per-rank payload bytes swept; straddles `coll_small_max` (4 kiB),
/// `coll_bruck_max` (512 B blocks) and `coll_ring_min` (256 kiB).
const SIZES: [usize; 4] = [1024, 8 * 1024, 64 * 1024, 512 * 1024];

const ALGOS: [(CollectiveAlgo, &str); 6] = [
    (CollectiveAlgo::Naive, "naive"),
    (CollectiveAlgo::Ring, "ring"),
    (CollectiveAlgo::RecursiveDoubling, "recursive_doubling"),
    (CollectiveAlgo::Binomial, "binomial"),
    (CollectiveAlgo::Bruck, "bruck"),
    (CollectiveAlgo::Auto, "auto"),
];

fn spec(algo: CollectiveAlgo, noncontig: NoncontigMode) -> ClusterSpec {
    // Saturated-segment arbitration (and with it every virtual time
    // below) resolves in dispatch order, so the curves sit in the
    // bench-regression gate at exact tolerance.
    let mut s = ClusterSpec::ringlet(RANKS)
        .tuning(Tuning {
            collective_algo: algo,
            noncontig,
            ..Tuning::default()
        })
        .obs(ObsConfig::enabled());
    s.seed = 20020415; // IPPS 2002
    s
}

/// Time `op` on `spec`: one warmup round, then `ROUNDS` measured rounds
/// between barriers. Returns the per-round virtual latency in µs, taken
/// as the slowest rank's elapsed time, and the run's report.
fn measure<F>(spec: ClusterSpec, op: F) -> (f64, RunReport)
where
    F: Fn(&mut Rank) + Send + Sync,
{
    let (per_rank, report) = scimpi::run_report(spec, move |r| {
        op(r); // warmup: window + layout caches
        r.barrier();
        let t0 = r.now();
        for _ in 0..ROUNDS {
            op(r);
        }
        (r.now() - t0).as_us_f64() / ROUNDS as f64
    });
    (per_rank.into_iter().fold(0.0, f64::max), report)
}

fn bcast_op(r: &mut Rank, size: usize) {
    let mut buf = vec![0u8; size];
    if r.rank() == 0 {
        buf.fill(0xB7);
    }
    r.bcast(0, &mut buf).unwrap();
}

fn allreduce_op(r: &mut Rank, size: usize) {
    let mut vals = vec![r.rank() as f64; size / 8];
    r.allreduce(&mut vals, ReduceOp::Sum).unwrap();
}

fn allgather_op(r: &mut Rank, size: usize) {
    let mine = vec![r.rank() as u8; size];
    let out = r.allgather(&mine).unwrap();
    assert_eq!(out.len(), r.size());
}

fn alltoall_op(r: &mut Rank, size: usize) {
    let n = r.size();
    let blocks: Vec<Vec<u8>> = (0..n).map(|d| vec![d as u8; size / n]).collect();
    let out = r.alltoall(&blocks).unwrap();
    assert_eq!(out.len(), n);
}

/// A strided vector-of-doubles layout: `size` packed bytes in blocks of
/// 4 doubles at stride 8 (50 % density, 32 B blocks — squarely in
/// `direct_pack_ff` territory for the adaptive selector).
fn strided(size: usize) -> Committed {
    let blocks = size / 32;
    Committed::commit(&Datatype::vector(blocks, 4, 8, &Datatype::double()))
}

fn main() {
    println!("== collective algorithm crossover sweep: {RANKS} ranks, {ROUNDS} rounds ==\n");
    let mut doc = BenchDoc::new("coll_sweep");

    let collectives: [CollOp; 4] = [
        ("bcast", bcast_op),
        ("allreduce", allreduce_op),
        ("allgather", allgather_op),
        ("alltoall", alltoall_op),
    ];
    for (coll, op) in collectives {
        println!("-- {coll} --");
        for size in SIZES {
            let mut naive_us = f64::NAN;
            let mut auto_us = f64::NAN;
            for (algo, label) in ALGOS {
                let (us, _) = measure(spec(algo, NoncontigMode::Auto), move |r| op(r, size));
                doc.push(
                    &format!("{coll} {label}"),
                    BenchPoint::at(size as f64).mean_us(us),
                );
                match algo {
                    CollectiveAlgo::Naive => naive_us = us,
                    CollectiveAlgo::Auto => auto_us = us,
                    _ => {}
                }
                println!("  {:>8} {label:<20} {us:>10.1} us", fmt_bytes(size as f64));
            }
            // The selector's whole reason to exist: at every swept
            // point, auto must match or beat the linear reference.
            assert!(
                auto_us <= naive_us,
                "{coll} @ {size}: auto ({auto_us:.1} us) lost to naive ({naive_us:.1} us)"
            );
        }
        println!();
    }

    println!("-- typed collectives vs explicit pack+send --");
    let mut profiled = None;
    for size in SIZES[1..].iter().copied() {
        for (name, typed_run) in [("bcast_typed", true), ("allreduce_typed", false)] {
            let op = move |r: &mut Rank| {
                let c = strided(size);
                let mut buf = vec![0u8; c.extent()];
                if typed_run {
                    if r.rank() == 0 {
                        buf.fill(0x3C);
                    }
                    r.bcast_typed(0, &c, 1, &mut buf, 0).unwrap();
                } else {
                    r.allreduce_typed::<f64>(&c, 1, &mut buf, 0, ReduceOp::Sum)
                        .unwrap();
                }
            };
            let (typed_us, typed) = measure(spec(CollectiveAlgo::Auto, NoncontigMode::Auto), op);
            let (pack_us, packed) = measure(spec(CollectiveAlgo::Auto, NoncontigMode::Generic), op);
            // Counter-assert which path won: the adaptive arm must have
            // gone direct (zero staged bytes), the forced arm must have
            // actually paid for pack+send.
            assert_eq!(
                typed.counters[Counter::CollPackedBytes],
                0,
                "{name} @ {size}: adaptive selector staged bytes on a 32 B-block layout"
            );
            assert!(
                packed.counters[Counter::CollPackedBytes] > 0,
                "{name} @ {size}: Generic arm recorded no packed bytes"
            );
            // The document's PROFILE is the last pack+send run's.
            profiled = Some(packed);
            assert!(
                typed_us <= pack_us,
                "{name} @ {size}: typed path ({typed_us:.1} us) lost to \
                 pack+send ({pack_us:.1} us)"
            );
            doc.push(
                &format!("{name} direct"),
                BenchPoint::at(size as f64).mean_us(typed_us),
            );
            doc.push(
                &format!("{name} pack+send"),
                BenchPoint::at(size as f64).mean_us(pack_us),
            );
            println!(
                "  {:>8} {name:<16} direct {typed_us:>9.1} us   pack+send {pack_us:>9.1} us",
                fmt_bytes(size as f64)
            );
        }
    }

    doc.write_and_report(profiled.as_ref());
}

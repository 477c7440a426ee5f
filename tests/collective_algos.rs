//! Cross-algorithm equivalence suite for the collective engine.
//!
//! Every forced algorithm (and the `Auto` selector) must produce
//! byte-identical results to the linear reference schedules kept as
//! [`CollectiveAlgo::Naive`], across pow2 and non-pow2 rank counts and
//! both sides of the size thresholds. All
//! floating-point payloads are exactly-representable integers so sums
//! are order-independent and the comparison really is `==`.
//!
//! A second family kills one rank mid-allreduce and asserts the per-rank
//! PeerDead/Revoked error-site map is a deterministic function of the
//! (seed, algorithm) pair — re-running the identical spec must reproduce
//! the map bit-for-bit, including virtual timestamps.

use scimpi::prelude::*;
use scimpi::{death_delay, revoke, Tuning};
use simclock::SimDuration;

/// CI sweeps `COLL_SEED` to vary the fabric RNG streams; the
/// equivalence property and the error-site determinism are
/// seed-independent, so every seed must pass identically.
fn env_seed() -> Option<u64> {
    std::env::var("COLL_SEED")
        .ok()
        .map(|s| s.parse().expect("COLL_SEED must be an integer"))
}

/// All algorithm knobs the engine accepts, `Auto` included.
const ALGOS: [CollectiveAlgo; 6] = [
    CollectiveAlgo::Auto,
    CollectiveAlgo::Naive,
    CollectiveAlgo::Ring,
    CollectiveAlgo::RecursiveDoubling,
    CollectiveAlgo::Binomial,
    CollectiveAlgo::Bruck,
];

/// Thresholds scaled down so the `Auto` selector crosses into the ring
/// and Bruck regimes at test-sized payloads instead of megabytes.
fn tuned(algo: CollectiveAlgo) -> Tuning {
    Tuning {
        collective_algo: algo,
        coll_small_max: 1024,
        coll_ring_min: 2048,
        coll_bruck_max: 4096,
        ..Tuning::default()
    }
}

/// One pass over the whole collective surface; returns a per-rank byte
/// transcript covering every result the collectives hand back.
fn workload(r: &mut Rank, len: usize) -> Vec<u8> {
    let me = r.rank();
    let n = r.size();
    let mut out = Vec::new();

    // Broadcast from a non-zero root.
    let root = 1 % n;
    let mut buf = vec![0u8; len];
    if me == root {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
    }
    r.bcast(root, &mut buf).done();
    out.extend_from_slice(&buf);

    // Rooted reduce over integers.
    let vals: Vec<u64> = (0..len / 8)
        .map(|i| (me as u64 + 1) * (i as u64 + 1))
        .collect();
    if let Some(red) = r.reduce(0, &vals, ReduceOp::Sum).done() {
        out.extend(red.iter().flat_map(|v| v.to_le_bytes()));
    }

    // In-place allreduce: exact-integer f64 sum, then a min.
    let mut f: Vec<f64> = (0..len / 8).map(|i| ((me + 7 * i) % 97) as f64).collect();
    r.allreduce(&mut f, ReduceOp::Sum).done();
    out.extend(f.iter().flat_map(|v| v.to_le_bytes()));
    let mut lows = [(me as i64) - 3, me as i64 + 100];
    r.allreduce(&mut lows, ReduceOp::Min).done();
    out.extend(lows.iter().flat_map(|v| v.to_le_bytes()));

    // Inclusive prefix scan.
    let mut pre: Vec<u32> = (0..len / 8).map(|i| (me * 13 + i) as u32).collect();
    r.scan(&mut pre, ReduceOp::Sum).done();
    out.extend(pre.iter().flat_map(|v| v.to_le_bytes()));

    // Ragged gatherv into a non-zero root.
    let mine = vec![me as u8 | 0x40; (me + 1) * (len / n).max(1)];
    if let Some(parts) = r.gatherv(2 % n, &mine).done() {
        out.extend(parts.into_iter().flatten());
    }

    // Ragged scatterv from rank 0.
    let parts: Option<Vec<Vec<u8>>> =
        (me == 0).then(|| (0..n).map(|d| vec![(d * 5 + 1) as u8; d * 7 + 3]).collect());
    out.extend(r.scatterv(0, parts.as_deref()).done());

    // Allgather: once ragged, once with equal blocks (the equal case is
    // what the Bruck/recursive-doubling schedules are shaped for).
    out.extend(r.allgather(&mine).done().into_iter().flatten());
    let eq = vec![me as u8 ^ 0x5A; len.max(1)];
    out.extend(r.allgather(&eq).done().into_iter().flatten());

    // All-to-all with equal blocks.
    let blocks: Vec<Vec<u8>> = (0..n)
        .map(|d| vec![(me * n + d) as u8; len.max(1)])
        .collect();
    out.extend(r.alltoall(&blocks).done().into_iter().flatten());

    // All-to-all-v over a flat buffer with ragged counts.
    let counts: Vec<usize> = (0..n).map(|d| (me + 2 * d) % 5).collect();
    let mut sendbuf = Vec::new();
    let mut displs = Vec::new();
    for (d, &c) in counts.iter().enumerate() {
        displs.push(sendbuf.len());
        sendbuf.extend(std::iter::repeat_n((me * 3 + d + 1) as u8, c));
    }
    let (rbuf, rcounts, rdispls) = r.alltoallv(&sendbuf, &counts, &displs).done();
    out.extend_from_slice(&rbuf);
    out.extend(rcounts.iter().flat_map(|c| (*c as u64).to_le_bytes()));
    out.extend(rdispls.iter().flat_map(|c| (*c as u64).to_le_bytes()));
    out
}

/// Run the workload under every algorithm on `base` and demand each
/// transcript matches the naive reference byte-for-byte.
fn equivalence(name: &str, base: fn() -> ClusterSpec, len: usize) {
    let seeded = |algo| {
        let mut s = base().tuning(tuned(algo));
        if let Some(seed) = env_seed() {
            s.seed = seed;
        }
        s
    };
    let reference = scimpi::run(seeded(CollectiveAlgo::Naive), move |r| workload(r, len));
    for algo in ALGOS {
        if algo == CollectiveAlgo::Naive {
            continue;
        }
        let got = scimpi::run(seeded(algo), move |r| workload(r, len));
        for (rank, (g, want)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(
                g, want,
                "[{name}] rank {rank}: {algo:?} diverged from Naive (len {len})"
            );
        }
    }
}

fn ringlet4() -> ClusterSpec {
    ClusterSpec::ringlet(4)
}
fn ringlet5() -> ClusterSpec {
    ClusterSpec::ringlet(5)
}
fn multi8() -> ClusterSpec {
    ClusterSpec::multi_ring(2, 4)
}

#[test]
fn algos_agree_on_pow2_ringlet_event() {
    equivalence("ringlet4/small", ringlet4, 64);
    equivalence("ringlet4/large", ringlet4, 8192);
}

#[test]
fn algos_agree_on_nonpow2_ringlet_event() {
    equivalence("ringlet5/small", ringlet5, 64);
    equivalence("ringlet5/large", ringlet5, 8192);
}

#[test]
fn algos_agree_across_rings_event() {
    equivalence("multi8/small", multi8, 64);
    equivalence("multi8/large", multi8, 8192);
}

// --- seeded chaos sweep -------------------------------------------------

/// Rendezvous-sized payload in f64 elements; eager sends to a corpse
/// complete locally, so only rendezvous traffic exposes the death.
const F64_RDV: usize = 20_000;

/// Kill rank 2 right after the opening barrier and drive an allreduce
/// through it. Rank 3 touches the victim in every schedule the engine
/// can pick for an allreduce (ring neighbour, first-round recursive-
/// doubling partner, binomial parent), so it is guaranteed `PeerDead`
/// and safe to use as the revoker that unblocks stranded survivors.
fn dying_allreduce(algo: CollectiveAlgo, seed: u64) -> Vec<(String, SimDuration)> {
    const VICTIM: usize = 2;
    const REVOKER: usize = 3;
    let spec = ClusterSpec::multi_ring(2, 4)
        .errors(ErrorMode::ErrorsReturn)
        .tuning(Tuning {
            collective_algo: algo,
            ..Tuning::default()
        })
        .seed(seed);
    scimpi::run(spec, move |r| {
        r.barrier();
        let t0 = r.now();
        if r.rank() == VICTIM {
            r.fabric().faults().kill_node(VICTIM);
            return ("dead".to_string(), r.now() - t0);
        }
        let mut buf = vec![1.0f64; F64_RDV];
        let outcome = match r.allreduce(&mut buf, ReduceOp::Sum) {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("{e:?}"),
        };
        if r.rank() == REVOKER {
            revoke(r);
        }
        (outcome, r.now() - t0)
    })
}

/// Rank 2's death, per rank: the outcome of the allreduce and the
/// virtual time (ps) it took. Naive, Ring and RecursiveDoubling, in that
/// order; seeds 11 and 23 record the same map.
const PD: &str = "PeerDead { peer: 2 }";
const RV: &str = "Revoked";
#[rustfmt::skip]
const ERROR_SITES: [[(&str, u64); 8]; 3] = [
    [(RV, 6_235_900_000), (RV, 6_235_900_000), ("dead", 0), (PD, 6_220_900_000),
     (RV, 6_225_900_000), (RV, 6_230_900_000), (RV, 6_230_900_000), (RV, 6_235_900_000)],
    [(RV, 6_235_900_000), (PD, 6_220_900_000), ("dead", 0), (PD, 6_220_900_000),
     (RV, 6_225_900_000), (RV, 6_230_900_000), (RV, 6_230_900_000), (RV, 6_235_900_000)],
    [(RV, 6_235_900_000), (RV, 6_235_900_000), ("dead", 0), (PD, 6_220_900_000),
     (RV, 6_225_900_000), (RV, 6_230_900_000), (RV, 6_230_900_000), (RV, 6_235_900_000)],
];

#[test]
fn dying_rank_error_maps_are_deterministic_per_algorithm() {
    let budget = death_delay();
    let bound = budget * 2 + SimDuration::from_ms(50);
    // Naive, Ring and RecursiveDoubling are the three distinct allreduce
    // schedules (Binomial aliases Naive, Bruck aliases RecursiveDoubling).
    for (algo, pinned) in [
        CollectiveAlgo::Naive,
        CollectiveAlgo::Ring,
        CollectiveAlgo::RecursiveDoubling,
    ]
    .into_iter()
    .zip(ERROR_SITES)
    {
        for seed in [11u64, env_seed().unwrap_or(23)] {
            let a = dying_allreduce(algo, seed);
            let b = dying_allreduce(algo, seed);
            assert_eq!(a, b, "{algo:?} seed {seed}: error-site map must replay");
            if seed == 11 || env_seed().is_none() {
                let got: Vec<(&str, u64)> =
                    a.iter().map(|(o, t)| (o.as_str(), t.as_ps())).collect();
                assert_eq!(
                    got, pinned,
                    "{algo:?} seed {seed}: the recorded error-site map"
                );
            }
            assert_eq!(a[2].0, "dead", "{algo:?}: victim records its death");
            let pd = format!("{:?}", ScimpiError::PeerDead { peer: 2 });
            let rv = format!("{:?}", ScimpiError::Revoked);
            assert!(
                a.iter().any(|(o, _)| *o == pd),
                "{algo:?} seed {seed}: someone must observe PeerDead, got {a:?}"
            );
            for (rank, (outcome, elapsed)) in a.iter().enumerate() {
                assert!(
                    *outcome == "ok" || *outcome == "dead" || *outcome == pd || *outcome == rv,
                    "{algo:?} seed {seed} rank {rank}: unexpected outcome {outcome}"
                );
                if *outcome == pd || *outcome == rv {
                    assert!(
                        *elapsed <= bound,
                        "{algo:?} seed {seed} rank {rank}: {elapsed:?} > {bound:?}"
                    );
                }
            }
        }
    }
}

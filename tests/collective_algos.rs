//! Cross-algorithm equivalence suite for the collective engine.
//!
//! Every forced algorithm (and the `Auto` selector) must produce
//! byte-identical results to the linear reference schedules kept as
//! [`CollectiveAlgo::Naive`], across pow2 and non-pow2 rank counts and
//! both sides of the size thresholds. All
//! floating-point payloads are exactly-representable integers so sums
//! are order-independent and the comparison really is `==`.
//!
//! Each run is also a cell of a model table (see `golden/mod.rs`): one
//! digest per cluster × size × algorithm over every rank's transcript
//! and finish time in picoseconds. At 20 000 B the broadcast, the
//! recursive-doubling allreduce and the equal-block allgather and
//! alltoall cross the eager threshold (16 KiB), so the rendezvous
//! `sendrecv` is pinned too. The table holds under every `COLL_SEED`.
//!
//! A second family kills one rank mid-allreduce and asserts the per-rank
//! PeerDead/Revoked error-site map is a deterministic function of the
//! (seed, algorithm) pair — re-running the identical spec must reproduce
//! the map bit-for-bit, including virtual timestamps.

mod golden;

use sci_fabric::fnv1a;
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

/// Eager, past `coll_bruck_max`, and past the eager threshold.
const SIZES: [usize; 3] = [64, 8192, 20_000];

/// Run the workload under every algorithm on `base` at every size,
/// demand each transcript match the naive reference byte-for-byte, and
/// check the runs against `recorded`: per size, one cell per algorithm
/// in [`ALGOS`] order.
fn equivalence(name: &str, base: fn() -> ClusterSpec, recorded: &[u64]) {
    let seeded = |algo| {
        let mut s = base().tuning(tuned(algo));
        if let Some(seed) = env_seed() {
            s.seed = seed;
        }
        s
    };
    let mut table = golden::Table::default();
    for len in SIZES {
        let run = |algo| scimpi::run(seeded(algo), move |r| (workload(r, len), r.now().as_ps()));
        let reference = run(CollectiveAlgo::Naive);
        for algo in ALGOS {
            let got = if algo == CollectiveAlgo::Naive {
                reference.clone()
            } else {
                run(algo)
            };
            for (rank, ((g, _), (want, _))) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g, want,
                    "[{name}] rank {rank}: {algo:?} diverged from Naive (len {len})"
                );
            }
            let ranks = got.iter().flat_map(|(bytes, ps)| [fnv1a(bytes), *ps]);
            table.push(
                format!("{len} B / {algo:?}"),
                golden::digest(ranks, [], None),
            );
        }
    }
    table.check(name, 3, recorded, None);
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
    equivalence("ringlet4", ringlet4, &RINGLET4);
}

#[test]
fn algos_agree_on_nonpow2_ringlet_event() {
    equivalence("ringlet5", ringlet5, &RINGLET5);
}

#[test]
fn algos_agree_across_rings_event() {
    equivalence("multi8", multi8, &MULTI8);
}

// Two rows per size (64, 8192, 20 000 B): Auto, Naive, Ring, then
// RecursiveDoubling, Binomial, Bruck.
#[rustfmt::skip]
const RINGLET4: [u64; 18] = [
    0x117a3682039720b6, 0xbc44c942ce9b83d6, 0x6586b8e0b4af27da,
    0x96e7e3522e7ad206, 0x58784d3b4e7ae8ba, 0x8bc0dc96f0686d5a,
    0x35e90087a1826cfe, 0xd26059e26f2a9ede, 0x8301308214bd6872,
    0x1c4c5f361ec4d936, 0xdf68821c687332e6, 0x045b013bbbff0cb2,
    0xda03964dd40452dd, 0xea82088bc73b5535, 0x43ab3b86b5c00b01,
    0x056486aa28cb8d75, 0x29c552d95663c5cd, 0x4d7fe5a9031c04c1,
];

#[rustfmt::skip]
const RINGLET5: [u64; 18] = [
    0xe91559ed2e3fb802, 0xbbe9fce87eca173c, 0x4b220e2fdd00bcba,
    0x7a21a54dff52c332, 0xc7979f9f262d986a, 0x183864870d58c5d8,
    0x4e2cd2da51e45f62, 0x20c02dac334c417f, 0xc707c1e26b558898,
    0xb7a1ec6ee058ec7c, 0xc5dd2f81afaefec3, 0xc4cf2afd9087b7c2,
    0xc6a48da4331c1cf1, 0x04dd13e20ab4c31c, 0x41634647c1926ba5,
    0xc71970c264ab1e0d, 0x733f607e1961363a, 0x3575070803d9412c,
];

#[rustfmt::skip]
const MULTI8: [u64; 18] = [
    0xdf9c5d7437ec17f0, 0xa544e3f862fa72e5, 0x59205a4669b87b28,
    0xadb0ade3dbe010cf, 0x1e50dd3fe6fcf7f9, 0xb8c59ac4469fdee8,
    0xc540cb9357940467, 0x451e548ec1424530, 0x86cb6b0c5ee7b0af,
    0xbf7c1324a1fddba7, 0xb9ce03f704180a2a, 0x7f51984df87bd617,
    0x5265b9cc683e839f, 0x95cf13c000a93eee, 0x7d5210650c194517,
    0x49793ddcd6cc20ee, 0xda313cba28cab864, 0x5fb390dcdbcd0b83,
];

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

// --- the golden harness's failure path ---------------------------------

/// `Table::check` with one cell altered, built from constants: the panic
/// names that cell alone and prints the tables as run in the layout they
/// are recorded in.
#[test]
fn golden_check_names_the_one_moved_cell_and_prints_the_table() {
    const MODEL: [u64; 5] = [0x1, 0x22, 0x333, 0x4444, 0xfedc_ba98_7654_3210];
    const SCHEDULE: [golden::Schedule; 5] = [[9, 1, 1, 0]; 5];
    let failure = |model: [u64; 5], schedule: [golden::Schedule; 5]| {
        let mut table = golden::Table::default();
        for (i, cell) in model.into_iter().zip(schedule).enumerate() {
            table.push_scheduled(format!("case {i}"), cell);
        }
        let res = std::panic::catch_unwind(|| table.check("grid", 3, &MODEL, Some(&SCHEDULE)));
        let payload = res.expect_err("a moved cell fails the check");
        payload.downcast_ref::<String>().expect("a message").clone()
    };
    let mut model = MODEL;
    model[1] = 0x23;
    let expected = "\
grid: 1 of 5 model cells moved: [
    \"case 1\",
]
grid: 0 of 5 schedule cells moved: []
the model table as run:
    0x0000000000000001, 0x0000000000000023, 0x0000000000000333,
    0x0000000000004444, 0xfedcba9876543210,
the schedule table as run:
    [9, 1, 1, 0], // case 0
    [9, 1, 1, 0], // case 1
    [9, 1, 1, 0], // case 2
    [9, 1, 1, 0], // case 3
    [9, 1, 1, 0], // case 4";
    assert_eq!(failure(model, SCHEDULE), expected);
    let mut schedule = SCHEDULE;
    schedule[4][0] = 10;
    let msg = failure(MODEL, schedule);
    assert!(
        msg.starts_with(
            "grid: 0 of 5 model cells moved: []\n\
             grid: 1 of 5 schedule cells moved: [\n    \"case 4\",\n]\n"
        ),
        "{msg}"
    );
    assert!(msg.ends_with("    [10, 1, 1, 0], // case 4"), "{msg}");
}

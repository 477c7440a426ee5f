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
//! `sendrecv` is pinned too. The fabric is healthy, so the seed draws
//! nothing there and the table is run at the clusters' default seed.
//!
//! A second family pins the typed collectives (`bcast_typed`,
//! `allreduce_typed`, `allgatherv_typed`) the same way, per cluster,
//! layout and instance count, with the counters and the profile folded
//! in.
//!
//! A third family kills one rank mid-allreduce and asserts the per-rank
//! PeerDead/Revoked error-site map is a deterministic function of the
//! algorithm — re-running the identical spec must reproduce the map
//! bit-for-bit, including virtual timestamps.

mod golden;

use mpi_datatype::{Committed, Datatype};
use sci_fabric::fnv1a;
use scimpi::prelude::*;
use scimpi::{death_delay, revoke, Tuning};
use simclock::SimDuration;

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
    let mut table = golden::Table::default();
    for len in SIZES {
        let run = |algo| {
            scimpi::run(base().tuning(tuned(algo)), move |r| {
                (workload(r, len), r.now().as_ps())
            })
        };
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

// --- typed collectives ---------------------------------------------------

/// The layouts the typed family runs: a strided vector (8 blocks of 2
/// doubles, stride 4; 128 B in a 240 B extent) and a layout that reaches
/// below its origin (`[-16, 0)` and `[8, 16)`, lb −16; 24 B in 32 B).
fn typed_layouts() -> [(&'static str, Committed); 2] {
    let double = Datatype::double();
    [
        ("vector", Datatype::vector(8, 2, 4, &double)),
        (
            "negative lb",
            Datatype::hindexed(&[(2, -16), (1, 8)], &double),
        ),
    ]
    .map(|(name, dt)| (name, Committed::commit(&dt)))
}

/// Instance counts per layout: none, eager (512 and 192 B) and past the
/// eager threshold (20 480 and 24 000 B).
const TYPED_COUNTS: [[usize; 3]; 2] = [[0, 4, 160], [0, 8, 1000]];

/// `bcast_typed` from rank 1, `allreduce_typed::<u64>` and
/// `allgatherv_typed` over `count` instances of `c`, displacement 0 at
/// byte 24; the transcript holds each result buffer and every image.
fn typed_workload(r: &mut Rank, c: &Committed, count: usize) -> Vec<u8> {
    let (me, n) = (r.rank(), r.size());
    let origin = 24;
    let len = (origin as i64 + c.datatype().lb()) as usize + count * c.extent() + 8;
    let fill = |seed: usize| -> Vec<u8> { (0..len).map(|i| (i * 13 + seed) as u8).collect() };
    let mut out = Vec::new();
    let mut buf = if me == 1 % n { fill(7) } else { vec![0u8; len] };
    r.bcast_typed(1 % n, c, count, &mut buf, origin).done();
    out.extend_from_slice(&buf);
    let mut buf = fill(me * 5 + 1);
    r.allreduce_typed::<u64>(c, count, &mut buf, origin, ReduceOp::Sum)
        .done();
    out.extend_from_slice(&buf);
    for (k, img) in r.allgatherv_typed(c, count, &fill(me), origin).done() {
        out.extend((k as u64).to_le_bytes());
        out.extend(img);
    }
    out
}

/// Every cluster [`equivalence`] runs, each layout at each of its
/// [`TYPED_COUNTS`]: one cell per run, digesting every rank's transcript
/// and finish time, the counters and the profile (which names each span
/// the typed collectives emit).
#[test]
fn typed_collectives_match_the_recorded_runs() {
    let mut table = golden::Table::default();
    for (cluster, base) in [
        ("ringlet4", ringlet4 as fn() -> ClusterSpec),
        ("ringlet5", ringlet5),
        ("multi8", multi8),
    ] {
        for ((layout, c), counts) in typed_layouts().into_iter().zip(TYPED_COUNTS) {
            for count in counts {
                let spec = base().obs(obs::ObsConfig::enabled());
                let (per_rank, report) =
                    scimpi::run_report(spec, |r| (typed_workload(r, &c, count), r.now().as_ps()));
                let ranks = per_rank.iter().flat_map(|(bytes, ps)| [fnv1a(bytes), *ps]);
                let profile = report.profile_json();
                table.push(
                    format!("{cluster} / {layout} x {count}"),
                    golden::digest(ranks, report.counters.iter(), Some(&profile)),
                );
            }
        }
    }
    table.check("typed", 3, &TYPED, None);
}

// One row per cluster and layout (ringlet4, ringlet5, multi8; vector,
// then negative lb): count 0, eager, rendezvous.
#[rustfmt::skip]
const TYPED: [u64; 18] = [
    0x2dd89a171dd173ac, 0xe3b9d875d36b50ff, 0x335f88e0a5dff6e9,
    0x28c468f0bfd3348c, 0xed036432c3d38a39, 0xd9e07363dfc1263c,
    0x2918fddd902a43c9, 0x9eb91cd72c73b14d, 0xdf74c92aa19fd88b,
    0xc32df94d319bfd11, 0xf094f73930ef6ce6, 0x219a9b998d9c143f,
    0xb25838b29025863d, 0x251e03d304f16245, 0xd65b499fb617e678,
    0x1cc52b7c2f54628d, 0x206ab9575ed54f8f, 0x761cf1cb58a3db3d,
];

// --- pairwise all-to-all --------------------------------------------------

/// `Rank::alltoall` takes blocks ragged the same way on every rank: the
/// block to rank 3 is 1.5 MB everywhere, the others ~100 B, so rank 3
/// receives three blocks larger than a mebibyte through the pairwise
/// exchange.
#[test]
fn pairwise_alltoall_receives_ragged_blocks_over_a_mebibyte() {
    let size = |d: usize| if d == 3 { 1_500_000 } else { 100 + d };
    let out = scimpi::run(ClusterSpec::ringlet(4), move |r| {
        let me = r.rank();
        let blocks: Vec<Vec<u8>> = (0..4).map(|d| vec![(me * 4 + d) as u8; size(d)]).collect();
        r.alltoall(&blocks).done()
    });
    for (me, got) in out.iter().enumerate() {
        for (src, block) in got.iter().enumerate() {
            assert_eq!(
                block,
                &vec![(src * 4 + me) as u8; size(me)],
                "{src} to {me}"
            );
        }
    }
}

/// Blocks that break that contract — rank 0 sends 200 B to rank 1, every
/// other block is 100 B — fail the one receive that is too short, with
/// `InvalidArg`, after the rank has finished its steps: every rank returns,
/// none is left waiting for a partner that gave up.
#[test]
fn pairwise_alltoall_returns_a_truncation_after_finishing_its_steps() {
    let spec = ClusterSpec::ringlet(4)
        .errors(ErrorMode::ErrorsReturn)
        .tuning(Tuning {
            collective_algo: CollectiveAlgo::Naive,
            ..Tuning::default()
        });
    let size = |from: usize, to: usize| if (from, to) == (0, 1) { 200 } else { 100 };
    let out = scimpi::run(spec, move |r| {
        let me = r.rank();
        let blocks: Vec<Vec<u8>> = (0..4)
            .map(|d| vec![(me * 4 + d) as u8; size(me, d)])
            .collect();
        r.alltoall(&blocks)
    });
    for (me, got) in out.into_iter().enumerate() {
        if me == 1 {
            let err = got.expect_err("rank 1's receive from rank 0 truncates");
            assert_eq!(
                err,
                ScimpiError::InvalidArg {
                    what: "receive buffer",
                    got: 200,
                    limit: 100
                }
            );
            continue;
        }
        let got = got.unwrap_or_else(|e| panic!("rank {me}: {e}"));
        for (src, block) in got.iter().enumerate() {
            assert_eq!(block, &vec![(src * 4 + me) as u8; 100], "{src} to {me}");
        }
    }
}

// --- dying-rank error maps ---------------------------------------------

/// Rendezvous-sized payload in f64 elements; eager sends to a corpse
/// complete locally, so only rendezvous traffic exposes the death.
const F64_RDV: usize = 20_000;

/// Kill rank 2 right after the opening barrier and drive an allreduce
/// through it. Rank 3 touches the victim in every schedule the engine
/// can pick for an allreduce (ring neighbour, first-round recursive-
/// doubling partner, binomial parent), so it is guaranteed `PeerDead`
/// and safe to use as the revoker that unblocks stranded survivors.
fn dying_allreduce(algo: CollectiveAlgo) -> Vec<(String, SimDuration)> {
    const VICTIM: usize = 2;
    const REVOKER: usize = 3;
    let spec = ClusterSpec::multi_ring(2, 4)
        .errors(ErrorMode::ErrorsReturn)
        .tuning(Tuning {
            collective_algo: algo,
            ..Tuning::default()
        });
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
/// order. The fabric has no random faults, so the cluster seed draws
/// nothing and the test runs at the default seed.
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
        let a = dying_allreduce(algo);
        let b = dying_allreduce(algo);
        assert_eq!(a, b, "{algo:?}: error-site map must replay");
        let got: Vec<(&str, u64)> = a.iter().map(|(o, t)| (o.as_str(), t.as_ps())).collect();
        assert_eq!(got, pinned, "{algo:?}: the recorded error-site map");
        assert_eq!(a[2].0, "dead", "{algo:?}: victim records its death");
        let pd = format!("{:?}", ScimpiError::PeerDead { peer: 2 });
        let rv = format!("{:?}", ScimpiError::Revoked);
        assert!(
            a.iter().any(|(o, _)| *o == pd),
            "{algo:?}: someone must observe PeerDead, got {a:?}"
        );
        for (rank, (outcome, elapsed)) in a.iter().enumerate() {
            assert!(
                *outcome == "ok" || *outcome == "dead" || *outcome == pd || *outcome == rv,
                "{algo:?} rank {rank}: unexpected outcome {outcome}"
            );
            if *outcome == pd || *outcome == rv {
                assert!(
                    *elapsed <= bound,
                    "{algo:?} rank {rank}: {elapsed:?} > {bound:?}"
                );
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

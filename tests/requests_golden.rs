//! Golden pin of the nonblocking request engine, end to end.
//!
//! Thirteen programs with the recorder on — the 16-rank
//! four-neighbour halo at 8 KiB (eager) and at 150 000 B (rendezvous, so
//! the `isend`s have engines too), `waitany` over mixed sizes, a
//! `test`/`compute` polling loop, two fire-and-forget `isend`s reaped at
//! a barrier, `ialltoall` overlapped with `compute` at 2 KiB and at
//! 150 000 B blocks (at the larger size its engine forks `sendrecv`'s
//! send half from inside a dynamic task), persistent send/recv restarted
//! five times, `irecv_typed` of a strided vector, a wildcard `irecv`
//! posted ahead of a specific one, small messages degraded to
//! rendezvous by a binding credit budget into posted `irecv`s, and a
//! sender stalled on credits while its receiver sits in a barrier, and a
//! user `irecv` posted while an `ialltoall`'s engine waits on the same
//! source — on three fabrics
//! (healthy, `lossy(0.01)`, `silent(2e-4, 5e-5)` under `EndToEnd` with
//! `max_retransmits` 64). Each case is checked against a model and a
//! schedule table (`golden/mod.rs`). Its model digest folds every rank's
//! received-payload checksum and finish time in picoseconds, the whole
//! counter table and the profile JSON.
//!
//! Both tables were first recorded from the code that an earlier
//! single-digest table pinned, which still passed it. The model table
//! pins that *which* thread runs an engine task, and whether a request
//! needs one at all, is invisible to virtual time, the counters and
//! every delivered byte.

mod golden;

use golden::{Log, Schedule, SAME};
use mpi_datatype::{Committed, Datatype};
use sci_fabric::FaultConfig;
use scimpi::{
    run_report, ClusterSpec, IntegrityMode, OverloadPolicy, Rank, ReduceOp, Source, TagSel, Tuning,
};
use simclock::SimDuration;

/// Above the eager threshold (16 KiB): the rendezvous path.
const RDV: usize = 150_000;

/// `len` bytes only `(who, round)` produce.
fn payload(who: usize, round: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i * 7 + who * 31 + round * 13) as u8)
        .collect()
}

/// The body returns the checksum of what the rank received.
type Program = golden::Program<fn(&mut Rank) -> u64>;

/// Room for two of the 8 KiB messages the credit programs send (the
/// smallest budget a spec accepts: one eager-threshold message).
const TIGHT_CREDITS: usize = 16 * 1024;

/// Message size of the credit programs.
const CREDITED: usize = 8 * 1024;

const PROGRAMS: [Program; 13] = [
    (16, "halo.8k", |r| halo(r, 8 * 1024, 3), SAME),
    (16, "halo.rdv", |r| halo(r, RDV, 2), SAME),
    (4, "waitany.mixed", waitany_mixed, SAME),
    (2, "test.poll", test_poll, SAME),
    (2, "forget.barrier", fire_and_forget, SAME),
    (4, "ialltoall.2k", |r| ialltoall(r, 2048), SAME),
    (4, "ialltoall.rdv", |r| ialltoall(r, RDV), SAME),
    (2, "persistent.x5", persistent, SAME),
    (2, "irecv_typed.vector", typed_vector, SAME),
    (3, "wildcard.posted_first", wildcard_posted_first, SAME),
    (2, "degrade.posted_first", credit_bound_posted_first, |t| {
        Tuning {
            eager_credits_bytes: TIGHT_CREDITS,
            overload_policy: OverloadPolicy::Degrade,
            ..t
        }
    }),
    (2, "credits.barrier", credits_barrier, |t| Tuning {
        eager_credits_bytes: TIGHT_CREDITS,
        ..t
    }),
    (2, "ialltoall.shadowed", ialltoall_shadowed, SAME),
];

/// The hostbench `halo_requests` exchange: four receives, four sends,
/// compute, wait for all eight, an allreduce.
fn halo(r: &mut Rank, bytes: usize, rounds: usize) -> u64 {
    const NEIGHBOURS: [isize; 4] = [-2, -1, 1, 2];
    let (me, n) = (r.rank(), r.size());
    let peer = |d: isize| (me as isize + d).rem_euclid(n as isize) as usize;
    let mut h = Log(0);
    for round in 0..rounds {
        let mine = payload(me, round, bytes);
        // Tag by direction: ranks two apart exchange two messages.
        let mut recvs: Vec<_> = (0..4)
            .map(|k| {
                let from = Source::Rank(peer(NEIGHBOURS[k]));
                r.irecv(from, TagSel::Value(3 - k as i32), bytes).unwrap()
            })
            .collect();
        let mut sends: Vec<_> = (0..4)
            .map(|k| r.isend(peer(NEIGHBOURS[k]), k as i32, &mine).unwrap())
            .collect();
        r.compute(SimDuration::from_us(50));
        for (done, d) in r.waitall(&mut recvs).unwrap().iter().zip(NEIGHBOURS) {
            assert_eq!(done.data, payload(peer(d), round, bytes), "wrong halo");
            h.bytes(&done.data);
        }
        r.waitall(&mut sends).unwrap();
        let mut sum = [(me + round) as f64];
        r.allreduce(&mut sum, ReduceOp::Sum).unwrap();
        h.word(sum[0] as u64);
    }
    r.barrier();
    h.0
}

/// Rank 0 reaps four receives of very different sizes in completion
/// order; the order is part of the checksum.
fn waitany_mixed(r: &mut Rank) -> u64 {
    const POSTS: [(usize, i32, usize); 4] = [(1, 0, RDV), (2, 0, 32), (3, 0, 40_000), (1, 1, 4096)];
    let mut h = Log(0);
    if r.rank() == 0 {
        let mut reqs: Vec<_> = POSTS
            .iter()
            .map(|&(from, tag, len)| {
                r.irecv(Source::Rank(from), TagSel::Value(tag), len)
                    .unwrap()
            })
            .collect();
        for _ in 0..POSTS.len() {
            let (idx, done) = r.waitany(&mut reqs);
            h.word(idx as u64);
            h.bytes(&done.unwrap().data);
        }
    } else {
        let me = r.rank();
        for &(_, tag, len) in POSTS.iter().filter(|p| p.0 == me) {
            r.send(0, tag, &payload(me, tag as usize, len)).unwrap();
        }
    }
    r.barrier();
    h.0
}

/// Both sides poll their request between slices of compute; the poll
/// counts are part of the checksum.
fn test_poll(r: &mut Rank) -> u64 {
    let mut h = Log(0);
    if r.rank() == 0 {
        let mut req = r.isend(1, 0, &payload(0, 0, RDV)).unwrap();
        while r.test(&mut req).is_none() {
            h.word(1);
            r.compute(SimDuration::from_us(100));
        }
    } else {
        let mut req = r.irecv(Source::Rank(0), TagSel::Value(0), RDV).unwrap();
        let done = loop {
            match r.test(&mut req) {
                Some(done) => break done.unwrap(),
                None => {
                    h.word(2);
                    r.compute(SimDuration::from_us(70));
                }
            }
        };
        h.bytes(&done.data);
    }
    r.barrier();
    h.0
}

/// A rendezvous and an eager `isend`, both dropped unwaited.
fn fire_and_forget(r: &mut Rank) -> u64 {
    let mut h = Log(0);
    if r.rank() == 0 {
        drop(r.isend(1, 0, &payload(0, 0, RDV)).unwrap());
        drop(r.isend(1, 1, &payload(0, 1, 16)).unwrap());
        assert_eq!(r.pending_requests(), 2);
        r.barrier();
        assert_eq!(r.pending_requests(), 0, "the barrier reaps the drop bin");
    } else {
        for (tag, len) in [(0, RDV), (1, 16)] {
            let mut buf = vec![0u8; len];
            r.recv(Source::Rank(0), TagSel::Value(tag), &mut buf)
                .unwrap();
            h.bytes(&buf);
        }
        r.barrier();
    }
    h.0
}

fn ialltoall(r: &mut Rank, block: usize) -> u64 {
    let blocks: Vec<Vec<u8>> = (0..r.size())
        .map(|to| payload(r.rank(), to, block))
        .collect();
    let mut req = r.ialltoall(&blocks).unwrap();
    r.compute(SimDuration::from_us(200));
    let got = r.wait(&mut req).unwrap();
    r.barrier();
    let mut h = Log(0);
    for (from, data) in got.iter().enumerate() {
        assert_eq!(*data, payload(from, r.rank(), block), "wrong block");
        h.bytes(data);
    }
    h.0
}

fn persistent(r: &mut Rank) -> u64 {
    let mut h = Log(0);
    if r.rank() == 0 {
        let send = r.send_init(1, 5, &payload(0, 5, RDV));
        for _ in 0..5 {
            let mut req = send.start(r).unwrap();
            r.compute(SimDuration::from_us(500));
            r.wait(&mut req).unwrap();
        }
    } else {
        let recv = r.recv_init(Source::Rank(0), TagSel::Value(5), RDV);
        for _ in 0..5 {
            let mut req = recv.start(r).unwrap();
            r.compute(SimDuration::from_us(300));
            h.bytes(&r.wait(&mut req).unwrap().data);
        }
    }
    r.barrier();
    h.0
}

/// A strided vector, eager (100 × 24 B) then rendezvous (1000 × 64 B).
fn typed_vector(r: &mut Rank) -> u64 {
    let mut h = Log(0);
    for (tag, (blocks, len)) in [(100, 24), (1000, 64)].into_iter().enumerate() {
        let dt = Datatype::vector(blocks, len, 2 * len as isize + 8, &Datatype::byte());
        let c = Committed::commit(&dt);
        if r.rank() == 0 {
            let src = payload(0, tag, c.extent());
            let mut req = r.isend_typed(1, tag as i32, &c, 1, &src, 0).unwrap();
            r.compute(SimDuration::from_us(40));
            r.wait(&mut req).unwrap();
        } else {
            let from = Source::Rank(0);
            let mut req = r
                .irecv_typed(from, TagSel::Value(tag as i32), &c, 1)
                .unwrap();
            r.compute(SimDuration::from_us(25));
            let done = r.wait(&mut req).unwrap();
            h.word(done.status.len as u64);
            h.bytes(&done.data);
        }
    }
    r.barrier();
    h.0
}

/// Rank 0 posts a wildcard `irecv` and then one for rank 2, both before
/// rank 2 sends twice: MPI's posted-queue order gives the first message
/// to the earlier-posted wildcard.
fn wildcard_posted_first(r: &mut Rank) -> u64 {
    let mut h = Log(0);
    if r.rank() == 0 {
        let mut reqs = vec![
            r.irecv(Source::Any, TagSel::Value(0), 64).unwrap(),
            r.irecv(Source::Rank(2), TagSel::Value(0), 64).unwrap(),
        ];
        r.barrier();
        for (round, done) in r.waitall(&mut reqs).unwrap().iter().enumerate() {
            assert_eq!(done.status.src, 2);
            assert_eq!(done.data, payload(2, round, 64), "wrong match order");
            h.bytes(&done.data);
        }
    } else {
        r.barrier();
        if r.rank() == 2 {
            for round in 0..2 {
                r.send(0, 0, &payload(2, round, 64)).unwrap();
            }
        }
    }
    r.barrier();
    h.0
}

/// Four 8 KiB messages into `irecv`s posted before any is sent. Under
/// the degrade program's budget the last two go as rendezvous RTS.
fn credit_bound_posted_first(r: &mut Rank) -> u64 {
    const SENDS: usize = 4;
    let mut h = Log(0);
    if r.rank() == 0 {
        let mut reqs: Vec<_> = (0..SENDS)
            .map(|k| {
                r.irecv(Source::Rank(1), TagSel::Value(k as i32), CREDITED)
                    .unwrap()
            })
            .collect();
        r.barrier();
        for (k, done) in r.waitall(&mut reqs).unwrap().iter().enumerate() {
            assert_eq!(done.data, payload(1, k, CREDITED), "wrong message");
            h.bytes(&done.data);
        }
    } else {
        r.barrier();
        for k in 0..SENDS {
            r.send(0, k as i32, &payload(1, k, CREDITED)).unwrap();
        }
    }
    r.barrier();
    h.0
}

/// The receiver posts six 8 KiB `irecv`s, three times what the sender's
/// credits cover, and enters a barrier before waiting. The sender stalls
/// for credits from its third send on, while the receiver sits in the
/// barrier: only receives that progress without their rank (MPI's
/// progress rule) return the credits.
fn credits_barrier(r: &mut Rank) -> u64 {
    const SENDS: usize = 6;
    let mut h = Log(0);
    if r.rank() == 0 {
        let mut reqs: Vec<_> = (0..SENDS)
            .map(|k| {
                r.irecv(Source::Rank(1), TagSel::Value(k as i32), CREDITED)
                    .unwrap()
            })
            .collect();
        r.barrier();
        for (k, done) in r.waitall(&mut reqs).unwrap().iter().enumerate() {
            assert_eq!(done.data, payload(1, k, CREDITED), "wrong message");
            h.bytes(&done.data);
        }
    } else {
        for k in 0..SENDS {
            r.send(0, k as i32, &payload(1, k, CREDITED)).unwrap();
        }
        r.barrier();
    }
    r.barrier();
    h.0
}

/// Rank 0 posts an `ialltoall` and yields in a blocking ping, so the
/// collective's engine posts its receive from rank 1. Rank 0 then posts
/// an `irecv(Rank 1, Any)` that the engine's receive overlaps, and rank 1
/// queues both its user message and its block before the engine claims.
/// The user receive must get the user message, the engine the block.
fn ialltoall_shadowed(r: &mut Rank) -> u64 {
    const BLOCK: usize = 64;
    let blocks: Vec<Vec<u8>> = (0..2).map(|to| payload(r.rank(), to, BLOCK)).collect();
    let mut ping = [0u8; 8];
    let mut h = Log(0);
    if r.rank() == 0 {
        let mut coll = r.ialltoall(&blocks).unwrap();
        r.recv(Source::Rank(1), TagSel::Value(1), &mut ping)
            .unwrap();
        let mut user = r.irecv(Source::Rank(1), TagSel::Any, BLOCK).unwrap();
        r.send(1, 2, &ping).unwrap();
        let got = r.wait(&mut coll).unwrap();
        let done = r.wait(&mut user).unwrap();
        assert_eq!(got[1], payload(1, 0, BLOCK), "wrong block");
        assert_eq!(done.data, payload(1, 7, BLOCK), "wrong user message");
        h.bytes(&got[1]);
        h.bytes(&done.data);
    } else {
        r.send(0, 1, &ping).unwrap();
        r.recv(Source::Rank(0), TagSel::Value(2), &mut ping)
            .unwrap();
        let mut coll = r.ialltoall(&blocks).unwrap();
        r.send(0, 7, &payload(1, 7, BLOCK)).unwrap();
        let got = r.wait(&mut coll).unwrap();
        assert_eq!(got[0], payload(0, 1, BLOCK), "wrong block");
        h.bytes(&got[0]);
    }
    r.barrier();
    h.0
}

/// One program on one fabric: the model digest of what the run left and
/// the schedule it took.
fn case(&(ranks, _, body, tune): &Program, faults: FaultConfig, tuning: Tuning) -> (u64, Schedule) {
    let spec = ClusterSpec::ringlet(ranks)
        .tuning(tune(tuning))
        .faults(faults)
        .seed(0x7E57_0019)
        .obs(obs::ObsConfig::enabled());
    let (per_rank, report) = run_report(spec, move |r| (body(r), r.now().as_ps()));
    let ranks = per_rank.into_iter().flat_map(|(sum, ps)| [sum, ps]);
    let profile = report.profile_json();
    let model = golden::digest(ranks, report.counters.iter(), Some(&profile));
    (model, golden::schedule(&report))
}

/// Every program on one fabric, in [`PROGRAMS`] order, against its
/// model and schedule tables.
fn check(
    fabric: &str,
    faults: FaultConfig,
    tuning: Tuning,
    (model, schedule): (&[u64; PROGRAMS.len()], &[Schedule; PROGRAMS.len()]),
) {
    let mut table = golden::Table::default();
    for p in &PROGRAMS {
        table.push_scheduled(p.1.to_string(), case(p, faults.clone(), tuning.clone()));
    }
    table.check(fabric, 3, model, Some(schedule));
}

#[test]
fn healthy_fabric_matches_the_recorded_requests() {
    check(
        "healthy",
        FaultConfig::default(),
        Tuning::default(),
        (&HEALTHY, &HEALTHY_SCHEDULE),
    );
}

#[test]
fn lossy_fabric_matches_the_recorded_requests() {
    check(
        "lossy(0.01)",
        FaultConfig::lossy(0.01),
        Tuning::default(),
        (&LOSSY, &LOSSY_SCHEDULE),
    );
}

#[test]
fn silently_faulty_fabric_under_end_to_end_matches_the_recorded_requests() {
    let tuning = Tuning {
        integrity_mode: IntegrityMode::EndToEnd,
        max_retransmits: 64,
        ..Tuning::default()
    };
    check(
        "silent(2e-4, 5e-5), EndToEnd",
        FaultConfig::silent(2e-4, 5e-5),
        tuning,
        (&SILENT, &SILENT_SCHEDULE),
    );
}

#[rustfmt::skip]
const HEALTHY: [u64; 13] = [
    0x44025e41f5c56296, 0xddd68d442fda9186, 0xafb39485a9dd798b,
    0xa162d0ae4bffc497, 0x63926fb28b8d7e0c, 0x8284a94b83510664,
    0x8e1b254cf08d424d, 0x77216d98ccb1372f, 0x05be655f7d39bfef,
    0xc5c5c4a94b181efa, 0xdbcecbae5bcf1311, 0x36abd68cd67d6459,
    0x5b67154f91ee87fd,
];

#[rustfmt::skip]
const LOSSY: [u64; 13] = [
    0x44025e41f5c56296, 0x9953c97df2a6e0f7, 0x61cf724f299d30d5,
    0xb48f57ef32e257d6, 0x6f249194de59ded7, 0x8284a94b83510664,
    0xce9c4179391f47a3, 0x14b0e04866ee060a, 0x1980bc32e0d52246,
    0xc5c5c4a94b181efa, 0xdbcecbae5bcf1311, 0x36abd68cd67d6459,
    0x5b67154f91ee87fd,
];

#[rustfmt::skip]
const SILENT: [u64; 13] = [
    0xd470fd05f14ae9b9, 0x096c978415e3a507, 0xba91fac3472a02ab,
    0x4bd2ba6e5bf7971b, 0xfe243e418b3f2538, 0x142c1c720cde09d4,
    0x7984ef6cd1a5f40d, 0x24bf456b6c33f6ac, 0x8813de928eb69b0d,
    0xb8c7e7a45b3f1fbe, 0x65347c3b5ed60c9d, 0x440f874cc7925d75,
    0xbf642ab8f7dc7871,
];

#[rustfmt::skip]
const HEALTHY_SCHEDULE: [Schedule; 13] = [
    [209, 16, 16, 0], // halo.8k
    [1613, 111, 144, 0], // halo.rdv
    [18, 4, 6, 0], // waitany.mixed
    [10, 2, 4, 0], // test.poll
    [8, 2, 3, 0], // forget.barrier
    [21, 4, 8, 0], // ialltoall.2k
    [82, 6, 12, 0], // ialltoall.rdv
    [42, 2, 4, 0], // persistent.x5
    [8, 2, 4, 0], // irecv_typed.vector
    [7, 3, 3, 0], // wildcard.posted_first
    [12, 2, 4, 0], // degrade.posted_first
    [4, 2, 2, 0], // credits.barrier
    [10, 2, 4, 0], // ialltoall.shadowed
];

#[rustfmt::skip]
const LOSSY_SCHEDULE: [Schedule; 13] = [
    [209, 16, 16, 0], // halo.8k
    [1618, 104, 144, 0], // halo.rdv
    [18, 4, 6, 0], // waitany.mixed
    [10, 2, 4, 0], // test.poll
    [8, 2, 3, 0], // forget.barrier
    [21, 4, 8, 0], // ialltoall.2k
    [81, 6, 12, 0], // ialltoall.rdv
    [42, 2, 4, 0], // persistent.x5
    [8, 2, 4, 0], // irecv_typed.vector
    [7, 3, 3, 0], // wildcard.posted_first
    [12, 2, 4, 0], // degrade.posted_first
    [4, 2, 2, 0], // credits.barrier
    [10, 2, 4, 0], // ialltoall.shadowed
];

#[rustfmt::skip]
const SILENT_SCHEDULE: [Schedule; 13] = [
    [199, 16, 16, 0], // halo.8k
    [3141, 104, 144, 0], // halo.rdv
    [24, 4, 5, 0], // waitany.mixed
    [15, 2, 4, 0], // test.poll
    [14, 2, 3, 0], // forget.barrier
    [21, 4, 8, 0], // ialltoall.2k
    [162, 6, 12, 0], // ialltoall.rdv
    [65, 3, 4, 0], // persistent.x5
    [11, 2, 4, 0], // irecv_typed.vector
    [7, 3, 3, 0], // wildcard.posted_first
    [15, 2, 3, 0], // degrade.posted_first
    [4, 2, 2, 0], // credits.barrier
    [10, 2, 4, 0], // ialltoall.shadowed
];

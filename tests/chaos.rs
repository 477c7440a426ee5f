//! Chaos integration tests: administrative faults (cable pulls, node
//! crashes) injected mid-run on a multi-ring cluster. The fault-tolerant
//! protocol layer must deliver bit-perfect data over alternate routes,
//! degrade one-sided communication to the emulated path when the direct
//! path stays severed, detect dead peers within the deterministic
//! virtual-time budget instead of hanging, and do all of it bit-identically
//! across same-seed runs.
//!
//! All fault schedules here are *administrative* (fail/restore/kill/revive
//! at barrier-separated points) with `error_rate == 0`: random injection
//! draws from one shared RNG whose interleaving across rank threads is not
//! deterministic, while admin faults are. Silent corruption is the one
//! exception — its per-pair RNG streams are deterministic — so CI also
//! runs this binary with `CHAOS_CORRUPT_RATE` set, layering bit flips and
//! dropped stores under `EndToEnd` integrity on top of every admin
//! schedule; all the bit-perfect assertions must keep holding.

use mpi_datatype::{Committed, Datatype};
use sci_fabric::LinkId;
use scimpi::{
    death_delay, revoke, run, run_report, AccumulateOp, ClusterSpec, CollectiveAlgo, ErrorMode,
    IntegrityMode, Rank, ReduceOp, ScimpiError, Source, TagSel, Tuning, WinMemory,
};
use simclock::SimDuration;

/// CI sweeps `CHAOS_SEED` to exercise the fault schedules under several
/// RNG streams; the scenarios themselves are seed-independent. When
/// `CHAOS_CORRUPT_RATE` is set, silent bit flips (plus dropped stores at a
/// quarter of the rate) ride under `EndToEnd` integrity, so every
/// bit-perfect assertion doubles as a corruption-recovery check.
fn chaos_spec() -> ClusterSpec {
    // The dying-collective scenarios assert rank-by-rank outcomes against
    // the naive schedules, so pin the algorithm rather than letting the
    // engine's Auto selection reshape who talks to whom.
    let mut tuning = Tuning {
        collective_algo: CollectiveAlgo::Naive,
        ..Tuning::default()
    };
    let mut spec = ClusterSpec::multi_ring(2, 4).errors(ErrorMode::ErrorsReturn);
    if let Ok(seed) = std::env::var("CHAOS_SEED") {
        spec.seed = seed.parse().expect("CHAOS_SEED must be an integer");
    }
    if let Ok(rate) = std::env::var("CHAOS_CORRUPT_RATE") {
        let rate: f64 = rate.parse().expect("CHAOS_CORRUPT_RATE must be a float");
        spec.faults.corrupt_rate = rate;
        spec.faults.drop_rate = rate / 4.0;
        tuning.integrity_mode = IntegrityMode::EndToEnd;
        tuning.max_retransmits = 64;
    }
    spec.tuning(tuning)
}

/// Pulling a cable on the primary route mid-run reroutes rendezvous
/// traffic over the alternate ring direction, bit-perfectly.
#[test]
fn link_failure_reroutes_rendezvous_traffic() {
    let payload: Vec<u8> = (0..200_000).map(|i| (i * 37) as u8).collect();
    let expect = payload.clone();
    let spec = chaos_spec().obs(obs::ObsConfig::enabled());
    let (_, report) = run_report(spec, move |r| {
        // Sever node1→node2, the middle of the primary route 0→2.
        if r.rank() == 0 {
            r.fabric().faults().fail_link(LinkId(1));
        }
        r.barrier();
        if r.rank() == 0 {
            r.send(2, 7, &payload)
                .expect("failover should absorb the cable pull");
        } else if r.rank() == 2 {
            let mut buf = vec![0u8; 200_000];
            let st = r
                .recv(Source::Rank(0), TagSel::Value(7), &mut buf)
                .expect("delivery over the alternate route");
            assert_eq!(st.len, 200_000);
            assert_eq!(buf, expect, "payload must be bit-perfect after reroute");
        }
        r.barrier();
        if r.rank() == 0 {
            r.fabric().faults().restore_link(LinkId(1));
        }
        r.barrier();
    });
    assert!(
        report.counters[obs::Counter::RouteFailovers] > 0,
        "the reroute must be visible in the failover counter"
    );
}

/// A persistent one-sided window stream fails over when the cable is
/// pulled and heals back to the primary route once it is restored.
#[test]
fn window_stream_fails_over_and_heals() {
    let spec = chaos_spec().obs(obs::ObsConfig::enabled());
    let (_, report) = run_report(spec, move |r| {
        let mem = r.alloc_mem(1 << 16).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.fence(r).unwrap();
        if r.rank() == 0 {
            r.fabric().faults().fail_link(LinkId(1));
            // First put rides the alternate (degraded) route.
            win.put(r, 2, 0, &[0xAA; 4096]).expect("failover");
            r.fabric().faults().restore_link(LinkId(1));
            // The stream notices the healthy primary and switches back.
            win.put(r, 2, 4096, &[0xBB; 4096]).expect("healed");
        }
        win.fence(r).unwrap();
        if r.rank() == 2 {
            let mut buf = vec![0u8; 4096];
            win.read_local(r, 0, &mut buf);
            assert!(buf.iter().all(|&b| b == 0xAA), "degraded-route put landed");
            win.read_local(r, 4096, &mut buf);
            assert!(buf.iter().all(|&b| b == 0xBB), "post-heal put landed");
        }
        win.fence(r).unwrap();
    });
    assert!(report.counters[obs::Counter::RouteFailovers] > 0);
    assert!(
        report.counters[obs::Counter::RouteHeals] > 0,
        "restoring the link must heal the stream back to the primary route"
    );
}

/// With both ring directions severed the direct one-sided path is
/// unrecoverable: the window degrades to control-message emulation, keeps
/// delivering, and re-promotes at the fence after the links come back.
#[test]
fn one_sided_falls_back_to_emulation_and_repromotes() {
    let spec = chaos_spec().obs(obs::ObsConfig::enabled());
    let (_, report) = run_report(spec, move |r| {
        let mem = r.alloc_mem(1 << 16).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.fence(r).unwrap();
        if r.rank() == 0 {
            // Primary 0→2 is [0,1]; the alternate rides [3,2]. Severing
            // one link of each leaves no direct route at all.
            r.fabric().faults().fail_link(LinkId(1));
            r.fabric().faults().fail_link(LinkId(2));
            // Default threshold is 2 consecutive failures: the first put
            // errors out, the retry demotes the target and is served by
            // the emulation path.
            let first = win.put(r, 2, 0, &[0x11; 2048]);
            assert!(first.is_err(), "no route: first direct put must fail");
            win.put(r, 2, 0, &[0x22; 2048])
                .expect("fallback must serve the retry via emulation");
            // Still under fallback: a get is emulated, not direct.
            let mut back = [0u8; 16];
            win.get(r, 2, 0, &mut back).expect("emulated get");
            assert_eq!(back, [0x22; 16]);
            r.fabric().faults().restore_link(LinkId(1));
            r.fabric().faults().restore_link(LinkId(2));
        }
        win.fence(r).unwrap(); // fence probes the healed primary and re-promotes
        if r.rank() == 0 {
            win.put(r, 2, 4096, &[0x33; 64]).expect("direct again");
        }
        win.fence(r).unwrap();
        if r.rank() == 2 {
            let mut buf = [0u8; 64];
            win.read_local(r, 0, &mut buf[..16]);
            assert_eq!(&buf[..16], &[0x22; 16]);
            win.read_local(r, 4096, &mut buf);
            assert_eq!(buf, [0x33; 64]);
        }
        win.fence(r).unwrap();
    });
    assert!(
        report.counters[obs::Counter::OscFallbacks] > 0,
        "the demotion must be counted"
    );
    assert!(
        report.counters[obs::Counter::OscRepromotions] > 0,
        "the fence-time probe must re-promote the healed target"
    );
}

/// Sustained one-sided traffic over the *emulated* path: with both ring
/// directions severed, a multi-round put/get/accumulate/typed-put sweep
/// keeps delivering bit-perfect data via control-message emulation, then
/// re-promotes once the cables are back. CI also runs this binary under
/// `CHAOS_CORRUPT_RATE`, layering silent corruption (absorbed by
/// `EndToEnd` retransmission) on top of the severed-route emulation.
#[test]
fn emulated_one_sided_sweep_under_link_failure() {
    let spec = chaos_spec().obs(obs::ObsConfig::enabled());
    let (_, report) = run_report(spec, move |r| {
        let mem = r.alloc_mem(1 << 16).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.fence(r).unwrap();
        if r.rank() == 0 {
            // No direct route 0→2 at all (see the fallback test above).
            r.fabric().faults().fail_link(LinkId(1));
            r.fabric().faults().fail_link(LinkId(2));
            let first = win.put(r, 2, 0, &[0x01; 512]);
            assert!(first.is_err(), "no route: first direct put must fail");
            win.put(r, 2, 0, &[0x01; 512]).expect("demoted retry");
            // Multi-round emulated put/get round trips, each bit-checked.
            for round in 0..4usize {
                let off = round * 4096;
                let pattern: Vec<u8> = (0..2048)
                    .map(|i: usize| (i * 13 + round * 7) as u8)
                    .collect();
                win.put(r, 2, off, &pattern).expect("emulated put");
                let mut back = vec![0u8; 2048];
                win.get(r, 2, off, &mut back).expect("emulated get");
                assert_eq!(back, pattern, "round {round}: emulated round trip");
            }
            // Emulated read-modify-write: ordered accumulates in one epoch.
            let ones: Vec<u8> = (0..8).flat_map(|_| 1i64.to_le_bytes()).collect();
            win.accumulate(r, 2, 16384, AccumulateOp::Replace, &[0u8; 64])
                .expect("emulated replace");
            win.accumulate(r, 2, 16384, AccumulateOp::SumI64, &ones)
                .expect("emulated sum");
            win.accumulate(r, 2, 16384, AccumulateOp::SumI64, &ones)
                .expect("emulated sum");
            // Emulated non-contiguous put: strided doubles.
            let dt = Datatype::vector(4, 1, 2, &Datatype::double());
            let c = Committed::commit(&dt);
            let src: Vec<u8> = (0..c.extent()).map(|i| (i + 1) as u8).collect();
            win.put_typed(r, 2, 20480, &c, 1, &src, 0)
                .expect("emulated typed put");
            r.fabric().faults().restore_link(LinkId(1));
            r.fabric().faults().restore_link(LinkId(2));
        }
        win.fence(r).unwrap(); // fence probes the healed primary and re-promotes
        if r.rank() == 0 {
            win.put(r, 2, 24576, &[0x44; 64]).expect("direct again");
        }
        win.fence(r).unwrap();
        if r.rank() == 2 {
            for round in 0..4usize {
                let off = round * 4096;
                let expect: Vec<u8> = (0..2048)
                    .map(|i: usize| (i * 13 + round * 7) as u8)
                    .collect();
                let mut buf = vec![0u8; 2048];
                win.read_local(r, off, &mut buf);
                assert_eq!(buf, expect, "round {round}: put landed in backing memory");
            }
            let mut acc = [0u8; 64];
            win.read_local(r, 16384, &mut acc);
            for (i, chunk) in acc.chunks(8).enumerate() {
                assert_eq!(
                    i64::from_le_bytes(chunk.try_into().unwrap()),
                    2,
                    "accumulate word {i}"
                );
            }
            let mut typed = [0u8; 56];
            win.read_local(r, 20480, &mut typed);
            for blk in 0..4 {
                let at = blk * 16;
                let expect: Vec<u8> = (at..at + 8).map(|i| (i + 1) as u8).collect();
                assert_eq!(&typed[at..at + 8], &expect[..], "typed block {blk}");
            }
            let mut direct = [0u8; 64];
            win.read_local(r, 24576, &mut direct);
            assert_eq!(direct, [0x44; 64]);
        }
        win.fence(r).unwrap();
    });
    assert!(
        report.counters[obs::Counter::OscFallbacks] > 0,
        "the severed routes must demote the target"
    );
    assert!(
        report.counters[obs::Counter::OscRepromotions] > 0,
        "the healed fence must re-promote"
    );
}

/// A receive from a crashed peer returns `PeerDead` after exactly the
/// deterministic timeout/backoff budget — no hang, no real-time dependence.
#[test]
fn dead_peer_is_detected_within_the_virtual_time_budget() {
    let budget = death_delay();
    run(chaos_spec(), move |r| {
        r.barrier();
        if r.rank() == 6 {
            r.fabric().faults().kill_node(7);
            let t0 = r.now();
            let mut buf = [0u8; 8];
            let err = r
                .recv(Source::Rank(7), TagSel::Value(1), &mut buf)
                .expect_err("rank 7 is dead and never sent");
            assert_eq!(err, ScimpiError::PeerDead { peer: 7 });
            assert_eq!(
                r.now() - t0,
                budget,
                "the declared-dead wait must charge exactly the schedule"
            );
            r.fabric().faults().revive_node(7);
        }
        // Rank 7 idles (it crashed); everyone just meets at the barrier.
        r.barrier();
    });
}

/// The whole chaos scenario — reroute, dead peer — produces bit-identical
/// per-rank virtual times and payload digests across two same-seed runs.
#[test]
fn chaos_outcome_is_deterministic() {
    let payload = vec![0x5A; 100_000];
    let scenario = || {
        run(chaos_spec(), |r| {
            if r.rank() == 0 {
                r.fabric().faults().fail_link(LinkId(1));
            }
            r.barrier();
            let mut digest = 0u64;
            if r.rank() == 0 {
                r.send(2, 7, &payload).expect("failover");
            } else if r.rank() == 2 {
                let mut buf = vec![0u8; 100_000];
                r.recv(Source::Rank(0), TagSel::Value(7), &mut buf)
                    .expect("delivery");
                digest = buf.iter().map(|&b| u64::from(b)).sum();
            }
            r.barrier();
            if r.rank() == 0 {
                r.fabric().faults().restore_link(LinkId(1));
            }
            r.barrier();
            if r.rank() == 6 {
                r.fabric().faults().kill_node(7);
                let mut buf = [0u8; 8];
                let err = r
                    .recv(Source::Rank(7), TagSel::Value(1), &mut buf)
                    .expect_err("dead peer");
                assert_eq!(err, ScimpiError::PeerDead { peer: 7 });
                r.fabric().faults().revive_node(7);
            }
            r.barrier();
            (r.now(), digest)
        })
    };
    let a = scenario();
    let b = scenario();
    assert_eq!(a, b, "same seed, same faults ⇒ same virtual-time outcome");
}

// ---------------------------------------------------------------------------
// Dying collectives: a rank's node crashes while a collective operation is
// in flight. Every survivor must come back within the deterministic
// timeout budget — `PeerDead` for ranks talking to the corpse directly,
// `Revoked` for ranks stranded on live peers that aborted — and the
// per-rank error-site map must be bit-identical across same-seed runs.
// ---------------------------------------------------------------------------

/// Rendezvous-sized payload: eager sends to a dead peer complete locally
/// (fire-and-forget), so only rendezvous traffic exposes the death.
const RDV: usize = 150_000;
/// The same threshold in f64 elements (160 kB) for the typed collectives.
const F64_RDV: usize = 20_000;

/// Drive one collective on the chaos cluster while `victim` crashes right
/// after the opening barrier, so the operation is in flight when the
/// death is discovered. `revoker` — always a rank whose tree/chain edges
/// touch the victim, hence guaranteed `PeerDead` — then revokes the
/// communicator to unblock survivors stranded on live-but-aborted peers.
///
/// Whether a rank blocked on the *dead* peer observes `PeerDead` or
/// `Revoked` first depends on which check its wait loop hits first, so
/// the revoker probes the corpse once more before revoking: that
/// receive parks until the next stall round, by which time every other
/// rank blocked on the corpse has surfaced its `PeerDead` — a rendezvous
/// in virtual time, no host clock in it.
///
/// Returns per-rank `(outcome, virtual elapsed since the barrier)`, the
/// same from two same-seed runs.
fn dying_collective<F>(victim: usize, revoker: usize, op: F) -> Vec<(String, SimDuration)>
where
    F: Fn(&mut Rank) -> Result<(), ScimpiError> + Send + Sync,
{
    let scenario = || {
        run(chaos_spec(), |r| {
            r.barrier();
            let t0 = r.now();
            if r.rank() == victim {
                r.fabric().faults().kill_node(victim);
                return ("dead".to_string(), r.now() - t0);
            }
            let outcome = match op(r) {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("{e:?}"),
            };
            let elapsed = r.now() - t0;
            if r.rank() == revoker {
                r.recv(Source::Rank(victim), TagSel::Value(0), &mut [0u8; 1])
                    .expect_err("the corpse stays dead");
                revoke(r);
            }
            (outcome, elapsed)
        })
    };
    let (a, b) = (scenario(), scenario());
    assert_eq!(a, b, "same seed ⇒ identical error sites and virtual times");
    a
}

/// Assert the per-rank outcome map (`"ok"`, `"dead"`, `"pd"` =
/// `PeerDead{victim}`, `"rev"` = `Revoked`) and that every error
/// surfaced within a budget-scale bound rather than a hang-scale one.
fn check_dying_outcomes(
    name: &str,
    victim: usize,
    expect: &[&str; 8],
    outcomes: &[(String, SimDuration)],
    budget: SimDuration,
) {
    let pd = format!("{:?}", ScimpiError::PeerDead { peer: victim });
    let rv = format!("{:?}", ScimpiError::Revoked);
    let want: Vec<String> = expect
        .iter()
        .map(|w| match *w {
            "pd" => pd.clone(),
            "rev" => rv.clone(),
            other => other.to_string(),
        })
        .collect();
    let got: Vec<String> = outcomes.iter().map(|(o, _)| o.clone()).collect();
    assert_eq!(got, want, "{name}: per-rank outcome map");
    // One death schedule plus transfer costs plus the revocation gossip:
    // generous, but distinguishes "bounded detection" from a hang.
    let bound = budget * 2 + SimDuration::from_ms(50);
    for (rank, (outcome, elapsed)) in outcomes.iter().enumerate() {
        if outcome != "ok" && outcome != "dead" {
            assert!(
                *elapsed <= bound,
                "{name}: rank {rank} took {elapsed:?} (> {bound:?}) to surface {outcome}"
            );
        }
    }
}

/// Broadcast with a dying interior (non-leaf) tree node: the root stalls
/// sending to the corpse, the corpse's child stalls receiving from it,
/// the still-unserved subtree is stranded and needs the revocation,
/// while the subtree served before the death completes bit-perfectly.
#[test]
fn dying_interior_rank_cuts_bcast_deterministically() {
    let budget = death_delay();
    // Binomial tree from root 0 over 8 ranks: 0→{4,2,1}, 2→3, 4→{6,5},
    // 6→7, and the root sends highest-mask-first. Victim 2: rank 0 serves
    // 4's subtree, then dies on the send to 2 (never reaching 1); rank 3
    // dies on the recv from its parent 2.
    let a = dying_collective(2, 3, |r| {
        let mut buf = vec![0u8; RDV];
        if r.rank() == 0 {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (i * 31) as u8;
            }
        }
        r.bcast(0, &mut buf)?;
        for (i, b) in buf.iter().enumerate() {
            assert_eq!(*b, (i * 31) as u8, "completed bcast must be bit-perfect");
        }
        Ok(())
    });
    check_dying_outcomes(
        "bcast",
        2,
        &["pd", "rev", "dead", "pd", "ok", "ok", "ok", "ok"],
        &a,
        budget,
    );
    // Rank 3's first action is the recv from its dead parent, so its
    // clock charges exactly the death schedule — nothing more.
    assert_eq!(
        a[3].1, budget,
        "child of the corpse pays exactly the schedule"
    );
}

/// All-reduce with the dying rank being the reduce root: every survivor
/// surfaces an error — the root's reduce children get `PeerDead`, the
/// rest finish the reduce but strand in the broadcast and get `Revoked`.
#[test]
fn dying_root_fails_allreduce_on_every_survivor() {
    let budget = death_delay();
    let a = dying_collective(0, 1, |r| {
        let mut buf = vec![1.0f64; F64_RDV];
        r.allreduce(&mut buf, ReduceOp::Sum)
    });
    check_dying_outcomes(
        "allreduce",
        0,
        &["dead", "pd", "pd", "rev", "pd", "rev", "rev", "rev"],
        &a,
        budget,
    );
}

/// Gatherv with a dying contributor: the root collects the ranks before
/// the corpse, dies on it, and the contributors after it — whose
/// rendezvous payloads now wait on a root that gave up — are released by
/// the revocation instead of hanging on a live peer.
#[test]
fn dying_sender_mid_gather_strands_then_revokes() {
    let budget = death_delay();
    let a = dying_collective(3, 0, |r| {
        let mine = vec![r.rank() as u8; RDV];
        r.gatherv(0, &mine).map(|_| ())
    });
    check_dying_outcomes(
        "gatherv",
        3,
        &["pd", "ok", "ok", "dead", "rev", "rev", "rev", "rev"],
        &a,
        budget,
    );
}

/// All-gather with a dying contributor: the gather phase dies at the
/// root, so no rank ever reaches the broadcast payload — everyone except
/// the root is stranded (in the gather or in the broadcast prefix) and
/// must be released by the revocation.
#[test]
fn dying_contributor_fails_allgather_everywhere() {
    let budget = death_delay();
    let a = dying_collective(5, 0, |r| {
        let mine = vec![r.rank() as u8; RDV];
        r.allgather(&mine).map(|_| ())
    });
    check_dying_outcomes(
        "allgather",
        5,
        &["pd", "rev", "rev", "rev", "rev", "dead", "rev", "rev"],
        &a,
        budget,
    );
}

/// Prefix-sum chain with a dying middle link: ranks before the corpse
/// complete with correct prefixes, its chain neighbours get `PeerDead`,
/// and the tail of the chain is stranded until the revocation.
#[test]
fn dying_link_in_scan_chain_splits_outcomes() {
    let budget = death_delay();
    let a = dying_collective(4, 5, |r| {
        let me = r.rank();
        let mut out = vec![1.0f64; F64_RDV];
        r.scan(&mut out, ReduceOp::Sum)?;
        assert_eq!(
            out[0],
            (me + 1) as f64,
            "completed scan must hold the exact prefix"
        );
        Ok(())
    });
    check_dying_outcomes(
        "scan",
        4,
        &["ok", "ok", "ok", "pd", "dead", "pd", "rev", "rev"],
        &a,
        budget,
    );
    // Rank 5's first action is the recv from its dead predecessor, so
    // its clock charges exactly the death schedule.
    assert_eq!(
        a[5].1, budget,
        "successor of the corpse pays exactly the schedule"
    );
}

/// Pairwise all-to-all with a dying rank: each step's partner of the
/// corpse gets `PeerDead` as the steps sweep past it, and ranks whose
/// step-partners aborted earlier are stranded until the revocation.
#[test]
fn dying_rank_aborts_alltoall_pairwise_exchange() {
    let budget = death_delay();
    let a = dying_collective(6, 5, |r| {
        let me = r.rank();
        let blocks: Vec<Vec<u8>> = (0..8).map(|d| vec![(me * 8 + d) as u8; RDV]).collect();
        r.alltoall(&blocks).map(|_| ())
    });
    check_dying_outcomes(
        "alltoall",
        6,
        &["pd", "rev", "rev", "rev", "pd", "pd", "dead", "pd"],
        &a,
        budget,
    );
}

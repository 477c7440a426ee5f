//! Acceptance tests for the recovery subsystem: revoke → shrink →
//! restore survives rank death with bit-identical survivor results, the
//! fault-tolerant agreement tolerates a second death *during* agreement,
//! and — just as load-bearing — a fault-free run with recovery enabled
//! charges zero recovery virtual time beyond the checkpoints themselves.
//!
//! `seeded_death_sweep_recovers_within_one_epoch` runs every seed of
//! [`SEEDS`] × deaths ∈ {0,1,2}, drawing victims from the pure
//! `sci_fabric::death_schedule` (which never kills node 0, the shrink
//! leader).
//!
//! All state arithmetic stays in the integers-and-halves f64 domain
//! (exactly representable, order-independent), so "bit-identical" is a
//! meaningful cross-topology claim even through tree-order reductions.

use sci_fabric::death_schedule;
use scimpi::{
    revoke, run, run_report, shrink, shrink_with_fault, Checkpointer, ClusterSpec, ErrorMode, Rank,
    ReduceOp, ScimpiError, Source, TagSel, Tuning,
};
use simclock::SimDuration;

/// Words of per-rank application state (2 KiB images: eager-sized, so
/// the failure scenarios exercise the recv-side death detection too).
const WORDS: usize = 256;

fn init_state(world_rank: usize) -> Vec<f64> {
    (0..WORDS)
        .map(|i| ((world_rank + 1) * 1000 + i) as f64)
        .collect()
}

/// `Σ_w init_state(w)[i]` over a fault-free world of `n` ranks — the
/// closed form of what one allreduce round sums, exact in f64.
fn world_sum(n: usize, i: usize) -> f64 {
    (1000 * n * (n + 1) / 2 + n * i) as f64
}

fn to_bytes(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn from_bytes(b: &[u8]) -> Vec<f64> {
    b.chunks(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte words")))
        .collect()
}

/// One work round: allreduce the state and fold half the global sum back
/// into every element (stays exact: integers and halves only).
fn advance(r: &mut Rank, state: &mut [f64]) -> Result<(), ScimpiError> {
    let mut sum = state.to_vec();
    r.allreduce(&mut sum, ReduceOp::Sum)?;
    for (s, t) in state.iter_mut().zip(sum) {
        *s += 0.5 * t;
    }
    Ok(())
}

/// Kill one rank mid-run: the survivors revoke, agree in one epoch,
/// shrink to a dense re-ranking, replay the buddy checkpoint, and finish
/// with results bit-identical to a fault-free run of the shrunk size
/// seeded from the same checkpoint state.
#[test]
fn kill_one_rank_shrink_restore_matches_fault_free_run() {
    const SURVIVORS: [usize; 3] = [0, 1, 3];
    let faulty = run(
        ClusterSpec::ringlet(4).errors(ErrorMode::ErrorsReturn),
        |r| {
            let me_w = r.world_rank();
            let mut state = init_state(me_w);
            let mut ckpt = Checkpointer::new(r, WORDS * 8).unwrap();
            // Round 1 on the full world, then checkpoint it.
            advance(r, &mut state).unwrap();
            ckpt.checkpoint(r, &to_bytes(&state)).unwrap();
            r.barrier();
            if me_w == 2 {
                r.fabric().faults().kill_node(2);
                return ("dead".to_string(), Vec::new());
            }
            // Round 2 runs into the corpse; every survivor must error
            // out (directly or through the revocation) instead of
            // hanging.
            let mut wasted = state.clone();
            let err = advance(r, &mut wasted).expect_err("the collective must fail");
            let err_site = format!("{err:?}");
            revoke(r);
            let report = shrink(r).unwrap();
            assert_eq!(report.epoch, 1, "one agreement epoch suffices");
            assert_eq!(report.dead, vec![2]);
            assert_eq!(report.size, 3);
            assert_eq!(r.epoch(), 1);
            assert_eq!(
                r.rank(),
                SURVIVORS.iter().position(|&w| w == me_w).unwrap(),
                "survivors are re-ranked densely in world order"
            );
            assert_eq!(r.world_rank(), me_w, "the world rank never changes");
            // Replay the checkpoint: bit-identical to the captured state.
            let restored = from_bytes(&ckpt.restore(r).unwrap());
            assert_eq!(restored, state, "restore replays the exact image");
            // The corpse's image survives on its buddy (old logical 3).
            if me_w == 3 {
                let (dead_w, image) = ckpt.adopt(r).expect("rank 3 holds rank 2's replica");
                assert_eq!(dead_w, 2);
                let expect: Vec<f64> = init_state(2)
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v + 0.5 * world_sum(4, i))
                    .collect();
                assert_eq!(from_bytes(&image), expect, "adopted image is round 1's");
            }
            let mut ckpt = ckpt.rebind(r).unwrap();
            // Round 2 again, now on the shrunk world.
            let mut state = restored;
            advance(r, &mut state).unwrap();
            ckpt.checkpoint(r, &to_bytes(&state)).unwrap();
            ckpt.free(r);
            (err_site, to_bytes(&state))
        },
    );
    // Fault-free reference of the shrunk size, seeded with the same
    // post-round-1 (checkpoint) state the survivors restored.
    let reference = run(
        ClusterSpec::ringlet(3).errors(ErrorMode::ErrorsReturn),
        |r| {
            let me_w = SURVIVORS[r.rank()];
            let mut state = init_state(me_w);
            for (i, s) in state.iter_mut().enumerate() {
                *s += 0.5 * world_sum(4, i);
            }
            advance(r, &mut state).unwrap();
            to_bytes(&state)
        },
    );
    for (idx, &w) in SURVIVORS.iter().enumerate() {
        assert_eq!(
            faulty[w].1, reference[idx],
            "survivor world rank {w}: results must be bit-identical to the fault-free run"
        );
    }
    assert_eq!(faulty[2].0, "dead");
    // Rank 1 was blocked on a *live* survivor (the aborted root), so
    // only the revocation can have freed it.
    let rv = format!("{:?}", ScimpiError::Revoked);
    let pd = format!("{:?}", ScimpiError::PeerDead { peer: 2 });
    assert_eq!(
        faulty[1].0, rv,
        "stranded-on-live-peer rank must be Revoked"
    );
    for w in [0usize, 3] {
        assert!(
            faulty[w].0 == pd || faulty[w].0 == rv,
            "rank {w} surfaced an unexpected error site: {}",
            faulty[w].0
        );
    }
    assert!(
        faulty[0].0 == pd || faulty[3].0 == pd,
        "at least one survivor must have detected the death directly"
    );
}

/// The seeds of the death sweep.
const SEEDS: [u64; 5] = [1, 7, 42, 1234, 20020415];

/// Seeded recovery scenario, one cell per seed of [`SEEDS`] × deaths ∈
/// {0,1,2}: victims come from the pure `death_schedule`; the first dies
/// before the shrink, the second dies *during* the agreement
/// (`shrink_with_fault` after one sweep) — survivors must still agree in
/// one epoch, restore their checkpoints, and keep computing.
#[test]
fn seeded_death_sweep_recovers_within_one_epoch() {
    for seed in SEEDS {
        for deaths in 0..=2 {
            println!("cell seed {seed}, deaths {deaths}");
            death_sweep_cell(seed, deaths);
        }
    }
}

fn death_sweep_cell(seed: u64, deaths: usize) {
    let mut spec = ClusterSpec::ringlet(4).errors(ErrorMode::ErrorsReturn);
    spec.seed = seed;
    let events = death_schedule(seed, 4, deaths, SimDuration::from_ms(10));
    let pre_victim = events.first().map(|e| e.node);
    let mid_victim = events.get(1).map(|e| e.node);
    let expected_dead: Vec<usize> = {
        let mut d: Vec<usize> = events.iter().map(|e| e.node).collect();
        d.sort_unstable();
        d
    };
    let survivors = 4 - expected_dead.len();
    let expected_dead2 = expected_dead.clone();
    let out = run(spec, move |r| {
        let me_w = r.world_rank();
        let mut state = init_state(me_w);
        let mut ckpt = Checkpointer::new(r, WORDS * 8).unwrap();
        advance(r, &mut state).unwrap();
        ckpt.checkpoint(r, &to_bytes(&state)).unwrap();
        r.barrier();
        if Some(me_w) == pre_victim {
            r.fabric().faults().kill_node(r.node().0);
            return 0u64;
        }
        if Some(me_w) == mid_victim {
            let err = shrink_with_fault(r, 1).expect_err("this victim dies mid-agreement");
            assert_eq!(err, ScimpiError::PeerDead { peer: me_w });
            return 0;
        }
        let report = shrink(r).unwrap();
        assert_eq!(report.epoch, 1, "one agreement epoch suffices");
        assert_eq!(report.dead, expected_dead2, "agreed dead set");
        assert_eq!(report.size, survivors);
        // Post-shrink life: replay the checkpoint, adopt a dead
        // predecessor's image if this rank holds one, re-pair buddies,
        // and keep computing on the shrunk world.
        let restored = from_bytes(&ckpt.restore(r).unwrap());
        assert_eq!(restored, state, "restore replays the exact image");
        if let Some((dead_w, image)) = ckpt.adopt(r) {
            assert!(expected_dead2.contains(&dead_w));
            assert_eq!(image.len(), WORDS * 8);
        }
        let mut ckpt = ckpt.rebind(r).unwrap();
        let mut state = restored;
        advance(r, &mut state).unwrap();
        ckpt.checkpoint(r, &to_bytes(&state)).unwrap();
        ckpt.free(r);
        r.epoch()
    });
    for (w, epoch) in out.iter().enumerate() {
        if !expected_dead.contains(&w) {
            assert_eq!(*epoch, 1, "survivor {w} must land in epoch 1");
        }
    }
}

/// Fault-free runs with recovery enabled charge zero recovery virtual
/// time: no revocations observed, no restores, attribution shows an
/// exactly-conserved decomposition with an empty `recovery` wait bucket,
/// and the only recovery-side cost is the checkpoints themselves.
#[test]
fn fault_free_recovery_charges_zero_recovery_time() {
    const ROUNDS: u64 = 3;
    let workload = |r: &mut Rank| {
        let mut state = init_state(r.world_rank());
        let mut ckpt = Checkpointer::new(r, WORDS * 8).unwrap();
        for _ in 0..ROUNDS {
            advance(r, &mut state).unwrap();
            ckpt.checkpoint(r, &to_bytes(&state)).unwrap();
        }
        ckpt.free(r);
        r.barrier();
        r.now()
    };
    let mut spec = ClusterSpec::ringlet(4)
        .errors(ErrorMode::ErrorsReturn)
        .obs(obs::ObsConfig::enabled());
    spec.seed = 20020415;
    let (with_obs, report) = run_report(spec, workload);
    let profile = report.profile.as_ref().expect("profile built at teardown");

    assert_eq!(report.counters[obs::Counter::Revocations], 0);
    assert_eq!(report.counters[obs::Counter::RevokesObserved], 0);
    assert_eq!(report.counters[obs::Counter::RecoveryRestores], 0);
    assert_eq!(report.counters[obs::Counter::CheckpointsTaken], 4 * ROUNDS);
    assert_eq!(
        report.counters[obs::Counter::CheckpointBytes],
        4 * ROUNDS * (WORDS as u64) * 8
    );
    for p in &profile.ranks {
        assert_eq!(
            p.wait_ps[obs::WaitKind::Recovery as usize],
            0,
            "rank {}: fault-free run must charge zero recovery wait",
            p.rank
        );
        assert_eq!(
            p.total_busy_ps() + p.total_wait_ps() + p.other_ps,
            p.makespan_ps,
            "rank {}: attribution must conserve exactly",
            p.rank
        );
        assert_eq!(
            p.makespan_ps,
            with_obs[p.rank as usize].as_ps(),
            "rank {}: profiled makespan disagrees with its clock",
            p.rank
        );
    }

    // And the recorder itself must not have perturbed virtual time.
    let mut plain = ClusterSpec::ringlet(4)
        .errors(ErrorMode::ErrorsReturn)
        .obs(obs::ObsConfig::disabled());
    plain.seed = 20020415;
    let without_obs = run(plain, workload);
    assert_eq!(with_obs, without_obs, "attribution perturbed virtual time");
}

/// A wildcard `irecv` posted before a revocation, and waited only after
/// the shrink that lifts it, fails with `Revoked`: the shrink cancels
/// every receive still posted. No peer's death could end its wait, and
/// once the revocation is lifted no stall round sees it either.
#[test]
fn a_wildcard_irecv_posted_before_a_revoke_fails_after_the_shrink() {
    let out = run(
        ClusterSpec::ringlet(3).errors(ErrorMode::ErrorsReturn),
        |r| {
            let mut req =
                (r.rank() == 0).then(|| r.irecv(Source::Any, TagSel::Value(9), 8).unwrap());
            r.barrier();
            if r.rank() == 2 {
                r.fabric().faults().kill_node(2);
                return None;
            }
            revoke(r);
            shrink(r).unwrap();
            req.as_mut().map(|req| r.wait(req).map(|done| done.status))
        },
    );
    assert_eq!(out[0], Some(Err(ScimpiError::Revoked)));
}

/// Above the eager threshold (16 KiB): a send that waits for its CTS.
const RDV: usize = 150_000;

/// The smallest eager credit budget a spec accepts: two 8 KiB messages.
const TIGHT_CREDITS: usize = 16 * 1024;

/// One row of the blocking-site table: what rank 0 does on a three-rank
/// ringlet under `ErrorsReturn`, with rank 1 dead (`.dead`) or rank 2
/// revoking while rank 0 waits (`.revoked`), and the tuning of the run.
type Site = (&'static str, fn(&mut Rank) -> String, fn(Tuning) -> Tuning);

/// The fabric's tuning, unchanged.
const SAME: fn(Tuning) -> Tuning = std::convert::identity;

fn tight_credits(t: Tuning) -> Tuning {
    Tuning {
        eager_credits_bytes: TIGHT_CREDITS,
        ..t
    }
}

/// Rank 1 dies after the barrier; rank 0 then blocks in `block`.
fn peer_dies(r: &mut Rank, block: fn(&mut Rank) -> String) -> String {
    r.barrier();
    match r.rank() {
        0 => {
            r.fabric().faults().kill_node(1);
            block(r)
        }
        _ => String::new(),
    }
}

/// Rank 2 revokes 50 µs after the barrier while rank 0 blocks in `block`
/// and rank 1, alive, never answers.
fn peer_revokes(r: &mut Rank, block: fn(&mut Rank) -> String) -> String {
    r.barrier();
    match r.rank() {
        0 => block(r),
        2 => {
            r.compute(SimDuration::from_us(50));
            revoke(r);
            String::new()
        }
        _ => String::new(),
    }
}

/// A blocking send to rank 1 that waits for its CTS.
fn cts_wait(r: &mut Rank) -> String {
    format!("{:?}", r.send(1, 0, &vec![1u8; RDV]))
}

/// Three 8 KiB sends to rank 1 on a two-message credit budget: the third
/// stalls for credits.
fn credit_wait(r: &mut Rank) -> String {
    let outcomes: Vec<_> = (0..3).map(|k| r.send(1, k, &[2u8; 8192])).collect();
    format!("{outcomes:?}")
}

/// A blocking receive from `src` that nobody satisfies.
fn recv_wait(r: &mut Rank, src: Source) -> String {
    let mut buf = [0u8; 64];
    format!("{:?}", r.recv(src, TagSel::Value(9), &mut buf))
}

/// An `irecv(Any)` posted before the barrier, waited after it.
fn delivery_revoked(r: &mut Rank) -> String {
    let mut req = (r.rank() == 0).then(|| r.irecv(Source::Any, TagSel::Value(9), 64).unwrap());
    peer_revokes(r, |_| String::new());
    match &mut req {
        Some(req) => format!("{:?}", r.wait(req).map(|d| d.status)),
        None => String::new(),
    }
}

/// Rank 2 dies after the first agreement sweep of a shrink; rank 0's
/// second-sweep wait for its signal sees the death.
fn agree_dead(r: &mut Rank) -> String {
    revoke(r);
    match r.rank() {
        2 => format!("{:?}", shrink_with_fault(r, 1)),
        0 => format!("{:?}", shrink(r)),
        _ => {
            shrink(r).unwrap();
            String::new()
        }
    }
}

/// One program per blocking site (`docs/SCHEDULER.md`), parked there when
/// its peer's node dies and, where the site checks revocation, when a
/// revocation arrives. The ring-slot wait is not here: a receiver holds
/// every slot only while it has a notified chunk left to drain, so its
/// sender never stalls there. `an_irecv_posted_before_its_sender_dies_
/// returns_peer_dead_at_wait` (tests/requests.rs) pins a posted
/// receive's delivery wait against a dead source.
const SITES: [Site; 8] = [
    ("ctrl.dead", |r| peer_dies(r, cts_wait), SAME),
    ("ctrl.revoked", |r| peer_revokes(r, cts_wait), SAME),
    ("credits.dead", |r| peer_dies(r, credit_wait), tight_credits),
    (
        "credits.revoked",
        |r| peer_revokes(r, credit_wait),
        tight_credits,
    ),
    ("agree.dead", agree_dead, SAME),
    ("delivery.revoked", delivery_revoked, SAME),
    (
        "recv.dead",
        |r| peer_dies(r, |r| recv_wait(r, Source::Rank(1))),
        SAME,
    ),
    (
        "recv.revoked",
        |r| peer_revokes(r, |r| recv_wait(r, Source::Any)),
        SAME,
    ),
];

/// Rank 0's outcome at each blocking site and its finish time in
/// picoseconds: which error each wait returns, and when, must not move.
#[test]
fn blocking_sites_fail_with_the_recorded_error_at_the_recorded_time() {
    let got: Vec<(String, u64)> = SITES
        .iter()
        .map(|&(_, body, tune)| {
            let spec = ClusterSpec::ringlet(3)
                .tuning(tune(Tuning::default()))
                .errors(ErrorMode::ErrorsReturn);
            let out = run(spec, move |r| (body(r), r.now().as_ps()));
            out.into_iter().next().expect("rank 0")
        })
        .collect();
    let want: Vec<(String, u64)> = SITE_OUTCOMES
        .iter()
        .map(|&(outcome, ps)| (outcome.to_string(), ps))
        .collect();
    if got != want {
        let rows: Vec<String> = (SITES.iter().zip(&got))
            .map(|(site, (outcome, ps))| format!("    ({outcome:?}, {ps}), // {}", site.0))
            .collect();
        panic!(
            "blocking sites moved; the table as run:\n{}",
            rows.join("\n")
        );
    }
}

#[rustfmt::skip]
const SITE_OUTCOMES: [(&str, u64); 8] = [
    ("Err(PeerDead { peer: 1 })", 6224100000),                           // ctrl.dead
    ("Err(Revoked)", 58200000),                                          // ctrl.revoked
    ("[Ok(()), Ok(()), Err(PeerDead { peer: 1 })]", 6294714782),         // credits.dead
    ("[Ok(()), Ok(()), Err(Revoked)]", 74714782),                        // credits.revoked
    ("Ok(ShrinkReport { epoch: 1, dead: [2], rank: 0, size: 2 })", 6230825000), // agree.dead
    ("Err(Revoked)", 58200000),                                          // delivery.revoked
    ("Err(PeerDead { peer: 1 })", 6223200000),                           // recv.dead
    ("Err(Revoked)", 58200000),                                          // recv.revoked
];

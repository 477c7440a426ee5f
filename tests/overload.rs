//! Resource-governance acceptance tests: credit-based eager flow
//! control must bound the receiver's queued eager bytes by the
//! configured budget without changing a single delivered byte, every
//! [`OverloadPolicy`] must behave per its contract (stall, degrade,
//! shed, refuse), the drop-bin reaper must hand in-flight budget back,
//! and the whole machinery must stay deadlock-free and deterministic
//! when a rank dies holding credits (see `docs/BACKPRESSURE.md`).
//!
//! Every fabric here is healthy (the rank death is administrative), so
//! the cluster seed draws nothing and each test runs once at the default
//! seed: the flood tests pin their own policy, while the composed chaos
//! test runs every policy of [`POLICIES`], so every policy is exercised
//! against rank death.

mod cells;

use scimpi::{
    revoke, run, run_report, shrink, ClusterSpec, ErrorMode, OverloadPolicy, ReduceOp, RunReport,
    ScimpiError, Source, TagSel, Tuning,
};
use simclock::{SimDuration, SimTime};

/// Eager-byte budget used by the governed floods: the minimum
/// `Tuning::validate` allows (one full eager-threshold message).
const BUDGET: usize = 16 * 1024;
/// Flood message size (eager: below the 16 KiB threshold).
const MSG: usize = 4096;
/// Flood length: `COUNT * MSG` is 8× the budget, so governance binds.
const COUNT: usize = 32;

/// The policies the composed chaos test runs under.
const POLICIES: [OverloadPolicy; 4] = [
    OverloadPolicy::Stall,
    OverloadPolicy::Degrade,
    OverloadPolicy::Shed,
    OverloadPolicy::Error,
];

fn governed(policy: OverloadPolicy) -> Tuning {
    Tuning {
        eager_credits_bytes: BUDGET,
        eager_credit_slots: 256,
        overload_policy: policy,
        ..Tuning::default()
    }
}

/// Deterministic per-message payload for the floods.
fn pattern(i: usize) -> Vec<u8> {
    (0..MSG).map(|j| (i * 131 + j * 7) as u8).collect()
}

/// Fast sender, slow receiver: rank 0 fires `COUNT` eager messages
/// back-to-back while rank 1 pays 200 µs of compute before each
/// receive, checking every byte in order. Returns per-rank
/// `(finish time, payload digest)` and the run's report.
fn flood(spec: ClusterSpec) -> (Vec<(SimTime, u64)>, RunReport) {
    run_report(spec, |r| {
        let mut digest = 0u64;
        if r.rank() == 0 {
            for i in 0..COUNT {
                r.send(1, 9, &pattern(i)).expect("flood send");
            }
        } else {
            for i in 0..COUNT {
                r.compute(SimDuration::from_us(200));
                let mut buf = vec![0u8; MSG];
                r.recv(Source::Rank(0), TagSel::Value(9), &mut buf)
                    .expect("flood recv");
                assert_eq!(buf, pattern(i), "message {i}: in order and bit-perfect");
                digest = digest
                    .wrapping_mul(1_000_003)
                    .wrapping_add(buf.iter().map(|&b| u64::from(b)).sum::<u64>());
            }
        }
        r.barrier();
        (r.now(), digest)
    })
}

/// The receiver's peak simultaneously queued eager bytes, from the
/// deterministic virtual-time backlog sweep recorded at teardown.
fn receiver_peak_eager_bytes(report: &RunReport) -> u64 {
    report
        .peak_backlogs
        .iter()
        .find(|p| p.rank == 1)
        .expect("rank 1 backlog gauge recorded")
        .eager_bytes
}

/// Under `Stall` the flood's peak queued eager bytes never exceed the
/// credit budget, the delivered bytes are identical to an unbounded
/// baseline run, the bound demonstrably binds (the baseline exceeds
/// it), and the governed outcome is bit-deterministic across runs.
#[test]
fn stall_flood_bounds_backlog_and_delivers_identically() {
    let spec = || {
        ClusterSpec::ringlet(2)
            .tuning(governed(OverloadPolicy::Stall))
            .obs(obs::ObsConfig::enabled())
    };
    let (a, report) = flood(spec());
    let peak_a = receiver_peak_eager_bytes(&report);
    assert!(
        peak_a <= BUDGET as u64,
        "stall: peak queued eager bytes {peak_a} exceed the {BUDGET}-byte budget"
    );
    assert!(
        report.counters[obs::Counter::EagerCreditStalls] > 0,
        "an 8×-oversubscribed flood must actually stall"
    );
    let credit_peak = report.counters[obs::Counter::CreditBytesPeak];
    assert!(
        credit_peak > 0 && credit_peak <= BUDGET as u64,
        "credit high-water mark {credit_peak} must be within the budget"
    );

    // Same seed, same governed run: bit-identical times, digests, peak.
    let (b, report_b) = flood(spec());
    assert_eq!(a, b, "governed flood must be deterministic");
    assert_eq!(peak_a, receiver_peak_eager_bytes(&report_b));

    // Unbounded baseline (default 4 MiB budget): same bytes delivered,
    // but the queue grows far past the governed bound — the budget binds.
    let (base, base_report) = flood(
        ClusterSpec::ringlet(2)
            .tuning(Tuning::default())
            .obs(obs::ObsConfig::enabled()),
    );
    assert_eq!(a[1].1, base[1].1, "flow control must not change one byte");
    assert!(
        receiver_peak_eager_bytes(&base_report) > BUDGET as u64,
        "the ungoverned flood must overrun the governed bound, else the test proves nothing"
    );
}

/// Under `Degrade` exhausted credits switch the message to the
/// rendezvous protocol instead of queueing more eager payload: the
/// eager-byte bound still holds, delivery is still in-order and
/// byte-identical, and the degradations are counted.
#[test]
fn degrade_flood_bounds_backlog_via_rendezvous() {
    let spec = || {
        ClusterSpec::ringlet(2)
            .tuning(governed(OverloadPolicy::Degrade))
            .obs(obs::ObsConfig::enabled())
    };
    let (a, report) = flood(spec());
    let peak = receiver_peak_eager_bytes(&report);
    assert!(
        peak <= BUDGET as u64,
        "degrade: peak queued eager bytes {peak} exceed the {BUDGET}-byte budget"
    );
    assert!(
        report.counters[obs::Counter::DegradedPaths] > 0,
        "the oversubscribed flood must take the degraded path"
    );
    let (b, _) = flood(spec());
    assert_eq!(a, b, "degraded flood must be deterministic");

    let (base, _) = flood(ClusterSpec::ringlet(2).obs(obs::ObsConfig::enabled()));
    assert_eq!(a[1].1, base[1].1, "degradation must not change one byte");
}

/// Backpressure is a first-class wait state: the stalled flood's
/// profile stays exactly conservative (busy + wait + other ==
/// makespan, per rank), the sender's stall shows up in the
/// `backpressure` bucket, and the serialized PROFILE document carries
/// the new key.
#[test]
fn stall_wait_time_is_conserved_in_backpressure_bucket() {
    let profile_path = std::env::temp_dir().join(format!(
        "scimpi_overload_profile_{}.json",
        std::process::id()
    ));
    let (finish, report) = flood(
        ClusterSpec::ringlet(2)
            .tuning(governed(OverloadPolicy::Stall))
            .obs(obs::ObsConfig::enabled().and_profile(&profile_path)),
    );
    let profile = report.profile.expect("profile built at teardown");
    for p in &profile.ranks {
        assert_eq!(
            p.total_busy_ps() + p.total_wait_ps() + p.other_ps,
            p.makespan_ps,
            "rank {}: decomposition must sum exactly to the makespan",
            p.rank
        );
        assert_eq!(
            p.makespan_ps,
            finish[p.rank as usize].0.as_ps(),
            "rank {}: profiled makespan disagrees with its clock",
            p.rank
        );
    }
    assert!(
        profile.ranks[0].wait_ps[obs::WaitKind::Backpressure as usize] > 0,
        "the stalled sender's wait must be classified as backpressure"
    );
    let doc = std::fs::read_to_string(&profile_path).expect("profile written");
    let _ = std::fs::remove_file(&profile_path);
    assert!(
        doc.contains("\"backpressure_ps\":"),
        "the PROFILE wait breakdown must export the backpressure bucket"
    );
}

/// Under `Shed` a sender that outruns its slot budget drops the
/// overflow on the floor — deterministically the burst's prefix is
/// delivered, the rest are counted as shed, and nothing blocks.
#[test]
fn shed_policy_drops_overflow_deterministically() {
    const SLOTS: usize = 4;
    const TOTAL: usize = 12;
    let tuning = Tuning {
        eager_credit_slots: SLOTS,
        eager_credits_bytes: 64 * 1024,
        overload_policy: OverloadPolicy::Shed,
        ..Tuning::default()
    };
    let (_, report) = run_report(
        ClusterSpec::ringlet(2)
            .tuning(tuning)
            .obs(obs::ObsConfig::enabled()),
        |r| {
            if r.rank() == 0 {
                // Credits only return at sync points, so exactly the
                // first SLOTS sends of the burst are delivered.
                for i in 0..TOTAL {
                    r.send(1, 5, &[i as u8; 512])
                        .expect("shed send completes locally");
                }
            } else {
                for i in 0..SLOTS {
                    let mut buf = [0u8; 512];
                    r.recv(Source::Rank(0), TagSel::Value(5), &mut buf)
                        .expect("delivered prefix");
                    assert!(
                        buf.iter().all(|&b| b == i as u8),
                        "message {i} of the prefix must arrive intact and in order"
                    );
                }
            }
            r.barrier();
        },
    );
    assert_eq!(
        report.counters[obs::Counter::MessagesShed],
        (TOTAL - SLOTS) as u64,
        "everything past the slot budget is shed"
    );
}

/// Under `Error` exhaustion surfaces as `ResourceExhausted` through the
/// rank's error mode; a sync point returns the credits and the sender
/// is whole again.
#[test]
fn error_policy_surfaces_resource_exhausted_and_recovers() {
    let tuning = Tuning {
        eager_credit_slots: 2,
        eager_credits_bytes: BUDGET,
        overload_policy: OverloadPolicy::Error,
        ..Tuning::default()
    };
    let (_, report) = run_report(
        ClusterSpec::ringlet(2)
            .tuning(tuning)
            .errors(ErrorMode::ErrorsReturn)
            .obs(obs::ObsConfig::enabled()),
        |r| {
            if r.rank() == 0 {
                r.send(1, 3, &[1u8; 64]).expect("first slot");
                r.send(1, 3, &[2u8; 64]).expect("second slot");
                let err = r
                    .send(1, 3, &[3u8; 64])
                    .expect_err("no slots left: the policy must refuse");
                assert!(
                    matches!(
                        err,
                        ScimpiError::ResourceExhausted {
                            what: "eager credits",
                            ..
                        }
                    ),
                    "unexpected error: {err:?}"
                );
            } else {
                for want in [1u8, 2] {
                    let mut buf = [0u8; 64];
                    r.recv(Source::Rank(0), TagSel::Value(3), &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == want));
                }
            }
            r.barrier(); // the barrier hands the matched credits back
            if r.rank() == 0 {
                assert_eq!(
                    r.eager_credits_available(1),
                    (BUDGET, 2),
                    "a sync point restores the full pair budget"
                );
                r.send(1, 4, &[4u8; 64]).expect("capacity restored");
            } else {
                let mut buf = [0u8; 64];
                r.recv(Source::Rank(0), TagSel::Value(4), &mut buf).unwrap();
            }
            r.barrier();
        },
    );
    assert!(
        report.counters[obs::Counter::BudgetDenials] > 0,
        "the refusal must be counted"
    );
}

/// `Rank::eager_credits_available` tracks consumption send-by-send and
/// snaps back to the full budget at the next sync point.
#[test]
fn credit_gauge_tracks_consumption_and_barrier_return() {
    run(
        ClusterSpec::ringlet(2).tuning(governed(OverloadPolicy::Stall)),
        |r| {
            if r.rank() == 0 {
                assert_eq!(r.eager_credits_available(1), (BUDGET, 256));
                r.send(1, 6, &[7u8; 512]).unwrap();
                assert_eq!(
                    r.eager_credits_available(1),
                    (BUDGET - 512, 255),
                    "a posted eager message holds bytes and a slot"
                );
            } else {
                let mut buf = [0u8; 512];
                r.recv(Source::Rank(0), TagSel::Value(6), &mut buf).unwrap();
            }
            r.barrier();
            if r.rank() == 0 {
                assert_eq!(
                    r.eager_credits_available(1),
                    (BUDGET, 256),
                    "matched credits are folded back in at the barrier"
                );
            }
        },
    );
}

/// Dropping `isend` handles must not leak in-flight budget: the posts
/// hit the cap, the refusal surfaces as `ResourceExhausted`, and the
/// drop-bin reaper at the next sync point returns the capacity.
#[test]
fn drop_bin_reaper_returns_inflight_budget() {
    let tuning = Tuning {
        max_inflight_requests: 2,
        ..Tuning::default()
    };
    let (_, report) = run_report(
        ClusterSpec::ringlet(2)
            .tuning(tuning)
            .errors(ErrorMode::ErrorsReturn)
            .obs(obs::ObsConfig::enabled()),
        |r| {
            if r.rank() == 0 {
                // Two fire-and-forget posts fill the in-flight set.
                drop(r.isend(1, 0, &[1u8; 16]).expect("first post"));
                drop(r.isend(1, 1, &[2u8; 16]).expect("second post"));
                match r.isend(1, 2, &[3u8; 16]) {
                    Ok(_) => panic!("the in-flight cap must refuse the third post"),
                    Err(err) => assert_eq!(
                        err,
                        ScimpiError::ResourceExhausted {
                            what: "in-flight requests",
                            needed: 3,
                            limit: 2,
                        }
                    ),
                }
            } else {
                for tag in [0i32, 1] {
                    let mut buf = [0u8; 16];
                    r.recv(Source::Rank(0), TagSel::Value(tag), &mut buf)
                        .unwrap();
                }
            }
            r.barrier(); // reaps the drop bin
            if r.rank() == 0 {
                assert_eq!(r.pending_requests(), 0, "both dropped requests retired");
                let mut req = r
                    .isend(1, 3, &[4u8; 16])
                    .expect("budget returned by the reaper");
                r.wait(&mut req).unwrap();
            } else {
                let mut buf = [0u8; 16];
                r.recv(Source::Rank(0), TagSel::Value(3), &mut buf).unwrap();
            }
            r.barrier();
        },
    );
    assert!(
        report.counters[obs::Counter::BudgetDenials] > 0,
        "the refused post must be counted"
    );
    assert_eq!(
        report.counters[obs::Counter::RequestsCompletedByDrop],
        2,
        "both unwaited isends complete through the drop bin"
    );
}

/// A `Tuning` that violates its invariants must be refused when the
/// cluster is built, before any thread spawns.
#[test]
#[should_panic(expected = "invalid cluster spec")]
fn invalid_tuning_is_refused_at_build() {
    let spec = ClusterSpec::ringlet(2).tuning(Tuning {
        eager_credit_slots: 0,
        ..Tuning::default()
    });
    run(spec, |_r| {});
}

/// Composed chaos: a receiver dies while holding its senders' eager
/// credits. Whatever the overload policy, the stranded sender must
/// surface an error within the deterministic detection budget (never
/// deadlock), the survivors must revoke + shrink — which reclaims the
/// corpse's credit pairs — and the shrunk world must keep
/// communicating. One cell per policy of [`POLICIES`].
#[test]
fn rank_dying_with_held_credits_never_deadlocks() {
    cells::each(&POLICIES, dying_cell);
}

fn dying_cell(policy: OverloadPolicy) {
    let scenario = move || {
        let tuning = Tuning {
            eager_credit_slots: 2,
            eager_credits_bytes: BUDGET,
            overload_policy: policy,
            ..Tuning::default()
        };
        run(
            ClusterSpec::ringlet(4)
                .tuning(tuning)
                .errors(ErrorMode::ErrorsReturn),
            move |r| {
                r.barrier();
                let me_w = r.world_rank();
                if me_w == 2 {
                    r.fabric().faults().kill_node(2);
                    return ("dead".to_string(), r.now());
                }
                if me_w == 0 {
                    // Burst past the slot budget into the corpse. The
                    // first two eager sends complete locally and pin
                    // their credits forever; the third runs into the
                    // policy with the pair exhausted.
                    let mut refused = None;
                    for i in 0..3u8 {
                        if let Err(e) = r.send(2, 4, &[i; 64]) {
                            refused = Some(e);
                            break;
                        }
                    }
                    let err = match refused {
                        Some(e) => e,
                        // Shed completes every eager send locally; the
                        // rendezvous path exposes the death instead.
                        None => r
                            .send(2, 5, &vec![9u8; 150_000])
                            .expect_err("the corpse must surface on the rendezvous path"),
                    };
                    match policy {
                        OverloadPolicy::Error => assert!(
                            matches!(
                                err,
                                ScimpiError::ResourceExhausted {
                                    what: "eager credits",
                                    ..
                                }
                            ),
                            "error policy: unexpected error {err:?}"
                        ),
                        _ => assert_eq!(
                            err,
                            ScimpiError::PeerDead { peer: 2 },
                            "{policy:?}: the stranded sender must learn of the death"
                        ),
                    }
                    // The corpse still holds both slots of our pair.
                    assert_eq!(r.eager_credits_available(2).1, 0);
                    revoke(r);
                } else {
                    // Ranks 1 and 3 are parked in a barrier the sender
                    // never joins; the revocation gossip releases them.
                    let err = r
                        .barrier_checked()
                        .expect_err("the revocation must release the barrier");
                    assert_eq!(err, ScimpiError::Revoked);
                }
                let report = shrink(r).expect("survivors agree and shrink");
                assert_eq!(report.dead, vec![2]);
                assert_eq!(report.size, 3);
                // The shrunk world is fully live: collectives (which
                // ride the same credited sends) and fresh eager pairs
                // both work.
                let mut sums = [1.0f64];
                r.allreduce(&mut sums, ReduceOp::Sum)
                    .expect("post-shrink collective");
                assert_eq!(sums[0], 3.0);
                if r.rank() == 0 {
                    r.send(1, 8, &[0xEE; 64]).expect("post-shrink eager send");
                } else if r.rank() == 1 {
                    let mut buf = [0u8; 64];
                    r.recv(Source::Rank(0), TagSel::Value(8), &mut buf).unwrap();
                    assert_eq!(buf, [0xEE; 64]);
                }
                r.barrier();
                ("ok".to_string(), r.now())
            },
        )
    };
    let a = scenario();
    let outcomes: Vec<&str> = a.iter().map(|(o, _)| o.as_str()).collect();
    assert_eq!(outcomes, ["ok", "ok", "dead", "ok"]);
    let b = scenario();
    assert_eq!(a, b, "same spec ⇒ identical error sites and virtual times");
}

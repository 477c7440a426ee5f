//! Integration tests for the nonblocking request engine: completion
//! idempotence, waitany ordering, persistent-request timing, overlap
//! accounting, and — the load-bearing property — bit-identical behaviour
//! vs the blocking verbs under end-to-end integrity checking and silent
//! fault injection. CI sweeps `REQUESTS_SEED` over several values.

use scimpi::{
    death_delay, run, run_report, ClusterSpec, ErrorMode, IntegrityMode, RecvBuf, ScimpiError,
    SendData, Source, TagSel, Tuning, WinMemory,
};
use simclock::{SimDuration, SimTime};

/// Above the eager threshold, so transfers take the rendezvous path and
/// actually have wire time to hide.
const RDV: usize = 150_000;

fn seeded(spec: ClusterSpec) -> ClusterSpec {
    let mut spec = spec;
    if let Ok(seed) = std::env::var("REQUESTS_SEED") {
        spec.seed = seed.parse().expect("REQUESTS_SEED must be an integer");
    }
    spec
}

/// The message of a panic payload, as `panic!` produces them.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<not a panic! message>".into())
}

#[test]
fn wait_after_complete_is_idempotent() {
    let out = run(seeded(ClusterSpec::ringlet(2)), |r| {
        if r.rank() == 0 {
            let mut req = r.irecv(Source::Rank(1), TagSel::Value(3), 64).unwrap();
            let first = r.wait(&mut req).unwrap();
            let t_after_first = r.now();
            // Re-waiting returns the stored result without touching the
            // clock — like waiting an inactive MPI request.
            let second = r.wait(&mut req).unwrap();
            assert_eq!(first.data, second.data);
            assert_eq!(first.status.len, second.status.len);
            assert_eq!(r.now(), t_after_first, "re-wait must not charge time");
            // And `test` on a completed request stays complete, also free.
            let third = r.test(&mut req).expect("completed request tests Some");
            assert_eq!(third.unwrap().data, first.data);
            assert_eq!(r.now(), t_after_first);
            first.data
        } else {
            r.send(0, 3, &[7u8; 64]).unwrap();
            Vec::new()
        }
    });
    assert!(out[0].iter().all(|&b| b == 7));
}

#[test]
fn waitany_returns_earliest_virtual_completion() {
    run(seeded(ClusterSpec::ringlet(3)), |r| {
        if r.rank() == 0 {
            // Two receives: rank 2's small eager message drains long
            // before rank 1's rendezvous bulk. waitany must pick it
            // first regardless of posting order.
            let mut reqs = vec![
                r.irecv(Source::Rank(1), TagSel::Value(1), RDV).unwrap(),
                r.irecv(Source::Rank(2), TagSel::Value(2), 32).unwrap(),
            ];
            let (first, res) = r.waitany(&mut reqs);
            let done = res.unwrap();
            assert_eq!(first, 1, "the small eager message completes first");
            assert_eq!(done.status.src, 2);
            let (second, res) = r.waitany(&mut reqs);
            assert_eq!(second, 0);
            assert_eq!(res.unwrap().status.len, RDV);
        } else if r.rank() == 1 {
            r.send(0, 1, &vec![1u8; RDV]).unwrap();
        } else {
            r.send(0, 2, &[2u8; 32]).unwrap();
        }
    });
}

#[test]
fn persistent_restart_matches_fresh_requests() {
    // N iterations through persistent handles must be bit-identical in
    // virtual time to N fresh isend/irecv posts of the same arguments.
    let spec = || seeded(ClusterSpec::ringlet(2));
    let persistent = run(spec(), |r| {
        if r.rank() == 0 {
            let data = vec![9u8; RDV];
            let ps = r.send_init(1, 5, &data);
            for _ in 0..3 {
                let mut req = ps.start(r).unwrap();
                r.compute(SimDuration::from_us(500));
                r.wait(&mut req).unwrap();
            }
        } else {
            let pr = r.recv_init(Source::Rank(0), TagSel::Value(5), RDV);
            for _ in 0..3 {
                let mut req = pr.start(r).unwrap();
                r.compute(SimDuration::from_us(500));
                let done = r.wait(&mut req).unwrap();
                assert!(done.data.iter().all(|&b| b == 9));
            }
        }
        r.barrier();
        r.now()
    });
    let fresh = run(spec(), |r| {
        if r.rank() == 0 {
            let data = vec![9u8; RDV];
            for _ in 0..3 {
                let mut req = r.isend(1, 5, &data).unwrap();
                r.compute(SimDuration::from_us(500));
                r.wait(&mut req).unwrap();
            }
        } else {
            for _ in 0..3 {
                let mut req = r.irecv(Source::Rank(0), TagSel::Value(5), RDV).unwrap();
                r.compute(SimDuration::from_us(500));
                let done = r.wait(&mut req).unwrap();
                assert!(done.data.iter().all(|&b| b == 9));
            }
        }
        r.barrier();
        r.now()
    });
    assert_eq!(persistent, fresh, "persistent restart must cost the same");
}

/// A 4-rank ring-shift halo exchange (two messages to the right
/// neighbour, two received from the left — the unidirectional SCI
/// ringlet's natural pattern, keeping every pair's route link-disjoint
/// so contention stays order-free); `nonblocking` selects the arm.
/// Returns each rank's two received halos and finish time — the
/// payloads must match between arms bit for bit.
fn halo_exchange(spec: ClusterSpec, nonblocking: bool) -> Vec<(Vec<u8>, Vec<u8>, SimTime)> {
    run(spec, move |r| {
        let me = r.rank();
        let n = r.size();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let row_a: Vec<u8> = (0..RDV).map(|i| (me * 31 + i * 7) as u8).collect();
        let row_b: Vec<u8> = (0..RDV).map(|i| (me * 17 + i * 3) as u8).collect();
        let (got_a, got_b) = if nonblocking {
            let mut reqs = vec![
                r.irecv(Source::Rank(left), TagSel::Value(0), RDV).unwrap(),
                r.irecv(Source::Rank(left), TagSel::Value(1), RDV).unwrap(),
            ];
            let mut sreqs = vec![
                r.isend(right, 0, &row_a).unwrap(),
                r.isend(right, 1, &row_b).unwrap(),
            ];
            r.compute(SimDuration::from_ms(2));
            r.waitall(&mut sreqs).unwrap();
            let done = r.waitall(&mut reqs).unwrap();
            let mut it = done.into_iter();
            (it.next().unwrap().data, it.next().unwrap().data)
        } else {
            let mut got_a = vec![0u8; RDV];
            let mut got_b = vec![0u8; RDV];
            r.sendrecv(
                right,
                0,
                SendData::Bytes(&row_a),
                Source::Rank(left),
                TagSel::Value(0),
                RecvBuf::Bytes(&mut got_a),
            )
            .unwrap();
            r.sendrecv(
                right,
                1,
                SendData::Bytes(&row_b),
                Source::Rank(left),
                TagSel::Value(1),
                RecvBuf::Bytes(&mut got_b),
            )
            .unwrap();
            r.compute(SimDuration::from_ms(2));
            (got_a, got_b)
        };
        r.barrier();
        (got_a, got_b, r.now())
    })
}

/// The lossy EndToEnd halo scenario the three tests below share.
fn lossy_halo_spec() -> ClusterSpec {
    let mut spec = seeded(ClusterSpec::ringlet(4));
    spec.faults.corrupt_rate = 2e-4;
    spec.faults.drop_rate = 5e-5;
    spec.tuning(Tuning {
        integrity_mode: IntegrityMode::EndToEnd,
        max_retransmits: 64,
        ..Tuning::default()
    })
}

#[test]
fn nonblocking_delivers_blocking_payloads_under_end_to_end_integrity() {
    // Same payloads as the blocking arm, bit for bit, with CRC framing
    // verifying every byte and silent faults flipping bits underneath.
    let nb = halo_exchange(lossy_halo_spec(), true);
    let bl = halo_exchange(lossy_halo_spec(), false);
    for (rank, ((na, nb_, _), (ba, bb, _))) in nb.iter().zip(bl.iter()).enumerate() {
        assert_eq!(na, ba, "rank {rank} first halo differs between arms");
        assert_eq!(nb_, bb, "rank {rank} second halo differs between arms");
    }
}

// The two concurrent isends to one neighbour drain on separate engine
// tasks and draw from the injector's one per-pair fault stream; the
// scheduler makes those draws in dispatch order, so retransmit counts and
// finish times are a function of the seed alone.
#[test]
fn nonblocking_halo_is_deterministic_across_same_seed_runs() {
    let a = halo_exchange(lossy_halo_spec(), true);
    let b = halo_exchange(lossy_halo_spec(), true);
    assert_eq!(a, b, "same seed must give bit-identical times and bytes");
}

#[test]
fn iget_overlap_composes_with_integrity_checking() {
    // The clock-swap fork in iget must not disturb the one-sided epoch
    // ledger: bytes verified end-to-end, stall hidden behind compute.
    let spec = {
        let mut spec = seeded(ClusterSpec::ringlet(2));
        spec.faults.corrupt_rate = 1e-4;
        spec.tuning(Tuning {
            integrity_mode: IntegrityMode::EndToEnd,
            max_retransmits: 64,
            ..Tuning::default()
        })
    };
    run(spec, |r| {
        let mem = r.alloc_mem(4096).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        if r.rank() == 1 {
            win.write_local(r, 0, &[0x5Au8; 1024]);
        }
        win.fence(r).unwrap();
        if r.rank() == 0 {
            let mut req = win.iget(r, 1, 0, 1024).unwrap();
            let t0 = r.now();
            r.compute(SimDuration::from_ms(5));
            let got = r.wait(&mut req).unwrap();
            assert!(got.iter().all(|&b| b == 0x5A));
            assert_eq!(
                r.now() - t0,
                SimDuration::from_ms(5),
                "read stall must hide behind the compute"
            );
        }
        win.fence(r).unwrap();
    });
}

#[test]
fn request_counters_balance_and_overlap_is_credited() {
    let spec = seeded(ClusterSpec::ringlet(2)).obs(obs::ObsConfig::enabled());
    let (_, report) = run_report(spec, |r| {
        if r.rank() == 0 {
            let data = vec![8u8; RDV];
            let mut req = r.isend(1, 0, &data).unwrap();
            r.compute(SimDuration::from_ms(2));
            r.wait(&mut req).unwrap();
            // And one fire-and-forget, reaped at the barrier.
            let _ = r.isend(1, 1, &[1u8; 16]).unwrap();
        } else {
            let mut buf = vec![0u8; RDV];
            r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
            let mut small = [0u8; 16];
            r.recv(Source::Rank(0), TagSel::Value(1), &mut small)
                .unwrap();
        }
        r.barrier();
        assert_eq!(r.pending_requests(), 0, "all requests retired");
    });
    let posted = report.counters[obs::Counter::RequestsPosted];
    let completed = report.counters[obs::Counter::RequestsCompleted];
    let dropped = report.counters[obs::Counter::RequestsCompletedByDrop];
    assert_eq!(posted, 2);
    assert_eq!(completed, 2, "waited + dropped both count as completed");
    assert_eq!(dropped, 1);
    assert!(
        report.counters[obs::Counter::OverlapSavedNs] > 0,
        "hiding a rendezvous transfer behind 2 ms of compute saves time"
    );
}

/// A peer death detected by the engine must come back through `wait` as
/// an error value under `ErrorsReturn` — the engine only records it; the
/// rank's error mode is consulted at the sync point.
#[test]
fn wait_surfaces_engine_detected_peer_death() {
    let budget = death_delay();
    run(
        seeded(ClusterSpec::ringlet(2)).errors(ErrorMode::ErrorsReturn),
        move |r| {
            r.barrier();
            if r.rank() == 0 {
                r.fabric().faults().kill_node(1);
                let t0 = r.now();
                let data = vec![3u8; RDV];
                let mut req = r.isend(1, 9, &data).unwrap();
                let err = r
                    .wait(&mut req)
                    .expect_err("the rendezvous peer is dead: wait must escalate");
                assert_eq!(err, ScimpiError::PeerDead { peer: 1 });
                assert!(
                    r.now() - t0 >= budget,
                    "the engine's death schedule must be merged into the waiter"
                );
                r.fabric().faults().revive_node(1);
            }
            // Rank 1 idles (its node was dead); both meet at the barrier.
            r.barrier();
        },
    );
}

/// A *dropped* failing request must route its error through the rank's
/// error handler at reap time (under `ErrorsReturn`: counted and traced,
/// not silently swallowed in the drop bin).
#[test]
fn dropped_failing_request_routes_through_error_handler() {
    let spec = seeded(ClusterSpec::ringlet(2))
        .errors(ErrorMode::ErrorsReturn)
        .obs(obs::ObsConfig::enabled());
    let (_, report) = run_report(spec, |r| {
        r.barrier();
        if r.rank() == 0 {
            r.fabric().faults().kill_node(1);
            // Fire-and-forget to a corpse: the engine observes PeerDead,
            // the handle is dropped without ever being waited on.
            let data = vec![3u8; RDV];
            drop(r.isend(1, 9, &data).unwrap());
            r.fabric().faults().revive_node(1);
        }
        r.barrier(); // the barrier reaps the drop bin
        assert_eq!(r.pending_requests(), 0, "the dropped request is retired");
    });
    assert_eq!(
        report.counters[obs::Counter::RequestsCompletedByDrop],
        1,
        "the dropped request still completes through the drop bin"
    );
    assert!(
        report.events.iter().any(|e| e.name == "req.dropped_error"),
        "the dropped request's PeerDead must surface through the error handler trace"
    );
}

/// A post that returns `Err` leaves nothing in flight: with the peer dead
/// and its eager credits used up, the refused `isend` must not keep the
/// in-flight slot `account_post` gave it.
#[test]
fn refused_isend_leaves_nothing_in_flight() {
    let spec = seeded(ClusterSpec::ringlet(2))
        .errors(ErrorMode::ErrorsReturn)
        .obs(obs::ObsConfig::enabled());
    let (_, report) = run_report(spec, |r| {
        r.barrier();
        if r.rank() == 0 {
            r.fabric().faults().kill_node(1);
            let mut kept = Vec::new();
            let refused = loop {
                match r.isend(1, 0, &[7u8; 4096]) {
                    Ok(req) => kept.push(req),
                    Err(e) => break e,
                }
                assert!(kept.len() < 10_000, "the credits never ran out");
            };
            assert_eq!(refused, ScimpiError::PeerDead { peer: 1 });
            assert!(!kept.is_empty());
            assert_eq!(r.pending_requests(), kept.len(), "the refused post");
            r.waitall(&mut kept).unwrap();
            assert_eq!(r.pending_requests(), 0);
            r.fabric().faults().revive_node(1);
        }
        r.barrier();
    });
    assert_eq!(
        report.counters[obs::Counter::RequestsPosted],
        report.counters[obs::Counter::RequestsCompleted],
        "a refused post counts as posted and completed"
    );
}

/// Under `ErrorsAreFatal` the engine task that finds the rendezvous peer
/// dead panics on a pool worker. The run must end with that panic — not
/// with the `Aborted` sentinel the other tasks unwind with, not hung.
#[test]
fn fatal_engine_error_comes_out_of_run_as_the_original_panic() {
    let spec = seeded(ClusterSpec::ringlet(2));
    let outcome = std::panic::catch_unwind(|| {
        run(spec, |r| {
            r.barrier();
            if r.rank() == 0 {
                r.fabric().faults().kill_node(1);
                let mut req = r.isend(1, 9, &vec![3u8; RDV]).unwrap();
                let _ = r.wait(&mut req);
                unreachable!("the engine's panic aborts the run inside wait");
            }
            r.barrier();
        })
    });
    let message = panic_message(&*outcome.expect_err("the run must panic"));
    assert!(
        message.starts_with("fatal communication error"),
        "got {message:?}"
    );
}

/// A request dropped while its rank unwinds from an unrelated panic must
/// not panic again (that would abort the process): the drop detaches and
/// the abort broadcast retires the pooled engine task.
#[test]
fn request_dropped_during_unwind_does_not_double_panic() {
    let spec = seeded(ClusterSpec::ringlet(2));
    let outcome = std::panic::catch_unwind(|| {
        run(spec, |r| {
            if r.rank() == 0 {
                // Never matched: the engine task is parked when we unwind.
                let _req = r.irecv(Source::Rank(1), TagSel::Value(1), RDV).unwrap();
                panic!("unrelated failure");
            }
            r.barrier();
        })
    });
    let message = panic_message(&*outcome.expect_err("the run must panic"));
    assert_eq!(message, "unrelated failure");
}

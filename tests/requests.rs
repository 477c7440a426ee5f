//! Integration tests for the nonblocking request engine: completion
//! idempotence, waitany ordering, persistent-request timing, overlap
//! accounting, and — the load-bearing property — bit-identical behaviour
//! vs the blocking verbs under end-to-end integrity checking and silent
//! fault injection. CI sweeps `REQUESTS_SEED` over several values.

use mpi_datatype::{Committed, Datatype};
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

/// An eager `irecv` posted before its sender's node dies: under
/// `ErrorsReturn`, `wait` returns `PeerDead` at the receive's own death
/// schedule — the post time plus `death_delay`, however long the rank
/// computed before waiting.
#[test]
fn an_irecv_posted_before_its_sender_dies_returns_peer_dead_at_wait() {
    run(
        seeded(ClusterSpec::ringlet(2)).errors(ErrorMode::ErrorsReturn),
        |r| {
            r.barrier();
            if r.rank() == 0 {
                let posted = r.now();
                let mut req = r.irecv(Source::Rank(1), TagSel::Value(0), 64).unwrap();
                r.fabric().faults().kill_node(1);
                r.compute(SimDuration::from_us(100));
                let err = r.wait(&mut req).expect_err("the sender is dead");
                assert_eq!(err, ScimpiError::PeerDead { peer: 1 });
                assert_eq!(r.now(), posted + death_delay());
                r.fabric().faults().revive_node(1);
            }
            r.barrier();
        },
    );
}

/// A *dropped* failing request must route its error through the rank's
/// error handler at reap time (under `ErrorsReturn`: counted and traced,
/// not silently swallowed in the drop bin).
#[test]
fn dropped_failing_request_routes_through_error_handler() {
    // Only a run that writes a trace file keeps its events.
    let trace = std::env::temp_dir().join(format!("scimpi_dropped_{}.json", std::process::id()));
    let spec = seeded(ClusterSpec::ringlet(2))
        .errors(ErrorMode::ErrorsReturn)
        .obs(obs::ObsConfig::with_trace(&trace));
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
    let _ = std::fs::remove_file(&trace);
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

/// One eager message from the other rank of a two-node ringlet to
/// `receiver`, through `irecv` + `wait`: the receive's result, the
/// receiver's finish time and the run's peak live task count. Rank 0
/// runs first at equal virtual times, so receiver 1 posts after the
/// message is queued and receiver 0 posts before it is sent. The
/// closing barrier keeps the sender live while the receive runs.
fn eager_irecv(receiver: usize) -> (scimpi::RecvDone, SimTime, usize) {
    let (mut out, report) = run_report(seeded(ClusterSpec::ringlet(2)), move |r| {
        let peer = 1 - r.rank();
        if r.rank() != receiver {
            r.send(peer, 7, &[0x5Au8; 4096]).unwrap();
            r.barrier();
            return None;
        }
        let mut req = r.irecv(Source::Rank(peer), TagSel::Value(7), 8192).unwrap();
        let done = r.wait(&mut req).unwrap();
        let finish = r.now();
        r.barrier();
        Some((done, finish))
    });
    let (done, finish) = out.swap_remove(receiver).expect("the receiver's result");
    let stats = report.event_stats.expect("scheduler statistics");
    (done, finish, stats.tasks_high_water)
}

/// An eager `irecv` needs no engine task whichever comes first: one
/// that finds its message queued completes at post, one posted before
/// the message is completed by the send. Both return the same result at
/// the same time. The ringlet is symmetric, so the two directions cost
/// the same.
#[test]
fn an_eager_irecv_needs_no_engine_posted_before_or_after_its_message() {
    let (after, after_finish, after_tasks) = eager_irecv(1);
    let (before, before_finish, before_tasks) = eager_irecv(0);
    assert_eq!((after.status.src, before.status.src), (0, 1));
    assert_eq!(after.status.tag, before.status.tag);
    assert_eq!(after.status.len, before.status.len);
    assert_eq!(after.data, before.data);
    assert_eq!(after.data, vec![0x5A; 4096]);
    assert_eq!(after_finish, before_finish, "same finish time either way");
    assert_eq!(after_tasks, 2, "posted after: only the two ranks were live");
    assert_eq!(
        before_tasks, 2,
        "posted before: only the two ranks were live"
    );
}

/// A contiguous receive shorter than its message (`MPI_ERR_TRUNCATE`),
/// for an eager and a rendezvous message, by `recv` and by `irecv`,
/// posted before the message and after: the buffer takes what fits, and
/// the receive fails with `InvalidArg` through the receiver's error
/// handler — at return for `recv`, at `wait` for `irecv`. The sender
/// completes, and the pair carries the next message intact.
#[test]
fn a_receive_shorter_than_its_message_fails_with_invalid_arg() {
    for len in [4096, RDV] {
        let msg: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
        // Rank 0 runs first at equal virtual times: receiver 0 posts
        // before the message is sent, receiver 1 after it is queued.
        for receiver in [0, 1] {
            for nonblocking in [false, true] {
                let case = format!("len {len}, receiver {receiver}, nonblocking {nonblocking}");
                let sent = msg.clone();
                let mut out = run(
                    seeded(ClusterSpec::ringlet(2)).errors(ErrorMode::ErrorsReturn),
                    move |r| {
                        let peer = 1 - r.rank();
                        if r.rank() != receiver {
                            r.send(peer, 0, &sent).unwrap();
                            r.send(peer, 1, &sent).unwrap();
                            return None;
                        }
                        let (from, short) = (Source::Rank(peer), len / 2);
                        let (err, landed) = if nonblocking {
                            let mut req = r.irecv(from, TagSel::Value(0), short).unwrap();
                            (r.wait(&mut req).unwrap_err(), None)
                        } else {
                            let mut buf = vec![0u8; short];
                            let err = r.recv(from, TagSel::Value(0), &mut buf).unwrap_err();
                            (err, Some(buf))
                        };
                        let mut next = vec![0u8; len];
                        r.recv(from, TagSel::Value(1), &mut next).unwrap();
                        Some((err, landed, next == sent))
                    },
                );
                let (err, landed, next_intact) = out.swap_remove(receiver).unwrap();
                let want = ScimpiError::InvalidArg {
                    what: "receive buffer",
                    got: len,
                    limit: len / 2,
                };
                assert_eq!(err, want, "{case}");
                if let Some(landed) = landed {
                    assert_eq!(landed, msg[..len / 2], "{case}: what fits lands");
                }
                assert!(next_intact, "{case}: the next message");
            }
        }
    }
}

/// A typed receive whose layout holds less than its message
/// (`MPI_ERR_TRUNCATE`), for an eager and a rendezvous message, by
/// `recv_typed` and by `irecv_typed`, posted before the message and
/// after: the layout takes what fits and the receive fails with
/// `InvalidArg`, like a contiguous one. The pair then carries the next
/// message intact.
#[test]
fn a_typed_receive_shorter_than_its_message_fails_with_invalid_arg() {
    let eight = Committed::commit(&Datatype::contiguous(8, &Datatype::byte()));
    for len in [64, 4096, RDV] {
        let msg: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
        for receiver in [0, 1] {
            for nonblocking in [false, true] {
                let case = format!("len {len}, receiver {receiver}, nonblocking {nonblocking}");
                let (sent, eight) = (msg.clone(), eight.clone());
                let mut out = run(
                    seeded(ClusterSpec::ringlet(2)).errors(ErrorMode::ErrorsReturn),
                    move |r| {
                        let peer = 1 - r.rank();
                        if r.rank() != receiver {
                            r.send(peer, 0, &sent).unwrap();
                            r.send(peer, 1, &sent).unwrap();
                            return None;
                        }
                        // Half the message: len / 16 instances of 8 bytes.
                        let (from, count) = (Source::Rank(peer), len / 16);
                        let (err, landed) = if nonblocking {
                            let mut req = r.irecv_typed(from, TagSel::Value(0), &eight, count);
                            (r.wait(req.as_mut().unwrap()).unwrap_err(), None)
                        } else {
                            let mut buf = vec![0u8; len / 2];
                            let tag = TagSel::Value(0);
                            let got = r.recv_typed(from, tag, &eight, count, &mut buf, 0);
                            (got.unwrap_err(), Some(buf))
                        };
                        let mut next = vec![0u8; len];
                        r.recv(from, TagSel::Value(1), &mut next).unwrap();
                        Some((err, landed, next == sent))
                    },
                );
                let (err, landed, next_intact) = out.swap_remove(receiver).unwrap();
                let want = ScimpiError::InvalidArg {
                    what: "receive buffer",
                    got: len,
                    limit: len / 2,
                };
                assert_eq!(err, want, "{case}");
                if let Some(landed) = landed {
                    assert_eq!(landed, msg[..len / 2], "{case}: what fits lands");
                }
                assert!(next_intact, "{case}: the next message");
            }
        }
    }
}

/// A truncated receive is charged what a receive of the buffer's length
/// is: receiving a queued 4 KiB message into 2 KiB takes as long as
/// receiving a queued 2 KiB message, into a contiguous buffer and into a
/// typed layout alike.
#[test]
fn a_truncated_receive_is_charged_for_what_fits() {
    let eight = Committed::commit(&Datatype::contiguous(8, &Datatype::byte()));
    for typed in [false, true] {
        let eight = eight.clone();
        let out = run(
            seeded(ClusterSpec::ringlet(2)).errors(ErrorMode::ErrorsReturn),
            move |r| {
                if r.rank() == 0 {
                    r.send(1, 0, &[1u8; 4096]).unwrap();
                    r.send(1, 1, &[2u8; 2048]).unwrap();
                    return Vec::new();
                }
                r.compute(SimDuration::from_ms(1));
                let mut buf = [0u8; 2048];
                (0..2)
                    .map(|tag| {
                        let (t0, from, tag) = (r.now(), Source::Rank(0), TagSel::Value(tag));
                        let _ = if typed {
                            r.recv_typed(from, tag, &eight, 256, &mut buf, 0)
                        } else {
                            r.recv(from, tag, &mut buf)
                        };
                        r.now() - t0
                    })
                    .collect()
            },
        );
        assert_eq!(out[1][0], out[1][1], "typed {typed}: truncated vs exact");
    }
}

/// An `irecv` that claims a rendezvous RTS at post hands it to an
/// engine, which keeps progressing while the rank sits in a barrier the
/// blocking sender cannot reach before the transfer is done (MPI's
/// progress rule).
#[test]
fn an_rts_claimed_at_post_progresses_while_its_rank_is_in_a_barrier() {
    let out = run(seeded(ClusterSpec::ringlet(2)), |r| {
        if r.rank() == 0 {
            // Runs first: the RTS is queued before rank 1 posts.
            r.send(1, 4, &vec![0x3Cu8; RDV]).unwrap();
            r.barrier();
            return Vec::new();
        }
        let mut req = r.irecv(Source::Rank(0), TagSel::Value(4), RDV).unwrap();
        r.barrier();
        r.wait(&mut req).unwrap().data
    });
    assert_eq!(out[1], vec![0x3C; RDV]);
}

/// `irecv_typed` claims at post at the virtual time the engine's match
/// ran, after the layout resolve — the time the peak-backlog gauge logs
/// the message leaving the queue. Message B lands exactly when the
/// receive of A is posted, so A and B are queued together for the
/// resolve cost; a claim logged at post time would read a peak of 1.
#[test]
fn irecv_typed_claims_after_the_layout_resolve() {
    let sender = |r: &mut scimpi::Rank| {
        r.send(1, 1, &[1u8; 64]).unwrap(); // A
        r.send(1, 2, &[2u8; 64]).unwrap(); // B
    };
    // B's arrival time: a receive posted before B lands ends one
    // control-receive cost after it, and a receive of the long-queued A
    // measures that cost.
    let calibration = run(seeded(ClusterSpec::ringlet(2)), move |r| {
        if r.rank() == 0 {
            sender(r);
            return SimDuration::ZERO;
        }
        let mut buf = [0u8; 64];
        r.recv(Source::Rank(0), TagSel::Value(2), &mut buf).unwrap();
        let b_done = r.now() - SimTime::ZERO;
        let long_after = r.now() + SimDuration::from_ms(1);
        r.compute(SimDuration::from_ms(1));
        r.recv(Source::Rank(0), TagSel::Value(1), &mut buf).unwrap();
        b_done - (r.now() - long_after)
    });
    let b_arrival = calibration[1];
    let c = Committed::commit(&Datatype::contiguous(64, &Datatype::byte()));
    for blocking in [false, true] {
        let spec = seeded(ClusterSpec::ringlet(2)).obs(obs::ObsConfig::enabled());
        let c = c.clone();
        let (_, report) = run_report(spec, move |r| {
            if r.rank() == 0 {
                return sender(r);
            }
            r.compute(b_arrival);
            let (src, tag) = (Source::Rank(0), TagSel::Value(1));
            if blocking {
                let mut buf = [0u8; 64];
                r.recv_typed(src, tag, &c, 1, &mut buf, 0).unwrap();
            } else {
                let mut req = r.irecv_typed(src, tag, &c, 1).unwrap();
                r.wait(&mut req).unwrap();
            }
            r.recv(Source::Rank(0), TagSel::Value(2), &mut [0u8; 64])
                .unwrap();
        });
        let peak = report.peak_backlogs.iter().find(|p| p.rank == 1);
        assert_eq!(peak.map(|p| p.msgs), Some(2), "blocking {blocking}");
    }
}

/// `irecv_typed` lands a type whose lower bound is not 0 where a
/// blocking `recv_typed` into the smallest buffer holding displacement 0
/// and the typed bytes does: displacement 0 at byte `max(-lb, 0)`.
#[test]
fn irecv_typed_places_a_nonzero_lower_bound_like_recv_typed() {
    let mut landed = [0u8; 16];
    landed[8..].fill(0xC3);
    // (displacement of the one 8-byte block, the data irecv_typed returns)
    for (disp, want) in [(8i64, &landed[..]), (-8, &landed[8..])] {
        let c = Committed::commit(&Datatype::hindexed(&[(8, disp)], &Datatype::byte()));
        let out = run(seeded(ClusterSpec::ringlet(2)), move |r| {
            if r.rank() == 0 {
                r.send(1, 0, &[0xC3; 8]).unwrap();
                r.send(1, 1, &[0xC3; 8]).unwrap();
                return (Vec::new(), Vec::new());
            }
            let mut req = r
                .irecv_typed(Source::Rank(0), TagSel::Value(0), &c, 1)
                .unwrap();
            let got = r.wait(&mut req).unwrap().data;
            let origin = (-disp).max(0) as usize;
            let mut blocking = vec![0u8; got.len()];
            r.recv_typed(
                Source::Rank(0),
                TagSel::Value(1),
                &c,
                1,
                &mut blocking,
                origin,
            )
            .unwrap();
            (got, blocking)
        });
        let (got, blocking) = &out[1];
        assert_eq!(got, want, "lb {disp}");
        assert_eq!(got, blocking, "lb {disp}");
    }
}

/// A typed receive of zero instances returns no bytes, as promised by
/// `c.extent() * count`.
#[test]
fn irecv_typed_of_zero_instances_returns_no_bytes() {
    let c = Committed::commit(&Datatype::vector(2, 4, 8, &Datatype::byte()));
    let out = run(seeded(ClusterSpec::ringlet(2)), move |r| {
        if r.rank() == 0 {
            r.send(1, 0, &[]).unwrap();
            return Vec::new();
        }
        let mut req = r
            .irecv_typed(Source::Rank(0), TagSel::Value(0), &c, 0)
            .unwrap();
        let done = r.wait(&mut req).unwrap();
        assert_eq!(done.status.len, 0);
        done.data
    });
    assert!(out[1].is_empty(), "got {} bytes", out[1].len());
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

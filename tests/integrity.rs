//! End-to-end data-integrity integration tests: silent fault injection
//! (bit flips and dropped stores drawn from deterministic per-pair RNG
//! streams) against the three [`IntegrityMode`]s.
//!
//! - `Off` — faults land; payloads observably corrupt; the
//!   `UndetectedAtOff` counter records what a checksummed stack would
//!   have caught.
//! - `SequenceCheck` — the SISCI `SCIStartSequence`/`SCICheckSequence`
//!   guard detects PIO-path corruption and surfaces `DataCorruption`
//!   through the error-handler machinery; it never repairs.
//! - `EndToEnd` — CRC32-framed protocols with bounded retransmission
//!   deliver bit-identical payloads on every p2p, collective, and
//!   one-sided path.

mod cells;

use sci_fabric::FaultConfig;
use scimpi::{
    run, run_report, AccumulateOp, ClusterSpec, ErrorMode, IntegrityMode, ScimpiError, Source,
    TagSel, Tuning, WinMemory,
};

/// Every test runs once per seed: the fault streams under several RNGs
/// (the assertions themselves are seed-independent). The first is the
/// seed the recorded failure counts below hold at.
const SEEDS: [u64; 4] = [20020415, 1, 7, 42];

/// A ringlet with silent faults at the given rates and a retransmission
/// budget generous enough that `EndToEnd` delivery never exhausts it at
/// the rates used here.
fn lossy_spec(
    seed: u64,
    ranks: usize,
    mode: IntegrityMode,
    corrupt: f64,
    drop: f64,
) -> ClusterSpec {
    let tuning = Tuning {
        integrity_mode: mode,
        max_retransmits: 64,
        ..Tuning::default()
    };
    let mut spec = ClusterSpec::ringlet(ranks).tuning(tuning);
    spec.faults = FaultConfig::silent(corrupt, drop);
    spec.seed = seed;
    spec
}

/// `EndToEnd` delivers bit-identical payloads over a lossy fabric on both
/// p2p protocols: eager (sender-verified delivery) and rendezvous
/// (per-chunk CRC handshake with retransmission).
#[test]
fn end_to_end_delivers_bit_identical_p2p() {
    cells::each(&SEEDS, |seed| {
        let spec =
            lossy_spec(seed, 2, IntegrityMode::EndToEnd, 3e-4, 1e-4).obs(obs::ObsConfig::enabled());
        let eager: Vec<u8> = (0..4096).map(|i| (i * 13) as u8).collect();
        let large: Vec<u8> = (0..600_000).map(|i| (i * 31) as u8).collect();
        let (_, report) = run_report(spec, move |r| {
            if r.rank() == 0 {
                r.send(1, 1, &eager).unwrap();
                r.send(1, 2, &large).unwrap();
            } else {
                let mut a = vec![0u8; eager.len()];
                r.recv(Source::Rank(0), TagSel::Value(1), &mut a).unwrap();
                assert_eq!(a, eager, "eager payload must be bit-identical");
                let mut b = vec![0u8; large.len()];
                r.recv(Source::Rank(0), TagSel::Value(2), &mut b).unwrap();
                assert_eq!(b, large, "rendezvous payload must be bit-identical");
            }
        });
        assert!(
            report.counters[obs::Counter::CorruptionsInjected] > 0,
            "the fault streams must actually have injected corruption"
        );
        assert!(
            report.counters[obs::Counter::CorruptionsDetected] > 0,
            "every injected fault on a checked path must be detected"
        );
        assert_eq!(
            report.counters[obs::Counter::UndetectedAtOff],
            0,
            "EndToEnd leaves no path uncovered"
        );
    });
}

/// Collectives ride the p2p layer, so `EndToEnd` covers every hop of the
/// broadcast tree with no collective-specific code.
#[test]
fn end_to_end_collective_delivers() {
    cells::each(&SEEDS, |seed| {
        let spec = lossy_spec(seed, 4, IntegrityMode::EndToEnd, 3e-4, 1e-4);
        let expect: Vec<u8> = (0..100_000).map(|i| (i * 17) as u8).collect();
        run(spec, move |r| {
            let mut buf = if r.rank() == 0 {
                expect.clone()
            } else {
                vec![0u8; expect.len()]
            };
            r.bcast(0, &mut buf).unwrap();
            assert_eq!(buf, expect, "bcast must be bit-identical on every rank");
        });
    });
}

/// Every one-sided path — direct put (epoch-verified at the fence),
/// direct and remote-put gets, read-modify-write accumulate, and the
/// emulated path of a private window — delivers exactly under faults.
#[test]
fn end_to_end_one_sided_paths_deliver() {
    cells::each(&SEEDS, |seed| {
        let spec = lossy_spec(seed, 2, IntegrityMode::EndToEnd, 3e-4, 1e-4);
        run(spec, |r| {
            let mem = r.alloc_mem(1 << 16).unwrap();
            let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
            win.fence(r).unwrap();
            let pat: Vec<u8> = (0..32_768).map(|i| (i * 7) as u8).collect();
            if r.rank() == 0 {
                win.put(r, 1, 0, &pat).unwrap();
            }
            win.fence(r).unwrap();
            if r.rank() == 1 {
                let mut got = vec![0u8; pat.len()];
                win.read_local(r, 0, &mut got);
                assert_eq!(got, pat, "direct put must survive epoch verification");
            }
            win.fence(r).unwrap();
            // Gets: small rides the direct read, large the remote-put
            // conversion; both returns are integrity-checked.
            if r.rank() == 0 {
                let mut small = [0u8; 64];
                win.get(r, 1, 0, &mut small).unwrap();
                assert_eq!(&small[..], &pat[..64], "direct get must be exact");
                let mut big = vec![0u8; 4096];
                win.get(r, 1, 0, &mut big).unwrap();
                assert_eq!(big, pat[..4096], "remote-put get must be exact");
            }
            win.fence(r).unwrap();
            // Ordered accumulates within one epoch: the ledger keeps only the
            // final image per region, and the combine stays exact.
            let ones: Vec<u8> = (0..8i64).flat_map(|i| (i + 1).to_le_bytes()).collect();
            if r.rank() == 0 {
                win.accumulate(r, 1, 0, AccumulateOp::Replace, &[0u8; 64])
                    .unwrap();
                win.accumulate(r, 1, 0, AccumulateOp::SumI64, &ones)
                    .unwrap();
                win.accumulate(r, 1, 0, AccumulateOp::SumI64, &ones)
                    .unwrap();
            }
            win.fence(r).unwrap();
            if r.rank() == 1 {
                let mut got = [0u8; 64];
                win.read_local(r, 0, &mut got);
                for i in 0..8usize {
                    let v = i64::from_le_bytes(got[i * 8..i * 8 + 8].try_into().unwrap());
                    assert_eq!(v, 2 * (i as i64 + 1), "accumulate must be exact");
                }
            }
            win.fence(r).unwrap();
            // Private window: the one-sided emulation packet path.
            let mut priv_win = r.win_create(WinMemory::Private(8192)).unwrap();
            priv_win.fence(r).unwrap();
            if r.rank() == 0 {
                priv_win.put(r, 1, 16, &pat[..4096]).unwrap();
            }
            priv_win.fence(r).unwrap();
            if r.rank() == 1 {
                let mut got = vec![0u8; 4096];
                priv_win.read_local(r, 16, &mut got);
                assert_eq!(got, pat[..4096], "emulated put must be bit-identical");
            }
            priv_win.fence(r).unwrap();
        });
    });
}

/// With integrity off, faults land silently: payloads observably differ
/// and the `UndetectedAtOff` counter records the exposure.
#[test]
fn off_mode_observably_corrupts() {
    cells::each(&SEEDS, |seed| {
        let spec = lossy_spec(seed, 2, IntegrityMode::Off, 1.0, 0.0).obs(obs::ObsConfig::enabled());
        let payload: Vec<u8> = (0..4096).map(|i| (i * 11) as u8).collect();
        let (_, report) = run_report(spec, move |r| {
            let mem = r.alloc_mem(8192).unwrap();
            let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
            win.fence(r).unwrap();
            if r.rank() == 0 {
                r.send(1, 1, &payload).unwrap();
                win.put(r, 1, 0, &[0xAB; 2048]).unwrap();
            } else {
                let mut buf = vec![0u8; payload.len()];
                r.recv(Source::Rank(0), TagSel::Value(1), &mut buf).unwrap();
                assert_ne!(buf, payload, "Off must deliver the corrupted eager bytes");
            }
            win.fence(r).unwrap();
            if r.rank() == 1 {
                let mut local = [0u8; 2048];
                win.read_local(r, 0, &mut local);
                assert_ne!(
                    local[..],
                    [0xABu8; 2048][..],
                    "Off must land corrupted puts"
                );
            }
            win.fence(r).unwrap();
        });
        assert!(
            report.counters[obs::Counter::CorruptionsInjected] > 0,
            "rate 1.0 must inject"
        );
        assert!(
            report.counters[obs::Counter::UndetectedAtOff] > 0,
            "Off-mode faults must be counted as uncovered"
        );
        assert_eq!(
            report.counters[obs::Counter::Retransmits],
            0,
            "Off never retransmits"
        );
    });
}

/// `SequenceCheck` detects and errors — never repairs: the eager bracket
/// trips at the sender, the rendezvous guard aborts the transfer at both
/// ends, and the one-sided epoch guard trips at the fence.
#[test]
fn sequence_check_detects_and_errors() {
    cells::each(&SEEDS, |seed| {
        let spec = lossy_spec(seed, 2, IntegrityMode::SequenceCheck, 1.0, 0.0)
            .errors(ErrorMode::ErrorsReturn)
            .obs(obs::ObsConfig::enabled());
        let (_, report) = run_report(spec, |r| {
            // Eager: the sender's sequence bracket catches the flipped burst
            // before posting; nothing is delivered.
            if r.rank() == 0 {
                let err = r
                    .send(1, 1, &[1u8; 4096][..])
                    .expect_err("eager corruption must be detected");
                assert!(matches!(err, ScimpiError::DataCorruption { .. }), "{err}");
            }
            r.barrier();
            // Rendezvous: the sender aborts the chunk stream; the receiver
            // translates the abort into the same error.
            let big = vec![2u8; 200_000];
            if r.rank() == 0 {
                let err = r
                    .send(1, 2, &big)
                    .expect_err("rendezvous corruption must be detected");
                assert!(matches!(err, ScimpiError::DataCorruption { .. }), "{err}");
            } else {
                let mut buf = vec![0u8; big.len()];
                let err = r
                    .recv(Source::Rank(0), TagSel::Value(2), &mut buf)
                    .expect_err("the abort must reach the receiver");
                assert!(matches!(err, ScimpiError::DataCorruption { .. }), "{err}");
            }
            r.barrier();
            // One-sided: the put lands unchecked; the guard trips at the
            // synchronisation, after the collective part has completed (no
            // deadlocked peers).
            let mem = r.alloc_mem(4096).unwrap();
            let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
            win.fence(r).expect("empty epoch");
            if r.rank() == 0 {
                win.put(r, 1, 0, &[7u8; 1024])
                    .expect("detection happens at the fence, not the put");
                let err = win
                    .fence(r)
                    .expect_err("the epoch sequence guard must trip");
                assert!(matches!(err, ScimpiError::DataCorruption { .. }), "{err}");
            } else {
                win.fence(r).expect("no accesses, no taint");
            }
            r.barrier();
        });
        assert!(report.counters[obs::Counter::CorruptionsDetected] > 0);
        assert_eq!(
            report.counters[obs::Counter::Retransmits],
            0,
            "SequenceCheck detects but never repairs"
        );
    });
}

/// At fault rate zero, `EndToEnd` is pure overhead: no injections, no
/// detections, and — the contract the bench relies on — zero retransmits.
#[test]
fn zero_fault_rate_end_to_end_never_retransmits() {
    cells::each(&SEEDS, |seed| {
        let spec =
            lossy_spec(seed, 2, IntegrityMode::EndToEnd, 0.0, 0.0).obs(obs::ObsConfig::enabled());
        let (_, report) = run_report(spec, |r| {
            let mem = r.alloc_mem(8192).unwrap();
            let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
            win.fence(r).unwrap();
            if r.rank() == 0 {
                r.send(1, 1, &[3u8; 4096]).unwrap();
                r.send(1, 2, &vec![4u8; 100_000]).unwrap();
                win.put(r, 1, 0, &[5u8; 2048]).unwrap();
            } else {
                let mut a = [0u8; 4096];
                r.recv(Source::Rank(0), TagSel::Value(1), &mut a).unwrap();
                let mut b = vec![0u8; 100_000];
                r.recv(Source::Rank(0), TagSel::Value(2), &mut b).unwrap();
            }
            win.fence(r).unwrap();
        });
        assert_eq!(report.counters[obs::Counter::CorruptionsInjected], 0);
        assert_eq!(report.counters[obs::Counter::CorruptionsDetected], 0);
        assert_eq!(report.counters[obs::Counter::Retransmits], 0);
        assert_eq!(report.counters[obs::Counter::UndetectedAtOff], 0);
    });
}

/// Identical seeds give identical virtual-time traces even while faults
/// are injected, detected, and retransmitted.
#[test]
fn lossy_end_to_end_is_deterministic() {
    cells::each(&SEEDS, |seed| {
        let payload: Vec<u8> = (0..150_000).map(|i| (i * 3) as u8).collect();
        let scenario = |payload: Vec<u8>| {
            run(
                lossy_spec(seed, 2, IntegrityMode::EndToEnd, 3e-4, 1e-4),
                move |r| {
                    let mut digest = 0u64;
                    if r.rank() == 0 {
                        r.send(1, 9, &payload).unwrap();
                    } else {
                        let mut buf = vec![0u8; payload.len()];
                        r.recv(Source::Rank(0), TagSel::Value(9), &mut buf).unwrap();
                        digest = buf.iter().map(|&b| u64::from(b)).sum();
                    }
                    r.barrier();
                    (r.now(), digest)
                },
            )
        };
        let a = scenario(payload.clone());
        let b = scenario(payload);
        assert_eq!(a, b, "same seed ⇒ same virtual-time trace, same payloads");
    });
}

/// The seed the failure counts below were recorded at.
const FAILURE_SEED: u64 = SEEDS[0];

/// Two ranks under `ErrorsReturn` on a fabric that flips bits at
/// `corrupt` per 64-byte transaction, with a budget that fails a
/// transfer at its first detection: `SequenceCheck`, or `EndToEnd` with
/// no retransmission.
fn failing_spec(seed: u64, mode: IntegrityMode, corrupt: f64) -> ClusterSpec {
    let tuning = Tuning {
        integrity_mode: mode,
        max_retransmits: 0,
        eager_credit_slots: 4,
        ..Tuning::default()
    };
    ClusterSpec::ringlet(2)
        .tuning(tuning)
        .errors(ErrorMode::ErrorsReturn)
        .faults(FaultConfig::silent(corrupt, 0.0))
        .seed(seed)
}

/// Rank 0 sends 40 eager messages of 1 KiB over four credit slots, then
/// an 8-byte terminator until one arrives; rank 1 receives until it sees
/// the terminator. Every failed send must give its credits back: nothing
/// was delivered, so no grant will ever return them, and a pair that
/// kept them would stall its next send for good. Returns (sent, failed)
/// and what rank 1 received.
fn failed_eager_sends(seed: u64, mode: IntegrityMode) -> ((usize, usize), usize) {
    let payload: Vec<u8> = (0..1024).map(|i| (i * 7) as u8).collect();
    let out = run(failing_spec(seed, mode, 0.02), move |r| {
        if r.rank() == 0 {
            let (mut sent, mut failed) = (0, 0);
            for _ in 0..40 {
                match r.send(1, 1, &payload) {
                    Ok(()) => sent += 1,
                    Err(ScimpiError::DataCorruption { .. }) => failed += 1,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            while r.send(1, 2, &[0xEE; 8]).is_err() {}
            (sent, failed)
        } else {
            let mut received = 0;
            let mut buf = vec![0u8; payload.len()];
            loop {
                let st = r.recv(Source::Rank(0), TagSel::Any, &mut buf).unwrap();
                if st.tag == 2 {
                    break (received, 0);
                }
                assert_eq!(buf, payload, "a delivered eager message is intact");
                received += 1;
            }
        }
    });
    let ((sent, failed), (received, _)) = (out[0], out[1]);
    assert_eq!(sent + failed, 40);
    assert_eq!(received, sent, "every delivered message is received");
    ((sent, failed), received)
}

#[test]
fn failed_eager_sends_return_their_credits_under_sequence_check() {
    cells::each(&SEEDS, |seed| {
        let got = failed_eager_sends(seed, IntegrityMode::SequenceCheck);
        if seed == FAILURE_SEED {
            assert_eq!(got, ((29, 11), 29));
        }
    });
}

#[test]
fn failed_eager_sends_return_their_credits_under_end_to_end() {
    cells::each(&SEEDS, |seed| {
        let got = failed_eager_sends(seed, IntegrityMode::EndToEnd);
        if seed == FAILURE_SEED {
            assert_eq!(got, ((29, 11), 29));
        }
    });
}

/// 24 rendezvous transfers of 100 000 B, each sent and received once.
/// An aborted transfer must give its ring slot back: the pair has two,
/// and a sender that kept them would wait for a free slot for good.
/// Returns (ok, failed) per rank.
fn aborted_rendezvous(seed: u64, mode: IntegrityMode) -> Vec<(usize, usize)> {
    let payload: Vec<u8> = (0..100_000).map(|i| (i * 31) as u8).collect();
    let out = run(failing_spec(seed, mode, 5e-4), move |r| {
        let (mut ok, mut failed) = (0, 0);
        let mut buf = vec![0u8; payload.len()];
        for _ in 0..24 {
            let res = if r.rank() == 0 {
                r.send(1, 1, &payload)
            } else {
                r.recv(Source::Rank(0), TagSel::Value(1), &mut buf)
                    .map(|_| assert_eq!(buf, payload, "a delivered transfer is intact"))
            };
            match res {
                Ok(()) => ok += 1,
                Err(ScimpiError::DataCorruption { .. }) => failed += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        (ok, failed)
    });
    assert_eq!(out[0], out[1], "both ends agree on every transfer");
    out
}

#[test]
fn aborted_rendezvous_returns_its_ring_slot_under_sequence_check() {
    cells::each(&SEEDS, |seed| {
        let got = aborted_rendezvous(seed, IntegrityMode::SequenceCheck);
        if seed == FAILURE_SEED {
            assert_eq!(got, [(13, 11), (13, 11)]);
        }
    });
}

#[test]
fn aborted_rendezvous_returns_its_ring_slot_under_end_to_end() {
    cells::each(&SEEDS, |seed| {
        let got = aborted_rendezvous(seed, IntegrityMode::EndToEnd);
        if seed == FAILURE_SEED {
            assert_eq!(got, [(13, 11), (13, 11)]);
        }
    });
}

/// A `sendrecv` whose eager send half fails still runs its receive half:
/// the peer's message lands in the receive buffer instead of staying
/// queued for whatever receive comes next, and the send-side error is
/// what the call returns. Rank 0 exchanges 4 KiB messages, which the
/// fabric refuses most of the time; rank 1 sends 64 bytes with a plain
/// `send` (followed by an empty tombstone if refused) and then receives.
/// A rank whose eager message was refused follows it with a tombstone.
#[test]
fn sendrecv_receives_when_its_eager_send_half_fails() {
    cells::each(&SEEDS, |seed| {
        const ROUNDS: u8 = 4;
        let message = |who: usize, tag: u8, len: usize| vec![(who as u8) << 4 | tag; len];
        let out = run(
            failing_spec(seed, IntegrityMode::SequenceCheck, 0.05),
            move |r| {
                let tag = |round: u8| 10 + round as i32;
                let mut log = Vec::new();
                for round in 0..ROUNDS {
                    if r.rank() == 0 {
                        let mut buf = vec![0u8; 64];
                        let res = r.sendrecv(
                            1,
                            tag(round),
                            scimpi::SendData::Bytes(&message(0, round, 4096)),
                            Source::Rank(1),
                            TagSel::Value(tag(round)),
                            scimpi::RecvBuf::Bytes(&mut buf),
                        );
                        let failed = matches!(res, Err(ScimpiError::DataCorruption { .. }));
                        assert!(failed || res.is_ok(), "unexpected {res:?}");
                        if failed {
                            while r.send(1, tag(round), &[]).is_err() {}
                        }
                        log.push((failed, buf == message(1, round, 64)));
                    } else {
                        let sent = r.send(0, tag(round), &message(1, round, 64)).is_ok();
                        if !sent {
                            while r.send(0, tag(round), &[]).is_err() {}
                        }
                        let mut buf = vec![0u8; 4096];
                        r.recv(Source::Rank(0), TagSel::Value(tag(round)), &mut buf)
                            .expect("a message or its tombstone");
                        log.push((!sent, true));
                    }
                }
                r.barrier();
                let left: Vec<u8> = (0..ROUNDS)
                    .filter(|&round| {
                        r.probe(Source::Rank(1 - r.rank()), TagSel::Value(tag(round)))
                            .is_some()
                    })
                    .collect();
                (log, left)
            },
        );
        let (rank0, rank1) = (&out[0].0, &out[1].0);
        for (rank, (_, left)) in out.iter().enumerate() {
            assert!(
                left.is_empty(),
                "rank {rank} still has messages queued: {left:?}"
            );
        }
        let mut checked = 0;
        for (round, (&(failed, got), &(peer_failed, _))) in rank0.iter().zip(rank1).enumerate() {
            if failed && !peer_failed {
                assert!(got, "round {round}: the failed exchange did not receive");
                checked += 1;
            }
        }
        assert!(
            checked > 0,
            "no round failed rank 0's eager half alone: {rank0:?} {rank1:?}"
        );
    });
}

/// Both ranks of a symmetric exchange have their eager send halves
/// refused: each receive half waits for a message the other could not
/// deliver. At the stall round that finds both unmatched, each receive
/// is withdrawn and `sendrecv` returns the send error, with the receive
/// buffer untouched and no receive left posted for a later message.
fn both_eager_halves_refused(seed: u64, mode: IntegrityMode) {
    let out = run(failing_spec(seed, mode, 1.0), |r| {
        let peer = 1 - r.rank();
        let mut buf = vec![0xEEu8; 4096];
        let res = r.sendrecv(
            peer,
            5,
            scimpi::SendData::Bytes(&[r.rank() as u8; 4096]),
            Source::Rank(peer),
            TagSel::Value(5),
            scimpi::RecvBuf::Bytes(&mut buf),
        );
        let queued = r.probe(Source::Any, TagSel::Any).is_some();
        (res, buf.iter().all(|&b| b == 0xEE), queued)
    });
    for (rank, (res, untouched, queued)) in out.into_iter().enumerate() {
        assert!(
            matches!(
                res,
                Err(ScimpiError::DataCorruption {
                    what: "eager message",
                    ..
                })
            ),
            "rank {rank}: {res:?}"
        );
        assert!(untouched, "rank {rank}: the receive buffer was written");
        assert!(!queued, "rank {rank}: a message is queued");
    }
}

#[test]
fn sendrecv_whose_eager_halves_both_fail_returns_under_sequence_check() {
    cells::each(&SEEDS, |seed| {
        both_eager_halves_refused(seed, IntegrityMode::SequenceCheck);
    });
}

#[test]
fn sendrecv_whose_eager_halves_both_fail_returns_under_end_to_end() {
    cells::each(&SEEDS, |seed| {
        both_eager_halves_refused(seed, IntegrityMode::EndToEnd);
    });
}

//! Cross-crate integration tests: whole-stack scenarios through the
//! public API (fabric → SMI → datatypes → MPI runtime).

use mpi_datatype::{typed, Committed, Datatype};
use scimpi::{run, AccumulateOp, ClusterSpec, ReduceOp, Source, TagSel, Tuning, WinMemory};
use simclock::SimDuration;

/// The same deterministic seed and workload must produce bit-identical
/// virtual times on repeated runs — the core promise of the simulation.
#[test]
fn runs_are_deterministic() {
    let workload = || {
        run(ClusterSpec::ringlet(4), |r| {
            let data = vec![r.rank() as u8; 100_000];
            let mut buf = vec![0u8; 100_000];
            let dst = (r.rank() + 1) % r.size();
            let src = (r.rank() + r.size() - 1) % r.size();
            r.sendrecv(
                dst,
                1,
                scimpi::SendData::Bytes(&data),
                Source::Rank(src),
                TagSel::Value(1),
                scimpi::RecvBuf::Bytes(&mut buf),
            )
            .unwrap();
            r.barrier();
            r.now()
        })
    };
    let a = workload();
    let b = workload();
    assert_eq!(a, b, "virtual times diverged between identical runs");
}

/// Mixed two-sided and one-sided traffic in one program, with full data
/// verification.
#[test]
fn mixed_two_sided_and_one_sided() {
    run(ClusterSpec::ringlet(4), |r| {
        let me = r.rank();
        let n = r.size();
        // Phase 1: ring pass of a token, two-sided.
        let mut token = vec![0u8; 16];
        if me == 0 {
            token = b"token-round-one!".to_vec();
            r.send(1, 5, &token).unwrap();
            r.recv(Source::Rank(n - 1), TagSel::Value(5), &mut token)
                .unwrap();
        } else {
            r.recv(Source::Rank(me - 1), TagSel::Value(5), &mut token)
                .unwrap();
            r.send((me + 1) % n, 5, &token).unwrap();
        }
        assert_eq!(&token, b"token-round-one!");

        // Phase 2: every rank publishes a value in its window; everyone
        // reads everyone (one-sided all-gather).
        let mem = r.alloc_mem(8).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.write_local(r, 0, &typed::to_bytes(&[me as f64 * 1.5]));
        win.fence(r).unwrap();
        let mut sum = 0.0;
        for t in 0..n {
            let mut buf = [0u8; 8];
            win.get(r, t, 0, &mut buf).unwrap();
            sum += f64::from_le_bytes(buf);
        }
        win.fence(r).unwrap();
        assert_eq!(sum, 1.5 * (0..n).sum::<usize>() as f64);

        // Phase 3: collective check.
        let mut total = [sum];
        r.allreduce(&mut total, ReduceOp::Sum).unwrap();
        assert_eq!(total[0], sum * n as f64);
    });
}

/// Non-contiguous one-sided put through the full stack with a receiver
/// datatype check.
#[test]
fn typed_rma_roundtrip_through_stack() {
    run(ClusterSpec::ringlet(2), |r| {
        // Vector-of-struct type, the paper's Figure 3 example.
        let chars = Datatype::contiguous(3, &Datatype::byte());
        let s = Datatype::structure(&[(1, 0, Datatype::int()), (1, 4, chars)]);
        let v = Datatype::hvector(8, 1, 16, &s);
        let c = Committed::commit(&v);
        let mem = r.alloc_mem(c.extent()).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.fence(r).unwrap();
        if r.rank() == 0 {
            let src: Vec<u8> = (0..c.extent()).map(|i| (i * 3) as u8).collect();
            win.put_typed(r, 1, 0, &c, 1, &src, 0).unwrap();
        }
        win.fence(r).unwrap();
        if r.rank() == 1 {
            let mut got = vec![0u8; c.extent()];
            win.read_local(r, 0, &mut got);
            // The 7 data bytes of every 16-byte element arrived; the
            // 9 gap bytes stayed zero (extent 7*16+7 = 119: the final
            // element has no trailing gap).
            assert_eq!(c.extent(), 119);
            for e in 0..8 {
                let base = e * 16;
                for i in 0..7 {
                    assert_eq!(got[base + i], ((base + i) * 3) as u8, "data byte");
                }
                if e < 7 {
                    for i in 7..16 {
                        assert_eq!(got[base + i], 0, "gap byte");
                    }
                }
            }
        }
        win.fence(r).unwrap();
    });
}

/// A datatype may reach below its origin: the direct shared-window arm of
/// `put_typed` must resolve a negative displacement like the emulated and
/// DMA arms do, in the debug profile (where `usize` overflow panics, and
/// the peer would wait in `fence` for ever) as in release.
#[test]
fn typed_put_with_negative_displacement_lands_where_it_points() {
    run(ClusterSpec::ringlet(2), |r| {
        let dt = Datatype::hindexed(&[(8, -16), (8, 0), (8, 24)], &Datatype::byte());
        let c = Committed::commit(&dt);
        let mem = r.alloc_mem(128).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.fence(r).unwrap();
        let src: Vec<u8> = (1..=64).collect();
        if r.rank() == 0 {
            // Displacement 0 is byte 32 of the buffer, byte 64 of the window.
            win.put_typed(r, 1, 64, &c, 1, &src, 32).unwrap();
        }
        win.fence(r).unwrap();
        if r.rank() == 1 {
            let mut got = vec![0u8; 128];
            win.read_local(r, 0, &mut got);
            let mut expect = vec![0u8; 128];
            expect[48..56].copy_from_slice(&src[16..24]);
            expect[64..72].copy_from_slice(&src[32..40]);
            expect[88..96].copy_from_slice(&src[56..64]);
            assert_eq!(got, expect);
        }
        win.fence(r).unwrap();
    });
}

/// The engines must agree end-to-end: same messages, same received bytes,
/// different virtual cost.
#[test]
fn engines_agree_on_data_disagree_on_time() {
    let payload_for = |tuning: Tuning| {
        let dt = Datatype::vector(1024, 4, 8, &Datatype::double()); // 32 KiB
        let c = Committed::commit(&dt);
        run(ClusterSpec::ringlet(2).tuning(tuning), move |r| {
            if r.rank() == 0 {
                let src: Vec<u8> = (0..c.extent()).map(|i| (i ^ 0xA5) as u8).collect();
                r.send_typed(1, 0, &c, 1, &src, 0).unwrap();
                (Vec::new(), r.now())
            } else {
                let mut buf = vec![0u8; c.extent()];
                r.recv_typed(Source::Rank(0), TagSel::Value(0), &c, 1, &mut buf, 0)
                    .unwrap();
                (buf, r.now())
            }
        })
    };
    let generic = payload_for(Tuning::default().generic_only());
    let ff = payload_for(Tuning::default().full_ff_comparison());
    assert_eq!(
        generic[1].0, ff[1].0,
        "received bytes differ between engines"
    );
    assert_ne!(generic[1].1, ff[1].1, "virtual cost should differ");
}

/// Many ranks per node: intra-node pairs communicate via shared memory at
/// lower cost than inter-node pairs, within one run.
#[test]
fn intra_node_cheaper_within_one_run() {
    let mut spec = ClusterSpec::ringlet(2);
    spec.procs_per_node = 2; // ranks 0,1 on node 0; ranks 2,3 on node 1
    let out = run(spec, |r| {
        let payload = vec![1u8; 64 * 1024];
        let mut buf = vec![0u8; 64 * 1024];
        match r.rank() {
            // Pair A: 0 <-> 1 (same node)
            0 => {
                r.send(1, 0, &payload).unwrap();
                r.barrier();
                SimDuration::ZERO
            }
            1 => {
                let t0 = r.now();
                r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
                let e = r.now() - t0;
                r.barrier();
                e
            }
            // Pair B: 2 <-> 3... actually 2 sends to 3 across? They share
            // node 1, so use 0->2 for inter-node in a second phase below.
            2 => {
                r.send(3, 0, &payload).unwrap();
                r.barrier();
                SimDuration::ZERO
            }
            _ => {
                let t0 = r.now();
                r.recv(Source::Rank(2), TagSel::Value(0), &mut buf).unwrap();
                let e = r.now() - t0;
                r.barrier();
                e
            }
        }
    });
    // Both receivers were intra-node here; verify parity.
    assert!(out[1] > SimDuration::ZERO);
    assert!(out[3] > SimDuration::ZERO);

    // Now inter-node: 0 -> 2.
    let mut spec = ClusterSpec::ringlet(2);
    spec.procs_per_node = 2;
    let inter = run(spec, |r| {
        let payload = vec![1u8; 64 * 1024];
        let mut buf = vec![0u8; 64 * 1024];
        match r.rank() {
            0 => {
                r.send(2, 0, &payload).unwrap();
                SimDuration::ZERO
            }
            2 => {
                let t0 = r.now();
                r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
                r.now() - t0
            }
            _ => SimDuration::ZERO,
        }
    });
    assert!(
        inter[2] > out[1],
        "inter-node {:?} should cost more than intra-node {:?}",
        inter[2],
        out[1]
    );
}

/// Passive-target accumulate from several origins with locking sums
/// correctly regardless of interleaving.
#[test]
fn concurrent_locked_accumulates() {
    let out = run(ClusterSpec::ringlet(4), |r| {
        let mem = r.alloc_mem(8).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.write_local(r, 0, &0i64.to_le_bytes());
        win.fence(r).unwrap();
        // Everyone (including rank 0) adds into rank 0's counter, many
        // times, under the window lock.
        for _ in 0..50 {
            win.locked(r, 0, |w, r| {
                w.accumulate(r, 0, 0, AccumulateOp::SumI64, &1i64.to_le_bytes())
                    .unwrap();
            })
            .unwrap();
        }
        win.fence(r).unwrap();
        let mut buf = [0u8; 8];
        win.read_local(r, 0, &mut buf);
        i64::from_le_bytes(buf)
    });
    assert_eq!(out[0], 200, "lost updates under lock");
}

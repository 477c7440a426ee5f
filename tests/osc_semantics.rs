//! MPI-2 one-sided semantics: epoch rules, multiple windows, PSCW with
//! proper subgroups, accumulate operators, window bounds, and the memory
//! allocator interplay — the correctness surface behind Figure 9's
//! performance surface.

use mpi_datatype::typed;
use scimpi::{run, AccumulateOp, ClusterSpec, Rank, WinMemory, Window};
use simclock::SimDuration;

fn shared_window(r: &mut Rank, len: usize) -> Window {
    let mem = r.alloc_mem(len).unwrap();
    r.win_create(WinMemory::Alloc(mem)).unwrap()
}

/// Several windows coexist: operations through one never touch another.
#[test]
fn multiple_windows_are_isolated() {
    run(ClusterSpec::ringlet(2), |r| {
        let mut w1 = shared_window(r, 256);
        let mut w2 = shared_window(r, 256);
        if r.rank() == 0 {
            w1.put(r, 1, 0, &[0xAA; 64]).unwrap();
            w2.put(r, 1, 0, &[0xBB; 64]).unwrap();
        }
        w1.fence(r).unwrap();
        w2.fence(r).unwrap();
        if r.rank() == 1 {
            let mut a = [0u8; 64];
            let mut b = [0u8; 64];
            w1.read_local(r, 0, &mut a);
            w2.read_local(r, 0, &mut b);
            assert!(a.iter().all(|&x| x == 0xAA));
            assert!(b.iter().all(|&x| x == 0xBB));
        }
        w1.fence(r).unwrap();
        w2.fence(r).unwrap();
    });
}

/// PSCW with proper subgroups: rank 0 exposes to {1}, rank 3 exposes to
/// {2}; the two epochs proceed independently.
#[test]
fn pscw_disjoint_groups() {
    run(ClusterSpec::ringlet(4), |r| {
        let mut win = shared_window(r, 128);
        match r.rank() {
            0 => {
                win.post(r, &[1]);
                win.wait(r, &[1]).unwrap();
                let mut b = [0u8; 4];
                win.read_local(r, 0, &mut b);
                assert_eq!(b, [1; 4]);
            }
            3 => {
                win.post(r, &[2]);
                win.wait(r, &[2]).unwrap();
                let mut b = [0u8; 4];
                win.read_local(r, 0, &mut b);
                assert_eq!(b, [2; 4]);
            }
            1 => {
                win.start(r, &[0]).unwrap();
                win.put(r, 0, 0, &[1; 4]).unwrap();
                win.complete(r, &[0]).unwrap();
            }
            _ => {
                win.start(r, &[3]).unwrap();
                win.put(r, 3, 0, &[2; 4]).unwrap();
                win.complete(r, &[3]).unwrap();
            }
        }
        // Cleanly end the program for everyone.
        r.barrier();
    });
}

/// Back-to-back PSCW epochs on the same window reuse handles correctly.
#[test]
fn pscw_repeated_epochs() {
    run(ClusterSpec::ringlet(2), |r| {
        let mut win = shared_window(r, 64);
        for round in 0..5u8 {
            if r.rank() == 0 {
                win.post(r, &[1]);
                win.wait(r, &[1]).unwrap();
                let mut b = [0u8; 1];
                win.read_local(r, 0, &mut b);
                assert_eq!(b[0], round);
            } else {
                win.start(r, &[0]).unwrap();
                win.put(r, 0, 0, &[round]).unwrap();
                win.complete(r, &[0]).unwrap();
            }
        }
    });
}

/// All accumulate operators.
#[test]
fn accumulate_operators() {
    run(ClusterSpec::ringlet(2), |r| {
        let mut win = shared_window(r, 64);
        if r.rank() == 1 {
            win.write_local(r, 0, &typed::to_bytes(&[10.0f64, -4.0]));
            win.write_local(r, 16, &5i64.to_le_bytes());
        }
        win.fence(r).unwrap();
        if r.rank() == 0 {
            win.accumulate(
                r,
                1,
                0,
                AccumulateOp::SumF64,
                &typed::to_bytes(&[2.5f64, 4.0]),
            )
            .unwrap();
            win.accumulate(
                r,
                1,
                0,
                AccumulateOp::MaxF64,
                &typed::to_bytes(&[5.0f64, -100.0]),
            )
            .unwrap();
            win.accumulate(r, 1, 16, AccumulateOp::SumI64, &(-7i64).to_le_bytes())
                .unwrap();
            win.accumulate(r, 1, 24, AccumulateOp::Replace, &[9u8; 8])
                .unwrap();
        }
        win.fence(r).unwrap();
        if r.rank() == 1 {
            let mut f = [0u8; 16];
            win.read_local(r, 0, &mut f);
            let v: Vec<f64> = typed::from_bytes(&f);
            assert_eq!(v, vec![12.5, 0.0]); // max(10+2.5, 5); max(-4+4, -100)
            let mut i = [0u8; 8];
            win.read_local(r, 16, &mut i);
            assert_eq!(i64::from_le_bytes(i), -2);
            let mut rep = [0u8; 8];
            win.read_local(r, 24, &mut rep);
            assert_eq!(rep, [9u8; 8]);
        }
        win.fence(r).unwrap();
    });
}

/// Heterogeneous windows: some ranks contribute shared memory, some
/// private, some nothing at all — each target uses its own path.
#[test]
fn mixed_shared_private_empty_window() {
    run(ClusterSpec::ringlet(3), |r| {
        let mut win = match r.rank() {
            0 => {
                let mem = r.alloc_mem(128).unwrap();
                r.win_create(WinMemory::Alloc(mem)).unwrap()
            }
            1 => r.win_create(WinMemory::Private(128)).unwrap(),
            _ => r.win_create(WinMemory::Private(0)).unwrap(),
        };
        assert!(win.is_shared(0));
        assert!(!win.is_shared(1));
        assert!(win.is_empty(2));
        win.fence(r).unwrap();
        if r.rank() == 2 {
            win.put(r, 0, 0, &[1; 16]).unwrap();
            win.put(r, 1, 0, &[2; 16]).unwrap();
            // Out of range on the empty window.
            assert!(win.put(r, 2, 0, &[3; 1]).is_err());
        }
        win.fence(r).unwrap();
        match r.rank() {
            0 => {
                let mut b = [0u8; 16];
                win.read_local(r, 0, &mut b);
                assert!(b.iter().all(|&x| x == 1));
            }
            1 => {
                let mut b = [0u8; 16];
                win.read_local(r, 0, &mut b);
                assert!(b.iter().all(|&x| x == 2));
            }
            _ => {}
        }
        win.fence(r).unwrap();
    });
}

/// Passive-target lock gives exclusive read-modify-write without any
/// target action; interleavings from many origins never lose updates.
#[test]
fn lock_rmw_from_all_ranks() {
    let n = 6;
    let per_rank = 25;
    let out = run(ClusterSpec::ringlet(n), move |r| {
        let mut win = shared_window(r, 8);
        if r.rank() == 0 {
            win.write_local(r, 0, &0i64.to_le_bytes());
        }
        win.fence(r).unwrap();
        for _ in 0..per_rank {
            win.locked(r, 0, |w, r| {
                let mut cur = [0u8; 8];
                w.get(r, 0, 0, &mut cur).unwrap();
                let v = i64::from_le_bytes(cur) + 1;
                w.put(r, 0, 0, &v.to_le_bytes()).unwrap();
            })
            .unwrap();
        }
        win.fence(r).unwrap();
        // Everyone reads the counter from rank 0's window part.
        let mut b = [0u8; 8];
        if r.rank() == 0 {
            win.read_local(r, 0, &mut b);
        } else {
            win.get(r, 0, 0, &mut b).unwrap();
        }
        win.fence(r).unwrap();
        i64::from_le_bytes(b)
    });
    assert!(
        out.iter().all(|&v| v == (n * per_rank) as i64),
        "lost updates: {out:?}"
    );
}

/// Emulated puts to distinct targets do not serialise on one handler.
#[test]
fn emulation_parallel_across_targets() {
    let time_to = |targets: usize| {
        let out = run(ClusterSpec::ringlet(4), move |r| {
            let mut win = r.win_create(WinMemory::Private(8192)).unwrap();
            win.fence(r).unwrap();
            if r.rank() == 0 {
                for i in 0..12 {
                    let t = 1 + (i % targets);
                    win.put(r, t, (i / targets) * 512, &[1u8; 512]).unwrap();
                }
            }
            win.fence(r).unwrap();
            r.now()
        });
        out[0]
    };
    let one_target = time_to(1);
    let three_targets = time_to(3);
    assert!(
        three_targets < one_target,
        "spreading across handlers should help: {three_targets:?} vs {one_target:?}"
    );
}

/// alloc_mem fragments and frees interleave with window lifetimes.
#[test]
fn alloc_mem_lifecycle_with_windows() {
    run(ClusterSpec::ringlet(2), |r| {
        let a = r.alloc_mem(4096).unwrap();
        let first_offset = a.offset;
        let mut w1 = r.win_create(WinMemory::Alloc(a)).unwrap();
        w1.fence(r).unwrap();
        if r.rank() == 0 {
            w1.put(r, 1, 0, &[3; 32]).unwrap();
        }
        w1.fence(r).unwrap();
        // A second allocation lands elsewhere while the first is live.
        let b = r.alloc_mem(4096).unwrap();
        assert_ne!(b.offset, first_offset);
        r.free_mem(b);
        // Charging time keeps clocks moving even without comms.
        r.compute(SimDuration::from_us(5));
        r.barrier();
    });
}

/// A typed access is bounds-checked over the bytes it touches, not over
/// `count` extents from the offset: a layout whose blocks start past the
/// window's end, or below its start, is refused like a contiguous access
/// there — it must not reach the neighbouring allocation of the pool
/// segment. Windows A and B are adjacent 64-byte allocations.
#[test]
fn typed_access_is_bounds_checked_over_its_true_span() {
    use mpi_datatype::{Committed, Datatype};
    use sci_fabric::SciError;
    use scimpi::ScimpiError;

    fn refused(res: Result<(), ScimpiError>) -> bool {
        matches!(res, Err(ScimpiError::Fabric(SciError::OutOfBounds(_))))
    }

    for shared in [true, false] {
        run(ClusterSpec::ringlet(2), move |r| {
            let window = |r: &mut Rank| match shared {
                true => shared_window(r, 64),
                false => r.win_create(WinMemory::Private(64)).unwrap(),
            };
            let (mut a, mut b) = (window(r), window(r));
            if r.rank() == 1 {
                b.write_local(r, 0, &[0xBB; 64]);
                a.write_local(r, 0, &[0xAA; 64]);
            }
            a.fence(r).unwrap();
            b.fence(r).unwrap();
            if r.rank() == 0 {
                let byte = Datatype::byte();
                // lb 64, extent 8: `[0, 8)` is inside A, the block is not.
                let past_end = Committed::commit(&Datatype::hindexed(&[(8, 64)], &byte));
                // lb −8: the block lies below B's first byte.
                let below_start = Committed::commit(&Datatype::hindexed(&[(8, -8)], &byte));
                let src = [0xEE; 80];
                assert!(refused(a.put_typed(r, 1, 0, &past_end, 1, &src, 0)));
                assert!(refused(b.put_typed(r, 1, 0, &below_start, 1, &src, 8)));
                if shared {
                    assert!(refused(a.put_typed_dma(r, 1, 0, &past_end, 1, &src, 0)));
                }
                let mut got = [0u8; 80];
                assert!(refused(a.get_typed(r, 1, 0, &past_end, 1, &mut got, 0)));
                assert!(refused(b.get_typed(r, 1, 0, &below_start, 1, &mut got, 8)));
                assert_eq!(got, [0u8; 80], "a refused get delivers nothing");
                // The same layouts are accepted where they fit.
                a.put_typed(r, 1, 8, &below_start, 1, &src, 8).unwrap();
            }
            a.fence(r).unwrap();
            b.fence(r).unwrap();
            if r.rank() == 1 {
                let (mut in_a, mut in_b) = ([0u8; 64], [0u8; 64]);
                a.read_local(r, 0, &mut in_a);
                b.read_local(r, 0, &mut in_b);
                let mut expect_a = [0xAA; 64];
                expect_a[..8].fill(0xEE);
                assert_eq!(in_a, expect_a, "only the accepted put landed in A");
                assert_eq!(in_b, [0xBB; 64], "nothing landed in B");
            }
            a.fence(r).unwrap();
            b.fence(r).unwrap();
        });
    }
}

/// A two-rank ringlet whose only route 0 → 1 is link 0, with errors
/// returned and counters on.
fn severable_spec(osc_fallback_threshold: u32) -> ClusterSpec {
    ClusterSpec::ringlet(2)
        .errors(scimpi::ErrorMode::ErrorsReturn)
        .obs(scimpi::ObsConfig::enabled())
        .tuning(scimpi::Tuning {
            osc_fallback_threshold,
            ..Default::default()
        })
}

/// 4 blocks of 8 bytes, 16 apart.
fn strided() -> mpi_datatype::Committed {
    let dt = mpi_datatype::Datatype::vector(4, 8, 16, &mpi_datatype::Datatype::byte());
    mpi_datatype::Committed::commit(&dt)
}

/// Rank 1 checks that the blocks of [`strided`] at offset 0 hold `value`.
fn assert_strided_landed(win: &Window, r: &mut Rank, value: u8) {
    let mut image = [0u8; 56];
    win.read_local(r, 0, &mut image);
    for blk in 0..4 {
        assert_eq!(image[blk * 16..][..8], [value; 8], "block {blk}");
    }
}

/// The descriptor-list engine cannot reach private memory: forcing it
/// there is a caller error that comes back as a value.
#[test]
fn forced_dma_put_into_a_private_window_is_an_invalid_argument() {
    run(severable_spec(2), |r| {
        let mut win = r.win_create(WinMemory::Private(64)).unwrap();
        win.fence(r).unwrap();
        if r.rank() == 0 {
            let err = win.put_typed_dma(r, 1, 0, &strided(), 1, &[7u8; 56], 0);
            assert!(
                matches!(err, Err(scimpi::ScimpiError::InvalidArg { .. })),
                "{err:?}"
            );
        }
        win.fence(r).unwrap();
    });
}

/// A forced DMA put honours the demotion of its target: while the direct
/// path is out of use it is served by emulation like every other verb.
#[test]
fn forced_dma_put_to_a_demoted_target_is_emulated() {
    let (_, report) = scimpi::run_report(severable_spec(1), |r| {
        let mut win = shared_window(r, 64);
        win.fence(r).unwrap();
        if r.rank() == 0 {
            r.fabric().faults().fail_link(sci_fabric::LinkId(0));
            win.put(r, 1, 60, &[1u8; 4])
                .expect("demotes, then emulated");
            win.put_typed_dma(r, 1, 0, &strided(), 1, &[7u8; 56], 0)
                .expect("a demoted target is reached by emulation");
            r.fabric().faults().restore_link(sci_fabric::LinkId(0));
        }
        win.fence(r).unwrap();
        if r.rank() == 1 {
            assert_strided_landed(&win, r, 7);
        }
        win.fence(r).unwrap();
    });
    assert_eq!(report.counters[obs::Counter::OscFallbacks], 1);
    assert_eq!(report.counters[obs::Counter::OscPutEmulated], 2);
}

/// A failed descriptor-list write counts toward demotion like any other
/// direct failure: the second one in a row reaches the threshold and the
/// put is served by emulation.
#[test]
fn failed_dma_writes_count_toward_demotion() {
    let (_, report) = scimpi::run_report(severable_spec(2), |r| {
        let mut win = shared_window(r, 64);
        win.fence(r).unwrap();
        if r.rank() == 0 {
            r.fabric().faults().fail_link(sci_fabric::LinkId(0));
            let first = win.put_typed_dma(r, 1, 0, &strided(), 1, &[7u8; 56], 0);
            assert!(first.is_err(), "no route, below the threshold");
            win.put_typed_dma(r, 1, 0, &strided(), 1, &[9u8; 56], 0)
                .expect("the second failure demotes; emulation serves the put");
            r.fabric().faults().restore_link(sci_fabric::LinkId(0));
        }
        win.fence(r).unwrap();
        if r.rank() == 1 {
            assert_strided_landed(&win, r, 9);
        }
        win.fence(r).unwrap();
    });
    assert_eq!(report.counters[obs::Counter::OscFallbacks], 1);
    assert_eq!(report.counters[obs::Counter::OscRepromotions], 1);
}

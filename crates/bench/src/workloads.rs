//! Shared workload generators and measurement loops.
//!
//! Every harness binary measures through these functions so the SCI rows
//! of different figures are mutually consistent.

use mpi_datatype::{Committed, Datatype};
use scimpi::{run, run_report, ClusterSpec, Rank, RunReport, Source, TagSel, WinMemory, Window};
use simclock::{Bandwidth, SimDuration, SimTime};

/// The paper's noncontig payload: 256 kiB of doubles per transfer.
pub const NONCONTIG_TOTAL: usize = 256 * 1024;

/// The sparse benchmark's window size.
pub const SPARSE_WINDOW: usize = 256 * 1024;

/// The noncontig benchmark's strided-vector type: blocks of `blocksize`
/// bytes of doubles, stride twice the blocksize (equal data and gap),
/// totalling `total` payload bytes.
pub fn noncontig_type(blocksize: usize, total: usize) -> Committed {
    assert!(
        blocksize.is_multiple_of(8),
        "blocksize must hold whole doubles"
    );
    let elems_per_block = blocksize / 8;
    let blocks = total / blocksize;
    let dt = Datatype::vector(
        blocks,
        elems_per_block,
        2 * elems_per_block as isize,
        &Datatype::double(),
    );
    Committed::commit(&dt)
}

/// Which transfer the noncontig benchmark measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NoncontigCase {
    /// Generic pack-and-send.
    Generic,
    /// `direct_pack_ff`.
    DirectPackFf,
    /// The contiguous reference transfer of the same byte count.
    Contiguous,
}

/// Run the noncontig micro-benchmark (§3.4) between ranks 0 → 1 of
/// `spec` and return the achieved bandwidth with the run's report.
pub fn noncontig_bandwidth(
    mut spec: ClusterSpec,
    case: NoncontigCase,
    blocksize: usize,
    total: usize,
) -> (Bandwidth, RunReport) {
    spec.tuning = match case {
        NoncontigCase::Generic => spec.tuning.generic_only(),
        _ => spec.tuning.full_ff_comparison(),
    };
    let committed = noncontig_type(blocksize, total);
    let reps = 4usize;
    let (out, report) = run_report(spec, move |r| {
        if r.size() < 2 {
            panic!("noncontig benchmark needs 2 ranks");
        }
        match (r.rank(), case) {
            (0, NoncontigCase::Contiguous) => {
                let buf = vec![1u8; total];
                r.barrier();
                for _ in 0..reps {
                    r.send(1, 0, &buf).unwrap();
                }
                r.barrier();
                SimDuration::ZERO
            }
            (0, _) => {
                let buf: Vec<u8> = (0..committed.extent()).map(|i| i as u8).collect();
                r.barrier();
                for _ in 0..reps {
                    // Re-commit each repetition, as an application reusing
                    // a datatype across iterations would: with the layout
                    // cache on, every commit after the first is a hit.
                    let c = Committed::commit(committed.datatype());
                    r.send_typed(1, 0, &c, 1, &buf, 0).unwrap();
                }
                r.barrier();
                SimDuration::ZERO
            }
            (1, NoncontigCase::Contiguous) => {
                let mut buf = vec![0u8; total];
                r.barrier();
                let t0 = r.now();
                for _ in 0..reps {
                    r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
                }
                let elapsed = r.now() - t0;
                r.barrier();
                elapsed
            }
            (1, _) => {
                let mut buf = vec![0u8; committed.extent()];
                r.barrier();
                let t0 = r.now();
                for _ in 0..reps {
                    let c = Committed::commit(committed.datatype());
                    r.recv_typed(Source::Rank(0), TagSel::Value(0), &c, 1, &mut buf, 0)
                        .unwrap();
                }
                let elapsed = r.now() - t0;
                r.barrier();
                elapsed
            }
            _ => {
                r.barrier();
                r.barrier();
                SimDuration::ZERO
            }
        }
    });
    (Bandwidth::observed((total * reps) as u64, out[1]), report)
}

/// Direction of a sparse-benchmark access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SparseDir {
    /// `MPI_Put`.
    Put,
    /// `MPI_Get`.
    Get,
}

/// Result of one sparse-benchmark point.
#[derive(Clone, Copy, Debug)]
pub struct SparseResult {
    /// Mean virtual time per communication call (including the amortised
    /// fence).
    pub latency: SimDuration,
    /// Aggregate bandwidth over all accesses.
    pub bandwidth: Bandwidth,
    /// Number of calls issued.
    pub calls: usize,
}

/// The sparse micro-benchmark of Figure 8: rank 0 accesses rank 1's part
/// of the window with `access` bytes per call and a stride of
/// `2 × access` (a gap as big as the data), then fences.
pub fn sparse(
    spec: ClusterSpec,
    dir: SparseDir,
    access: usize,
    winsize: usize,
    shared_window: bool,
) -> SparseResult {
    let out = run(spec, move |r| {
        let mut win = make_window(r, winsize, shared_window);
        win.fence(r).unwrap();
        let mut calls = 0usize;
        let t0 = r.now();
        if r.rank() == 0 {
            let data = vec![0xA5u8; access];
            let mut buf = vec![0u8; access];
            let stride = 2 * access;
            let mut offset = 0usize;
            while offset + access < winsize {
                match dir {
                    SparseDir::Put => win.put(r, 1, offset, &data).expect("put in range"),
                    SparseDir::Get => win.get(r, 1, offset, &mut buf).expect("get in range"),
                }
                calls += 1;
                offset += stride;
            }
        }
        win.fence(r).unwrap();
        (r.now() - t0, calls)
    });
    let (elapsed, calls) = out[0];
    SparseResult {
        latency: if calls > 0 {
            elapsed / calls as u64
        } else {
            SimDuration::ZERO
        },
        bandwidth: Bandwidth::observed((access * calls) as u64, elapsed),
        calls,
    }
}

/// Create a window whose memory is either SCI shared (direct path) or
/// private (emulation path) on every rank.
pub fn make_window(r: &mut Rank, winsize: usize, shared: bool) -> Window {
    if shared {
        let mem = r.alloc_mem(winsize).expect("pool holds the window");
        r.win_create(WinMemory::Alloc(mem)).expect("registration")
    } else {
        r.win_create(WinMemory::Private(winsize))
            .expect("registration")
    }
}

/// One point of the Figure 12 scaling experiment: `active` of the
/// cluster's ranks stream strided puts of `access` bytes to the rank at
/// `distance` ahead on the ring; returns the **minimum of the per-process
/// maximum bandwidths** (the paper's metric).
pub fn scaling_put_bandwidth(
    spec: ClusterSpec,
    active: usize,
    distance: usize,
    access: usize,
    winsize: usize,
) -> Bandwidth {
    let out = run(spec, move |r| {
        let mut win = make_window(r, winsize, true);
        win.fence(r).unwrap();
        let size = r.size();
        let mut moved = 0usize;
        let t0 = r.now();
        if r.rank() < active {
            let target = (r.rank() + distance) % size;
            let data = vec![1u8; access];
            let stride = 2 * access;
            let mut offset = 0usize;
            while offset + access < winsize {
                win.put(r, target, offset, &data).expect("put in range");
                moved += access;
                offset += stride;
            }
        }
        win.fence(r).unwrap();
        let elapsed = r.now() - t0;
        if moved > 0 {
            Bandwidth::observed(moved as u64, elapsed)
        } else {
            Bandwidth::from_bytes_per_sec(u64::MAX)
        }
    });
    out.into_iter()
        .fold(Bandwidth::from_bytes_per_sec(u64::MAX), Bandwidth::min)
}

/// Ping-pong latency/bandwidth of the two-sided path (used by Figure 1's
/// MPI-level context and sanity checks).
pub fn pingpong(spec: ClusterSpec, bytes: usize, reps: usize) -> (SimDuration, Bandwidth) {
    let out = run(spec, move |r| {
        let mut buf = vec![0u8; bytes];
        r.barrier();
        let t0 = r.now();
        for _ in 0..reps {
            if r.rank() == 0 {
                r.send(1, 0, &buf).unwrap();
                r.recv(Source::Rank(1), TagSel::Value(0), &mut buf).unwrap();
            } else if r.rank() == 1 {
                r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
                r.send(0, 0, &buf).unwrap();
            }
        }
        r.barrier();
        r.now() - t0
    });
    let rtt = out[0] / (reps as u64);
    let one_way = rtt / 2;
    (one_way, Bandwidth::observed(bytes as u64, one_way))
}

/// The standard power-of-two sweep used by the figures.
pub fn sweep(from: usize, to: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut s = from;
    while s <= to {
        v.push(s);
        s *= 2;
    }
    v
}

/// A default 2-node inter-node spec (the paper's standard measurement
/// setup for 2-process benchmarks).
pub fn internode_spec() -> ClusterSpec {
    ClusterSpec::ringlet(2)
}

/// A 1-node, 2-process spec (the "shm" curves).
pub fn intranode_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::ringlet(1);
    spec.procs_per_node = 2;
    spec
}

/// Convert a virtual time to the µs scale the paper's latency plots use.
pub fn us(d: SimDuration) -> f64 {
    d.as_us_f64()
}

/// Time origin helper for tests.
pub fn zero() -> SimTime {
    SimTime::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noncontig_type_matches_paper_shape() {
        let c = noncontig_type(128, 256 * 1024);
        assert_eq!(c.size(), 256 * 1024);
        assert_eq!(c.extent(), 2 * 256 * 1024 - 128);
        assert_eq!(c.blocks_per_instance(), 2048);
        assert_eq!(c.min_block_len(), 128);
    }

    #[test]
    fn sweep_is_powers_of_two() {
        assert_eq!(sweep(8, 64), vec![8, 16, 32, 64]);
        assert_eq!(sweep(8, 8), vec![8]);
    }

    #[test]
    fn ff_bandwidth_rises_with_blocksize() {
        let (b16, _) =
            noncontig_bandwidth(internode_spec(), NoncontigCase::DirectPackFf, 16, 64 * 1024);
        let (b1k, _) = noncontig_bandwidth(
            internode_spec(),
            NoncontigCase::DirectPackFf,
            1024,
            64 * 1024,
        );
        assert!(b1k.mib_per_sec() > 2.0 * b16.mib_per_sec());
    }

    #[test]
    fn ff_beats_generic_at_128b() {
        let total = 64 * 1024;
        let (ff, _) =
            noncontig_bandwidth(internode_spec(), NoncontigCase::DirectPackFf, 128, total);
        let (gen, _) = noncontig_bandwidth(internode_spec(), NoncontigCase::Generic, 128, total);
        assert!(
            ff.mib_per_sec() > 1.5 * gen.mib_per_sec(),
            "ff {ff} vs generic {gen}"
        );
    }

    #[test]
    fn sparse_put_beats_get_for_large_shared_accesses() {
        let put = sparse(internode_spec(), SparseDir::Put, 4096, 64 * 1024, true);
        let get = sparse(internode_spec(), SparseDir::Get, 4096, 64 * 1024, true);
        assert!(put.bandwidth.mib_per_sec() > get.bandwidth.mib_per_sec());
        assert!(put.calls > 0);
    }

    #[test]
    fn shared_window_puts_beat_private() {
        let shared = sparse(internode_spec(), SparseDir::Put, 1024, 64 * 1024, true);
        let private = sparse(internode_spec(), SparseDir::Put, 1024, 64 * 1024, false);
        assert!(shared.latency < private.latency);
    }

    #[test]
    fn scaling_declines_at_full_saturation() {
        // Saturation pattern: every node sends to its ring predecessor.
        let bw5 = scaling_put_bandwidth(ClusterSpec::ringlet(5), 5, 4, 16 * 1024, 128 * 1024);
        let bw8 = scaling_put_bandwidth(ClusterSpec::ringlet(8), 8, 7, 16 * 1024, 128 * 1024);
        assert!(
            bw8.mib_per_sec() < bw5.mib_per_sec() * 0.85,
            "bw5={bw5} bw8={bw8}"
        );
    }

    #[test]
    fn pingpong_latency_reasonable() {
        let (lat, _) = pingpong(internode_spec(), 8, 4);
        // Small-message MPI latency on SCI-MPICH: a handful of µs.
        assert!(lat > SimDuration::from_ns(500), "latency {lat}");
        assert!(lat < SimDuration::from_us(50), "latency {lat}");
    }
}

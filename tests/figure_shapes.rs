//! Reproduction regression tests: the headline *shapes* of every figure
//! and table, asserted numerically. If a refactor breaks the calibration
//! that makes a figure come out like the paper's, these tests fail.
//!
//! Workload sizes are reduced relative to the harness binaries where that
//! does not change the effect being checked.

use sci_fabric::{Fabric, FabricSpec, NodeId, SciParams};
use scimpi::ClusterSpec;
use simclock::{Bandwidth, Clock, SimTime};

// ---- Figure 1: raw SCI characteristics --------------------------------

#[test]
fn fig1_write_read_dma_ordering() {
    let fabric = Fabric::new(FabricSpec::default());
    let seg = fabric.export(NodeId(1), 8 << 20);
    let bw_of = |f: &dyn Fn(&mut Clock)| {
        let mut clock = Clock::new();
        f(&mut clock);
        clock.now() - SimTime::ZERO
    };
    let len = 64 * 1024;
    let data = vec![0u8; len];

    let write = bw_of(&|c| {
        let mut s = fabric.pio_stream(NodeId(0), &seg, len);
        s.write(c, 0, &data).unwrap();
        s.barrier(c);
    });
    let read = bw_of(&|c| {
        let r = fabric.pio_reader(NodeId(0), &seg);
        let mut buf = vec![0u8; len];
        r.read(c, 0, &mut buf).unwrap();
    });
    // Figure 1: read bandwidth is an order of magnitude below write.
    assert!(
        read.as_ps() > 8 * write.as_ps(),
        "write {write}, read {read}"
    );

    // DMA has high setup: tiny transfers lose to PIO.
    let tiny_pio = bw_of(&|c| {
        let mut s = fabric.pio_stream(NodeId(0), &seg, 64);
        s.write(c, 0, &data[..64]).unwrap();
        s.barrier(c);
    });
    let tiny_dma = {
        let dma = fabric.dma_engine(NodeId(0), &seg);
        let mut c = Clock::new();
        let comp = dma.write(&mut c, 0, &data[..64]).unwrap();
        comp.done - SimTime::ZERO
    };
    assert!(tiny_dma.as_ps() > 5 * tiny_pio.as_ps());
}

#[test]
fn fig1_pio_write_dips_past_l2() {
    let fabric = Fabric::new(FabricSpec::default());
    let seg = fabric.export(NodeId(1), 8 << 20);
    let bw = |len: usize| {
        let data = vec![0u8; len];
        let mut c = Clock::new();
        let mut s = fabric.pio_stream(NodeId(0), &seg, len);
        s.write(&mut c, 0, &data).unwrap();
        s.barrier(&mut c);
        Bandwidth::observed(len as u64, c.now() - SimTime::ZERO).mib_per_sec()
    };
    let at_64k = bw(64 * 1024);
    let at_1m = bw(1 << 20);
    assert!(at_64k > 200.0, "peak region should be >200, got {at_64k}");
    assert!(
        at_1m < 170.0,
        "memory-limited region should dip, got {at_1m}"
    );
}

// ---- Figure 7: noncontig crossovers ------------------------------------

#[test]
fn fig7_crossovers() {
    use repro_bench::{internode_spec, noncontig_bandwidth, NoncontigCase};
    let total = 64 * 1024;
    let bw = |case, block| {
        noncontig_bandwidth(internode_spec(), case, block, total)
            .0
            .mib_per_sec()
    };

    // 8 B: generic wins inter-node (paper's only generic win). The 2002
    // stack had no software store batcher, so this shape is asserted with
    // the pack engine off; with WC batching on, tiny adjacent ff stores
    // coalesce into full transactions and the win inverts (checked below).
    let bw_paper = |case, block| {
        let mut spec = internode_spec();
        spec.tuning = spec.tuning.without_pack_engine();
        noncontig_bandwidth(spec, case, block, total)
            .0
            .mib_per_sec()
    };
    assert!(bw_paper(NoncontigCase::Generic, 8) > bw_paper(NoncontigCase::DirectPackFf, 8));
    assert!(bw(NoncontigCase::DirectPackFf, 8) > bw(NoncontigCase::Generic, 8));
    // 16..128 B: ff at least ~2x generic. (The paper claims 2x "for 16
    // bytes and above"; our generic baseline is a more efficient
    // implementation than 2001-era MPICH's, so past ~256 B the advantage
    // shrinks to ~1.4-1.6x — recorded as a deviation in EXPERIMENTS.md.)
    for block in [16usize, 64] {
        let g = bw(NoncontigCase::Generic, block);
        let f = bw(NoncontigCase::DirectPackFf, block);
        assert!(f >= 1.9 * g, "block {block}: ff {f} vs generic {g}");
    }
    for block in [128usize, 256, 1024] {
        let g = bw(NoncontigCase::Generic, block);
        let f = bw(NoncontigCase::DirectPackFf, block);
        assert!(f >= 1.25 * g, "block {block}: ff {f} vs generic {g}");
    }
    // Very large blocks: ff still clearly ahead (pack copies never free).
    {
        let g = bw(NoncontigCase::Generic, 8192);
        let f = bw(NoncontigCase::DirectPackFf, 8192);
        assert!(f >= 1.15 * g, "block 8192: ff {f} vs generic {g}");
    }
    // 128 B: ff within 80% of contiguous (paper: ~90%).
    let f = bw(NoncontigCase::DirectPackFf, 128);
    let c = bw(NoncontigCase::Contiguous, 128);
    assert!(f > 0.8 * c, "ff {f} vs contiguous {c}");
}

#[test]
fn fig7_intranode_ff_can_beat_contiguous() {
    // The paper's curious reproducible effect: intra-node direct_pack_ff
    // can surpass the contiguous transfer for cache-friendly block sizes.
    use repro_bench::{intranode_spec, noncontig_bandwidth, NoncontigCase};
    let total = 256 * 1024;
    let best_ff = [2048usize, 4096, 8192]
        .iter()
        .map(|&b| {
            noncontig_bandwidth(intranode_spec(), NoncontigCase::DirectPackFf, b, total)
                .0
                .mib_per_sec()
        })
        .fold(0.0f64, f64::max);
    let contig = noncontig_bandwidth(intranode_spec(), NoncontigCase::Contiguous, 4096, total)
        .0
        .mib_per_sec();
    assert!(
        best_ff > 0.93 * contig,
        "intranode ff ({best_ff}) should be at least near contiguous ({contig})"
    );
}

// ---- Figure 9: one-sided characteristics --------------------------------

#[test]
fn fig9_put_get_shared_private_ordering() {
    use repro_bench::{internode_spec, sparse, SparseDir};
    let win = 64 * 1024;

    // Large accesses: put-shared fastest; get-shared ~ private paths.
    let put_s = sparse(internode_spec(), SparseDir::Put, 16 * 1024, win, true);
    let get_s = sparse(internode_spec(), SparseDir::Get, 16 * 1024, win, true);
    let put_p = sparse(internode_spec(), SparseDir::Put, 16 * 1024, win, false);
    assert!(put_s.bandwidth.mib_per_sec() > get_s.bandwidth.mib_per_sec());
    assert!(put_s.bandwidth.mib_per_sec() > put_p.bandwidth.mib_per_sec());
    let ratio = get_s.bandwidth.mib_per_sec() / put_p.bandwidth.mib_per_sec();
    assert!(
        (0.5..2.0).contains(&ratio),
        "message paths diverge: {ratio}"
    );

    // Small accesses: direct put latency is order(s) below emulation.
    let put_s8 = sparse(internode_spec(), SparseDir::Put, 8, win, true);
    let put_p8 = sparse(internode_spec(), SparseDir::Put, 8, win, false);
    assert!(put_p8.latency.as_us_f64() > 5.0 * put_s8.latency.as_us_f64());

    // Small direct gets: low latency (the "still relatively low" remark).
    let get_s8 = sparse(internode_spec(), SparseDir::Get, 8, win, true);
    assert!(get_s8.latency.as_us_f64() < 10.0);
}

// ---- Figure 12 / Table 2: ring saturation -------------------------------

#[test]
fn fig12_sci_knee_at_five_to_six_nodes() {
    use repro_bench::scaling_put_bandwidth;
    let bw = |n: usize| {
        scaling_put_bandwidth(ClusterSpec::ringlet(n), n, n - 1, 16 * 1024, 64 * 1024).mib_per_sec()
    };
    let b4 = bw(4);
    let b5 = bw(5);
    let b8 = bw(8);
    // Constant plateau through 5 nodes.
    assert!((b4 - b5).abs() < 0.1 * b4, "plateau broken: {b4} vs {b5}");
    assert!((100.0..135.0).contains(&b4), "plateau level {b4}");
    // Saturated by 8 nodes: paper measured ~72 of ~120.
    assert!(b8 < 0.75 * b4, "no saturation: {b8} vs {b4}");
    assert!(b8 > 0.4 * b4, "saturation too deep: {b8} vs {b4}");
}

#[test]
fn table2_link_upgrade_restores_bandwidth() {
    use repro_bench::scaling_put_bandwidth;
    let bw = |params: SciParams| {
        scaling_put_bandwidth(
            ClusterSpec::ringlet(8).params(params),
            8,
            7,
            16 * 1024,
            64 * 1024,
        )
        .mib_per_sec()
    };
    let slow = bw(SciParams::default());
    let fast = bw(SciParams::default().with_link_200mhz());
    let link_ratio = 762.0 / 633.0;
    let measured_ratio = fast / slow;
    // "increased linearly with the ring bandwidth".
    assert!(
        (measured_ratio - link_ratio).abs() < 0.15,
        "upgrade ratio {measured_ratio} vs link ratio {link_ratio}"
    );
}

#[test]
fn table2_neighbour_traffic_never_saturates() {
    use repro_bench::scaling_put_bandwidth;
    // 1 transfer/segment: per-node bandwidth constant for any node count.
    let bw = |n: usize| {
        scaling_put_bandwidth(ClusterSpec::ringlet(8), n, 1, 16 * 1024, 64 * 1024).mib_per_sec()
    };
    let b4 = bw(4);
    let b8 = bw(8);
    assert!(
        (b4 - b8).abs() < 0.05 * b4,
        "neighbour pattern degraded: {b4} vs {b8}"
    );
}

// ---- §4.3: write-combine stride sensitivity ------------------------------

#[test]
fn strided_write_ranges_match_paper() {
    let fabric = Fabric::new(FabricSpec::default());
    let seg = fabric.export(NodeId(1), 8 << 20);
    let bw = |access: usize, stride: usize| {
        let count = (1 << 20) / stride;
        let data = vec![0u8; access * count];
        let mut c = Clock::new();
        let mut s = fabric.pio_stream(NodeId(0), &seg, access * count);
        s.write_strided(&mut c, 0, access, stride, count, &data)
            .unwrap();
        s.barrier(&mut c);
        Bandwidth::observed((access * count) as u64, c.now() - SimTime::ZERO).mib_per_sec()
    };
    // Paper: 5..28 MiB/s at 8 B, 7..162 MiB/s at 256 B.
    let lo8 = bw(8, 24);
    let hi8 = bw(8, 32);
    assert!((4.0..10.0).contains(&lo8), "8B misaligned {lo8}");
    assert!((15.0..30.0).contains(&hi8), "8B aligned {hi8}");
    let lo256 = bw(256, 264);
    let hi256 = bw(256, 256);
    assert!((5.0..15.0).contains(&lo256), "256B misaligned {lo256}");
    assert!((120.0..170.0).contains(&hi256), "256B aligned {hi256}");
}

#[test]
fn disabling_write_combining_flattens_and_halves() {
    let params = SciParams::default().with_write_combining_disabled();
    let fabric = Fabric::new(FabricSpec {
        params,
        ..FabricSpec::default()
    });
    let seg = fabric.export(NodeId(1), 8 << 20);
    let bw = |stride: usize| {
        let count = (1 << 20) / stride;
        let data = vec![0u8; 64 * count];
        let mut c = Clock::new();
        let mut s = fabric.pio_stream(NodeId(0), &seg, 64 * count);
        s.write_strided(&mut c, 0, 64, stride, count, &data)
            .unwrap();
        s.barrier(&mut c);
        Bandwidth::observed((64 * count) as u64, c.now() - SimTime::ZERO).mib_per_sec()
    };
    // Both strides are fresh bursts (stride > access); without WC there
    // is no alignment cliff between them.
    let aligned = bw(96);
    let misaligned = bw(72);
    assert!(
        (aligned - misaligned).abs() < 0.1 * aligned,
        "wc-off cliff remains: {aligned} vs {misaligned}"
    );
    // ...but the peak is roughly halved relative to WC-enabled aligned.
    let full = {
        let fabric = Fabric::new(FabricSpec::default());
        let seg = fabric.export(NodeId(1), 8 << 20);
        let count = (1 << 20) / 96;
        let data = vec![0u8; 64 * count];
        let mut c = Clock::new();
        let mut s = fabric.pio_stream(NodeId(0), &seg, 64 * count);
        s.write_strided(&mut c, 0, 64, 96, count, &data).unwrap();
        s.barrier(&mut c);
        Bandwidth::observed((64 * count) as u64, c.now() - SimTime::ZERO).mib_per_sec()
    };
    assert!(aligned < 0.65 * full, "wc-off {aligned} vs wc-on {full}");
}

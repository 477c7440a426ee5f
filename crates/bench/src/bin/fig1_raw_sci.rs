//! Figure 1 — raw SCI communication performance.
//!
//! *Top:* small-data latency of PIO write (posted + store barrier), PIO
//! read (stalling) and DMA. *Bottom:* bandwidth over transfer size for
//! the same three mechanisms, plus the intra-node memcpy reference.
//!
//! Run: `cargo run --release -p repro-bench --bin fig1_raw_sci`

use repro_bench::{sweep, BenchDoc, BenchPoint};
use sci_fabric::{Fabric, FabricSpec, NodeId};
use simclock::stats::{fmt_bytes, series_table, Series};
use simclock::{Bandwidth, Clock, SimTime};

fn main() {
    let fabric = Fabric::new(FabricSpec::default());
    let seg = fabric.export(NodeId(1), 8 << 20);

    println!("== Figure 1 (top): small data latency [us] ==\n");
    let mut lat_write = Series::new("PIO write");
    let mut lat_read = Series::new("PIO read");
    let mut lat_dma = Series::new("DMA write");
    for size in sweep(4, 4096) {
        let data = vec![0u8; size];
        // PIO write + store barrier (visible at remote).
        let mut clock = Clock::new();
        let mut s = fabric.pio_stream(NodeId(0), &seg, size);
        s.write(&mut clock, 0, &data).unwrap();
        s.barrier(&mut clock);
        lat_write.push(size as f64, (clock.now() - SimTime::ZERO).as_us_f64());
        // PIO read.
        let mut clock = Clock::new();
        let r = fabric.pio_reader(NodeId(0), &seg);
        let mut buf = vec![0u8; size];
        r.read(&mut clock, 0, &mut buf).unwrap();
        lat_read.push(size as f64, (clock.now() - SimTime::ZERO).as_us_f64());
        // DMA write (to completion).
        let mut clock = Clock::new();
        let dma = fabric.dma_engine(NodeId(0), &seg);
        let c = dma.write(&mut clock, 0, &data).unwrap();
        lat_dma.push(size as f64, (c.done - SimTime::ZERO).as_us_f64());
    }
    let lat_series = [lat_write, lat_read, lat_dma];
    println!(
        "{}",
        series_table("size[B]", fmt_bytes, &lat_series).render()
    );

    println!("== Figure 1 (bottom): bandwidth [MiB/s] ==\n");
    let mut bw_write = Series::new("PIO write");
    let mut bw_read = Series::new("PIO read");
    let mut bw_dma = Series::new("DMA write");
    let mut bw_local = Series::new("local memcpy");
    for size in sweep(256, 4 << 20) {
        let data = vec![0u8; size];
        let mut clock = Clock::new();
        let mut s = fabric.pio_stream(NodeId(0), &seg, size);
        s.write(&mut clock, 0, &data).unwrap();
        s.barrier(&mut clock);
        bw_write.push(
            size as f64,
            Bandwidth::observed(size as u64, clock.now() - SimTime::ZERO).mib_per_sec(),
        );

        let mut clock = Clock::new();
        let r = fabric.pio_reader(NodeId(0), &seg);
        let mut buf = vec![0u8; size];
        r.read(&mut clock, 0, &mut buf).unwrap();
        bw_read.push(
            size as f64,
            Bandwidth::observed(size as u64, clock.now() - SimTime::ZERO).mib_per_sec(),
        );

        let mut clock = Clock::new();
        let dma = fabric.dma_engine(NodeId(0), &seg);
        let c = dma.write(&mut clock, 0, &data).unwrap();
        bw_dma.push(
            size as f64,
            Bandwidth::observed(size as u64, c.done - SimTime::ZERO).mib_per_sec(),
        );

        // Intra-node reference: same node writes its own segment.
        let mut clock = Clock::new();
        let mut s = fabric.pio_stream(NodeId(1), &seg, size);
        s.write(&mut clock, 0, &data).unwrap();
        bw_local.push(
            size as f64,
            Bandwidth::observed(size as u64, clock.now() - SimTime::ZERO).mib_per_sec(),
        );
    }
    let bw_series = [bw_write, bw_read, bw_dma, bw_local];
    println!(
        "{}",
        series_table("size[B]", fmt_bytes, &bw_series).render()
    );

    // The two sweeps use different size ranges, so keep them apart.
    let mut doc = BenchDoc::new("fig1_raw_sci");
    for s in &lat_series {
        for &(x, y) in &s.points {
            doc.push(
                &format!("latency {}", s.label),
                BenchPoint::at(x).mean_us(y),
            );
        }
    }
    for s in &bw_series {
        for &(x, y) in &s.points {
            doc.push(&format!("bandwidth {}", s.label), BenchPoint::at(x).mbps(y));
        }
    }
    doc.write_and_report(None);

    println!("note: PIO-write dip past 128k reproduces the ServerSet III LE");
    println!("memory-bandwidth ceiling (paper footnote 2); PIO read is the");
    println!("stalling path that motivates remote-put gets (section 4.2).");
}

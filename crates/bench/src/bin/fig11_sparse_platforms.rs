//! Figure 11 — one-sided communication (sparse benchmark) across the
//! OSC-capable platforms, plus the VIA comparison of §5.3.
//!
//! Run: `cargo run --release -p repro-bench --bin fig11_sparse_platforms`

use baselines::platforms;
use baselines::OscSupport;
use repro_bench::{internode_spec, sparse, sweep, BenchDoc, BenchPoint, SparseDir, SPARSE_WINDOW};
use simclock::stats::{fmt_bytes, series_table, Series};

fn main() {
    let accesses = sweep(8, 64 * 1024);

    println!("== Figure 11 (top): put latency per call [us] ==\n");
    let mut lat: Vec<Series> = Vec::new();
    let mut bw: Vec<Series> = Vec::new();

    // SCI-MPICH: direct (shared window) and message-based (private).
    let mut sci_lat = Series::new("M-S direct");
    let mut sci_bw = Series::new("M-S direct");
    let mut sci_msg_lat = Series::new("M-S msg");
    let mut sci_msg_bw = Series::new("M-S msg");
    for &a in &accesses {
        let direct = sparse(internode_spec(), SparseDir::Put, a, SPARSE_WINDOW, true);
        let msg = sparse(internode_spec(), SparseDir::Put, a, SPARSE_WINDOW, false);
        sci_lat.push(a as f64, direct.latency.as_us_f64());
        sci_bw.push(a as f64, direct.bandwidth.mib_per_sec());
        sci_msg_lat.push(a as f64, msg.latency.as_us_f64());
        sci_msg_bw.push(a as f64, msg.bandwidth.mib_per_sec());
        eprint!(".");
    }
    eprintln!();
    lat.extend([sci_lat, sci_msg_lat]);
    bw.extend([sci_bw, sci_msg_bw]);

    for p in platforms::all() {
        if p.osc.support == OscSupport::No {
            continue;
        }
        // X-s: only MPI_Get worked in the paper; we still tabulate its
        // model (footnote b) using get parameters.
        let use_get = p.osc.support == OscSupport::GetOnly;
        let mut l = Series::new(p.id);
        let mut b = Series::new(p.id);
        for &a in &accesses {
            let (t, bwv) = if use_get {
                (p.osc.get_time(a), p.osc.get_bandwidth(a))
            } else {
                (p.osc.put_time(a), p.osc.put_bandwidth(a))
            };
            l.push(a as f64, t.as_us_f64());
            b.push(a as f64, bwv.mib_per_sec());
        }
        lat.push(l);
        bw.push(b);
    }

    println!("{}", series_table("access[B]", fmt_bytes, &lat).render());
    println!("== Figure 11 (bottom): bandwidth [MiB/s] ==\n");
    println!("{}", series_table("access[B]", fmt_bytes, &bw).render());

    // Latency and bandwidth curves share labels and x values: merge each
    // pair into one series of complete points.
    let mut doc = BenchDoc::new("fig11_sparse_platforms");
    for (l, b) in lat.iter().zip(&bw) {
        for (&(x, us), &(_, mbps)) in l.points.iter().zip(&b.points) {
            doc.push(&l.label, BenchPoint::at(x).mean_us(us).mbps(mbps));
        }
    }
    doc.write_and_report(None);

    // §5.3 VIA comparison at 1024 B.
    let via = platforms::by_id("VIA").expect("VIA model present");
    let via_lat = via.osc.put_time(1024).as_us_f64();
    let sci_direct = sparse(internode_spec(), SparseDir::Put, 1024, SPARSE_WINDOW, true)
        .latency
        .as_us_f64();
    let sci_msg = sparse(internode_spec(), SparseDir::Put, 1024, SPARSE_WINDOW, false)
        .latency
        .as_us_f64();
    println!("VIA comparison at 1024 B (paper: ~3x vs SCI messages, up to ~15x vs direct put):");
    println!(
        "  VIA {via_lat:.1} us = {:.1}x SCI-msg ({sci_msg:.1} us) = {:.1}x SCI-direct ({sci_direct:.1} us)",
        via_lat / sci_msg,
        via_lat / sci_direct
    );
    println!("observations: Sun shm very fast; Cray in the SCI band; LAM/ethernet");
    println!("latencies in the 100s of us with ~10 MiB/s peak; LAM shm slightly");
    println!("below SCI-MPICH over SCI.");
}

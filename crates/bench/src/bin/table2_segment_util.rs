//! Table 2 — scalability for different segment-utilisation levels.
//!
//! On the 8-node ringlet, `n` active nodes stream large strided puts
//! either to their ring successor (minimal utilisation: 1 transfer per
//! segment) or to their ring predecessor (saturating utilisation: every
//! segment shared by all active transfers). Reported per paper: per-node
//! and accumulated bandwidth, offered ring load, and ring efficiency —
//! plus the 200 MHz link-frequency follow-up.
//!
//! Run: `cargo run --release -p repro-bench --bin table2_segment_util`

use repro_bench::{scaling_put_bandwidth, BenchDoc, BenchPoint};
use sci_fabric::SciParams;
use scimpi::ClusterSpec;
use simclock::stats::Table;

fn measure(params: SciParams, label: &str, doc: &mut BenchDoc) {
    let nominal = params.link_bandwidth.mib_per_sec();
    println!("== Table 2 ({label}, nominal link {nominal:.0} MiB/s) ==\n");
    let mut t = Table::new(vec![
        "nodes",
        "1tr p.node",
        "1tr acc",
        "sat p.node",
        "sat acc",
        "load",
        "eff",
    ]);
    let access = 16 * 1024;
    let winsize = 128 * 1024;
    for n in 4..=8usize {
        let spec = || ClusterSpec::ringlet(8).params(params.clone());
        let neigh = scaling_put_bandwidth(spec(), n, 1, access, winsize).mib_per_sec();
        let sat = scaling_put_bandwidth(spec(), n, 7, access, winsize).mib_per_sec();
        doc.push(
            &format!("{label} 1 transfer per segment"),
            BenchPoint::at(n as f64).mbps(neigh),
        );
        doc.push(
            &format!("{label} saturating"),
            BenchPoint::at(n as f64).mbps(sat),
        );
        let offered_load = n as f64 * neigh / nominal;
        let eff = n as f64 * sat / nominal;
        t.push_row(vec![
            format!("{n}"),
            format!("{neigh:.2}"),
            format!("{:.1}", n as f64 * neigh),
            format!("{sat:.2}"),
            format!("{:.1}", n as f64 * sat),
            format!("{:.1}%", offered_load * 100.0),
            format!("{:.1}%", eff * 100.0),
        ]);
        eprint!(".");
    }
    eprintln!();
    println!("{}", t.render());
}

fn main() {
    let mut doc = BenchDoc::new("table2_segment_util");
    measure(SciParams::default(), "166 MHz links", &mut doc);
    println!("paper anchors: 1tr p.node constant ~120.8; sat p.node 120.7 ->");
    println!("62.78 from 4 to 8 nodes; load 152.5% with eff 79.3% at 8 nodes.\n");

    measure(
        SciParams::default().with_link_200mhz(),
        "200 MHz links",
        &mut doc,
    );
    println!("paper: the worst-case bandwidth increases linearly with the ring");
    println!("bandwidth, so 8 nodes per ringlet become reasonable (512-node");
    println!("systems with a 3D-torus of ringlets).");
    doc.write_and_report(None);
}

//! Figure 9 — performance of `MPI_Get`/`MPI_Put` in SCI-MPICH.
//!
//! The `sparse` micro-benchmark (Figure 8 pseudo-code): strided accesses
//! (stride 2) through a 256 kiB window between two ranks on distinct
//! nodes, fence synchronisation. Four configurations: {get, put} × window
//! in {shared SCI memory (direct), private memory (emulation)}.
//!
//! *Top table:* latency per communication call. *Bottom:* aggregate
//! bandwidth.
//!
//! Run: `cargo run --release -p repro-bench --bin fig9_sparse_sci`

use repro_bench::{internode_spec, sparse, sweep, BenchDoc, BenchPoint, SparseDir, SPARSE_WINDOW};
use scimpi::ObsConfig;
use simclock::stats::{fmt_bytes, series_table, Series};

fn main() {
    let configs = [
        ("put shared", SparseDir::Put, true),
        ("get shared", SparseDir::Get, true),
        ("put private", SparseDir::Put, false),
        ("get private", SparseDir::Get, false),
    ];
    let mut lat: Vec<Series> = configs.iter().map(|(n, _, _)| Series::new(*n)).collect();
    let mut bw: Vec<Series> = configs.iter().map(|(n, _, _)| Series::new(*n)).collect();
    let mut doc = BenchDoc::new("fig9_sparse_sci");

    for access in sweep(8, 64 * 1024) {
        for (i, (name, dir, shared)) in configs.iter().enumerate() {
            let res = sparse(internode_spec(), *dir, access, SPARSE_WINDOW, *shared);
            lat[i].push(access as f64, res.latency.as_us_f64());
            bw[i].push(access as f64, res.bandwidth.mib_per_sec());
            doc.push(
                name,
                BenchPoint::at(access as f64)
                    .mean_us(res.latency.as_us_f64())
                    .mbps(res.bandwidth.mib_per_sec()),
            );
        }
        eprint!(".");
    }
    eprintln!();
    doc.write_and_report(None);

    // Representative traced run (shared-window puts at 4 kiB accesses).
    let traced = internode_spec().obs(
        ObsConfig::with_trace("TRACE_fig9_sparse_sci.json")
            .and_counters("COUNTERS_fig9_sparse_sci.jsonl"),
    );
    sparse(traced, SparseDir::Put, 4096, SPARSE_WINDOW, true);
    println!("wrote TRACE_fig9_sparse_sci.json, COUNTERS_fig9_sparse_sci.jsonl");

    println!("== Figure 9 (top): latency per call [us] ==\n");
    println!("{}", series_table("access[B]", fmt_bytes, &lat).render());
    println!("== Figure 9 (bottom): bandwidth [MiB/s] ==\n");
    println!("{}", series_table("access[B]", fmt_bytes, &bw).render());

    println!("checks (paper section 4.3):");
    let at = |s: &Series, x: usize| s.at(x as f64).unwrap_or(0.0);
    println!(
        "  put shared >> get shared at 64k: {:.1} vs {:.1} MiB/s",
        at(&bw[0], 65536),
        at(&bw[1], 65536)
    );
    println!(
        "  get shared ~ private paths at 64k (all message-based): {:.1} vs {:.1} vs {:.1}",
        at(&bw[1], 65536),
        at(&bw[2], 65536),
        at(&bw[3], 65536)
    );
    println!(
        "  private latency dominated by interrupt+message at 8B: {:.1} us vs shared {:.1} us",
        at(&lat[2], 8),
        at(&lat[0], 8)
    );
}

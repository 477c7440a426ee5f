//! Figure 7 — non-contiguous data transfers in SCI-MPICH.
//!
//! The `noncontig` micro-benchmark: a single-strided vector of doubles,
//! blocksize swept 8 B → 128 kiB with stride = 2 × blocksize, total
//! payload 256 kiB per transfer. Curves: generic pack-and-send vs
//! `direct_pack_ff` vs the contiguous reference, for inter-node (SCI) and
//! intra-node (shared memory through SMI) communication.
//!
//! Run: `cargo run --release -p repro-bench --bin fig7_noncontig`

use repro_bench::{
    internode_spec, intranode_spec, noncontig_bandwidth, sweep, BenchDoc, BenchPoint,
    NoncontigCase, NONCONTIG_TOTAL,
};
use scimpi::ObsConfig;
use simclock::stats::{fmt_bytes, series_table, Series};

fn main() {
    println!("== Figure 7: noncontig bandwidth [MiB/s], 256 kiB payload ==\n");
    let mut series = vec![
        Series::new("SCI generic"),
        Series::new("SCI direct_pack_ff"),
        Series::new("SCI contiguous"),
        Series::new("shm generic"),
        Series::new("shm direct_pack_ff"),
        Series::new("shm contiguous"),
        Series::new("SCI direct_pack_ff (pack engine off)"),
    ];
    for blocksize in sweep(8, 128 * 1024) {
        let cases = [
            (0, internode_spec(), NoncontigCase::Generic),
            (1, internode_spec(), NoncontigCase::DirectPackFf),
            (2, internode_spec(), NoncontigCase::Contiguous),
            (3, intranode_spec(), NoncontigCase::Generic),
            (4, intranode_spec(), NoncontigCase::DirectPackFf),
            (5, intranode_spec(), NoncontigCase::Contiguous),
        ];
        for (idx, spec, case) in cases {
            let (bw, _) = noncontig_bandwidth(spec, case, blocksize, NONCONTIG_TOTAL);
            series[idx].push(blocksize as f64, bw.mib_per_sec());
        }
        // Pack-engine ablation arm: the same ff transfer with the
        // flattened-layout cache and write-combining store batching off
        // (every commit is charged a re-flatten; every sub-transaction
        // store pays its own partial flush).
        let mut off_spec = internode_spec();
        off_spec.tuning = off_spec.tuning.without_pack_engine();
        let (bw, _) = noncontig_bandwidth(
            off_spec,
            NoncontigCase::DirectPackFf,
            blocksize,
            NONCONTIG_TOTAL,
        );
        series[6].push(blocksize as f64, bw.mib_per_sec());
        eprint!(".");
    }
    eprintln!();
    println!("{}", series_table("block[B]", fmt_bytes, &series).render());

    // A representative traced run: rerun one point with the recorder on
    // so the Chrome trace and counter dump land next to the JSON table.
    // The run re-commits the datatype every repetition, so everything
    // after its first resolve is a layout-cache hit.
    let traced = internode_spec().obs(
        ObsConfig::with_trace("TRACE_fig7_noncontig.json")
            .and_counters("COUNTERS_fig7_noncontig.jsonl"),
    );
    let (_, traced) =
        noncontig_bandwidth(traced, NoncontigCase::DirectPackFf, 128, NONCONTIG_TOTAL);
    println!("wrote TRACE_fig7_noncontig.json, COUNTERS_fig7_noncontig.jsonl");
    let cache_hits = traced.counters[obs::Counter::LayoutCacheHits];
    assert!(
        cache_hits > 0,
        "repeated sends of one datatype must hit the layout cache"
    );

    let mut doc = BenchDoc::new("fig7_noncontig");
    for s in &series {
        for &(x, mbps) in &s.points {
            // One transfer moves the full 256 kiB payload; its mean
            // virtual time follows from the bandwidth.
            let mean_us = NONCONTIG_TOTAL as f64 / (mbps * 1024.0 * 1024.0) * 1e6;
            doc.push(&s.label, BenchPoint::at(x).mbps(mbps).mean_us(mean_us));
        }
    }
    // Counter evidence for the smoke check: cache hits observed in the
    // traced run (x is the traced blocksize).
    doc.push(
        "layout_cache_hits",
        BenchPoint::at(128.0).mean_us(cache_hits as f64),
    );
    doc.write_and_report(Some(&traced));

    // Acceptance check: at fine granularity the pack engine (layout cache
    // + WC batching) must cut the per-transfer virtual time by >= 15%.
    let on16 = series[1].at(16.0).unwrap_or(0.0);
    let off16 = series[6].at(16.0).unwrap_or(f64::MAX);
    assert!(
        off16 <= on16 * 0.85,
        "pack engine must save >=15% virtual time at 16 B blocks: \
         {on16:.1} MiB/s on vs {off16:.1} MiB/s off"
    );

    // The paper's headline observations, checked numerically:
    let at = |s: &Series, x: usize| s.at(x as f64).unwrap_or(0.0);
    let ff128 = at(&series[1], 128);
    let contig128 = at(&series[2], 128);
    let gen16 = at(&series[0], 16);
    let ff16 = at(&series[1], 16);
    let gen8 = at(&series[0], 8);
    let ff8 = at(&series[6], 8); // paper-era shape: the pack-engine-off arm
    println!("checks:");
    println!(
        "  ff/contiguous at 128 B = {:.2} (paper: ~0.9)",
        ff128 / contig128
    );
    println!(
        "  ff/generic at 16 B    = {:.2} (paper: >= 2)",
        ff16 / gen16
    );
    println!(
        "  generic vs ff at 8 B  = {:.2} vs {:.2} MiB/s (paper: generic faster inter-node)",
        gen8, ff8
    );
}

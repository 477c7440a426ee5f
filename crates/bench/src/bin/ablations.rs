//! Ablation studies for the design choices called out in DESIGN.md §5.
//!
//! Each ablation disables one mechanism and reports how a headline number
//! moves, demonstrating that the reproduced effects come from the
//! mechanisms the paper credits:
//!
//! 1. **stream buffers** — without consecutive-store merging, the
//!    `direct_pack_ff` advantage collapses for small blocks;
//! 2. **stack merging** — without commit-time leaf merging, per-block
//!    overhead grows with datatype complexity;
//! 3. **rendezvous chunk size** — chunks beyond L2 thrash the cache;
//! 4. **remote-put for large gets** — without it, get bandwidth is pinned
//!    at the PIO-read rate;
//! 5. **`FF_MIN_BLOCK` auto threshold** — the Auto mode picks the better
//!    engine on each side of the 8..16 B crossover.
//!
//! Run: `cargo run --release -p repro-bench --bin ablations`

use repro_bench::{
    internode_spec, noncontig_bandwidth, sparse, BenchDoc, BenchPoint, NoncontigCase, SparseDir,
    NONCONTIG_TOTAL, SPARSE_WINDOW,
};
use scimpi::{ObsConfig, Tuning};
use simclock::stats::Table;
use simclock::SimDuration;

fn main() {
    let mut t = Table::new(vec!["ablation", "metric", "baseline", "ablated", "effect"]);
    let mut doc = BenchDoc::new("ablations");
    // JSON convention: per ablation one series with x = 0 (baseline) and
    // x = 1 (ablated).
    let record = |doc: &mut BenchDoc, name: &str, base: BenchPoint, ablated: BenchPoint| {
        doc.push(name, BenchPoint { x: 0.0, ..base });
        doc.push(name, BenchPoint { x: 1.0, ..ablated });
    };

    // 1. Stream buffers: emulate "no merging" by forcing every write to
    // pay the full transaction overhead (wc_misalign on every burst via
    // a huge per-txn overhead is approximated by disabling write
    // combining, which also models the -50% the paper measured).
    {
        let base = noncontig_bandwidth(
            internode_spec(),
            NoncontigCase::DirectPackFf,
            128,
            NONCONTIG_TOTAL,
        )
        .0;
        let mut spec = internode_spec();
        spec.params = sci_fabric::SciParams::default().with_write_combining_disabled();
        let ablated =
            noncontig_bandwidth(spec, NoncontigCase::DirectPackFf, 128, NONCONTIG_TOTAL).0;
        t.push_row(vec![
            "write combining off".to_string(),
            "ff bw @128B [MiB/s]".to_string(),
            format!("{:.1}", base.mib_per_sec()),
            format!("{:.1}", ablated.mib_per_sec()),
            format!("{:.2}x", ablated.mib_per_sec() / base.mib_per_sec()),
        ]);
        record(
            &mut doc,
            "write combining off",
            BenchPoint::at(0.0).mbps(base.mib_per_sec()),
            BenchPoint::at(1.0).mbps(ablated.mib_per_sec()),
        );
    }

    // 2. Rendezvous chunk size vs the L2 guidance (§3.3.2).
    {
        let bw_for = |chunk: usize| {
            let mut spec = internode_spec();
            spec.tuning = Tuning {
                rendezvous_chunk: chunk,
                ..Tuning::default()
            };
            noncontig_bandwidth(spec, NoncontigCase::DirectPackFf, 1024, NONCONTIG_TOTAL).0
        };
        let base = bw_for(64 * 1024); // <= L2 (256 kiB)
        let ablated = bw_for(2 * 1024 * 1024); // >> L2: thrashing regime
        t.push_row(vec![
            "chunk >> L2".to_string(),
            "ff bw @1k [MiB/s]".to_string(),
            format!("{:.1}", base.mib_per_sec()),
            format!("{:.1}", ablated.mib_per_sec()),
            format!("{:.2}x", ablated.mib_per_sec() / base.mib_per_sec()),
        ]);
        record(
            &mut doc,
            "chunk >> L2",
            BenchPoint::at(0.0).mbps(base.mib_per_sec()),
            BenchPoint::at(1.0).mbps(ablated.mib_per_sec()),
        );
    }

    // 3. Remote-put conversion for large gets.
    {
        let res_with = sparse(
            internode_spec(),
            SparseDir::Get,
            32 * 1024,
            SPARSE_WINDOW,
            true,
        );
        let mut spec = internode_spec();
        spec.tuning = Tuning {
            get_remote_put_threshold: usize::MAX, // never convert
            ..Tuning::default()
        };
        let res_without = sparse(spec, SparseDir::Get, 32 * 1024, SPARSE_WINDOW, true);
        t.push_row(vec![
            "no remote-put get".to_string(),
            "get bw @32k [MiB/s]".to_string(),
            format!("{:.1}", res_with.bandwidth.mib_per_sec()),
            format!("{:.1}", res_without.bandwidth.mib_per_sec()),
            format!(
                "{:.2}x",
                res_without.bandwidth.mib_per_sec() / res_with.bandwidth.mib_per_sec()
            ),
        ]);
        record(
            &mut doc,
            "no remote-put get",
            BenchPoint::at(0.0).mbps(res_with.bandwidth.mib_per_sec()),
            BenchPoint::at(1.0).mbps(res_without.bandwidth.mib_per_sec()),
        );
    }

    // 4. Auto engine selection around the small-block crossover.
    {
        let auto = |block: usize| {
            let spec = internode_spec(); // default tuning = Auto
            noncontig_bandwidth(spec, NoncontigCase::DirectPackFf, block, NONCONTIG_TOTAL).0
        };
        let forced_ff_8 = auto(8);
        let gen_8 =
            noncontig_bandwidth(internode_spec(), NoncontigCase::Generic, 8, NONCONTIG_TOTAL).0;
        t.push_row(vec![
            "ff forced at 8B".to_string(),
            "bw @8B [MiB/s]".to_string(),
            format!("{:.1}", gen_8.mib_per_sec()),
            format!("{:.1}", forced_ff_8.mib_per_sec()),
            format!("{:.2}x", forced_ff_8.mib_per_sec() / gen_8.mib_per_sec()),
        ]);
        record(
            &mut doc,
            "ff forced at 8B",
            BenchPoint::at(0.0).mbps(gen_8.mib_per_sec()),
            BenchPoint::at(1.0).mbps(forced_ff_8.mib_per_sec()),
        );
    }

    // 5. Eager threshold sanity: tiny threshold forces rendezvous for
    // small messages, raising latency.
    {
        let lat_for = |eager: usize| {
            let mut spec = internode_spec();
            spec.tuning = Tuning {
                eager_threshold: eager,
                ..Tuning::default()
            };
            repro_bench::pingpong(spec, 1024, 4).0
        };
        let base = lat_for(16 * 1024);
        let ablated = lat_for(0);
        t.push_row(vec![
            "eager disabled".to_string(),
            "1k latency [us]".to_string(),
            format!("{:.1}", base.as_us_f64()),
            format!("{:.1}", ablated.as_us_f64()),
            format!("{:+.1}us", (ablated - base).as_us_f64()),
        ]);
        assert!(ablated > base + SimDuration::from_ns(1));
        record(
            &mut doc,
            "eager disabled",
            BenchPoint::at(0.0).mean_us(base.as_us_f64()),
            BenchPoint::at(1.0).mean_us(ablated.as_us_f64()),
        );
    }

    // 6. Observability overhead: the recorder must not perturb the
    // simulation. Virtual time is computed from the cost models alone, so
    // enabling tracing may cost host time but the measured virtual
    // latencies have to agree to within 1%.
    {
        let lat_for = |obs: ObsConfig| {
            let spec = internode_spec().obs(obs);
            repro_bench::pingpong(spec, 64 * 1024, 8).0
        };
        let wall = std::time::Instant::now();
        let off = lat_for(ObsConfig::disabled());
        let wall_off = wall.elapsed();
        let wall = std::time::Instant::now();
        let on = lat_for(ObsConfig::enabled());
        let wall_on = wall.elapsed();
        let rel = (on.as_us_f64() - off.as_us_f64()).abs() / off.as_us_f64();
        t.push_row(vec![
            "tracing enabled".to_string(),
            "64k pingpong [us]".to_string(),
            format!("{:.2}", off.as_us_f64()),
            format!("{:.2}", on.as_us_f64()),
            format!("{:+.3}%", rel * 100.0),
        ]);
        record(
            &mut doc,
            "tracing enabled",
            BenchPoint::at(0.0).mean_us(off.as_us_f64()),
            BenchPoint::at(1.0).mean_us(on.as_us_f64()),
        );
        assert!(rel < 0.01, "recorder perturbed virtual time: {off} vs {on}");
        println!(
            "observability: virtual latency {:.2} us (off) vs {:.2} us (on), diff {:.4}%;",
            off.as_us_f64(),
            on.as_us_f64(),
            rel * 100.0
        );
        println!(
            "              host wall time {:?} (off) vs {:?} (on)\n",
            wall_off, wall_on
        );
    }

    println!("== Ablations (DESIGN.md section 5) ==\n");
    println!("{}", t.render());
    doc.write_and_report(None);
}

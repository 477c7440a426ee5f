//! §4.3 — the low-level strided remote-write study.
//!
//! After the sparse benchmark showed unexpectedly low bandwidth for small
//! strided accesses, the authors measured raw remote writes with varying
//! access and stride sizes and found a strong dependency on the stride:
//! strides that are multiples of the 32-byte CPU write-combine buffer are
//! fast; misaligned strides collapse (5–28 MiB/s at 8 B, 7–162 MiB/s at
//! 256 B). Disabling write combining removes the drops but halves
//! overall bandwidth.
//!
//! Run: `cargo run --release -p repro-bench --bin strided_write_study`
//! Pass `--no-wc` for the write-combining-disabled variant.

use repro_bench::BenchDoc;
use sci_fabric::{Fabric, FabricSpec, NodeId, SciParams};
use simclock::stats::{series_table, Series};
use simclock::{Bandwidth, Clock, SimTime};

fn run_study(params: SciParams, label: &str, doc: &mut BenchDoc) {
    let fabric = Fabric::new(FabricSpec {
        params,
        ..FabricSpec::default()
    });
    let seg = fabric.export(NodeId(1), 8 << 20);

    println!("== strided remote-write bandwidth [MiB/s] ({label}) ==\n");
    let mut series: Vec<Series> = Vec::new();
    let strides: Vec<usize> = vec![
        8, 16, 24, 32, 40, 48, 56, 64, 72, 96, 128, 160, 192, 256, 264, 288, 320, 384, 416, 512,
    ];
    for access in [8usize, 64, 256] {
        let mut s = Series::new(format!("access {access}B"));
        for &stride in &strides {
            if stride < access {
                continue;
            }
            let count = (4 << 20) / stride;
            let data = vec![0u8; access * count];
            let mut clock = Clock::new();
            let mut stream = fabric.pio_stream(NodeId(0), &seg, access * count);
            stream
                .write_strided(&mut clock, 0, access, stride, count, &data)
                .unwrap();
            stream.barrier(&mut clock);
            let bw = Bandwidth::observed((access * count) as u64, clock.now() - SimTime::ZERO);
            s.push(stride as f64, bw.mib_per_sec());
        }
        series.push(s);
    }
    println!(
        "{}",
        series_table("stride[B]", |x| format!("{}", x as usize), &series).render()
    );
    for s in &series {
        doc.push_bw_series(s);
    }

    // The paper's summary numbers.
    let min_max = |s: &Series| {
        let min = s
            .points
            .iter()
            .map(|(_, y)| *y)
            .fold(f64::INFINITY, f64::min);
        (min, s.max_y())
    };
    let (min8, max8) = min_max(&series[0]);
    let (min256, max256) = min_max(&series[2]);
    println!("range at   8 B access: {min8:.1} .. {max8:.1} MiB/s (paper: 5 .. 28)");
    println!("range at 256 B access: {min256:.1} .. {max256:.1} MiB/s (paper: 7 .. 162)");
}

fn main() {
    let no_wc = std::env::args().any(|a| a == "--no-wc");
    if no_wc {
        let mut doc = BenchDoc::new("strided_write_study_no_wc");
        run_study(
            SciParams::default().with_write_combining_disabled(),
            "write combining disabled",
            &mut doc,
        );
        println!("\n(paper: disabling WC avoids the drops but costs ~50% bandwidth)");
        doc.write_and_report(None);
    } else {
        let mut doc = BenchDoc::new("strided_write_study");
        run_study(SciParams::default(), "write combining enabled", &mut doc);
        println!("\nstrides that are multiples of 32 (the P-III write-combine");
        println!("buffer) deliver the maxima; rerun with --no-wc to compare.");
        doc.write_and_report(None);
    }
}

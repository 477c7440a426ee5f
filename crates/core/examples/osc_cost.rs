//! Host cost of the one-sided verbs: nanoseconds per call for `put`,
//! `get`, `accumulate`, `put_typed` and `get_typed` against a shared and
//! a private target, and typed put/get throughput in GB/s of payload at
//! 8 / 128 / 16 384-byte blocks — the numbers `hostbench`'s `sparse_osc`
//! (contiguous verbs only) does not resolve, next to
//! `core.sink_ff_gbps.*` for the two-sided typed path.
//!
//! ```bash
//! cargo run --release -p scimpi --example osc_cost
//! ```
//!
//! Rank 0 issues every call at rank 1 inside one fence epoch of a
//! two-rank ringlet while rank 1 is parked in the closing fence, so host
//! time between the two instants belongs to the verbs alone. The small
//! calls move 8 bytes (the typed ones one 8-byte block of a 16-byte
//! stride) at a rotating offset; the throughput rows move 1 MiB per call
//! under `full_ff_comparison()`, so `put_typed` stays on the per-block
//! PIO path at every block size instead of converting to DMA, and
//! `get_typed` — far above `get_remote_put_threshold` — is the
//! target-executed pack, return and scatter. Each cell is the median of
//! [`RUNS`] runs.

use mpi_datatype::{Committed, Datatype};
use scimpi::{run, AccumulateOp, ClusterSpec, Rank, Tuning, WinMemory, Window};
use std::time::Instant;

const RUNS: usize = 5;
const SMALL_CALLS: usize = 20_000;
const LARGE_CALLS: usize = 8;
const LARGE_BYTES: usize = 1 << 20;
const VERBS: [&str; 5] = ["put", "get", "accumulate", "put_typed", "get_typed"];

fn window(r: &mut Rank, shared: bool, len: usize) -> Window {
    let mem = match shared {
        true => WinMemory::Alloc(r.alloc_mem(len).expect("pool holds the window")),
        false => WinMemory::Private(len),
    };
    r.win_create(mem).expect("window")
}

/// Host seconds rank 0 spends in `calls` calls of `verb` with layout `dt`.
fn timed(shared: bool, verb: &'static str, dt: &Datatype, calls: usize) -> f64 {
    let spec = ClusterSpec::ringlet(2).tuning(Tuning::default().full_ff_comparison());
    let dt = dt.clone();
    let out = run(spec, move |r| {
        let c = Committed::commit(&dt);
        // Room for the layout at every offset the loop rotates through.
        let len = c.extent() + 4096;
        let mut win = window(r, shared, len);
        let mut buf = vec![3u8; c.extent()];
        win.fence(r).expect("opening fence");
        let mut seconds = 0.0;
        if r.rank() == 0 {
            let t0 = Instant::now();
            for i in 0..calls {
                let off = (i % 256) * 16;
                match verb {
                    "put" => win.put(r, 1, off, &buf[..8]),
                    "get" => win.get(r, 1, off, &mut buf[..8]),
                    "accumulate" => win.accumulate(r, 1, off, AccumulateOp::SumI64, &buf[..8]),
                    "put_typed" => win.put_typed(r, 1, off, &c, 1, &buf, 0),
                    _ => win.get_typed(r, 1, off, &c, 1, &mut buf, 0),
                }
                .expect("healthy fabric");
            }
            seconds = t0.elapsed().as_secs_f64();
        }
        win.fence(r).expect("closing fence");
        seconds
    });
    out[0]
}

fn median(mut cell: impl FnMut() -> f64) -> f64 {
    let mut runs: Vec<f64> = (0..RUNS).map(|_| cell()).collect();
    runs.sort_by(f64::total_cmp);
    runs[RUNS / 2]
}

fn main() {
    let byte = Datatype::byte();
    let one_block = Datatype::vector(1, 8, 16, &byte);
    println!("host ns per call, 8-byte payload ({SMALL_CALLS} calls, median of {RUNS})");
    println!("{:<12} {:>10} {:>10}", "verb", "shared", "private");
    for verb in VERBS {
        let cell = |shared| median(|| timed(shared, verb, &one_block, SMALL_CALLS));
        let (shared, private) = (cell(true), cell(false));
        let ns = |s: f64| s * 1e9 / SMALL_CALLS as f64;
        println!("{verb:<12} {:>10.1} {:>10.1}", ns(shared), ns(private));
    }
    println!();
    println!(
        "typed GB/s of payload, 1 MiB per call, shared target ({LARGE_CALLS} calls, median of {RUNS})"
    );
    println!(
        "{:<12} {:>10} {:>10}",
        "block bytes", "put_typed", "get_typed"
    );
    for block in [8, 128, 16_384] {
        let dt = Datatype::vector(LARGE_BYTES / block, block, 2 * block as isize, &byte);
        let gbps = |verb| {
            let seconds = median(|| timed(true, verb, &dt, LARGE_CALLS));
            (LARGE_CALLS * LARGE_BYTES) as f64 / seconds / 1e9
        };
        let (put, get) = (gbps("put_typed"), gbps("get_typed"));
        println!("{block:<12} {put:>10.3} {get:>10.3}");
    }
}

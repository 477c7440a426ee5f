//! Error-handling quickstart: run with `ErrorMode::ErrorsReturn` so fabric
//! failures surface as `Result`s instead of aborting the run, then recover
//! from an injected cable pull by hand.
//!
//! The scenario mirrors what the fault-tolerant layer does on a real
//! SCI cluster: with every direct route to the target severed, a one-sided
//! `put` first reports the failure, the retry demotes the target to
//! control-message emulation and succeeds, and the fence after the cables
//! return re-promotes the target to the direct path.
//!
//! Run: `cargo run --release --example errors_quickstart`

use sci_fabric::LinkId;
use scimpi::prelude::*;

fn main() {
    // Two rings of four nodes: node 0 reaches node 2 either via [0,1] or
    // via the reverse direction [3,2]. ErrorsReturn turns every escalation
    // into an `Err` the application can handle.
    let spec = ClusterSpec::multi_ring(2, 4)
        .errors(ErrorMode::ErrorsReturn)
        .obs(ObsConfig::enabled());

    let (_, report) = run_report(spec, |rank| {
        let mem = rank.alloc_mem(4096).done();
        let mut win = rank.win_create(WinMemory::Alloc(mem)).done();
        win.fence(rank).expect("clean fence");

        if rank.rank() == 0 {
            // Pull both cables on the 0→2 routes: the direct path is gone.
            rank.fabric().faults().fail_link(LinkId(1));
            rank.fabric().faults().fail_link(LinkId(2));

            // First attempt: the direct path fails and, under
            // ErrorsReturn, the error comes back instead of panicking.
            match win.put(rank, 2, 0, b"hello, remote memory") {
                Ok(()) => println!("rank 0: unexpected success (routes are down)"),
                Err(e) => println!("rank 0: direct put failed as expected: {e}"),
            }

            // Retry: the failure count crossed the fallback threshold, so
            // the window demotes target 2 and serves the put through
            // control-message emulation — same bytes, higher latency.
            win.put(rank, 2, 0, b"hello, remote memory")
                .expect("the emulated path must absorb the severed routes");
            println!("rank 0: retry delivered via emulation");

            // Plug the cables back in; the next fence probes the healed
            // primary route and re-promotes the target.
            rank.fabric().faults().restore_link(LinkId(1));
            rank.fabric().faults().restore_link(LinkId(2));
        }

        win.fence(rank).expect("clean fence");

        if rank.rank() == 0 {
            win.put(rank, 2, 2048, b"direct again")
                .expect("the healed route must serve direct puts");
            println!("rank 0: post-heal put went direct");
        }
        win.fence(rank).expect("clean fence");

        if rank.rank() == 2 {
            let mut buf = [0u8; 20];
            win.read_local(rank, 0, &mut buf);
            assert_eq!(&buf, b"hello, remote memory");
            println!("rank 2: payload arrived bit-perfect despite the outage");
        }
        win.fence(rank).expect("clean fence");
    });

    println!("\nrecovery machinery engaged:");
    for (name, value) in report.counters.iter() {
        if value > 0 && (name.starts_with("osc_") || name.contains("route")) {
            println!("  {name:<22} {value}");
        }
    }
}

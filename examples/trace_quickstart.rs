//! Observability quickstart: run a tiny workload with the recorder on,
//! inspect the counters and the wait-state profile of the report the run
//! returns, and write the Chrome trace + counter dump + `PROFILE`
//! document.
//!
//! Run: `cargo run --release --example trace_quickstart`
//! Then open `trace_quickstart.json` in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing` — one lane per rank, virtual time on the axis.

use scimpi::prelude::*;

fn main() {
    let spec = ClusterSpec::ringlet(4).obs(
        ObsConfig::with_trace("trace_quickstart.json")
            .and_counters("trace_quickstart_counters.jsonl")
            .and_profile("PROFILE_trace_quickstart.json"),
    );

    let (_, report) = run_report(spec, |rank| {
        // A small eager message and a large rendezvous message 0 -> 1.
        if rank.rank() == 0 {
            rank.send(1, 0, &[1u8; 256]).done();
            rank.send(1, 1, &vec![2u8; 128 * 1024]).done();
        } else if rank.rank() == 1 {
            let mut small = [0u8; 256];
            rank.recv(Source::Rank(0), TagSel::Value(0), &mut small)
                .done();
            let mut large = vec![0u8; 128 * 1024];
            rank.recv(Source::Rank(0), TagSel::Value(1), &mut large)
                .done();
        }

        // A shared window and a direct one-sided put 2 -> 3.
        let mem = rank.alloc_mem(4096).done();
        let mut win = rank.win_create(WinMemory::Alloc(mem)).done();
        win.fence(rank).done();
        if rank.rank() == 2 {
            win.put(rank, 3, 0, b"one-sided").done();
        }
        win.fence(rank).done();
    });

    // The run returns its report (the files were written at teardown from
    // the same recording).
    println!("protocol decisions taken:");
    for (name, value) in report.counters.iter() {
        if value > 0 {
            println!("  {name:<22} {value}");
        }
    }
    // So is the wait-state profile: where each rank's virtual time went,
    // and which dependency chain bounded the run.
    let profile = report.profile.expect("profile built at teardown");
    println!("\n{}", obs::report::render_table(&profile));
    println!("{}", obs::report::render_critical_path(&profile));

    println!("wrote trace_quickstart.json (open in Perfetto / chrome://tracing)");
    println!("wrote trace_quickstart_counters.jsonl");
    println!("wrote PROFILE_trace_quickstart.json");
}

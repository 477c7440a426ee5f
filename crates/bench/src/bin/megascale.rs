//! Megascale smoke test for the event scheduler: can it carry four
//! orders of magnitude more ranks than the determinism suite ever runs,
//! at bounded memory and bounded wall-clock?
//!
//! Every rank runs a tiny but representative slice of the runtime —
//! a barrier, a parity-split eager ring exchange, and an allreduce —
//! so the run sweeps the mailbox path, the time barrier and the
//! collective tree through one shared event queue. The interesting
//! numbers are the scheduler's own statistics: total dispatch events,
//! the ready-heap high-water mark (bounded by the rank count — a
//! barrier release wakes the whole cluster at once, and that is the
//! worst case the heap ever holds) and the stall-round count (zero in
//! a healthy run — nobody needed a liveness sweep).
//!
//! The rank count comes from `MEGASCALE_RANKS` (default 4096, the CI
//! budget); the acceptance run uses 10000+. Virtual finish time and
//! every scheduler statistic are deterministic for a given rank count,
//! and they are all the JSON document holds. The wall-clock throughput
//! (ranks per second) is machine-dependent, so it is printed only; host
//! time is measured by `benchmark/` (`scale_ring`).
//!
//! Run: `cargo run --release -p repro-bench --bin megascale`

use obs::json::num;
use scimpi::{ClusterSpec, ReduceOp, Source, TagSel};
use simclock::SimTime;

const MSG_BYTES: usize = 64; // firmly eager: one mailbox deposit per hop

fn ranks_from_env() -> usize {
    match std::env::var("MEGASCALE_RANKS") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("MEGASCALE_RANKS={s:?} is not a rank count: {e}")),
        Err(_) => 4096,
    }
}

fn spec(ranks: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::ringlet(ranks);
    spec.seed = 20020415; // IPPS 2002
    spec
}

/// One full run: returns the cluster-wide virtual finish time and the
/// scheduler statistics of the run.
fn megascale_run(ranks: usize) -> (SimTime, sched::Stats) {
    let (times, report) = scimpi::run_report(spec(ranks), move |r| {
        let me = r.rank();
        let n = r.size();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        r.barrier();
        // Parity-split ring exchange: evens talk first, odds listen
        // first, so no rank ever blocks on a peer that is itself
        // blocked sending. Needs an even rank count.
        let payload = vec![(me & 0xff) as u8; MSG_BYTES];
        let mut buf = [0u8; MSG_BYTES];
        if me % 2 == 0 {
            r.send(right, 7, &payload).unwrap();
            r.recv(Source::Rank(left), TagSel::Value(7), &mut buf)
                .unwrap();
        } else {
            r.recv(Source::Rank(left), TagSel::Value(7), &mut buf)
                .unwrap();
            r.send(right, 7, &payload).unwrap();
        }
        assert_eq!(buf[0] as usize, left & 0xff, "ring payload corrupted");
        let mut sum = [1.0f64];
        r.allreduce(&mut sum, ReduceOp::Sum).unwrap();
        assert_eq!(sum[0] as usize, n, "allreduce lost a rank");
        r.barrier();
        r.now()
    });
    let finish = times.into_iter().max().expect("nonempty cluster");
    let stats = report.event_stats.expect("scheduler statistics");
    (finish, stats)
}

fn main() {
    let ranks = ranks_from_env();
    assert!(
        ranks >= 2 && ranks.is_multiple_of(2),
        "megascale needs an even rank count >= 2"
    );
    println!("== Megascale event-backend smoke: {ranks} ranks ==\n");

    let wall = std::time::Instant::now();
    let (finish, stats) = megascale_run(ranks);
    let elapsed = wall.elapsed();
    let ranks_per_sec = ranks as f64 / elapsed.as_secs_f64();

    println!("virtual finish time:    {finish}");
    println!("dispatch events:        {}", stats.events);
    println!("ready-heap high water:  {}", stats.ready_high_water);
    println!("tasks high water:       {}", stats.tasks_high_water);
    println!("stall rounds:           {}", stats.stalls);
    println!(
        "wall clock:             {:.2} s  ({:.0} ranks/s)",
        elapsed.as_secs_f64(),
        ranks_per_sec
    );

    // Memory-boundedness: the ready heap never exceeds the rank count
    // (the worst case is a barrier release readying the whole cluster),
    // so queue memory is O(ranks), not O(events).
    assert!(
        stats.ready_high_water <= ranks,
        "ready heap ({}) exceeded the rank count ({ranks})",
        stats.ready_high_water
    );
    assert_eq!(
        stats.tasks_high_water, ranks,
        "every rank must be a live task at the first barrier"
    );

    let json = format!(
        "{{\"bench\":\"megascale\",\"ranks\":{ranks},\
         \"msg_bytes\":{MSG_BYTES},\"finish_us\":{},\"events\":{},\
         \"ready_high_water\":{},\"tasks_high_water\":{},\"stalls\":{},\
         \"deterministic\":true}}\n",
        num(finish.as_ps() as f64 / 1e6),
        stats.events,
        stats.ready_high_water,
        stats.tasks_high_water,
        stats.stalls,
    );
    match std::fs::write("BENCH_megascale.json", &json) {
        Ok(()) => println!("\nwrote BENCH_megascale.json"),
        Err(e) => eprintln!("BENCH_megascale.json not written: {e}"),
    }
}

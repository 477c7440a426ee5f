//! Compute/communication overlap bought by the nonblocking request
//! engine, measured on a ring halo exchange at rendezvous sizes.
//!
//! Every rank ships two 128 KiB halo rows to its right neighbour each
//! iteration (receiving the matching rows from the left — routes stay
//! link-disjoint, so the run is bit-identical under a fixed seed) and
//! then works on its interior points. The *blocking* arm exchanges
//! first and computes after; the *nonblocking* arm posts
//! `isend`/`irecv`, computes while the wire drains, and `waitall`s.
//! The compute grain is swept relative to the calibrated communication
//! time of one iteration, which is where the overlap story lives: at
//! small grains there is little to hide behind, near 1:1 the transfer
//! disappears almost entirely, far past 1:1 compute dominates both
//! arms and the *relative* saving shrinks again.
//!
//! The binary asserts the paper-era promise the engine exists for — at
//! a 1:1 grain, 4 ranks must save at least 25 % of virtual time — and
//! that two same-seed runs agree bit for bit.
//!
//! Run: `cargo run --release -p repro-bench --bin overlap_halo`

use obs::json::{self, Json};
use obs::{Counter, WaitKind};
use repro_bench::jsonout::write_reported;
use scimpi::{ClusterSpec, ObsConfig, RecvBuf, SendData, Source, TagSel};
use simclock::stats::Table;
use simclock::{SimDuration, SimTime};

const RANKS: usize = 4;
const HALO_BYTES: usize = 128 * 1024; // rendezvous territory
const ROWS: usize = 2; // halo rows per iteration
const ITERS: usize = 6;

/// Compute grain per iteration as a multiple of the calibrated
/// per-iteration communication time.
const GRAINS: [f64; 4] = [0.25, 0.5, 1.0, 2.0];

/// The engine tasks draw eager credits in dispatch order, so the
/// document reproduces byte for byte.
fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::ringlet(RANKS).obs(ObsConfig::enabled());
    spec.seed = 20020415; // IPPS 2002
    spec
}

/// What one full run of the halo loop measured: the cluster-wide finish
/// time plus the wait-state attribution the profiler recorded for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RunStats {
    finish: SimTime,
    /// Sum of every rank's classified wait time \[ps\].
    wait_ps: u64,
    /// The request-wait share of `wait_ps` \[ps\].
    request_wait_ps: u64,
    /// `Counter::OverlapSavedNs` credited by the request engine \[ns\].
    credited_ns: u64,
}

/// One full run of the halo loop: its statistics and the profile they
/// were read from.
fn halo_run(nonblocking: bool, compute: SimDuration) -> (RunStats, obs::Profile) {
    let (times, report) = scimpi::run_report(spec(), move |r| {
        let me = r.rank();
        let n = r.size();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let rows: Vec<Vec<u8>> = (0..ROWS)
            .map(|k| {
                (0..HALO_BYTES)
                    .map(|i| (me * 31 + k * 13 + i * 7) as u8)
                    .collect()
            })
            .collect();
        for _ in 0..ITERS {
            if nonblocking {
                let mut rreqs: Vec<_> = (0..ROWS)
                    .map(|k| {
                        r.irecv(Source::Rank(left), TagSel::Value(k as i32), HALO_BYTES)
                            .unwrap()
                    })
                    .collect();
                let mut sreqs: Vec<_> = (0..ROWS)
                    .map(|k| r.isend(right, k as i32, &rows[k]).unwrap())
                    .collect();
                // Interior points: work that does not need the halos.
                r.compute(compute);
                r.waitall(&mut sreqs).unwrap();
                let done = r.waitall(&mut rreqs).unwrap();
                for (k, d) in done.iter().enumerate() {
                    assert_eq!(d.data.len(), HALO_BYTES, "row {k} truncated");
                }
            } else {
                for (k, row) in rows.iter().enumerate() {
                    let mut buf = vec![0u8; HALO_BYTES];
                    r.sendrecv(
                        right,
                        k as i32,
                        SendData::Bytes(row),
                        Source::Rank(left),
                        TagSel::Value(k as i32),
                        RecvBuf::Bytes(&mut buf),
                    )
                    .unwrap();
                }
                r.compute(compute);
            }
            r.barrier();
        }
        r.now()
    });
    let finish = times.into_iter().max().expect("nonempty cluster");
    let profile = report.profile.expect("observability enabled");
    let stats = RunStats {
        finish,
        wait_ps: profile.total_wait_ps(),
        request_wait_ps: profile
            .ranks
            .iter()
            .map(|r| r.wait_ps[WaitKind::RequestWait as usize])
            .sum(),
        credited_ns: report.counters[Counter::OverlapSavedNs],
    };
    (stats, profile)
}

fn main() {
    // Calibrate: the blocking arm with zero compute is pure exchange.
    let comm_only = halo_run(false, SimDuration::ZERO).0.finish;
    let comm_per_iter = SimDuration::from_ps(comm_only.as_ps() / ITERS as u64);
    println!(
        "== Overlap on a {RANKS}-rank ring halo exchange \
         ({ROWS} x {} KiB per iteration, {ITERS} iterations) ==\n",
        HALO_BYTES / 1024
    );
    println!(
        "calibrated communication time: {} us per iteration\n",
        comm_per_iter.as_ps() / 1_000_000
    );

    let mut table = Table::new(vec![
        "compute : comm",
        "blocking [us]",
        "nonblocking [us]",
        "saved",
        "wait blk [us]",
        "wait nb [us]",
        "overlap credited [us]",
    ]);
    let mut points = Vec::new();
    let mut saving_at_parity = 0.0;
    for &grain in &GRAINS {
        let compute = SimDuration::from_ps((comm_per_iter.as_ps() as f64 * grain) as u64);
        let (blocking, _) = halo_run(false, compute);
        let (nonblocking, _) = halo_run(true, compute);
        let t_blocking = blocking.finish;
        let t_nonblocking = nonblocking.finish;
        let credited_ns = nonblocking.credited_ns;
        let saving = 1.0 - t_nonblocking.as_ps() as f64 / t_blocking.as_ps() as f64;
        if grain == 1.0 {
            saving_at_parity = saving;
        }

        // The profiler must agree with the clocks: overlapping transfers
        // with compute removes classified wait time, so the nonblocking
        // arm has to wait strictly less than the blocking arm at every
        // grain.
        assert!(
            nonblocking.wait_ps < blocking.wait_ps,
            "attribution: nonblocking arm must wait less than blocking \
             at grain {grain} (blocking {} ps, nonblocking {} ps)",
            blocking.wait_ps,
            nonblocking.wait_ps
        );

        // Cross-check the engine's self-reported overlap against the
        // profiler. The counter credits every request for the time it was
        // in flight while its rank advanced, so four concurrent requests
        // hiding behind the same compute interval each earn credit for
        // it — the counter upper-bounds the wall-clock wait reduction
        // (measured ratio here: ~0.1 at thin grains, ~0.3 once the
        // transfers hide fully) and can never under-report it.
        let delta_wait_ns = (blocking.wait_ps - nonblocking.wait_ps) / 1_000;
        assert!(
            delta_wait_ns <= credited_ns,
            "attribution: wall-clock wait cut ({delta_wait_ns} ns) cannot \
             exceed the per-request overlap credit ({credited_ns} ns) at \
             grain {grain}"
        );

        table.push_row(vec![
            format!("{grain:.2}"),
            format!("{:.1}", t_blocking.as_ps() as f64 / 1e6),
            format!("{:.1}", t_nonblocking.as_ps() as f64 / 1e6),
            format!("{:.1}%", saving * 100.0),
            format!("{:.1}", blocking.wait_ps as f64 / 1e6),
            format!("{:.1}", nonblocking.wait_ps as f64 / 1e6),
            format!("{:.1}", credited_ns as f64 / 1e3),
        ]);
        let us = |ps: u64| Json::from(ps as f64 / 1e6);
        points.push(Json::obj([
            ("compute_to_comm", grain.into()),
            ("blocking_us", us(t_blocking.as_ps())),
            ("nonblocking_us", us(t_nonblocking.as_ps())),
            ("saving_pct", (saving * 100.0).into()),
            ("wait_blocking_us", us(blocking.wait_ps)),
            ("wait_nonblocking_us", us(nonblocking.wait_ps)),
            ("request_wait_us", us(nonblocking.request_wait_ps)),
            ("overlap_saved_ns", credited_ns.into()),
        ]));

        println!(
            "grain {grain:.2}: wait cut by {:.1} us, engine credited {:.1} us \
             (ratio {:.3})",
            delta_wait_ns as f64 / 1e3,
            credited_ns as f64 / 1e3,
            delta_wait_ns as f64 / credited_ns as f64
        );

        // At a 1:1 grain the compute interval is long enough to hide the
        // whole exchange: the profiler must show the blocking arm's wait
        // time at least 95% eliminated.
        if grain == 1.0 {
            assert!(
                nonblocking.wait_ps * 20 <= blocking.wait_ps,
                "attribution: at 1:1 grain the residual nonblocking wait \
                 ({} ps) must be within 5% of eliminating the blocking \
                 arm's wait ({} ps)",
                nonblocking.wait_ps,
                blocking.wait_ps
            );
        }
    }
    println!("{}", table.render());

    // The engine's reason to exist: at a 1:1 grain the transfers hide
    // behind the compute and the iteration sheds its communication time.
    assert!(
        saving_at_parity >= 0.25,
        "nonblocking overlap must save >= 25% at compute:comm 1:1 \
         (got {:.1}%)",
        saving_at_parity * 100.0
    );

    // Determinism: the same seed must reproduce the nonblocking arm's
    // virtual time, the profiler's attribution of it and the overlap
    // credit exactly, engine tasks and all.
    let compute = comm_per_iter;
    let (once, _) = halo_run(true, compute);
    let (twice, profile) = halo_run(true, compute);
    assert_eq!(
        once, twice,
        "same-seed nonblocking runs must be bit-identical"
    );
    println!(
        "\nsaving at 1:1 grain: {:.1}% (>= 25% required); \
         same-seed virtual times and wait attribution bit-identical ({})",
        saving_at_parity * 100.0,
        once.finish
    );

    let doc = Json::obj([
        ("bench", "overlap_halo".into()),
        ("ranks", RANKS.into()),
        ("halo_bytes", HALO_BYTES.into()),
        ("rows", ROWS.into()),
        ("iters", ITERS.into()),
        (
            "comm_per_iter_us",
            (comm_per_iter.as_ps() as f64 / 1e6).into(),
        ),
        ("saving_at_parity_pct", (saving_at_parity * 100.0).into()),
        ("deterministic", true.into()),
        ("points", Json::arr(points).lines()),
    ]);
    write_reported("BENCH_overlap_halo.json", &json::render(&doc));
    // The wait-state profile of the last (parity-grain) run travels next
    // to the bench document, like every BenchDoc-based binary.
    write_reported(
        "PROFILE_overlap_halo.json",
        &obs::report::profile_json(&profile),
    );
}

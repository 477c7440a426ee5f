//! What running every task as a coroutine on the launching thread
//! promises, end to end:
//!
//! * rank bodies run on the thread that called `run` (engines and
//!   `sendrecv` send halves are spawned tasks, pinned by the `sched` and
//!   `request` unit tests);
//! * state kept in thread-locals follows its task across switches: a
//!   rank parked inside a collective's reliable section does not make
//!   another rank's sends reliable, a rank parked inside `shrink` does
//!   not exempt another from revocation, and each rank's attribution and
//!   trace events land in its own lane;
//! * a panic in one rank aborts the run: every other rank unwinds,
//!   running its destructors once, and the panic comes out of `run`.

use scimpi::{
    revoke, run, run_report, shrink, ClusterSpec, ErrorMode, ObsConfig, OverloadPolicy,
    ScimpiError, Source, TagSel, Tuning,
};
use simclock::SimDuration;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn every_rank_body_runs_on_the_launching_thread() {
    let launcher = std::thread::current().id();
    let ids = run(ClusterSpec::ringlet(8), |r| {
        let before = std::thread::current().id();
        r.barrier();
        (before, std::thread::current().id())
    });
    assert!(ids.iter().all(|&(a, b)| a == launcher && b == launcher));
}

/// Rank 0 parks inside `bcast`'s reliable section, waiting for rank 2.
/// Meanwhile rank 1 sends rank 2 more eager messages than its two credit
/// slots cover under `OverloadPolicy::Error`: the third must be refused
/// with `ResourceExhausted`, as outside any reliable section, not stall
/// until rank 2 returns credits.
#[test]
fn a_reliable_section_stays_with_its_rank() {
    let tuning = Tuning {
        eager_credit_slots: 2,
        overload_policy: OverloadPolicy::Error,
        ..Tuning::default()
    };
    let spec = ClusterSpec::ringlet(3)
        .tuning(tuning)
        .errors(ErrorMode::ErrorsReturn);
    let third = run(spec, |r| {
        let mut verdict = None;
        if r.rank() == 1 {
            r.send(2, 3, &[1; 64]).expect("first slot");
            r.send(2, 3, &[2; 64]).expect("second slot");
            verdict = Some(r.send(2, 3, &[3; 64]));
        }
        if r.rank() == 2 {
            let mut buf = [0u8; 64];
            for _ in 0..2 {
                r.recv(Source::Rank(1), TagSel::Value(3), &mut buf).unwrap();
            }
        }
        let mut buf = [7u8; 8];
        r.bcast(2, &mut buf).unwrap();
        verdict
    });
    let third = third[1].clone().expect("rank 1 sent");
    assert!(
        matches!(third, Err(ScimpiError::ResourceExhausted { .. })),
        "a send outside any reliable section was not refused: {third:?}"
    );
}

/// Rank 0 revokes and parks inside `shrink`, exempt from revocation
/// while it agrees on the survivors. Rank 1's receive from rank 0, which
/// will never send, must fail with `Revoked` before rank 1 joins the
/// shrink.
#[test]
fn a_revocation_exemption_stays_with_its_rank() {
    let spec = ClusterSpec::ringlet(2).errors(ErrorMode::ErrorsReturn);
    let got = run(spec, |r| {
        let mut verdict = None;
        if r.rank() == 0 {
            revoke(r);
        } else {
            let mut buf = [0u8; 8];
            verdict = Some(r.recv(Source::Rank(0), TagSel::Value(5), &mut buf));
        }
        shrink(r).expect("both ranks survive");
        verdict
    });
    let verdict = got[1].clone().expect("rank 1 received");
    assert!(
        matches!(verdict, Err(ScimpiError::Revoked)),
        "a receive outside the recovery protocol was not revoked: {verdict:?}"
    );
}

/// Each rank computes its own amount after a barrier (every rank has
/// parked by then) and sends once round the ring: its compute time and
/// its send span must land in its own lane.
#[test]
fn each_rank_records_into_its_own_lane() {
    const RANKS: usize = 4;
    let trace = std::env::temp_dir().join(format!("scimpi_tasks_{}.json", std::process::id()));
    let spec = ClusterSpec::ringlet(RANKS).obs(ObsConfig::with_trace(&trace));
    let (_, report) = run_report(spec, |r| {
        r.barrier();
        r.compute(SimDuration::from_us(r.rank() as u64 + 1));
        let next = (r.rank() + 1) % RANKS;
        let prev = (r.rank() + RANKS - 1) % RANKS;
        r.send(next, 9, &[r.rank() as u8; 16]).unwrap();
        r.recv(Source::Rank(prev), TagSel::Value(9), &mut [0u8; 16])
            .unwrap();
    });
    let _ = std::fs::remove_file(&trace);
    let profile = report.profile.expect("recording on");
    for (rank, p) in profile.ranks.iter().enumerate() {
        let compute = p.busy_ps[obs::Bucket::Compute as usize];
        assert_eq!(compute, (rank as u64 + 1) * 1_000_000, "rank {rank}");
    }
    let mut sends = [0usize; RANKS];
    for e in report.events.iter().filter(|e| e.name == "p2p.send") {
        sends[e.rank as usize] += 1;
    }
    assert_eq!(sends, [1; RANKS], "one send span per rank lane");
}

/// A panic in one of 64 ranks, parked and ready ranks around it.
#[test]
fn a_panicking_rank_unwinds_every_other_rank_once() {
    const RANKS: usize = 64;
    const BOOM: &str = "boom in rank 17";
    static DROPPED: AtomicUsize = AtomicUsize::new(0);
    struct Counted;
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPPED.fetch_add(1, Ordering::SeqCst);
        }
    }
    let out = std::panic::catch_unwind(|| {
        run(ClusterSpec::ringlet(RANKS), |r| {
            // Every rank but the one that panics holds a counted value.
            let _held = if r.rank() == 17 { None } else { Some(Counted) };
            // Past the barrier ranks 0..17 have run again, ranks 18.. are
            // woken but not resumed yet.
            r.barrier();
            if r.rank() == 17 {
                std::panic::panic_any(BOOM);
            }
            r.barrier();
        })
    });
    let p = out.expect_err("the run must fail");
    assert_eq!(
        p.downcast_ref::<&str>(),
        Some(&BOOM),
        "the original payload"
    );
    assert_eq!(DROPPED.load(Ordering::SeqCst), RANKS - 1);
}

//! Observability is owned by the run: six different clusters launched
//! from six host threads at the same moment each return the report they
//! return when run alone — counter table, profile JSON, peak backlogs and
//! scheduler statistics, byte for byte — and a run with recording off
//! records nothing, neither in its own report nor in a recorder its
//! launching thread is bound to, while recording runs are live beside it.
//! Runs on four threads at once, each taking its coroutine stacks from
//! and handing them back to the process's one list of retired stacks,
//! deliver every payload and finish when they finish alone.

use mpi_datatype::{Committed, Datatype};
use scimpi::{
    run, run_report, ClusterSpec, ObsConfig, Rank, RecvBuf, ReduceOp, SendData, Source, TagSel,
    WinMemory,
};
use simclock::SimTime;
use std::sync::Barrier;

/// Everything of a run that must not depend on what else the process is
/// running: per-rank results and finish times, then the report's counter
/// table, profile JSON, peak backlogs, scheduler statistics and trace
/// events in recording order.
type Outcome = (
    Vec<(u64, SimTime)>,
    obs::CounterTable,
    String,
    Vec<obs::PeakBacklog>,
    Option<scimpi::EventStats>,
    Vec<obs::TraceEvent>,
);

type Scenario = (usize, fn() -> ObsConfig, fn(&mut Rank) -> u64);

/// Recording on with a trace file, the only way a run keeps its events.
/// The file is named after the launching thread, so traced scenarios
/// running side by side never share one.
fn traced() -> ObsConfig {
    let name = format!(
        "scimpi_concurrent_{}_{:?}.json",
        std::process::id(),
        std::thread::current().id()
    );
    ObsConfig::with_trace(std::env::temp_dir().join(name))
}

fn outcome(&(ranks, recording, body): &Scenario) -> Outcome {
    let spec = ClusterSpec::ringlet(ranks).obs(recording());
    let trace = spec.obs.trace_path.clone();
    // A recording-off run is launched under a live binding of its own:
    // whatever its hooks reached would show up there.
    let outer = obs::Recorder::with_events();
    let bound = (!spec.obs.enabled).then(|| outer.bind(0));
    let (per_rank, report) = run_report(spec.seed(20020415), |r| (body(r), r.now()));
    drop(bound);
    if let Some(path) = trace {
        let _ = std::fs::remove_file(path);
    }
    assert_eq!(outer.counters(), obs::CounterTable::default());
    assert!(outer.take_events().is_empty());
    assert_eq!(obs::report::build(&outer), obs::Profile::default());
    let profile = report.profile_json();
    (
        per_rank,
        report.counters,
        profile,
        report.peak_backlogs,
        report.event_stats,
        report.events,
    )
}

fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0, |d, &b| {
        d.wrapping_mul(1_000_003).wrapping_add(u64::from(b))
    })
}

/// The rendezvous pair `backend_diff::diff_p2p_rendezvous_pair` pins
/// across backends: a 600 KB transfer and a small message back.
fn pingpong(r: &mut Rank) -> u64 {
    let mut buf = vec![0u8; 600_000];
    if r.rank() == 0 {
        let data: Vec<u8> = (0..600_000).map(|i| (i * 13) as u8).collect();
        r.send(1, 7, &data).unwrap();
        r.recv(Source::Rank(1), TagSel::Value(8), &mut buf[..32])
            .unwrap();
    } else {
        r.recv(Source::Rank(0), TagSel::Value(7), &mut buf).unwrap();
        r.send(0, 8, &buf[..32]).unwrap();
    }
    digest(&buf)
}

/// The traffic `obs_paths` attributes path by path, in one program: an
/// eager send, a put into a shared window, a fence.
fn send_put_fence(r: &mut Rank) -> u64 {
    let mem = r.alloc_mem(1024).unwrap();
    let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
    let mut buf = [0u8; 128];
    if r.rank() == 0 {
        r.send(1, 0, &[7u8; 128]).unwrap();
        win.put(r, 1, 0, &[3u8; 64]).unwrap();
    } else {
        r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
    }
    win.fence(r).unwrap();
    digest(&buf)
}

/// An allreduce, then every even rank sends its odd neighbour a strided
/// vector that both sides commit inside the run.
fn allreduce_typed(r: &mut Rank) -> u64 {
    let mut sum = [r.rank() as f64 + 1.0];
    r.allreduce(&mut sum, ReduceOp::Sum).unwrap();
    let c = Committed::commit(&Datatype::vector(19, 3, 7, &Datatype::double()));
    let mut buf: Vec<u8> = (0..c.extent()).map(|i| (i * 5 + r.rank()) as u8).collect();
    if r.rank().is_multiple_of(2) {
        r.send_typed(r.rank() + 1, 3, &c, 1, &buf, 0).unwrap();
    } else {
        let from = Source::Rank(r.rank() - 1);
        r.recv_typed(from, TagSel::Value(3), &c, 1, &mut buf, 0)
            .unwrap();
    }
    r.barrier();
    digest(&buf).wrapping_add(sum[0] as u64)
}

/// Two rounds of a ring halo: post both receives and both sends, then
/// wait for all four.
fn halo(r: &mut Rank) -> u64 {
    let (me, n) = (r.rank(), r.size());
    let (left, right) = ((me + n - 1) % n, (me + 1) % n);
    let mut d = 0u64;
    for round in 0..2i32 {
        let row = vec![(me * 31 + round as usize) as u8; 24 * 1024];
        let mut recvs = Vec::new();
        let mut sends = Vec::new();
        for peer in [left, right] {
            let from = Source::Rank(peer);
            recvs.push(r.irecv(from, TagSel::Value(round), row.len()).unwrap());
            sends.push(r.isend(peer, round, &row).unwrap());
        }
        r.waitall(&mut sends).unwrap();
        for done in r.waitall(&mut recvs).unwrap() {
            d = d.wrapping_add(digest(&done.data));
        }
        r.barrier();
    }
    d
}

#[test]
fn concurrent_runs_report_what_they_report_alone() {
    let scenarios: [Scenario; 6] = [
        (2, traced, pingpong),
        (8, traced, allreduce_typed),
        (2, ObsConfig::disabled, pingpong),
        (16, traced, halo),
        (2, ObsConfig::disabled, send_put_fence),
        (8, ObsConfig::enabled, allreduce_typed),
    ];
    let alone: Vec<Outcome> = scenarios.iter().map(outcome).collect();
    assert!(alone[0].1[obs::Counter::RendezvousSends] > 0);
    assert!(alone[1].1[obs::Counter::LayoutCacheMisses] > 0);
    assert!(alone[3].1[obs::Counter::RequestsPosted] > 0);
    assert!(alone.iter().all(|a| a.4.is_some()));
    assert!([0, 1, 3].iter().all(|&i| !alone[i].5.is_empty()));
    // Without a trace file: the same run and recording, no events.
    let mut traced_twin = alone[1].clone();
    traced_twin.5.clear();
    assert_eq!(alone[5], traced_twin);
    for off in [&alone[2], &alone[4]] {
        assert_eq!(
            (off.1, off.2.as_str(), off.3.len(), off.5.len()),
            (obs::CounterTable::default(), "", 0, 0),
            "an obs-off run reports nothing"
        );
    }

    for round in 0..20 {
        let start = Barrier::new(scenarios.len());
        let together: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> = scenarios
                .iter()
                .map(|sc| {
                    s.spawn(|| {
                        start.wait();
                        outcome(sc)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (t, a)) in together.iter().zip(&alone).enumerate() {
            assert_eq!(
                t, a,
                "round {round}: scenario {i} differs from its solo run"
            );
        }
    }
}

/// Two rounds of a 256-rank ring of rendezvous `sendrecv`s, each send
/// half a task of its own: 512 coroutine stacks live at once. Message
/// length and contents depend on `variant`; every payload is checked.
/// Returns each rank's finish time.
fn rendezvous_ring(variant: usize) -> Vec<SimTime> {
    run(ClusterSpec::ringlet(256), |r| {
        let (me, n) = (r.rank(), r.size());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let len = 20_000 + 1_000 * variant;
        let row = |from: usize| {
            ((from * THREADS + variant) as u32)
                .to_le_bytes()
                .repeat(len / 4)
        };
        let mut buf = vec![0u8; len];
        for round in 0..2 {
            r.sendrecv(
                right,
                round,
                SendData::Bytes(&row(me)),
                Source::Rank(left),
                TagSel::Value(round),
                RecvBuf::Bytes(&mut buf),
            )
            .unwrap();
            assert!(buf == row(left), "rank {me}, round {round}: bad payload");
        }
        r.now()
    })
}

const THREADS: usize = 4;

#[test]
fn concurrent_runs_share_the_retired_stacks() {
    let alone: Vec<Vec<SimTime>> = (0..THREADS).map(rendezvous_ring).collect();
    for round in 0..3 {
        let start = Barrier::new(THREADS);
        let together: Vec<Vec<SimTime>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|variant| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        rendezvous_ring(variant)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (variant, (t, a)) in together.iter().zip(&alone).enumerate() {
            assert!(
                t == a,
                "round {round}: variant {variant}'s finish times differ from its solo run"
            );
        }
    }
}

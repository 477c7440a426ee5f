//! The wait-state profiler's contract: attribution must never perturb
//! virtual time, same-seed runs must serialize byte-identical
//! `PROFILE_*.json` documents and record the same trace events in the
//! same order, and the per-rank decomposition must be conservative —
//! `compute + pack + transfer + wait + other == makespan`, exactly, for
//! every rank.

use scimpi::{run, run_report, ClusterSpec, ObsConfig, Rank, ReduceOp, Source, TagSel, WinMemory};
use simclock::{SimDuration, SimTime};

const RANKS: usize = 4;

/// A deterministic blocking workload that exercises every stall site
/// class: skewed compute (late senders + barrier waits), rendezvous and
/// eager p2p, collectives, and one-sided puts through a shared window.
fn workload(r: &mut Rank) -> SimTime {
    let me = r.rank();
    let n = r.size();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;

    // Rank-dependent grain: the skew is what produces classified waits.
    r.compute(SimDuration::from_ns(50_000 * (me as u64 + 1)));

    // Rendezvous-sized ring exchange (link-disjoint, deterministic).
    let big = vec![me as u8; 96 * 1024];
    let mut from_left = vec![0u8; 96 * 1024];
    r.sendrecv(
        right,
        7,
        scimpi::SendData::Bytes(&big),
        Source::Rank(left),
        TagSel::Value(7),
        scimpi::RecvBuf::Bytes(&mut from_left),
    )
    .unwrap();
    assert!(from_left.iter().all(|&b| b == left as u8));

    // Eager-sized exchange the other way.
    let small = [me as u8; 64];
    let mut from_right = [0u8; 64];
    r.sendrecv(
        left,
        8,
        scimpi::SendData::Bytes(&small),
        Source::Rank(right),
        TagSel::Value(8),
        scimpi::RecvBuf::Bytes(&mut from_right),
    )
    .unwrap();

    // Collectives.
    let mut root_word = if me == 0 { [42u8; 32] } else { [0u8; 32] };
    r.bcast(0, &mut root_word).unwrap();
    assert_eq!(root_word, [42u8; 32]);
    let mut sums = [me as f64];
    r.allreduce(&mut sums, ReduceOp::Sum).unwrap();
    assert_eq!(sums[0], (0..n).map(|x| x as f64).sum::<f64>());

    // One-sided traffic through a shared window.
    let mem = r.alloc_mem(256).unwrap();
    let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
    win.fence(r).unwrap();
    if me == 0 {
        win.put(r, 1, 0, &[9u8; 128]).unwrap();
    }
    win.fence(r).unwrap();

    r.barrier();
    r.now()
}

/// Every rank's decomposition sums to its makespan exactly, the makespan
/// is the rank's final clock value, and some of it is busy time.
fn assert_conservative(profile: &obs::Profile, finished: &[SimTime]) {
    assert_eq!(profile.ranks.len(), finished.len());
    for p in &profile.ranks {
        assert_eq!(
            p.total_busy_ps() + p.total_wait_ps() + p.other_ps,
            p.makespan_ps,
            "rank {} decomposition does not sum to its makespan",
            p.rank
        );
        assert_eq!(
            p.makespan_ps,
            finished[p.rank as usize].as_ps(),
            "rank {} profiled makespan disagrees with its clock",
            p.rank
        );
        assert!(
            p.total_busy_ps() > 0,
            "rank {} recorded no busy time",
            p.rank
        );
    }
}

fn spec(obs: ObsConfig) -> ClusterSpec {
    let mut spec = ClusterSpec::ringlet(RANKS).obs(obs);
    spec.seed = 20020415;
    spec
}

#[test]
fn profiler_is_deterministic_and_conservative() {
    // --- 1. Attribution must not move any clock: the same seed gives
    // bit-identical per-rank finish times with the recorder enabled,
    // with it disabled, and across repeated enabled runs. ---
    let (with_obs, report) = run_report(spec(ObsConfig::enabled()), workload);
    let first_json = report.profile_json();
    let conservation = report.profile.expect("profile built at teardown");
    let without_obs = run(spec(ObsConfig::disabled()), workload);
    assert_eq!(
        with_obs, without_obs,
        "recording attribution perturbed virtual time"
    );

    // --- 2. Conservation: every rank's decomposition sums to its
    // makespan exactly, with real time in every class this workload
    // exercises. ---
    assert_conservative(&conservation, &with_obs);
    // The skewed grains force someone to wait.
    assert!(conservation.total_wait_ps() > 0, "no wait time classified");
    assert!(
        !conservation.families.is_empty(),
        "no span families recorded"
    );
    assert!(
        !conservation.critical_path.hops.is_empty(),
        "no critical path extracted"
    );

    // --- 3. Same seed, same bytes: a second profiled run returns, and
    // writes, the PROFILE document of the first. ---
    let path = std::env::temp_dir().join(format!("scimpi_profile_{}.json", std::process::id()));
    let (_, again) = run_report(spec(ObsConfig::enabled().and_profile(&path)), workload);
    let written = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(
        written.contains("\"schema\":\"scimpi-profile-v1\""),
        "profile document missing schema marker"
    );
    assert_eq!(written, again.profile_json(), "file is not the report");
    assert_eq!(written, first_json, "same-seed PROFILE documents differ");
}

/// [`workload`]; then two eager messages that sit in rank 1's queue
/// until it receives them late; then one eager message from every rank
/// to its right neighbour that nobody receives: it is still queued at
/// teardown.
fn workload_leaving_a_message_queued(r: &mut Rank) -> SimTime {
    workload(r);
    let mut buf = [0u8; 32];
    for _ in 0..2 {
        match r.rank() {
            0 => r.send(1, 98, &buf).unwrap(),
            1 => {
                r.compute(SimDuration::from_us(100));
                r.recv(Source::Rank(0), TagSel::Value(98), &mut buf)
                    .unwrap();
            }
            _ => {}
        }
    }
    let right = (r.rank() + 1) % r.size();
    r.send(right, 99, &[r.rank() as u8; 48]).unwrap();
    r.now()
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The profile, counters and peak backlogs of a report, as one digest.
fn report_digest(report: &scimpi::RunReport) -> u64 {
    let mut h = fnv(0xcbf2_9ce4_8422_2325, report.profile_json().as_bytes());
    for (_, v) in report.counters.iter() {
        h = fnv(h, &v.to_le_bytes());
    }
    for p in &report.peak_backlogs {
        for v in [u64::from(p.rank), p.msgs, p.eager_bytes] {
            h = fnv(h, &v.to_le_bytes());
        }
    }
    h
}

/// What [`report_digest`] read for [`workload_leaving_a_message_queued`]
/// when every run kept every trace event (must not move).
const KEPT_EVENTS_DIGEST: u64 = 0x4e8e_cf9c_076e_60cb;

/// FNV-1a of the trace file and of `obs::counters_jsonl` for the kept-events
/// run of [`workload_leaving_a_message_queued`] (must not move: they pin
/// the exporters' bytes, layout included).
const KEPT_TRACE_DIGEST: u64 = 0x3a6e_9f46_5ab7_a12c;
const KEPT_COUNTERS_JSONL_DIGEST: u64 = 0x952e_cbf0_516c_1d54;

/// Keeping the trace events is a view on the recording, not a different
/// recording: the same run with its events kept (a trace file is
/// written) and without reports the same profile, counters and peak
/// backlogs, byte for byte, and the digest they had when every run kept
/// every event. Without a trace file the report keeps no event.
#[test]
fn keeping_trace_events_changes_nothing_else_in_the_report() {
    let path = std::env::temp_dir().join(format!("scimpi_kept_{}.json", std::process::id()));
    let (finished, kept) = run_report(
        spec(ObsConfig::with_trace(&path)),
        workload_leaving_a_message_queued,
    );
    let trace = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let (again, dropped) = run_report(
        spec(ObsConfig::enabled()),
        workload_leaving_a_message_queued,
    );
    assert_eq!(finished, again);
    assert!(!kept.events.is_empty() && trace.contains("p2p.recv"));
    assert_eq!(trace, obs::chrome_trace_json(&kept.events));
    let jsonl = obs::counters_jsonl(&kept.counters, &kept.link_snapshots);
    let digests = (
        fnv(0xcbf2_9ce4_8422_2325, trace.as_bytes()),
        fnv(0xcbf2_9ce4_8422_2325, jsonl.as_bytes()),
    );
    assert_eq!(
        digests,
        (KEPT_TRACE_DIGEST, KEPT_COUNTERS_JSONL_DIGEST),
        "{:#x} {:#x}",
        digests.0,
        digests.1
    );
    assert!(dropped.events.is_empty(), "no trace file, no events");

    assert_eq!(kept.profile_json(), dropped.profile_json());
    assert_eq!(kept.counters, dropped.counters);
    assert_eq!(kept.peak_backlogs, dropped.peak_backlogs);
    assert_eq!(kept.peak_backlogs.len(), RANKS);
    assert!(
        kept.peak_backlogs.iter().all(|p| p.msgs >= 1),
        "every rank holds its unreceived message at teardown"
    );
    assert!(kept.peak_backlogs[1].msgs >= 2, "rank 1 received late");
    assert_eq!(
        report_digest(&kept),
        KEPT_EVENTS_DIGEST,
        "{:#x}",
        report_digest(&kept)
    );
}

/// A 2-rank ping-pong long enough that its critical path — which changes
/// rank at every message — runs into the extraction's hop cap, and that
/// each rank hands a few thousand waits to the recorder when its binding
/// drops.
#[test]
fn long_ping_pong_profile_is_exact_deterministic_and_says_it_is_truncated() {
    const ROUND_TRIPS: usize = 3_000;
    fn ping_pong(r: &mut Rank) -> SimTime {
        let peer = 1 - r.rank();
        let mut buf = [r.rank() as u8; 64];
        for _ in 0..ROUND_TRIPS {
            if r.rank() == 0 {
                r.send(peer, 3, &buf).unwrap();
                r.recv(Source::Rank(peer), TagSel::Value(3), &mut buf)
                    .unwrap();
            } else {
                r.recv(Source::Rank(peer), TagSel::Value(3), &mut buf)
                    .unwrap();
                r.send(peer, 3, &buf).unwrap();
            }
        }
        r.now()
    }
    let spec = |obs| {
        let mut spec = ClusterSpec::ringlet(2).obs(obs);
        spec.seed = 20020415;
        spec
    };

    let (with_obs, report) = run_report(spec(ObsConfig::enabled()), ping_pong);
    let without_obs = run(spec(ObsConfig::disabled()), ping_pong);
    assert_eq!(
        with_obs, without_obs,
        "recording attribution perturbed virtual time"
    );

    let json = report.profile_json();
    let profile = report.profile.expect("profile built at teardown");
    assert_conservative(&profile, &with_obs);
    assert!(profile.ranks.iter().all(|p| p.total_wait_ps() > 0));

    let path = &profile.critical_path;
    assert!(path.truncated, "{} hops and not truncated", path.hops.len());
    assert_eq!(path.hops.last().unwrap().end_ps, path.makespan_ps);
    assert!(path.hops[0].start_ps > 0);
    assert!(obs::report::render_critical_path(&profile).contains("hops kept, older ones dropped"));

    let (_, again) = run_report(spec(ObsConfig::enabled()), ping_pong);
    assert_eq!(
        json,
        again.profile_json(),
        "same-seed PROFILE documents differ"
    );
}

/// The trace is a function of the run: hooks fire in the order the run
/// token visits them, so two same-seed runs record the same events in the
/// same order and export the same Chrome trace, byte for byte.
#[test]
fn same_seed_runs_record_the_same_trace() {
    fn traced(r: &mut Rank) {
        let (me, n) = (r.rank(), r.size());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        // Eager ring.
        let mut small = [0u8; 64];
        r.sendrecv(
            right,
            1,
            scimpi::SendData::Bytes(&[me as u8; 64]),
            Source::Rank(left),
            TagSel::Value(1),
            scimpi::RecvBuf::Bytes(&mut small),
        )
        .unwrap();
        // One rendezvous sendrecv: the send half forks a task.
        let mut big = vec![0u8; 96 * 1024];
        r.sendrecv(
            right,
            2,
            scimpi::SendData::Bytes(&vec![me as u8; 96 * 1024]),
            Source::Rank(left),
            TagSel::Value(2),
            scimpi::RecvBuf::Bytes(&mut big),
        )
        .unwrap();
        // An isend/irecv pair on pooled engine tasks.
        let mut recv = r
            .irecv(Source::Rank(left), TagSel::Value(3), 150_000)
            .unwrap();
        let mut send = r.isend(right, 3, &vec![me as u8; 150_000]).unwrap();
        r.compute(SimDuration::from_us(40 * (me as u64 + 1)));
        r.wait(&mut send).unwrap();
        r.wait(&mut recv).unwrap();
        // A fence epoch.
        let mem = r.alloc_mem(256).unwrap();
        let mut win = r.win_create(WinMemory::Alloc(mem)).unwrap();
        win.fence(r).unwrap();
        win.put(r, right, 0, &[me as u8; 128]).unwrap();
        win.fence(r).unwrap();
    }
    let path = std::env::temp_dir().join(format!("scimpi_same_seed_{}.json", std::process::id()));
    let spec = || ClusterSpec::ringlet(RANKS).obs(ObsConfig::with_trace(&path));
    let (_, first) = run_report(spec(), traced);
    let (_, second) = run_report(spec(), traced);
    let _ = std::fs::remove_file(&path);
    for name in ["p2p.recv", "p2p.rendezvous_data", "req.lifetime", "osc.put"] {
        let seen = first.events.iter().any(|e| e.name == name);
        assert!(seen, "no `{name}` event recorded");
    }
    assert_eq!(first.events, second.events, "recording order differs");
    assert_eq!(
        obs::chrome_trace_json(&first.events),
        obs::chrome_trace_json(&second.events),
        "same-seed trace documents differ"
    );
}

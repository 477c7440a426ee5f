//! The profile report: per-rank attribution table, span-family latency
//! histograms, and the critical path, serialized as
//! `PROFILE_<name>.json`.
//!
//! `scimpi::run_report` builds the profile at teardown (after the
//! per-rank makespans are recorded) and returns it in the run's
//! `RunReport`; harnesses read it from there or write its
//! [`profile_json`] next to their `BENCH_<name>.json`. Every field is an integer
//! picosecond/nanosecond count, so same-seed runs serialize
//! byte-identically.

use crate::attrib::{Bucket, WaitKind, BUCKET_COUNT, WAIT_KIND_COUNT};
use crate::critpath::{self, CriticalPath};
use crate::histogram::Histogram;
use crate::json::{self, Json};
use crate::recorder::Recorder;
use std::collections::BTreeMap;

/// One rank's virtual-time decomposition. The identity
/// `compute + pack + transfer + wait + other == makespan` holds exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankProfile {
    /// The rank.
    pub rank: u32,
    /// Final clock value, ps.
    pub makespan_ps: u64,
    /// Busy sums indexed by [`Bucket`], ps.
    pub busy_ps: [u64; BUCKET_COUNT],
    /// Wait sums indexed by [`WaitKind`], ps.
    pub wait_ps: [u64; WAIT_KIND_COUNT],
    /// Time charged to no bucket (uninstrumented costs), ps.
    pub other_ps: u64,
}

impl RankProfile {
    /// Total classified wait time, ps.
    pub fn total_wait_ps(&self) -> u64 {
        self.wait_ps.iter().sum()
    }

    /// Total busy time across the three buckets, ps.
    pub fn total_busy_ps(&self) -> u64 {
        self.busy_ps.iter().sum()
    }
}

/// Latency histogram for one span family (all spans sharing a name).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanFamily {
    /// The span name (e.g. `p2p.recv`).
    pub name: String,
    /// Histogram over the spans' durations.
    pub hist: Histogram,
}

/// The full report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Per-rank decomposition, sorted by rank.
    pub ranks: Vec<RankProfile>,
    /// Per-family latency histograms, sorted by name.
    pub families: Vec<SpanFamily>,
    /// The cross-rank critical path.
    pub critical_path: CriticalPath,
}

impl Profile {
    /// Sum of every rank's classified wait time, ps.
    pub fn total_wait_ps(&self) -> u64 {
        self.ranks.iter().map(RankProfile::total_wait_ps).sum()
    }

    /// The histogram for one span family, if recorded.
    pub fn family(&self, name: &str) -> Option<&Histogram> {
        self.families
            .iter()
            .find(|f| f.name == name)
            .map(|f| &f.hist)
    }
}

/// Build a profile from `rec`'s attribution state and span histograms,
/// as the lanes folded them in (attribution and makespans were recorded
/// through [`crate::attrib`], span durations through [`crate::span`]).
/// A lane reaches the profile once its binding has dropped.
pub fn build(rec: &Recorder) -> Profile {
    let st = rec.attrib.lock().unwrap();
    let makespans: Vec<(u32, u64)> = st.makespans.iter().map(|(&r, &m)| (r, m)).collect();

    let mut ranks: BTreeMap<u32, RankProfile> = BTreeMap::new();
    fn touch(map: &mut BTreeMap<u32, RankProfile>, r: u32) -> &mut RankProfile {
        map.entry(r).or_insert_with(|| RankProfile {
            rank: r,
            ..RankProfile::default()
        })
    }
    for (r, b) in &st.busy {
        touch(&mut ranks, *r).busy_ps = *b;
    }
    for (r, w) in &st.wait_ps {
        touch(&mut ranks, *r).wait_ps = *w;
    }
    for (r, m) in &makespans {
        touch(&mut ranks, *r).makespan_ps = *m;
    }
    for p in ranks.values_mut() {
        let classified = p.total_busy_ps() + p.total_wait_ps();
        // The instrumentation charges each clock movement at most once,
        // so classified time can never exceed the recorded makespan; a
        // rank seen only through busy/wait records (no recorded
        // makespan) gets the classified sum as its makespan.
        debug_assert!(
            p.makespan_ps == 0 || classified <= p.makespan_ps,
            "rank {} over-attributed: {} classified vs {} makespan",
            p.rank,
            classified,
            p.makespan_ps
        );
        p.makespan_ps = p.makespan_ps.max(classified);
        p.other_ps = p.makespan_ps - classified;
    }

    Profile {
        ranks: ranks.into_values().collect(),
        families: st
            .spans
            .iter()
            .map(|(name, hist)| SpanFamily {
                name: name.to_string(),
                hist: hist.clone(),
            })
            .collect(),
        critical_path: critpath::walk(&makespans, &st.waits),
    }
}

/// Serialize a profile as deterministic JSON (integers only, fixed key
/// order).
pub fn profile_json(p: &Profile) -> String {
    let ranks = p.ranks.iter().map(|r| {
        let waits = WaitKind::NAMES
            .iter()
            .zip(&r.wait_ps)
            .map(|(n, &v)| (format!("{n}_ps"), v.into()));
        Json::obj([
            ("rank", r.rank.into()),
            ("makespan_ps", r.makespan_ps.into()),
            ("compute_ps", r.busy_ps[Bucket::Compute as usize].into()),
            ("pack_ps", r.busy_ps[Bucket::Pack as usize].into()),
            ("transfer_ps", r.busy_ps[Bucket::Transfer as usize].into()),
            ("wait_ps", r.total_wait_ps().into()),
            ("other_ps", r.other_ps.into()),
            ("wait_breakdown", Json::obj(waits)),
        ])
    });
    let families = p.families.iter().map(|f| {
        let h = &f.hist;
        let buckets = h.nonzero_buckets().into_iter();
        let buckets = buckets.map(|(i, c)| Json::arr([i.into(), c.into()]));
        Json::obj([
            ("span", f.name.as_str().into()),
            ("count", h.count().into()),
            ("mean_ns", (h.mean_ps() / 1000).into()),
            ("p50_ns", (h.p50() / 1000).into()),
            ("p95_ns", (h.p95() / 1000).into()),
            ("p99_ns", (h.p99() / 1000).into()),
            ("max_ns", (h.max_ps() / 1000).into()),
            ("buckets", Json::arr(buckets)),
        ])
    });
    let cp = &p.critical_path;
    let hops = cp.hops.iter().map(|h| {
        Json::obj([
            ("rank", h.rank.into()),
            ("kind", h.wait.map_or("local", WaitKind::name).into()),
            ("start_ps", h.start_ps.into()),
            ("end_ps", h.end_ps.into()),
            ("peer", h.peer.into()),
            ("slack_ps", h.slack_ps().into()),
        ])
    });
    let critical_path = Json::obj([
        ("makespan_ps", cp.makespan_ps.into()),
        ("bound_rank", cp.bound_rank.into()),
        ("total_slack_ps", cp.total_slack_ps.into()),
        ("hops", Json::arr([]).lines()),
    ]);
    // `critical_path.hops` closes the document, so its up to 4 097 hops
    // are rendered as the streamed tail, one at a time, never held as
    // values all at once.
    json::render_streamed(
        &Json::obj([
            ("schema", "scimpi-profile-v1".into()),
            ("ranks", Json::arr(ranks).lines()),
            ("span_histograms", Json::arr(families).lines()),
            ("critical_path", critical_path),
        ])
        .lines(),
        hops,
    )
}

/// Render a compact human-readable attribution table (used by examples
/// and harness printouts).
pub fn render_table(p: &Profile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "rank", "makespan_us", "compute_us", "pack_us", "transfer_us", "wait_us", "other_us"
    ));
    let us = |ps: u64| ps as f64 / 1e6;
    for r in &p.ranks {
        out.push_str(&format!(
            "{:>4} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}\n",
            r.rank,
            us(r.makespan_ps),
            us(r.busy_ps[Bucket::Compute as usize]),
            us(r.busy_ps[Bucket::Pack as usize]),
            us(r.busy_ps[Bucket::Transfer as usize]),
            us(r.total_wait_ps()),
            us(r.other_ps),
        ));
    }
    out
}

/// Render the critical path as one line per hop.
pub fn render_critical_path(p: &Profile) -> String {
    let cp = &p.critical_path;
    let mut out = format!(
        "critical path (bounding rank {}, makespan {:.1} us, recoverable slack {:.1} us):\n",
        cp.bound_rank,
        cp.makespan_ps as f64 / 1e6,
        cp.total_slack_ps as f64 / 1e6
    );
    if cp.truncated {
        out.push_str(&format!(
            "  (newest {} hops kept, older ones dropped; the slack covers the kept hops)\n",
            cp.hops.len()
        ));
    }
    for h in &cp.hops {
        let label = match (h.wait, h.peer) {
            (Some(k), Some(peer)) => format!("wait[{}] on rank {}", k.name(), peer),
            (Some(k), None) => format!("wait[{}]", k.name()),
            (None, _) => "busy".to_string(),
        };
        out.push_str(&format!(
            "  rank {:>3}  {:>10.1} .. {:>10.1} us  {}\n",
            h.rank,
            h.start_ps as f64 / 1e6,
            h.end_ps as f64 / 1e6,
            label
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimTime;

    #[test]
    fn profile_json_is_deterministic_and_parses() {
        let p = Profile {
            ranks: vec![RankProfile {
                rank: 0,
                makespan_ps: 100,
                busy_ps: [10, 20, 30],
                wait_ps: [5, 5, 10, 0, 10, 0, 0],
                other_ps: 10,
            }],
            families: vec![SpanFamily {
                name: "p2p.send".into(),
                hist: {
                    let mut h = Histogram::new();
                    h.record(1000);
                    h.record(3000);
                    h
                },
            }],
            critical_path: CriticalPath::default(),
        };
        let a = profile_json(&p);
        let b = profile_json(&p.clone());
        assert_eq!(a, b);
        assert_eq!(json::render(&json::parse(&a).unwrap()), a);
        assert!(a.contains("\"compute_ps\":10"));
        assert!(a.contains("\"late_sender_ps\":5"));
        assert!(a.contains("\"span\":\"p2p.send\""));
    }

    /// Record a span of `dur` ps named `name` on the calling thread.
    fn span(name: &'static str, dur: u64) {
        crate::span(name, SimTime::ZERO, SimTime::from_ps(dur), vec![]);
    }

    #[test]
    fn build_groups_span_families() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _bound = rec.bind(0);
                span("a", 10);
                span("b", 20);
                span("a", 30);
            });
        });
        let p = build(&rec);
        assert_eq!(p.families.len(), 2);
        assert_eq!(p.family("a").unwrap().count(), 2);
        assert_eq!(p.family("b").unwrap().count(), 1);
        assert!(p.family("nope").is_none());
    }

    /// `scimpi::run_report` binds the thread that launches the run, runs
    /// the ranks on other lanes, then drops that binding and builds the
    /// profile on the same thread.
    #[test]
    fn a_span_recorded_on_the_launching_thread_reaches_the_profile() {
        let rec = Recorder::new();
        let launcher = rec.bind(0);
        span("setup", 5);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _rank = rec.bind(1);
                span("setup", 7);
            });
        });
        drop(launcher);
        let setup = build(&rec).family("setup").cloned().unwrap();
        assert_eq!((setup.count(), setup.sum_ps()), (2, 12));
    }
}

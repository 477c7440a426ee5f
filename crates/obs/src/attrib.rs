//! Per-rank virtual-time attribution: busy buckets and classified waits.
//!
//! Every picosecond a rank's clock moves is charged to exactly one
//! bucket: it either advanced doing local work (**compute**, **pack**,
//! **transfer**) or it was pushed forward by a merge while blocked on a
//! peer (**wait**, sub-classified Scalasca-style: late-sender,
//! late-receiver, wait-at-barrier, lock-contention, request-wait). Time
//! charged to no bucket surfaces as *other* in the report, so the
//! decomposition is conservative by construction:
//! `compute + pack + transfer + wait + other == makespan`, exactly.
//!
//! Attribution never touches the clocks themselves — the helpers here
//! ([`advance`], [`merge_waited`], [`charged`]) perform the identical
//! clock mutation the call site performed before and only *observe* the
//! delta, so virtual time is bit-identical with attribution on or off.
//!
//! Only bindings explicitly marked with [`set_thread_attrib`] contribute
//! (the runtime marks rank tasks; request-engine and helper tasks stay
//! unmarked so forked clocks are not double-counted — their time shows
//! up at rank level as a request-wait when the completion time merges).

use crate::histogram::Histogram;
use crate::recorder::{with_bound, with_lane};
use simclock::{Clock, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Buckets for time a rank spends moving its own clock forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Bucket {
    /// Application compute charged through `Rank::compute`.
    Compute,
    /// Datatype handling: pack/unpack engines, layout resolution,
    /// checksums, local copies.
    Pack,
    /// Wire work: PIO/DMA stores and reads, control messages, handler
    /// round-trips, stream drains.
    Transfer,
}

/// Number of busy buckets.
pub const BUCKET_COUNT: usize = 3;

impl Bucket {
    /// Stable export names, indexable by `Bucket as usize`.
    pub const NAMES: [&'static str; BUCKET_COUNT] = ["compute", "pack", "transfer"];

    /// The export name of this bucket.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Scalasca-style wait-state classification for merges that pushed a
/// rank's clock forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum WaitKind {
    /// A receiver blocked because the matching send started too late
    /// (envelope or data chunk not yet arrived).
    LateSender,
    /// A sender blocked because the receiver was not ready (CTS pending,
    /// ring slot still occupied, chunk ack outstanding).
    LateReceiver,
    /// Blocked in a barrier (or barrier-backed fence) for the last
    /// arriver.
    Barrier,
    /// Blocked acquiring a shared-memory lock held by another rank.
    Lock,
    /// Blocked on a nonblocking request's completion (`wait`/`waitall`,
    /// drop-bin reaping, helper-clock joins, stream flushes).
    RequestWait,
    /// Blocked in the recovery machinery: a revocation front reaching
    /// this rank, a fault-tolerant agreement round, or a declared-dead
    /// schedule charged while agreeing on membership.
    Recovery,
    /// A sender blocked on exhausted eager credits under
    /// `OverloadPolicy::Stall`, waiting for the receiver to match
    /// messages and grant the credits back (flow-control backpressure).
    Backpressure,
}

/// Number of wait kinds.
pub const WAIT_KIND_COUNT: usize = 7;

impl WaitKind {
    /// Stable export names, indexable by `WaitKind as usize`.
    pub const NAMES: [&'static str; WAIT_KIND_COUNT] = [
        "late_sender",
        "late_receiver",
        "barrier",
        "lock",
        "request_wait",
        "recovery",
        "backpressure",
    ];

    /// The export name of this wait kind.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// One classified wait: rank `rank` was blocked over
/// `[start_ps, end_ps)` of virtual time, optionally on a known peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitEvent {
    /// The rank that was blocked.
    pub rank: u32,
    /// Why it was blocked.
    pub kind: WaitKind,
    /// Virtual time the wait began (clock value before the merge), ps.
    pub start_ps: u64,
    /// Virtual time the wait ended (clock value after the merge), ps.
    pub end_ps: u64,
    /// The peer whose lateness caused the wait, when known.
    pub peer: Option<u32>,
}

impl WaitEvent {
    /// Length of the wait in picoseconds.
    pub fn dur_ps(&self) -> u64 {
        self.end_ps.saturating_sub(self.start_ps)
    }
}

/// The attribution state of one run, owned by its
/// [`Recorder`](crate::Recorder), with the span histograms the lanes
/// folded in beside it.
#[derive(Default)]
pub(crate) struct AttribState {
    /// Span durations by span name, every lane's merged.
    pub(crate) spans: BTreeMap<&'static str, Histogram>,
    /// Per-rank busy sums in picoseconds, indexed by [`Bucket`].
    pub(crate) busy: BTreeMap<u32, [u64; BUCKET_COUNT]>,
    /// Every classified wait: each lane's table as it was recorded, in
    /// the order the bindings dropped (consumers must sort). Kept per
    /// lane so a fold moves the lane's table: one shared table would hold
    /// every wait twice while the last lane folds in.
    pub(crate) lane_waits: Vec<Vec<WaitEvent>>,
    /// Per-rank final clock value at teardown, ps.
    pub(crate) makespans: BTreeMap<u32, u64>,
}

impl AttribState {
    /// Every classified wait, lane by lane.
    pub(crate) fn waits(&self) -> impl Iterator<Item = &WaitEvent> {
        self.lane_waits.iter().flatten()
    }
}

/// Mark (or unmark) the calling thread's binding as contributing to
/// attribution; no-op when unbound. The runtime marks rank tasks;
/// engine/helper tasks with forked clocks must stay unmarked to keep
/// the per-rank sums conservative.
pub fn set_thread_attrib(on: bool) {
    with_lane(|lane| lane.attributing = on);
}

/// Is the calling thread bound and marked for attribution?
pub fn thread_attrib() -> bool {
    with_lane(|lane| lane.attributing).unwrap_or(false)
}

/// Run `f` with attribution suppressed on this thread, restoring the
/// previous state after (also when `f` unwinds). Used around speculative
/// clock excursions that are later rolled back (e.g. `iget` running on a
/// forked-then-restored clock), which must not inflate the rank's busy
/// sums.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_thread_attrib(self.0);
        }
    }
    let _restore = Restore(thread_attrib());
    set_thread_attrib(false);
    f()
}

/// Charge `dur` of busy time to `bucket` on the calling thread's rank.
/// No-op unless the thread is bound to a recorder and marked.
#[inline]
pub fn busy(bucket: Bucket, dur: SimDuration) {
    with_lane(|lane| {
        if lane.attributing {
            lane.busy[bucket as usize] += dur.as_ps();
        }
    });
}

/// Record a classified wait over `[start, end)` on the calling thread's
/// rank. Zero-length waits are dropped. No-op unless bound and marked.
pub fn wait(kind: WaitKind, start: SimTime, end: SimTime, peer: Option<u32>) {
    with_lane(|lane| {
        if lane.attributing && end > start {
            lane.waits.push(WaitEvent {
                rank: lane.rank,
                kind,
                start_ps: start.as_ps(),
                end_ps: end.as_ps(),
                peer,
            });
        }
    });
}

/// `clock.advance(cost)` plus attribution of `cost` to `bucket`.
/// Returns the new time, exactly like [`Clock::advance`].
#[inline]
pub fn advance(clock: &mut Clock, bucket: Bucket, cost: SimDuration) -> SimTime {
    let t = clock.advance(cost);
    busy(bucket, cost);
    t
}

/// `clock.merge(t)` plus classification of any forward jump as a `kind`
/// wait on `peer`. Returns the wait, exactly like [`Clock::merge`].
#[inline]
pub fn merge_waited(
    clock: &mut Clock,
    t: SimTime,
    kind: WaitKind,
    peer: Option<u32>,
) -> SimDuration {
    let start = clock.now();
    let w = clock.merge(t);
    if !w.is_zero() {
        wait(kind, start, clock.now(), peer);
    }
    w
}

/// Run `f` and charge however far it moved `clock` to `bucket`. Used to
/// bracket regions whose costs are charged inside lower layers (PIO
/// stream writes, DMA posts, read stalls). Do not nest with the other
/// helpers — every picosecond must be charged exactly once.
pub fn charged<R>(clock: &mut Clock, bucket: Bucket, f: impl FnOnce(&mut Clock) -> R) -> R {
    let t0 = clock.now();
    let r = f(clock);
    let d = clock.now().duration_since(t0);
    busy(bucket, d);
    r
}

/// Record rank `rank`'s final clock value. The runtime calls this as
/// each rank task finishes; the report uses it as the makespan the
/// buckets must sum to. No-op when unbound.
pub fn record_makespan(rank: u32, t: SimTime) {
    with_bound(|r| {
        let mut st = r.attrib.lock().unwrap();
        let entry = st.makespans.entry(rank).or_insert(0);
        *entry = (*entry).max(t.as_ps());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::panic::{catch_unwind, resume_unwind};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// Run `f` on this thread bound to a fresh recorder as an attributing
    /// rank 0; return the recorder once the binding has dropped.
    fn recorded(f: impl FnOnce()) -> Arc<Recorder> {
        let rec = Recorder::new();
        let bound = rec.bind(0);
        set_thread_attrib(true);
        f();
        drop(bound);
        rec
    }

    #[test]
    fn helpers_mutate_clock_identically() {
        recorded(|| {
            let mut a = Clock::new();
            let mut b = Clock::new();
            a.advance(SimDuration::from_ns(50));
            advance(&mut b, Bucket::Pack, SimDuration::from_ns(50));
            a.merge(SimTime::from_ps(999_000));
            merge_waited(
                &mut b,
                SimTime::from_ps(999_000),
                WaitKind::LateSender,
                Some(1),
            );
            assert_eq!(a, b);
        });
    }

    #[test]
    fn busy_and_waits_accumulate_per_rank() {
        let rec = recorded(|| {
            let mut c = Clock::new();
            advance(&mut c, Bucket::Compute, SimDuration::from_ns(10));
            advance(&mut c, Bucket::Compute, SimDuration::from_ns(5));
            advance(&mut c, Bucket::Transfer, SimDuration::from_ns(2));
            merge_waited(&mut c, SimTime::from_ps(100_000), WaitKind::Barrier, None);
            // Merge into the past: no wait recorded.
            merge_waited(&mut c, SimTime::ZERO, WaitKind::Barrier, None);
        });
        let st = rec.attrib.lock().unwrap();
        assert_eq!(st.busy.len(), 1);
        assert_eq!(st.busy[&0][Bucket::Compute as usize], 15_000);
        assert_eq!(st.busy[&0][Bucket::Transfer as usize], 2_000);
        let waits: Vec<_> = st.waits().collect();
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].kind, WaitKind::Barrier);
        assert_eq!(waits[0].start_ps, 17_000);
        assert_eq!(waits[0].end_ps, 100_000);
    }

    #[test]
    fn unmarked_threads_do_not_contribute() {
        let rec = recorded(|| {
            paused(|| {
                let mut c = Clock::new();
                advance(&mut c, Bucket::Compute, SimDuration::from_ns(10));
                // The clock still moved (the helper is transparent) ...
                assert_eq!(c.now(), SimTime::from_ps(10_000));
            });
            assert!(thread_attrib());
        });
        // ... but nothing was attributed.
        assert!(rec.attrib.lock().unwrap().busy.is_empty());
        // An unbound thread has no mark to set.
        set_thread_attrib(true);
        assert!(!thread_attrib());
    }

    #[test]
    fn charged_brackets_inner_motion() {
        let rec = recorded(|| {
            let mut c = Clock::new();
            let out = charged(&mut c, Bucket::Transfer, |c| {
                c.advance(SimDuration::from_ns(7));
                c.merge(SimTime::from_ps(12_000));
                42
            });
            assert_eq!(out, 42);
        });
        let st = rec.attrib.lock().unwrap();
        assert_eq!(st.busy[&0][Bucket::Transfer as usize], 12_000);
    }

    /// Charge `ns` of compute and record one 1 ns lock wait.
    fn attribute(ns: u64) {
        let mut c = Clock::new();
        advance(&mut c, Bucket::Compute, SimDuration::from_ns(ns));
        let t = c.now() + SimDuration::from_ns(1);
        merge_waited(&mut c, t, WaitKind::Lock, None);
    }

    #[test]
    fn attribution_stays_in_the_lane_until_the_binding_drops() {
        let rec = Recorder::new();
        let bound = rec.bind(4);
        set_thread_attrib(true);
        attribute(10);
        attribute(20);
        {
            let st = rec.attrib.lock().unwrap();
            assert!(st.busy.is_empty() && st.waits().next().is_none());
        }
        drop(bound);
        let st = rec.attrib.lock().unwrap();
        assert_eq!(st.busy[&4], [30_000, 0, 0]);
        assert_eq!(st.waits().count(), 2);
        assert!(st.waits().all(|w| w.rank == 4 && w.dur_ps() == 1_000));
    }

    #[test]
    fn two_threads_binding_one_rank_fold_into_one_row() {
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for ns in [3, 4] {
                let rec = &rec;
                s.spawn(move || {
                    let _bound = rec.bind(5);
                    set_thread_attrib(true);
                    attribute(ns);
                });
            }
        });
        let st = rec.attrib.lock().unwrap();
        assert_eq!(st.busy.len(), 1);
        assert_eq!(st.busy[&5], [7_000, 0, 0]);
        assert_eq!(st.waits().count(), 2);
    }

    #[test]
    fn span_histograms_from_two_threads_of_one_rank_equal_one_histogram() {
        let durations = [[0, 7, 512, 90_000], [3, 7, 1_000_000, 1]];
        let rec = Recorder::new();
        std::thread::scope(|s| {
            for lane in durations {
                let rec = &rec;
                s.spawn(move || {
                    let _bound = rec.bind(5);
                    for ps in lane {
                        crate::span("p2p.recv", SimTime::ZERO, SimTime::from_ps(ps), vec![]);
                    }
                    crate::span("p2p.send", SimTime::ZERO, SimTime::from_ps(lane[0]), vec![]);
                });
            }
        });
        let mut whole = Histogram::new();
        durations.iter().flatten().for_each(|&ps| whole.record(ps));
        let st = rec.attrib.lock().unwrap();
        assert_eq!(st.spans["p2p.recv"], whole);
        assert_eq!(st.spans["p2p.send"].count(), 2);
        assert_eq!(st.spans.len(), 2);
        // Neither lane attributed time: no busy row appears for them.
        assert!(st.busy.is_empty());
    }

    #[test]
    fn a_counters_only_lane_takes_no_lock_on_drop() {
        let rec = Recorder::new();
        let held = rec.attrib.lock().unwrap();
        let (done, dropped) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let bound = rec.bind(0);
                set_thread_attrib(true);
                crate::inc(crate::Counter::EagerSends);
                crate::instant("x", SimTime::ZERO, vec![]);
                busy(Bucket::Pack, SimDuration::ZERO);
                wait(WaitKind::Lock, SimTime::ZERO, SimTime::ZERO, None);
                drop(bound);
                done.send(()).unwrap();
            });
            // Were the drop to lock, it would block until `held` goes.
            let finished = dropped.recv_timeout(Duration::from_secs(20));
            drop(held);
            assert!(finished.is_ok(), "an empty lane's drop waited for the lock");
        });
    }

    #[test]
    fn nested_bindings_restore_the_outer_lane_with_its_sums() {
        let (outer, inner) = (Recorder::new(), Recorder::new());
        let o = outer.bind(1);
        set_thread_attrib(true);
        attribute(10);
        {
            let _i = inner.bind(2);
            // A fresh binding does not inherit the mark.
            assert!(!thread_attrib());
            attribute(100);
            set_thread_attrib(true);
            attribute(7);
        }
        assert_eq!(inner.attrib.lock().unwrap().busy[&2], [7_000, 0, 0]);
        assert!(thread_attrib());
        attribute(5);
        assert!(outer.attrib.lock().unwrap().busy.is_empty());
        drop(o);
        let st = outer.attrib.lock().unwrap();
        assert_eq!(st.busy.len(), 1);
        assert_eq!(st.busy[&1], [15_000, 0, 0]);
        assert_eq!(st.waits().count(), 2);
    }

    #[test]
    fn paused_restores_the_mark_when_its_closure_panics() {
        recorded(|| {
            // `resume_unwind` unwinds like a panic without the hook's
            // message on stderr.
            let out = catch_unwind(|| paused(|| resume_unwind(Box::new("excursion failed"))));
            assert!(out.is_err());
            assert!(thread_attrib());
        });
    }

    #[test]
    fn a_binding_dropped_while_unwinding_folds_into_a_poisoned_recorder() {
        let rec = Recorder::new();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = rec.attrib.lock().unwrap();
                resume_unwind(Box::new("poison"));
            })
            .join()
        });
        assert!(poisoner.is_err() && rec.attrib.is_poisoned());

        // A second panic inside the unwinding drop would abort the test
        // process instead of returning from `join`.
        let rank = std::thread::scope(|s| {
            s.spawn(|| {
                let _bound = rec.bind(3);
                set_thread_attrib(true);
                attribute(9);
                resume_unwind(Box::new("rank failed"));
            })
            .join()
        });
        assert!(rank.is_err());
        let st = rec
            .attrib
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        assert_eq!(st.busy[&3], [9_000, 0, 0]);
        assert_eq!(st.waits().count(), 1);
    }
}

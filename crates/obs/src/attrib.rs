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
//!
//! A wait is summed by kind as it is recorded, and kept for the critical
//! path in its rank's [`WaitLog`]: about 10 bytes a wait, in the order
//! the rank's clock produced them, which is the order the walk reads.

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
    /// Every kind, indexable by `WaitKind as usize`.
    pub const ALL: [WaitKind; WAIT_KIND_COUNT] = [
        WaitKind::LateSender,
        WaitKind::LateReceiver,
        WaitKind::Barrier,
        WaitKind::Lock,
        WaitKind::RequestWait,
        WaitKind::Recovery,
        WaitKind::Backpressure,
    ];

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

/// The key the critical path orders one rank's waits by.
fn walk_key(w: &WaitEvent) -> (u64, u64, WaitKind, Option<u32>) {
    (w.end_ps, w.start_ps, w.kind, w.peer)
}

/// One rank's classified waits as a compact append-only log.
///
/// A record is three or four LEB128 varints: the end as a wrapping delta
/// from the previous record's end (0 before the first), the end minus the
/// start (wrapping too, so any `u64` pair round-trips), the peer when
/// there is one, and a tag byte holding the kind and a peer-present bit.
/// The tag is below 0x80, a one-byte varint. A varint's last byte is the
/// only one below 0x80, so the log reads backwards from its end, record
/// by record, without an index. That is the direction
/// the critical path walks a rank's timeline, so it reads the log in
/// place ([`crate::critpath::walk`]). A wait of a few microseconds of
/// virtual time takes about 10 bytes, where a [`WaitEvent`] takes 40.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitLog {
    rank: u32,
    bytes: Vec<u8>,
    len: usize,
    /// The last record's end: where a backward read starts.
    last_end: u64,
    /// How many records are [`WaitKind::Barrier`] waits.
    barriers: usize,
    /// Every record came in the walk's order: `(end, start, kind, peer)`
    /// never decreased.
    ordered: bool,
}

/// A position between two records of a [`WaitLog`]: `idx` records, which
/// take `pos` bytes and the last of which ends at `end_ps`, lie before
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LogCursor {
    pub(crate) idx: usize,
    pos: usize,
    end_ps: u64,
}

/// The tag bit saying a peer varint precedes the tag.
const PEER: u8 = 0x08;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The varint that ends at byte `end` of `bytes`, and where it starts.
fn varint_before(bytes: &[u8], end: usize) -> (u64, usize) {
    let mut start = end - 1;
    while start > 0 && bytes[start - 1] >= 0x80 {
        start -= 1;
    }
    let v = bytes[start..end]
        .iter()
        .enumerate()
        .fold(0, |v, (i, &b)| v | u64::from(b & 0x7f) << (7 * i));
    (v, start)
}

impl WaitLog {
    /// An empty log of `rank`'s waits.
    pub fn new(rank: u32) -> WaitLog {
        WaitLog {
            rank,
            bytes: Vec::new(),
            len: 0,
            last_end: 0,
            barriers: 0,
            ordered: true,
        }
    }

    /// Number of waits recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Has no wait been recorded?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the records take (not counting the vector's spare capacity).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Did every wait arrive in the critical path's order, by
    /// `(end, start, kind, peer)`? A rank's own clock records them so.
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// The end of the log's last record, 0 when empty.
    pub(crate) fn last_end(&self) -> u64 {
        self.last_end
    }

    /// How many records are barrier waits.
    pub(crate) fn barriers(&self) -> usize {
        self.barriers
    }

    /// Append one wait over `[start_ps, end_ps)`, blamed on `peer`.
    pub fn push(&mut self, kind: WaitKind, start_ps: u64, end_ps: u64, peer: Option<u32>) {
        if self.ordered && self.len > 0 && end_ps <= self.last_end {
            let w = WaitEvent {
                rank: self.rank,
                kind,
                start_ps,
                end_ps,
                peer,
            };
            let last = self.before(self.end()).expect("a non-empty log").0;
            self.ordered = walk_key(&last) <= walk_key(&w);
        }
        put_varint(&mut self.bytes, end_ps.wrapping_sub(self.last_end));
        put_varint(&mut self.bytes, end_ps.wrapping_sub(start_ps));
        if let Some(p) = peer {
            put_varint(&mut self.bytes, p.into());
        }
        self.bytes
            .push(kind as u8 | if peer.is_some() { PEER } else { 0 });
        self.len += 1;
        self.last_end = end_ps;
        self.barriers += (kind == WaitKind::Barrier) as usize;
    }

    /// The position after the last record.
    pub(crate) fn end(&self) -> LogCursor {
        LogCursor {
            idx: self.len,
            pos: self.bytes.len(),
            end_ps: self.last_end,
        }
    }

    /// The record just before `at`, and the position before that record
    /// (whose `idx` is the record's index); `None` at the log's start.
    pub(crate) fn before(&self, at: LogCursor) -> Option<(WaitEvent, LogCursor)> {
        if at.idx == 0 {
            return None;
        }
        let tag = self.bytes[at.pos - 1];
        let mut pos = at.pos - 1;
        let peer = (tag & PEER != 0).then(|| {
            let (p, start) = varint_before(&self.bytes, pos);
            pos = start;
            p as u32
        });
        let (dur, start) = varint_before(&self.bytes, pos);
        let (delta, start) = varint_before(&self.bytes, start);
        let wait = WaitEvent {
            rank: self.rank,
            kind: WaitKind::ALL[(tag & !PEER) as usize],
            start_ps: at.end_ps.wrapping_sub(dur),
            end_ps: at.end_ps,
            peer,
        };
        let prev = LogCursor {
            idx: at.idx - 1,
            pos: start,
            end_ps: at.end_ps.wrapping_sub(delta),
        };
        Some((wait, prev))
    }

    /// Every record, newest first, each with its index.
    pub(crate) fn iter_back(&self) -> impl Iterator<Item = (usize, WaitEvent)> + '_ {
        let mut at = self.end();
        std::iter::from_fn(move || {
            let (w, prev) = self.before(at)?;
            at = prev;
            Some((prev.idx, w))
        })
    }

    /// Every record decoded, oldest first.
    pub(crate) fn events(&self) -> Vec<WaitEvent> {
        let mut out: Vec<WaitEvent> = self.iter_back().map(|(_, w)| w).collect();
        out.reverse();
        out
    }

    /// This log's records in the walk's order.
    pub(crate) fn sorted(&self) -> WaitLog {
        let mut waits = self.events();
        waits.sort_by_key(walk_key);
        let mut log = WaitLog::new(self.rank);
        for w in waits {
            log.push(w.kind, w.start_ps, w.end_ps, w.peer);
        }
        log
    }

    /// Take in `other`'s records (the same rank's), leaving this log in
    /// the walk's order. Moving the bytes is the rule: a rank records on
    /// one lane, in order. Anything else is re-encoded sorted.
    pub(crate) fn absorb(&mut self, other: WaitLog) {
        debug_assert_eq!(self.rank, other.rank);
        if self.is_empty() {
            *self = other;
        } else {
            for w in other.events() {
                self.push(w.kind, w.start_ps, w.end_ps, w.peer);
            }
        }
        if !self.ordered {
            *self = self.sorted();
        }
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
    /// Per-rank wait sums in picoseconds, indexed by [`WaitKind`].
    pub(crate) wait_ps: BTreeMap<u32, [u64; WAIT_KIND_COUNT]>,
    /// Per-rank classified waits in the walk's order, moved here from the
    /// lane that recorded them.
    pub(crate) waits: BTreeMap<u32, WaitLog>,
    /// Per-rank final clock value at teardown, ps.
    pub(crate) makespans: BTreeMap<u32, u64>,
}

impl AttribState {
    /// Every classified wait, rank by rank, decoded.
    #[cfg(test)]
    pub(crate) fn wait_events(&self) -> Vec<WaitEvent> {
        self.waits.values().flat_map(WaitLog::events).collect()
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
/// rank: its length goes to the lane's sum for `kind`, the wait to the
/// lane's [`WaitLog`]. Zero-length waits are dropped. No-op unless bound
/// and marked.
pub fn wait(kind: WaitKind, start: SimTime, end: SimTime, peer: Option<u32>) {
    with_lane(|lane| {
        if lane.attributing && end > start {
            let (start, end) = (start.as_ps(), end.as_ps());
            // A rank's clock only moves forward, so its waits arrive in
            // the walk's order; a lane that breaks this is sorted when it
            // folds.
            debug_assert!(
                end >= lane.waits.last_end(),
                "rank {}: a wait ending at {end} ps recorded after one ending at {} ps",
                lane.rank,
                lane.waits.last_end()
            );
            lane.wait_ps[kind as usize] += end - start;
            lane.waits.push(kind, start, end, peer);
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
        let waits = st.wait_events();
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
            assert!(st.busy.is_empty() && st.waits.is_empty());
        }
        drop(bound);
        let st = rec.attrib.lock().unwrap();
        assert_eq!(st.busy[&4], [30_000, 0, 0]);
        assert_eq!(st.wait_ps[&4][WaitKind::Lock as usize], 2_000);
        let waits = st.wait_events();
        assert_eq!(waits.len(), 2);
        assert!(waits.iter().all(|w| w.rank == 4 && w.dur_ps() == 1_000));
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
        assert_eq!(st.wait_events().len(), 2);
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
        attribute(15);
        assert!(outer.attrib.lock().unwrap().busy.is_empty());
        drop(o);
        let st = outer.attrib.lock().unwrap();
        assert_eq!(st.busy.len(), 1);
        assert_eq!(st.busy[&1], [25_000, 0, 0]);
        assert_eq!(st.wait_events().len(), 2);
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
        assert_eq!(st.wait_events().len(), 1);
    }

    #[test]
    fn a_wait_log_round_trips_extreme_values_read_either_way() {
        let mut want = Vec::new();
        // Equal ends, which only `critpath::extract` feeds a log, and
        // durations longer than the end (the start wraps) included.
        for end in [0, 1, u64::MAX] {
            for dur in [0, 1, u64::MAX] {
                for peer in [None, Some(0), Some(u32::MAX)] {
                    for kind in WaitKind::ALL {
                        want.push(WaitEvent {
                            rank: 9,
                            kind,
                            start_ps: end.wrapping_sub(dur),
                            end_ps: end,
                            peer,
                        });
                    }
                }
            }
        }
        let mut log = WaitLog::new(9);
        for w in &want {
            log.push(w.kind, w.start_ps, w.end_ps, w.peer);
        }
        assert_eq!((log.len(), log.barriers()), (want.len(), want.len() / 7));
        assert_eq!(log.events(), want);
        let back: Vec<(usize, WaitEvent)> = log.iter_back().collect();
        let want_back = want.iter().cloned().enumerate().rev();
        assert!(back.into_iter().eq(want_back));
        assert_eq!(log.before(log.end()).unwrap().1.idx, want.len() - 1);
    }

    #[test]
    fn a_wait_log_record_takes_its_varints_and_a_tag() {
        let mut log = WaitLog::new(0);
        // 40 000 and 30 000 take three bytes each, peer 1 one, the tag one.
        log.push(WaitKind::LateSender, 10_000, 40_000, Some(1));
        assert_eq!(log.byte_len(), 8);
        log.push(WaitKind::Barrier, 40_000, 80_000, None);
        assert_eq!(log.byte_len(), 15);
        // A full `u64` takes ten bytes.
        log.push(WaitKind::Lock, 0, u64::MAX, None);
        assert_eq!(log.byte_len(), 15 + 10 + 10 + 1);
        assert!(log.is_ordered());
    }

    #[test]
    fn a_wait_log_out_of_the_walks_order_is_sorted_when_absorbed() {
        let sorted = |log: &WaitLog| {
            let mut waits = log.events();
            waits.sort_by_key(walk_key);
            waits
        };
        let mut log = WaitLog::new(3);
        log.push(WaitKind::Barrier, 25, 40, None);
        log.push(WaitKind::Barrier, 30, 40, None);
        assert!(log.is_ordered());
        // An equal end with an earlier start, then an earlier end.
        log.push(WaitKind::Barrier, 20, 40, None);
        assert!(!log.is_ordered());
        log.push(WaitKind::Lock, 5, 15, Some(1));

        let mut folded = WaitLog::new(3);
        folded.absorb(log.clone());
        assert!(folded.is_ordered());
        assert_eq!(folded.events(), sorted(&log));

        // A second lane of the rank whose waits all come later appends in
        // order; one that goes back in time is sorted in.
        let mut later = WaitLog::new(3);
        later.push(WaitKind::RequestWait, 50, 60, None);
        folded.absorb(later);
        assert!(folded.is_ordered());
        let mut earlier = WaitLog::new(3);
        earlier.push(WaitKind::LateSender, 1, 2, Some(0));
        folded.absorb(earlier);
        assert!(folded.is_ordered());
        assert_eq!(folded.len(), 6);
        assert_eq!(folded.events(), sorted(&folded));
        assert_eq!(folded.events()[0].end_ps, 2);
    }

    #[test]
    fn two_lanes_of_one_rank_fold_into_one_ordered_log() {
        let rec = Recorder::new();
        for at in [[30, 40], [10, 20]] {
            let _bound = rec.bind(7);
            set_thread_attrib(true);
            for ns in at {
                let start = SimTime::from_ps(ns * 1_000);
                wait(
                    WaitKind::LateSender,
                    start,
                    start + SimDuration::from_ns(1),
                    Some(0),
                );
            }
        }
        let st = rec.attrib.lock().unwrap();
        assert!(st.waits[&7].is_ordered());
        let ends: Vec<u64> = st.wait_events().iter().map(|w| w.end_ps).collect();
        assert_eq!(ends, [11_000, 21_000, 31_000, 41_000]);
        assert_eq!(st.wait_ps[&7][WaitKind::LateSender as usize], 4_000);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "recorded after one ending at")]
    fn a_lane_whose_waits_go_back_in_time_fails_the_order_check() {
        recorded(|| {
            wait(
                WaitKind::Lock,
                SimTime::from_ps(10),
                SimTime::from_ps(20),
                None,
            );
            wait(
                WaitKind::Lock,
                SimTime::from_ps(5),
                SimTime::from_ps(15),
                None,
            );
        });
    }
}

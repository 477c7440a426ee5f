//! The run-scoped recorder: counters, span histograms, attribution state
//! and, on request, trace events of one run.
//!
//! There is no process-wide state. Each run owns a [`Recorder`]; the
//! threads working for that run bind it ([`Recorder::bind`]) and the
//! hook functions resolve through that thread-local binding, so hooks
//! deep in the pack/protocol code never thread a handle through their
//! signatures. An unbound thread pays one thread-local load and a
//! branch per hook. A bound thread reaches its lane through that same
//! load and then pays by kind: attribution and span durations stay in
//! the lane (an add or a push on thread-owned memory, folded into the
//! recorder when the binding drops), a counter is one relaxed atomic
//! add. Only a recorder made [`Recorder::with_events`] keeps trace
//! events; there an event is also one lock and one push on the run's
//! shared event vector.

use crate::attrib::{AttribState, WaitLog, BUCKET_COUNT, WAIT_KIND_COUNT};
use crate::histogram::Histogram;
use simclock::SimTime;
use std::cell::RefCell;
use std::collections::HashSet;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The protocol decision points counted by the registry.
///
/// Each variant is one named counter; [`Counter::NAMES`] gives the stable
/// string used in exports and assertions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Two-sided sends that took the eager path (`len <= eager_threshold`).
    EagerSends,
    /// Two-sided sends that took the rendezvous (RTS/CTS) path.
    RendezvousSends,
    /// Ring-buffer chunks streamed by rendezvous transfers.
    RendezvousChunks,
    /// Calls into the `direct_pack_ff` pack/unpack engine.
    FfPackCalls,
    /// Leaf blocks merged away while committing a datatype (adjacent
    /// blocks fused into longer copies — the "flattening" in
    /// flattening-on-the-fly).
    FfLeafMerges,
    /// `pack_ff`/`unpack_ff` invocations that resumed mid-stream
    /// (`skip > 0`), i.e. partial-pack continuations across chunks.
    FfPartialResumes,
    /// Pack/unpack operations routed to the generic recursive engine.
    GenericPackCalls,
    /// One-sided puts that wrote directly into a shared (SCI-exported)
    /// window via PIO.
    OscPutShared,
    /// One-sided puts emulated with two-sided messages (private window).
    OscPutEmulated,
    /// One-sided gets served by a direct stalling remote read.
    OscGetDirect,
    /// One-sided gets converted to a remote put by the target
    /// (`len >= get_remote_put_threshold`).
    OscGetRemotePut,
    /// One-sided accumulates applied directly on a shared window.
    OscAccShared,
    /// One-sided accumulates emulated with two-sided messages.
    OscAccEmulated,
    /// SMI shared-lock acquisitions.
    SmiLockAcquires,
    /// Time-barrier crossings (one per rank per barrier).
    BarrierCrossings,
    /// SCI transaction retries absorbed by the link layer (transient
    /// transmission errors that were resent successfully).
    LinkTxnRetries,
    /// Transactions that errored out hard after exhausting `max_retries`.
    LinkHardFailures,
    /// Route failovers: a stream switched to an alternate (degraded) route
    /// after its primary route failed.
    RouteFailovers,
    /// Route heals: a degraded stream switched back to its primary route.
    RouteHeals,
    /// Protocol-level virtual-time timeouts (rendezvous handshake, ring
    /// slots, one-sided control) that expired while probing a peer.
    ProtocolTimeouts,
    /// Peers declared dead after the timeout/backoff schedule ran out.
    PeersDeclaredDead,
    /// One-sided targets demoted from the direct shared-segment path to
    /// the emulated control-message path.
    OscFallbacks,
    /// One-sided targets re-promoted to the direct path after a
    /// successful connection probe.
    OscRepromotions,
    /// Silent faults (bit flips / dropped stores) injected by the fabric.
    CorruptionsInjected,
    /// Corruptions caught by a sequence check or a CRC mismatch.
    CorruptionsDetected,
    /// Retransmissions performed after a detected corruption.
    Retransmits,
    /// Silent faults that sailed through a path with integrity checking
    /// off (bookkeeping: the modelled program never sees these).
    UndetectedAtOff,
    /// Commits served from the layout cache (flattening skipped).
    LayoutCacheHits,
    /// Commits that flattened the type tree (cache cold or disabled).
    LayoutCacheMisses,
    /// Leaf stores absorbed into a pending write-combining batch instead
    /// of issuing their own SCI transaction.
    WcCoalescedStores,
    /// Typed transfers routed to the direct flattening-on-the-fly path by
    /// the adaptive selector.
    PathSelectedDirectFf,
    /// Typed transfers routed through a staged pack buffer.
    PathSelectedStaged,
    /// Typed transfers routed to DMA scatter/gather.
    PathSelectedDma,
    /// Nonblocking requests posted (`isend`/`irecv`/`iput`/`iget`/
    /// `ialltoall` and persistent-request starts).
    RequestsPosted,
    /// Nonblocking requests completed through `wait`/`test`/`waitall`/
    /// `waitany`.
    RequestsCompleted,
    /// Requests completed implicitly because they were dropped before
    /// being waited on (their completion time is merged at the next
    /// synchronisation point).
    RequestsCompletedByDrop,
    /// Virtual nanoseconds of communication hidden behind compute by the
    /// nonblocking engine (blocking-equivalent cost minus time actually
    /// stalled in `wait`).
    OverlapSavedNs,
    /// Communicator revocations initiated (one per `revoke()` call that
    /// actually installed a revocation front).
    Revocations,
    /// Blocking paths that errored out with `ScimpiError::Revoked` after
    /// observing a revocation front.
    RevokesObserved,
    /// Fault-tolerant agreement exchange rounds executed (one per
    /// pairwise exchange per sweep per rank).
    AgreementRounds,
    /// Buddy checkpoints taken (`Checkpointer::checkpoint` calls).
    CheckpointsTaken,
    /// Payload bytes replicated to buddy ranks by checkpoints.
    CheckpointBytes,
    /// Checkpoint restores performed (`Checkpointer::restore` calls).
    RecoveryRestores,
    /// Eager sends that stalled on exhausted pair credits under
    /// `OverloadPolicy::Stall` (one tick per message that had to wait).
    EagerCreditStalls,
    /// Peak outstanding eager credit bytes observed on any single
    /// sender/receiver pair (a high-water gauge kept with `max`).
    CreditBytesPeak,
    /// Messages dropped at post time under `OverloadPolicy::Shed`.
    MessagesShed,
    /// Operations refused because one of the two budgets was exhausted:
    /// eager sends out of pair credits under `OverloadPolicy::Error`, and
    /// posts past the in-flight request cap.
    BudgetDenials,
    /// Eager sends out of pair credits that `OverloadPolicy::Degrade`
    /// sent by rendezvous instead.
    DegradedPaths,
    /// Collective operations executed with the naive linear/legacy
    /// schedule (one tick per collective call per rank).
    CollAlgoNaive,
    /// Collective operations executed with a ring schedule.
    CollAlgoRing,
    /// Collective operations executed with a recursive-doubling schedule.
    CollAlgoRecursiveDoubling,
    /// Collective operations executed with a binomial-tree schedule.
    CollAlgoBinomial,
    /// Collective operations executed with a Bruck schedule.
    CollAlgoBruck,
    /// Payload bytes moved by collectives over one-sided window puts
    /// instead of two-sided p2p.
    CollOnesidedBytes,
    /// Payload bytes that datatype-aware collectives had to stage through
    /// an explicit pack buffer (zero when the direct flattened-layout
    /// path wins everywhere, which is the Träff acceptance bar).
    CollPackedBytes,
}

impl Counter {
    /// Stable export names, indexable by `Counter as usize`.
    pub const NAMES: [&'static str; COUNTER_COUNT] = [
        "eager_sends",
        "rendezvous_sends",
        "rendezvous_chunks",
        "ff_pack_calls",
        "ff_leaf_merges",
        "ff_partial_resumes",
        "generic_pack_calls",
        "osc_put_shared",
        "osc_put_emulated",
        "osc_get_direct",
        "osc_get_remote_put",
        "osc_acc_shared",
        "osc_acc_emulated",
        "smi_lock_acquires",
        "barrier_crossings",
        "link_txn_retries",
        "link_hard_failures",
        "route_failovers",
        "route_heals",
        "protocol_timeouts",
        "peers_declared_dead",
        "osc_fallbacks",
        "osc_repromotions",
        "corruptions_injected",
        "corruptions_detected",
        "retransmits",
        "undetected_at_off",
        "layout_cache_hits",
        "layout_cache_misses",
        "wc_coalesced_stores",
        "path_selected_direct_ff",
        "path_selected_staged",
        "path_selected_dma",
        "requests_posted",
        "requests_completed",
        "requests_completed_by_drop",
        "overlap_saved_ns",
        "revocations",
        "revokes_observed",
        "agreement_rounds",
        "checkpoints_taken",
        "checkpoint_bytes",
        "recovery_restores",
        "eager_credit_stalls",
        "credit_bytes_peak",
        "messages_shed",
        "budget_denials",
        "degraded_paths",
        "coll_algo_naive",
        "coll_algo_ring",
        "coll_algo_recursive_doubling",
        "coll_algo_binomial",
        "coll_algo_bruck",
        "coll_onesided_bytes",
        "coll_packed_bytes",
    ];

    /// The export name of this counter.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Number of counters in the registry.
pub const COUNTER_COUNT: usize = 55;

/// The counter values of one run, indexed by [`Counter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterTable([u64; COUNTER_COUNT]);

impl Default for CounterTable {
    fn default() -> Self {
        CounterTable([0; COUNTER_COUNT])
    }
}

impl std::ops::Index<Counter> for CounterTable {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl CounterTable {
    /// `(export name, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::NAMES.iter().copied().zip(self.0)
    }
}

/// A trace-event argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    /// Unsigned integer (sizes, counts, hops).
    U64(u64),
    /// Float (rates, ratios).
    F64(f64),
    /// Free-form label (path names).
    Str(String),
}

/// Span or instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A phase with a duration (Chrome `ph:"X"`).
    Span {
        /// Duration in picoseconds of virtual time.
        dur_ps: u64,
    },
    /// A point event (Chrome `ph:"i"`).
    Instant,
}

/// One recorded event, stamped with virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Rank whose lane this event belongs to.
    pub rank: u32,
    /// Event name (one of a small set of static protocol phases).
    pub name: &'static str,
    /// Span-with-duration or instant.
    pub kind: EventKind,
    /// Virtual timestamp in picoseconds.
    pub ts_ps: u64,
    /// Key/value annotations (message size, path, hops, ...).
    pub args: Vec<(&'static str, Arg)>,
}

/// A per-link traffic snapshot (from `sci_fabric::link::TrafficStats`).
#[derive(Clone, Debug)]
pub struct LinkSnapshot {
    /// Where in the run the snapshot was taken (e.g. `"end-of-run"`).
    pub label: String,
    /// `(link index, data bytes, flow-control bytes)` per link.
    pub per_link: Vec<(usize, u64, u64)>,
}

/// One rank's mailbox high-water marks over the virtual timeline (see
/// `Mailbox::take_backlog_events` in `scimpi`): peak queued envelopes
/// and peak queued eager payload bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeakBacklog {
    /// The receiving rank.
    pub rank: u32,
    /// Peak simultaneously queued envelopes (any head kind).
    pub msgs: u64,
    /// Peak simultaneously queued eager payload bytes.
    pub eager_bytes: u64,
}

/// One run's recording: counters, span histograms, the attribution state
/// behind the profile and, when asked for, the trace events.
///
/// `scimpi::run_report` creates one per launch and hands its contents
/// back as the `RunReport`; the hook functions of this crate
/// ([`inc`], [`span`], [`crate::attrib::advance`], ...) reach it through
/// the calling thread's binding (see [`Recorder::bind`]).
pub struct Recorder {
    counters: [AtomicU64; COUNTER_COUNT],
    /// Does [`span`]/[`instant`] keep a [`TraceEvent`]?
    keep_events: bool,
    events: Mutex<Vec<TraceEvent>>,
    pub(crate) attrib: Mutex<AttribState>,
    /// Datatype signatures this run has committed (see
    /// [`count_layout_commit`]).
    layouts: Mutex<HashSet<u64>>,
}

/// What a bound thread holds: its recorder, its rank's trace lane, and
/// the attribution and span durations it has recorded since it bound.
/// Only the owning thread touches a lane, so recording takes no lock;
/// [`Bound`]'s drop folds it into [`Recorder::attrib`].
pub(crate) struct Lane {
    recorder: Arc<Recorder>,
    pub(crate) rank: u32,
    /// Does this thread contribute to attribution (see
    /// [`crate::attrib::set_thread_attrib`])?
    pub(crate) attributing: bool,
    /// Busy picoseconds by [`crate::attrib::Bucket`].
    pub(crate) busy: [u64; BUCKET_COUNT],
    /// Wait picoseconds by [`crate::attrib::WaitKind`].
    pub(crate) wait_ps: [u64; WAIT_KIND_COUNT],
    /// The waits themselves, for the critical path.
    pub(crate) waits: WaitLog,
    /// Span durations by span name, in first-recorded order.
    spans: Vec<(&'static str, Histogram)>,
}

impl Lane {
    /// Move what this lane recorded into its recorder's state, in one
    /// lock hold — none if it recorded nothing (a counters-only binding).
    /// Runs in `Drop`, possibly while the thread unwinds, so it must not
    /// panic: a poisoned lock still holds sums that every update left
    /// valid. Histogram merges are exact and commutative, so the order
    /// lanes fold in never shows.
    fn fold(self) {
        if self.busy == [0; BUCKET_COUNT] && self.waits.is_empty() && self.spans.is_empty() {
            return;
        }
        let mut st = (self.recorder.attrib.lock()).unwrap_or_else(PoisonError::into_inner);
        if self.busy != [0; BUCKET_COUNT] {
            let row = st.busy.entry(self.rank).or_default();
            for (sum, ps) in row.iter_mut().zip(self.busy) {
                *sum += ps;
            }
        }
        if !self.waits.is_empty() {
            let row = st.wait_ps.entry(self.rank).or_default();
            for (sum, ps) in row.iter_mut().zip(self.wait_ps) {
                *sum += ps;
            }
            let log = st.waits.entry(self.rank);
            log.or_insert_with(|| WaitLog::new(self.rank))
                .absorb(self.waits);
        }
        for (name, hist) in self.spans {
            st.spans.entry(name).or_default().merge(&hist);
        }
    }

    fn record_span(&mut self, name: &'static str, dur_ps: u64) {
        match self.spans.iter_mut().find(|(n, _)| *n == name) {
            Some((_, hist)) => hist.record(dur_ps),
            None => {
                let mut hist = Histogram::new();
                hist.record(dur_ps);
                self.spans.push((name, hist));
            }
        }
    }
}

thread_local! {
    /// The calling thread's binding, if any. Boxed: the scheduler swaps
    /// it at every task switch, so it stays one pointer wide.
    static LANE: RefCell<Option<Box<Lane>>> = const { RefCell::new(None) };
}

/// Keeps the calling thread bound to a [`Recorder`]; dropping it hands
/// what the thread attributed to the recorder and restores whatever
/// binding (or none) the thread had before.
pub struct Bound {
    prev: Option<Box<Lane>>,
    /// The binding lives in this thread's locals.
    _not_send: PhantomData<*const ()>,
}

impl Drop for Bound {
    fn drop(&mut self) {
        if let Some(lane) = LANE.replace(self.prev.take()) {
            (*lane).fold();
        }
    }
}

/// A binding taken off the thread while the task that made it is
/// switched out. Tasks share their thread, so the scheduler exchanges a
/// task's `Binding` with the thread's at every switch ([`Binding::swap`]):
/// a task records into its own lane and leaves the others' alone.
#[derive(Default)]
pub struct Binding(Option<Box<Lane>>);

impl Binding {
    /// Exchange the calling thread's binding with this one.
    pub fn swap(&mut self) {
        LANE.with_borrow_mut(|lane| std::mem::swap(lane, &mut self.0));
    }
}

impl Recorder {
    /// A fresh, empty recorder that keeps what the profile needs and no
    /// trace events: a span feeds its name's histogram, an instant is
    /// dropped.
    pub fn new() -> Arc<Recorder> {
        Self::create(false)
    }

    /// [`Recorder::new`] that also keeps every span and instant as a
    /// [`TraceEvent`] (see [`Recorder::take_events`]).
    pub fn with_events() -> Arc<Recorder> {
        Self::create(true)
    }

    fn create(keep_events: bool) -> Arc<Recorder> {
        Arc::new(Recorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            keep_events,
            events: Mutex::default(),
            attrib: Mutex::default(),
            layouts: Mutex::default(),
        })
    }

    /// Bind the calling thread to this recorder and to `rank`'s trace
    /// lane until the returned guard drops. `scimpi::run_report` does
    /// this at the top of every rank, engine and helper task. The binding
    /// starts out not attributing; what it attributes and the spans it
    /// records reach the recorder when the guard drops.
    pub fn bind(self: &Arc<Self>, rank: u32) -> Bound {
        let lane = Lane {
            recorder: Arc::clone(self),
            rank,
            attributing: false,
            busy: [0; BUCKET_COUNT],
            wait_ps: [0; WAIT_KIND_COUNT],
            waits: WaitLog::new(rank),
            spans: Vec::new(),
        };
        Bound {
            prev: LANE.replace(Some(Box::new(lane))),
            _not_send: PhantomData,
        }
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of every counter.
    pub fn counters(&self) -> CounterTable {
        CounterTable(std::array::from_fn(|i| {
            self.counters[i].load(Ordering::Relaxed)
        }))
    }

    /// Drain and return all buffered trace events (oldest first); always
    /// empty unless the recorder was made [`Recorder::with_events`].
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }
}

/// Run `f` on the calling thread's lane, if it is bound. `f` must not
/// call back into a hook.
#[inline]
pub(crate) fn with_lane<R>(f: impl FnOnce(&mut Lane) -> R) -> Option<R> {
    LANE.with_borrow_mut(|lane| lane.as_deref_mut().map(f))
}

/// Run `f` on the calling thread's recorder, if it is bound to one.
#[inline]
pub(crate) fn with_bound(f: impl FnOnce(&Recorder)) {
    with_lane(|lane| f(&lane.recorder));
}

/// The rank lane the calling thread is bound to (0 if unbound).
pub fn thread_rank() -> u32 {
    with_lane(|lane| lane.rank).unwrap_or(0)
}

/// Is the calling thread bound to a recorder? When not, every hook is
/// this one thread-local load and a branch.
#[inline]
pub fn is_enabled() -> bool {
    LANE.with_borrow(Option::is_some)
}

/// Increment a counter by one. No-op when unbound.
#[inline]
pub fn inc(counter: Counter) {
    add(counter, 1);
}

/// Increment a counter by `n`. No-op when unbound.
#[inline]
pub fn add(counter: Counter, n: u64) {
    with_bound(|r| r.add(counter, n));
}

/// Raise a counter to at least `v` (a high-water gauge). No-op when
/// unbound.
#[inline]
pub fn max(counter: Counter, v: u64) {
    with_bound(|r| {
        r.counters[counter as usize].fetch_max(v, Ordering::Relaxed);
    });
}

/// Count one datatype commit: a `layout_cache_miss` plus the
/// `ff_leaf_merges` flattening performed (`merges`) the first time the
/// bound run commits `signature`, a `layout_cache_hit` every time after.
/// A function of the run alone, whatever the process-wide layout memo
/// already holds. No-op when unbound.
pub fn count_layout_commit(signature: u64, merges: u64) {
    with_bound(|r| {
        if r.layouts.lock().unwrap().insert(signature) {
            r.add(Counter::LayoutCacheMisses, 1);
            r.add(Counter::FfLeafMerges, merges);
        } else {
            r.add(Counter::LayoutCacheHits, 1);
        }
    });
}

/// Record a span covering `[start, end)` of virtual time on the calling
/// thread's rank lane: its duration goes to the lane's histogram for
/// `name`, and the span becomes a [`TraceEvent`] if the recorder keeps
/// events. No-op when unbound.
pub fn span(name: &'static str, start: SimTime, end: SimTime, args: Vec<(&'static str, Arg)>) {
    let dur_ps = end.as_ps().saturating_sub(start.as_ps());
    with_lane(|lane| {
        lane.record_span(name, dur_ps);
        push_event(lane, name, EventKind::Span { dur_ps }, start, args);
    });
}

/// Record an instant at virtual time `at` on the calling thread's rank
/// lane; kept only if the recorder keeps events. No-op when unbound.
pub fn instant(name: &'static str, at: SimTime, args: Vec<(&'static str, Arg)>) {
    with_lane(|lane| push_event(lane, name, EventKind::Instant, at, args));
}

fn push_event(
    lane: &Lane,
    name: &'static str,
    kind: EventKind,
    at: SimTime,
    args: Vec<(&'static str, Arg)>,
) {
    if lane.recorder.keep_events {
        lane.recorder.events.lock().unwrap().push(TraceEvent {
            rank: lane.rank,
            name,
            kind,
            ts_ps: at.as_ps(),
            args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbound_thread_drops_everything() {
        let rec = Recorder::with_events();
        inc(Counter::EagerSends);
        span("x", SimTime::ZERO, SimTime::from_ps(10), vec![]);
        instant("y", SimTime::ZERO, vec![]);
        count_layout_commit(1, 3);
        assert!(!is_enabled());
        assert_eq!(rec.counters(), CounterTable::default());
        assert!(rec.take_events().is_empty());
    }

    #[test]
    fn bound_thread_counts_and_buffers() {
        let rec = Recorder::with_events();
        let bound = rec.bind(3);
        inc(Counter::RendezvousSends);
        add(Counter::RendezvousChunks, 4);
        max(Counter::CreditBytesPeak, 10);
        max(Counter::CreditBytesPeak, 5);
        span(
            "send",
            SimTime::from_ps(100),
            SimTime::from_ps(400),
            vec![("bytes", Arg::U64(64))],
        );
        drop(bound);
        inc(Counter::RendezvousSends);
        let counters = rec.counters();
        assert_eq!(counters[Counter::RendezvousSends], 1);
        assert_eq!(counters[Counter::RendezvousChunks], 4);
        assert_eq!(counters[Counter::CreditBytesPeak], 10);
        let evs = rec.take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].rank, 3);
        assert_eq!(evs[0].kind, EventKind::Span { dur_ps: 300 });
        assert_eq!(rec.attrib.lock().unwrap().spans["send"].max_ps(), 300);
    }

    #[test]
    fn a_recorder_without_events_keeps_only_span_durations() {
        let rec = Recorder::new();
        let bound = rec.bind(0);
        span("send", SimTime::from_ps(100), SimTime::from_ps(400), vec![]);
        instant("rts", SimTime::ZERO, vec![]);
        drop(bound);
        assert!(rec.take_events().is_empty());
        let st = rec.attrib.lock().unwrap();
        assert_eq!(st.spans.len(), 1);
        assert_eq!(
            (st.spans["send"].count(), st.spans["send"].max_ps()),
            (1, 300)
        );
    }

    #[test]
    fn bindings_nest_and_restore() {
        let (outer, inner) = (Recorder::new(), Recorder::new());
        let _o = outer.bind(1);
        {
            let _i = inner.bind(2);
            assert_eq!(thread_rank(), 2);
            inc(Counter::EagerSends);
        }
        assert_eq!(thread_rank(), 1);
        inc(Counter::EagerSends);
        inc(Counter::EagerSends);
        assert_eq!(inner.counters()[Counter::EagerSends], 1);
        assert_eq!(outer.counters()[Counter::EagerSends], 2);
    }

    #[test]
    fn layout_commits_are_a_function_of_the_recorder() {
        let rec = Recorder::new();
        let _b = rec.bind(0);
        count_layout_commit(7, 2);
        count_layout_commit(7, 2);
        count_layout_commit(9, 0);
        let counters = rec.counters();
        assert_eq!(counters[Counter::LayoutCacheMisses], 2);
        assert_eq!(counters[Counter::LayoutCacheHits], 1);
        assert_eq!(counters[Counter::FfLeafMerges], 2);
    }

    #[test]
    fn counter_names_cover_all_variants() {
        assert_eq!(Counter::NAMES.len(), COUNTER_COUNT);
        assert_eq!(Counter::CollPackedBytes as usize, COUNTER_COUNT - 1);
        assert_eq!(Counter::DegradedPaths.name(), "degraded_paths");
        assert_eq!(Counter::CollAlgoNaive.name(), "coll_algo_naive");
        assert_eq!(Counter::CollAlgoRing.name(), "coll_algo_ring");
        assert_eq!(
            Counter::CollAlgoRecursiveDoubling.name(),
            "coll_algo_recursive_doubling"
        );
        assert_eq!(Counter::CollAlgoBinomial.name(), "coll_algo_binomial");
        assert_eq!(Counter::CollAlgoBruck.name(), "coll_algo_bruck");
        assert_eq!(Counter::CollOnesidedBytes.name(), "coll_onesided_bytes");
        assert_eq!(Counter::CollPackedBytes.name(), "coll_packed_bytes");
        assert_eq!(Counter::EagerCreditStalls.name(), "eager_credit_stalls");
        assert_eq!(Counter::CreditBytesPeak.name(), "credit_bytes_peak");
        assert_eq!(Counter::MessagesShed.name(), "messages_shed");
        assert_eq!(Counter::BudgetDenials.name(), "budget_denials");
        assert_eq!(Counter::Revocations.name(), "revocations");
        assert_eq!(Counter::CheckpointsTaken.name(), "checkpoints_taken");
        assert_eq!(Counter::CorruptionsInjected.name(), "corruptions_injected");
        assert_eq!(Counter::Retransmits.name(), "retransmits");
        assert_eq!(Counter::FfLeafMerges.name(), "ff_leaf_merges");
        assert_eq!(Counter::RouteFailovers.name(), "route_failovers");
        assert_eq!(Counter::LayoutCacheHits.name(), "layout_cache_hits");
        assert_eq!(Counter::WcCoalescedStores.name(), "wc_coalesced_stores");
        assert_eq!(Counter::PathSelectedStaged.name(), "path_selected_staged");
    }
}

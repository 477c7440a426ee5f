//! Cluster runtime: rank execution over the simulated fabric.
//!
//! [`run`] executes the user closure on every MPI rank; ranks communicate
//! through the [`crate::mailbox`] transport and the SCI fabric. Virtual
//! time lives in each rank's [`simclock::Clock`]; `MPI_Wtime` reads it.
//!
//! There is one execution model (`docs/SCHEDULER.md`): ranks are
//! cooperative tasks under the deterministic discrete-event scheduler of
//! the `sched` crate. Exactly one task runs at a time and blocking sites
//! park on the virtual-time event queue, so a run is a function of its
//! spec — results, counters, profile and trace alike — and simulated rank
//! count is decoupled from the host threads' wall-clock cost (10k+ ranks).

use crate::error::{ErrorMode, ScimpiError};
use crate::mailbox::Mailbox;
use crate::tuning::{
    Tuning, BARRIER_HOP, CRC_COST_PER_BYTE, PROBE_COST, REVOKE_HOP_COST, RING_SLOTS,
};
pub use obs::ObsConfig;
use sci_fabric::{Fabric, FabricSpec, FaultConfig, SciParams, Topology};
use simclock::{Clock, SimDuration, SimTime};
use smi::{ProcId, SharedRegion, ShregAllocator, SmiWorld, TimeBarrier};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Size of each rank's `MPI_Alloc_mem` shared-segment pool.
pub const ALLOC_POOL_BYTES: usize = 8 << 20;

/// How [`run`] executes the ranks. A vestige: there is one way, and the
/// enum, its `Default` and [`ClusterSpec::backend`] stay *only* because
/// the frozen `benchmark/` package names `Backend::Event`,
/// `Backend::default()` and `.backend(..)`. They go with the next
/// `benchmark` PR.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Deterministic discrete-event scheduler: ranks are cooperative
    /// tasks dispatched in `(virtual time, rank, sequence)` order by a
    /// single run token.
    #[default]
    Event,
}

/// What one run observed about itself, returned by [`run_report`]. With
/// [`ObsConfig::enabled`] off only `event_stats` is filled in: the
/// counters are all zero, the lists empty and there is no profile.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Final counter values, indexed by [`obs::Counter`].
    pub counters: obs::CounterTable,
    /// Every recorded trace event, in recording order: the order the run
    /// token visited the hooks, the same for every run of one spec. Kept
    /// only when the run writes a trace file ([`ObsConfig::with_trace`]);
    /// empty otherwise, while the profile's span histograms are recorded
    /// either way.
    pub events: Vec<obs::TraceEvent>,
    /// Per-link traffic snapshots (one, `"end-of-run"`).
    pub link_snapshots: Vec<obs::LinkSnapshot>,
    /// Per-rank mailbox high-water marks, sorted by rank.
    pub peak_backlogs: Vec<obs::PeakBacklog>,
    /// Attribution table, span histograms and critical path.
    pub profile: Option<obs::Profile>,
    /// Scheduler statistics of the run (always `Some`).
    pub event_stats: Option<sched::Stats>,
}

impl RunReport {
    /// The profile as `PROFILE_<name>.json` text; empty without one.
    pub fn profile_json(&self) -> String {
        self.profile
            .as_ref()
            .map(obs::report::profile_json)
            .unwrap_or_default()
    }
}

/// Everything needed to launch a simulated cluster run.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Cluster interconnect topology (single ringlet or multi-ring).
    pub topology: Topology,
    /// MPI ranks per node (1 = the paper's standard setup).
    pub procs_per_node: usize,
    /// Fabric calibration.
    pub params: SciParams,
    /// Fault injection.
    pub faults: FaultConfig,
    /// Deterministic seed.
    pub seed: u64,
    /// Protocol tuning.
    pub tuning: Tuning,
    /// Observability: event tracing, counters and exports.
    pub obs: ObsConfig,
    /// MPI-style error-handler semantics: abort on communication error
    /// (the default) or hand errors back through the `Result` returned by
    /// every communication verb.
    pub errors: ErrorMode,
    /// Execution backend: a vestige with one value, see [`Backend`].
    pub backend: Backend,
}

impl ClusterSpec {
    /// The paper's testbed: `nodes` single-process nodes on one ringlet.
    pub fn ringlet(nodes: usize) -> Self {
        ClusterSpec {
            topology: Topology::ringlet(nodes),
            procs_per_node: 1,
            params: SciParams::default(),
            faults: FaultConfig::default(),
            seed: 0xC0FFEE,
            tuning: Tuning::default(),
            obs: ObsConfig::disabled(),
            errors: ErrorMode::default(),
            backend: Backend::default(),
        }
    }

    /// The §5.3 outlook: `rings` ringlets of `per_ring` nodes joined by a
    /// switch fabric (towards the "512 nodes with a 3D-torus" system).
    pub fn multi_ring(rings: usize, per_ring: usize) -> Self {
        ClusterSpec {
            topology: Topology::multi_ring(rings, per_ring),
            ..ClusterSpec::ringlet(1)
        }
    }

    /// Builder: replace the protocol tuning.
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Builder: replace the fabric calibration.
    pub fn params(mut self, params: SciParams) -> Self {
        self.params = params;
        self
    }

    /// Builder: replace the observability configuration.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Builder: replace the error-handler semantics.
    pub fn errors(mut self, errors: ErrorMode) -> Self {
        self.errors = errors;
        self
    }

    /// Builder: replace the fault-injection configuration.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: replace the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: replace the ranks-per-node count.
    pub fn procs_per_node(mut self, procs: usize) -> Self {
        self.procs_per_node = procs;
        self
    }

    /// Builder: replace the execution backend. A no-op kept for the
    /// frozen `benchmark/` package, see [`Backend`].
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Finish the builder chain, validating the spec. Purely a
    /// readability terminator: the spec is already usable, but `build()`
    /// catches empty clusters at construction instead of inside [`run`].
    pub fn build(self) -> Self {
        assert!(
            self.topology.node_count() > 0 && self.procs_per_node > 0,
            "cluster needs at least one node and one proc per node"
        );
        if let Err(e) = self.tuning.validate() {
            panic!("invalid cluster spec: {e}");
        }
        self
    }

    /// Total rank count.
    pub fn num_ranks(&self) -> usize {
        self.topology.node_count() * self.procs_per_node
    }
}

/// A rendezvous ring buffer for one (sender, receiver) pair, exported by
/// the receiver's node.
pub(crate) struct PairRing {
    /// Backing shared region (receiver-local).
    pub region: Arc<SharedRegion>,
    /// Slot bookkeeping: free slot indices with the virtual time they were
    /// freed. FIFO: the receiver drains slots in ascending virtual time,
    /// and taking the front slot keeps the sender's virtual wait
    /// independent of which engine task got there first.
    free: Mutex<std::collections::VecDeque<(usize, SimTime)>>,
    /// Bytes per slot.
    pub chunk: usize,
    /// Send-turn ticketing: with nonblocking sends, two rendezvous
    /// transfers to the same destination can be in flight at once, and
    /// their engine tasks would interleave their ring slots. Each
    /// rendezvous send takes a turn ticket when its RTS is posted (program
    /// order on the sending rank) and the chunk loop runs only
    /// when its ticket comes up, so the per-pair data stream is serialised
    /// in posted order. Blocking sends pass straight through (their ticket
    /// is always current) at zero virtual cost.
    turn: Mutex<TurnState>,
    /// Senders waiting on an empty free list.
    waiters: sched::WaitQueue,
    /// Senders waiting for their turn ticket to come up.
    turn_waiters: sched::WaitQueue,
}

#[derive(Default)]
struct TurnState {
    next_ticket: u64,
    current: u64,
}

impl PairRing {
    fn new(region: Arc<SharedRegion>, slots: usize, chunk: usize) -> Self {
        PairRing {
            region,
            free: Mutex::new((0..slots).map(|s| (s, SimTime::ZERO)).collect()),
            chunk,
            turn: Mutex::new(TurnState::default()),
            waiters: sched::WaitQueue::new(),
            turn_waiters: sched::WaitQueue::new(),
        }
    }

    /// Take the next send-turn ticket. Must be called by the sending
    /// rank itself (at RTS-post time) so tickets reflect program order.
    pub fn take_turn_ticket(&self) -> u64 {
        let mut t = self.turn.lock().unwrap();
        let ticket = t.next_ticket;
        t.next_ticket += 1;
        ticket
    }

    /// Block (at no virtual cost) until `ticket`'s turn comes up,
    /// returning a guard that passes the turn on when dropped — including
    /// on error and panic paths, so a failed send never wedges the pair.
    pub fn await_turn(&self, ticket: u64) -> TurnGuard<'_> {
        let mut t = self.turn.lock().unwrap();
        while t.current != ticket {
            // Turns carry no timestamp: park at the task's last time. A
            // stalled wait has nothing else to check.
            t = self.turn_waiters.wait(&self.turn, t, None).0;
        }
        TurnGuard { ring: self, ticket }
    }
}

/// Holds one send's turn on a [`PairRing`]; passing it on at drop.
pub(crate) struct TurnGuard<'a> {
    ring: &'a PairRing,
    ticket: u64,
}

impl Drop for TurnGuard<'_> {
    fn drop(&mut self) {
        let mut t = self.ring.turn.lock().unwrap();
        debug_assert_eq!(t.current, self.ticket, "turn released out of order");
        t.current = self.ticket + 1;
        drop(t);
        self.ring.turn_waiters.wake_all();
    }
}

impl PairRing {
    /// Acquire the earliest-freed slot (merging the slot's free-time into
    /// the clock — the sender virtually waits for the receiver to drain),
    /// giving up when the wait stalls (a scheduler stall round). Returns
    /// `None` then, without touching the clock — callers loop, checking
    /// receiver liveness in between, and charge virtual time only from
    /// the deterministic timeout schedule.
    pub fn acquire(&self, clock: &mut Clock) -> Option<usize> {
        let now = Some(clock.now());
        let popped = self
            .waiters
            .take_or_wait(&self.free, now, |free| free.pop_front());
        Self::merge_freed(clock, popped)
    }

    /// [`Self::acquire`] that looks once and never parks: the final drain
    /// after the receiver's death or a revocation.
    pub fn try_acquire(&self, clock: &mut Clock) -> Option<usize> {
        Self::merge_freed(clock, self.free.lock().unwrap().pop_front())
    }

    fn merge_freed(clock: &mut Clock, popped: Option<(usize, SimTime)>) -> Option<usize> {
        let (slot, freed_at) = popped?;
        clock.merge(freed_at);
        Some(slot)
    }

    /// Return a slot drained at virtual time `at`.
    pub fn release(&self, slot: usize, at: SimTime) {
        self.free.lock().unwrap().push_back((slot, at));
        self.waiters.wake_all();
    }

    /// Byte offset of a slot.
    pub fn slot_offset(&self, slot: usize) -> usize {
        slot * self.chunk
    }
}

/// Credit-based eager flow control for one (sender, receiver) pair.
///
/// The sender owns a finite eager budget
/// ([`Tuning::eager_credits_bytes`] payload bytes plus
/// [`Tuning::eager_credit_slots`] envelope slots) and spends from it at
/// post time, in program order; the receiver *returns* credits by
/// depositing a timestamped grant when the message is matched and
/// unpacked. Grants flow back into the spendable pool either inside a
/// backpressure stall ([`PairCredits::await_grant`] — the sender
/// merges the grant time, virtually waiting for the receiver to drain)
/// or in bulk at synchronisation points
/// ([`PairCredits::collect_ready`]).
///
/// Keeping the spendable pool strictly sender-local is what makes the
/// overload verdict a function of the sender's own history: a grant the
/// receiver has deposited is never observed by a non-blocking read, only
/// by a blocking collect whose timestamp is merged, or by a barrier that
/// already orders it into the sender's causal past.
pub(crate) struct PairCredits {
    /// Spendable (payload bytes, envelope slots). Only the sending
    /// rank itself mutates this (consume + collect), so its value
    /// at any program point is a deterministic function of the rank's
    /// send/collect history.
    avail: Mutex<(usize, usize)>,
    /// Returned credits awaiting collection: payload length and the
    /// virtual time the grant reaches the sender (receiver match time
    /// plus one control-packet latency). FIFO, like `PairRing::free`.
    granted: Mutex<std::collections::VecDeque<(usize, SimTime)>>,
    /// The sender, waiting in a backpressure stall.
    waiters: sched::WaitQueue,
    /// Full budget, for peak-outstanding accounting and recovery resets.
    budget_bytes: usize,
    budget_slots: usize,
}

impl PairCredits {
    fn new(bytes: usize, slots: usize) -> Self {
        PairCredits {
            avail: Mutex::new((bytes, slots)),
            granted: Mutex::new(std::collections::VecDeque::new()),
            waiters: sched::WaitQueue::new(),
            budget_bytes: bytes,
            budget_slots: slots,
        }
    }

    /// Spend `len` payload bytes and one envelope slot, if the pool
    /// covers both. On success the new outstanding byte total is folded
    /// into the `credit_bytes_peak` gauge.
    pub fn try_consume(&self, len: usize) -> bool {
        let mut a = self.avail.lock().unwrap();
        if a.0 >= len && a.1 >= 1 {
            a.0 -= len;
            a.1 -= 1;
            obs::max(
                obs::Counter::CreditBytesPeak,
                (self.budget_bytes - a.0) as u64,
            );
            true
        } else {
            false
        }
    }

    /// Receiver side: return `len` bytes plus one slot, visible to the
    /// sender at virtual time `at`.
    pub fn deposit(&self, len: usize, at: SimTime) {
        self.granted.lock().unwrap().push_back((len, at));
        self.waiters.wake_all();
    }

    /// Sender side, at a synchronisation point: fold every deposited
    /// grant back into the spendable pool. No clock merge — the caller
    /// just completed a barrier the depositing receiver also passed, so
    /// the grants are already in its causal past.
    pub fn collect_ready(&self) {
        let mut g = self.granted.lock().unwrap();
        if g.is_empty() {
            return;
        }
        let mut a = self.avail.lock().unwrap();
        while let Some((len, _)) = g.pop_front() {
            a.0 = (a.0 + len).min(self.budget_bytes);
            a.1 = (a.1 + 1).min(self.budget_slots);
        }
    }

    /// Sender side, inside a backpressure stall: wait (at no virtual
    /// cost) for the earliest deposited grant, giving up when the wait
    /// stalls (a scheduler stall round). Returns `None` then, without
    /// touching any state — callers loop, checking receiver liveness and
    /// revocation in between. The popped grant is NOT yet spendable: the
    /// caller merges its timestamp and then folds it in with
    /// [`PairCredits::restore`].
    pub fn await_grant(&self) -> Option<(usize, SimTime)> {
        // Grant waits carry no timestamp: park at the task's last
        // recorded time.
        self.waiters
            .take_or_wait(&self.granted, None, |g| g.pop_front())
    }

    /// [`Self::await_grant`] that looks once and never parks.
    pub fn try_grant(&self) -> Option<(usize, SimTime)> {
        self.granted.lock().unwrap().pop_front()
    }

    /// Fold a grant popped by [`PairCredits::await_grant`] into the
    /// spendable pool (after the caller merged its timestamp).
    pub fn restore(&self, len: usize) {
        let mut a = self.avail.lock().unwrap();
        a.0 = (a.0 + len).min(self.budget_bytes);
        a.1 = (a.1 + 1).min(self.budget_slots);
    }

    /// Snapshot of the spendable pool (tests and diagnostics). Grants
    /// deposited but not yet collected are not included.
    pub fn available(&self) -> (usize, usize) {
        *self.avail.lock().unwrap()
    }

    /// Recovery: restore the full budget and drop pending grants. Used
    /// when one end of the pair died — credits owed by the dead rank are
    /// reclaimed so backpressure can never deadlock a shrink.
    pub fn reset_full(&self) {
        self.granted.lock().unwrap().clear();
        *self.avail.lock().unwrap() = (self.budget_bytes, self.budget_slots);
        self.waiters.wake_all();
    }
}

/// An installed communicator revocation: who revoked, and at which
/// virtual time. The revocation reaches every other rank through a
/// deterministic binomial gossip front (see
/// [`WorldState::revoke_arrival`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RevokeInfo {
    /// Virtual time the revoker installed the revocation.
    pub at: SimTime,
    /// World rank of the revoker.
    pub by: usize,
}

/// Shared state of one cluster run.
pub(crate) struct WorldState {
    pub fabric: Arc<Fabric>,
    pub smi: Arc<SmiWorld>,
    pub tuning: Tuning,
    pub mailboxes: Vec<Mailbox>,
    pub barrier: TimeBarrier,
    pub rings: Mutex<HashMap<(usize, usize), Arc<PairRing>>>,
    pub next_handle: AtomicU64,
    pub alloc_pools: Vec<Mutex<ShregAllocator>>,
    /// Per-rank `MPI_Alloc_mem` backing regions, created on first use:
    /// an eager 8 MiB segment per rank would commit 80 GiB at 10k ranks
    /// before any rank allocates a byte.
    pub alloc_regions: Vec<OnceLock<Arc<SharedRegion>>>,
    pub coll: Mutex<HashMap<u64, CollSlot>>,
    pub errors: ErrorMode,
    /// The active revocation, min-merged on `(at, by)` so concurrent
    /// revokers converge on one deterministic front. Cleared at `shrink`.
    pub revoke: Mutex<Option<RevokeInfo>>,
    /// Barriers for shrunken epochs, registered by the survivor leader
    /// and keyed by epoch number (epoch 0 uses `barrier`).
    pub epoch_barriers: Mutex<HashMap<u64, Arc<TimeBarrier>>>,
    /// Eager flow-control credit pools, indexed by sending world rank
    /// and keyed by receiver, created lazily like `rings`. A sender's
    /// barrier walks only its own pools.
    pub credits: Vec<Mutex<HashMap<usize, Arc<PairCredits>>>>,
    /// Survivors waiting for the shrink leader to publish a new
    /// membership epoch, under `epoch_barriers` (see `recovery::shrink`).
    pub epoch_waiters: sched::WaitQueue,
    /// The run's recorder (`None` with observability off). Every thread
    /// working for the run binds it on entry.
    pub obs: Option<Arc<obs::Recorder>>,
}

pub(crate) struct CollSlot {
    pub values: Vec<Option<Box<dyn Any + Send>>>,
    pub reads: usize,
}

impl WorldState {
    /// Allocate a globally unique protocol handle.
    pub fn handle(&self) -> u64 {
        self.next_handle.fetch_add(1, Ordering::Relaxed)
    }

    /// The `MPI_Alloc_mem` backing region of `rank`, created on first
    /// use (its segment commits [`ALLOC_POOL_BYTES`] of host memory).
    pub fn alloc_region(&self, rank: usize) -> Arc<SharedRegion> {
        Arc::clone(
            self.alloc_regions[rank]
                .get_or_init(|| self.smi.create_region(ProcId(rank), ALLOC_POOL_BYTES)),
        )
    }

    /// The rendezvous ring for messages `src → dst`, created lazily.
    pub fn ring(self: &Arc<Self>, src: usize, dst: usize) -> Arc<PairRing> {
        let mut rings = self.rings.lock().unwrap();
        Arc::clone(rings.entry((src, dst)).or_insert_with(|| {
            let chunk = self.tuning.rendezvous_chunk;
            let region = self.smi.create_region(ProcId(dst), RING_SLOTS * chunk);
            Arc::new(PairRing::new(region, RING_SLOTS, chunk))
        }))
    }

    /// The eager credit pool for messages `src → dst`, created lazily.
    pub fn credit(&self, src: usize, dst: usize) -> Arc<PairCredits> {
        let mut credits = self.credits[src].lock().unwrap();
        Arc::clone(credits.entry(dst).or_insert_with(|| {
            Arc::new(PairCredits::new(
                self.tuning.eager_credits_bytes,
                self.tuning.eager_credit_slots,
            ))
        }))
    }

    /// Collect returned eager credits on every pair whose sender is
    /// `me`. Called at barriers: the depositing receivers passed the
    /// same barrier, so every pending grant is in `me`'s causal past.
    pub fn collect_credits(&self, me: usize) {
        for c in self.credits[me].lock().unwrap().values() {
            c.collect_ready();
        }
    }

    /// Recovery: reclaim eager credits on every pair touching a dead
    /// rank, so a sender stalled on credits owed by the dead rank makes
    /// progress once the shrink installs the new epoch.
    pub fn reclaim_credits(&self, dead: &[usize]) {
        for (s, credits) in self.credits.iter().enumerate() {
            let credits = credits.lock().unwrap();
            let sender_dead = dead.contains(&s);
            for (d, c) in credits.iter() {
                if sender_dead || dead.contains(d) {
                    c.reset_full();
                }
            }
        }
    }

    /// The node hosting rank `r`.
    pub fn node_of(&self, r: usize) -> sci_fabric::NodeId {
        self.smi.node_of(ProcId(r))
    }

    /// True if the node hosting rank `r` is currently marked dead.
    pub fn peer_dead(&self, r: usize) -> bool {
        self.fabric.faults().node_dead(self.node_of(r).0)
    }

    /// Install (or min-merge) a revocation at virtual time `at` by world
    /// rank `by`. Returns `true` when this call changed the installed
    /// front (first revoke, or an earlier `(at, by)` than the current
    /// one), so concurrent revokers converge on one deterministic origin.
    pub fn revoke_from(&self, at: SimTime, by: usize) -> bool {
        let mut slot = self.revoke.lock().unwrap();
        match &*slot {
            Some(cur) if (cur.at, cur.by) <= (at, by) => false,
            _ => {
                *slot = Some(RevokeInfo { at, by });
                true
            }
        }
    }

    /// Drop the installed revocation (the new epoch is in force).
    pub fn clear_revoke(&self) {
        *self.revoke.lock().unwrap() = None;
    }

    /// When does the active revocation front reach world rank `me`?
    ///
    /// Pure read: the front spreads as a binomial-tree gossip rooted at
    /// the revoker, so the rank at hop distance `p = (me - by) mod n`
    /// observes it `ceil(log2(p + 1))` hops of `REVOKE_HOP_COST` after
    /// the revoke time — a deterministic function of `(at, by, me)`
    /// regardless of which thread asks first. Returns `None` when no
    /// revocation is installed or the calling thread is running exempt
    /// recovery-internal protocol (agreement, shrink).
    pub fn revoke_arrival(&self, me: usize) -> Option<(SimTime, usize)> {
        if crate::recovery::is_exempt() {
            return None;
        }
        self.revoke_front(me)
    }

    /// [`Self::revoke_arrival`] for any caller, exempt or not.
    fn revoke_front(&self, me: usize) -> Option<(SimTime, usize)> {
        let slot = self.revoke.lock().unwrap();
        slot.as_ref().map(|r| {
            let n = self.mailboxes.len();
            let p = (me + n - r.by) % n;
            let depth = (usize::BITS - p.leading_zeros()) as u64;
            (r.at + REVOKE_HOP_COST.saturating_mul(depth), r.by)
        })
    }

    /// Observe the active revocation from a blocked protocol wait on
    /// world rank `me`: charge the gossip-front arrival as a `recovery`
    /// wait and return [`ScimpiError::Revoked`]. `None` when there is no
    /// revocation to observe (or the thread is exempt).
    pub fn check_revoked(&self, clock: &mut Clock, me: usize) -> Option<ScimpiError> {
        let front = self.revoke_arrival(me)?;
        Some(observe_revoke(clock, front))
    }

    /// Recovery: fail every receive still posted with
    /// [`ScimpiError::Revoked`], charged at the revocation front's
    /// arrival at its rank. The shrink leader calls this just before it
    /// lifts the revocation: concurrent revokers have merged the front by
    /// then, and every survivor is inside the shrink, so nothing posts.
    pub(crate) fn revoke_posted(self: &Arc<Self>) {
        for (me, mailbox) in self.mailboxes.iter().enumerate() {
            let Some(front) = self.revoke_front(me) else {
                return;
            };
            for delivery in mailbox.take_posted() {
                (delivery.run)(self, Err(front));
            }
        }
    }

    /// The one blocking loop (`docs/SCHEDULER.md`): `wait` parks until it
    /// yields, and returns `None` on a scheduler stall round. A stall
    /// round checks whether a revocation has reached world rank `me`
    /// (never, for an exempt caller) and whether `peer`, if there is one
    /// to watch, is dead; with neither, the wait resumes. Otherwise
    /// `take` looks once more, since what landed between the stall and
    /// the check still counts, and failing that the wait fails on
    /// `clock`: [`ScimpiError::Revoked`] at the gossip front's arrival,
    /// or [`ScimpiError::PeerDead`] after the declared-dead schedule,
    /// whose span names the wait `what`. The error is not escalated.
    ///
    /// A healthy-but-slow peer costs no virtual time: liveness is only
    /// checked at stall rounds, and only a confirmed death charges.
    pub(crate) fn block_on<T>(
        &self,
        me: usize,
        clock: &mut Clock,
        peer: Option<(usize, &'static str)>,
        mut wait: impl FnMut(&mut Clock) -> Option<T>,
        mut take: impl FnMut(&mut Clock) -> Option<T>,
    ) -> Result<T, ScimpiError> {
        loop {
            if let Some(got) = wait(clock) {
                return Ok(got);
            }
            let revoked = self.revoke_arrival(me).is_some();
            let dead = peer.filter(|&(p, _)| !revoked && self.peer_dead(p));
            if !revoked && dead.is_none() {
                continue;
            }
            if let Some(got) = take(clock) {
                return Ok(got);
            }
            return Err(match dead {
                Some((p, what)) => self.declare_dead(clock, p, what),
                None => observe_revoke(clock, self.revoke_arrival(me).expect("revoked")),
            });
        }
    }

    /// Wait for a protocol packet for `handle` on `rank`'s mailbox,
    /// guarding against `peer` dying mid-handshake (`WorldState::block_on`).
    pub fn await_ctrl(
        &self,
        rank: usize,
        clock: &mut Clock,
        handle: u64,
        peer: usize,
        what: &'static str,
    ) -> Result<crate::mailbox::Ctrl, ScimpiError> {
        let mailbox = &self.mailboxes[rank];
        self.block_on(
            rank,
            clock,
            Some((peer, what)),
            |_| mailbox.wait_ctrl(handle),
            |_| mailbox.try_ctrl(handle),
        )
    }

    /// Charge the deterministic timeout/backoff schedule for a peer that
    /// stopped responding and report it dead. The schedule is a constant
    /// ([`crate::error::death_delay`]), so the waiting rank's clock ends
    /// up bit-identical across runs.
    pub fn declare_dead(&self, clock: &mut Clock, peer: usize, what: &'static str) -> ScimpiError {
        let start = clock.now();
        for window in crate::error::timeout_windows() {
            clock.advance(window);
            obs::inc(obs::Counter::ProtocolTimeouts);
            clock.advance(PROBE_COST);
        }
        obs::inc(obs::Counter::PeersDeclaredDead);
        obs::span(
            "ft.peer_dead",
            start,
            clock.now(),
            vec![
                ("peer", obs::Arg::U64(peer as u64)),
                ("what", obs::Arg::Str(what.to_string())),
            ],
        );
        ScimpiError::PeerDead { peer }
    }

    /// Route a detected error through the configured error handler:
    /// under [`ErrorMode::ErrorsAreFatal`] the rank panics (tearing the
    /// run down, like `MPI_ERRORS_ARE_FATAL`); under
    /// [`ErrorMode::ErrorsReturn`] the error comes back as a value.
    pub fn escalate(&self, e: ScimpiError) -> ScimpiError {
        match self.errors {
            ErrorMode::ErrorsAreFatal => panic!("fatal communication error: {e}"),
            ErrorMode::ErrorsReturn => e,
        }
    }

    /// CPU cost of computing or verifying a CRC32 over `len` payload
    /// bytes (`EndToEnd` integrity framing).
    pub fn crc_cost(&self, len: usize) -> SimDuration {
        CRC_COST_PER_BYTE.saturating_mul(len as u64)
    }

    /// One-way control-packet latency from rank `src` to rank `dst`.
    pub fn ctrl_latency(&self, src: usize, dst: usize) -> SimDuration {
        let hops = self
            .fabric
            .topology()
            .distance(self.smi.node_of(ProcId(src)), self.smi.node_of(ProcId(dst)));
        self.fabric.params().wire_latency(hops)
    }
}

/// The per-rank handle passed to user code: the MPI interface.
///
/// Rank identity is two-layered since the recovery subsystem landed:
/// the *world rank* (`world_rank`, the thread's immutable position in
/// the launched cluster, which all transport internals — mailboxes,
/// rings, windows, routes — are indexed by) and the *logical rank*
/// (`rank()`, this rank's dense index in the current membership
/// epoch). At epoch 0 the two coincide for every rank; after a
/// [`crate::recovery::shrink`] the survivors are re-ranked densely and
/// every public communication verb translates logical ranks at the API
/// boundary.
pub struct Rank {
    /// World rank: immutable transport identity.
    pub(crate) rank: usize,
    /// World size: immutable transport extent.
    pub(crate) size: usize,
    pub(crate) clock: Clock,
    pub(crate) world: Arc<WorldState>,
    pub(crate) coll_seq: u64,
    /// Completion times of requests that were dropped unwaited; merged at
    /// the next synchronisation point (see [`crate::request`]).
    pub(crate) drop_bin: Arc<crate::request::DropBin>,
    /// Nonblocking requests posted but not yet completed (the pending-
    /// request table; entries leave through `wait`/`test`/drop).
    pub(crate) pending_requests: usize,
    /// World ranks in the current membership epoch, sorted ascending.
    pub(crate) members: Arc<Vec<usize>>,
    /// This rank's dense index in `members` (== its logical rank).
    pub(crate) my_index: usize,
    /// Current membership epoch (0 = the launch membership).
    pub(crate) epoch: u64,
    /// Barrier of the current epoch; `None` means epoch 0 (the world
    /// barrier).
    pub(crate) epoch_barrier: Option<Arc<TimeBarrier>>,
    /// Lazily created PSCW window the one-sided collective schedules
    /// stage chunks through, reused across collectives of the same
    /// membership epoch (see [`crate::collective`]).
    pub(crate) coll_win: Option<crate::collective::CollWin>,
}

/// Observe a revocation whose front reached a rank at `arrival`, from
/// the revoker `by`: charge the wait for it on `clock` as a `recovery`
/// wait and return [`ScimpiError::Revoked`].
pub(crate) fn observe_revoke(clock: &mut Clock, (arrival, by): (SimTime, usize)) -> ScimpiError {
    obs::inc(obs::Counter::RevokesObserved);
    obs::attrib::merge_waited(clock, arrival, obs::WaitKind::Recovery, Some(by as u32));
    ScimpiError::Revoked
}

/// Wait on the current epoch's barrier (disjoint-field helper so the
/// clock can be borrowed mutably next to the barrier reference).
fn epoch_barrier_wait(clock: &mut Clock, eb: &Option<Arc<TimeBarrier>>, world: &WorldState) {
    match eb {
        Some(b) => {
            b.wait(clock);
        }
        None => {
            world.barrier.wait(clock);
        }
    }
}

impl Rank {
    /// This rank's id (`MPI_Comm_rank`): the dense logical rank in the
    /// current membership epoch. Equal to [`Rank::world_rank`] until a
    /// `shrink` installs a smaller membership.
    // Not the `rank` field: that holds the immutable world rank, while
    // the MPI-facing id is the epoch-local index.
    #[allow(clippy::misnamed_getters)]
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Communicator size (`MPI_Comm_size`): members of the current
    /// epoch. Equal to the launched world size until a `shrink`.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's immutable world rank (its position in the launched
    /// cluster, independent of membership epochs).
    pub fn world_rank(&self) -> usize {
        self.rank
    }

    /// The current membership epoch (0 = launch membership; each
    /// successful `shrink` advances it by one).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// World ranks of the current epoch's members, sorted ascending.
    /// The logical rank of member `i` is `i`.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Translate a logical rank of the current epoch to a world rank,
    /// panicking (like every out-of-range rank argument) when it is not
    /// a member.
    pub(crate) fn to_world(&self, logical: usize) -> usize {
        assert!(
            logical < self.members.len(),
            "destination rank {logical} out of range"
        );
        self.members[logical]
    }

    /// Translate a world rank back to the logical rank of the current
    /// epoch; falls back to the world value when it is not a member
    /// (e.g. a straggler message from a pre-shrink epoch).
    pub(crate) fn to_logical(&self, world: usize) -> usize {
        self.members.binary_search(&world).unwrap_or(world)
    }

    /// Virtual wall-clock (`MPI_Wtime`), in seconds.
    pub fn wtime(&self) -> f64 {
        self.clock.now().as_secs_f64()
    }

    /// The raw virtual time point.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Charge local computation to this rank's clock (simulated
    /// application work between communication calls). Every advance also
    /// ticks the progress engine, folding in requests that completed by
    /// being dropped.
    pub fn compute(&mut self, cost: SimDuration) {
        obs::attrib::advance(&mut self.clock, obs::Bucket::Compute, cost);
        self.reap_dropped();
    }

    /// Number of posted-but-uncompleted nonblocking requests.
    pub fn pending_requests(&self) -> usize {
        self.pending_requests
    }

    /// Spendable eager flow-control credits (payload bytes, envelope
    /// slots) toward logical rank `dst` — a sender-side diagnostic for
    /// flow-control tests. Grants deposited by the receiver but not yet
    /// collected (at a stall or a barrier) are not included.
    pub fn eager_credits_available(&self, dst: usize) -> (usize, usize) {
        let dst_w = self.to_world(dst);
        self.world.credit(self.rank, dst_w).available()
    }

    /// The node hosting this rank.
    pub fn node(&self) -> sci_fabric::NodeId {
        self.world.smi.node_of(ProcId(self.rank))
    }

    /// The active protocol tuning.
    pub fn tuning(&self) -> &Tuning {
        &self.world.tuning
    }

    /// The underlying fabric (benchmarks read link traffic through this).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.world.fabric
    }

    /// Total time this rank spent blocked on peers.
    pub fn waited(&self) -> SimDuration {
        self.clock.total_waited()
    }

    /// Barrier over the current membership (`MPI_Barrier`). Infallible
    /// wrapper kept for the overwhelmingly common fault-free call sites:
    /// a revocation surfacing mid-barrier is escalated through the error
    /// handler by [`Rank::barrier_checked`], and under `ErrorsReturn`
    /// this wrapper discards the `Revoked` value (revocation-aware code
    /// calls `barrier_checked` directly).
    pub fn barrier(&mut self) {
        let _ = self.barrier_checked();
    }

    /// Barrier over the current membership that observes revocation: a
    /// rank blocked here while some peer revokes the communicator errors
    /// out with [`ScimpiError::Revoked`] at the deterministic gossip-
    /// front arrival time instead of waiting forever for dead members.
    pub fn barrier_checked(&mut self) -> Result<(), ScimpiError> {
        self.reap_dropped();
        let me = self.rank;
        let world = Arc::clone(&self.world);
        let barrier = match &self.epoch_barrier {
            Some(b) => b.as_ref(),
            None => &world.barrier,
        };
        match barrier.wait_cancel(&mut self.clock, || {
            world.revoke_arrival(me).map(|(at, _)| at)
        }) {
            Ok(_) => {
                // Every member passed the barrier, so credits returned
                // by receivers before it are in our causal past: fold
                // them back into the spendable pools.
                world.collect_credits(me);
                Ok(())
            }
            Err(_) => {
                let e = world
                    .check_revoked(&mut self.clock, me)
                    .expect("cancellation implies an installed revocation");
                Err(world.escalate(e))
            }
        }
    }

    /// Gather one value from every rank, returning the full vector to all
    /// (a control-plane helper used by collective constructors; charged a
    /// barrier, not modelled as a data all-gather).
    pub(crate) fn collective_gather<T: Clone + Send + 'static>(&mut self, value: T) -> Vec<T> {
        // Key the slot table by (epoch, seq): per-rank sequence counters
        // reset to 0 when a shrink installs a new epoch, and pre-shrink
        // slots must never collide with post-shrink ones.
        debug_assert!(self.coll_seq < 1 << 32, "collective sequence overflow");
        let seq = (self.epoch << 32) | self.coll_seq;
        self.coll_seq += 1;
        let size = self.members.len();
        {
            let mut tbl = self.world.coll.lock().unwrap();
            let slot = tbl.entry(seq).or_insert_with(|| CollSlot {
                values: std::iter::repeat_with(|| None).take(size).collect(),
                reads: 0,
            });
            if slot.values.len() != size {
                slot.values = std::iter::repeat_with(|| None).take(size).collect();
            }
            slot.values[self.my_index] = Some(Box::new(value));
        }
        epoch_barrier_wait(&mut self.clock, &self.epoch_barrier, &self.world);
        let result: Vec<T> = {
            let tbl = self.world.coll.lock().unwrap();
            let slot = tbl.get(&seq).expect("slot deposited");
            slot.values
                .iter()
                .map(|v| {
                    v.as_ref()
                        .expect("all ranks deposited before barrier")
                        .downcast_ref::<T>()
                        .expect("collective type mismatch across ranks")
                        .clone()
                })
                .collect()
        };
        // Cleanup once everyone has read.
        {
            let mut tbl = self.world.coll.lock().unwrap();
            let done = {
                let slot = tbl.get_mut(&seq).expect("slot present");
                slot.reads += 1;
                slot.reads == size
            };
            if done {
                tbl.remove(&seq);
            }
        }
        result
    }
}

/// Launch a simulated cluster and run `f` on every rank. Returns the
/// per-rank results, indexed by rank.
///
/// Panics in any rank are propagated (the run is torn down).
///
/// Every rank, request engine and `sendrecv` send half runs on a
/// coroutine stack that outlives the run ([`sched::run_roots`]): the
/// process keeps as many stacks mapped as its runs held at once, 1 MiB
/// reserved plus the touched pages each, and a later run reuses them.
pub fn run<F, T>(spec: ClusterSpec, f: F) -> Vec<T>
where
    F: Fn(&mut Rank) -> T + Send + Sync,
    T: Send,
{
    run_report(spec, f).0
}

/// The thread-local state of a rank, engine or helper task, carried
/// across switches: its recorder binding and whether it runs inside a
/// reliable protocol section or revocation-exempt recovery protocol.
#[derive(Default)]
struct TaskLocals {
    lane: obs::Binding,
    reliable: bool,
    exempt: bool,
}

impl sched::TaskLocal for TaskLocals {
    fn swap(&mut self) {
        self.lane.swap();
        crate::p2p::swap_reliable(&mut self.reliable);
        crate::recovery::swap_exempt(&mut self.exempt);
    }
}
/// [`run`], also returning what the run observed about itself. The
/// report is a function of this run alone: nothing else the process
/// runs, before or concurrently, shows up in it. The coroutine stacks
/// the run leaves stay mapped for the process's next runs, as in [`run`].
pub fn run_report<F, T>(spec: ClusterSpec, f: F) -> (Vec<T>, RunReport)
where
    F: Fn(&mut Rank) -> T + Send + Sync,
    T: Send,
{
    assert!(
        spec.topology.node_count() > 0 && spec.procs_per_node > 0,
        "cluster needs at least one node and one proc per node"
    );
    if let Err(e) = spec.tuning.validate() {
        panic!("invalid cluster spec: {e}");
    }
    // Trace events are kept only to write the trace file.
    let recorder = spec.obs.enabled.then(|| match spec.obs.trace_path {
        Some(_) => obs::Recorder::with_events(),
        None => obs::Recorder::new(),
    });
    // Hooks fired from set-up on this thread count too; the binding
    // drops, folding its lane in, once the ranks have run.
    let bound = recorder.as_ref().map(|r| r.bind(0));
    let fabric = Fabric::new(FabricSpec {
        topology: spec.topology.clone(),
        params: spec.params.clone(),
        faults: spec.faults.clone(),
        seed: spec.seed,
    });
    let smi = SmiWorld::packed(Arc::clone(&fabric), spec.procs_per_node);
    let size = spec.num_ranks();
    let mut mailboxes = Vec::with_capacity(size);
    mailboxes.resize_with(size, Mailbox::new);
    let alloc_regions: Vec<OnceLock<Arc<SharedRegion>>> =
        (0..size).map(|_| OnceLock::new()).collect();
    let alloc_pools: Vec<Mutex<ShregAllocator>> = (0..size)
        .map(|_| Mutex::new(ShregAllocator::new(ALLOC_POOL_BYTES)))
        .collect();
    let world = Arc::new(WorldState {
        fabric,
        smi,
        tuning: spec.tuning.clone(),
        mailboxes,
        barrier: TimeBarrier::new(size, BARRIER_HOP),
        rings: Mutex::new(HashMap::new()),
        next_handle: AtomicU64::new(1),
        alloc_pools,
        alloc_regions,
        coll: Mutex::new(HashMap::new()),
        errors: spec.errors,
        revoke: Mutex::new(None),
        epoch_barriers: Mutex::new(HashMap::new()),
        credits: (0..size).map(|_| Mutex::new(HashMap::new())).collect(),
        epoch_waiters: sched::WaitQueue::new(),
        obs: recorder.clone(),
    });

    // One launch membership for every rank, not a `size`-long copy each.
    let launch_members: Arc<Vec<usize>> = Arc::new((0..size).collect());
    // Every rank is a root task of one scheduler (`docs/SCHEDULER.md`).
    let (results, stats) = sched::run_roots_with::<TaskLocals, _>(size, |rank| {
        let _bound = world.obs.as_ref().map(|o| o.bind(rank as u32));
        // Only ranks contribute to time attribution; engine and helper
        // tasks with forked clocks stay unmarked so no picosecond is
        // charged twice.
        obs::attrib::set_thread_attrib(true);
        let mut r = Rank {
            rank,
            size,
            clock: Clock::new(),
            world: Arc::clone(&world),
            coll_seq: 0,
            drop_bin: Arc::new(crate::request::DropBin::default()),
            pending_requests: 0,
            members: Arc::clone(&launch_members),
            my_index: rank,
            epoch: 0,
            epoch_barrier: None,
            coll_win: None,
        };
        let out = f(&mut r);
        // Teardown: requests dropped inside `f` completed on their
        // engines; fold their virtual time in so a fire-and-forget
        // isend is never lost.
        r.reap_dropped();
        obs::attrib::record_makespan(rank as u32, r.clock.now());
        out
    });
    drop(bound);
    let mut report = RunReport {
        event_stats: Some(stats),
        ..RunReport::default()
    };

    if let Some(rec) = &recorder {
        // Deterministic peak-backlog gauge: each mailbox logged
        // (virtual time, Δmessages, Δeager-bytes) events for the
        // messages it held; sweeping them in virtual-time order —
        // removals before additions at equal times, so a credit recycled
        // at time T never double-counts — yields the peak queue depth.
        for (rank, mb) in world.mailboxes.iter().enumerate() {
            let Some(mut events) = mb.take_backlog_events() else {
                continue;
            };
            events.sort_by_key(|&(at, dmsgs, dbytes)| (at, dmsgs, dbytes));
            let (mut msgs, mut bytes) = (0i64, 0i64);
            let (mut peak_msgs, mut peak_bytes) = (0i64, 0i64);
            for (_, dmsgs, dbytes) in events {
                msgs += dmsgs;
                bytes += dbytes;
                peak_msgs = peak_msgs.max(msgs);
                peak_bytes = peak_bytes.max(bytes);
            }
            report.peak_backlogs.push(obs::PeakBacklog {
                rank: rank as u32,
                msgs: peak_msgs as u64,
                eager_bytes: peak_bytes as u64,
            });
        }
        report.link_snapshots.push(obs::LinkSnapshot {
            label: "end-of-run".to_string(),
            per_link: world
                .fabric
                .links()
                .traffic()
                .per_link()
                .iter()
                .map(|(id, t)| (id.0, t.data_bytes, t.fc_bytes))
                .collect(),
        });
        report.counters = rec.counters();
        report.events = rec.take_events();
        let profile = obs::report::build(rec);
        if let Some(path) = &spec.obs.trace_path {
            if let Err(e) = std::fs::write(path, obs::chrome_trace_json(&report.events)) {
                eprintln!("obs: failed to write trace {}: {e}", path.display());
            }
        }
        if let Some(path) = &spec.obs.counters_path {
            let doc = obs::counters_jsonl(&report.counters, &report.link_snapshots);
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("obs: failed to write counters {}: {e}", path.display());
            }
        }
        if let Some(path) = &spec.obs.profile_path {
            if let Err(e) = std::fs::write(path, obs::report::profile_json(&profile)) {
                eprintln!("obs: failed to write profile {}: {e}", path.display());
            }
        }
        report.profile = Some(profile);
    }
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_per_rank_results() {
        let out = run(ClusterSpec::ringlet(4), |r| r.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn ranks_see_world_size_and_nodes() {
        let mut spec = ClusterSpec::ringlet(2);
        spec.procs_per_node = 3;
        let out = run(spec, |r| (r.size(), r.node().0));
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|&(s, _)| s == 6));
        assert_eq!(out[0].1, 0);
        assert_eq!(out[5].1, 1);
    }

    #[test]
    fn wtime_advances_with_compute() {
        let out = run(ClusterSpec::ringlet(1), |r| {
            let t0 = r.wtime();
            r.compute(SimDuration::from_ms(5));
            r.wtime() - t0
        });
        assert!((out[0] - 0.005).abs() < 1e-9);
    }

    #[test]
    fn barrier_synchronises_virtual_time() {
        let out = run(ClusterSpec::ringlet(4), |r| {
            r.compute(SimDuration::from_us(r.rank() as u64 * 100));
            r.barrier();
            r.now()
        });
        assert!(out.iter().all(|t| *t == out[0]));
        assert!(out[0] >= SimTime::ZERO + SimDuration::from_us(300));
    }

    #[test]
    fn collective_gather_exchanges_values() {
        let out = run(ClusterSpec::ringlet(3), |r| {
            r.collective_gather(format!("r{}", r.rank()))
        });
        for v in out {
            assert_eq!(v, vec!["r0", "r1", "r2"]);
        }
    }

    #[test]
    fn collective_gather_reusable_many_times() {
        let out = run(ClusterSpec::ringlet(2), |r| {
            let mut acc = 0usize;
            for i in 0..50 {
                let vals = r.collective_gather(r.rank() + i);
                acc += vals.iter().sum::<usize>();
            }
            acc
        });
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn pair_ring_slots_block_and_release() {
        let spec = ClusterSpec::ringlet(2);
        run(spec, |r| {
            if r.rank() == 0 {
                let grab =
                    |ring: &PairRing, clock: &mut Clock| ring.acquire(clock).expect("slot free");
                let ring = r.world.ring(0, 1);
                let s0 = grab(&ring, &mut r.clock);
                let s1 = grab(&ring, &mut r.clock);
                assert_ne!(s0, s1);
                // Release with a future timestamp; re-acquiring merges it.
                let future = r.now() + SimDuration::from_us(50);
                ring.release(s0, future);
                let s2 = grab(&ring, &mut r.clock);
                assert_eq!(s2, s0);
                assert!(r.now() >= future);
                ring.release(s1, r.now());
                ring.release(s2, r.now());
            }
        });
    }

    #[test]
    fn a_stalled_wait_leaves_the_free_list_the_credits_and_the_clock_alone() {
        let spec = ClusterSpec::ringlet(2);
        run(spec, |r| {
            if r.rank() != 0 {
                return;
            }
            // Every slot held and nobody to release one: the wait ends in
            // a stall round.
            let ring = r.world.ring(0, 1);
            let held: Vec<usize> = (0..RING_SLOTS)
                .map(|_| ring.try_acquire(&mut r.clock).expect("slot free"))
                .collect();
            let before = r.now();
            assert_eq!(ring.acquire(&mut r.clock), None);
            assert_eq!(ring.try_acquire(&mut r.clock), None);
            assert_eq!(r.now(), before, "a stalled wait moved the clock");
            for &s in &held {
                ring.release(s, before);
            }
            let mut free: Vec<usize> = (0..RING_SLOTS)
                .map(|_| {
                    ring.try_acquire(&mut r.clock)
                        .expect("every slot came back")
                })
                .collect();
            free.sort_unstable();
            assert_eq!(free, (0..RING_SLOTS).collect::<Vec<_>>());
            // No grant deposited: likewise, and the pool is as spent as
            // it was.
            let credits = r.world.credit(0, 1);
            assert!(credits.try_consume(300));
            let spent = credits.available();
            assert_eq!(credits.await_grant(), None);
            assert_eq!(credits.try_grant(), None);
            assert_eq!(credits.available(), spent);
            // A deposited grant is popped once, unspendable until restored.
            credits.deposit(300, before);
            assert_eq!(credits.await_grant(), Some((300, before)));
            assert_eq!(credits.try_grant(), None);
            assert_eq!(credits.available(), spent);
        });
    }

    #[test]
    fn credit_collection_and_reclaim_touch_exactly_their_pairs() {
        run(ClusterSpec::ringlet(4), |r| {
            if r.rank() != 0 {
                return;
            }
            let w = &r.world;
            let full = (w.tuning.eager_credits_bytes, w.tuning.eager_credit_slots);
            let pairs: Vec<(usize, usize)> = (0..4)
                .flat_map(|s| (0..4).map(move |d| (s, d)))
                .filter(|(s, d)| s != d)
                .collect();
            // Every ordered pair spends a distinct amount and has the
            // grant for it deposited, uncollected.
            let len = |s: usize, d: usize| 100 + 10 * s + d;
            let spent = |s, d| (full.0 - len(s, d), full.1 - 1);
            for &(s, d) in &pairs {
                let c = w.credit(s, d);
                assert!(c.try_consume(len(s, d)));
                c.deposit(len(s, d), r.now());
            }
            // A barrier on rank 1 folds in rank 1's own pools only.
            w.collect_credits(1);
            for &(s, d) in &pairs {
                let want = if s == 1 { full } else { spent(s, d) };
                assert_eq!(w.credit(s, d).available(), want, "collect: pair {s}->{d}");
            }
            // Rank 2 dies: every pair it sends or receives on is reset,
            // pending grants included; no other pair moves.
            w.reclaim_credits(&[2]);
            for &(s, d) in &pairs {
                let want = if s == 1 || s == 2 || d == 2 {
                    full
                } else {
                    spent(s, d)
                };
                assert_eq!(w.credit(s, d).available(), want, "reclaim: pair {s}->{d}");
            }
            // The untouched pairs still hold their grants: 0->1 and 0->3
            // fold in at rank 0's barrier, 3->0 and 3->1 stay spent.
            w.collect_credits(0);
            for &(s, d) in &pairs {
                let want = if s == 3 && d != 2 { spent(s, d) } else { full };
                assert_eq!(w.credit(s, d).available(), want, "second collect: {s}->{d}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_panics() {
        let _ = run(ClusterSpec::ringlet(0), |_| ());
    }

    #[test]
    fn multi_ring_cluster_runs() {
        // Two ringlets of 4 joined by a switch: inter-ring messages cost
        // more than intra-ring ones.
        let out = run(ClusterSpec::multi_ring(2, 4), |r| {
            assert_eq!(r.size(), 8);
            let payload = vec![1u8; 8 * 1024];
            let mut buf = vec![0u8; 8 * 1024];
            match r.rank() {
                // Intra-ring pair 0 -> 1.
                0 => {
                    r.send(1, 0, &payload).unwrap();
                    SimDuration::ZERO
                }
                1 => {
                    let t0 = r.now();
                    r.recv(crate::Source::Rank(0), crate::TagSel::Value(0), &mut buf)
                        .unwrap();
                    r.now() - t0
                }
                // Cross-ring pair 2 -> 6.
                2 => {
                    r.send(6, 0, &payload).unwrap();
                    SimDuration::ZERO
                }
                6 => {
                    let t0 = r.now();
                    r.recv(crate::Source::Rank(2), crate::TagSel::Value(0), &mut buf)
                        .unwrap();
                    r.now() - t0
                }
                _ => SimDuration::ZERO,
            }
        });
        assert!(
            out[6] > out[1],
            "cross-ring {:?} <= intra-ring {:?}",
            out[6],
            out[1]
        );
    }
}

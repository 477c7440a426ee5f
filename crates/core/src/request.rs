//! Nonblocking request engine: `isend`/`irecv`/`ialltoall` and the
//! `wait`/`test`/`waitall`/`waitany` completion surface.
//!
//! # Overlap model
//!
//! A nonblocking operation forks the posting rank's [`simclock::Clock`]
//! at post time and drives the transfer protocol on an *engine* against
//! the fork, while the rank's own clock keeps advancing through
//! [`Rank::compute`]. The engine is a scheduler task, a coroutine on
//! the launching thread ([`sched::spawn`]: a request costs a stack
//! switch, not a thread). Only a rendezvous transfer or an `ialltoall`
//! needs one. A transfer with nothing left to wait for runs to its end
//! on the fork at post: an eager `isend` with credits in hand,
//! `iput`/`iget`, and an `irecv` whose eager message is already queued.
//! An `irecv` posted before its message runs nothing until the send
//! that matches it: the sender consumes an eager message into the
//! receive on the fork, as SCI's remote stores land in the receiver's
//! buffer (paper §2), or starts the engine for an RTS. Completion merges
//! the fork back:
//!
//! ```text
//! completion = max(compute frontier, link-drain time of the transfer)
//! ```
//!
//! which is exactly the overlap a real asynchronous progress engine
//! (or NIC-driven RDMA) buys — communication hides behind computation
//! up to the point where the wire is the bottleneck. The virtual time
//! saved relative to a blocking call, `min(end, now) - posted_at`, is
//! accumulated in the [`obs::Counter::OverlapSavedNs`] counter.
//!
//! Everything stays deterministic: the engine charges cost to its
//! forked clock only, turn tickets and receive tickets are taken by the
//! posting rank itself at post time (program order — see
//! `Mailbox::post_recv` and the send-turn ticketing on
//! `PairRing`), and completion verdicts compare virtual times, never
//! real ones. Same seed, same answer, bit for bit.
//!
//! # Lifecycle
//!
//! ```text
//! post ──(rendezvous isend, ialltoall)──────────► Running ──┐
//!   │                                               ▲       │
//!   ├──(irecv, nothing queued)────► Posted ──(RTS)──┘       ├── wait/test ──► Done
//!   │                                 │                     │
//!   │                         (eager: the sender            │
//!   │                          consumes it; or a            │
//!   │                          shrink revokes it)           │
//!   │                                 ▼                     │
//!   └──(eager isend, iput, iget, ─► Ready ──────────────────┴── drop unwaited ──► DropBin
//!       irecv of a queued eager
//!       message: done at post)
//!
//!                     (the drop bin is reaped at the next compute / barrier /
//!                      teardown — no virtual time lost)
//! ```
//!
//! `wait`, `test` and a drop of a `Posted` receive park until the sender
//! has delivered; on a scheduler stall round they run the blocking
//! receive's checks (revocation, a dead source) on the fork clock, so a
//! failure lands at the virtual time the receive's match ran. A shrink
//! fails every receive still `Posted` with `Revoked` before it lifts the
//! revocation.
//!
//! Dropping a request without waiting is *allowed* (fire-and-forget
//! puts/sends): the drop joins the engine — so the peer is never
//! left mid-handshake — and parks the completion time in the rank's
//! [`DropBin`]; the next synchronisation point merges it. A dropped
//! request that completed with an error parks the error alongside the
//! time: the next synchronisation point routes it through the rank's
//! [`crate::ErrorMode`] handler (fatal mode aborts there; return mode
//! records a `req.dropped_error` trace instant) — a failed transfer is
//! never lost silently, even in release builds.
//!
//! See `docs/ASYNC.md` for the full narrative and the migration table
//! from the old `try_*` API.

use crate::error::ScimpiError;
use crate::mailbox::{fill, Handed, Head, Posted, Slot, Source, TagSel};
use crate::p2p::{
    await_delivery, consume_recv, finish_send_inner, resolve_layout, RecvBuf, RecvStatus, SendData,
    SendOpKind,
};
use crate::runtime::{observe_revoke, Rank, WorldState};
use crate::tuning::PROGRESS_POLL_COST;
use mpi_datatype::Committed;
use simclock::{Clock, SimDuration, SimTime};
use std::sync::{Arc, Mutex};

/// Completion times of requests that were dropped unwaited.
/// [`Request::drop`] deposits here; the owning rank drains
/// it at every synchronisation point ([`Rank::compute`],
/// [`Rank::barrier`], teardown) so the virtual time of a
/// fire-and-forget transfer is never lost.
#[derive(Default)]
pub struct DropBin {
    times: Mutex<Vec<(SimTime, Option<ScimpiError>)>>,
}

impl DropBin {
    fn push(&self, t: SimTime, err: Option<ScimpiError>) {
        self.times.lock().unwrap().push((t, err));
    }

    fn drain(&self) -> Vec<(SimTime, Option<ScimpiError>)> {
        std::mem::take(&mut *self.times.lock().unwrap())
    }
}

/// Should this error pass the rank's error-handler machinery when a
/// request completion first observes it at `wait`/`test` time? Caller
/// bugs (out-of-range window arguments) are plain return values;
/// communication faults (dead peers, corruption, revocation) escalate
/// through [`crate::ErrorMode`] on the owning thread.
fn escalates(e: &ScimpiError) -> bool {
    !matches!(
        e,
        ScimpiError::WindowError(_) | ScimpiError::Fabric(sci_fabric::SciError::OutOfBounds(_))
    )
}

/// A completed receive: the matched status plus the received bytes.
///
/// `irecv` cannot borrow the destination buffer for the lifetime of the
/// transfer (which outlives the call), so the payload lands
/// in an owned buffer handed back at completion. For
/// [`Rank::irecv`] the data is truncated to the received length; for
/// [`Rank::irecv_typed`] it spans the typed layout, gaps zeroed (see
/// there for where displacement 0 sits).
#[derive(Clone, Debug)]
pub struct RecvDone {
    /// Matched source/tag/length.
    pub status: RecvStatus,
    /// The received payload.
    pub data: Vec<u8>,
}

/// What an in-flight isend owns (the engine needs `'static` data;
/// borrowing the caller's buffer would tie the request to it).
pub(crate) enum OwnedSend {
    Bytes(Vec<u8>),
    Typed {
        c: Committed,
        count: usize,
        buf: Vec<u8>,
        origin: usize,
    },
}

impl OwnedSend {
    /// A copy of what `data` sends.
    pub(crate) fn copy_of(data: SendData<'_>) -> OwnedSend {
        match data {
            SendData::Bytes(b) => OwnedSend::Bytes(b.to_vec()),
            SendData::Typed {
                c,
                count,
                buf,
                origin,
            } => OwnedSend::Typed {
                c: c.clone(),
                count,
                buf: buf.to_vec(),
                origin,
            },
        }
    }

    pub(crate) fn as_data(&self) -> SendData<'_> {
        match self {
            OwnedSend::Bytes(b) => SendData::Bytes(b),
            OwnedSend::Typed {
                c,
                count,
                buf,
                origin,
            } => SendData::Typed {
                c,
                count: *count,
                buf,
                origin: *origin,
            },
        }
    }
}

/// Where an engine leaves the fork's final time and the result.
pub(crate) type Completion<T> = Arc<Mutex<Option<(SimTime, Result<T, ScimpiError>)>>>;

enum State<T> {
    /// A receive in the posted queue, waiting for the send that matches
    /// it to deliver into it; no task runs for it. Running the wait
    /// parks until the delivery.
    Posted(Box<dyn FnOnce() -> State<T> + Send + Sync>),
    /// The transfer is being driven by an engine (a spawned scheduler
    /// task, joined in virtual time) against a forked clock; a joined
    /// engine has filled the completion. A panicking engine aborts the
    /// run, and the join unwinds with every other task.
    Running(sched::Handle, Completion<T>),
    /// The transfer's virtual end time is known but the completion has
    /// not been folded into the rank's clock yet.
    Ready(SimTime, Result<T, ScimpiError>),
    /// Completion observed through `wait`/`test`; re-waiting returns the
    /// stored result (idempotent, like waiting an inactive MPI request).
    Done(SimTime, Result<T, ScimpiError>),
}

/// Start an engine for world rank `id`: `f` drives the transfer on
/// `clock` as a scheduler task spawned at the clock's time under the
/// sequence number `seq` ([`sched::reserve_seq`]), so its blocking sites
/// park in virtual time like any rank's. The engine is bound to `id`'s
/// trace lane and left out of attribution (its clock is a fork); the
/// completion holds the fork's final time and the result once it has
/// been joined.
pub(crate) fn engine<T, F>(
    world: &WorldState,
    id: usize,
    seq: u64,
    mut clock: Clock,
    f: F,
) -> (sched::Handle, Completion<T>)
where
    T: Send + 'static,
    F: FnOnce(&mut Clock) -> Result<T, ScimpiError> + Send + 'static,
{
    let (id, at, recorder) = (id as u32, clock.now(), world.obs.clone());
    let completion = Completion::default();
    let filled = Arc::clone(&completion);
    let job: sched::Job = Box::new(move || {
        let _bound = recorder.as_ref().map(|o| o.bind(id));
        let res = f(&mut clock);
        *filled.lock().unwrap() = Some((clock.now(), res));
    });
    (sched::spawn_reserved(id, at, seq, job), completion)
}

/// [`engine`] as a request's `Running` state.
fn start_engine<T, F>(world: &WorldState, id: usize, seq: u64, clock: Clock, f: F) -> State<T>
where
    T: Send + 'static,
    F: FnOnce(&mut Clock) -> Result<T, ScimpiError> + Send + 'static,
{
    let (task, completion) = engine(world, id, seq, clock, f);
    State::Running(task, completion)
}

/// A nonblocking communication request (`MPI_Request`).
///
/// Obtain one from [`Rank::isend`], [`Rank::irecv`],
/// [`Rank::ialltoall`], `Window::iput`/`iget`, or a persistent
/// [`PersistentSend::start`]/[`PersistentRecv::start`]; complete it with
/// [`Rank::wait`]/[`Rank::test`]/[`Rank::waitall`]/[`Rank::waitany`].
/// Dropping it unwaited is safe (see the module docs).
#[must_use = "a request completes the rank's virtual time only through wait/test or its drop bin"]
pub struct Request<T> {
    state: Option<State<T>>,
    /// Virtual time at which the operation was posted.
    posted_at: SimTime,
    /// Operation kind for the lifecycle span ("isend", "irecv", ...).
    kind: &'static str,
    drop_bin: Arc<DropBin>,
}

impl<T: Send + 'static> Request<T> {
    /// A request of this rank posted at `posted_at`, in `state`.
    fn new(rank: &Rank, kind: &'static str, posted_at: SimTime, state: State<T>) -> Self {
        Request {
            state: Some(state),
            posted_at,
            kind,
            drop_bin: Arc::clone(&rank.drop_bin),
        }
    }

    /// A request whose transfer already ran to `end` on a fork at post:
    /// eager sends, posted-store `iput`, `iget`, and receives that claimed
    /// a queued eager message. No engine exists to join.
    pub(crate) fn ready(
        rank: &Rank,
        kind: &'static str,
        posted_at: SimTime,
        end: SimTime,
        result: Result<T, ScimpiError>,
    ) -> Self {
        Request::new(rank, kind, posted_at, State::Ready(end, result))
    }

    /// A request driven by `f` on an engine against `clock` (a fork of
    /// the rank's clock taken at post time).
    pub(crate) fn spawn<F>(
        rank: &Rank,
        kind: &'static str,
        posted_at: SimTime,
        clock: Clock,
        f: F,
    ) -> Self
    where
        F: FnOnce(&mut Clock) -> Result<T, ScimpiError> + Send + 'static,
    {
        let engine = start_engine(&rank.world, rank.rank, sched::reserve_seq(), clock, f);
        Request::new(rank, kind, posted_at, engine)
    }
}

impl<T> Request<T> {
    /// Wait for a posted receive's delivery and join the engine if one
    /// runs, leaving the state at `Ready` or `Done`. Costs no virtual
    /// time; the completion verdict stays a pure virtual-time comparison.
    fn settle(&mut self) {
        let posted = |s: &mut State<T>| matches!(s, State::Posted(..));
        if let Some(State::Posted(wait)) = self.state.take_if(posted) {
            self.state = Some(wait());
        }
        let running = |s: &mut State<T>| matches!(s, State::Running(..));
        let Some(State::Running(engine, completion)) = self.state.take_if(running) else {
            return;
        };
        sched::join_task(&engine);
        // Empty only off the run's threads (a request that outlived its
        // run): nobody is left to merge it.
        let done = completion.lock().unwrap().take();
        self.state = done.map(|(end, res)| State::Ready(end, res));
    }

    fn end_time(&mut self) -> SimTime {
        self.settle();
        match self.state.as_ref().expect("request state present") {
            State::Ready(end, _) | State::Done(end, _) => *end,
            State::Posted(..) | State::Running(..) => unreachable!("settled above"),
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.state, Some(State::Done(..)))
    }
}

impl<T> Drop for Request<T> {
    fn drop(&mut self) {
        if matches!(self.state, Some(State::Posted(..) | State::Running(..))) {
            if std::thread::panicking() || sched::current().is_none() {
                // Dropped mid-unwind, where parking would panic again
                // (the abort sentinel) and turn the unwind into an
                // abort, or off the run's threads, where nobody is left
                // to merge it. Detach — the scheduler's abort broadcast
                // wakes and retires an engine task on its own.
                return;
            }
            self.settle();
        }
        let Some(State::Ready(end, res)) = self.state.take() else {
            return;
        };
        obs::inc(obs::Counter::RequestsCompleted);
        obs::inc(obs::Counter::RequestsCompletedByDrop);
        self.drop_bin.push(end, res.err());
    }
}

/// A persistent send (`MPI_Send_init`): captured arguments that can be
/// [`start`](PersistentSend::start)ed any number of times. Each start is
/// indistinguishable — in timing and semantics — from a fresh
/// [`Rank::isend`] with the same arguments.
pub struct PersistentSend {
    dst: usize,
    tag: crate::mailbox::Tag,
    data: Vec<u8>,
}

impl PersistentSend {
    /// Post one instance of the captured send.
    pub fn start(&self, rank: &mut Rank) -> Result<Request<()>, ScimpiError> {
        rank.isend(self.dst, self.tag, &self.data)
    }
}

/// A persistent receive (`MPI_Recv_init`); see [`PersistentSend`].
pub struct PersistentRecv {
    src: Source,
    tag: TagSel,
    max_len: usize,
}

impl PersistentRecv {
    /// Post one instance of the captured receive.
    pub fn start(&self, rank: &mut Rank) -> Result<Request<RecvDone>, ScimpiError> {
        rank.irecv(self.src, self.tag, self.max_len)
    }
}

impl Rank {
    /// Fold in requests that completed by being dropped: merge their
    /// virtual end times and retire them from the pending table. Called
    /// from every synchronisation point.
    pub(crate) fn reap_dropped(&mut self) {
        let entries = self.drop_bin.drain();
        for (t, err) in entries {
            obs::attrib::merge_waited(&mut self.clock, t, obs::WaitKind::RequestWait, None);
            self.pending_requests = self.pending_requests.saturating_sub(1);
            if let Some(e) = err {
                // A dropped request that failed: the error still passes
                // the rank's error handler. Fatal mode aborts here (at
                // the next synchronisation point — the earliest moment
                // the owning thread can observe it); return mode has no
                // caller to hand the value to, so it is traced and
                // released.
                obs::instant(
                    "req.dropped_error",
                    self.clock.now(),
                    vec![("error", obs::Arg::Str(e.to_string()))],
                );
                let _ = self.world.escalate(e);
            }
        }
    }

    /// Post-time accounting shared by every nonblocking operation.
    /// Denies the post with [`ScimpiError::ResourceExhausted`] when the
    /// pending-request table is already at
    /// `Tuning::max_inflight_requests` — the request engine's in-flight
    /// set is a governed resource like any other buffer pool.
    pub(crate) fn account_post(&mut self) -> Result<SimTime, ScimpiError> {
        let limit = self.world.tuning.max_inflight_requests;
        if self.pending_requests >= limit {
            obs::inc(obs::Counter::BudgetDenials);
            return Err(self.world.escalate(ScimpiError::ResourceExhausted {
                what: "in-flight requests",
                needed: self.pending_requests + 1,
                limit,
            }));
        }
        let posted_at = self.clock.now();
        self.pending_requests += 1;
        obs::inc(obs::Counter::RequestsPosted);
        Ok(posted_at)
    }

    /// Completion accounting: merge the transfer's end time into the
    /// rank's clock (completion = max(compute frontier, link drain)) and
    /// credit the overlap the application bought by not blocking.
    fn account_complete(&mut self, kind: &'static str, posted_at: SimTime, end: SimTime) {
        let frontier = self.clock.now();
        let saved = end.min(frontier).duration_since(posted_at);
        obs::add(obs::Counter::OverlapSavedNs, saved.as_ns());
        obs::inc(obs::Counter::RequestsCompleted);
        self.pending_requests = self.pending_requests.saturating_sub(1);
        obs::attrib::merge_waited(&mut self.clock, end, obs::WaitKind::RequestWait, None);
        if obs::is_enabled() {
            obs::span(
                "req.lifetime",
                posted_at,
                self.clock.now(),
                vec![
                    ("kind", obs::Arg::Str(kind.into())),
                    ("saved_ns", obs::Arg::U64(saved.as_ns())),
                ],
            );
        }
    }

    /// Nonblocking send (`MPI_Isend`) of contiguous bytes. The payload
    /// is captured at post time (standard-mode buffering); eager sends
    /// complete immediately, rendezvous sends progress on an engine
    /// while this rank computes.
    pub fn isend(
        &mut self,
        dst: usize,
        tag: crate::mailbox::Tag,
        data: &[u8],
    ) -> Result<Request<()>, ScimpiError> {
        self.isend_owned(dst, tag, OwnedSend::copy_of(SendData::Bytes(data)))
    }

    /// Nonblocking send of a committed datatype (`MPI_Isend` with a
    /// derived type). The (sparse) user buffer is captured at post time.
    pub fn isend_typed(
        &mut self,
        dst: usize,
        tag: crate::mailbox::Tag,
        c: &Committed,
        count: usize,
        buf: &[u8],
        origin: usize,
    ) -> Result<Request<()>, ScimpiError> {
        let data = SendData::Typed {
            c,
            count,
            buf,
            origin,
        };
        self.isend_owned(dst, tag, OwnedSend::copy_of(data))
    }

    /// Shared isend body over the owned payload.
    fn isend_owned(
        &mut self,
        dst: usize,
        tag: crate::mailbox::Tag,
        owned: OwnedSend,
    ) -> Result<Request<()>, ScimpiError> {
        let posted_at = self.account_post()?;
        // The protocol's start runs inline on the posting thread — the
        // same costs a blocking send charges before it can return to
        // the application (RTS post, eager burst). `start_send`
        // translates the caller's logical destination into a world rank;
        // the engine below must reuse that translation.
        let started = self.start_send(dst, tag, owned.as_data());
        let (dst, kind) = match started.map(|op| (op.dst, op.kind)) {
            Ok(started) => started,
            Err(e) => {
                // No request will exist to complete this post, so it
                // completes here: a refused isend leaves nothing in flight.
                self.pending_requests -= 1;
                obs::inc(obs::Counter::RequestsCompleted);
                return Err(e);
            }
        };
        match kind {
            SendOpKind::Done => {
                let end = self.clock.now();
                Ok(Request::ready(self, "isend", posted_at, end, Ok(())))
            }
            SendOpKind::Rendezvous { handle, ticket } => {
                let world = Arc::clone(&self.world);
                let me = self.rank;
                let fork = self.clock.clone();
                Ok(Request::spawn(
                    self,
                    "isend",
                    posted_at,
                    fork,
                    move |clock| {
                        let op = crate::p2p::SendOp {
                            dst,
                            data: owned.as_data(),
                            kind: SendOpKind::Rendezvous { handle, ticket },
                        };
                        finish_send_inner(&world, me, clock, op)
                    },
                ))
            }
        }
    }

    /// Nonblocking receive (`MPI_Irecv`) into an owned buffer of
    /// `max_len` bytes. The receive ticket is taken here, in program
    /// order — posted receives match arrivals with MPI's posted-queue
    /// semantics whichever task completes them. An eager message
    /// completes the receive with no engine: here if it is already
    /// queued, at its send otherwise. The payload comes back in
    /// [`RecvDone::data`], truncated to the received length; a message
    /// longer than `max_len` fails the receive at `wait` with
    /// [`ScimpiError::InvalidArg`].
    pub fn irecv(
        &mut self,
        src: Source,
        tag: TagSel,
        max_len: usize,
    ) -> Result<Request<RecvDone>, ScimpiError> {
        self.irecv_owned(src, tag, vec![0u8; max_len], None)
    }

    /// Nonblocking receive into a committed datatype layout. The
    /// returned [`RecvDone::data`] is the smallest buffer that holds
    /// displacement 0 and every typed byte, gaps zeroed: displacement 0
    /// sits at byte `max(-lb, 0)`, so a type with `lb = 0` gets exactly
    /// `c.extent() * count` bytes. `count = 0` returns no bytes.
    pub fn irecv_typed(
        &mut self,
        src: Source,
        tag: TagSel,
        c: &Committed,
        count: usize,
    ) -> Result<Request<RecvDone>, ScimpiError> {
        let (lb, ub) = (c.datatype().lb(), c.datatype().ub());
        let origin = (-lb).max(0);
        let last_ub = (count as i64 - 1) * c.extent() as i64 + ub;
        let len = if count == 0 {
            0
        } else {
            (origin + last_ub.max(0)) as usize
        };
        let typed = Some((c.clone(), count, origin as usize));
        self.irecv_owned(src, tag, vec![0u8; len], typed)
    }

    /// Shared irecv body over the owned buffer and, for a typed receive,
    /// `(type, count, origin)`. A message already queued is claimed here,
    /// at the time the receive's match runs (after the layout resolve).
    /// Otherwise the receive leaves a delivery on its posted entry, and
    /// the send that matches it completes it on the fork. Either way an
    /// eager message is consumed at once, so the request needs no task;
    /// an RTS is driven by an engine.
    fn irecv_owned(
        &mut self,
        src: Source,
        tag: TagSel,
        mut buf: Vec<u8>,
        typed: Option<(Committed, usize, usize)>,
    ) -> Result<Request<RecvDone>, ScimpiError> {
        let posted_at = self.account_post()?;
        let src = self.src_to_world(src);
        let world = Arc::clone(&self.world);
        let (me, members) = (self.rank, Arc::clone(&self.members));
        let resolve = typed.as_ref().map_or(SimDuration::ZERO, |(c, ..)| {
            world.tuning.layout_resolve_cost(c)
        });
        let mut fork = self.clock.clone();
        let at = posted_at + resolve;
        // An engine's place among the rank's tasks is taken at post, so
        // one the sender starts dispatches as if started here.
        let seq = sched::reserve_seq();
        let body = move |world: &Arc<WorldState>, clock: &mut Clock, env| {
            let into = match &typed {
                Some((c, count, origin)) => RecvBuf::Typed {
                    c,
                    count: *count,
                    buf: &mut buf,
                    origin: *origin,
                },
                None => RecvBuf::Bytes(&mut buf),
            };
            let recv_start = clock.now();
            resolve_layout(world, clock, &into);
            let mut st = consume_recv(world, me, clock, recv_start, env, into)?;
            st.src = members.binary_search(&st.src).unwrap_or(st.src);
            if typed.is_none() {
                buf.truncate(st.len);
            }
            Ok(RecvDone {
                status: st,
                data: buf,
            })
        };
        // Complete the receive with what it was handed: consume an eager
        // message right here on the fork, start the engine that drives an
        // RTS, or fail it at the revocation front a shrink cancelled it
        // with.
        let complete = move |world: &Arc<WorldState>, handed: Handed| match handed {
            Ok(env) if matches!(env.head, Head::Eager { .. }) => {
                let res = body(world, &mut fork, env);
                State::Ready(fork.now(), res)
            }
            Ok(env) => {
                let engine_world = Arc::clone(world);
                let run = move |clock: &mut Clock| body(&engine_world, clock, env);
                start_engine(world, me, seq, fork, run)
            }
            Err(front) => {
                let mut clock = Clock::starting_at(at);
                let err = observe_revoke(&mut clock, front);
                State::Ready(clock.now(), Err(err))
            }
        };
        let slot = Arc::<Slot<_>>::default();
        let mut complete = Some(complete);
        let posted = world.mailboxes[me].post_recv(src, tag, at, || {
            let complete = complete.take().expect("a receive registers once");
            let slot = Arc::clone(&slot);
            Box::new(move |world, handed| {
                // On the sending task (or a shrink leader's), bound to
                // this rank's lane: a fresh binding does not attribute,
                // like an engine's.
                let _bound = world.obs.as_ref().map(|o| o.bind(me as u32));
                fill(&slot, complete(world, handed));
            })
        });
        let state = match posted {
            // Engine lanes do not attribute: the fork's time reaches the
            // rank only as a request-wait at completion.
            Posted::Claimed(env) => {
                let complete = complete.expect("a claiming receive registers no delivery");
                obs::attrib::paused(|| complete(&world, Ok(env)))
            }
            // Parked on the slot, failures charged on the fork at the
            // time the receive's match ran; the fork's time reaches the
            // rank only at completion.
            Posted::Registered(ticket) => State::Posted(Box::new(move || {
                let mut clock = Clock::starting_at(at);
                let waited = obs::attrib::paused(|| {
                    await_delivery(&world, me, &mut clock, (ticket, src), &slot, None)
                });
                waited.unwrap_or_else(|err| State::Ready(clock.now(), Err(err)))
            })),
        };
        Ok(Request::new(self, "irecv", posted_at, state))
    }

    /// Kick off a nonblocking all-to-all exchange (`MPI_Ialltoall`,
    /// pairwise algorithm): the whole collective progresses on an engine
    /// while this rank computes. At most one collective may be in
    /// flight per rank at a time, and wildcard (`Source::Any`) receives
    /// must not be posted while it runs — both mirror MPI's
    /// one-outstanding-collective-per-communicator rule.
    pub fn ialltoall(
        &mut self,
        sendblocks: &[Vec<u8>],
    ) -> Result<Request<Vec<Vec<u8>>>, ScimpiError> {
        assert_eq!(sendblocks.len(), self.size(), "one block per rank");
        let posted_at = self.account_post()?;
        let blocks = sendblocks.to_vec();
        // A shadow Rank over the same world, on a forked clock: the
        // collective body is exactly the blocking pairwise exchange. It
        // carries the same membership view so the exchange runs in the
        // posting epoch even if a shrink happens before completion.
        let mut shadow = Rank {
            rank: self.rank,
            size: self.size,
            clock: self.clock.clone(),
            world: Arc::clone(&self.world),
            coll_seq: 0,
            drop_bin: Arc::new(DropBin::default()),
            pending_requests: 0,
            members: Arc::clone(&self.members),
            my_index: self.my_index,
            epoch: self.epoch,
            epoch_barrier: self.epoch_barrier.clone(),
            coll_win: None,
        };
        let fork = self.clock.clone();
        Ok(Request::spawn(
            self,
            "ialltoall",
            posted_at,
            fork,
            move |clock| {
                let out = shadow.alltoall(&blocks)?;
                *clock = shadow.clock.clone();
                Ok(out)
            },
        ))
    }

    /// Capture a persistent send (`MPI_Send_init`); post instances with
    /// [`PersistentSend::start`].
    pub fn send_init(
        &mut self,
        dst: usize,
        tag: crate::mailbox::Tag,
        data: &[u8],
    ) -> PersistentSend {
        PersistentSend {
            dst,
            tag,
            data: data.to_vec(),
        }
    }

    /// Capture a persistent receive (`MPI_Recv_init`); post instances
    /// with [`PersistentRecv::start`].
    pub fn recv_init(&mut self, src: Source, tag: TagSel, max_len: usize) -> PersistentRecv {
        PersistentRecv { src, tag, max_len }
    }

    /// Block until `req` completes (`MPI_Wait`), folding the transfer's
    /// virtual time into this rank's clock. Waiting an already-waited
    /// request is idempotent: it returns the stored result again without
    /// touching the clock or the counters.
    pub fn wait<T: Clone + Send + 'static>(
        &mut self,
        req: &mut Request<T>,
    ) -> Result<T, ScimpiError> {
        self.reap_dropped();
        let end = req.end_time();
        match req.state.take().expect("request state present") {
            State::Done(e, res) => {
                req.state = Some(State::Done(e, res.clone()));
                res
            }
            State::Ready(_, res) => {
                self.account_complete(req.kind, req.posted_at, end);
                // First observation of the completion: communication
                // faults route through the rank's error handler *here*,
                // on the owning rank — an engine that saw the peer die
                // only produced the verdict, it must not decide the
                // response to it.
                let res = match res {
                    Err(e) if escalates(&e) => Err(self.world.escalate(e)),
                    other => other,
                };
                req.state = Some(State::Done(end, res.clone()));
                res
            }
            State::Posted(..) | State::Running(..) => {
                unreachable!("end_time settles the request")
            }
        }
    }

    /// Nonblocking completion check (`MPI_Test`): `Some(result)` once
    /// the transfer's virtual end time has been reached by this rank's
    /// clock, `None` otherwise (charging
    /// `PROGRESS_POLL_COST` (50 ns) per unsuccessful poll, like
    /// a real progress-engine tick). The verdict compares virtual times
    /// only, so test loops are deterministic.
    pub fn test<T: Clone + Send + 'static>(
        &mut self,
        req: &mut Request<T>,
    ) -> Option<Result<T, ScimpiError>> {
        self.reap_dropped();
        if req.is_done() {
            // Re-testing a completed request stays complete.
            return Some(self.wait(req));
        }
        let end = req.end_time();
        if end <= self.clock.now() {
            Some(self.wait(req))
        } else {
            obs::attrib::advance(&mut self.clock, obs::Bucket::Transfer, PROGRESS_POLL_COST);
            None
        }
    }

    /// Wait for every request, in posted order (`MPI_Waitall`). All
    /// requests complete — and their virtual time merges — even when one
    /// fails; the first error (in slice order) is reported.
    pub fn waitall<T: Clone + Send + 'static>(
        &mut self,
        reqs: &mut [Request<T>],
    ) -> Result<Vec<T>, ScimpiError> {
        let mut out = Vec::with_capacity(reqs.len());
        let mut first_err = None;
        for req in reqs.iter_mut() {
            match self.wait(req) {
                Ok(v) => out.push(v),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Wait for whichever active request finishes first in *virtual*
    /// time (`MPI_Waitany`), returning its index and result. Ties break
    /// towards the earlier index (posted order), so the pick is
    /// deterministic. Only the winner's time merges into this rank's
    /// clock; the rest stay pending.
    ///
    /// # Panics
    ///
    /// If every request in the slice has already been waited.
    pub fn waitany<T: Clone + Send + 'static>(
        &mut self,
        reqs: &mut [Request<T>],
    ) -> (usize, Result<T, ScimpiError>) {
        self.reap_dropped();
        let mut best: Option<(SimTime, usize)> = None;
        for (i, req) in reqs.iter_mut().enumerate() {
            if req.is_done() {
                continue;
            }
            let end = req.end_time();
            if best.map(|(t, _)| end < t).unwrap_or(true) {
                best = Some((end, i));
            }
        }
        let (_, idx) = best.expect("waitany needs at least one active request");
        let res = self.wait(&mut reqs[idx]);
        (idx, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run, ClusterSpec};
    use simclock::SimDuration;

    const RDV: usize = 150_000; // > eager threshold: rendezvous path

    #[test]
    fn engines_run_on_the_launching_thread() {
        // Request engines and sendrecv send halves are `engine` tasks.
        let launcher = std::thread::current().id();
        let ids = run(ClusterSpec::ringlet(2), |r| {
            let (seq, clock) = (sched::reserve_seq(), r.clock.clone());
            let (task, done) = engine(&r.world, r.rank, seq, clock, |_| {
                Ok(std::thread::current().id())
            });
            sched::join_task(&task);
            let (_, id) = done.lock().unwrap().take().expect("joined");
            id.unwrap()
        });
        assert!(ids.iter().all(|&id| id == launcher));
    }

    #[test]
    fn isend_irecv_roundtrip_eager_and_rendezvous() {
        for len in [64usize, RDV] {
            let out = run(ClusterSpec::ringlet(2), move |r| {
                if r.rank() == 0 {
                    let data = vec![0xA5u8; len];
                    let mut req = r.isend(1, 4, &data).unwrap();
                    r.compute(SimDuration::from_us(30));
                    r.wait(&mut req).unwrap();
                    Vec::new()
                } else {
                    let mut req = r.irecv(Source::Rank(0), TagSel::Value(4), len).unwrap();
                    r.compute(SimDuration::from_us(30));
                    let done = r.wait(&mut req).unwrap();
                    assert_eq!(done.status.len, len);
                    done.data
                }
            });
            assert!(out[1].iter().all(|&b| b == 0xA5), "len {len}");
        }
    }

    #[test]
    fn overlap_hides_transfer_behind_compute() {
        // A rank that computes while a rendezvous transfer is in flight
        // must finish earlier than one that blocks first and computes
        // after.
        let compute = SimDuration::from_ms(5);
        let t_nonblocking = run(ClusterSpec::ringlet(2), move |r| {
            if r.rank() == 0 {
                let data = vec![1u8; RDV];
                let mut req = r.isend(1, 0, &data).unwrap();
                r.compute(compute);
                r.wait(&mut req).unwrap();
            } else {
                let mut req = r.irecv(Source::Rank(0), TagSel::Value(0), RDV).unwrap();
                r.compute(compute);
                r.wait(&mut req).unwrap();
            }
            r.barrier();
            r.now()
        })[0];
        let t_blocking = run(ClusterSpec::ringlet(2), move |r| {
            if r.rank() == 0 {
                let data = vec![1u8; RDV];
                r.send(1, 0, &data).unwrap();
                r.compute(compute);
            } else {
                let mut buf = vec![0u8; RDV];
                r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
                r.compute(compute);
            }
            r.barrier();
            r.now()
        })[0];
        assert!(
            t_nonblocking < t_blocking,
            "overlap {t_nonblocking:?} should beat blocking {t_blocking:?}"
        );
    }

    #[test]
    fn isend_wait_without_compute_matches_blocking_send() {
        // Posting costs nothing, so posting and immediately waiting must
        // be bit-identical to the blocking call.
        let run_pair = |nonblocking: bool| {
            run(ClusterSpec::ringlet(2), move |r| {
                if r.rank() == 0 {
                    let data = vec![2u8; RDV];
                    if nonblocking {
                        let mut req = r.isend(1, 0, &data).unwrap();
                        r.wait(&mut req).unwrap();
                    } else {
                        r.send(1, 0, &data).unwrap();
                    }
                } else {
                    let mut buf = vec![0u8; RDV];
                    r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
                }
                r.barrier();
                r.now()
            })
        };
        assert_eq!(run_pair(true), run_pair(false));
    }

    #[test]
    fn test_polls_deterministically_until_complete() {
        let out = run(ClusterSpec::ringlet(2), |r| {
            if r.rank() == 0 {
                let data = vec![3u8; RDV];
                let mut req = r.isend(1, 0, &data).unwrap();
                let mut polls = 0u32;
                loop {
                    match r.test(&mut req) {
                        Some(res) => {
                            res.unwrap();
                            break;
                        }
                        None => {
                            polls += 1;
                            r.compute(SimDuration::from_us(100));
                        }
                    }
                }
                polls
            } else {
                let mut buf = vec![0u8; RDV];
                r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
                0
            }
        });
        let again = run(ClusterSpec::ringlet(2), |r| {
            if r.rank() == 0 {
                let data = vec![3u8; RDV];
                let mut req = r.isend(1, 0, &data).unwrap();
                let mut polls = 0u32;
                loop {
                    match r.test(&mut req) {
                        Some(res) => {
                            res.unwrap();
                            break;
                        }
                        None => {
                            polls += 1;
                            r.compute(SimDuration::from_us(100));
                        }
                    }
                }
                polls
            } else {
                let mut buf = vec![0u8; RDV];
                r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
                0
            }
        });
        assert_eq!(out, again, "poll count must be deterministic");
    }

    #[test]
    fn dropped_request_time_reaps_at_barrier() {
        let out = run(ClusterSpec::ringlet(2), |r| {
            if r.rank() == 0 {
                let data = vec![4u8; RDV];
                let req = r.isend(1, 0, &data).unwrap();
                drop(req); // fire-and-forget
                assert_eq!(r.pending_requests(), 1);
                r.barrier(); // reaps the drop bin
                assert_eq!(r.pending_requests(), 0);
            } else {
                let mut buf = vec![0u8; RDV];
                r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
                r.barrier();
            }
            r.now()
        });
        // The sender's clock must include the transfer it dropped.
        assert!(out[0] > SimTime::ZERO);
    }

    #[test]
    fn ialltoall_matches_blocking_alltoall() {
        let blocks_for = |r: &Rank| -> Vec<Vec<u8>> {
            (0..r.size())
                .map(|d| vec![(r.rank() * 16 + d) as u8; 2048])
                .collect()
        };
        let nb = run(ClusterSpec::ringlet(4), move |r| {
            let blocks = blocks_for(r);
            let mut req = r.ialltoall(&blocks).unwrap();
            r.compute(SimDuration::from_us(200));
            r.wait(&mut req).unwrap()
        });
        let bl = run(ClusterSpec::ringlet(4), move |r| {
            let blocks = blocks_for(r);
            r.alltoall(&blocks).unwrap()
        });
        assert_eq!(nb, bl);
    }
}

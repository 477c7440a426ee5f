//! Two-sided point-to-point communication: short/eager/rendezvous
//! protocols over the SCI fabric, with both non-contiguous engines.
//!
//! Protocol selection follows SCI-MPICH (§2, reference 7):
//!
//! * **short/eager** — the packed payload travels with the control
//!   envelope into pre-allocated receiver buffer space; the sender
//!   completes immediately. A receive already posted for the message is
//!   handed it by the sender: a nonblocking one has the payload consumed
//!   into its buffer and runs nothing until it looks, a blocking one is
//!   woken to consume it.
//! * **rendezvous** — RTS/CTS handshake, then the payload streams through
//!   a per-pair ring buffer in chunks of `Tuning::rendezvous_chunk`
//!   (kept ≤ L2 to avoid cache-line thrashing, §3.3.2). The sender packs
//!   each chunk **directly into the remote ring** — with `direct_pack_ff`
//!   this eliminates both intermediate copies of the generic path.
//!
//! The ring slots give natural pipelining: the sender fills slot *i+1*
//! while the receiver drains slot *i*; slot reuse carries the receiver's
//! drain time back to the sender's clock.

use crate::error::ScimpiError;
use crate::integrity::{self, Transfer};
use crate::mailbox::{fill, Ctrl, Envelope, Handed, Head, Posted, Slot, Source, Tag, TagSel};
use crate::request::{engine, OwnedSend};
use crate::runtime::{observe_revoke, Rank, WorldState};
use crate::sink::PioSink;
use crate::tuning::{
    IntegrityMode, OverloadPolicy, PackPath, Tuning, CTRL_RECV_COST, CTRL_SEND_COST, FF_BLOCK_COST,
    GENERIC_VISIT_COST, SHORT_THRESHOLD,
};
use mpi_datatype::{ff, Committed, PackStats, SliceSource};
use obs::attrib::{self, Bucket, WaitKind};
use sci_fabric::{crc32, PioStream, SeqStatus};
use simclock::{Clock, SimDuration, SimTime};
use smi::ProcId;
use std::sync::Arc;

/// Result of a completed receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvStatus {
    /// Actual source rank.
    pub src: usize,
    /// Actual tag.
    pub tag: Tag,
    /// Payload bytes received.
    pub len: usize,
}

/// What a send transmits.
#[derive(Clone, Copy)]
pub enum SendData<'a> {
    /// A contiguous byte buffer.
    Bytes(&'a [u8]),
    /// `count` instances of a committed datatype in `buf` (displacement 0
    /// at byte `origin`).
    Typed {
        /// Committed datatype.
        c: &'a Committed,
        /// Instance count.
        count: usize,
        /// User buffer.
        buf: &'a [u8],
        /// Byte index of displacement 0.
        origin: usize,
    },
}

impl SendData<'_> {
    fn total_len(&self) -> usize {
        match self {
            SendData::Bytes(b) => b.len(),
            SendData::Typed { c, count, .. } => c.size() * count,
        }
    }
}

/// Where a receive lands. A buffer shorter than its message takes what
/// fits, and the receive fails with [`ScimpiError::InvalidArg`]
/// (`MPI_ERR_TRUNCATE`).
pub enum RecvBuf<'a> {
    /// A contiguous byte buffer.
    Bytes(&'a mut [u8]),
    /// `count` instances of a committed datatype.
    Typed {
        /// Committed datatype.
        c: &'a Committed,
        /// Instance count.
        count: usize,
        /// User buffer.
        buf: &'a mut [u8],
        /// Byte index of displacement 0.
        origin: usize,
    },
}

impl RecvBuf<'_> {
    /// How many bytes of an `n`-byte message this buffer holds.
    fn holds(&self, n: usize) -> usize {
        match self {
            RecvBuf::Bytes(buf) => n.min(buf.len()),
            RecvBuf::Typed { c, count, .. } => n.min(c.size() * count),
        }
    }

    /// The receive of an `n`-byte message into this buffer truncated it.
    fn truncated(&self, n: usize) -> Option<ScimpiError> {
        let limit = self.holds(n);
        (limit < n).then_some(ScimpiError::InvalidArg {
            what: "receive buffer",
            got: n,
            limit,
        })
    }
}

/// Deposit `env` in `dst`'s mailbox. If it goes to a posted receive, its
/// [`crate::mailbox::Delivery`] runs here, on the sending task.
fn post_envelope(world: &Arc<WorldState>, dst: usize, env: Envelope) {
    if let Some((delivery, env)) = world.mailboxes[dst].post(env) {
        (delivery.run)(world, Ok(env));
    }
}

/// An in-flight send (used by [`Rank::sendrecv`] and the request engine
/// to avoid rendezvous deadlock: start the send, service the receive or
/// interleave compute, then finish).
pub struct SendOp<'a> {
    pub(crate) dst: usize,
    pub(crate) data: SendData<'a>,
    pub(crate) kind: SendOpKind,
}

impl SendOp<'_> {
    /// True once the transfer is locally complete (eager path): no
    /// rendezvous conversation remains.
    pub fn is_done(&self) -> bool {
        matches!(self.kind, SendOpKind::Done)
    }
}

pub(crate) enum SendOpKind {
    Done,
    Rendezvous {
        handle: u64,
        /// Send-turn ticket on the pair ring (see
        /// [`crate::runtime::PairRing`]): serialises concurrent sends to
        /// the same destination in posted order.
        ticket: u64,
    },
}

thread_local! {
    /// True while this thread runs protocol that must not lose or fail
    /// messages (collective tree edges, recovery-internal traffic): the
    /// lossy/failing overload policies (`Shed`, `Error`, `Degrade`)
    /// fall back to `Stall` inside such a section, because a dropped
    /// tree edge would wedge the peer forever and a surfaced error
    /// would tear a half-finished collective.
    static RELIABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Enter a reliable protocol section (see [`RELIABLE`]); the returned
/// guard restores the previous state on drop, so sections nest.
pub(crate) fn reliable_section() -> ReliableGuard {
    let prev = RELIABLE.with(|r| r.replace(true));
    ReliableGuard { prev }
}

/// Is this thread inside a reliable protocol section?
fn is_reliable() -> bool {
    RELIABLE.with(|r| r.get())
}

/// Exchange the thread's [`RELIABLE`] flag with a switched-out task's.
pub(crate) fn swap_reliable(flag: &mut bool) {
    *flag = RELIABLE.replace(*flag);
}

/// Guard returned by [`reliable_section`].
pub(crate) struct ReliableGuard {
    prev: bool,
}

impl Drop for ReliableGuard {
    fn drop(&mut self) {
        RELIABLE.with(|r| r.set(self.prev));
    }
}

/// Outcome of an eager credit acquisition (see
/// [`Rank::acquire_eager_credits`] and `Tuning::overload_policy`).
enum CreditVerdict {
    /// Credits consumed: proceed on the eager path.
    Granted,
    /// Budget exhausted under `OverloadPolicy::Degrade`: fall back to
    /// the rendezvous protocol.
    Degrade,
    /// Budget exhausted under `OverloadPolicy::Shed`: drop the message.
    Shed,
}

/// Should this typed transfer use `direct_pack_ff`? Two-sided transfers
/// never have DMA available (the payload streams through the pair ring),
/// so the adaptive selector only ever answers direct-ff or staged here.
fn use_ff(t: &Tuning, c: &Committed, total: usize) -> bool {
    t.select_path(c, total, false) == PackPath::DirectFf
}

/// CPU cost of locally packing/unpacking `stats` worth of blocks with the
/// given engine, including the memcpy itself. Both engines walk the same
/// runs; they differ in what a copy is — `ff` handles every basic block
/// with a stack operation, the generic baseline pays a tree traversal per
/// coalesced segment.
fn local_copy_cost(
    world: &WorldState,
    stats: &PackStats,
    working_set: usize,
    ff_engine: bool,
) -> SimDuration {
    let (per_copy, copies) = if ff_engine {
        (FF_BLOCK_COST, stats.blocks as u64)
    } else {
        (GENERIC_VISIT_COST, stats.segments as u64)
    };
    let cache = &world.fabric.params().cache;
    per_copy.saturating_mul(copies)
        + cache.per_block_overhead.saturating_mul(copies)
        + cache.copy_bw(working_set).cost(stats.bytes as u64)
}

/// Pack the byte range `[skip, skip+max)` of `data` into a local buffer,
/// charging pack CPU cost to `clock`. Used by the eager path and the
/// generic rendezvous path.
fn pack_local(
    world: &WorldState,
    clock: &mut Clock,
    data: &SendData<'_>,
    skip: usize,
    max: usize,
) -> Vec<u8> {
    match data {
        SendData::Bytes(b) => {
            let end = b.len().min(skip.saturating_add(max));
            // Contiguous data needs no pack engine and is charged none:
            // the copy only gives the caller an owned wire image.
            b[skip..end].to_vec()
        }
        SendData::Typed {
            c,
            count,
            buf,
            origin,
        } => {
            let total = c.size() * count;
            let ff_engine = use_ff(&world.tuning, c, total);
            let mut sink = ff::VecSink::default();
            let stats = if ff_engine {
                ff::pack_ff(c, *count, buf, *origin, skip, max, &mut sink)
            } else {
                obs::inc(obs::Counter::GenericPackCalls);
                ff::pack_runs(c, *count, buf, *origin, skip, max, &mut sink)
            }
            .expect("VecSink is infallible");
            let cost = local_copy_cost(world, &stats, total, ff_engine);
            attrib::advance(clock, Bucket::Pack, cost);
            sink.data
        }
    }
}

/// Sender-side control-handle id: CTS packets travel in a separate handle
/// space from receiver-side chunk notifications, so a rank exchanging a
/// rendezvous message *with itself* (self-`MPI_Sendrecv`) never steals its
/// own protocol packets.
#[inline]
fn sender_handle(h: u64) -> u64 {
    h.wrapping_mul(2).wrapping_add(1)
}

/// Receiver-side control-handle id (see [`sender_handle`]).
#[inline]
fn receiver_handle(h: u64) -> u64 {
    h.wrapping_mul(2)
}

/// The sender side of the rendezvous protocol: wait for CTS, then stream
/// the payload through the pair ring in chunks. Runs either on the rank's
/// own task ([`Rank::finish_send`]) or on an engine task with a
/// forked clock ([`Rank::sendrecv`], [`Rank::isend`] — the transfer
/// progresses while the posting rank computes).
pub(crate) fn finish_send_inner(
    world: &Arc<WorldState>,
    rank: usize,
    clock: &mut Clock,
    op: SendOp<'_>,
) -> Result<(), ScimpiError> {
    let SendOpKind::Rendezvous { handle, ticket } = op.kind else {
        return Ok(());
    };
    let dst = op.dst;
    let ring = world.ring(rank, dst);
    // Serialise concurrent rendezvous sends to the same destination in
    // posted order (real-time wait, zero virtual cost). The guard passes
    // the turn on at every exit — error returns and panics included — so
    // a failed send never wedges the pair.
    let _turn = ring.await_turn(ticket);
    let sent = (|| -> Result<(), ScimpiError> {
        // Wait for clear-to-send (sender-side handle space), guarding
        // against the receiver dying before it answers.
        match world.await_ctrl(rank, clock, sender_handle(handle), dst, "CTS")? {
            Ctrl::Cts { arrival } => {
                attrib::merge_waited(clock, arrival, WaitKind::LateReceiver, Some(dst as u32));
                attrib::advance(clock, Bucket::Transfer, CTRL_RECV_COST);
            }
            other => {
                return Err(ScimpiError::ProtocolViolation {
                    expected: "CTS",
                    got: format!("{other:?}"),
                })
            }
        }
        let total = op.data.total_len();
        let chunk_size = ring.chunk;
        let data_start = clock.now();
        // One PIO stream per message; each chunk is a fresh burst.
        let working_set = total.min(chunk_size);
        let mut stream = ring.region.map(ProcId(rank)).pio_stream(working_set);
        let mode = world.tuning.integrity_mode;
        let guard = Transfer::new(world, mode, "rendezvous", dst, "rendezvous chunk");
        let mut skip = 0usize;
        while skip < total {
            obs::inc(obs::Counter::RendezvousChunks);
            let this = chunk_size.min(total - skip);
            let last = skip + this >= total;
            // Ring-slot acquisition with the same liveness guard: if the
            // receiver dies while holding every slot, the sender must not
            // wait forever.
            let slot_wait_start = clock.now();
            let slot = world.block_on(
                rank,
                clock,
                Some((dst, "ring slot")),
                |clock| ring.acquire(clock),
                |clock| ring.try_acquire(clock),
            )?;
            // Slot reuse carries the receiver's drain time: any forward
            // jump is the sender waiting for the receiver to free ring
            // space.
            attrib::wait(
                WaitKind::LateReceiver,
                slot_wait_start,
                clock.now(),
                Some(dst as u32),
            );
            let slot_off = ring.slot_offset(slot);
            // The notification of the chunk, posted at `now`.
            let chunk = |now: SimTime, crc| Ctrl::Chunk {
                slot,
                len: this,
                arrival: now + world.ctrl_latency(rank, dst),
                last,
                crc,
            };
            // `EndToEnd` frames each chunk with a CRC32 over its packed
            // image, so the image must exist contiguously at the sender:
            // typed data forgoes direct ff streaming here and pays the
            // pack through the engine's normal cost model (part of the
            // integrity tax measured by the `integrity_overhead` bench).
            let staged = (mode == IntegrityMode::EndToEnd).then(|| {
                let packed = pack_local(world, clock, &op.data, skip, this);
                attrib::advance(clock, Bucket::Pack, world.crc_cost(packed.len()));
                (crc32(&packed), packed)
            });
            // One attempt writes the chunk and reports its faults: the
            // stream's own count, the sequence guard's verdict, or the
            // receiver's NACK. A retry rewrites the same slot.
            let sent = integrity::retransmit(clock, guard, |clock, _| {
                if mode == IntegrityMode::SequenceCheck {
                    attrib::charged(clock, Bucket::Transfer, |clock| {
                        stream.start_sequence(clock)
                    });
                }
                let image = staged.as_ref().map(|(_, packed)| &packed[..]);
                write_chunk(
                    world,
                    clock,
                    &mut stream,
                    slot_off,
                    &op.data,
                    image,
                    skip,
                    this,
                )?;
                // Store barrier: the chunk must be fully delivered before
                // the notification overtakes it (§2).
                attrib::charged(clock, Bucket::Transfer, |clock| stream.barrier(clock));
                let silent = stream.take_silent_faults() as usize;
                let Some((crc, _)) = &staged else {
                    if mode == IntegrityMode::SequenceCheck {
                        let status = attrib::charged(clock, Bucket::Transfer, |clock| {
                            stream.check_sequence(clock)
                        });
                        return Ok((status == SeqStatus::Tainted) as usize);
                    }
                    return Ok(silent);
                };
                // Stop-and-wait: every chunk is acknowledged before the
                // next slot fills (the pipelining loss is part of the
                // integrity tax).
                attrib::advance(clock, Bucket::Transfer, CTRL_SEND_COST);
                world.mailboxes[dst]
                    .post_ctrl(receiver_handle(handle), chunk(clock.now(), Some(*crc)));
                match world.await_ctrl(rank, clock, sender_handle(handle), dst, "chunk ack")? {
                    Ctrl::ChunkAck { arrival, ok } => {
                        attrib::merge_waited(
                            clock,
                            arrival,
                            WaitKind::LateReceiver,
                            Some(dst as u32),
                        );
                        attrib::advance(clock, Bucket::Transfer, CTRL_RECV_COST);
                        Ok(!ok as usize)
                    }
                    other => Err(ScimpiError::ProtocolViolation {
                        expected: "chunk ack",
                        got: format!("{other:?}"),
                    }),
                }
            });
            if let Err(ScimpiError::DataCorruption { retransmits, .. }) = sent {
                // Give up: free the slot and unblock the receiver.
                ring.release(slot, clock.now());
                let arrival = clock.now() + world.ctrl_latency(rank, dst);
                let abort = Ctrl::Abort {
                    arrival,
                    retransmits,
                };
                world.mailboxes[dst].post_ctrl(receiver_handle(handle), abort);
            }
            sent?;
            skip += this;
            if staged.is_none() {
                attrib::advance(clock, Bucket::Transfer, CTRL_SEND_COST);
                world.mailboxes[dst].post_ctrl(receiver_handle(handle), chunk(clock.now(), None));
            }
        }
        if obs::is_enabled() {
            let hops = world.fabric.topology().distance(
                world.smi.node_of(ProcId(rank)),
                world.smi.node_of(ProcId(dst)),
            );
            obs::span(
                "p2p.rendezvous_data",
                data_start,
                clock.now(),
                vec![
                    ("bytes", obs::Arg::U64(total as u64)),
                    ("chunks", obs::Arg::U64(total.div_ceil(chunk_size) as u64)),
                    ("dst", obs::Arg::U64(dst as u64)),
                    ("hops", obs::Arg::U64(hops as u64)),
                ],
            );
        }
        Ok(())
    })();
    sent.map_err(|e| world.escalate(e))
}

/// Write one rendezvous chunk — `this` bytes of `data`'s packed stream
/// from `skip` — into the ring slot at `slot_off`. A `staged` image is written as it is; otherwise
/// contiguous bytes are written in place, a DirectFf layout is packed
/// straight into the remote ring and any other is packed locally first.
#[allow(clippy::too_many_arguments)]
fn write_chunk(
    world: &WorldState,
    clock: &mut Clock,
    stream: &mut PioStream,
    slot_off: usize,
    data: &SendData<'_>,
    staged: Option<&[u8]>,
    skip: usize,
    this: usize,
) -> Result<(), ScimpiError> {
    let packed;
    let image = match (staged, data) {
        (Some(image), _) => image,
        (None, SendData::Bytes(b)) => &b[skip..skip + this],
        (
            None,
            SendData::Typed {
                c,
                count,
                buf,
                origin,
            },
        ) if use_ff(&world.tuning, c, c.size() * count) => {
            // direct_pack_ff straight into the remote ring: no
            // intermediate copy. With WC batching the sink coalesces
            // sub-transaction blocks into full aligned stream-buffer
            // flushes.
            let stats =
                attrib::charged(clock, Bucket::Transfer, |clock| -> Result<_, ScimpiError> {
                    let mut sink = PioSink::new(stream, clock, slot_off)
                        .with_batching(world.tuning.pack_engine);
                    let stats = ff::pack_ff(c, *count, buf, *origin, skip, this, &mut sink)?;
                    sink.finish()?;
                    Ok(stats)
                })?;
            attrib::advance(
                clock,
                Bucket::Pack,
                FF_BLOCK_COST.saturating_mul(stats.blocks as u64),
            );
            return Ok(());
        }
        (None, typed) => {
            packed = pack_local(world, clock, typed, skip, this);
            &packed[..]
        }
    };
    attrib::charged(clock, Bucket::Transfer, |clock| {
        stream.write(clock, slot_off, image)
    })?;
    Ok(())
}

/// Unpack `data` (a packed-stream chunk starting at stream offset `skip`)
/// into the receive buffer, charging copy costs. `charge_copy` is false
/// for short messages that are consumed in place. A contiguous buffer
/// takes the part that fits and is charged for that part only.
fn unpack_into(
    world: &WorldState,
    clock: &mut Clock,
    into: &mut RecvBuf<'_>,
    skip: usize,
    data: &[u8],
    charge_copy: bool,
) {
    match into {
        RecvBuf::Bytes(buf) => {
            let data = &data[..data.len().min(buf.len().saturating_sub(skip))];
            if let Some(dst) = buf.get_mut(skip..skip + data.len()) {
                dst.copy_from_slice(data);
            }
            if charge_copy && !data.is_empty() {
                let cost = world
                    .fabric
                    .params()
                    .cache
                    .copy_cost(data.len(), data.len());
                attrib::advance(clock, Bucket::Pack, cost);
            }
        }
        RecvBuf::Typed {
            c,
            count,
            buf,
            origin,
        } => {
            let total = c.size() * *count;
            let ff_engine = use_ff(&world.tuning, c, total);
            let mut source = SliceSource::new(data);
            let stats = if ff_engine {
                ff::unpack_ff(c, *count, buf, *origin, skip, data.len(), &mut source)
            } else {
                obs::inc(obs::Counter::GenericPackCalls);
                ff::unpack_runs(c, *count, buf, *origin, skip, data.len(), &mut source)
            }
            .expect("SliceSource is infallible");
            let cost = local_copy_cost(world, &stats, total.min(data.len().max(1)), ff_engine);
            attrib::advance(clock, Bucket::Pack, cost);
        }
    }
}

/// Charge a typed receive for resolving its committed layout, which the
/// receiver does before it matches, as the sender does before it sends.
pub(crate) fn resolve_layout(world: &WorldState, clock: &mut Clock, into: &RecvBuf<'_>) {
    if let RecvBuf::Typed { c, .. } = into {
        attrib::advance(clock, Bucket::Pack, world.tuning.layout_resolve_cost(c));
    }
}

/// The blocking receive: resolve a typed layout, post the receive, and
/// consume the envelope it claims at post or is handed by the send that
/// matches it. The rank parks on its own slot meanwhile, checking
/// revocation and (for a specific source) the peer's liveness at stall
/// rounds ([`WorldState::block_on`]). Errors come back unescalated.
fn recv_into_inner(
    world: &Arc<WorldState>,
    rank: usize,
    clock: &mut Clock,
    src: Source,
    tag: TagSel,
    into: RecvBuf<'_>,
) -> Result<RecvStatus, ScimpiError> {
    let recv_start = clock.now();
    resolve_layout(world, clock, &into);
    let at = clock.now();
    let (slot, posted) = post_blocking(world, rank, src, tag, at);
    let handed = match posted {
        Posted::Claimed(env) => Ok(env),
        Posted::Registered(ticket) => {
            await_delivery(world, rank, clock, (ticket, src), &slot, Some(at))?
        }
    };
    let env = handed.map_err(|front| observe_revoke(clock, front))?;
    consume_recv(world, rank, clock, recv_start, env, into)
}

/// The receive half of a `sendrecv` whose send half failed. The peer may
/// have failed too, its receive half waiting for the message this rank
/// could not deliver, so the receive takes a message that arrives but is
/// withdrawn at the first stall round that finds it unmatched. What it
/// received is not reported: the send error is the call's.
fn recv_unless_stalled(
    world: &Arc<WorldState>,
    rank: usize,
    clock: &mut Clock,
    src: Source,
    tag: TagSel,
    into: RecvBuf<'_>,
) {
    let recv_start = clock.now();
    resolve_layout(world, clock, &into);
    let at = clock.now();
    let (slot, posted) = post_blocking(world, rank, src, tag, at);
    let handed = match posted {
        Posted::Claimed(env) => Ok(env),
        Posted::Registered(ticket) => match slot.1.take_or_wait(&slot.0, Some(at), Option::take) {
            Some(handed) => handed,
            None => return world.mailboxes[rank].abandon_recv(ticket),
        },
    };
    match handed {
        Ok(env) => drop(consume_recv(world, rank, clock, recv_start, env, into)),
        Err(front) => drop(observe_revoke(clock, front)),
    }
}

/// Post a blocking receive of world rank `rank` at `at`: it claims a
/// queued envelope, or registers for a send to leave one in the slot.
fn post_blocking(
    world: &WorldState,
    rank: usize,
    src: Source,
    tag: TagSel,
    at: SimTime,
) -> (Arc<Slot<Handed>>, Posted) {
    let slot = Arc::<Slot<Handed>>::default();
    let posted = world.mailboxes[rank].post_recv(src, tag, at, || {
        let slot = Arc::clone(&slot);
        Box::new(move |_, handed| fill(&slot, handed))
    });
    (slot, posted)
}

/// Wait, parked on `slot` at `at`, for what the send matching the posted
/// receive `(ticket, src)` of world rank `rank` hands over. A stall round
/// checks revocation and, for a specific source, its liveness
/// ([`WorldState::block_on`]); a failed wait withdraws the receive.
pub(crate) fn await_delivery<T>(
    world: &WorldState,
    rank: usize,
    clock: &mut Clock,
    (ticket, src): (u64, Source),
    slot: &Slot<T>,
    at: Option<SimTime>,
) -> Result<T, ScimpiError> {
    let peer = match src {
        Source::Rank(peer) => Some((peer, "message")),
        Source::Any => None,
    };
    let waited = |_: &mut Clock| slot.1.take_or_wait(&slot.0, at, Option::take);
    let took = |_: &mut Clock| slot.0.lock().unwrap().take();
    world
        .block_on(rank, clock, peer, waited, took)
        .inspect_err(|_| world.mailboxes[rank].abandon_recv(ticket))
}

/// Consume a claimed envelope: merge its arrival, then unpack the eager
/// payload (re-verifying its CRC, returning its credits) or drive the
/// rendezvous receiver side. `recv_start` opens the `p2p.recv` span.
/// Faults of the message itself (a truncating buffer, an eager CRC
/// mismatch) come back unescalated: a nonblocking receive's consume may
/// run on the sender's task, and the receiving rank's error handler
/// decides, at `wait`.
pub(crate) fn consume_recv(
    world: &Arc<WorldState>,
    rank: usize,
    clock: &mut Clock,
    recv_start: SimTime,
    env: Envelope,
    mut into: RecvBuf<'_>,
) -> Result<RecvStatus, ScimpiError> {
    attrib::merge_waited(
        clock,
        env.arrival,
        WaitKind::LateSender,
        Some(env.src as u32),
    );
    attrib::advance(clock, Bucket::Transfer, CTRL_RECV_COST);
    let (len, path) = match env.head {
        Head::Eager { data, crc } => {
            let len = data.len();
            if let Some(expect) = crc {
                // Defensive re-verification of the sender-verified
                // payload: a mismatch here means the framing itself is
                // broken, not the fabric.
                attrib::advance(clock, Bucket::Pack, world.crc_cost(len));
                if crc32(&data) != expect {
                    obs::inc(obs::Counter::CorruptionsDetected);
                    return Err(ScimpiError::DataCorruption {
                        peer: env.src,
                        what: "eager message",
                        retransmits: 0,
                    });
                }
            }
            let fit = into.holds(len);
            unpack_into(world, clock, &mut into, 0, &data, fit > SHORT_THRESHOLD);
            // Return the message's flow-control credits to the sender:
            // the grant becomes collectable at the match time plus one
            // control-packet latency. The sender folds it in inside a
            // backpressure stall or at the next barrier.
            let grant_at = clock.now() + world.ctrl_latency(rank, env.src);
            world.credit(env.src, rank).deposit(len, grant_at);
            (len, "eager")
        }
        Head::Rts { size, handle } => {
            // Clear-to-send.
            attrib::advance(clock, Bucket::Transfer, CTRL_SEND_COST);
            let cts_arrival = clock.now() + world.ctrl_latency(rank, env.src);
            world.mailboxes[env.src].post_ctrl(
                sender_handle(handle),
                Ctrl::Cts {
                    arrival: cts_arrival,
                },
            );
            let ring = world.ring(env.src, rank);
            let mut skip = 0usize;
            loop {
                let c = world
                    .await_ctrl(rank, clock, receiver_handle(handle), env.src, "chunk")
                    .map_err(|e| world.escalate(e))?;
                let (Ctrl::Chunk { arrival, .. } | Ctrl::Abort { arrival, .. }) = c else {
                    return Err(world.escalate(ScimpiError::ProtocolViolation {
                        expected: "chunk",
                        got: format!("{c:?}"),
                    }));
                };
                attrib::merge_waited(clock, arrival, WaitKind::LateSender, Some(env.src as u32));
                attrib::advance(clock, Bucket::Transfer, CTRL_RECV_COST);
                let (slot, len, last, crc) = match c {
                    Ctrl::Chunk {
                        slot,
                        len,
                        last,
                        crc,
                        ..
                    } => (slot, len, last, crc),
                    // The sender detected corruption it could not repair
                    // and gave up on the transfer.
                    Ctrl::Abort { retransmits, .. } => {
                        return Err(world.escalate(ScimpiError::DataCorruption {
                            peer: env.src,
                            what: "rendezvous transfer",
                            retransmits,
                        }))
                    }
                    _ => unreachable!("refused above"),
                };
                let slot_off = ring.slot_offset(slot);
                // The slot is this receiver's from the sender's
                // notification until the release below: verify and unpack
                // it where it lies.
                let slot_mem = ring.region.segment().mem();
                if let Some(expect) = crc {
                    // EndToEnd framing: verify the slot image and
                    // acknowledge. A NACK keeps the slot held so the
                    // sender can rewrite it in place.
                    attrib::advance(clock, Bucket::Pack, world.crc_cost(len));
                    let ok = slot_mem
                        .with_bytes(slot_off, len, |image| crc32(image) == expect)
                        .expect("slot in range");
                    attrib::advance(clock, Bucket::Transfer, CTRL_SEND_COST);
                    let ack_arrival = clock.now() + world.ctrl_latency(rank, env.src);
                    world.mailboxes[env.src].post_ctrl(
                        sender_handle(handle),
                        Ctrl::ChunkAck {
                            arrival: ack_arrival,
                            ok,
                        },
                    );
                    if !ok {
                        // The sender counts the detection when the NACK
                        // reaches it; await its retransmission (or abort).
                        continue;
                    }
                }
                // Unpack straight out of the (receiver-local) ring.
                slot_mem
                    .with_bytes(slot_off, len, |image| {
                        unpack_into(world, clock, &mut into, skip, image, true)
                    })
                    .expect("slot in range");
                ring.release(slot, clock.now());
                skip += len;
                if last {
                    break;
                }
            }
            (size, "rendezvous")
        }
    };
    if obs::is_enabled() {
        obs::span(
            "p2p.recv",
            recv_start,
            clock.now(),
            vec![
                ("bytes", obs::Arg::U64(len as u64)),
                ("src", obs::Arg::U64(env.src as u64)),
                ("path", obs::Arg::Str(path.into())),
            ],
        );
    }
    match into.truncated(len) {
        Some(e) => Err(e),
        None => Ok(RecvStatus {
            src: env.src,
            tag: env.tag,
            len,
        }),
    }
}

impl Rank {
    /// Blocking standard-mode send (`MPI_Send`) of contiguous bytes.
    ///
    /// Errors detected by the protocol come back through the `Result`
    /// after passing the configured error handler: under the default
    /// [`crate::ErrorMode::ErrorsAreFatal`] the rank panics instead.
    /// Append `.done()` (from [`crate::prelude`]) at call sites that
    /// treat any surfaced error as fatal.
    pub fn send(&mut self, dst: usize, tag: Tag, data: &[u8]) -> Result<(), ScimpiError> {
        let op = self.start_send(dst, tag, SendData::Bytes(data))?;
        self.finish_send(op)
    }

    /// Blocking send of a committed datatype.
    pub fn send_typed(
        &mut self,
        dst: usize,
        tag: Tag,
        c: &Committed,
        count: usize,
        buf: &[u8],
        origin: usize,
    ) -> Result<(), ScimpiError> {
        let op = self.start_send(
            dst,
            tag,
            SendData::Typed {
                c,
                count,
                buf,
                origin,
            },
        )?;
        self.finish_send(op)
    }

    /// Start a send: eager sends complete immediately, rendezvous sends
    /// post their RTS and return an op for [`Rank::finish_send`]. Eager
    /// sends can detect unrepairable corruption while starting.
    pub fn start_send<'a>(
        &mut self,
        dst: usize,
        tag: Tag,
        data: SendData<'a>,
    ) -> Result<SendOp<'a>, ScimpiError> {
        // Translate the caller's logical rank into a world rank; all
        // protocol state (mailboxes, rings, liveness) is world-indexed.
        let dst = self.to_world(dst);
        let len = data.total_len();
        if let SendData::Typed { c, .. } = &data {
            // Resolving the committed layout costs a cache lookup with the
            // pack engine on, or a full re-flatten with it off; the
            // adaptive selector then records which pack path this layout's
            // density chose.
            let resolve = self.world.tuning.layout_resolve_cost(c);
            attrib::advance(&mut self.clock, Bucket::Pack, resolve);
            self.world.tuning.select_path_recorded(c, len, false);
        }
        // Eager messages (short ones included) consume flow-control
        // credits at post time; an exhausted budget resolves per
        // `Tuning::overload_policy` before any protocol cost is charged.
        let mut eager = len <= self.world.tuning.eager_threshold;
        if eager {
            match self.acquire_eager_credits(dst, len)? {
                CreditVerdict::Granted => {}
                CreditVerdict::Degrade => eager = false,
                CreditVerdict::Shed => {
                    // The message is dropped sender-side: the send
                    // "completes" without posting anything.
                    return Ok(SendOp {
                        dst,
                        data,
                        kind: SendOpKind::Done,
                    });
                }
            }
        }
        if eager {
            obs::inc(obs::Counter::EagerSends);
            let start = self.clock.now();
            // A failed send delivered nothing, so no grant will return its
            // credits: give them back here.
            self.send_eager(dst, tag, &data)
                .inspect_err(|_| self.world.credit(self.rank, dst).restore(len))?;
            if obs::is_enabled() {
                obs::span(
                    "p2p.send",
                    start,
                    self.clock.now(),
                    vec![
                        ("bytes", obs::Arg::U64(len as u64)),
                        ("dst", obs::Arg::U64(dst as u64)),
                        ("path", obs::Arg::Str("eager".into())),
                    ],
                );
            }
            Ok(SendOp {
                dst,
                data,
                kind: SendOpKind::Done,
            })
        } else {
            obs::inc(obs::Counter::RendezvousSends);
            let handle = self.world.handle();
            // Take the pair's send-turn ticket here, on the posting
            // rank's own task, so turn order is program order even when
            // the chunk loop later runs on an engine task.
            let ticket = self.world.ring(self.rank, dst).take_turn_ticket();
            attrib::advance(&mut self.clock, Bucket::Transfer, CTRL_SEND_COST);
            let arrival = self.clock.now() + self.world.ctrl_latency(self.rank, dst);
            let rts = Envelope {
                src: self.rank,
                tag,
                arrival,
                head: Head::Rts { size: len, handle },
            };
            post_envelope(&self.world, dst, rts);
            if obs::is_enabled() {
                obs::instant(
                    "p2p.rts",
                    self.clock.now(),
                    vec![
                        ("bytes", obs::Arg::U64(len as u64)),
                        ("dst", obs::Arg::U64(dst as u64)),
                    ],
                );
            }
            Ok(SendOp {
                dst,
                data,
                kind: SendOpKind::Rendezvous { handle, ticket },
            })
        }
    }

    /// Complete a send started with [`Rank::start_send`]: under
    /// [`crate::ErrorMode::ErrorsReturn`] communication errors come back
    /// as values instead of panicking.
    pub fn finish_send(&mut self, op: SendOp<'_>) -> Result<(), ScimpiError> {
        let world = Arc::clone(&self.world);
        finish_send_inner(&world, self.rank, &mut self.clock, op)
    }

    /// Acquire eager flow-control credits (`len` payload bytes + one
    /// envelope slot) toward world rank `dst`, resolving an exhausted
    /// budget per [`OverloadPolicy`]:
    ///
    /// * `Stall` — block in a liveness-guarded backpressure wait until
    ///   the receiver returns enough credits, charging the wait to the
    ///   `backpressure` bucket at the deterministic grant timestamps;
    /// * `Degrade` — fall back to the rendezvous protocol (its ring
    ///   slots are themselves flow-controlled);
    /// * `Shed` — drop the message sender-side;
    /// * `Error` — surface [`ScimpiError::ResourceExhausted`].
    ///
    /// The consume/deny verdict only reads sender-local credit state, so
    /// it — and everything downstream of it — is deterministic.
    fn acquire_eager_credits(
        &mut self,
        dst: usize,
        len: usize,
    ) -> Result<CreditVerdict, ScimpiError> {
        let credits = self.world.credit(self.rank, dst);
        if credits.try_consume(len) {
            return Ok(CreditVerdict::Granted);
        }
        let policy = if is_reliable() {
            OverloadPolicy::Stall
        } else {
            self.world.tuning.overload_policy
        };
        match policy {
            OverloadPolicy::Stall => {
                obs::inc(obs::Counter::EagerCreditStalls);
                let world = Arc::clone(&self.world);
                // Collect grants one at a time, merging each grant's
                // arrival (receiver match time + control latency) as a
                // backpressure wait, until the pool covers the message.
                // A revoked communicator or a dead receiver must
                // unblock the stall, or backpressure would deadlock
                // recovery; the final drain takes every grant left.
                let covers = |clock: &mut Clock, (glen, at): (usize, SimTime)| {
                    attrib::merge_waited(clock, at, WaitKind::Backpressure, Some(dst as u32));
                    credits.restore(glen);
                    credits.try_consume(len)
                };
                world
                    .block_on(
                        self.rank,
                        &mut self.clock,
                        Some((dst, "eager credits")),
                        |clock| {
                            while !covers(clock, credits.await_grant()?) {}
                            Some(())
                        },
                        |clock| {
                            while !covers(clock, credits.try_grant()?) {}
                            Some(())
                        },
                    )
                    .map_err(|e| world.escalate(e))?;
                Ok(CreditVerdict::Granted)
            }
            OverloadPolicy::Degrade => {
                obs::inc(obs::Counter::DegradedPaths);
                Ok(CreditVerdict::Degrade)
            }
            OverloadPolicy::Shed => {
                obs::inc(obs::Counter::MessagesShed);
                Ok(CreditVerdict::Shed)
            }
            OverloadPolicy::Error => {
                obs::inc(obs::Counter::BudgetDenials);
                Err(self.world.escalate(ScimpiError::ResourceExhausted {
                    what: "eager credits",
                    needed: len,
                    limit: self.world.tuning.eager_credits_bytes,
                }))
            }
        }
    }

    fn send_eager(&mut self, dst: usize, tag: Tag, data: &SendData<'_>) -> Result<(), ScimpiError> {
        let world = Arc::clone(&self.world);
        let mut payload = pack_local(&world, &mut self.clock, data, 0, usize::MAX);
        let params = world.fabric.params();
        let len = payload.len();
        // Model the PIO write of the payload into the receiver's eager
        // buffer space.
        let same_node = world.smi.same_node(ProcId(self.rank), ProcId(dst));
        let cpu = if same_node {
            params.cache.copy_cost(len, len)
        } else {
            params.txn_overhead + params.pio_stream_bw(len).cost(len as u64) + params.store_barrier
        };
        attrib::advance(&mut self.clock, Bucket::Transfer, CTRL_SEND_COST + cpu);
        // The eager payload travels with the envelope rather than through
        // `SharedMem`, so the fabric's silent faults are applied to the
        // wire image here (same per-pair streams, same burst geometry).
        // Intra-node transfers are plain memory copies and never fault.
        let mut crc = None;
        if !same_node && len > 0 {
            let pair = (world.node_of(self.rank).0, world.node_of(dst).0);
            let mode = world.tuning.integrity_mode;
            let verify = mode == IntegrityMode::EndToEnd;
            let guard = Transfer::new(&world, mode, "eager", dst, "eager message");
            // Verified delivery sends a fresh wire image per attempt; the
            // receiver-side CRC verdict is collapsed into the attempt (the
            // simulator knows ground truth).
            let clean = verify.then(|| payload.clone());
            integrity::retransmit(self, guard, |r, retry| {
                if retry {
                    // Resend the payload burst.
                    attrib::advance(&mut r.clock, Bucket::Transfer, cpu);
                    payload.copy_from_slice(clean.as_deref().expect("only verified sends retry"));
                }
                if mode == IntegrityMode::SequenceCheck {
                    // Bracket the modeled PIO burst with the sequence
                    // guard (one CSR read before, one after).
                    let check = params.sequence_check_cost + params.sequence_check_cost;
                    attrib::advance(&mut r.clock, Bucket::Transfer, check);
                }
                if verify {
                    attrib::advance(&mut r.clock, Bucket::Pack, world.crc_cost(len));
                }
                let faults = world.fabric.faults();
                let n = faults.corrupt_buffer(pair, params.stream_buffer_bytes, &mut payload);
                if verify && n > 0 {
                    // The NACK costs a status round trip, the last one
                    // included.
                    let rtt = world.ctrl_latency(r.rank, dst);
                    attrib::advance(&mut r.clock, Bucket::Transfer, rtt + rtt);
                }
                Ok(n)
            })
            .map_err(|e| world.escalate(e))?;
            if verify {
                crc = Some(crc32(&payload));
            }
        }
        let arrival = self.clock.now() + world.ctrl_latency(self.rank, dst);
        let env = Envelope {
            src: self.rank,
            tag,
            arrival,
            head: Head::Eager { data: payload, crc },
        };
        post_envelope(&world, dst, env);
        Ok(())
    }

    /// Blocking receive (`MPI_Recv`) into contiguous bytes.
    ///
    /// With a specific [`Source::Rank`], a sender that dies before its
    /// message (or the next rendezvous chunk) arrives is detected and
    /// reported as [`ScimpiError::PeerDead`] after the deterministic
    /// [`crate::death_delay`] virtual-time schedule. `Source::Any` has no
    /// single peer to monitor, so it blocks until a message arrives.
    pub fn recv(
        &mut self,
        src: Source,
        tag: TagSel,
        buf: &mut [u8],
    ) -> Result<RecvStatus, ScimpiError> {
        self.recv_into(src, tag, RecvBuf::Bytes(buf))
    }

    /// Blocking receive into a committed datatype layout.
    pub fn recv_typed(
        &mut self,
        src: Source,
        tag: TagSel,
        c: &Committed,
        count: usize,
        buf: &mut [u8],
        origin: usize,
    ) -> Result<RecvStatus, ScimpiError> {
        self.recv_into(
            src,
            tag,
            RecvBuf::Typed {
                c,
                count,
                buf,
                origin,
            },
        )
    }

    /// Receive into either buffer shape (see [`Rank::recv`] for the
    /// error contract).
    pub fn recv_into(
        &mut self,
        src: Source,
        tag: TagSel,
        into: RecvBuf<'_>,
    ) -> Result<RecvStatus, ScimpiError> {
        let src = self.src_to_world(src);
        let world = Arc::clone(&self.world);
        recv_into_inner(&world, self.rank, &mut self.clock, src, tag, into)
            .map(|st| self.status_to_logical(st))
            .map_err(|e| world.escalate(e))
    }

    /// Translate a caller-facing source selector (logical ranks) into the
    /// world-rank space the mailboxes match on.
    pub(crate) fn src_to_world(&self, src: Source) -> Source {
        match src {
            Source::Any => Source::Any,
            Source::Rank(r) => Source::Rank(self.to_world(r)),
        }
    }

    /// Translate a completed receive's world-rank source back into the
    /// caller's logical rank space.
    pub(crate) fn status_to_logical(&self, mut st: RecvStatus) -> RecvStatus {
        st.src = self.to_logical(st.src);
        st
    }

    /// Combined send+receive (`MPI_Sendrecv`): deadlock-free even when all
    /// ranks call it simultaneously with rendezvous-size messages.
    ///
    /// A rendezvous send half is driven by a task of its own with a
    /// *forked clock* while this task services the receive — the two
    /// transfers progress concurrently, exactly the semantics
    /// `MPI_Sendrecv` promises (and the only way a symmetric exchange can
    /// avoid circular waits without an asynchronous progress engine). The
    /// task works on a copy of the send data and is joined before this
    /// returns; the rank's clock merges the later of the two finish times.
    ///
    /// If both halves fail, the send-side error wins (it is reported
    /// first in MPI practice too — the sendrecv completes as a unit
    /// either way). A failed eager send half still runs the receive half,
    /// which takes the peer's message if it comes; if a stall round finds
    /// it unmatched (the peer's send half may have failed as well), the
    /// receive is withdrawn and the send error returned.
    pub fn sendrecv(
        &mut self,
        dst: usize,
        stag: Tag,
        sdata: SendData<'_>,
        src: Source,
        rtag: TagSel,
        rbuf: RecvBuf<'_>,
    ) -> Result<RecvStatus, ScimpiError> {
        let op = match self.start_send(dst, stag, sdata) {
            Ok(op) => op,
            Err(e) => {
                // The receive half runs anyway: the peer's message must
                // not stay queued for whatever receive comes next.
                let src = self.src_to_world(src);
                let world = Arc::clone(&self.world);
                recv_unless_stalled(&world, self.rank, &mut self.clock, src, rtag, rbuf);
                return Err(e);
            }
        };
        if op.is_done() {
            // Eager sends already completed locally.
            return self.recv_into(src, rtag, rbuf);
        }
        let (world, rank, dst, kind) = (Arc::clone(&self.world), self.rank, op.dst, op.kind);
        let owned = OwnedSend::copy_of(op.data);
        let send_half = move |clock: &mut Clock| {
            let op = SendOp {
                dst,
                data: owned.as_data(),
                kind,
            };
            finish_send_inner(&world, rank, clock, op)
        };
        let seq = sched::reserve_seq();
        let (task, done) = engine(&self.world, rank, seq, self.clock.clone(), send_half);
        let status = self.recv_into(src, rtag, rbuf);
        sched::join_task(&task);
        let (end, send_res) = done.lock().unwrap().take().expect("a joined send half");
        // Joining the helper's forked clock: any jump is the rank
        // blocked on its own outstanding send half.
        attrib::merge_waited(
            &mut self.clock,
            end,
            WaitKind::RequestWait,
            Some(dst as u32),
        );
        send_res?;
        status
    }

    /// Non-destructive probe for a matching message.
    pub fn probe(&mut self, src: Source, tag: TagSel) -> Option<(usize, Tag)> {
        let src = self.src_to_world(src);
        self.world.mailboxes[self.rank]
            .probe(src, tag)
            .map(|(s, t, _)| (self.to_logical(s), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run, ClusterSpec};
    use crate::tuning::Tuning;
    use mpi_datatype::Datatype;
    use simclock::SimTime;

    #[test]
    fn eager_send_recv_roundtrip() {
        run(ClusterSpec::ringlet(2), |r| {
            if r.rank() == 0 {
                r.send(1, 7, b"hello sci").unwrap();
            } else {
                let mut buf = [0u8; 9];
                let st = r.recv(Source::Rank(0), TagSel::Value(7), &mut buf).unwrap();
                assert_eq!(&buf, b"hello sci");
                assert_eq!(
                    st,
                    RecvStatus {
                        src: 0,
                        tag: 7,
                        len: 9
                    }
                );
                assert!(r.now() > SimTime::ZERO);
            }
        });
    }

    #[test]
    fn rendezvous_large_message() {
        let data: Vec<u8> = (0..200_000).map(|i| (i * 31) as u8).collect();
        let expect = data.clone();
        run(ClusterSpec::ringlet(2), move |r| {
            if r.rank() == 0 {
                r.send(1, 1, &data).unwrap();
            } else {
                let mut buf = vec![0u8; 200_000];
                let st = r.recv(Source::Any, TagSel::Any, &mut buf).unwrap();
                assert_eq!(st.len, 200_000);
                assert_eq!(buf, expect);
            }
        });
    }

    #[test]
    fn typed_roundtrip_both_engines() {
        for tuning in [
            Tuning::default().generic_only(),
            Tuning::default().full_ff_comparison(),
        ] {
            let dt = Datatype::vector(512, 16, 32, &Datatype::double()); // 64 KiB data
            let c = Committed::commit(&dt);
            let src_buf: Vec<u8> = (0..dt.extent()).map(|i| (i * 7) as u8).collect();
            let expected = src_buf.clone();
            let spec = ClusterSpec::ringlet(2).tuning(tuning);
            let c2 = c.clone();
            run(spec, move |r| {
                if r.rank() == 0 {
                    r.send_typed(1, 3, &c2, 1, &src_buf, 0).unwrap();
                } else {
                    let mut buf = vec![0u8; c2.extent()];
                    r.recv_typed(Source::Rank(0), TagSel::Value(3), &c2, 1, &mut buf, 0)
                        .unwrap();
                    // Data bytes match; gaps remain zero.
                    let mut ok_data = true;
                    mpi_datatype::tree::for_each_segment(c2.datatype(), 1, |d, l| {
                        let d = d as usize;
                        ok_data &= buf[d..d + l] == expected[d..d + l];
                        core::ops::ControlFlow::Continue(())
                    });
                    assert!(ok_data);
                }
            });
        }
    }

    #[test]
    fn ff_beats_generic_for_medium_blocks() {
        // 128-byte blocks, rendezvous-size message: direct_pack_ff should
        // clearly outperform pack-and-send (Figure 7).
        let blocks = 2048usize;
        let dt = Datatype::vector(blocks, 16, 32, &Datatype::double()); // 128 B blocks
        let run_mode = |tuning: Tuning| {
            let c = Committed::commit(&dt);
            let src_buf = vec![7u8; dt.extent()];
            let out = run(ClusterSpec::ringlet(2).tuning(tuning), move |r| {
                if r.rank() == 0 {
                    r.send_typed(1, 0, &c, 1, &src_buf, 0).unwrap();
                    r.barrier();
                    r.now()
                } else {
                    let mut buf = vec![0u8; c.extent()];
                    r.recv_typed(Source::Rank(0), TagSel::Value(0), &c, 1, &mut buf, 0)
                        .unwrap();
                    r.barrier();
                    r.now()
                }
            });
            out[1]
        };
        let t_generic = run_mode(Tuning::default().generic_only());
        let t_ff = run_mode(Tuning::default().full_ff_comparison());
        assert!(
            t_ff < t_generic,
            "ff {t_ff:?} should beat generic {t_generic:?}"
        );
    }

    #[test]
    fn pack_engine_speeds_up_fine_grained_ff_sends() {
        // 16 B blocks over a rendezvous-size message: the layout cache
        // skips re-flattening and WC batching turns sub-transaction
        // stores into full aligned flushes. Figure-7 shape, small blocks.
        let dt = Datatype::vector(8192, 2, 4, &Datatype::double()); // 16 B blocks, 128 KiB
        let run_mode = |tuning: Tuning| {
            let c = Committed::commit(&dt);
            let src_buf = vec![3u8; dt.extent()];
            let out = run(ClusterSpec::ringlet(2).tuning(tuning), move |r| {
                if r.rank() == 0 {
                    r.send_typed(1, 0, &c, 1, &src_buf, 0).unwrap();
                    r.barrier();
                    r.now()
                } else {
                    let mut buf = vec![0u8; c.extent()];
                    r.recv_typed(Source::Rank(0), TagSel::Value(0), &c, 1, &mut buf, 0)
                        .unwrap();
                    r.barrier();
                    r.now()
                }
            });
            out[1]
        };
        let enabled = run_mode(Tuning::default().full_ff_comparison());
        let disabled = run_mode(Tuning::default().without_pack_engine().full_ff_comparison());
        assert!(
            enabled < disabled,
            "pack engine {enabled:?} should beat disabled {disabled:?}"
        );
        // The figure-7 acceptance margin: at least 15% lower virtual time.
        assert!(
            enabled.as_secs_f64() <= disabled.as_secs_f64() * 0.85,
            "expected >=15% improvement: {enabled:?} vs {disabled:?}"
        );
    }

    #[test]
    fn sendrecv_ring_no_deadlock() {
        // Every rank sendrecvs a rendezvous-size message around a ring.
        let n = 4;
        let len = 150_000;
        let out = run(ClusterSpec::ringlet(n), move |r| {
            let data = vec![r.rank() as u8; len];
            let mut buf = vec![0u8; len];
            let dst = (r.rank() + 1) % r.size();
            let src = (r.rank() + r.size() - 1) % r.size();
            let st = r
                .sendrecv(
                    dst,
                    5,
                    SendData::Bytes(&data),
                    Source::Rank(src),
                    TagSel::Value(5),
                    RecvBuf::Bytes(&mut buf),
                )
                .unwrap();
            assert_eq!(st.src, src);
            buf.iter().all(|&b| b == src as u8)
        });
        assert!(out.into_iter().all(|ok| ok));
    }

    #[test]
    fn messages_do_not_overtake_per_pair() {
        run(ClusterSpec::ringlet(2), |r| {
            if r.rank() == 0 {
                for i in 0..20u8 {
                    r.send(1, 9, &[i; 16]).unwrap();
                }
            } else {
                for i in 0..20u8 {
                    let mut buf = [0u8; 16];
                    r.recv(Source::Rank(0), TagSel::Value(9), &mut buf).unwrap();
                    assert_eq!(buf[0], i, "message overtook");
                }
            }
        });
    }

    #[test]
    fn wildcard_recv_matches_any_sender() {
        run(ClusterSpec::ringlet(4), |r| {
            if r.rank() != 0 {
                r.send(0, r.rank() as Tag, &[r.rank() as u8; 4]).unwrap();
            } else {
                let mut seen = [false; 4];
                for _ in 0..3 {
                    let mut buf = [0u8; 4];
                    let st = r.recv(Source::Any, TagSel::Any, &mut buf).unwrap();
                    assert_eq!(st.tag as usize, st.src);
                    seen[st.src] = true;
                }
                assert_eq!(seen, [false, true, true, true]);
            }
        });
    }

    #[test]
    fn inter_node_costs_more_than_intra_node() {
        let len = 64 * 1024;
        let time_for = |spec: ClusterSpec| {
            let out = run(spec, move |r| {
                if r.rank() == 0 {
                    r.send(1, 0, &vec![1u8; len]).unwrap();
                    r.barrier();
                } else {
                    let mut buf = vec![0u8; len];
                    r.recv(Source::Rank(0), TagSel::Value(0), &mut buf).unwrap();
                    r.barrier();
                }
                r.now()
            });
            out[0]
        };
        let mut intra = ClusterSpec::ringlet(1);
        intra.procs_per_node = 2;
        let inter = ClusterSpec::ringlet(2);
        // Intra-node via shared memory is faster than crossing the ring.
        assert!(time_for(intra) < time_for(inter));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_invalid_rank_panics() {
        run(ClusterSpec::ringlet(2), |r| {
            if r.rank() == 0 {
                r.send(5, 0, b"x").unwrap();
            }
        });
    }
}

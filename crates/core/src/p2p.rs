//! Two-sided point-to-point communication: short/eager/rendezvous
//! protocols over the SCI fabric, with both non-contiguous engines.
//!
//! Protocol selection follows SCI-MPICH (§2, reference 7):
//!
//! * **short/eager** — the packed payload travels with the control
//!   envelope into pre-allocated receiver buffer space; the sender
//!   completes immediately.
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
use crate::mailbox::{Ctrl, Envelope, Head, Source, Tag, TagSel};
use crate::runtime::{Rank, WorldState};
use crate::sink::PioSink;
use crate::tuning::{
    IntegrityMode, OverloadPolicy, PackPath, Tuning, CTRL_RECV_COST, CTRL_SEND_COST, FF_BLOCK_COST,
    GENERIC_VISIT_COST, SHORT_THRESHOLD,
};
use mpi_datatype::{ff, Committed, PackStats, SliceSource};
use obs::attrib::{self, Bucket, WaitKind};
use sci_fabric::{crc32, SeqStatus};
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

/// Where a receive lands.
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
/// own thread ([`Rank::finish_send`]) or on an engine thread with a
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
    // Wait for clear-to-send (sender-side handle space), guarding against
    // the receiver dying before it answers.
    match world
        .await_ctrl(rank, clock, sender_handle(handle), dst, "CTS")
        .map_err(|e| world.escalate(e))?
    {
        Ctrl::Cts { arrival } => {
            attrib::merge_waited(clock, arrival, WaitKind::LateReceiver, Some(dst as u32));
            attrib::advance(clock, Bucket::Transfer, CTRL_RECV_COST);
        }
        other => {
            return Err(world.escalate(ScimpiError::ProtocolViolation {
                expected: "CTS",
                got: format!("{other:?}"),
            }))
        }
    }
    let total = op.data.total_len();
    let chunk_size = ring.chunk;
    let data_start = clock.now();
    // One PIO stream per message; each chunk is a fresh burst.
    let working_set = total.min(chunk_size);
    let mut stream = ring.region.map(ProcId(rank)).pio_stream(working_set);
    let mut skip = 0usize;
    while skip < total {
        obs::inc(obs::Counter::RendezvousChunks);
        let this = chunk_size.min(total - skip);
        // Ring-slot acquisition with the same liveness guard: if the
        // receiver dies while holding every slot, the sender must not
        // wait forever.
        let slot_wait_start = clock.now();
        let slot = loop {
            if let Some(s) = ring.acquire(clock) {
                break s;
            }
            if world.revoke_arrival(rank).is_some() {
                if let Some(s) = ring.try_acquire(clock) {
                    break s;
                }
                let err = world
                    .check_revoked(clock, rank)
                    .expect("revocation installed");
                return Err(world.escalate(err));
            }
            if !world.peer_dead(dst) {
                continue;
            }
            if let Some(s) = ring.try_acquire(clock) {
                break s;
            }
            return Err(world.escalate(world.declare_dead(clock, dst, "ring slot")));
        };
        // Slot reuse carries the receiver's drain time: any forward jump
        // is the sender waiting for the receiver to free ring space.
        attrib::wait(
            WaitKind::LateReceiver,
            slot_wait_start,
            clock.now(),
            Some(dst as u32),
        );
        let slot_off = ring.slot_offset(slot);
        let mode = world.tuning.integrity_mode;
        // `EndToEnd` frames each chunk with a CRC32 over its packed image,
        // so the image must exist contiguously at the sender: typed data
        // forgoes direct ff streaming here and pays the pack through the
        // engine's normal cost model (part of the integrity tax measured
        // by the `integrity_overhead` bench).
        let staged: Option<(u32, Vec<u8>)> = if mode == IntegrityMode::EndToEnd {
            let packed = pack_local(world, clock, &op.data, skip, this);
            attrib::advance(clock, Bucket::Pack, world.crc_cost(packed.len()));
            Some((crc32(&packed), packed))
        } else {
            None
        };
        let mut retransmits = 0u32;
        let blocks = loop {
            if mode == IntegrityMode::SequenceCheck {
                attrib::charged(clock, Bucket::Transfer, |clock| {
                    stream.start_sequence(clock)
                });
            }
            let blocks = if let Some((_, packed)) = &staged {
                attrib::charged(clock, Bucket::Transfer, |clock| {
                    stream.write(clock, slot_off, packed)
                })
                .map_err(|e| world.escalate(e.into()))?;
                1
            } else {
                match &op.data {
                    SendData::Bytes(b) => {
                        attrib::charged(clock, Bucket::Transfer, |clock| {
                            stream.write(clock, slot_off, &b[skip..skip + this])
                        })
                        .map_err(|e| world.escalate(e.into()))?;
                        1
                    }
                    SendData::Typed {
                        c,
                        count,
                        buf,
                        origin,
                    } => {
                        if use_ff(&world.tuning, c, c.size() * count) {
                            // direct_pack_ff straight into the remote ring:
                            // no intermediate copy. With WC batching the
                            // sink coalesces sub-transaction blocks into
                            // full aligned stream-buffer flushes.
                            let stats = attrib::charged(
                                clock,
                                Bucket::Transfer,
                                |clock| -> Result<_, ScimpiError> {
                                    let mut sink = PioSink::new(&mut stream, clock, slot_off)
                                        .with_batching(world.tuning.pack_engine);
                                    let stats =
                                        ff::pack_ff(c, *count, buf, *origin, skip, this, &mut sink)
                                            .map_err(|e| world.escalate(e.into()))?;
                                    sink.finish().map_err(|e| world.escalate(e.into()))?;
                                    Ok(stats)
                                },
                            )?;
                            attrib::advance(
                                clock,
                                Bucket::Pack,
                                FF_BLOCK_COST.saturating_mul(stats.blocks as u64),
                            );
                            stats.blocks
                        } else {
                            // Generic: pack locally, then one contiguous
                            // write.
                            let packed = pack_local(world, clock, &op.data, skip, this);
                            attrib::charged(clock, Bucket::Transfer, |clock| {
                                stream.write(clock, slot_off, &packed)
                            })
                            .map_err(|e| world.escalate(e.into()))?;
                            1
                        }
                    }
                }
            };
            // Store barrier: the chunk must be fully delivered before the
            // notification overtakes it (§2).
            attrib::charged(clock, Bucket::Transfer, |clock| stream.barrier(clock));
            match mode {
                IntegrityMode::Off => {
                    let n = stream.take_silent_faults();
                    if n > 0 {
                        obs::add(obs::Counter::UndetectedAtOff, n);
                        obs::instant(
                            "ft.integrity.silent",
                            clock.now(),
                            vec![
                                ("bytes", obs::Arg::U64(this as u64)),
                                ("faults", obs::Arg::U64(n)),
                            ],
                        );
                    }
                    break blocks;
                }
                IntegrityMode::SequenceCheck => {
                    stream.take_silent_faults();
                    let status = attrib::charged(clock, Bucket::Transfer, |clock| {
                        stream.check_sequence(clock)
                    });
                    if status == SeqStatus::Tainted {
                        obs::inc(obs::Counter::CorruptionsDetected);
                        obs::instant(
                            "ft.integrity.detected",
                            clock.now(),
                            vec![
                                ("path", obs::Arg::Str("rendezvous".into())),
                                ("peer", obs::Arg::U64(dst as u64)),
                            ],
                        );
                        // Unblock the receiver before surfacing the error:
                        // the sequence guard detects but never repairs.
                        world.mailboxes[dst].post_ctrl(
                            receiver_handle(handle),
                            Ctrl::Abort {
                                arrival: clock.now() + world.ctrl_latency(rank, dst),
                                retransmits: 0,
                            },
                        );
                        return Err(world.escalate(ScimpiError::DataCorruption {
                            peer: dst,
                            what: "rendezvous chunk",
                            retransmits: 0,
                        }));
                    }
                    break blocks;
                }
                IntegrityMode::EndToEnd => {
                    stream.take_silent_faults();
                    let (crc, _) = staged.as_ref().expect("EndToEnd staged the chunk");
                    // Stop-and-wait: every chunk is acknowledged before the
                    // next slot fills (the pipelining loss is part of the
                    // integrity tax).
                    attrib::advance(clock, Bucket::Transfer, CTRL_SEND_COST);
                    let arrival = clock.now() + world.ctrl_latency(rank, dst);
                    world.mailboxes[dst].post_ctrl(
                        receiver_handle(handle),
                        Ctrl::Chunk {
                            slot,
                            len: this,
                            blocks,
                            arrival,
                            last: skip + this >= total,
                            crc: Some(*crc),
                        },
                    );
                    match world
                        .await_ctrl(rank, clock, sender_handle(handle), dst, "chunk ack")
                        .map_err(|e| world.escalate(e))?
                    {
                        Ctrl::ChunkAck { arrival, ok } => {
                            attrib::merge_waited(
                                clock,
                                arrival,
                                WaitKind::LateReceiver,
                                Some(dst as u32),
                            );
                            attrib::advance(clock, Bucket::Transfer, CTRL_RECV_COST);
                            if ok {
                                break blocks;
                            }
                            if retransmits >= world.tuning.max_retransmits {
                                world.mailboxes[dst].post_ctrl(
                                    receiver_handle(handle),
                                    Ctrl::Abort {
                                        arrival: clock.now() + world.ctrl_latency(rank, dst),
                                        retransmits,
                                    },
                                );
                                return Err(world.escalate(ScimpiError::DataCorruption {
                                    peer: dst,
                                    what: "rendezvous chunk",
                                    retransmits,
                                }));
                            }
                            retransmits += 1;
                            obs::inc(obs::Counter::Retransmits);
                            obs::instant(
                                "ft.integrity.retransmit",
                                clock.now(),
                                vec![
                                    ("path", obs::Arg::Str("rendezvous".into())),
                                    ("attempt", obs::Arg::U64(retransmits as u64)),
                                ],
                            );
                            // Loop: rewrite the same slot.
                        }
                        other => {
                            return Err(world.escalate(ScimpiError::ProtocolViolation {
                                expected: "chunk ack",
                                got: format!("{other:?}"),
                            }))
                        }
                    }
                }
            }
        };
        skip += this;
        if mode != IntegrityMode::EndToEnd {
            attrib::advance(clock, Bucket::Transfer, CTRL_SEND_COST);
            let arrival = clock.now() + world.ctrl_latency(rank, dst);
            world.mailboxes[dst].post_ctrl(
                receiver_handle(handle),
                Ctrl::Chunk {
                    slot,
                    len: this,
                    blocks,
                    arrival,
                    last: skip >= total,
                    crc: None,
                },
            );
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
}

/// Unpack `data` (a packed-stream chunk starting at stream offset `skip`)
/// into the receive buffer, charging copy costs. `charge_copy` is false
/// for short messages that are consumed in place.
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
            assert!(
                skip + data.len() <= buf.len(),
                "receive buffer too small: {} < {}",
                buf.len(),
                skip + data.len()
            );
            buf[skip..skip + data.len()].copy_from_slice(data);
            if charge_copy {
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

/// The receive protocol: claim an envelope through the posted-receive
/// queue (`ticket` was registered by the caller at post time, in program
/// order), then consume the eager payload or drive the rendezvous
/// receiver side. Runs either on the rank's own thread
/// ([`Rank::recv_into`]) or on an engine thread with a forked clock
/// ([`Rank::irecv`]).
pub(crate) fn recv_into_inner(
    world: &Arc<WorldState>,
    rank: usize,
    clock: &mut Clock,
    ticket: u64,
    src: Source,
    mut into: RecvBuf<'_>,
) -> Result<RecvStatus, ScimpiError> {
    let recv_start = clock.now();
    if let RecvBuf::Typed { c, .. } = &into {
        // The receiver resolves the same committed layout to unpack.
        attrib::advance(clock, Bucket::Pack, world.tuning.layout_resolve_cost(c));
    }
    let env = match src {
        Source::Any => loop {
            if let Some(e) = world.mailboxes[rank].match_recv_posted(ticket, clock.now()) {
                break e;
            }
            // A wildcard receive has no single peer to monitor, so only a
            // communicator revocation can unblock it early.
            if world.revoke_arrival(rank).is_some() {
                if let Some(e) = world.mailboxes[rank].try_match_recv_posted(ticket, clock.now()) {
                    break e;
                }
                world.mailboxes[rank].abandon_recv(ticket);
                let err = world
                    .check_revoked(clock, rank)
                    .expect("revocation installed");
                return Err(world.escalate(err));
            }
        },
        Source::Rank(peer) => loop {
            if let Some(e) = world.mailboxes[rank].match_recv_posted(ticket, clock.now()) {
                break e;
            }
            if world.revoke_arrival(rank).is_some() {
                if let Some(e) = world.mailboxes[rank].try_match_recv_posted(ticket, clock.now()) {
                    break e;
                }
                world.mailboxes[rank].abandon_recv(ticket);
                let err = world
                    .check_revoked(clock, rank)
                    .expect("revocation installed");
                return Err(world.escalate(err));
            }
            if !world.peer_dead(peer) {
                continue;
            }
            // Final drain: the message may have landed between the stall
            // and the death check.
            if let Some(e) = world.mailboxes[rank].try_match_recv_posted(ticket, clock.now()) {
                break e;
            }
            world.mailboxes[rank].abandon_recv(ticket);
            let err = world.declare_dead(clock, peer, "message");
            return Err(world.escalate(err));
        },
    };
    attrib::merge_waited(
        clock,
        env.arrival,
        WaitKind::LateSender,
        Some(env.src as u32),
    );
    attrib::advance(clock, Bucket::Transfer, CTRL_RECV_COST);
    match env.head {
        Head::Eager { data, crc, .. } => {
            let len = data.len();
            if let Some(expect) = crc {
                // Defensive re-verification of the sender-verified
                // payload: a mismatch here means the framing itself is
                // broken, not the fabric.
                attrib::advance(clock, Bucket::Pack, world.crc_cost(len));
                if crc32(&data) != expect {
                    obs::inc(obs::Counter::CorruptionsDetected);
                    return Err(world.escalate(ScimpiError::DataCorruption {
                        peer: env.src,
                        what: "eager message",
                        retransmits: 0,
                    }));
                }
            }
            unpack_into(world, clock, &mut into, 0, &data, len > SHORT_THRESHOLD);
            // Return the message's flow-control credits to the sender:
            // the grant becomes collectable at the match time plus one
            // control-packet latency. The sender folds it in inside a
            // backpressure stall or at the next barrier.
            let grant_at = clock.now() + world.ctrl_latency(rank, env.src);
            world.credit(env.src, rank).deposit(len, grant_at);
            if obs::is_enabled() {
                obs::span(
                    "p2p.recv",
                    recv_start,
                    clock.now(),
                    vec![
                        ("bytes", obs::Arg::U64(len as u64)),
                        ("src", obs::Arg::U64(env.src as u64)),
                        ("path", obs::Arg::Str("eager".into())),
                    ],
                );
            }
            Ok(RecvStatus {
                src: env.src,
                tag: env.tag,
                len,
            })
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
                let (slot, len, arrival, last, crc) = match c {
                    Ctrl::Chunk {
                        slot,
                        len,
                        blocks: _,
                        arrival,
                        last,
                        crc,
                    } => (slot, len, arrival, last, crc),
                    Ctrl::Abort {
                        arrival,
                        retransmits,
                    } => {
                        // The sender detected corruption it could not
                        // repair and gave up on the transfer.
                        attrib::merge_waited(
                            clock,
                            arrival,
                            WaitKind::LateSender,
                            Some(env.src as u32),
                        );
                        attrib::advance(clock, Bucket::Transfer, CTRL_RECV_COST);
                        return Err(world.escalate(ScimpiError::DataCorruption {
                            peer: env.src,
                            what: "rendezvous transfer",
                            retransmits,
                        }));
                    }
                    other => {
                        return Err(world.escalate(ScimpiError::ProtocolViolation {
                            expected: "chunk",
                            got: format!("{other:?}"),
                        }));
                    }
                };
                attrib::merge_waited(clock, arrival, WaitKind::LateSender, Some(env.src as u32));
                attrib::advance(clock, Bucket::Transfer, CTRL_RECV_COST);
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
                        obs::inc(obs::Counter::CorruptionsDetected);
                        obs::instant(
                            "ft.integrity.detected",
                            clock.now(),
                            vec![
                                ("path", obs::Arg::Str("rendezvous".into())),
                                ("peer", obs::Arg::U64(env.src as u64)),
                            ],
                        );
                        continue; // await the retransmission (or abort)
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
            if obs::is_enabled() {
                obs::span(
                    "p2p.recv",
                    recv_start,
                    clock.now(),
                    vec![
                        ("bytes", obs::Arg::U64(size as u64)),
                        ("src", obs::Arg::U64(env.src as u64)),
                        ("path", obs::Arg::Str("rendezvous".into())),
                    ],
                );
            }
            Ok(RecvStatus {
                src: env.src,
                tag: env.tag,
                len: size,
            })
        }
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
            self.send_eager(dst, tag, &data)?;
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
            // rank's own thread, so turn order is program order even when
            // the chunk loop later runs on an engine thread.
            let ticket = self.world.ring(self.rank, dst).take_turn_ticket();
            attrib::advance(&mut self.clock, Bucket::Transfer, CTRL_SEND_COST);
            let arrival = self.clock.now() + self.world.ctrl_latency(self.rank, dst);
            self.world.mailboxes[dst].post(Envelope {
                src: self.rank,
                tag,
                arrival,
                head: Head::Rts { size: len, handle },
            });
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
                // The guard mirrors `WorldState::await_ctrl`: a revoked
                // communicator or a dead receiver must unblock the
                // stall, or backpressure would deadlock recovery.
                let collect = |clock: &mut Clock, grant: Option<(usize, SimTime)>| -> bool {
                    let Some((glen, at)) = grant else {
                        return false;
                    };
                    attrib::merge_waited(clock, at, WaitKind::Backpressure, Some(dst as u32));
                    credits.restore(glen);
                    true
                };
                loop {
                    if collect(&mut self.clock, credits.await_grant()) {
                        if credits.try_consume(len) {
                            return Ok(CreditVerdict::Granted);
                        }
                        continue;
                    }
                    if world.revoke_arrival(self.rank).is_some() {
                        // Final drain: a grant may have landed between
                        // the stall and the revocation check.
                        if collect(&mut self.clock, credits.try_grant()) {
                            if credits.try_consume(len) {
                                return Ok(CreditVerdict::Granted);
                            }
                            continue;
                        }
                        let err = world
                            .check_revoked(&mut self.clock, self.rank)
                            .expect("revocation installed");
                        return Err(world.escalate(err));
                    }
                    if !world.peer_dead(dst) {
                        continue;
                    }
                    if collect(&mut self.clock, credits.try_grant()) {
                        if credits.try_consume(len) {
                            return Ok(CreditVerdict::Granted);
                        }
                        continue;
                    }
                    let err = world.declare_dead(&mut self.clock, dst, "eager credits");
                    return Err(world.escalate(err));
                }
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
            let faults = world.fabric.faults();
            match world.tuning.integrity_mode {
                IntegrityMode::Off => {
                    let n = faults.corrupt_buffer(pair, params.stream_buffer_bytes, &mut payload);
                    if n > 0 {
                        obs::add(obs::Counter::UndetectedAtOff, n as u64);
                        obs::instant(
                            "ft.integrity.silent",
                            self.clock.now(),
                            vec![
                                ("bytes", obs::Arg::U64(len as u64)),
                                ("faults", obs::Arg::U64(n as u64)),
                            ],
                        );
                    }
                }
                IntegrityMode::SequenceCheck => {
                    // Bracket the modeled PIO burst with the sequence guard
                    // (one CSR read before, one after).
                    attrib::advance(
                        &mut self.clock,
                        Bucket::Transfer,
                        params.sequence_check_cost + params.sequence_check_cost,
                    );
                    let n = faults.corrupt_buffer(pair, params.stream_buffer_bytes, &mut payload);
                    if n > 0 {
                        obs::inc(obs::Counter::CorruptionsDetected);
                        obs::instant(
                            "ft.integrity.detected",
                            self.clock.now(),
                            vec![
                                ("path", obs::Arg::Str("eager".into())),
                                ("peer", obs::Arg::U64(dst as u64)),
                            ],
                        );
                        // Detect-only: the message is not delivered.
                        return Err(world.escalate(ScimpiError::DataCorruption {
                            peer: dst,
                            what: "eager message",
                            retransmits: 0,
                        }));
                    }
                }
                IntegrityMode::EndToEnd => {
                    // Verified delivery: each attempt sends a fresh wire
                    // image; the receiver-side CRC verdict is collapsed
                    // into this loop (the simulator knows ground truth),
                    // charging a status round trip per retransmission.
                    let clean = payload.clone();
                    let mut retransmits = 0u32;
                    loop {
                        attrib::advance(&mut self.clock, Bucket::Pack, world.crc_cost(len));
                        let mut wire = clean.clone();
                        let n = faults.corrupt_buffer(pair, params.stream_buffer_bytes, &mut wire);
                        if n == 0 {
                            payload = wire;
                            break;
                        }
                        obs::inc(obs::Counter::CorruptionsDetected);
                        obs::instant(
                            "ft.integrity.detected",
                            self.clock.now(),
                            vec![
                                ("path", obs::Arg::Str("eager".into())),
                                ("peer", obs::Arg::U64(dst as u64)),
                            ],
                        );
                        let rtt = world.ctrl_latency(self.rank, dst);
                        attrib::advance(&mut self.clock, Bucket::Transfer, rtt + rtt);
                        if retransmits >= world.tuning.max_retransmits {
                            return Err(world.escalate(ScimpiError::DataCorruption {
                                peer: dst,
                                what: "eager message",
                                retransmits,
                            }));
                        }
                        retransmits += 1;
                        obs::inc(obs::Counter::Retransmits);
                        obs::instant(
                            "ft.integrity.retransmit",
                            self.clock.now(),
                            vec![
                                ("path", obs::Arg::Str("eager".into())),
                                ("attempt", obs::Arg::U64(retransmits as u64)),
                            ],
                        );
                        // Resend the payload burst.
                        attrib::advance(&mut self.clock, Bucket::Transfer, cpu);
                    }
                    crc = Some(crc32(&payload));
                }
            }
        }
        let arrival = self.clock.now() + world.ctrl_latency(self.rank, dst);
        world.mailboxes[dst].post(Envelope {
            src: self.rank,
            tag,
            arrival,
            head: Head::Eager {
                data: payload,
                blocks: 1,
                crc,
            },
        });
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
        let ticket = self.world.mailboxes[self.rank].post_recv(src, tag);
        let world = Arc::clone(&self.world);
        recv_into_inner(&world, self.rank, &mut self.clock, ticket, src, into)
            .map(|st| self.status_to_logical(st))
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
    /// Rendezvous sends are driven on a helper thread with a *forked
    /// clock* while this thread services the receive — the two transfers
    /// progress concurrently, exactly the semantics `MPI_Sendrecv`
    /// promises (and the only way a symmetric exchange can avoid circular
    /// waits without an asynchronous progress engine). On completion the
    /// rank's clock merges the later of the two finish times.
    ///
    /// If both halves fail, the send-side error wins (it is reported
    /// first in MPI practice too — the sendrecv completes as a unit
    /// either way).
    pub fn sendrecv(
        &mut self,
        dst: usize,
        stag: Tag,
        sdata: SendData<'_>,
        src: Source,
        rtag: TagSel,
        rbuf: RecvBuf<'_>,
    ) -> Result<RecvStatus, ScimpiError> {
        let op = self.start_send(dst, stag, sdata)?;
        let src = self.src_to_world(src);
        let dst = op.dst; // world rank (translated by start_send)
        let ticket = self.world.mailboxes[self.rank].post_recv(src, rtag);
        let world = Arc::clone(&self.world);
        let rank = self.rank;
        if op.is_done() {
            // Eager sends already completed locally.
            return recv_into_inner(&world, rank, &mut self.clock, ticket, src, rbuf)
                .map(|st| self.status_to_logical(st));
        }
        let mut send_clock = self.clock.clone();
        // The send half runs as its own scheduler task so its blocking
        // sites (ring slots, CTS waits) park in virtual time concurrently
        // with the recv half below.
        let task = sched::spawn_handle(rank as u32, send_clock.now())
            .expect("sendrecv outside a task: a rank runs under the scheduler");
        std::thread::scope(|scope| {
            let sender = scope.spawn({
                let (world, task) = (Arc::clone(&world), task.clone());
                move || {
                    // Bind the helper to the run's recorder and the rank's
                    // trace lane but leave it out of attribution (its
                    // clock is a fork; the rank accounts the join below
                    // as a request-wait).
                    let _bound = world.obs.as_ref().map(|o| o.bind(rank as u32));
                    let res = task.run(|| finish_send_inner(&world, rank, &mut send_clock, op));
                    // Unwound: the run is aborting, and so does the join.
                    let res = res.unwrap_or_else(|| std::panic::panic_any(sched::Aborted));
                    (res, send_clock)
                }
            });
            let status = recv_into_inner(&world, rank, &mut self.clock, ticket, src, rbuf);
            sched::join_task(&task);
            let (send_res, send_clock) = sender.join().expect("send side panicked");
            // Joining the helper's forked clock: any jump is the rank
            // blocked on its own outstanding send half.
            attrib::merge_waited(
                &mut self.clock,
                send_clock.now(),
                WaitKind::RequestWait,
                Some(dst as u32),
            );
            send_res?;
            status
        })
        .map(|st| self.status_to_logical(st))
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

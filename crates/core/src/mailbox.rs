//! Per-rank mailboxes: the transport under the MPI protocols.
//!
//! Two queues per rank:
//!
//! * the **message queue** holds envelope heads that `recv` matches by
//!   `(source, tag)` with MPI wildcard and non-overtaking semantics;
//! * the **protocol queue** holds handle-addressed control packets
//!   (CTS, rendezvous chunk notifications, one-sided control) that never
//!   interfere with message matching.
//!
//! Every entry carries its virtual *arrival* timestamp; the consumer
//! merges it into its clock, which is how causality and latency propagate
//! between ranks.
//!
//! A nonblocking receive that finds nothing to claim when it is posted
//! leaves a `Delivery` on its posted-queue entry instead of waiting:
//! the envelope it matches then never enters the message queue, and the
//! sender completes the receive.

use crate::runtime::WorldState;
use simclock::SimTime;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// MPI message tag.
pub type Tag = i32;

/// Source selector for receives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Match any source (`MPI_ANY_SOURCE`).
    Any,
    /// Match only this rank.
    Rank(usize),
}

/// Tag selector for receives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TagSel {
    /// Match any tag (`MPI_ANY_TAG`).
    Any,
    /// Match only this tag.
    Value(Tag),
}

/// An envelope in the matching queue.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Virtual arrival time of the (first packet of the) message.
    pub arrival: SimTime,
    /// Protocol-specific head.
    pub head: Head,
}

/// The protocol head of a matched message.
#[derive(Debug)]
pub enum Head {
    /// Short/eager: the packed payload travelled with the envelope.
    Eager {
        /// Packed payload bytes.
        data: Vec<u8>,
        /// Basic blocks the *sender* packed (receiver-side unpack pays a
        /// matching per-block cost).
        blocks: usize,
        /// CRC32 of `data` as computed by the sender, when the integrity
        /// mode frames payloads (`EndToEnd`); `None` otherwise.
        crc: Option<u32>,
    },
    /// Rendezvous request-to-send; data follows through the ring buffer.
    Rts {
        /// Total payload bytes.
        size: usize,
        /// Protocol handle for the control conversation.
        handle: u64,
    },
}

/// A handle-addressed protocol packet.
#[derive(Debug)]
pub enum Ctrl {
    /// Clear-to-send (receiver → sender).
    Cts {
        /// Arrival of the CTS at the sender.
        arrival: SimTime,
    },
    /// One ring chunk is ready (sender → receiver).
    Chunk {
        /// Slot index in the pair ring.
        slot: usize,
        /// Payload bytes in the slot.
        len: usize,
        /// Basic blocks the sender wrote (drives receiver unpack cost).
        blocks: usize,
        /// Arrival of the chunk data.
        arrival: SimTime,
        /// True on the final chunk.
        last: bool,
        /// CRC32 of the chunk payload (`EndToEnd` framing); `None`
        /// otherwise.
        crc: Option<u32>,
    },
    /// Chunk acknowledgement (receiver → sender), only exchanged in
    /// `EndToEnd` integrity mode: `ok: false` is a NACK demanding a
    /// retransmission of the same slot.
    ChunkAck {
        /// Arrival of the ack at the sender.
        arrival: SimTime,
        /// True if the chunk's CRC verified; false requests a resend.
        ok: bool,
    },
    /// The sender detected corruption it could not (or, in
    /// `SequenceCheck` mode, would not) repair and abandoned the
    /// transfer; the receiver should surface a corruption error instead
    /// of waiting forever.
    Abort {
        /// Arrival of the abort notification.
        arrival: SimTime,
        /// Retransmissions the sender attempted before giving up.
        retransmits: u32,
    },
    /// Generic completion signal (one-sided emulation and PSCW use this).
    Signal {
        /// Arrival time.
        arrival: SimTime,
        /// Optional payload.
        data: Vec<u8>,
    },
}

#[derive(Default)]
struct Queues {
    msgs: VecDeque<Envelope>,
    ctrl: HashMap<u64, VecDeque<Ctrl>>,
    /// MPI's posted-receive queue, in posted (program) order. With
    /// receives claiming from more than one task, two in-flight receives
    /// whose patterns overlap would otherwise race for the message queue
    /// and break determinism: a receive may only take an envelope no
    /// *earlier-posted* unmatched receive also matches — exactly MPI's
    /// arrival-time scan of the posted queue. Receives with disjoint
    /// patterns (a halo exchange from distinct neighbours) proceed fully
    /// concurrently.
    posted: Vec<PostedRecv>,
    next_ticket: u64,
    /// Backlog event log for the deterministic peak-queue gauge
    /// (recorded only while obs is enabled): `(virtual time, Δmessages,
    /// Δeager payload bytes)` at arrival and at removal of each message
    /// the queue held for non-zero virtual time. The runtime sweeps it at
    /// teardown — see `runtime::run_report`.
    backlog_log: Vec<(SimTime, i64, i64)>,
    /// Was an envelope posted while obs was enabled? Such a mailbox
    /// reports a peak, zero if it never held a message.
    backlog_seen: bool,
}

/// Eager payload bytes carried by an envelope (rendezvous RTS heads
/// queue an envelope but stage their payload in the ring, not here).
fn eager_bytes(env: &Envelope) -> i64 {
    match &env.head {
        Head::Eager { data, .. } => data.len() as i64,
        Head::Rts { .. } => 0,
    }
}

impl Queues {
    /// Log an envelope leaving the message queue. A message is queued
    /// from its arrival until the *later* of its arrival and the
    /// receiver's match time: a receive posted before the data lands
    /// holds it for zero virtual time, and is not logged. That is exact:
    /// the sweep orders removals before additions at equal times, so a
    /// zero-length pair nets to zero inside its own time group and moves
    /// no peak.
    fn log_removed(&mut self, env: &Envelope, now: SimTime) {
        if now > env.arrival && obs::is_enabled() {
            let bytes = eager_bytes(env);
            self.backlog_log.push((env.arrival, 1, bytes));
            self.backlog_log.push((now, -1, -bytes));
        }
    }

    /// Try to match the posted receive `ticket` against the message
    /// queue: first envelope (arrival order) that satisfies its pattern
    /// and is not claimed by an earlier-posted unmatched receive. On
    /// success the envelope and the posted entry both leave their queues.
    fn gated_match(&mut self, ticket: u64) -> Option<Envelope> {
        let &PostedRecv { src, tag, .. } = self.posted.iter().find(|p| p.ticket == ticket)?;
        let idx = self.msgs.iter().position(|e| {
            env_matches(e, src, tag)
                && !self
                    .posted
                    .iter()
                    .any(|p| p.ticket < ticket && env_matches(e, p.src, p.tag))
        })?;
        let env = self.msgs.remove(idx).expect("index valid under lock");
        let pi = self
            .posted
            .iter()
            .position(|p| p.ticket == ticket)
            .expect("entry present");
        self.posted.remove(pi);
        Some(env)
    }

    /// Take the oldest protocol packet queued for `handle`.
    fn pop_ctrl(&mut self, handle: u64) -> Option<Ctrl> {
        let dq = self.ctrl.get_mut(&handle)?;
        let c = dq.pop_front()?;
        if dq.is_empty() {
            self.ctrl.remove(&handle);
        }
        Some(c)
    }
}

/// A receive registered in the posted-receive table.
struct PostedRecv {
    ticket: u64,
    src: Source,
    tag: TagSel,
    /// Set when the sender completes this receive ([`Delivery`]); `None`
    /// when the receive claims from the queue itself.
    delivery: Option<Delivery>,
}

/// How the sender completes a posted nonblocking receive: the envelope
/// the receive matches skips the message queue and is handed to `run`,
/// on the sending task — the sender stores straight into the receive's
/// buffer, as SCI's transparent remote writes let it (paper §2).
pub(crate) struct Delivery {
    /// Virtual time the receive's own match would run: the message's
    /// stay in the queue, if any, is logged up to it.
    pub at: SimTime,
    /// Consume the envelope into the receive. Runs outside the queue
    /// lock and never parks.
    pub run: Consume,
}

/// The body of a [`Delivery`].
pub(crate) type Consume = Box<dyn FnOnce(&Arc<WorldState>, Envelope) + Send>;

/// Could one envelope satisfy both receives?
fn overlaps(a: &PostedRecv, b: &PostedRecv) -> bool {
    !matches!((a.src, b.src), (Source::Rank(x), Source::Rank(y)) if x != y)
        && !matches!((a.tag, b.tag), (TagSel::Value(x), TagSel::Value(y)) if x != y)
}

/// Does this envelope satisfy the pattern?
fn env_matches(e: &Envelope, src: Source, tag: TagSel) -> bool {
    (match src {
        Source::Any => true,
        Source::Rank(r) => e.src == r,
    }) && (match tag {
        TagSel::Any => true,
        TagSel::Value(t) => e.tag == t,
    })
}

/// One rank's mailbox.
#[derive(Default)]
pub struct Mailbox {
    q: Mutex<Queues>,
    /// Whoever waits for a match or a protocol packet (`docs/SCHEDULER.md`).
    waiters: sched::WaitQueue,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Deposit a message envelope (sender side): MPI's arrival-time scan
    /// of the posted queue. If the earliest-posted receive the envelope
    /// matches carries a [`Delivery`], the envelope skips the queue and
    /// comes back with it, for the sender to run.
    pub(crate) fn post(&self, env: Envelope) -> Option<(Delivery, Envelope)> {
        let mut q = self.q.lock().unwrap();
        q.backlog_seen |= obs::is_enabled();
        let first = q
            .posted
            .iter()
            .position(|p| env_matches(&env, p.src, p.tag));
        let delivery = match first {
            Some(i) if q.posted[i].delivery.is_some() => q.posted.remove(i).delivery,
            _ => None,
        };
        if let Some(d) = delivery {
            // No queued envelope matches a receive with a delivery, so
            // its leaving makes none claimable: nobody here to wake.
            q.log_removed(&env, d.at);
            return Some((d, env));
        }
        q.msgs.push_back(env);
        drop(q);
        self.waiters.wake_all();
        None
    }

    /// Deposit a protocol packet for `handle`.
    pub fn post_ctrl(&self, handle: u64, ctrl: Ctrl) {
        self.q
            .lock()
            .unwrap()
            .ctrl
            .entry(handle)
            .or_default()
            .push_back(ctrl);
        self.waiters.wake_all();
    }

    /// Non-blocking probe: does a matching envelope exist? Returns its
    /// `(src, tag, arrival)` without removing it.
    pub fn probe(&self, src: Source, tag: TagSel) -> Option<(usize, Tag, SimTime)> {
        let q = self.q.lock().unwrap();
        q.msgs
            .iter()
            .find(|e| env_matches(e, src, tag))
            .map(|e| (e.src, e.tag, e.arrival))
    }

    /// Wait for a protocol packet for `handle` and remove it; `None` when
    /// the wait stalls (a scheduler stall round), without removing
    /// anything. A stall is not a protocol decision: callers loop on it,
    /// checking peer liveness in between, and charge virtual time only
    /// from the deterministic timeout schedule. Ctrl waits carry no
    /// timestamp of their own: the task parks at its last recorded
    /// virtual time.
    pub fn wait_ctrl(&self, handle: u64) -> Option<Ctrl> {
        self.waiters
            .take_or_wait(&self.q, None, |q| q.pop_ctrl(handle))
    }

    /// [`Self::wait_ctrl`] that looks once and never parks: the final
    /// drain after a peer's death or a revocation.
    pub fn try_ctrl(&self, handle: u64) -> Option<Ctrl> {
        self.q.lock().unwrap().pop_ctrl(handle)
    }

    /// Register a receive in the posted-receive queue. Must be called by
    /// the posting rank itself so tickets reflect program order; the
    /// matching itself ([`Self::match_recv_posted`]) may then run on an
    /// engine task.
    pub fn post_recv(&self, src: Source, tag: TagSel) -> u64 {
        let mut q = self.q.lock().unwrap();
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        q.posted.push(PostedRecv {
            ticket,
            src,
            tag,
            delivery: None,
        });
        ticket
    }

    /// Does an earlier-posted receive that claims from the queue itself
    /// overlap the pattern of the posted receive `ticket`? Such a receive
    /// may leave an envelope both match queued for itself, where no later
    /// [`Self::post`] would deliver it to `ticket`.
    pub(crate) fn shadowed(&self, ticket: u64) -> bool {
        let q = self.q.lock().unwrap();
        let Some(me) = q.posted.iter().find(|p| p.ticket == ticket) else {
            return false;
        };
        q.posted
            .iter()
            .any(|p| p.ticket < ticket && p.delivery.is_none() && overlaps(p, me))
    }

    /// Let the sender complete the posted receive `ticket`, which claimed
    /// nothing at post and is not [`Self::shadowed`]: from now on
    /// [`Self::post`] hands it the envelope it matches. Then no queued
    /// envelope matches `ticket`, and none ever will.
    pub(crate) fn set_delivery(&self, ticket: u64, delivery: Delivery) {
        let mut q = self.q.lock().unwrap();
        let entry = q.posted.iter_mut().find(|p| p.ticket == ticket);
        entry.expect("the receive is posted").delivery = Some(delivery);
    }

    /// Withdraw a posted receive without matching (error paths: the
    /// monitored peer died), with its delivery if it has one. Idempotent;
    /// unblocks later overlapping receives.
    pub fn abandon_recv(&self, ticket: u64) {
        let mut q = self.q.lock().unwrap();
        if let Some(i) = q.posted.iter().position(|p| p.ticket == ticket) {
            q.posted.remove(i);
            drop(q);
            self.waiters.wake_all();
        }
    }

    /// Wait until the posted receive `ticket` can claim an envelope (no
    /// earlier-posted unmatched receive also matches it) and remove it;
    /// `None` when the wait stalls (see [`Self::wait_ctrl`] for the
    /// virtual-time contract). The posted entry stays registered then.
    /// `now` is the caller's virtual time at the call: the task parks at
    /// it, and it feeds the backlog gauge (it never affects matching or
    /// the clock).
    pub fn match_recv_posted(&self, ticket: u64, now: SimTime) -> Option<Envelope> {
        self.waiters
            .take_or_wait(&self.q, Some(now), |q| self.claim(q, ticket, now))
    }

    /// [`Self::match_recv_posted`] that looks once and never parks.
    pub fn try_match_recv_posted(&self, ticket: u64, now: SimTime) -> Option<Envelope> {
        self.claim(&mut self.q.lock().unwrap(), ticket, now)
    }

    fn claim(&self, q: &mut Queues, ticket: u64, now: SimTime) -> Option<Envelope> {
        let env = q.gated_match(ticket)?;
        q.log_removed(&env, now);
        // Our posted entry left the queue: later receives it was
        // shadowing may now be eligible.
        self.waiters.wake_all();
        Some(env)
    }

    /// Number of queued (unmatched) messages — diagnostics only.
    pub fn backlog(&self) -> usize {
        self.q.lock().unwrap().msgs.len()
    }

    /// Drain the backlog event log (runtime teardown), with an arrival
    /// for each envelope still queued; `None` if no envelope was posted
    /// while obs was enabled. Each entry is `(virtual time, Δmessages,
    /// Δeager payload bytes)`; sorting by time and sweeping yields the
    /// peak queue depth.
    pub fn take_backlog_events(&self) -> Option<Vec<(SimTime, i64, i64)>> {
        let mut q = self.q.lock().unwrap();
        if !q.backlog_seen {
            return None;
        }
        let mut log = std::mem::take(&mut q.backlog_log);
        log.extend(q.msgs.iter().map(|env| (env.arrival, 1, eager_bytes(env))));
        Some(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: Tag) -> Envelope {
        Envelope {
            src,
            tag,
            arrival: SimTime::ZERO,
            head: Head::Eager {
                data: vec![],
                blocks: 0,
                crc: None,
            },
        }
    }

    /// Receive an envelope that is already queued.
    fn recv(mb: &Mailbox, src: Source, tag: TagSel) -> Envelope {
        let ticket = mb.post_recv(src, tag);
        mb.try_match_recv_posted(ticket, SimTime::ZERO)
            .expect("a matching envelope is queued")
    }

    /// Wait like the protocol code does: a stall is a reason to look again.
    fn recv_blocking(mb: &Mailbox, src: Source, tag: TagSel) -> Envelope {
        let ticket = mb.post_recv(src, tag);
        loop {
            if let Some(e) = mb.match_recv_posted(ticket, SimTime::ZERO) {
                return e;
            }
        }
    }

    #[test]
    fn matching_by_source_and_tag() {
        let mb = Mailbox::new();
        mb.post(env(1, 10));
        mb.post(env(2, 10));
        mb.post(env(1, 20));
        let e = recv(&mb, Source::Rank(2), TagSel::Value(10));
        assert_eq!(e.src, 2);
        let e = recv(&mb, Source::Rank(1), TagSel::Value(20));
        assert_eq!(e.tag, 20);
        let e = recv(&mb, Source::Any, TagSel::Any);
        assert_eq!((e.src, e.tag), (1, 10));
    }

    #[test]
    fn the_backlog_log_holds_only_messages_that_waited() {
        let mb = Mailbox::new();
        let _bound = obs::Recorder::new().bind(0);
        let sized = |arrival, len| Envelope {
            arrival: SimTime::from_ps(arrival),
            head: Head::Eager {
                data: vec![0; len],
                blocks: 1,
                crc: None,
            },
            ..env(1, 0)
        };
        let take_at = |now| {
            let ticket = mb.post_recv(Source::Any, TagSel::Any);
            mb.try_match_recv_posted(ticket, SimTime::from_ps(now))
        };
        mb.post(sized(10, 8));
        assert!(take_at(5).is_some(), "matched as it lands: not held");
        mb.post(sized(20, 16));
        assert!(take_at(50).is_some(), "held from 20 to 50");
        mb.post(sized(30, 4)); // never matched
        let at = SimTime::from_ps;
        assert_eq!(
            mb.take_backlog_events(),
            Some(vec![(at(20), 1, 16), (at(50), -1, -16), (at(30), 1, 4)])
        );
    }

    #[test]
    fn an_unrecorded_mailbox_reports_no_backlog() {
        let mb = Mailbox::new();
        mb.post(env(1, 0));
        assert_eq!(mb.take_backlog_events(), None);
    }

    #[test]
    fn non_overtaking_order_per_pair() {
        let mb = Mailbox::new();
        for i in 0..5 {
            let mut e = env(3, 7);
            e.arrival = SimTime::from_ps(i);
            mb.post(e);
        }
        for i in 0..5 {
            let e = recv(&mb, Source::Rank(3), TagSel::Value(7));
            assert_eq!(e.arrival, SimTime::from_ps(i), "overtook at {i}");
        }
    }

    #[test]
    fn blocking_recv_wakes_on_post() {
        let mb = Mailbox::new();
        let (tags, _) = sched::run_roots(2, |me, root| {
            root.run(|| {
                if me == 0 {
                    // Dispatched first: parks on the empty mailbox.
                    return recv_blocking(&mb, Source::Any, TagSel::Value(42)).tag;
                }
                mb.post(env(0, 41)); // wrong tag: wakes the receiver in vain
                sched::park(SimTime::ZERO);
                mb.post(env(0, 42));
                0
            })
        });
        assert_eq!(tags[0], 42);
        assert_eq!(mb.backlog(), 1); // the tag-41 message still queued
    }

    #[test]
    fn ctrl_packets_by_handle() {
        let mb = Mailbox::new();
        mb.post_ctrl(
            9,
            Ctrl::Cts {
                arrival: SimTime::ZERO,
            },
        );
        mb.post_ctrl(
            9,
            Ctrl::Chunk {
                slot: 0,
                len: 10,
                blocks: 1,
                arrival: SimTime::ZERO,
                last: true,
                crc: None,
            },
        );
        assert!(matches!(mb.try_ctrl(9), Some(Ctrl::Cts { .. })));
        assert!(matches!(
            mb.try_ctrl(9),
            Some(Ctrl::Chunk { last: true, .. })
        ));
        assert!(mb.try_ctrl(9).is_none());
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new();
        assert!(mb.probe(Source::Any, TagSel::Any).is_none());
        mb.post(env(4, 2));
        assert_eq!(
            mb.probe(Source::Any, TagSel::Any),
            Some((4, 2, SimTime::ZERO))
        );
        assert_eq!(mb.backlog(), 1);
    }

    #[test]
    fn posted_disjoint_patterns_match_concurrently() {
        let mb = Mailbox::new();
        let a = mb.post_recv(Source::Rank(1), TagSel::Value(5));
        let b = mb.post_recv(Source::Rank(2), TagSel::Value(5));
        // b is later-posted but src-disjoint from a: an envelope from
        // rank 2 goes to b even while a is still unmatched.
        mb.post(env(2, 5));
        let e = mb.try_match_recv_posted(b, SimTime::ZERO);
        assert_eq!(e.expect("disjoint recv must match").src, 2);
        mb.post(env(1, 5));
        assert!(mb.try_match_recv_posted(a, SimTime::ZERO).is_some());
    }

    #[test]
    fn posted_wildcard_shadows_later_overlapping_recv() {
        let mb = Mailbox::new();
        let a = mb.post_recv(Source::Any, TagSel::Value(5));
        let b = mb.post_recv(Source::Rank(2), TagSel::Value(5));
        mb.post(env(2, 5));
        // The earlier wildcard claims the envelope; b must not steal it.
        assert!(mb.try_match_recv_posted(b, SimTime::ZERO).is_none());
        let e = mb.try_match_recv_posted(a, SimTime::ZERO).unwrap();
        assert_eq!(e.src, 2);
        // With the wildcard gone, a fresh envelope satisfies b.
        mb.post(env(2, 5));
        assert!(mb.try_match_recv_posted(b, SimTime::ZERO).is_some());
    }

    #[test]
    fn abandoned_recv_unblocks_later_ones() {
        let mb = Mailbox::new();
        let a = mb.post_recv(Source::Any, TagSel::Any);
        let b = mb.post_recv(Source::Rank(3), TagSel::Value(1));
        mb.post(env(3, 1));
        assert!(mb.try_match_recv_posted(b, SimTime::ZERO).is_none());
        mb.abandon_recv(a);
        assert!(mb.try_match_recv_posted(b, SimTime::ZERO).is_some());
    }

    #[test]
    fn cross_task_ctrl() {
        let mb = Mailbox::new();
        let (got, _) = sched::run_roots(2, |me, root| {
            root.run(|| {
                if me == 1 {
                    for i in 0..100u64 {
                        let (arrival, data) = (SimTime::from_ps(i), vec![]);
                        mb.post_ctrl(i % 4, Ctrl::Signal { arrival, data });
                        // Hand the token over so the consumer really waits.
                        sched::park(arrival);
                    }
                    return 0;
                }
                let mut got = 0;
                for h in 0..4u64 {
                    for k in 0..25 {
                        let c = loop {
                            if let Some(c) = mb.wait_ctrl(h) {
                                break c;
                            }
                        };
                        // Per handle, packets come out in posted order.
                        let want = SimTime::from_ps(4 * k + h);
                        assert!(matches!(c, Ctrl::Signal { arrival, .. } if arrival == want));
                        got += 1;
                    }
                }
                got
            })
        });
        assert_eq!(got[0], 100);
    }

    #[test]
    fn a_stalled_wait_returns_none_and_leaves_the_queues_alone() {
        let mb = Mailbox::new();
        mb.post(env(1, 10));
        mb.post_ctrl(
            7,
            Ctrl::Cts {
                arrival: SimTime::ZERO,
            },
        );
        let ticket = mb.post_recv(Source::Rank(2), TagSel::Any);
        let (_, stats) = sched::run_roots(1, |_, root| {
            root.run(|| {
                // Nobody posts: each wait ends in a stall round.
                let now = SimTime::from_ps(5);
                assert!(mb.match_recv_posted(ticket, now).is_none());
                assert!(mb.try_match_recv_posted(ticket, now).is_none());
                assert!(mb.wait_ctrl(8).is_none());
                assert!(mb.try_ctrl(8).is_none());
            })
        });
        assert_eq!(
            stats.stalls, 2,
            "the two waits stall, the two looks never park"
        );
        assert_eq!(mb.backlog(), 1);
        assert!(mb.probe(Source::Rank(1), TagSel::Value(10)).is_some());
        assert!(matches!(mb.try_ctrl(7), Some(Ctrl::Cts { .. })));
        // The posted receive is still registered: it claims its envelope.
        mb.post(env(2, 3));
        let claimed = mb.try_match_recv_posted(ticket, SimTime::ZERO);
        assert_eq!(claimed.unwrap().src, 2);
    }
}

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
//! Matching has one rule, MPI's. A message goes to the earliest-posted
//! receive it matches, or is queued if none does; a receive claims the
//! first queued message it matches when it is posted, or is registered
//! with a `Delivery`. A registered receive is completed by the send that
//! matches it, so no queued message ever matches a posted receive.

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
    /// MPI's posted-receive queue, in posted (program) order: the
    /// receives no queued envelope matches.
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
    delivery: Delivery,
}

/// How the send that matches a posted receive completes it: the envelope
/// skips the message queue and is handed to `run`, on the sending task —
/// the sender stores straight into memory the receiver set aside, as
/// SCI's transparent remote writes let it (paper §2).
pub(crate) struct Delivery {
    /// Virtual time the receive was posted at (after any layout
    /// resolve): the message's stay in the queue, if any, is logged up to
    /// it.
    pub at: SimTime,
    /// Complete the receive. Runs outside the queue lock and never
    /// parks.
    pub run: Consume,
}

/// The body of a [`Delivery`].
pub(crate) type Consume = Box<dyn FnOnce(&Arc<WorldState>, Handed) + Send>;

/// What a posted receive is handed: the envelope it matched, or, when a
/// shrink cancels it, the revocation front `(arrival at the receiver,
/// revoker)` (see [`WorldState::revoke_arrival`]).
pub(crate) type Handed = Result<Envelope, (SimTime, usize)>;

/// What [`Mailbox::post_recv`] did with a receive.
pub(crate) enum Posted {
    /// It claimed this queued envelope.
    Claimed(Envelope),
    /// It is registered under this ticket, for a send to deliver into.
    Registered(u64),
}

/// Where a delivery leaves what it hands a posted receive, and the queue
/// the receiver parks on until it does.
pub(crate) type Slot<T> = (Mutex<Option<T>>, sched::WaitQueue);

/// Leave `value` in `slot` and wake the receiver.
pub(crate) fn fill<T>(slot: &Slot<T>, value: T) {
    *slot.0.lock().unwrap() = Some(value);
    slot.1.wake_all();
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
    /// Whoever waits for a protocol packet (`docs/SCHEDULER.md`).
    waiters: sched::WaitQueue,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Deposit a message envelope (sender side): MPI's arrival-time scan
    /// of the posted queue. The earliest-posted receive the envelope
    /// matches leaves the queue, and its [`Delivery`] comes back with the
    /// envelope for the sender to run; with none, the envelope is queued.
    pub(crate) fn post(&self, env: Envelope) -> Option<(Delivery, Envelope)> {
        let mut q = self.q.lock().unwrap();
        q.backlog_seen |= obs::is_enabled();
        let Some(i) = q
            .posted
            .iter()
            .position(|p| env_matches(&env, p.src, p.tag))
        else {
            q.msgs.push_back(env);
            return None;
        };
        let delivery = q.posted.remove(i).delivery;
        q.log_removed(&env, delivery.at);
        Some((delivery, env))
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

    /// Post a receive. The posting rank calls this itself, so tickets
    /// follow program order. The receive claims the first queued envelope
    /// it matches, which leaves the queue at `at`; with none, it is
    /// registered with the delivery `consume` builds, and
    /// [`Self::post`] hands it the envelope it matches.
    pub(crate) fn post_recv(
        &self,
        src: Source,
        tag: TagSel,
        at: SimTime,
        consume: impl FnOnce() -> Consume,
    ) -> Posted {
        let mut q = self.q.lock().unwrap();
        if let Some(i) = q.msgs.iter().position(|e| env_matches(e, src, tag)) {
            let env = q.msgs.remove(i).expect("index valid under lock");
            q.log_removed(&env, at);
            return Posted::Claimed(env);
        }
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        let delivery = Delivery { at, run: consume() };
        q.posted.push(PostedRecv {
            ticket,
            src,
            tag,
            delivery,
        });
        Posted::Registered(ticket)
    }

    /// Withdraw a posted receive and drop its delivery (a failed wait:
    /// the monitored peer died, or a revocation arrived). Idempotent.
    pub(crate) fn abandon_recv(&self, ticket: u64) {
        self.q.lock().unwrap().posted.retain(|p| p.ticket != ticket);
    }

    /// Withdraw every posted receive, for the caller to run each
    /// delivery (a shrink cancelling them).
    pub(crate) fn take_posted(&self) -> Vec<Delivery> {
        let posted = std::mem::take(&mut self.q.lock().unwrap().posted);
        posted.into_iter().map(|p| p.delivery).collect()
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
                crc: None,
            },
        }
    }

    /// Post a receive, registered with a delivery these tests never run:
    /// a receive is told apart by its post time `at`.
    fn post_recv(mb: &Mailbox, src: Source, tag: TagSel, at: u64) -> Posted {
        mb.post_recv(src, tag, SimTime::from_ps(at), || Box::new(|_, _| ()))
    }

    /// Receive an envelope that is already queued.
    fn recv(mb: &Mailbox, src: Source, tag: TagSel) -> Envelope {
        match post_recv(mb, src, tag, 0) {
            Posted::Claimed(env) => env,
            Posted::Registered(_) => panic!("a matching envelope is queued"),
        }
    }

    /// Register a receive that finds nothing queued.
    fn register(mb: &Mailbox, src: Source, tag: TagSel, at: u64) -> u64 {
        match post_recv(mb, src, tag, at) {
            Posted::Registered(ticket) => ticket,
            Posted::Claimed(env) => panic!("claimed {env:?}"),
        }
    }

    /// Post an envelope: the post time of the receive it was handed to,
    /// `None` if it was queued.
    fn handed_to(mb: &Mailbox, env: Envelope) -> Option<u64> {
        mb.post(env).map(|(d, _)| d.at.as_ps())
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
        // Nothing queued matches: the receive is registered instead.
        register(&mb, Source::Any, TagSel::Any, 1);
    }

    #[test]
    fn the_backlog_log_holds_only_messages_that_waited() {
        let mb = Mailbox::new();
        let _bound = obs::Recorder::new().bind(0);
        let sized = |arrival, len| Envelope {
            arrival: SimTime::from_ps(arrival),
            head: Head::Eager {
                data: vec![0; len],
                crc: None,
            },
            ..env(1, 0)
        };
        mb.post(sized(10, 8));
        let taken = post_recv(&mb, Source::Any, TagSel::Any, 5);
        assert!(matches!(taken, Posted::Claimed(_)), "matched as it lands");
        mb.post(sized(20, 16));
        let taken = post_recv(&mb, Source::Any, TagSel::Any, 50);
        assert!(matches!(taken, Posted::Claimed(_)), "held from 20 to 50");
        // Handed to a receive posted at 60: held from 40 to 60.
        register(&mb, Source::Rank(1), TagSel::Value(0), 60);
        assert_eq!(handed_to(&mb, sized(40, 2)), Some(60));
        mb.post(sized(30, 4)); // never matched
        let at = SimTime::from_ps;
        assert_eq!(
            mb.take_backlog_events(),
            Some(vec![
                (at(20), 1, 16),
                (at(50), -1, -16),
                (at(40), 1, 2),
                (at(60), -1, -2),
                (at(30), 1, 4),
            ])
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
        register(&mb, Source::Rank(1), TagSel::Value(5), 1);
        register(&mb, Source::Rank(2), TagSel::Value(5), 2);
        // The later-posted receive is src-disjoint from the earlier one:
        // an envelope from rank 2 goes to it while the first still waits.
        assert_eq!(handed_to(&mb, env(2, 5)), Some(2));
        assert_eq!(handed_to(&mb, env(1, 5)), Some(1));
    }

    #[test]
    fn the_earliest_posted_match_wins_the_envelope() {
        let mb = Mailbox::new();
        register(&mb, Source::Any, TagSel::Value(5), 1);
        register(&mb, Source::Rank(2), TagSel::Value(5), 2);
        assert_eq!(handed_to(&mb, env(2, 4)), None, "no match: queued");
        // The earlier wildcard gets the envelope, the later receive the
        // next one.
        assert_eq!(handed_to(&mb, env(2, 5)), Some(1));
        assert_eq!(handed_to(&mb, env(2, 5)), Some(2));
        assert_eq!(handed_to(&mb, env(2, 5)), None, "both receives are done");
        assert_eq!(mb.backlog(), 2);
    }

    #[test]
    fn an_abandoned_recv_passes_envelopes_to_later_ones() {
        let mb = Mailbox::new();
        let a = register(&mb, Source::Any, TagSel::Any, 1);
        register(&mb, Source::Rank(3), TagSel::Value(1), 2);
        mb.abandon_recv(a);
        mb.abandon_recv(a); // idempotent
        assert_eq!(handed_to(&mb, env(3, 1)), Some(2));
        assert_eq!(handed_to(&mb, env(3, 1)), None, "both receives are gone");
    }

    #[test]
    fn take_posted_withdraws_every_receive_in_posted_order() {
        let mb = Mailbox::new();
        register(&mb, Source::Any, TagSel::Any, 1);
        register(&mb, Source::Rank(2), TagSel::Value(5), 2);
        let at: Vec<u64> = mb.take_posted().iter().map(|d| d.at.as_ps()).collect();
        assert_eq!(at, [1, 2]);
        assert_eq!(handed_to(&mb, env(2, 5)), None, "nothing left posted");
    }

    #[test]
    fn cross_task_ctrl() {
        let mb = Mailbox::new();
        let (got, _) = sched::run_roots(2, |me| {
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
        let (_, stats) = sched::run_roots(1, |_| {
            // Nobody posts: the wait ends in a stall round.
            register(&mb, Source::Rank(2), TagSel::Any, 5);
            assert!(mb.wait_ctrl(8).is_none());
            assert!(mb.try_ctrl(8).is_none());
        });
        assert_eq!(
            stats.stalls, 1,
            "the wait stalls; posting a receive and the look never park"
        );
        assert_eq!(mb.backlog(), 1);
        assert!(mb.probe(Source::Rank(1), TagSel::Value(10)).is_some());
        assert!(matches!(mb.try_ctrl(7), Some(Ctrl::Cts { .. })));
        // The posted receive is still registered: it is handed its envelope.
        assert_eq!(handed_to(&mb, env(2, 3)), Some(5));
    }
}

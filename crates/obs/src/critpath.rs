//! Cross-rank critical-path extraction from the recorded wait graph.
//!
//! The classified waits ([`crate::attrib::WaitEvent`]) are the edges of
//! a dependency graph: a rank that waited resumed exactly when some
//! remote event happened, so walking backwards from the rank that
//! finished last — alternating local busy segments and the waits that
//! interrupted them, hopping to the blamed peer at each wait — yields
//! the chain of operations that bounded the run. Each wait hop carries
//! its duration as *slack*: the time the makespan would shrink if that
//! one dependency were satisfied instantly (to first order).
//!
//! Extraction is deterministic: each rank's waits are in
//! `(end, start, kind, peer)` order, ranks in rank order, and every
//! selection is a maximum under that total order, so same-seed runs
//! produce the same path byte for byte. The walk reads each rank's
//! [`WaitLog`] in place, backwards from a per-rank cursor that only ever
//! moves back, and keeps beside the logs one bit per wait (used or not)
//! and an index of the barrier waits. Setting up costs the zeroed bits
//! and one pass over each log that holds barrier waits, then a sort of
//! those alone; the walk decodes each record its cursors pass at most
//! twice, about two records per hop on a ping-pong. [`extract`] first
//! sorts arbitrary waits into logs, O(waits · log waits)
//! (`tests/critpath_oracle.rs` keeps the scan-per-hop walk this replaced
//! and holds the two equal).

use crate::attrib::{LogCursor, WaitEvent, WaitKind, WaitLog};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// One step of the critical path (oldest first in the report).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hop {
    /// Rank on whose timeline this segment lies.
    pub rank: u32,
    /// Segment start, virtual ps.
    pub start_ps: u64,
    /// Segment end, virtual ps.
    pub end_ps: u64,
    /// `None` for a local busy segment; `Some(kind)` for a wait.
    pub wait: Option<WaitKind>,
    /// The blamed peer, when the wait names one.
    pub peer: Option<u32>,
}

impl Hop {
    /// First-order slack: the wait's duration, zero for busy segments.
    pub fn slack_ps(&self) -> u64 {
        if self.wait.is_some() {
            self.end_ps.saturating_sub(self.start_ps)
        } else {
            0
        }
    }
}

/// The extracted path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// The run's makespan (latest rank finish), ps.
    pub makespan_ps: u64,
    /// The rank that finished last (walk origin).
    pub bound_rank: u32,
    /// Path segments, oldest first.
    pub hops: Vec<Hop>,
    /// Sum of wait-hop durations along the path, ps.
    pub total_slack_ps: u64,
    /// The walk stopped at the hop cap with a dependency still to follow:
    /// `hops` holds only the newest part of the path and `total_slack_ps`
    /// covers only that part (`hops[0]` starts after the epoch).
    pub truncated: bool,
}

/// The walk stops once it has collected this many hops, which a run whose
/// path changes rank at every message (a ping-pong) reaches after about
/// 2 000 messages. It starts at the finish, so the hops nearest the finish
/// are the ones kept; a step adds up to two hops, so the vector can hold
/// `MAX_HOPS + 1`.
const MAX_HOPS: usize = 4096;

/// Extract the critical path from per-rank makespans and the classified
/// waits, in any order, duplicates and equal ends included. Returns an
/// empty path when no makespans were recorded.
pub fn extract<'a>(
    makespans: &[(u32, u64)],
    waits: impl IntoIterator<Item = &'a WaitEvent>,
) -> CriticalPath {
    let mut sorted: Vec<&WaitEvent> = waits.into_iter().collect();
    sorted.sort_unstable_by_key(|w| (w.rank, w.end_ps, w.start_ps, w.kind, w.peer));
    let mut logs: BTreeMap<u32, WaitLog> = BTreeMap::new();
    for w in sorted {
        let log = logs.entry(w.rank).or_insert_with(|| WaitLog::new(w.rank));
        log.push(w.kind, w.start_ps, w.end_ps, w.peer);
    }
    walk(makespans, &logs)
}

/// A set of bits, one per wait.
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)])
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
}

/// Where the walk stands in one rank's log. A wait's position in the
/// whole table (what `used` is indexed by) is `base` plus its index in
/// the log.
struct Cursor<'a> {
    rank: u32,
    log: Cow<'a, WaitLog>,
    base: usize,
    /// At or past it every wait is used or ends after `t` — for good,
    /// because `t` never increases along the walk: every arm below sets
    /// it to the start or end of a wait that ended at or before it (a
    /// recorded wait starts before it ends).
    at: LogCursor,
}

/// The critical path over `logs`, each rank's waits (keyed by rank), read
/// in place: [`extract`] without the sort. A log not in the walk's order
/// (see [`WaitLog::is_ordered`]) is walked as a sorted copy; the
/// recorder's are always in order.
pub fn walk(makespans: &[(u32, u64)], logs: &BTreeMap<u32, WaitLog>) -> CriticalPath {
    let Some(&(origin, makespan)) = makespans
        .iter()
        .max_by_key(|&&(r, m)| (m, std::cmp::Reverse(r)))
    else {
        return CriticalPath::default();
    };
    let mut rank = origin;

    let mut total = 0;
    let mut cursors: Vec<Cursor> = logs
        .iter()
        .filter(|(_, log)| !log.is_empty())
        .map(|(&rank, log)| {
            let log = match log.is_ordered() {
                true => Cow::Borrowed(log),
                false => Cow::Owned(log.sorted()),
            };
            let base = total;
            total += log.len();
            let at = log.end();
            Cursor {
                rank,
                log,
                base,
                at,
            }
        })
        .collect();
    let mut used = Bits::new(total);
    // Barrier waits as `(end, start, rank, position)`, in that order: the
    // waits one barrier released are adjacent, the latest arriver last.
    let mut barriers: Vec<(u64, u64, u32, usize)> =
        Vec::with_capacity(cursors.iter().map(|c| c.log.barriers()).sum());
    for c in cursors.iter().filter(|c| c.log.barriers() > 0) {
        let waits = c.log.iter_back();
        let found = waits.filter(|(_, w)| w.kind == WaitKind::Barrier);
        barriers.extend(found.map(|(i, w)| (w.end_ps, w.start_ps, c.rank, c.base + i)));
    }
    barriers.sort_unstable();

    let mut t = makespan;
    let mut rev: Vec<Hop> = Vec::new();

    let truncated = loop {
        if rev.len() >= MAX_HOPS {
            // `t > 0` here: at least the busy time back to the epoch is
            // dropped.
            break true;
        }
        // Latest unused wait on `rank` ending at or before `t`; the order
        // makes the last one the deterministic maximum.
        let cursor = cursors.binary_search_by_key(&rank, |c| c.rank).ok();
        let pick = cursor.and_then(|k| {
            let c = &mut cursors[k];
            while let Some((w, before)) = c.log.before(c.at) {
                let i = c.base + before.idx;
                if w.end_ps <= t && !used.get(i) {
                    return Some((i, w));
                }
                c.at = before;
            }
            None
        });

        let Some((i, w)) = pick else {
            // No earlier dependency on this timeline: everything back to
            // the epoch is local work.
            if t > 0 {
                rev.push(Hop {
                    rank,
                    start_ps: 0,
                    end_ps: t,
                    wait: None,
                    peer: None,
                });
            }
            break false;
        };
        used.set(i);

        if w.end_ps < t {
            rev.push(Hop {
                rank,
                start_ps: w.end_ps,
                end_ps: t,
                wait: None,
                peer: None,
            });
        }
        rev.push(Hop {
            rank,
            start_ps: w.start_ps,
            end_ps: w.end_ps,
            wait: Some(w.kind),
            peer: w.peer,
        });

        match (w.peer, w.kind) {
            (Some(p), _) => {
                // The waiter resumed when the peer's event (send, CTS,
                // ack) reached it: continue on the peer's timeline at
                // that moment.
                rank = p;
                t = w.end_ps;
            }
            (None, WaitKind::Barrier) => {
                // The barrier released at the last arrival; the recorded
                // wait with the latest start is the closest proxy for
                // the last arriver (which itself waited zero time and
                // left no event).
                let released = barriers.partition_point(|&(end, ..)| end <= w.end_ps);
                let co = barriers[..released]
                    .iter()
                    .rev()
                    .take_while(|&&(end, ..)| end == w.end_ps)
                    .find(|&&(.., j)| !used.get(j));
                if let Some(&(_, start, r, j)) = co {
                    used.set(j);
                    rank = r;
                    t = start;
                } else {
                    t = w.start_ps;
                }
            }
            (None, _) => {
                // Cause unattributable to a specific peer: keep walking
                // this rank's own timeline from before the wait.
                t = w.start_ps;
            }
        }
        if t == 0 {
            break false;
        }
    };

    rev.reverse();
    let total_slack_ps = rev.iter().map(Hop::slack_ps).sum();
    CriticalPath {
        makespan_ps: makespan,
        bound_rank: origin,
        hops: rev,
        total_slack_ps,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(rank: u32, kind: WaitKind, start: u64, end: u64, peer: Option<u32>) -> WaitEvent {
        WaitEvent {
            rank,
            kind,
            start_ps: start,
            end_ps: end,
            peer,
        }
    }

    #[test]
    fn empty_inputs_give_empty_path() {
        let p = extract(&[], &[]);
        assert_eq!(p, CriticalPath::default());
    }

    #[test]
    fn no_waits_is_one_local_segment_on_slowest_rank() {
        let p = extract(&[(0, 500), (1, 900), (2, 700)], &[]);
        assert_eq!(p.makespan_ps, 900);
        assert_eq!(p.bound_rank, 1);
        assert_eq!(p.hops.len(), 1);
        assert_eq!(
            p.hops[0],
            Hop {
                rank: 1,
                start_ps: 0,
                end_ps: 900,
                wait: None,
                peer: None
            }
        );
        assert_eq!(p.total_slack_ps, 0);
    }

    #[test]
    fn late_sender_chain_hops_to_the_peer() {
        // Rank 1 computes 0..800; its send reaches rank 0 at 1000.
        // Rank 0 posted its recv at 100 and waited 100..1000, then
        // worked 1000..1500.
        let makespans = [(0, 1500), (1, 800)];
        let waits = [w(0, WaitKind::LateSender, 100, 1000, Some(1))];
        let p = extract(&makespans, &waits);
        assert_eq!(p.bound_rank, 0);
        // tail local [1000,1500) on 0, the wait, then local on rank 1.
        assert_eq!(p.hops.len(), 3);
        assert_eq!(p.hops[0].rank, 1);
        assert_eq!(p.hops[0].wait, None);
        assert_eq!(p.hops[0].end_ps, 1000);
        assert_eq!(p.hops[1].wait, Some(WaitKind::LateSender));
        assert_eq!(p.hops[1].peer, Some(1));
        assert_eq!(p.hops[1].slack_ps(), 900);
        assert_eq!(
            p.hops[2],
            Hop {
                rank: 0,
                start_ps: 1000,
                end_ps: 1500,
                wait: None,
                peer: None
            }
        );
        assert_eq!(p.total_slack_ps, 900);
    }

    #[test]
    fn barrier_hops_to_last_recorded_arriver() {
        // Three ranks meet a barrier releasing at 1000; rank 2 arrived
        // last among the *waiters* (start 900). Rank 0 finishes last.
        let makespans = [(0, 1200), (1, 1000), (2, 1000)];
        let waits = [
            w(0, WaitKind::Barrier, 300, 1000, None),
            w(1, WaitKind::Barrier, 500, 1000, None),
            w(2, WaitKind::Barrier, 900, 1000, None),
        ];
        let p = extract(&makespans, &waits);
        // Walk: local [1000,1200) on 0 ← barrier wait on 0 ← hop to
        // rank 2 (latest start) at t=900 ← local [0,900) on 2.
        let ranks: Vec<u32> = p.hops.iter().map(|h| h.rank).collect();
        assert_eq!(ranks, vec![2, 0, 0]);
        assert_eq!(p.hops[0].end_ps, 900);
        assert_eq!(p.hops[1].wait, Some(WaitKind::Barrier));
        assert_eq!(p.total_slack_ps, 700);
    }

    #[test]
    fn two_hop_relay_is_followed_transitively() {
        // 2 → 1 → 0 relay: rank 2 works til 400, rank 1 waits on 2
        // (100..500) then works til 700, rank 0 waits on 1 (50..900)
        // and finishes at 1000.
        let makespans = [(0, 1000), (1, 700), (2, 400)];
        let waits = [
            w(0, WaitKind::LateSender, 50, 900, Some(1)),
            w(1, WaitKind::LateSender, 100, 500, Some(2)),
        ];
        let p = extract(&makespans, &waits);
        let ranks: Vec<u32> = p.hops.iter().map(|h| h.rank).collect();
        assert_eq!(ranks, vec![2, 1, 1, 0, 0]);
        assert_eq!(p.total_slack_ps, (900 - 50) + (500 - 100));
        // Hops are time-ordered oldest-first along the walk.
        assert!(p.hops.first().unwrap().start_ps == 0);
        assert_eq!(p.hops.last().unwrap().end_ps, 1000);
    }

    #[test]
    fn mutual_waits_terminate() {
        // Degenerate ping-pong: both ranks blame each other at the same
        // instant. Each wait may be followed at most once, so the walk
        // terminates.
        let makespans = [(0, 100), (1, 100)];
        let waits = [
            w(0, WaitKind::LateSender, 50, 100, Some(1)),
            w(1, WaitKind::LateSender, 50, 100, Some(0)),
        ];
        let p = extract(&makespans, &waits);
        assert!(p.hops.len() <= 6);
        assert_eq!(p.makespan_ps, 100);
    }

    /// A 2-rank ping-pong of `n` messages: each rank waits 60 ps for the
    /// other's message, which took the other 40 ps of work to send. The
    /// run ends with the last message's arrival.
    fn ping_pong(n: u64) -> CriticalPath {
        let waits: Vec<WaitEvent> = (0..n)
            .map(|k| {
                let rank = (k % 2) as u32;
                let (start, end) = (100 * k + 40, 100 * (k + 1));
                w(rank, WaitKind::LateSender, start, end, Some(1 - rank))
            })
            .collect();
        let last = ((n - 1) % 2) as u32;
        extract(&[(last, 100 * n), (1 - last, 100 * n - 60)], &waits)
    }

    #[test]
    fn a_path_cut_at_the_hop_cap_says_so_and_keeps_the_newest_hops() {
        let p = ping_pong(5_000);
        assert!(p.truncated);
        // The last wait, then two hops per message: 4 095 hops are short
        // of the cap and the next step adds two.
        assert_eq!(p.hops.len(), MAX_HOPS + 1);
        assert_eq!(p.hops.last().unwrap().end_ps, p.makespan_ps);
        let kept = MAX_HOPS as u64 / 2 + 1;
        assert_eq!(p.hops[0].start_ps, 100 * (5_000 - kept) + 40);
        assert_eq!(p.total_slack_ps, 60 * kept);
    }

    #[test]
    fn a_path_short_of_the_cap_reaches_the_epoch() {
        let p = ping_pong(100);
        assert!(!p.truncated);
        assert_eq!(p.hops.len(), 200);
        assert_eq!(p.hops[0].start_ps, 0);
        assert_eq!(p.hops.last().unwrap().end_ps, p.makespan_ps);
        assert_eq!(p.total_slack_ps, 60 * 100);
    }

    #[test]
    fn extraction_is_deterministic_under_input_order() {
        let makespans = [(0, 1000), (1, 700), (2, 400)];
        let mut waits = vec![
            w(0, WaitKind::LateSender, 50, 900, Some(1)),
            w(1, WaitKind::LateSender, 100, 500, Some(2)),
            w(2, WaitKind::Lock, 10, 20, None),
        ];
        let a = extract(&makespans, &waits);
        waits.reverse();
        let b = extract(&makespans, &waits);
        assert_eq!(a, b);
    }
}

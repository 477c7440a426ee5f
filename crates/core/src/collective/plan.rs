//! Rank-symmetric communication plans for the collective engine: every
//! peer a collective hands to `send`, `recv`, `sendrecv` or a window verb
//! comes from here.
//!
//! Every schedule here is a pure function of `(rank, size)` — no clocks,
//! no transport — so each member of a collective derives the *same* plan
//! independently and the wire conversation is symmetric by construction.
//! The executors in [`super::naive`], [`super::algos`] and the typed
//! collectives (`dtype.rs`) walk these plans over the actual primitives
//! (sendrecv, nonblocking requests, one-sided windows).

use std::ops::Range;

/// Largest power of two at or below `n` (`n` must be non-zero).
fn pow2_floor(n: usize) -> usize {
    1 << n.ilog2()
}

/// The doubling distances below `n`: 1, 2, 4, ...
fn doublings(n: usize) -> impl DoubleEndedIterator<Item = usize> {
    (0..usize::BITS - n.saturating_sub(1).leading_zeros()).map(|k| 1usize << k)
}

/// A rank's place in the binomial tree over `n` ranks rooted at `root`,
/// where vrank `v` is rank `(v + root) % n`.
#[derive(Clone, Copy)]
pub(crate) struct Tree {
    /// This rank's vrank.
    pub(crate) vrank: usize,
    /// The vranks in this rank's subtree, itself included.
    pub(crate) span: usize,
    root: usize,
    n: usize,
}

/// `rank`'s place in the binomial tree over `n` ranks rooted at `root`.
pub(crate) fn binomial_tree(rank: usize, root: usize, n: usize) -> Tree {
    let vrank = (rank + n - root) % n;
    // A vrank's subtree reaches as far as its lowest set bit.
    let reach = if vrank == 0 {
        n
    } else {
        vrank & vrank.wrapping_neg()
    };
    let span = reach.min(n - vrank);
    Tree {
        vrank,
        span,
        root,
        n,
    }
}

impl Tree {
    fn rank_of(self, vrank: usize) -> usize {
        (vrank + self.root) % self.n
    }

    /// The parent's rank, whose vrank is this one with its lowest set bit
    /// cleared; `None` at the root.
    pub(crate) fn parent(self) -> Option<usize> {
        let v = self.vrank;
        (v != 0).then(|| self.rank_of(v & (v - 1)))
    }

    /// Each child's rank, ascending, with the vranks of its subtree: the
    /// children are this vrank plus each power of two below the span.
    pub(crate) fn children(self) -> impl DoubleEndedIterator<Item = (usize, Range<usize>)> {
        doublings(self.span).map(move |m| {
            let c = self.vrank + m;
            (self.rank_of(c), c..(c + m).min(self.n))
        })
    }
}

/// Every rank but `rank`, ascending: the children of a linear (flat)
/// tree rooted at `rank`.
pub(crate) fn linear_peers(rank: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..n).filter(move |&p| p != rank)
}

/// A rank's role in the non-power-of-two recursive-doubling fold
/// (MPICH's scheme): with `p2 = pow2_floor(n)` and `rem = n - p2`, the
/// first `2 * rem` ranks pair up — evens fold their contribution into
/// the odd partner and sit out the core exchange — leaving exactly `p2`
/// core participants with dense `newrank`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecDblRole {
    /// Even rank below `2 * rem`: sends its data to `partner`
    /// (`rank + 1`), then receives the finished result back from it.
    Fold {
        /// The odd partner absorbing this rank's contribution.
        partner: usize,
    },
    /// Core participant of the power-of-two exchange.
    Core {
        /// Dense rank in `0..p2` used for partner arithmetic.
        newrank: usize,
        /// `Some(rank - 1)` for odd ranks below `2 * rem`: the folded
        /// partner the result is returned to afterwards.
        folded: Option<usize>,
    },
}

/// This rank's role in the recursive-doubling fold over `n` ranks.
pub(crate) fn recdbl_role(rank: usize, n: usize) -> RecDblRole {
    let rem = n - pow2_floor(n);
    if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            RecDblRole::Fold { partner: rank + 1 }
        } else {
            RecDblRole::Core {
                newrank: rank / 2,
                folded: Some(rank - 1),
            }
        }
    } else {
        RecDblRole::Core {
            newrank: rank - rem,
            folded: None,
        }
    }
}

/// Inverse of the core mapping: the real rank holding dense `newrank`.
fn recdbl_rank_of(newrank: usize, n: usize) -> usize {
    let rem = n - pow2_floor(n);
    if newrank < rem {
        2 * newrank + 1
    } else {
        newrank + rem
    }
}

/// The real rank core rank `newrank` exchanges with in each round of the
/// recursive-doubling core, `log2 pow2_floor(n)` rounds: core rank
/// `newrank ^ d` for each doubling distance `d`. With `n` a power of two
/// every rank is core and its own `newrank`.
pub(crate) fn recdbl_partners(newrank: usize, n: usize) -> impl Iterator<Item = usize> {
    doublings(pow2_floor(n)).map(move |d| recdbl_rank_of(newrank ^ d, n))
}

/// Hillis–Steele scan rounds at `rank` over `n` ranks, `ceil(log2 n)` of
/// them: at each doubling distance `d`, the rank `rank + d` it sends its
/// prefix to and the rank `rank - d` it receives one from, where they
/// exist.
pub(crate) fn hillis_steele_rounds(
    rank: usize,
    n: usize,
) -> impl Iterator<Item = (Option<usize>, Option<usize>)> {
    doublings(n).map(move |d| line_shift(rank, n, d))
}

/// The linear chain's neighbours of `rank`: the next rank and the
/// previous one, where they exist (the first Hillis–Steele round).
pub(crate) fn chain(rank: usize, n: usize) -> (Option<usize>, Option<usize>) {
    line_shift(rank, n, 1)
}

fn line_shift(rank: usize, n: usize, d: usize) -> (Option<usize>, Option<usize>) {
    ((rank + d < n).then_some(rank + d), rank.checked_sub(d))
}

/// `(rank + d, rank - d)` modulo `n`, for `d <= n`.
fn ring_shift(rank: usize, n: usize, d: usize) -> (usize, usize) {
    ((rank + d) % n, (rank + n - d) % n)
}

/// The ring neighbours of `rank`: its successor and its predecessor.
pub(crate) fn ring_neighbours(rank: usize, n: usize) -> (usize, usize) {
    ring_shift(rank, n, 1)
}

/// The `n - 1` steps of a ring pass at `rank` (which sends to its
/// successor and receives from its predecessor every step): step `t`
/// sends the block of rank `rank - t` — its own, then each block it
/// received the step before — and receives the block of `rank - t - 1`.
pub(crate) fn ring_steps(rank: usize, n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n.saturating_sub(1)).map(move |t| ((rank + n - t) % n, (rank + n - t - 1) % n))
}

/// The `n - 1` steps of the pairwise exchange at `rank`: step `s` sends to
/// `rank + s` and receives from `rank - s` (mod `n`), so every step pairs
/// each rank with a distinct peer and the steps meet every peer once.
pub(crate) fn pairwise_steps(rank: usize, n: usize) -> impl Iterator<Item = (usize, usize)> {
    (1..n).map(move |s| ring_shift(rank, n, s))
}

/// Bruck rounds at `rank` over `n` ranks, `ceil(log2 n)` of them: each
/// doubling distance `d` below `n`, with the ranks `rank + d` and
/// `rank - d` (mod `n`).
pub(crate) fn bruck_rounds(rank: usize, n: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    doublings(n).map(move |d| {
        let (up, down) = ring_shift(rank, n, d);
        (d, up, down)
    })
}

/// Element range `[lo, hi)` of ring-allreduce segment `s` over `len`
/// elements split `n` ways (the standard balanced split; segments may be
/// empty when `len < n`).
pub(crate) fn ring_segment(s: usize, len: usize, n: usize) -> (usize, usize) {
    (s * len / n, (s + 1) * len / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rank count the plan properties are checked at.
    const SIZES: std::ops::RangeInclusive<usize> = 1..=64;

    fn ceil_log2(n: usize) -> usize {
        n.next_power_of_two().trailing_zeros() as usize
    }

    /// One `(to, from)` pair per round and rank.
    type Rounds = Vec<(Option<usize>, Option<usize>)>;

    /// Every rank has the same number of rounds, and each round's send
    /// meets the receive its peer posts in that round (and the other way
    /// round). Returns the round count.
    fn matched(what: &str, n: usize, rounds: impl Fn(usize) -> Rounds) -> usize {
        let all: Vec<Rounds> = (0..n).map(&rounds).collect();
        let count = all[0].len();
        for (rank, mine) in all.iter().enumerate() {
            assert_eq!(mine.len(), count, "{what} n={n} rank {rank}: round count");
            for (k, &(to, from)) in mine.iter().enumerate() {
                if let Some(p) = to {
                    assert_eq!(
                        all[p][k].1,
                        Some(rank),
                        "{what} n={n} round {k}: {rank} -> {p}"
                    );
                }
                if let Some(q) = from {
                    assert_eq!(
                        all[q][k].0,
                        Some(rank),
                        "{what} n={n} round {k}: {q} -> {rank}"
                    );
                }
            }
        }
        count
    }

    /// The ranks a rank sends to, each once, are every other rank.
    fn meets_every_peer_once(rank: usize, n: usize, peers: impl Iterator<Item = usize>) {
        let mut peers: Vec<usize> = peers.collect();
        peers.sort_unstable();
        assert_eq!(
            peers,
            linear_peers(rank, n).collect::<Vec<_>>(),
            "n={n} rank {rank}"
        );
    }

    #[test]
    fn binomial_tree_reaches_every_rank_once_within_log_depth() {
        for n in SIZES {
            for root in [0, n / 2, n - 1] {
                let trees: Vec<Tree> = (0..n).map(|r| binomial_tree(r, root, n)).collect();
                let mut reached = vec![0; n];
                for (rank, tree) in trees.iter().enumerate() {
                    assert_eq!(tree.parent().is_none(), rank == root, "n={n} root {root}");
                    let mut span = 1;
                    for (child, vranks) in tree.children() {
                        let sub = &trees[child];
                        assert_eq!(sub.parent(), Some(rank), "n={n} child {child}");
                        assert_eq!(vranks, sub.vrank..sub.vrank + sub.span);
                        reached[child] += 1;
                        span += sub.span;
                    }
                    assert_eq!(tree.span, span, "n={n} rank {rank}: spans tile");
                    let (mut depth, mut at) = (0, rank);
                    while let Some(p) = trees[at].parent() {
                        (depth, at) = (depth + 1, p);
                    }
                    assert!(depth <= ceil_log2(n), "n={n} rank {rank}: depth {depth}");
                }
                reached[root] += 1;
                assert!(reached.iter().all(|&k| k == 1), "n={n}: {reached:?}");
            }
        }
    }

    #[test]
    fn recdbl_fold_partitions_ranks() {
        for n in SIZES {
            let p2 = pow2_floor(n);
            let mut core_seen = vec![false; p2];
            for rank in 0..n {
                match recdbl_role(rank, n) {
                    RecDblRole::Fold { partner } => {
                        assert_eq!(partner, rank + 1);
                        // The partner is a core rank that points back.
                        match recdbl_role(partner, n) {
                            RecDblRole::Core { folded, .. } => assert_eq!(folded, Some(rank)),
                            other => panic!("n={n}: fold partner has role {other:?}"),
                        }
                    }
                    RecDblRole::Core { newrank, .. } => {
                        assert!(newrank < p2);
                        assert!(!core_seen[newrank], "n={n} newrank {newrank} duplicated");
                        core_seen[newrank] = true;
                        assert_eq!(recdbl_rank_of(newrank, n), rank);
                    }
                }
            }
            assert!(core_seen.iter().all(|&s| s), "n={n} core ranks missing");
        }
    }

    #[test]
    fn round_plans_match_their_peers_and_take_their_stated_rounds() {
        for n in SIZES {
            let recdbl = matched("recursive doubling", n, |rank| match recdbl_role(rank, n) {
                RecDblRole::Fold { .. } => {
                    vec![(None, None); pow2_floor(n).trailing_zeros() as usize]
                }
                RecDblRole::Core { newrank, .. } => recdbl_partners(newrank, n)
                    .map(|p| (Some(p), Some(p)))
                    .collect(),
            });
            assert_eq!(recdbl, pow2_floor(n).trailing_zeros() as usize, "n={n}");
            let bruck = matched("bruck", n, |rank| {
                let rounds = bruck_rounds(rank, n);
                rounds.map(|(_, up, down)| (Some(up), Some(down))).collect()
            });
            assert_eq!(bruck, ceil_log2(n), "n={n}");
            let hs = matched("hillis-steele", n, |rank| {
                hillis_steele_rounds(rank, n).collect()
            });
            assert_eq!(hs, ceil_log2(n), "n={n}");
            matched("chain", n, |rank| vec![chain(rank, n)]);
        }
    }

    #[test]
    fn ring_and_pairwise_take_n_minus_1_steps_and_meet_every_peer_once() {
        for n in SIZES {
            let pairwise = matched("pairwise", n, |rank| {
                let steps = pairwise_steps(rank, n);
                steps.map(|(to, from)| (Some(to), Some(from))).collect()
            });
            assert_eq!(pairwise, n - 1, "n={n}");
            for rank in 0..n {
                meets_every_peer_once(rank, n, pairwise_steps(rank, n).map(|(to, _)| to));
                meets_every_peer_once(rank, n, pairwise_steps(rank, n).map(|(_, from)| from));
                // Each step's block is the one the successor receives; the
                // blocks received are every other rank's, once each.
                let (succ, pred) = ring_neighbours(rank, n);
                assert_eq!(ring_neighbours(succ, n).1, rank);
                assert_eq!(ring_neighbours(pred, n).0, rank);
                let steps: Vec<_> = ring_steps(rank, n).collect();
                assert_eq!(steps.len(), n - 1, "n={n}");
                for (t, (sent, _)) in steps.iter().enumerate() {
                    assert_eq!(ring_steps(succ, n).nth(t).map(|s| s.1), Some(*sent));
                }
                meets_every_peer_once(rank, n, steps.iter().map(|s| s.1));
            }
        }
    }

    #[test]
    fn ring_segments_tile_the_buffer() {
        for n in 1..=9 {
            for len in [0usize, 1, 5, 64, 1000] {
                let mut covered = 0usize;
                for s in 0..n {
                    let (lo, hi) = ring_segment(s, len, n);
                    assert_eq!(lo, covered);
                    covered = hi;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn bit_helpers() {
        assert_eq!(pow2_floor(1), 1);
        assert_eq!(pow2_floor(9), 8);
        assert_eq!(pow2_floor(16), 16);
        assert_eq!(doublings(10).collect::<Vec<_>>(), [1, 2, 4, 8]);
        assert_eq!(doublings(1).count(), 0);
    }
}

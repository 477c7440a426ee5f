//! Differential oracle and golden pin of `critpath::extract`.
//!
//! `reference_extract` is the walk as it stood before it was indexed: one
//! filtered scan of the whole sorted wait table per hop. It is kept here,
//! verbatim, as the small reference walker — the only place the linear
//! pick still exists. Every case below is run through both, in generated
//! order and shuffled, and must give the same makespan, bounding rank,
//! hops and slack.
//!
//! The cases come from a seeded generator, run at every seed of
//! [`SEEDS`]: random wait graphs of 1–16 ranks and 0–20 000
//! waits over all seven kinds — blamed peers that recorded no waits, that
//! are the waiter itself or that are missing from the makespan table,
//! barriers releasing several ranks at one `end_ps` with ties on
//! `(start_ps, rank)`, exact duplicates, several waits of one rank
//! sharing an `end_ps`, waits on the blamed peer ending exactly at and
//! one picosecond after the hop time, waits ending after their rank's
//! makespan, zero and missing makespans — plus the empty inputs and
//! 2-rank mutual chains long enough to run into the hop cap.
//!
//! One family takes the recorder's road instead of `extract`'s: seeded
//! runs whose ranks each record their waits through `attrib::wait` on
//! their own lane, in their clock's order, and whose profile
//! (`report::build`) must carry the reference path and, per rank, wait
//! sums equal to plain sums over the waits the lanes kept.
//!
//! At the default seed every family's paths also fold into a digest that
//! is compared with constants recorded on the linear walk (commit
//! bd5097d, PR 19; `recorded` on the indexed walk of commit f6349b0),
//! the same table in debug and release. They pin that a
//! faster walk returns the same hops byte for byte, the capped paths and
//! the number of hops they keep included. A deliberate change of the
//! path's definition must re-record them (a mismatch prints the table as
//! run) and say so.

use obs::attrib::{self, WaitEvent, WaitKind, WAIT_KIND_COUNT};
use obs::critpath::{extract, CriticalPath, Hop};
use obs::report::{self, Profile};
use obs::Recorder;
use simclock::{SimTime, SplitMix64};
use std::collections::BTreeMap;

const DEFAULT_SEED: u64 = 0x0C21_7FA7_2002;

/// Every test runs once per seed; the digests hold at the first.
const SEEDS: [u64; 4] = [DEFAULT_SEED, 1, 42, 20020415];

/// The walk's hop cap, as in `critpath.rs`.
const MAX_HOPS: usize = 4096;

const KINDS: [WaitKind; 7] = [
    WaitKind::LateSender,
    WaitKind::LateReceiver,
    WaitKind::Barrier,
    WaitKind::Lock,
    WaitKind::RequestWait,
    WaitKind::Recovery,
    WaitKind::Backpressure,
];

/// `(makespan_ps, bound_rank, hops, total_slack_ps)`: what the oracle
/// compares and digests of a [`CriticalPath`].
type Parts = (u64, u32, Vec<Hop>, u64);

fn parts(p: CriticalPath) -> Parts {
    (p.makespan_ps, p.bound_rank, p.hops, p.total_slack_ps)
}

/// `critpath::extract` as of commit bd5097d: a filtered scan of the whole
/// sorted table per pick.
fn reference_extract(makespans: &[(u32, u64)], waits: &[WaitEvent]) -> Parts {
    let Some(&(origin, makespan)) = makespans
        .iter()
        .max_by_key(|&&(r, m)| (m, std::cmp::Reverse(r)))
    else {
        return (0, 0, Vec::new(), 0);
    };
    let mut rank = origin;

    let mut sorted: Vec<&WaitEvent> = waits.iter().collect();
    sorted.sort_by_key(|w| (w.rank, w.end_ps, w.start_ps, w.kind, w.peer));

    let mut t = makespan;
    let mut rev: Vec<Hop> = Vec::new();
    let mut used = vec![false; sorted.len()];

    while rev.len() < MAX_HOPS {
        // Latest unused wait on `rank` ending at or before `t`; the sort
        // order makes "last match wins" the deterministic maximum.
        let pick = sorted
            .iter()
            .enumerate()
            .filter(|(i, w)| !used[*i] && w.rank == rank && w.end_ps <= t)
            .map(|(i, _)| i)
            .next_back();

        let Some(i) = pick else {
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
            break;
        };
        used[i] = true;
        let w = sorted[i];

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
                let co = sorted
                    .iter()
                    .enumerate()
                    .filter(|(j, v)| {
                        !used[*j] && v.kind == WaitKind::Barrier && v.end_ps == w.end_ps
                    })
                    .max_by_key(|(_, v)| (v.start_ps, v.rank));
                if let Some((j, v)) = co {
                    used[j] = true;
                    rank = v.rank;
                    t = v.start_ps;
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
            break;
        }
    }

    rev.reverse();
    let total_slack_ps = rev.iter().map(Hop::slack_ps).sum();
    (makespan, origin, rev, total_slack_ps)
}

struct Case {
    name: String,
    makespans: Vec<(u32, u64)>,
    waits: Vec<WaitEvent>,
}

fn pick<T: Copy>(rng: &mut SplitMix64, from: &[T]) -> T {
    from[rng.next_below(from.len() as u64) as usize]
}

/// A wait ending at `end` that lasted `dur` (clamped at the epoch).
fn wait(rank: u32, kind: WaitKind, end: u64, dur: u64, peer: Option<u32>) -> WaitEvent {
    WaitEvent {
        rank,
        kind,
        start_ps: end.saturating_sub(dur),
        end_ps: end,
        peer,
    }
}

/// One seeded wait graph of at most `max_waits` waits. `deep` fixes the
/// knobs that decide how far a walk gets — few ranks, all of them
/// recording, nobody blamed who ends the walk, waits short against the
/// gaps between them — so that random graphs reach the hop cap too.
fn random_case(rng: &mut SplitMix64, name: String, max_waits: u64, deep: bool) -> Case {
    let ranks = if deep || rng.chance(0.3) {
        rng.next_range(2, 4) as u32
    } else {
        rng.next_range(1, 16) as u32
    };
    // Ranks at or past `active` record no waits of their own but are in
    // the makespan table and get blamed as peers.
    let active = if deep || rng.chance(0.5) {
        ranks
    } else {
        rng.next_range(1, ranks as u64) as u32
    };
    // A coarse clock makes equal `end_ps`, `end_ps == t` and duplicates
    // the rule, a fine one the exception.
    let horizon: u64 = match deep {
        true => pick(rng, &[40_000, 4_000_000_000_000]),
        false => pick(rng, &[48, 1_000, 1_000_000, 4_000_000_000_000]),
    };
    // How often, in percent, a wait blames a rank that ends the walk (one
    // without waits, or outside the table) or blames the waiter itself.
    let stray = if deep { 0 } else { pick(rng, &[0, 0, 1, 6]) };
    let n = rng.next_range(if deep { max_waits / 2 } else { 0 }, max_waits) as usize;

    // A long wait throws the walk far back when it is left by its start.
    let per_rank = n as u64 / active as u64 + 1;
    let spaced = horizon / per_rank / 4;
    let typical = if deep {
        spaced.max(1)
    } else {
        pick(rng, &[horizon / 4, horizon / 64, spaced]).max(1)
    };
    let long = !deep && rng.chance(0.5);
    let dur = |rng: &mut SplitMix64| match rng.next_below(40) {
        0..=2 => 0,
        3 if long => rng.next_range(1, horizon),
        _ => rng.next_range(1, typical),
    };
    let peer = |rng: &mut SplitMix64, rank: u32| {
        let roll = rng.next_below(100);
        if roll < stray {
            Some(ranks + rng.next_below(3) as u32)
        } else if roll < 2 * stray {
            Some(rng.next_below(ranks as u64) as u32)
        } else if roll < 3 * stray {
            Some(rank)
        } else if roll < 3 * stray + 10 {
            None
        } else {
            Some(rng.next_below(active as u64) as u32)
        }
    };

    let mut waits: Vec<WaitEvent> = Vec::with_capacity(n + 64);
    while waits.len() < n {
        let earlier =
            (!waits.is_empty()).then(|| waits[rng.next_below(waits.len() as u64) as usize].clone());
        match (rng.next_below(100), earlier) {
            // A barrier: one release time, a subset of the ranks, arrival
            // times from a handful of values so `(start_ps, rank)` ties
            // happen; now and then a rank is released twice (an exact
            // duplicate) or names a peer (same key, later position).
            (0..=11, _) => {
                let end = rng.next_range(0, horizon);
                let arrivals = [dur(rng), dur(rng), dur(rng)];
                for r in 0..active {
                    if !rng.chance(0.7) {
                        continue;
                    }
                    let d = pick(rng, &arrivals);
                    waits.push(wait(r, WaitKind::Barrier, end, d, None));
                    match rng.next_below(12) {
                        0 => waits.push(wait(r, WaitKind::Barrier, end, d, None)),
                        1 => waits.push(wait(r, WaitKind::Barrier, end, d, Some(r / 2))),
                        _ => {}
                    }
                }
            }
            // An exact duplicate of an earlier wait.
            (12..=14, Some(w)) => waits.push(w),
            // Another wait of the same rank ending at the same instant.
            (15..=20, Some(w)) => {
                let kind = pick(rng, &KINDS);
                waits.push(wait(w.rank, kind, w.end_ps, dur(rng), peer(rng, w.rank)));
            }
            // Waits on an earlier wait's peer ending exactly when the hop
            // arrives there (eligible) and one picosecond later (not).
            (21..=30, Some(w)) => {
                let Some(p) = w.peer.filter(|&p| p < active) else {
                    continue;
                };
                let kind = pick(rng, &KINDS);
                waits.push(wait(p, kind, w.end_ps, dur(rng), peer(rng, p)));
                if rng.chance(0.5) {
                    waits.push(wait(p, kind, w.end_ps + 1, dur(rng), peer(rng, p)));
                }
            }
            _ => {
                let rank = rng.next_below(active as u64) as u32;
                let kind = pick(rng, &KINDS);
                let blamed = match kind {
                    WaitKind::Barrier if rng.chance(0.8) => None,
                    _ => peer(rng, rank),
                };
                let end = rng.next_range(0, horizon);
                waits.push(wait(rank, kind, end, dur(rng), blamed));
            }
        }
    }
    waits.truncate(n);

    let mut makespans = Vec::new();
    for r in 0..ranks {
        let ends = waits.iter().filter(|w| w.rank == r).map(|w| w.end_ps);
        let last = ends.max().unwrap_or(0);
        match rng.next_below(16) {
            // The rank is missing from the table.
            0 => {}
            1 => makespans.push((r, 0)),
            // Waits that end after their rank's makespan.
            2 => makespans.push((r, last / 2)),
            // Equal makespans: the lowest rank bounds the run.
            3 | 4 => makespans.push((r, horizon + 7)),
            _ => makespans.push((r, last + rng.next_below(horizon / 4 + 1))),
        }
    }
    Case {
        name,
        makespans,
        waits,
    }
}

/// A 2-rank ping-pong of `n` waits in which each rank blames the other,
/// so the path changes rank at every wait and grows by two hops per wait
/// (the wait, and the peer's busy time before it). `gap` is the time
/// between a wait's end and the other rank's next wait's start. `salt`
/// mixes in, per wait, a second wait of the same rank and `end_ps`, a
/// self-blaming wait, a wait with no peer, or a barrier pair.
fn mutual_chain(rng: &mut SplitMix64, name: &str, n: usize, gap: u64, salt: bool) -> Case {
    let mut waits = Vec::with_capacity(2 * n);
    let mut t = rng.next_range(1, 500);
    for k in 0..n {
        let rank = (k % 2) as u32;
        let kind = if rng.chance(0.8) {
            WaitKind::LateSender
        } else {
            WaitKind::LateReceiver
        };
        let d = rng.next_range(1, 900);
        t += d;
        waits.push(wait(rank, kind, t, d, Some(1 - rank)));
        if salt {
            match rng.next_below(12) {
                0 => waits.push(wait(rank, WaitKind::Lock, t, d / 2, Some(1 - rank))),
                1 => waits.push(wait(rank, WaitKind::RequestWait, t, d / 3, Some(rank))),
                2 => waits.push(wait(1 - rank, WaitKind::Recovery, t, d / 2, None)),
                3 => {
                    waits.push(wait(rank, WaitKind::Barrier, t, d, None));
                    waits.push(wait(1 - rank, WaitKind::Barrier, t, d / 2, None));
                }
                _ => {}
            }
        }
        t += gap;
    }
    Case {
        name: format!("{name} ({} waits)", waits.len()),
        makespans: vec![(0, t + 40), (1, t + 40)],
        waits,
    }
}

fn fold(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

fn fold_parts(h: &mut u64, p: &Parts) {
    let (makespan_ps, bound_rank, hops, total_slack_ps) = p;
    fold(h, *makespan_ps);
    fold(h, *bound_rank as u64);
    fold(h, *total_slack_ps);
    fold(h, hops.len() as u64);
    for hop in hops {
        fold(h, hop.rank as u64);
        fold(h, hop.start_ps);
        fold(h, hop.end_ps);
        fold(h, hop.wait.map_or(0, |k| k as u64 + 1));
        fold(h, hop.peer.map_or(0, |p| p as u64 + 1));
    }
}

/// What a family of cases walked, for the coverage assertions.
#[derive(Debug, Default)]
struct Walked {
    cases: usize,
    hops: usize,
    /// Cases whose walk stopped at the hop cap.
    capped: usize,
    /// Wait hops that changed rank / were barriers without a peer.
    rank_changes: usize,
    barrier_hops: usize,
}

/// Run every case through both walkers, in generated and in shuffled
/// order; return the family's digest and what was walked.
fn check(family: &str, seed: u64, cases: Vec<Case>) -> (u64, Walked) {
    let mut rng = SplitMix64::new(seed ^ 0x05AF_F1E5);
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut walked = Walked::default();
    for mut case in cases {
        let want = reference_extract(&case.makespans, &case.waits);
        let got = parts(extract(&case.makespans, &case.waits));
        assert!(
            got == want,
            "{family}/{} (seed {}): extract differs from the reference walk\n\
             makespan {} / {}, bound rank {} / {}, hops {} / {}, slack {} / {}, first differing hop {:?}",
            case.name,
            seed,
            got.0,
            want.0,
            got.1,
            want.1,
            got.2.len(),
            want.2.len(),
            got.3,
            want.3,
            got.2.iter().zip(&want.2).position(|(a, b)| a != b),
        );

        rng.shuffle(&mut case.waits);
        rng.shuffle(&mut case.makespans);
        let shuffled = parts(extract(&case.makespans, &case.waits));
        assert!(
            shuffled == want,
            "{family}/{} (seed {}): the path depends on the input order",
            case.name,
            seed,
        );

        let hops = &want.2;
        assert!(hops.len() <= MAX_HOPS + 1, "{family}/{}", case.name);
        if let Some(last) = hops.last() {
            assert_eq!(last.end_ps, want.0, "{family}/{}", case.name);
        }
        walked.cases += 1;
        walked.hops += hops.len();
        walked.capped += (hops.len() >= MAX_HOPS) as usize;
        walked.rank_changes += hops.windows(2).filter(|w| w[0].rank != w[1].rank).count();
        walked.barrier_hops += hops
            .iter()
            .filter(|h| h.wait == Some(WaitKind::Barrier) && h.peer.is_none())
            .count();
        fold_parts(&mut digest, &want);
    }
    (digest, walked)
}

/// Digests recorded on the linear walk at the default seed.
const GOLDEN: [(&str, u64); 5] = [
    ("edges", 0x09ee_ecce_12d6_0dce),
    ("small", 0xd798_c44e_5c89_072a),
    ("large", 0x32c0_80e8_94c1_c365),
    ("chains", 0x4498_aad7_8a80_8cc9),
    ("recorded", 0x7fcc_0f55_eb47_0bff),
];

/// Compare a family's digest with its recorded constant (default seed
/// only: another seed generates other graphs).
fn pin(family: &str, seed: u64, digest: u64, walked: &Walked) {
    if seed != DEFAULT_SEED {
        return;
    }
    println!("(\"{family}\", {digest:#018x}),   // {walked:?}");
    let want = GOLDEN.iter().find(|(f, _)| *f == family).expect("family").1;
    assert!(
        digest == want,
        "{family}: digest {digest:#018x}, recorded {want:#018x} — the critical path of a recorded \
         case changed although it still equals the reference walk: the generator or the digest \
         was edited ({walked:?})"
    );
}

#[test]
fn empty_zero_and_degenerate_inputs_match_the_reference() {
    for seed in SEEDS {
        println!("cell seed {seed}");
        let mut rng = SplitMix64::new(seed ^ 0xED6E);
        let w = |rank, kind, start_ps, end_ps, peer| WaitEvent {
            rank,
            kind,
            start_ps,
            end_ps,
            peer,
        };
        let some_waits = random_case(&mut rng, String::new(), 200, false).waits;
        let cases = vec![
            Case {
                name: "nothing".into(),
                makespans: vec![],
                waits: vec![],
            },
            Case {
                name: "waits without makespans".into(),
                makespans: vec![],
                waits: some_waits.clone(),
            },
            Case {
                name: "makespans without waits".into(),
                makespans: vec![(0, 500), (1, 900), (2, 900), (7, 3)],
                waits: vec![],
            },
            Case {
                name: "all makespans zero".into(),
                makespans: (0..16).map(|r| (r, 0)).collect(),
                waits: some_waits.clone(),
            },
            Case {
                name: "zero makespans, waits ending at the epoch".into(),
                makespans: vec![(0, 0), (1, 0)],
                waits: vec![
                    w(0, WaitKind::LateSender, 0, 0, Some(1)),
                    w(1, WaitKind::Barrier, 0, 0, None),
                    w(0, WaitKind::Barrier, 0, 0, None),
                ],
            },
            Case {
                name: "the bounding rank recorded no waits".into(),
                makespans: vec![(0, 10), (99, u64::MAX)],
                waits: some_waits,
            },
            Case {
                name: "a rank that only blames itself".into(),
                makespans: vec![(3, 10_000)],
                waits: (1..=300)
                    .map(|k| w(3, pick(&mut rng, &KINDS), 30 * k - 20, 30 * k, Some(3)))
                    .collect(),
            },
            Case {
                name: "one barrier, every arrival tied".into(),
                makespans: (0..12).map(|r| (r, 1000 + (r as u64 % 3))).collect(),
                waits: (0..12)
                    .flat_map(|r| {
                        let b = w(r, WaitKind::Barrier, 400 + 100 * (r as u64 % 2), 900, None);
                        [b.clone(), b]
                    })
                    .collect(),
            },
            Case {
                name: "zero-length barrier waits revisit their group".into(),
                makespans: vec![(0, 50), (1, 50), (2, 50)],
                waits: (0..90)
                    .map(|k| w(k % 3, WaitKind::Barrier, 50, 50, None))
                    .collect(),
            },
            Case {
                name: "mutual waits at one instant".into(),
                makespans: vec![(0, 100), (1, 100)],
                waits: (0..400)
                    .map(|k| w(k % 2, WaitKind::LateSender, 50, 100, Some(1 - k % 2)))
                    .collect(),
            },
        ];
        let (digest, walked) = check("edges", seed, cases);
        pin("edges", seed, digest, &walked);
    }
}

#[test]
fn small_random_graphs_match_the_reference() {
    for seed in SEEDS {
        println!("cell seed {seed}");
        let mut rng = SplitMix64::new(seed ^ 0x5A11);
        let cases = (0..400)
            .map(|i| {
                let max = pick(&mut rng, &[4, 40, 400, 1_500]);
                random_case(
                    &mut rng,
                    format!("#{i} (at most {max} waits)"),
                    max,
                    i % 8 == 0,
                )
            })
            .collect();
        let (digest, walked) = check("small", seed, cases);
        if seed == DEFAULT_SEED {
            assert!(walked.hops > 15_000, "{walked:?}");
            assert!(walked.rank_changes > 4_000, "{walked:?}");
            assert!(walked.barrier_hops > 2_000, "{walked:?}");
        }
        pin("small", seed, digest, &walked);
    }
}

#[test]
fn large_random_graphs_match_the_reference() {
    for seed in SEEDS {
        println!("cell seed {seed}");
        let mut rng = SplitMix64::new(seed ^ 0x1A26E);
        let cases = (0..12)
            .map(|i| {
                let max = if i < 3 { 20_000 } else { 8_000 };
                random_case(
                    &mut rng,
                    format!("#{i} (at most {max} waits)"),
                    max,
                    i % 3 == 0,
                )
            })
            .collect();
        let (digest, walked) = check("large", seed, cases);
        if seed == DEFAULT_SEED {
            assert!(walked.capped >= 2, "{walked:?}");
            assert!(walked.barrier_hops > 1_000, "{walked:?}");
        }
        pin("large", seed, digest, &walked);
    }
}

#[test]
fn mutual_chains_run_into_the_hop_cap_like_the_reference() {
    for seed in SEEDS {
        println!("cell seed {seed}");
        let mut rng = SplitMix64::new(seed ^ 0xC4A1);
        let cases = vec![
            // Two hops per wait: 2 048 waits fill the cap.
            mutual_chain(&mut rng, "busy gaps", 2_200, 150, false),
            mutual_chain(&mut rng, "back to back", 5_000, 0, false),
            mutual_chain(&mut rng, "busy gaps, salted", 3_000, 90, true),
            mutual_chain(&mut rng, "back to back, salted", 14_000, 0, true),
            // Short of the cap: the walk reaches the epoch.
            mutual_chain(&mut rng, "busy gaps, short", 1_900, 150, false),
        ];
        let (digest, walked) = check("chains", seed, cases);
        assert_eq!(walked.capped, 4, "{walked:?}");
        pin("chains", seed, digest, &walked);
    }
}

/// A run as its recorder sees it: per rank, the `attrib::wait` calls the
/// rank's lane makes, in the order of the rank's clock, and the makespans
/// recorded at teardown.
struct Recorded {
    name: String,
    makespans: Vec<(u32, u64)>,
    lanes: Vec<Vec<WaitEvent>>,
}

/// A seeded run of `ranks` ranks and `steps` steps. Each rank's clock
/// only moves forward: a wait starts where the clock stands after some
/// busy time and leaves the clock at its end. A barrier releases a subset
/// of the ranks at the latest arrival, so their waits tie at one
/// `end_ps` and, the clock being coarse, often on `start_ps` too; the
/// last arriver's wait has zero length, which the lane drops. A wait
/// blames another rank, itself, nobody, or a rank outside the makespan
/// table, and a rank is now and then missing from that table.
fn recorded_run(
    rng: &mut SplitMix64,
    name: String,
    ranks: u32,
    steps: usize,
    strays: bool,
) -> Recorded {
    let grain = pick(rng, &[1, 10, 1_000, 1_000_000_000]);
    let busy = |rng: &mut SplitMix64| grain * rng.next_below(4);
    let mut clock = vec![0u64; ranks as usize];
    let mut lanes: Vec<Vec<WaitEvent>> = vec![Vec::new(); ranks as usize];
    for _ in 0..steps {
        if rng.next_below(10) < 2 {
            let members: Vec<u32> = (0..ranks).filter(|_| rng.chance(0.7)).collect();
            let arrivals: Vec<u64> = members
                .iter()
                .map(|&r| clock[r as usize] + busy(rng))
                .collect();
            let Some(&release) = arrivals.iter().max() else {
                continue;
            };
            for (&r, &arrival) in members.iter().zip(&arrivals) {
                let blamed = rng.chance(0.1).then_some(r / 2);
                lanes[r as usize].push(wait(
                    r,
                    WaitKind::Barrier,
                    release,
                    release - arrival,
                    blamed,
                ));
                clock[r as usize] = release;
            }
            continue;
        }
        let r = rng.next_below(ranks as u64) as u32;
        let start = clock[r as usize] + busy(rng);
        let peer = match rng.next_below(20) {
            0 => None,
            1 => Some(r),
            2 if strays => Some(ranks + rng.next_below(3) as u32),
            _ => Some(rng.next_below(ranks as u64) as u32),
        };
        // The blamed rank's event lands at its clock or later.
        let event = match peer {
            Some(p) if p < ranks => clock[p as usize].max(start),
            _ => start,
        };
        let end = event + grain * rng.next_below(3);
        lanes[r as usize].push(wait(r, pick(rng, &KINDS), end, end - start, peer));
        clock[r as usize] = end;
    }
    let mut makespans = Vec::new();
    for r in 0..ranks {
        if rng.next_below(8) != 0 {
            makespans.push((r, clock[r as usize] + busy(rng)));
        }
    }
    Recorded {
        name,
        makespans,
        lanes,
    }
}

/// Feed `run` through a recorder the way a run does, one lane per rank
/// bound in turn and marked attributing, and build its profile.
fn record(run: &Recorded) -> Profile {
    let rec = Recorder::new();
    for (rank, lane) in run.lanes.iter().enumerate() {
        let _bound = rec.bind(rank as u32);
        attrib::set_thread_attrib(true);
        for w in lane {
            let (start, end) = (SimTime::from_ps(w.start_ps), SimTime::from_ps(w.end_ps));
            attrib::wait(w.kind, start, end, w.peer);
        }
        if let Some(&(_, m)) = run.makespans.iter().find(|(r, _)| *r == rank as u32) {
            attrib::record_makespan(rank as u32, SimTime::from_ps(m));
        }
    }
    report::build(&rec)
}

#[test]
fn waits_recorded_through_lanes_give_the_reference_path_and_sums() {
    for seed in SEEDS {
        println!("cell seed {seed}");
        let mut rng = SplitMix64::new(seed ^ 0x002E_C02D);
        let mut runs: Vec<Recorded> = (0..60)
            .map(|i| {
                let ranks = pick(&mut rng, &[1, 2, 3, 5, 8]);
                let steps = pick(&mut rng, &[0, 10, 200, 2_000]);
                recorded_run(
                    &mut rng,
                    format!("#{i} ({ranks} ranks)"),
                    ranks,
                    steps,
                    true,
                )
            })
            .collect();
        // Long enough for the walk to run into the hop cap.
        runs.push(recorded_run(
            &mut rng,
            "long, 2 ranks".into(),
            2,
            12_000,
            false,
        ));

        let mut digest = 0xcbf2_9ce4_8422_2325;
        let mut walked = Walked::default();
        for run in &runs {
            let kept: Vec<WaitEvent> = run
                .lanes
                .iter()
                .flatten()
                .filter(|w| w.end_ps > w.start_ps)
                .cloned()
                .collect();
            let profile = record(run);
            let want = reference_extract(&run.makespans, &kept);
            let got = parts(profile.critical_path.clone());
            assert!(
                got == want,
                "recorded/{} (seed {}): the recorder's path differs from the reference walk \
             (hops {} / {}, first differing hop {:?})",
                run.name,
                seed,
                got.2.len(),
                want.2.len(),
                got.2.iter().zip(&want.2).position(|(a, b)| a != b),
            );

            let mut sums: BTreeMap<u32, [u64; WAIT_KIND_COUNT]> = BTreeMap::new();
            for w in &kept {
                sums.entry(w.rank).or_default()[w.kind as usize] += w.dur_ps();
            }
            for p in &profile.ranks {
                let want = sums.remove(&p.rank).unwrap_or_default();
                assert_eq!(
                    p.wait_ps, want,
                    "recorded/{}: rank {}'s wait breakdown",
                    run.name, p.rank
                );
                for &ps in &p.wait_ps {
                    fold(&mut digest, ps);
                }
            }
            assert!(
                sums.is_empty(),
                "recorded/{}: ranks missing from the profile: {sums:?}",
                run.name
            );

            let hops = &want.2;
            walked.cases += 1;
            walked.hops += hops.len();
            walked.capped += (hops.len() >= MAX_HOPS) as usize;
            walked.rank_changes += hops.windows(2).filter(|w| w[0].rank != w[1].rank).count();
            walked.barrier_hops += hops
                .iter()
                .filter(|h| h.wait == Some(WaitKind::Barrier) && h.peer.is_none())
                .count();
            fold_parts(&mut digest, &want);
        }
        if seed == DEFAULT_SEED {
            assert!(walked.capped >= 1, "{walked:?}");
            assert!(walked.barrier_hops > 100, "{walked:?}");
            assert!(walked.rank_changes > 1_000, "{walked:?}");
        }
        pin("recorded", seed, digest, &walked);
    }
}

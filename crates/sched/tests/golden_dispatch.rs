//! Golden pin of the scheduler's dispatch order.
//!
//! Two seeded many-task programs log every `(task, Wake)` a park
//! returns, every first grant, join return and exit, in the order the
//! run token visits them:
//!
//! * [`main_program`] — twelve roots stepping through a seeded mix of
//!   parks at equal and unequal virtual times, [`WaitQueue`] wakes with
//!   duplicate registration, wakes that arrive before the park
//!   (`pending_wake`, from a peer, from the task itself and from a
//!   non-task thread), stall rounds and a stall round upgraded to a real
//!   wake, `park_stale`, and dynamic children;
//! * [`abort_program`] — eight roots and a dynamic child, one root
//!   panicking while the rest are parked, ready or joining.
//!
//! Each program runs twice, through the scheduler's two handoffs: once
//! on adopted OS threads (roots from `Scheduler::create_root`, children
//! from `spawn_handle` on threads of their own, a futex wake per
//! handoff) and once under `run_roots` (every task a coroutine on the
//! launching thread, children from `sched::spawn`, a stack switch per
//! handoff). Same tasks, same keys: both passes must leave the same log
//! and `Stats`, which makes the pair a differential test of the two.
//!
//! The log is folded into a digest and compared, with the final
//! [`Stats`], against constants recorded on the crate as of commit
//! c2c9e5b (per-task condvars under the scheduler mutex), before the
//! handoff was restructured. Each program is looped 20 times in one test:
//! a lost wake hangs or trips the deadlock detector, a reordered grant
//! moves the digest. Dispatch order is a pure function of
//! `(time, rank, seq)`; a change that moves these constants changed the
//! model, not just the host path, and must say so.

use sched::{Aborted, Handle, Scheduler, Stats, WaitQueue, Wake};
use simclock::{SimDuration, SimTime, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

const SEED: u64 = 20020415;
const LOOPS: usize = 20;
const ROOTS: usize = 12;
const QUEUES: usize = 3;
const STEPS: usize = 48;
const CHILDREN_PER_ROOT: u32 = 3;
const BOOM: &str = "golden boom";

// Log record kinds beside the two `Wake`s.
const WOKEN: u8 = 0;
const STALLED: u8 = 1;
const GRANTED: u8 = 2;
const JOINED: u8 = 3;
const EXIT: u8 = 4;

/// What one program leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    log_len: usize,
    log_digest: u64,
    events: u64,
    ready_high_water: usize,
    tasks_high_water: usize,
    stalls: u64,
}

struct Shared {
    /// Every root's handle: made up front for adopted roots, set by each
    /// coroutine root at its first grant (before any peer can wake it:
    /// both programs start with every root parking).
    roots: Vec<OnceLock<Handle>>,
    queues: [WaitQueue; QUEUES],
    /// Roots still stepping. Only the run-token holder touches it.
    active: Mutex<Vec<bool>>,
    log: Mutex<Vec<(u32, u8)>>,
    aborted_unwinds: AtomicUsize,
}

impl Shared {
    fn new(roots: usize) -> Shared {
        Shared {
            roots: (0..roots).map(|_| OnceLock::new()).collect(),
            queues: [WaitQueue::new(), WaitQueue::new(), WaitQueue::new()],
            active: Mutex::new(vec![true; roots]),
            log: Mutex::new(Vec::new()),
            aborted_unwinds: AtomicUsize::new(0),
        }
    }

    fn root(&self, i: usize) -> &Handle {
        self.roots[i].get().expect("every root has started")
    }

    /// Make adopted roots for every rank of `sched`.
    fn adopted(sched: &Arc<Scheduler>, roots: usize) -> Shared {
        let sh = Shared::new(roots);
        for (i, slot) in sh.roots.iter().enumerate() {
            let _ = slot.set(sched.create_root(i as u32));
        }
        sh
    }

    /// A coroutine root records its own handle.
    fn started(&self, i: usize) {
        let _ = self.roots[i].set(sched::current().expect("roots run as tasks"));
    }

    fn golden(&self, stats: Stats) -> Golden {
        let log = self.log.lock().unwrap();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for &(task, kind) in log.iter() {
            for v in [task as u64, kind as u64] {
                digest = (digest ^ v).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Golden {
            log_len: log.len(),
            log_digest: digest,
            events: stats.events,
            ready_high_water: stats.ready_high_water,
            tasks_high_water: stats.tasks_high_water,
            stalls: stats.stalls,
        }
    }
}

/// The expected panics of these programs would otherwise print a few
/// hundred backtrace headers over the 20 loops.
fn quiet_expected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if !p.is::<Aborted>() && p.downcast_ref::<&str>() != Some(&BOOM) {
                default(info);
            }
        }));
    });
}

/// A task body that counts an unwind with `Aborted` on its way out.
fn counted(sh: &Shared, body: impl FnOnce()) {
    if let Err(p) = catch_unwind(AssertUnwindSafe(body)) {
        if p.is::<Aborted>() {
            sh.aborted_unwinds.fetch_add(1, Ordering::SeqCst);
        }
        std::panic::resume_unwind(p);
    }
}

/// Task thread wrapper: adopt, run `body` [`counted`], retire.
fn run_task(sh: &Shared, h: Handle, body: impl FnOnce()) {
    h.run(|| counted(sh, body));
}

struct Actor<'a> {
    sh: &'a Shared,
    label: u32,
    rng: SplitMix64,
    t: SimTime,
}

impl<'a> Actor<'a> {
    fn new(sh: &'a Shared, label: u32, t: SimTime) -> Self {
        let rng = SplitMix64::new(SEED ^ (label as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Actor { sh, label, rng, t }
    }

    fn log(&self, kind: u8) {
        self.sh.log.lock().unwrap().push((self.label, kind));
    }

    fn log_wake(&self, w: Wake) {
        self.log(match w {
            Wake::Woken => WOKEN,
            Wake::Stalled => STALLED,
        });
    }

    /// Advance by 0, 10 or 20 ns (so equal and unequal keys both occur)
    /// and park.
    fn park(&mut self) {
        self.t += SimDuration::from_ns(10 * self.rng.next_below(3));
        let w = sched::park(self.t);
        self.log_wake(w);
    }

    fn park_stale(&mut self) {
        let w = sched::park_stale();
        self.log_wake(w);
    }

    fn queue(&mut self) -> &'a WaitQueue {
        &self.sh.queues[self.rng.next_below(QUEUES as u64) as usize]
    }

    /// A random root other than `me` that is still stepping.
    fn active_peer(&mut self, me: usize) -> Option<usize> {
        let active = self.sh.active.lock().unwrap();
        let peers: Vec<usize> = (0..active.len())
            .filter(|&i| i != me && active[i])
            .collect();
        if peers.is_empty() {
            return None;
        }
        Some(peers[self.rng.next_below(peers.len() as u64) as usize])
    }
}

fn child_body(sh: &Shared, label: u32, parent: usize, t: SimTime) {
    let mut a = Actor::new(sh, label, t);
    a.log(GRANTED);
    for _ in 0..2 {
        // Always poke the parent first: a child parked with its parent in
        // `join_task` and every other root gone must not stall barren.
        match a.rng.next_below(3) {
            0 => {
                sh.root(parent).unpark();
                a.park();
            }
            1 => {
                let q = a.queue();
                q.register_current();
                sh.root(parent).unpark();
                a.park();
            }
            _ => {
                a.queue().wake_all();
                sh.root(parent).unpark();
                a.park_stale();
            }
        }
    }
    a.log(EXIT);
}

/// `coroutines`: children are `sched::spawn`ed, not threads.
fn root_body(sh: &Arc<Shared>, me: usize, coroutines: bool) {
    let mut a = Actor::new(sh, me as u32, SimTime::ZERO);
    a.log(GRANTED);

    // Prologue: everyone parks at the same time with nobody to wake them,
    // so the first resumption is a stall round in rank order — except
    // that root 0, resumed first, turns root 2's stall into a real wake.
    a.t += SimDuration::from_ns(100);
    let w = sched::park(a.t);
    a.log_wake(w);
    if me == 0 {
        sh.root(2).unpark();
    }

    let mut children = 0;
    for _ in 0..STEPS {
        let Some(peer) = a.active_peer(me) else {
            // Last root standing: nobody could wake it, so it does not park.
            break;
        };
        match a.rng.next_below(8) {
            0 | 1 => {
                sh.root(peer).unpark();
                a.park();
            }
            2 => {
                // Duplicate registration, no wake of our own.
                let q = a.queue();
                q.register_current();
                if a.rng.next_below(2) == 0 {
                    q.register_current();
                }
                a.park();
            }
            3 => {
                a.queue().wake_all();
                a.park_stale();
            }
            4 => {
                // The second wake finds the peer ready: pending_wake.
                sh.root(peer).unpark();
                sh.root(peer).unpark();
                a.park();
            }
            5 if children < CHILDREN_PER_ROOT => {
                children += 1;
                let label = 100 + me as u32 * 10 + children;
                let at = a.t + SimDuration::from_ns(5);
                if coroutines {
                    let theirs = Arc::clone(sh);
                    let body = move || counted(&theirs, || child_body(&theirs, label, me, at));
                    sched::join_task(&sched::spawn(me as u32, at, Box::new(body)));
                    a.log(JOINED);
                } else {
                    std::thread::scope(|s| {
                        let child = sched::spawn_handle(me as u32, at).expect("roots run as tasks");
                        let theirs = child.clone();
                        s.spawn(move || run_task(sh, theirs, || child_body(sh, label, me, at)));
                        sched::join_task(&child);
                        a.log(JOINED);
                    });
                }
            }
            6 => {
                // A wake from a thread that is no task: of a parked or
                // ready peer, or of this (running) task itself.
                let target = if a.rng.next_below(2) == 0 { me } else { peer };
                let h = sh.root(target);
                let by_id = a.rng.next_below(2) == 0;
                std::thread::scope(|s| {
                    s.spawn(move || {
                        if by_id {
                            h.scheduler().unpark(h.id());
                        } else {
                            h.unpark();
                        }
                    });
                });
                a.park();
            }
            _ => {
                // Self-wake through a queue: the park returns at once.
                let q = a.queue();
                q.register_current();
                q.wake_all();
                a.park();
            }
        }
    }
    sh.active.lock().unwrap()[me] = false;
    a.log(EXIT);
}

/// `coroutines` selects the handoff: adopted threads, or `run_roots`.
fn main_program(coroutines: bool) -> Golden {
    let (sh, stats) = if coroutines {
        let sh = Arc::new(Shared::new(ROOTS));
        let (_, stats) = sched::run_roots(ROOTS, |i| {
            sh.started(i);
            counted(&sh, || root_body(&sh, i, true));
        });
        (sh, stats)
    } else {
        let sched = Scheduler::new(ROOTS);
        let sh = Arc::new(Shared::adopted(&sched, ROOTS));
        std::thread::scope(|s| {
            for i in 0..ROOTS {
                let sh = &sh;
                s.spawn(move || run_task(sh, sh.root(i).clone(), || root_body(sh, i, false)));
            }
        });
        assert!(
            sched.take_panic().is_none(),
            "main program must finish clean"
        );
        (sh, sched.stats())
    };
    assert_eq!(sh.aborted_unwinds.load(Ordering::SeqCst), 0);
    sh.golden(stats)
}

const ABORT_ROOTS: usize = 8;

/// Root `i` of [`abort_program`]; `spawn_child(at)` starts root 3's
/// child ([`abort_child`]) at `at` and returns its handle.
fn abort_root(sh: &Shared, i: usize, spawn_child: impl FnOnce(SimTime) -> Handle) {
    let mut a = Actor::new(sh, i as u32, SimTime::ZERO);
    let q = &sh.queues[0];
    a.log(GRANTED);
    if i == 0 {
        for _ in 0..12 {
            q.wake_all();
            a.park();
        }
        std::panic::panic_any(BOOM);
    }
    if i == 3 {
        // Joins a child that never exits: aborted inside `join_task`,
        // the child inside its park.
        sched::join_task(&spawn_child(a.t));
        unreachable!("the child never retires before the abort");
    }
    loop {
        q.register_current();
        q.register_current();
        a.park();
        sh.root(0).unpark();
    }
}

fn abort_child(sh: &Shared) {
    let a = Actor::new(sh, 130, SimTime::ZERO);
    a.log(GRANTED);
    loop {
        sh.queues[0].register_current();
        let w = sched::park_stale();
        a.log_wake(w);
    }
}

/// `coroutines` selects the handoff, as in [`main_program`].
fn abort_program(coroutines: bool) -> Golden {
    let (sh, p) = if coroutines {
        let sh = Arc::new(Shared::new(ABORT_ROOTS));
        let run = catch_unwind(AssertUnwindSafe(|| {
            sched::run_roots(ABORT_ROOTS, |i| {
                sh.started(i);
                counted(&sh, || {
                    abort_root(&sh, i, |at| {
                        let theirs = Arc::clone(&sh);
                        let body = move || counted(&theirs, || abort_child(&theirs));
                        sched::spawn(3, at, Box::new(body))
                    })
                });
            })
        }));
        (sh, run.expect_err("the run re-throws the boom"))
    } else {
        let sched = Scheduler::new(ABORT_ROOTS);
        let sh = Arc::new(Shared::adopted(&sched, ABORT_ROOTS));
        std::thread::scope(|s| {
            for i in 0..ABORT_ROOTS {
                let sh = &sh;
                s.spawn(move || {
                    run_task(sh, sh.root(i).clone(), || {
                        abort_root(sh, i, |at| {
                            let child = sched::spawn_handle(3, at).expect("roots run as tasks");
                            let theirs = child.clone();
                            s.spawn(move || run_task(sh, theirs, || abort_child(sh)));
                            child
                        })
                    })
                });
            }
        });
        (sh, sched.take_panic().expect("the boom must be stored"))
    };
    assert_eq!(
        p.downcast_ref::<&str>(),
        Some(&BOOM),
        "first real panic is re-thrown, not the Aborted sentinel"
    );
    assert_eq!(
        sh.aborted_unwinds.load(Ordering::SeqCst),
        ABORT_ROOTS, // seven surviving roots and the child
        "every other task unwinds with Aborted"
    );
    sh.golden(sh.root(0).scheduler().stats())
}

const MAIN: Golden = Golden {
    log_len: 744,
    log_digest: 5728820178882251505,
    events: 882,
    ready_high_water: 19,
    tasks_high_water: 19,
    stalls: 25,
};

#[test]
fn main_program_dispatch_order_is_pinned() {
    quiet_expected_panics();
    for round in 0..LOOPS {
        assert_eq!(main_program(false), MAIN, "loop {round}");
    }
}

#[test]
fn coroutine_tasks_dispatch_in_the_pinned_order() {
    quiet_expected_panics();
    for round in 0..LOOPS {
        assert_eq!(main_program(true), MAIN, "loop {round}");
    }
}

const ABORT: Golden = Golden {
    log_len: 54,
    log_digest: 6461103730703841385,
    events: 63,
    ready_high_water: 9,
    tasks_high_water: 9,
    stalls: 1,
};

#[test]
fn abort_program_dispatch_order_is_pinned() {
    quiet_expected_panics();
    for round in 0..LOOPS {
        assert_eq!(abort_program(false), ABORT, "loop {round}");
    }
}

#[test]
fn coroutine_abort_program_dispatch_order_is_pinned() {
    quiet_expected_panics();
    for round in 0..LOOPS {
        assert_eq!(abort_program(true), ABORT, "loop {round}");
    }
}

//! Golden pin of the scheduler's dispatch order.
//!
//! Two seeded many-task programs run under one [`Scheduler`] each and log
//! every `(task, Wake)` a park returns, every first grant, join return
//! and exit, in the order the run token visits them:
//!
//! * [`main_program`] — twelve roots stepping through a seeded mix of
//!   parks at equal and unequal virtual times, [`WaitQueue`] wakes with
//!   duplicate registration, wakes that arrive before the park
//!   (`pending_wake`, from a peer, from the task itself and from a
//!   non-task thread), stall rounds and a stall round upgraded to a real
//!   wake, `park_stale`, and dynamic children — `spawn_handle` /
//!   `Handle::run` on a thread of their own in one pass, `sched::spawn` onto the
//!   scheduler's pooled workers in a second: same tasks, same keys, so
//!   the same log and `Stats`;
//! * [`abort_program`] — eight roots and a dynamic child, one root
//!   panicking while the rest are parked, ready or joining.
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
use std::sync::{Arc, Mutex, Once};
use std::thread::Scope;

const SEED: u64 = 20020415;
const LOOPS: usize = 20;
const ROOTS: usize = 12;
const QUEUES: usize = 3;
const STEPS: usize = 48;
const CHILDREN_PER_ROOT: u32 = 3;
/// Children of [`main_program`] live at its busiest moment.
const POOL_PEAK: usize = 7;
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
    roots: Vec<Handle>,
    queues: [WaitQueue; QUEUES],
    /// Roots still stepping. Only the run-token holder touches it.
    active: Mutex<Vec<bool>>,
    log: Mutex<Vec<(u32, u8)>>,
    aborted_unwinds: AtomicUsize,
}

impl Shared {
    fn new(sched: &std::sync::Arc<Scheduler>, roots: usize) -> Shared {
        Shared {
            roots: (0..roots).map(|i| sched.create_root(i as u32)).collect(),
            queues: [WaitQueue::new(), WaitQueue::new(), WaitQueue::new()],
            active: Mutex::new(vec![true; roots]),
            log: Mutex::new(Vec::new()),
            aborted_unwinds: AtomicUsize::new(0),
        }
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

/// Task thread wrapper: the runtime's ([`Handle::run`]), counting the
/// bodies that unwound with `Aborted` on the way.
fn run_task(sh: &Shared, h: Handle, body: impl FnOnce()) {
    h.run(|| {
        if let Err(p) = catch_unwind(AssertUnwindSafe(body)) {
            if p.is::<Aborted>() {
                sh.aborted_unwinds.fetch_add(1, Ordering::SeqCst);
            }
            std::panic::resume_unwind(p);
        }
    });
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
                sh.roots[parent].unpark();
                a.park();
            }
            1 => {
                let q = a.queue();
                q.register_current();
                sh.roots[parent].unpark();
                a.park();
            }
            _ => {
                a.queue().wake_all();
                sh.roots[parent].unpark();
                a.park_stale();
            }
        }
    }
    a.log(EXIT);
}

fn root_body<'scope>(
    scope: &'scope Scope<'scope, '_>,
    sh: &'scope Arc<Shared>,
    me: usize,
    pooled: bool,
) {
    let mut a = Actor::new(sh, me as u32, SimTime::ZERO);
    a.log(GRANTED);

    // Prologue: everyone parks at the same time with nobody to wake them,
    // so the first resumption is a stall round in rank order — except
    // that root 0, resumed first, turns root 2's stall into a real wake.
    a.t += SimDuration::from_ns(100);
    let w = sched::park(a.t);
    a.log_wake(w);
    if me == 0 {
        sh.roots[2].unpark();
    }

    let mut children = 0;
    for _ in 0..STEPS {
        let Some(peer) = a.active_peer(me) else {
            // Last root standing: nobody could wake it, so it does not park.
            break;
        };
        match a.rng.next_below(8) {
            0 | 1 => {
                sh.roots[peer].unpark();
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
                sh.roots[peer].unpark();
                sh.roots[peer].unpark();
                a.park();
            }
            5 if children < CHILDREN_PER_ROOT => {
                children += 1;
                let label = 100 + me as u32 * 10 + children;
                let at = a.t + SimDuration::from_ns(5);
                let (child, thread) = if pooled {
                    let sh = Arc::clone(sh);
                    let body = Box::new(move || child_body(&sh, label, me, at));
                    (sched::spawn(me as u32, at, body), None)
                } else {
                    let child = sched::spawn_handle(me as u32, at).expect("roots run as tasks");
                    let theirs = child.clone();
                    let body = move || run_task(sh, theirs, || child_body(sh, label, me, at));
                    (child, Some(scope.spawn(body)))
                };
                sched::join_task(&child);
                a.log(JOINED);
                if let Some(thread) = thread {
                    thread.join().expect("child thread");
                }
            }
            6 => {
                // A wake from a thread that is no task: of a parked or
                // ready peer, or of this (running) task itself.
                let target = if a.rng.next_below(2) == 0 { me } else { peer };
                let h = &sh.roots[target];
                let by_id = a.rng.next_below(2) == 0;
                scope
                    .spawn(move || {
                        if by_id {
                            h.scheduler().unpark(h.id());
                        } else {
                            h.unpark();
                        }
                    })
                    .join()
                    .expect("waker thread");
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

/// `pooled` selects who runs the children: a thread of their own that
/// adopts the task, or the scheduler's workers.
fn main_program(pooled: bool) -> Golden {
    let sched = Scheduler::new(ROOTS);
    let sh = Arc::new(Shared::new(&sched, ROOTS));
    std::thread::scope(|s| {
        for i in 0..ROOTS {
            let sh = &sh;
            s.spawn(move || run_task(sh, sh.roots[i].clone(), || root_body(s, sh, i, pooled)));
        }
    });
    // One worker per child live at the busiest moment, none for threads.
    assert_eq!(sched.join_workers(), if pooled { POOL_PEAK } else { 0 });
    assert!(
        sched.take_panic().is_none(),
        "main program must finish clean"
    );
    assert_eq!(sh.aborted_unwinds.load(Ordering::SeqCst), 0);
    sh.golden(sched.stats())
}

const ABORT_ROOTS: usize = 8;

fn abort_program() -> Golden {
    let sched = Scheduler::new(ABORT_ROOTS);
    let sh = Shared::new(&sched, ABORT_ROOTS);
    std::thread::scope(|s| {
        for i in 0..ABORT_ROOTS {
            let sh = &sh;
            s.spawn(move || {
                run_task(sh, sh.roots[i].clone(), || {
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
                        // Joins a child that never exits: aborted inside
                        // `join_task`, the child inside its park.
                        let child = sched::spawn_handle(3, a.t).expect("roots run as tasks");
                        let theirs = child.clone();
                        s.spawn(move || {
                            run_task(sh, theirs, || {
                                let a = Actor::new(sh, 130, SimTime::ZERO);
                                a.log(GRANTED);
                                loop {
                                    q.register_current();
                                    let w = sched::park_stale();
                                    a.log_wake(w);
                                }
                            })
                        });
                        sched::join_task(&child);
                        unreachable!("the child never retires before the abort");
                    }
                    loop {
                        q.register_current();
                        q.register_current();
                        a.park();
                        sh.roots[0].unpark();
                    }
                })
            });
        }
    });
    let p = sched.take_panic().expect("the boom must be stored");
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
    sh.golden(sched.stats())
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
fn pooled_children_dispatch_in_the_pinned_order() {
    quiet_expected_panics();
    for round in 0..LOOPS {
        assert_eq!(main_program(true), MAIN, "loop {round}");
    }
}

#[test]
fn abort_program_dispatch_order_is_pinned() {
    quiet_expected_panics();
    let want = Golden {
        log_len: 54,
        log_digest: 6461103730703841385,
        events: 63,
        ready_high_water: 9,
        tasks_high_water: 9,
        stalls: 1,
    };
    for round in 0..LOOPS {
        assert_eq!(abort_program(), want, "loop {round}");
    }
}

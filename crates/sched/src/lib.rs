//! # sched — deterministic discrete-event task scheduler
//!
//! The one way a rank runs: a **cooperative virtual-time scheduler**.
//! Every rank (and every request-engine worker) is a *task* run by an OS
//! thread, but exactly one task holds the **run token** at any moment. A
//! task keeps the token until it reaches a blocking site (mailbox match,
//! ring-slot acquisition, barrier, lock, request wait, backpressure
//! stall) and parks; parking hands the token to the runnable task with
//! the smallest `(virtual time, rank, sequence)` key. Dispatch order is
//! therefore a pure function of the simulation state — same seed, same
//! interleaving, bit for bit — and wall-clock cost per rank is one parked
//! thread, not one spinning poll loop.
//!
//! Ranks run on threads [`run_roots`] makes for them; a forked helper
//! brings its own ([`Handle::run`]); request engines are handed over as a
//! closure ([`spawn`]) and run on a pool of parked workers the scheduler
//! owns. Such a task is created *ready*, under the key it would have had
//! on a thread of its own, so which OS thread runs it changes nothing
//! about the order.
//!
//! A blocking site holds a mutex and a [`WaitQueue`] and loops over its
//! predicate around [`WaitQueue::wait`], which parks the calling task.
//! Producers change the predicate under the mutex and call
//! [`WaitQueue::wake_all`]. Only tasks may wait: a thread that runs none
//! panics there.
//!
//! ## Ordering and tie-break
//!
//! The ready queue is a min-heap over `(SimTime, rank, seq, task-id)`:
//! earliest virtual time first, then lowest rank, then creation sequence
//! number (so a rank's request-engine tasks dispatch in post order).
//! A task parks *at* its current virtual time; primitives with no
//! timestamp of their own (turn tickets, task joins) park at the task's
//! last recorded time, which keeps the key deterministic.
//!
//! ## Stalls — virtual-time liveness
//!
//! No wait ever times out in real time. When every live task is blocked
//! and nothing is in flight the scheduler runs a **stall round**: all
//! blocked tasks wake with [`Wake::Stalled`] and re-check liveness (dead
//! peer? revoked epoch? cancelled barrier?). Progress is counted
//! (unparks, adoptions, retirements); consecutive stall rounds without
//! progress mean a genuine deadlock and panic with a task-table dump
//! instead of hanging CI.
//!
//! ## Handoff
//!
//! The successor is *chosen* under the scheduler mutex and the token is
//! *granted* outside it: the chooser stores the grant in the successor's
//! own flag and unparks its thread; a waiting task loops on that flag and
//! never on the mutex. A task that chooses itself (after a stall round)
//! keeps running without a syscall.
//!
//! See `docs/SCHEDULER.md` for the full model.

use simclock::SimTime;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};

/// Sentinel panic payload used to unwind tasks after another task has
/// aborted the run. Wrappers around task bodies treat it as "shut down
/// quietly"; the first *real* panic is stored and re-thrown by the
/// launcher. Taking the run down is the abort's job, not every task's.
#[derive(Debug, Clone, Copy)]
pub struct Aborted;

/// Why a parked task resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A producer woke this task; its condition may now hold.
    Woken = 1,
    /// Scheduler stall round: nothing else can run. Re-check liveness
    /// (dead peers, revocation, cancellation) and park again.
    Stalled = 2,
}

/// [`Parker::grant`] while no grant is pending; otherwise a [`Wake`].
const NO_GRANT: u8 = 0;

/// One task's end of the handoff, created at adoption (a pooled task
/// uses its worker's): the flag its thread waits on and the thread to
/// poke. The task table holds it so a granter can reach it, the task's
/// thread-local so the wait never takes the scheduler mutex.
struct Parker {
    /// The [`Wake`] this task was granted the run token with, until the
    /// task consumes it. Stored (`Release`) by the granter after it chose
    /// the task under the scheduler lock, swapped out (`Acquire`) by the
    /// task: everything the granter did before parking is visible to it.
    grant: AtomicU8,
    thread: Thread,
}

impl Parker {
    fn grant(&self, wake: Wake) {
        self.grant.store(wake as u8, Ordering::Release);
        self.thread.unpark();
    }
}

/// Outcome of [`Scheduler::choose`].
enum Next {
    /// No grant: the run aborted, the root gate is shut, or no live task
    /// remains.
    Nobody,
    /// The chooser itself is next and keeps running.
    Me(Wake),
    /// Another task is next; the chooser grants it outside the lock.
    Task(Arc<Parker>, Wake),
}

/// The body of a pooled task ([`spawn`]).
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// What a pool worker finds in its inbox.
enum Order {
    /// Run this task: wait for its first grant, then call the job.
    Run(Current, Job),
    /// The run is over.
    Exit,
}

/// The scheduler's end of one pool thread: held by the task it runs
/// while that is live, by [`Inner::idle`] in between.
struct Worker {
    parker: Arc<Parker>,
    /// Filled under the scheduler lock; an unpark of the thread always
    /// follows (the task's first grant, an abort, or teardown).
    inbox: Arc<Mutex<Option<Order>>>,
    thread: JoinHandle<()>,
}

impl Worker {
    /// Start a parked worker. Its parker is built from the `JoinHandle`,
    /// so nobody waits for the thread to come up.
    fn start() -> Box<Worker> {
        let inbox = Arc::new(Mutex::new(None));
        let theirs = Arc::clone(&inbox);
        let thread = std::thread::Builder::new()
            .name("sched-worker".into())
            .spawn(move || Worker::run(&theirs))
            .expect("spawn pool worker");
        let parker = Arc::new(Parker {
            grant: AtomicU8::new(NO_GRANT),
            thread: thread.thread().clone(),
        });
        Box::new(Worker {
            parker,
            inbox,
            thread,
        })
    }

    /// The worker thread: the one place a pooled task is adopted, run
    /// and retired.
    fn run(inbox: &Mutex<Option<Order>>) {
        loop {
            let order = relock(inbox.lock()).take();
            let (cur, job) = match order {
                // Park tokens are advisory: only the inbox counts.
                None => {
                    std::thread::park();
                    continue;
                }
                Some(Order::Exit) => return,
                Some(Order::Run(cur, job)) => (cur, job),
            };
            let (sched, mine) = (Arc::clone(&cur.handle.sched), Arc::clone(&cur.parker));
            CURRENT.with(|c| *c.borrow_mut() = Some(cur));
            // The first grant is awaited inside the catch, like `adopt` in
            // a task thread's wrapper: a task queued but never granted
            // when the run aborts retires without its job having run.
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sched.hand_over(Next::Nobody, &mine);
                job()
            }));
            if let Err(p) = out {
                sched.abort_with(p);
            }
            retire();
        }
    }
}

/// Identifies a task within its [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Created but its thread has not adopted it yet.
    Created,
    /// In the ready heap awaiting dispatch.
    Ready,
    /// Holds the run token.
    Running,
    /// Parked at a blocking site.
    Blocked,
    /// Finished.
    Exited,
}

struct Task {
    rank: u32,
    seq: u64,
    /// Virtual time of the last park — the heap key's primary component.
    time: SimTime,
    status: Status,
    /// A wake arrived while the task was not parked; the next park
    /// returns immediately instead of blocking (no lost wakeups).
    pending_wake: bool,
    /// The pending dispatch is a stall round, not a producer wake.
    stalled: bool,
    root: bool,
    /// Set at adoption, dropped at retirement (with the thread handle
    /// it holds): an exited task keeps only its plain fields.
    parker: Option<Arc<Parker>>,
    /// The pool worker running this task if it was [`spawn`]ed, until it
    /// retires. Boxed: most tasks have none.
    worker: Option<Box<Worker>>,
    /// Index of this task in [`Inner::live`] while it is live.
    live_slot: usize,
    /// Tasks parked in `join` on this task's exit.
    exit_waiters: Vec<usize>,
}

struct Inner {
    tasks: Vec<Task>,
    /// Min-heap of runnable tasks keyed `(time, rank, seq, id)`.
    ready: BinaryHeap<Reverse<(SimTime, u32, u64, usize)>>,
    /// The task currently holding the run token, if any.
    running: Option<usize>,
    /// Root tasks created but not yet adopted; dispatch is gated until
    /// every root has checked in so the first grant is deterministic.
    gate: usize,
    /// Dynamically created tasks not yet adopted by their thread.
    /// Dispatch *waits* while this is non-zero: a freshly spawned task
    /// must be in the heap before the next pop, or adoption timing
    /// (real time!) would leak into dispatch order.
    incoming: usize,
    /// Ids of the tasks created and not yet retired, in no particular
    /// order: what stall rounds and aborts walk, so neither pays for the
    /// tasks that have come and gone.
    live: Vec<usize>,
    /// Pool workers between tasks: the pool grows to the peak number of
    /// pooled tasks live at once and never shrinks within a run. The
    /// boxes move between here and [`Task::worker`] unopened.
    #[allow(clippy::vec_box)]
    idle: Vec<Box<Worker>>,
    /// [`Scheduler::join_workers`] ran: a retiring worker now exits.
    closed: bool,
    next_seq: u64,
    /// Unparks + adoptions + retirements — the progress measure that
    /// separates productive stall rounds from deadlock.
    progress: u64,
    progress_at_stall: u64,
    barren_stalls: u32,
    stats: Stats,
}

impl Inner {
    /// Mark `id` ready and queue it under its `(time, rank, seq, id)` key.
    fn push_ready(&mut self, id: usize) {
        let t = &mut self.tasks[id];
        t.status = Status::Ready;
        self.ready.push(Reverse((t.time, t.rank, t.seq, id)));
        self.stats.ready_high_water = self.stats.ready_high_water.max(self.ready.len());
    }
}

/// Scheduler run statistics, for benches and the megascale smoke test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total park/dispatch events processed.
    pub events: u64,
    /// High-water mark of the ready heap (memory-boundedness proxy).
    pub ready_high_water: usize,
    /// Peak number of simultaneously live tasks.
    pub tasks_high_water: usize,
    /// Stall rounds run (deterministic liveness sweeps).
    pub stalls: u64,
}

/// A deterministic cooperative scheduler over OS-thread-backed tasks.
pub struct Scheduler {
    inner: Mutex<Inner>,
    /// Signalled on adoption; choosers wait here while `incoming > 0`.
    adopt_cv: Condvar,
    /// The run aborted. Raised under `inner`'s lock (so a chooser waiting
    /// on `adopt_cv` cannot miss it) and read without it by every task
    /// waiting for a grant.
    aborted: AtomicBool,
    /// First non-[`Aborted`] panic payload, re-thrown by the launcher.
    first_panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

// Scheduler-internal locks tolerate poisoning: a panicking task unwinds
// through park/retire and the launcher still needs the lock to tear the
// run down and re-throw the stored panic.
fn relock<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Scheduler {
    /// A scheduler expecting `roots` root tasks (one per rank). Dispatch
    /// opens once all roots have been adopted.
    pub fn new(roots: usize) -> Arc<Self> {
        Arc::new(Scheduler {
            inner: Mutex::new(Inner {
                tasks: Vec::with_capacity(roots),
                ready: BinaryHeap::with_capacity(roots),
                running: None,
                gate: roots,
                incoming: 0,
                live: Vec::with_capacity(roots),
                idle: Vec::new(),
                closed: false,
                next_seq: 0,
                progress: 0,
                progress_at_stall: 0,
                barren_stalls: 0,
                stats: Stats::default(),
            }),
            adopt_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            first_panic: Mutex::new(None),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        relock(self.inner.lock())
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Create a root task for `rank` starting at virtual time zero.
    /// Called by the launcher before spawning the rank's thread; the
    /// thread itself must [`Handle::adopt`] the returned handle.
    pub fn create_root(self: &Arc<Self>, rank: u32) -> Handle {
        let mut g = self.lock();
        let id = Self::create_in(&mut g, rank, SimTime::ZERO, None, true);
        Handle {
            sched: Arc::clone(self),
            id,
        }
    }

    /// Create a dynamic task (sendrecv fork) starting at `time`, to be
    /// adopted by a thread of its own. The creating task keeps running;
    /// dispatch will not pop the heap again until that thread has adopted
    /// it.
    pub fn create_task(self: &Arc<Self>, rank: u32, time: SimTime) -> Handle {
        let mut g = self.lock();
        g.incoming += 1;
        let id = Self::create_in(&mut g, rank, time, None, false);
        Handle {
            sched: Arc::clone(self),
            id,
        }
    }

    /// Create a dynamic task that runs `job` on a pool worker. Unlike
    /// [`Scheduler::create_task`]'s it is born *ready*, in the lock hold
    /// that creates it: no thread has to come up and adopt it. `seq` is
    /// its creation sequence number, taken by [`reserve_seq`].
    fn spawn_pooled(self: Arc<Self>, rank: u32, time: SimTime, seq: u64, job: Job) -> Handle {
        let mut g = self.lock();
        let worker = match g.idle.pop() {
            Some(w) => w,
            None => {
                // Only the run-token holder spawns, so nothing that
                // decides order can happen while the lock is released.
                drop(g);
                let w = Worker::start();
                g = self.lock();
                w
            }
        };
        let id = Self::create_in(&mut g, rank, time, Some(seq), false);
        let cur = Current {
            handle: Handle {
                sched: Arc::clone(&self),
                id,
            },
            parker: Arc::clone(&worker.parker),
        };
        *relock(worker.inbox.lock()) = Some(Order::Run(cur, job));
        if self.is_aborted() {
            // No grant will come: the worker has to see the flag.
            worker.parker.thread.unpark();
        }
        g.tasks[id.0].parker = Some(Arc::clone(&worker.parker));
        g.tasks[id.0].worker = Some(worker);
        g.progress += 1;
        g.push_ready(id.0);
        drop(g);
        Handle { sched: self, id }
    }

    /// End of the run, called by the launcher once the roots are joined:
    /// tell the idle pool workers to exit and join them; returns how many
    /// that was. A worker still inside a task (a request leaked past its
    /// run, a straggler unwinding from an abort) is detached and exits
    /// when that task retires.
    pub fn join_workers(&self) -> usize {
        let idle = {
            let mut g = self.lock();
            g.closed = true;
            std::mem::take(&mut g.idle)
        };
        for w in &idle {
            *relock(w.inbox.lock()) = Some(Order::Exit);
            w.parker.thread.unpark();
        }
        let joined = idle.len();
        for w in idle {
            // Only a scheduler bug panics a worker outside its catch.
            let _ = w.thread.join();
        }
        joined
    }

    /// The next creation sequence number.
    fn take_seq(g: &mut Inner) -> u64 {
        g.next_seq += 1;
        g.next_seq - 1
    }

    /// Create a task under `seq`, or the next sequence number if `None`.
    fn create_in(g: &mut Inner, rank: u32, time: SimTime, seq: Option<u64>, root: bool) -> TaskId {
        let seq = seq.unwrap_or_else(|| Self::take_seq(g));
        g.tasks.push(Task {
            rank,
            seq,
            time,
            status: Status::Created,
            pending_wake: false,
            stalled: false,
            root,
            parker: None,
            worker: None,
            live_slot: g.live.len(),
            exit_waiters: Vec::new(),
        });
        let id = g.tasks.len() - 1;
        g.live.push(id);
        g.stats.tasks_high_water = g.stats.tasks_high_water.max(g.live.len());
        TaskId(id)
    }

    /// Abort the run: store the first real panic payload and wake every
    /// task so it unwinds with the [`Aborted`] sentinel (a running task at
    /// its next park, a waiting one now).
    pub fn abort_with(&self, payload: Box<dyn Any + Send + 'static>) {
        {
            let mut fp = relock(self.first_panic.lock());
            if fp.is_none() && !payload.is::<Aborted>() {
                *fp = Some(payload);
            }
        }
        let g = self.lock();
        if self.aborted.swap(true, Ordering::SeqCst) {
            return;
        }
        // A waiter that read the flag before the store is either not yet
        // in `thread::park` — then this token makes it return at once —
        // or in it and woken; a task adopted after this sees the flag.
        for &id in &g.live {
            if let Some(p) = &g.tasks[id].parker {
                p.thread.unpark();
            }
        }
        self.adopt_cv.notify_all();
    }

    /// The stored first panic, if any task aborted. The launcher resumes
    /// unwinding with it after joining all task threads.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        relock(self.first_panic.lock()).take()
    }

    /// Run statistics so far.
    pub fn stats(&self) -> Stats {
        let g = self.lock();
        g.stats
    }

    /// Wake `task` if it is parked; remember the wake otherwise.
    /// Callable from any thread (producers hold no scheduler state).
    pub fn unpark(&self, task: TaskId) {
        let mut g = self.lock();
        Self::unpark_in(&mut g, task.0);
    }

    fn unpark_in(g: &mut Inner, id: usize) {
        match g.tasks[id].status {
            Status::Blocked => {
                g.tasks[id].stalled = false;
                g.progress += 1;
                g.push_ready(id);
            }
            Status::Ready => {
                if g.tasks[id].stalled {
                    // Upgrade a stall round to a real wake.
                    g.tasks[id].stalled = false;
                    g.progress += 1;
                } else {
                    g.tasks[id].pending_wake = true;
                }
            }
            Status::Running | Status::Created => g.tasks[id].pending_wake = true,
            Status::Exited => {}
        }
    }

    /// Choose the best ready task as the next holder of the run token
    /// and release the lock; the caller delivers the grant. Called with
    /// no task running, by `me` (parking, adopting or retiring). Blocks
    /// (deterministically) while spawned tasks have not yet been adopted.
    fn choose(&self, mut g: MutexGuard<'_, Inner>, me: usize) -> Next {
        debug_assert!(g.running.is_none());
        loop {
            if self.is_aborted() || g.gate > 0 || g.live.is_empty() {
                return Next::Nobody;
            }
            if g.incoming > 0 {
                g = relock(self.adopt_cv.wait(g));
                continue;
            }
            if let Some(Reverse((_, _, _, id))) = g.ready.pop() {
                debug_assert_eq!(g.tasks[id].status, Status::Ready);
                g.tasks[id].status = Status::Running;
                g.running = Some(id);
                let wake = if std::mem::take(&mut g.tasks[id].stalled) {
                    Wake::Stalled
                } else {
                    Wake::Woken
                };
                if id == me {
                    return Next::Me(wake);
                }
                let parker = g.tasks[id]
                    .parker
                    .as_ref()
                    .expect("ready tasks are adopted");
                return Next::Task(Arc::clone(parker), wake);
            }
            // Ready heap empty, nothing incoming, nothing running, yet
            // live tasks exist: everyone is blocked. Stall round.
            self.stall_round(&mut g);
        }
    }

    fn stall_round(&self, g: &mut Inner) {
        if g.stats.stalls > 0 && g.progress == g.progress_at_stall {
            g.barren_stalls += 1;
            if g.barren_stalls >= 2 {
                let dump = Self::render_tasks(g);
                panic!(
                    "event scheduler deadlock: every live task is blocked and \
                     {} consecutive stall rounds made no progress\n{dump}",
                    g.barren_stalls
                );
            }
        } else {
            g.barren_stalls = 0;
        }
        g.stats.stalls += 1;
        g.progress_at_stall = g.progress;
        for slot in 0..g.live.len() {
            let id = g.live[slot];
            if g.tasks[id].status == Status::Blocked {
                g.tasks[id].stalled = true;
                g.push_ready(id);
            }
        }
    }

    fn render_tasks(g: &Inner) -> String {
        use std::fmt::Write as _;
        let mut live = g.live.clone();
        live.sort_unstable();
        let mut out = String::from("task table (first 64 live):\n");
        for &id in live.iter().take(64) {
            let t = &g.tasks[id];
            let _ = writeln!(
                out,
                "  #{id} rank={} seq={} {:?} t={:?}{}",
                t.rank,
                t.seq,
                t.status,
                t.time,
                if t.root { " root" } else { "" }
            );
        }
        if live.len() > 64 {
            let _ = writeln!(out, "  … {} more", live.len() - 64);
        }
        out
    }

    /// Deliver `next`'s grant, then wait for this task's own: until its
    /// flag holds one, or the run aborts. Never touches the scheduler
    /// mutex. `thread::park` tokens are advisory — `thread::scope`, `mpsc`
    /// and any other std primitive park and unpark the same threads — so
    /// the loop trusts only the two flags.
    fn hand_over(&self, next: Next, mine: &Parker) -> Wake {
        match next {
            Next::Me(wake) => return wake,
            Next::Task(parker, wake) => parker.grant(wake),
            Next::Nobody => {}
        }
        loop {
            if self.is_aborted() {
                panic_any(Aborted);
            }
            match mine.grant.swap(NO_GRANT, Ordering::Acquire) {
                NO_GRANT => std::thread::park(),
                w if w == Wake::Stalled as u8 => return Wake::Stalled,
                _ => return Wake::Woken,
            }
        }
    }

    /// Give up the run token held by `me` as a blocked task and wait to
    /// be granted it again.
    fn block(&self, mut g: MutexGuard<'_, Inner>, me: usize, mine: &Parker) -> Wake {
        g.tasks[me].status = Status::Blocked;
        g.tasks[me].stalled = false;
        g.running = None;
        let next = self.choose(g, me);
        self.hand_over(next, mine)
    }

    /// Park the current task (`me`) at virtual time `now` (or its last
    /// recorded time if `None`) and hand the token over. Returns when the
    /// task is granted the token again.
    fn park_task(&self, me: usize, mine: &Parker, now: Option<SimTime>) -> Wake {
        let mut g = self.lock();
        g.stats.events += 1;
        debug_assert_eq!(g.running, Some(me));
        if self.is_aborted() {
            drop(g);
            panic_any(Aborted);
        }
        if let Some(now) = now {
            g.tasks[me].time = now;
        }
        if std::mem::take(&mut g.tasks[me].pending_wake) {
            return Wake::Woken;
        }
        self.block(g, me, mine)
    }

    /// Retire the current task (`me`): mark it exited, release what only
    /// a live task needs, wake joiners, grant a successor. The task's
    /// thread must not touch the scheduler afterwards.
    fn retire_task(&self, me: usize) {
        let mut g = self.lock();
        g.stats.events += 1;
        g.tasks[me].status = Status::Exited;
        g.progress += 1;
        let slot = g.tasks[me].live_slot;
        g.live.swap_remove(slot);
        if let Some(&moved) = g.live.get(slot) {
            g.tasks[moved].live_slot = slot;
        }
        g.tasks[me].parker = None;
        // Before the joiners wake: what they spawn next finds it idle.
        if let Some(w) = g.tasks[me].worker.take() {
            if g.closed {
                *relock(w.inbox.lock()) = Some(Order::Exit);
            } else {
                g.idle.push(w);
            }
        }
        for w in std::mem::take(&mut g.tasks[me].exit_waiters) {
            Self::unpark_in(&mut g, w);
        }
        if g.running == Some(me) {
            g.running = None;
            if let Next::Task(parker, wake) = self.choose(g, me) {
                parker.grant(wake);
            }
        }
    }

    /// Block the current task (`me`) until `target` exits.
    fn join_task_inner(&self, me: usize, mine: &Parker, target: usize) {
        loop {
            let mut g = self.lock();
            if self.is_aborted() {
                drop(g);
                panic_any(Aborted);
            }
            if g.tasks[target].status == Status::Exited {
                return;
            }
            if !g.tasks[target].exit_waiters.contains(&me) {
                g.tasks[target].exit_waiters.push(me);
            }
            g.stats.events += 1;
            debug_assert_eq!(g.running, Some(me));
            if std::mem::take(&mut g.tasks[me].pending_wake) {
                continue;
            }
            // Re-check the target after any wake (stall rounds wake
            // joiners too).
            self.block(g, me, mine);
        }
    }

    /// Adopt `id` on the calling thread, whose parker is `mine`:
    /// register it with the scheduler and wait for the first grant.
    fn adopt_task(&self, id: usize, mine: &Arc<Parker>) {
        let next = {
            let mut g = self.lock();
            debug_assert_eq!(g.tasks[id].status, Status::Created);
            g.tasks[id].parker = Some(Arc::clone(mine));
            g.push_ready(id);
            if g.tasks[id].root {
                g.gate -= 1;
                // The last root opens the gate and makes the first choice.
                self.choose(g, id)
            } else {
                g.incoming -= 1;
                g.progress += 1;
                self.adopt_cv.notify_all();
                Next::Nobody
            }
            // The lock is released here at the latest: the wait below
            // must not hold it.
        };
        self.hand_over(next, mine);
    }
}

/// A reference to one task of one scheduler — cloneable, sendable, and
/// the registration unit of [`WaitQueue`].
#[derive(Clone)]
pub struct Handle {
    sched: Arc<Scheduler>,
    id: TaskId,
}

impl Handle {
    /// This task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The scheduler owning this task.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Bind this task to the calling thread and block until it is first
    /// granted the run token. From then on the thread runs under the
    /// scheduler until [`retire`].
    pub fn adopt(&self) {
        let parker = Arc::new(Parker {
            grant: AtomicU8::new(NO_GRANT),
            thread: std::thread::current(),
        });
        CURRENT.with(|c| {
            debug_assert!(c.borrow().is_none(), "thread already runs a task");
            *c.borrow_mut() = Some(Current {
                handle: self.clone(),
                parker: Arc::clone(&parker),
            });
        });
        self.sched.adopt_task(self.id.0, &parker);
    }

    /// Run `body` as this task on the calling thread, the one way a
    /// thread becomes a task: adopt, run, retire. Adoption sits inside
    /// the catch because waiting for the first grant unwinds with
    /// [`Aborted`] if another task panics first; a panic of `body` aborts
    /// the run (stored as its first panic unless it is the sentinel).
    /// `None` if either unwound.
    pub fn run<T>(&self, body: impl FnOnce() -> T) -> Option<T> {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.adopt();
            body()
        }));
        let out = out.map_err(abort_current).ok();
        retire();
        out
    }

    /// Wake this task if parked (remembering the wake otherwise).
    pub fn unpark(&self) {
        self.sched.unpark(self.id);
    }
}

/// Stack size of a root task's thread. Parked tasks touch only a few
/// pages, so 10k roots cost ~10 GiB of *address space* but only the
/// touched pages of RSS.
const ROOT_STACK: usize = 1 << 20;

/// Run a fresh scheduler's `roots` root tasks, each on a thread of its
/// own (`rank-<i>`): `body(i, root)` runs on root `i`'s thread and must
/// run the task — `root.run(..)`, whose result it returns. What it keeps
/// around that call is the thread's, not the task's: a recorder binding
/// made there folds its lane after the task has given the token up.
/// Returns what the tasks returned, indexed by `i`, with the run's
/// statistics. The pooled workers die with the run. A panic in any task
/// aborts the run and comes out of this call as that panic.
pub fn run_roots<T: Send>(
    roots: usize,
    body: impl Fn(usize, &Handle) -> Option<T> + Sync,
) -> (Vec<T>, Stats) {
    let sched = Scheduler::new(roots);
    let outs: Vec<Option<T>> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..roots)
            .map(|i| {
                let (h, body) = (sched.create_root(i as u32), &body);
                std::thread::Builder::new()
                    .name(format!("rank-{i}"))
                    .stack_size(ROOT_STACK)
                    .spawn_scoped(scope, move || body(i, &h))
                    .expect("spawn root task")
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap_or(None))
            .collect()
    });
    let stats = sched.stats();
    sched.join_workers();
    if let Some(p) = sched.take_panic() {
        std::panic::resume_unwind(p);
    }
    let outs = outs.into_iter().enumerate();
    let outs = outs.map(|(i, o)| o.unwrap_or_else(|| panic!("root {i} produced no result")));
    (outs.collect(), stats)
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle").field("id", &self.id).finish()
    }
}

/// The task a thread runs, from [`Handle::adopt`] (or a pool worker
/// picking it up) to [`retire`].
struct Current {
    handle: Handle,
    parker: Arc<Parker>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Current>> = const { std::cell::RefCell::new(None) };
}

/// Run `f` on the current thread's task, if it runs one, without cloning
/// its handle. The borrow is held across a park: nothing re-enters
/// `CURRENT` mutably before [`retire`], which runs after `f` returned or
/// unwound.
fn with_current<R>(f: impl FnOnce(&Current) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(f))
}

/// The current thread's task handle, if it runs under a scheduler.
pub fn current() -> Option<Handle> {
    with_current(|cur| cur.handle.clone())
}

/// Park the current task at virtual time `now`. Panics (by design) if
/// the thread is not a task.
pub fn park(now: SimTime) -> Wake {
    park_current(Some(now)).expect("sched::park outside a task")
}

/// Park at the task's last recorded virtual time — for blocking sites
/// with no timestamp of their own (turn tickets, joins), keeping the
/// dispatch key deterministic.
pub fn park_stale() -> Wake {
    park_current(None).expect("sched::park_stale outside a task")
}

fn park_current(now: Option<SimTime>) -> Option<Wake> {
    with_current(|cur| {
        let h = &cur.handle;
        h.sched.park_task(h.id.0, &cur.parker, now)
    })
}

/// Retire the current task and clear the thread-local binding. The
/// thread may outlive the task (e.g. to return a value) but must not
/// call back into the scheduler.
pub fn retire() {
    let cur = CURRENT.with(|c| c.borrow_mut().take());
    if let Some(cur) = cur {
        cur.handle.sched.retire_task(cur.handle.id.0);
    }
}

/// Spawn a dynamic task for `rank` starting at `time` under the current
/// task's scheduler. Returns `None` on a thread that runs no task. The
/// new task's thread must take the returned handle up ([`Handle::run`])
/// before the simulation can advance.
pub fn spawn_handle(rank: u32, time: SimTime) -> Option<Handle> {
    with_current(|cur| cur.handle.sched.create_task(rank, time))
}

/// Spawn a dynamic task for `rank` starting at `time` under the current
/// task's scheduler, with `job` as its body on a pool worker. The task is
/// ready at once, under the key [`spawn_handle`] would have given it; the
/// scheduler adopts it, stores a panic of the job as the run's and
/// retires it. Panics if the calling thread runs no task.
pub fn spawn(rank: u32, time: SimTime, job: Job) -> Handle {
    spawn_reserved(rank, time, reserve_seq(), job)
}

/// Take the creation sequence number a task spawned now would get, for
/// [`spawn_reserved`] to give a task spawned later: among ready tasks of
/// equal virtual time and rank, that task dispatches as if spawned now.
/// Panics if the calling thread runs no task.
pub fn reserve_seq() -> u64 {
    let seq = with_current(|cur| Scheduler::take_seq(&mut cur.handle.sched.lock()));
    seq.expect("sched::spawn outside a task: only a task spawns a task")
}

/// [`spawn`] under a sequence number taken by [`reserve_seq`].
pub fn spawn_reserved(rank: u32, time: SimTime, seq: u64, job: Job) -> Handle {
    let sched = with_current(|cur| Arc::clone(&cur.handle.sched));
    let sched = sched.expect("sched::spawn outside a task: only a task spawns a task");
    sched.spawn_pooled(rank, time, seq, job)
}

/// Block the current task until `target` retires. No-op when the
/// current thread is not a task of the same scheduler (a request that
/// outlived its run).
pub fn join_task(target: &Handle) {
    with_current(|cur| {
        let me = &cur.handle;
        if Arc::ptr_eq(&me.sched, &target.sched) {
            me.sched.join_task_inner(me.id.0, &cur.parker, target.id.0);
        }
    });
}

/// Abort the current task's run with `payload` (stored as the run's
/// first panic unless it is the [`Aborted`] sentinel). No-op outside a
/// task.
pub fn abort_current(payload: Box<dyn Any + Send + 'static>) {
    with_current(|cur| cur.handle.sched.abort_with(payload));
}

/// The one thing a blocking site waits on: the tasks parked on its
/// condition. The site pairs it with the mutex that guards the condition;
/// consumers loop over the condition around [`WaitQueue::wait`], producers
/// change it *under that mutex* and then [`WaitQueue::wake_all`].
///
/// Why no wake-up is lost. A task registers and parks while it still
/// holds the run token, and producers are tasks too, so none runs between
/// its check and its park. A wake is a map drain and never enters the
/// kernel.
#[derive(Default)]
pub struct WaitQueue {
    /// Keyed by (scheduler address, task id): a repeated registration is
    /// found without a scan, and one scheduler's tasks are adjacent, so
    /// `wake_all` takes each scheduler's lock once. The handle keeps the
    /// scheduler alive, so the address names it for as long as the entry
    /// exists. Wake order is immaterial: the ready-heap key is total.
    waiters: Mutex<BTreeMap<(usize, usize), Handle>>,
}

impl WaitQueue {
    /// A fresh, empty queue.
    pub const fn new() -> Self {
        WaitQueue {
            waiters: Mutex::new(BTreeMap::new()),
        }
    }

    fn register(&self, h: &Handle) {
        relock(self.waiters.lock())
            .entry((Arc::as_ptr(&h.sched) as usize, h.id.0))
            .or_insert_with(|| h.clone());
    }

    /// Register the current task (if any); duplicates are ignored, so
    /// re-registering on every loop iteration is fine.
    pub fn register_current(&self) {
        with_current(|cur| self.register(&cur.handle));
    }

    /// Wait for a [`WaitQueue::wake_all`], having found the condition
    /// false under `guard` (a hold of `lock`): register, release the
    /// guard and park at virtual time `at` (the task's last recorded time
    /// if `None`). A stall round resumes the task with [`Wake::Stalled`].
    /// Either way the lock is held again on return and the caller
    /// re-checks.
    ///
    /// Panics if the calling thread runs no task (whoever would wake it
    /// is a task, and tasks only run while it does not), or if `lock` is
    /// poisoned, like the `lock().unwrap()` that produced `guard`.
    pub fn wait<'a, T>(
        &self,
        lock: &'a Mutex<T>,
        guard: MutexGuard<'a, T>,
        at: Option<SimTime>,
    ) -> (MutexGuard<'a, T>, Wake) {
        let wake = with_current(|cur| {
            self.register(&cur.handle);
            drop(guard);
            cur.handle.sched.park_task(cur.handle.id.0, &cur.parker, at)
        });
        let wake = wake.expect(
            "WaitQueue::wait on a thread that runs no task: every blocking site \
             runs under the scheduler (sched::run_roots, Handle::run, sched::spawn)",
        );
        (lock.lock().expect("wait-site mutex poisoned"), wake)
    }

    /// The loop most sites are: `take` from what `lock` guards, waiting
    /// ([`WaitQueue::wait`]) while it yields nothing; `None` once a wait
    /// stalls, so the caller can re-check liveness and call again.
    pub fn take_or_wait<S, T>(
        &self,
        lock: &Mutex<S>,
        at: Option<SimTime>,
        mut take: impl FnMut(&mut S) -> Option<T>,
    ) -> Option<T> {
        let mut guard = lock.lock().expect("wait-site mutex poisoned");
        loop {
            if let Some(found) = take(&mut guard) {
                return Some(found);
            }
            let (relocked, wake) = self.wait(lock, guard, at);
            if wake == Wake::Stalled {
                return None;
            }
            guard = relocked;
        }
    }

    /// Wake every registered task and clear the queue.
    pub fn wake_all(&self) {
        let drained = {
            let mut w = relock(self.waiters.lock());
            if w.is_empty() {
                return;
            }
            std::mem::take(&mut *w)
        };
        let mut drained = drained.into_values().peekable();
        while let Some(first) = drained.next() {
            let mut g = first.sched.lock();
            Scheduler::unpark_in(&mut g, first.id.0);
            while let Some(h) = drained.next_if(|h| Arc::ptr_eq(&h.sched, &first.sched)) {
                Scheduler::unpark_in(&mut g, h.id.0);
            }
        }
    }
}

impl std::fmt::Debug for WaitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = relock(self.waiters.lock()).len();
        f.debug_struct("WaitQueue").field("waiters", &n).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimDuration;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Run `bodies` as root tasks under one scheduler; returns stats.
    fn run_tasks(bodies: Vec<Box<dyn FnOnce() + Send>>) -> Stats {
        let bodies: Vec<_> = bodies.into_iter().map(|b| Mutex::new(Some(b))).collect();
        let once = |i: usize| bodies[i].lock().unwrap().take().expect("a root runs once");
        run_roots(bodies.len(), |i, root| root.run(once(i))).1
    }

    #[test]
    fn two_tasks_ping_pong_deterministically() {
        // Task 0 produces 100 items; task 1 consumes them through a
        // WaitQueue-guarded slot. Order of consumption is pinned.
        let slot = Arc::new(Mutex::new(Vec::<usize>::new()));
        let wq = Arc::new(WaitQueue::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (s2, w2, e2) = (Arc::clone(&slot), Arc::clone(&wq), Arc::clone(&seen));
        let (s1, w1) = (Arc::clone(&slot), Arc::clone(&wq));
        let stats = run_tasks(vec![
            Box::new(move || {
                let mut t = SimTime::ZERO;
                for i in 0..100 {
                    t += SimDuration::from_ns(10);
                    s1.lock().unwrap().push(i);
                    w1.wake_all();
                    park(t);
                }
            }),
            Box::new(move || {
                let mut t = SimTime::ZERO;
                let mut got = 0usize;
                while got < 100 {
                    let drained: Vec<usize> = std::mem::take(&mut *s2.lock().unwrap());
                    if drained.is_empty() {
                        w2.register_current();
                        park(t);
                        continue;
                    }
                    got += drained.len();
                    e2.lock().unwrap().extend(drained);
                    t += SimDuration::from_ns(10);
                }
            }),
        ]);
        let seen = seen.lock().unwrap();
        assert_eq!(*seen, (0..100).collect::<Vec<_>>());
        assert!(stats.events > 0);
        assert_eq!(stats.tasks_high_water, 2);
    }

    #[test]
    fn tie_break_is_time_then_rank() {
        // Three tasks all parked at the same virtual time resume in rank
        // order; at different times, in time order.
        let order = Arc::new(Mutex::new(Vec::new()));
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..3u32)
            .map(|rank| {
                let order = Arc::clone(&order);
                Box::new(move || {
                    // Park at t=100 for everyone: wake order = rank order.
                    let w = park(SimTime::ZERO + SimDuration::from_ns(100));
                    assert_eq!(w, Wake::Stalled);
                    order.lock().unwrap().push(rank);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        run_tasks(bodies);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn stall_round_wakes_blocked_tasks() {
        // A task parked with nobody to wake it gets a Stalled wake
        // instead of hanging.
        let stalls = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&stalls);
        let stats = run_tasks(vec![Box::new(move || {
            if park(SimTime::ZERO) == Wake::Stalled {
                s.fetch_add(1, Ordering::Relaxed);
            }
        })]);
        assert_eq!(stalls.load(Ordering::Relaxed), 1);
        assert!(stats.stalls >= 1);
    }

    #[test]
    fn barren_stalls_panic_with_task_table() {
        let r = std::panic::catch_unwind(|| {
            run_tasks(vec![Box::new(|| loop {
                park(SimTime::ZERO);
            })]);
        });
        let p = r.expect_err("deadlock must panic");
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("task table"), "{msg}");
    }

    #[test]
    fn dynamic_task_spawn_and_join() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        run_tasks(vec![Box::new(move || {
            let child = spawn_handle(0, SimTime::ZERO + SimDuration::from_ns(5)).unwrap();
            let lc = Arc::clone(&l);
            let hc = child.clone();
            let jh = std::thread::spawn(move || hc.run(|| lc.lock().unwrap().push("child")));
            join_task(&child);
            l.lock().unwrap().push("parent-after-join");
            jh.join().unwrap();
        })]);
        assert_eq!(*log.lock().unwrap(), vec!["child", "parent-after-join"]);
    }

    #[test]
    fn panic_in_one_task_aborts_all() {
        let r = std::panic::catch_unwind(|| {
            run_tasks(vec![
                Box::new(|| panic!("boom in task 0")),
                Box::new(|| {
                    // Would deadlock forever without the abort.
                    loop {
                        park(SimTime::ZERO);
                    }
                }),
            ]);
        });
        let p = r.expect_err("panic must propagate");
        let msg = p.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom in task 0");
    }

    #[test]
    fn exited_tasks_keep_no_parker_thread_or_waiters() {
        // 10 000 spawn/join cycles, the shape of a nonblocking request:
        // what a task needs only while live goes at `retire`, and stall
        // rounds and aborts walk the live tasks, not everyone ever made.
        const CYCLES: usize = 10_000;
        let parkers = Arc::new(Mutex::new(Vec::<std::sync::Weak<Parker>>::new()));
        let sched_out = Arc::new(Mutex::new(None));
        let (p, so) = (Arc::clone(&parkers), Arc::clone(&sched_out));
        let stats = run_tasks(vec![Box::new(move || {
            let sched = Arc::clone(current().unwrap().scheduler());
            for i in 0..CYCLES {
                let child = spawn_handle(0, SimTime::ZERO).unwrap();
                let (hc, pc) = (child.clone(), Arc::clone(&p));
                let jh = std::thread::spawn(move || {
                    hc.run(|| {
                        let mine = with_current(|cur| Arc::downgrade(&cur.parker)).unwrap();
                        pc.lock().unwrap().push(mine);
                    })
                });
                join_task(&child);
                jh.join().unwrap();
                if i % 1000 == 0 {
                    assert_eq!(sched.lock().live, vec![0], "cycle {i}");
                    // A stall round with 1 + i exited tasks in the table.
                    assert_eq!(park(SimTime::ZERO), Wake::Stalled);
                    // Joining a task long gone returns at once.
                    join_task(&child);
                }
            }
            *so.lock().unwrap() = Some(sched);
        })]);
        assert_eq!(stats.tasks_high_water, 2);
        let parkers = parkers.lock().unwrap();
        assert_eq!(parkers.len(), CYCLES);
        assert!(
            parkers.iter().all(|p| p.upgrade().is_none()),
            "an exited task's parker (and its Thread handle) outlived the task"
        );
        let sched = sched_out.lock().unwrap().take().unwrap();
        let g = sched.lock();
        assert!(g.live.is_empty());
        assert_eq!(g.tasks.len(), 1 + CYCLES);
        assert!(g.tasks.iter().all(|t| t.status == Status::Exited
            && t.parker.is_none()
            && t.exit_waiters.capacity() == 0));
    }

    #[test]
    fn pooled_tasks_reuse_their_workers() {
        // `live` tasks at once, over and over — the shape of a rank with
        // `live` requests in flight per iteration: the pool grows to the
        // peak and no further, and teardown joins every worker it made.
        for (live, rounds) in [(1usize, 10_000usize), (5, 1_000)] {
            let sched_out = Arc::new(Mutex::new(None));
            let so = Arc::clone(&sched_out);
            let stats = run_tasks(vec![Box::new(move || {
                let sched = Arc::clone(current().unwrap().scheduler());
                let done = Arc::new(AtomicUsize::new(0));
                for round in 1..=rounds {
                    let tasks: Vec<Handle> = (0..live)
                        .map(|_| {
                            let done = Arc::clone(&done);
                            let job = Box::new(move || {
                                done.fetch_add(1, Ordering::Relaxed);
                            });
                            spawn(0, SimTime::ZERO, job)
                        })
                        .collect();
                    tasks.iter().for_each(join_task);
                    // What a job did is visible to whoever joined it.
                    assert_eq!(done.load(Ordering::Relaxed), round * live);
                    let g = sched.lock();
                    assert_eq!(g.live, vec![0], "round {round}");
                    assert_eq!(g.idle.len(), live, "round {round}");
                }
                *so.lock().unwrap() = Some(Arc::clone(&sched));
            })]);
            // One worker per simultaneously live task (above), and
            // teardown took every one of them.
            let sched = sched_out.lock().unwrap().take().unwrap();
            assert!(sched.lock().closed && sched.lock().idle.is_empty());
            assert_eq!(stats.tasks_high_water, 1 + live);
        }
    }

    #[test]
    fn panicking_job_aborts_the_run_and_queued_jobs_never_run() {
        // The root queues two pooled tasks and joins the first, whose job
        // panics; the second is ready but never granted.
        let (second_ran, closed) = std::sync::mpsc::channel();
        let joined = Arc::new(AtomicBool::new(false));
        let returned = Arc::clone(&joined);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tasks(vec![Box::new(move || {
                let first = spawn(0, SimTime::ZERO, Box::new(|| panic!("boom in a job")));
                let second = Box::new(move || second_ran.send(()).unwrap());
                let _ = spawn(0, SimTime::ZERO, second);
                join_task(&first);
                returned.store(true, Ordering::SeqCst);
            })]);
        }));
        let p = r.expect_err("the launcher re-throws the job's panic, not Aborted");
        assert_eq!(p.downcast_ref::<&str>(), Some(&"boom in a job"));
        assert!(!joined.load(Ordering::SeqCst), "the join unwinds instead");
        // Its worker drops the second job unrun: the channel closes empty.
        assert!(closed.recv().is_err());
    }

    #[test]
    fn double_registration_is_one_wake_and_no_extra_event() {
        // Task 0 registers `regs` times and parks; task 1 wakes the queue.
        // A second wake would be remembered (`pending_wake`) and turn the
        // unregistered park that follows from Stalled into Woken.
        fn scenario(regs: usize) -> (Vec<Wake>, Stats) {
            let wq = Arc::new(WaitQueue::new());
            let wakes = Arc::new(Mutex::new(Vec::new()));
            let (w0, w1, seen) = (Arc::clone(&wq), Arc::clone(&wq), Arc::clone(&wakes));
            let stats = run_tasks(vec![
                Box::new(move || {
                    for _ in 0..regs {
                        w0.register_current();
                    }
                    let first = park(SimTime::ZERO);
                    let second = park(SimTime::ZERO);
                    seen.lock().unwrap().extend([first, second]);
                }),
                Box::new(move || w1.wake_all()),
            ]);
            let wakes = wakes.lock().unwrap().clone();
            (wakes, stats)
        }
        let (once, stats_once) = scenario(1);
        let (twice, stats_twice) = scenario(2);
        assert_eq!(once, vec![Wake::Woken, Wake::Stalled]);
        assert_eq!(twice, once);
        assert_eq!(stats_twice.events, stats_once.events);
        assert_eq!(stats_twice.stalls, stats_once.stalls);
    }

    #[test]
    fn pending_wake_is_not_lost() {
        // Producer wakes the consumer *before* it parks; the park must
        // return immediately rather than deadlock.
        let wq = Arc::new(WaitQueue::new());
        let w1 = Arc::clone(&wq);
        let w2 = Arc::clone(&wq);
        run_tasks(vec![
            Box::new(move || {
                w1.register_current();
                // Let the producer run first (it has rank 1 but we park).
                if park(SimTime::ZERO) == Wake::Stalled {
                    // Producer hadn't run yet; re-register and park again.
                    w1.register_current();
                    park(SimTime::ZERO);
                }
            }),
            Box::new(move || {
                w2.wake_all();
            }),
        ]);
    }

    #[test]
    fn a_task_waits_on_its_queue_1000_times() {
        // Task 0 waits until task 1 has counted to 1 000, re-checking
        // under the relocked guard after every wake.
        let site = Arc::new((Mutex::new(0u32), WaitQueue::new()));
        let (waiter, waker) = (Arc::clone(&site), Arc::clone(&site));
        run_tasks(vec![
            Box::new(move || {
                let (lock, wq) = &*waiter;
                let mut seen = lock.lock().unwrap();
                while *seen < 1_000 {
                    seen = wq.wait(lock, seen, Some(SimTime::ZERO)).0;
                }
            }),
            Box::new(move || {
                let (lock, wq) = &*waker;
                for _ in 0..1_000 {
                    *lock.lock().unwrap() += 1;
                    wq.wake_all();
                    park(SimTime::ZERO);
                }
            }),
        ]);
        assert_eq!(*site.0.lock().unwrap(), 1_000);
    }

    #[test]
    fn a_stalled_wait_takes_nothing_and_a_thread_that_runs_no_task_may_not_wait() {
        let site = Arc::new((Mutex::new(None::<u8>), WaitQueue::new()));
        let theirs = Arc::clone(&site);
        let stats = run_tasks(vec![Box::new(move || {
            let (lock, wq) = &*theirs;
            // Nobody fills the slot: the wait ends in a stall round.
            assert_eq!(wq.take_or_wait(lock, None, |slot| slot.take()), None);
            *lock.lock().unwrap() = Some(7);
            assert_eq!(wq.take_or_wait(lock, None, |slot| slot.take()), Some(7));
        })]);
        assert_eq!((stats.stalls, stats.events), (1, 2), "one park, one retire");
        let (lock, wq) = &*site;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = wq.wait(lock, lock.lock().unwrap(), None);
        }));
        let p = r.expect_err("a plain thread must not sleep on a wait queue");
        assert!(p.downcast_ref::<String>().unwrap().contains("runs no task"));
        // The guard went with the panic: not held, not poisoned.
        assert!(lock.try_lock().is_ok());
    }

    #[test]
    fn a_task_that_unwinds_out_of_wait_leaves_the_site_usable() {
        let site = Arc::new((Mutex::new(()), WaitQueue::new()));
        let theirs = Arc::clone(&site);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tasks(vec![
                Box::new(move || {
                    let (lock, wq) = &*theirs;
                    let mut g = lock.lock().unwrap();
                    loop {
                        g = wq.wait(lock, g, Some(SimTime::ZERO)).0;
                    }
                }),
                Box::new(|| panic!("boom beside a waiter")),
            ]);
        }));
        assert!(r.is_err());
        // The guard went before the park: not held, not poisoned.
        assert!(site.0.try_lock().is_ok());
    }
}

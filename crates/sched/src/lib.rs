//! # sched — deterministic discrete-event task scheduler
//!
//! The one way a rank runs: a **cooperative virtual-time scheduler**.
//! Every rank, request engine and `sendrecv` send half is a *task*: a
//! stackful coroutine on the thread that called [`run_roots`]. Exactly
//! one task holds the **run token** at any moment. A task keeps the token
//! until it reaches a blocking site (mailbox match, ring-slot
//! acquisition, barrier, lock, request wait, backpressure stall) and
//! parks; the token passes to the runnable task with the smallest
//! `(virtual time, rank, sequence)` key. Dispatch order is therefore a
//! pure function of the simulation state — same seed, same interleaving,
//! bit for bit — and a handoff is two user-mode stack switches, not a
//! system call.
//!
//! [`run_roots`] makes a task per rank; a task [`spawn`]s more (request
//! engines, `sendrecv` send halves), each born *ready* under the key
//! given at its spawn, and [`join_task`]s them.
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
//! (unparks, spawns, retirements); consecutive stall rounds without
//! progress mean a genuine deadlock and panic with a task-table dump
//! instead of hanging CI.
//!
//! ## Handoff
//!
//! A parking task marks itself blocked under the scheduler mutex,
//! releases it and switches to the *driver*: the loop [`run_roots`] runs
//! on the launching thread's own stack. The driver pops the successor
//! under the mutex (after a stall round if everyone is blocked) and
//! switches to it. A task with a wake pending returns from its park
//! without switching. Thread-local state of the crates above that belongs
//! to a task rather than to the thread follows it through [`TaskLocal`].
//!
//! ## Adopted threads
//!
//! [`Scheduler::new`], [`Scheduler::create_root`], [`Handle::adopt`] (or
//! [`Handle::run`]), [`spawn_handle`] and [`retire`] run tasks as OS
//! threads of their own that hand the token over with a futex wake. The
//! host benchmark's scheduler probes measure that handoff; no runtime
//! code uses it. [`spawn`] on such a thread panics.
//!
//! See `docs/SCHEDULER.md` for the full model.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "sched runs every task as a coroutine with a hand-written x86_64 context \
     switch and mmap'd stacks: x86_64 Linux is the one supported target"
);

mod coro;

use simclock::SimTime;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::ffi::c_void;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Thread;

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

/// An adopted thread's end of the handoff: the flag its thread waits on
/// and the thread to poke. The task table holds it so a granter can
/// reach it, the thread's [`Current`] so the wait never takes the
/// scheduler mutex.
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

/// Outcome of [`Scheduler::choose`] on an adopted thread.
enum Next {
    /// No grant: the run aborted, the root gate is shut, or no live task
    /// remains.
    Nobody,
    /// The chooser itself is next and keeps running.
    Me(Wake),
    /// Another task is next; the chooser grants it outside the lock.
    Task(Arc<Parker>, Wake),
}

/// The body of a spawned task ([`spawn`]).
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Thread-local state of a crate above this one that belongs to the task
/// running on the thread, not to the thread: a recorder binding, a
/// protocol-section flag. The driver exchanges a task's value with the
/// thread's when it switches to the task and again when the task switches
/// back, so a task sees only its own and the launching thread, between
/// tasks, its own. A task starts from `Default::default()`.
pub trait TaskLocal: Send + 'static {
    /// Exchange the calling thread's state with `self`.
    fn swap(&mut self);
}

impl TaskLocal for () {
    fn swap(&mut self) {}
}

/// A coroutine's side of the switch: where its own and the driver's
/// stack pointers wait while the other runs.
struct Context {
    /// The coroutine's stack pointer while it is switched out.
    sp: Cell<*mut u8>,
    /// The driver's stack pointer while the coroutine runs.
    back: Cell<*mut u8>,
    /// What the driver resumed the coroutine with.
    wake: Cell<Wake>,
    /// The coroutine retired: its last switch out has happened.
    done: Cell<bool>,
}

impl Context {
    /// Switch to the driver; returns when the driver resumes this
    /// coroutine.
    fn suspend(&self) {
        debug_assert!(
            !std::thread::panicking(),
            "a coroutine switched while unwinding"
        );
        // SAFETY: `back` is where the driver switched from to resume this
        // coroutine, and it has not been resumed since.
        unsafe { coro::switch(self.sp.as_ptr(), self.back.get()) };
    }
}

/// A coroutine task: its stack, its body until the first resumption, and
/// its [`TaskLocal`] state. Boxed and reached by pointer ([`CoroPtr`]):
/// its own frames hold references into it while it is switched out.
struct Coroutine {
    cur: Current,
    stack: coro::Stack,
    job: Cell<Option<Job>>,
    /// The task's thread-local state while it is switched out, the
    /// driver's while it runs.
    locals: RefCell<Box<dyn TaskLocal>>,
}

impl Coroutine {
    /// The record that runs `job` as `handle`'s task on `stack`.
    fn make(stack: coro::Stack, handle: Handle, job: Job, locals: Box<dyn TaskLocal>) -> CoroPtr {
        let context = Context {
            sp: Cell::new(std::ptr::null_mut()),
            back: Cell::new(std::ptr::null_mut()),
            wake: Cell::new(Wake::Woken),
            done: Cell::new(false),
        };
        let record = Box::new(Coroutine {
            cur: Current {
                handle,
                runner: Runner::Coroutine(context),
            },
            stack,
            job: Cell::new(Some(job)),
            locals: RefCell::new(locals),
        });
        let record = NonNull::from(Box::leak(record));
        // SAFETY: just leaked; the driver frees it after its last switch.
        let co = unsafe { record.as_ref() };
        let sp = co
            .stack
            .start(coroutine_main, record.as_ptr() as *const c_void);
        co.context().sp.set(sp);
        CoroPtr(record)
    }

    fn context(&self) -> &Context {
        match &self.cur.runner {
            Runner::Coroutine(ctx) => ctx,
            Runner::Thread(_) => unreachable!("a coroutine's runner is its context"),
        }
    }

    /// Run the coroutine until it parks or retires, as the current task
    /// of the calling thread and with its thread-local state in place.
    fn resume(&self, wake: Wake) {
        let ctx = self.context();
        ctx.wake.set(wake);
        self.locals.borrow_mut().swap();
        let outer = CURRENT.replace(&self.cur);
        // SAFETY: `sp` is where the coroutine last switched out (or its
        // start frame), not resumed since; its stack is this record's.
        unsafe { coro::switch(ctx.back.as_ptr(), ctx.sp.get()) };
        CURRENT.set(outer);
        self.locals.borrow_mut().swap();
    }
}

/// Where every coroutine starts, on its own stack: run the job (unless
/// the run aborted first), store a panic as the run's, retire, and
/// switch out for the last time.
extern "C" fn coroutine_main(record: *const c_void) -> ! {
    // SAFETY: the driver frees the record only after the last switch
    // below.
    let record = unsafe { &*(record as *const Coroutine) };
    let handle = &record.cur.handle;
    let job = record.job.take();
    let out = catch_unwind(AssertUnwindSafe(move || {
        if handle.sched.is_aborted() {
            // Resumed only to unwind: the job is dropped unrun.
            panic_any(Aborted);
        }
        job.expect("a coroutine runs its job once")()
    }));
    if let Err(p) = out {
        handle.sched.abort_with(p);
    }
    handle.sched.retire_task(handle.id.0, false);
    let ctx = record.context();
    ctx.done.set(true);
    ctx.suspend();
    unreachable!("a retired coroutine was resumed")
}

/// A coroutine record in the task table.
#[derive(Clone, Copy)]
struct CoroPtr(NonNull<Coroutine>);

// SAFETY: a record is dereferenced only on the thread that drives its
// run (by the driver, the coroutine itself and the tasks that spawn);
// another thread that locks the task table (a wake from outside the run)
// never touches the pointer.
unsafe impl Send for CoroPtr {}

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
    /// An adopted task's parker, set at adoption and dropped at
    /// retirement (with the thread handle it holds).
    parker: Option<Arc<Parker>>,
    /// A coroutine task's record, until its last switch out.
    coro: Option<CoroPtr>,
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
    /// Stacks of retired coroutines: the next spawn reuses one, so a run
    /// holds as many stacks as it had tasks live at once.
    spare: Vec<coro::Stack>,
    next_seq: u64,
    /// Unparks + adoptions + spawns + retirements — the progress measure
    /// that separates productive stall rounds from deadlock.
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

/// A deterministic cooperative scheduler over coroutine tasks (a
/// [`run_roots`] run) or adopted OS threads ([`Scheduler::new`]).
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
    /// A fresh coroutine's [`TaskLocal`] state, for a [`run_roots`] run;
    /// `None` for a scheduler of adopted threads.
    locals: Option<fn() -> Box<dyn TaskLocal>>,
}

// Scheduler-internal locks tolerate poisoning: a panicking task unwinds
// through park/retire and the launcher still needs the lock to tear the
// run down and re-throw the stored panic.
fn relock<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Scheduler {
    /// A scheduler of adopted threads expecting `roots` root tasks (one
    /// per rank). Dispatch opens once all roots have been adopted.
    pub fn new(roots: usize) -> Arc<Self> {
        Self::create(roots, None)
    }

    fn create(roots: usize, locals: Option<fn() -> Box<dyn TaskLocal>>) -> Arc<Self> {
        Arc::new(Scheduler {
            inner: Mutex::new(Inner {
                tasks: Vec::with_capacity(roots),
                ready: BinaryHeap::with_capacity(roots),
                running: None,
                gate: if locals.is_some() { 0 } else { roots },
                incoming: 0,
                live: Vec::with_capacity(roots),
                spare: Vec::new(),
                next_seq: 0,
                progress: 0,
                progress_at_stall: 0,
                barren_stalls: 0,
                stats: Stats::default(),
            }),
            adopt_cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            first_panic: Mutex::new(None),
            locals,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        relock(self.inner.lock())
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Create a root task for `rank` starting at virtual time zero, for
    /// a thread of its own to [`Handle::adopt`].
    pub fn create_root(self: &Arc<Self>, rank: u32) -> Handle {
        let mut g = self.lock();
        let id = Self::create_in(&mut g, rank, SimTime::ZERO, None, true);
        Handle {
            sched: Arc::clone(self),
            id,
        }
    }

    /// Create a dynamic task starting at `time`, to be adopted by a
    /// thread of its own. The creating task keeps running; dispatch will
    /// not pop the heap again until that thread has adopted it.
    pub fn create_task(self: &Arc<Self>, rank: u32, time: SimTime) -> Handle {
        let mut g = self.lock();
        g.incoming += 1;
        let id = Self::create_in(&mut g, rank, time, None, false);
        Handle {
            sched: Arc::clone(self),
            id,
        }
    }

    /// Create a coroutine task that runs `job`, *ready* in the lock hold
    /// that creates it, under `seq` ([`reserve_seq`]) or the next
    /// sequence number. Panics on a scheduler of adopted threads.
    fn spawn_coroutine(
        self: &Arc<Self>,
        (rank, time, seq): (u32, SimTime, Option<u64>),
        root: bool,
        job: Job,
    ) -> Handle {
        let locals = self.locals.expect(
            "sched::spawn on an adopted thread: coroutine tasks run only under sched::run_roots",
        );
        let mut g = self.lock();
        let id = Self::create_in(&mut g, rank, time, seq, root);
        let handle = Handle {
            sched: Arc::clone(self),
            id,
        };
        let stack = g.spare.pop().unwrap_or_else(coro::Stack::take);
        g.tasks[id.0].coro = Some(Coroutine::make(stack, handle.clone(), job, locals()));
        if !root {
            g.progress += 1;
        }
        g.push_ready(id.0);
        handle
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
            coro: None,
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
    /// its next park, a waiting one now — an adopted thread at once, a
    /// coroutine when the driver resumes it).
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
    /// unwinding with it after every task has finished.
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

    /// Pop the best ready task as the next holder of the run token and
    /// mark it running; `None` if the run aborted, the root gate is shut
    /// or no live task remains. Called with no task running. Waits
    /// (deterministically) while spawned tasks have not yet been adopted,
    /// and runs a stall round when every live task is blocked — which
    /// panics on a deadlock.
    fn pick<'a>(
        &self,
        mut g: MutexGuard<'a, Inner>,
    ) -> (MutexGuard<'a, Inner>, Option<(usize, Wake)>) {
        debug_assert!(g.running.is_none());
        loop {
            if self.is_aborted() || g.gate > 0 || g.live.is_empty() {
                return (g, None);
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
                return (g, Some((id, wake)));
            }
            // Ready heap empty, nothing incoming, nothing running, yet
            // live tasks exist: everyone is blocked. Stall round.
            self.stall_round(&mut g);
        }
    }

    /// [`Scheduler::pick`] for an adopted thread (`me`: parking, adopting
    /// or retiring), releasing the lock; the caller delivers the grant.
    fn choose(&self, g: MutexGuard<'_, Inner>, me: usize) -> Next {
        let (g, picked) = self.pick(g);
        match picked {
            None => Next::Nobody,
            Some((id, wake)) if id == me => Next::Me(wake),
            Some((id, wake)) => {
                let parker = g.tasks[id].parker.as_ref();
                Next::Task(Arc::clone(parker.expect("ready tasks are adopted")), wake)
            }
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

    /// The driver of a [`run_roots`] run: resume the task [`pick`] names
    /// until no live task remains. Once the run has aborted, every live
    /// task is resumed in turn to unwind with [`Aborted`] instead; a
    /// deadlock panic from a stall round aborts the run like a task's
    /// panic. A retired coroutine's record is freed after its last switch
    /// and its stack goes to the spare list, which the process keeps
    /// mapped for its next runs when this one ends.
    ///
    /// [`pick`]: Scheduler::pick
    fn drive(&self) {
        loop {
            let next = catch_unwind(AssertUnwindSafe(|| self.next_coroutine()));
            let (co, wake) = match next {
                Ok(Some(next)) => next,
                Ok(None) => break,
                Err(p) => {
                    self.abort_with(p);
                    continue;
                }
            };
            // SAFETY: records are freed only below, after their last
            // switch out.
            let record = unsafe { co.0.as_ref() };
            record.resume(wake);
            if record.context().done.get() {
                let id = record.cur.handle.id.0;
                // SAFETY: its coroutine made its last switch; nothing
                // refers to the record any more.
                let record = unsafe { Box::from_raw(co.0.as_ptr()) };
                let mut g = self.lock();
                g.tasks[id].coro = None;
                g.spare.push(record.stack);
            }
        }
        coro::Stack::retire(&mut self.lock().spare);
    }

    /// The coroutine the driver resumes next, and with what.
    fn next_coroutine(&self) -> Option<(CoroPtr, Wake)> {
        let g = self.lock();
        let (g, next) = if self.is_aborted() {
            let first = g.live.first().map(|&id| (id, Wake::Woken));
            (g, first)
        } else {
            self.pick(g)
        };
        let (id, wake) = next?;
        let co = g.tasks[id]
            .coro
            .expect("a live task of a run_roots run is a coroutine");
        Some((co, wake))
    }

    /// Deliver `next`'s grant, then wait for this adopted thread's own:
    /// until its flag holds one, or the run aborts. Never touches the
    /// scheduler mutex. `thread::park` tokens are advisory — `thread::scope`,
    /// `mpsc` and any other std primitive park and unpark the same threads
    /// — so the loop trusts only the two flags.
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

    /// Give up the run token held by `cur` as a blocked task and wait to
    /// be granted it again: an adopted thread chooses its successor and
    /// waits on its flag, a coroutine switches to the driver.
    fn block(&self, mut g: MutexGuard<'_, Inner>, cur: &Current) -> Wake {
        let me = cur.handle.id.0;
        g.tasks[me].status = Status::Blocked;
        g.tasks[me].stalled = false;
        g.running = None;
        match &cur.runner {
            Runner::Thread(parker) => {
                let next = self.choose(g, me);
                self.hand_over(next, parker)
            }
            Runner::Coroutine(ctx) => {
                drop(g);
                ctx.suspend();
                if self.is_aborted() {
                    panic_any(Aborted);
                }
                ctx.wake.get()
            }
        }
    }

    /// Park the current task `cur` at virtual time `now` (or its last
    /// recorded time if `None`) and hand the token over. Returns when the
    /// task is granted the token again.
    fn park_task(&self, cur: &Current, now: Option<SimTime>) -> Wake {
        let me = cur.handle.id.0;
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
        self.block(g, cur)
    }

    /// Retire task `me`: mark it exited, release what only a live task
    /// needs, wake joiners. An adopted thread (`grant_next`) also grants
    /// a successor; a coroutine leaves that to the driver it switches to.
    /// The task must not touch the scheduler afterwards.
    fn retire_task(&self, me: usize, grant_next: bool) {
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
        for w in std::mem::take(&mut g.tasks[me].exit_waiters) {
            Self::unpark_in(&mut g, w);
        }
        if g.running == Some(me) {
            g.running = None;
            if !grant_next {
                return;
            }
            if let Next::Task(parker, wake) = self.choose(g, me) {
                parker.grant(wake);
            }
        }
    }

    /// Block the current task `cur` until `target` exits.
    fn join_task_inner(&self, cur: &Current, target: usize) {
        let me = cur.handle.id.0;
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
            self.block(g, cur);
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
        debug_assert!(CURRENT.get().is_null(), "thread already runs a task");
        let cur = Box::new(Current {
            handle: self.clone(),
            runner: Runner::Thread(Arc::clone(&parker)),
        });
        CURRENT.set(Box::into_raw(cur));
        self.sched.adopt_task(self.id.0, &parker);
    }

    /// Run `body` as this task on the calling thread, the one way a
    /// thread becomes a task: adopt, run, retire. Adoption sits inside
    /// the catch because waiting for the first grant unwinds with
    /// [`Aborted`] if another task panics first; a panic of `body` aborts
    /// the run (stored as its first panic unless it is the sentinel).
    /// `None` if either unwound.
    pub fn run<T>(&self, body: impl FnOnce() -> T) -> Option<T> {
        let out = catch_unwind(AssertUnwindSafe(|| {
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

/// Run a fresh scheduler's `roots` root tasks as coroutines on the
/// calling thread: root `i` runs `body(i)`. Returns what the roots
/// returned, indexed by `i`, with the run's statistics. A panic in any
/// task aborts the run: every other task unwinds with [`Aborted`],
/// running its destructors, and the panic comes out of this call.
///
/// Each task runs on a 1 MiB stack taken from the stacks earlier runs in
/// the process left, or mapped if none is left ([`stacks_mapped`]). The
/// run's stacks stay mapped when it returns, for the process's next
/// runs: a process keeps as many as its runs held at once, each costing
/// the pages its tasks touched.
pub fn run_roots<T: Send>(roots: usize, body: impl Fn(usize) -> T + Sync) -> (Vec<T>, Stats) {
    run_roots_with::<(), T>(roots, body)
}

/// [`run_roots`] with `L` as every task's [`TaskLocal`] state.
pub fn run_roots_with<L: TaskLocal + Default, T: Send>(
    roots: usize,
    body: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, Stats) {
    let sched = Scheduler::create(roots, Some(|| Box::new(L::default())));
    let outs: Vec<Mutex<Option<T>>> = (0..roots).map(|_| Mutex::new(None)).collect();
    for (i, out) in outs.iter().enumerate() {
        let body = &body;
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            *relock(out.lock()) = Some(body(i));
        });
        // SAFETY: the job borrows `body` and `outs`, which outlive every
        // task of the run: `drive` returns only once no task is live, and
        // a task has then run its job or dropped it unrun.
        let job: Job = unsafe { std::mem::transmute(job) };
        sched.spawn_coroutine((i as u32, SimTime::ZERO, None), true, job);
    }
    sched.drive();
    let stats = sched.stats();
    if let Some(p) = sched.take_panic() {
        std::panic::resume_unwind(p);
    }
    let outs = outs.into_iter().enumerate();
    let outs = outs.map(|(i, o)| {
        let out = relock(o.into_inner());
        out.unwrap_or_else(|| panic!("root {i} produced no result"))
    });
    (outs.collect(), stats)
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle").field("id", &self.id).finish()
    }
}

/// The task a thread runs, and how it gives the run token up.
struct Current {
    handle: Handle,
    runner: Runner,
}

enum Runner {
    /// An adopted OS thread, granted the token through its parker.
    Thread(Arc<Parker>),
    /// A coroutine of a [`run_roots`] run.
    Coroutine(Context),
}

thread_local! {
    /// The task the thread runs: the coroutine the driver resumed, or an
    /// adopted task's [`Current`], boxed by [`Handle::adopt`] and owned
    /// by this binding until [`retire`].
    static CURRENT: Cell<*const Current> = const { Cell::new(std::ptr::null()) };
}

/// Run `f` on the current thread's task, if it runs one. `f` may park:
/// a coroutine's `Current` lives in its record, which outlives every
/// frame on its stack, and an adopted one lives until [`retire`], which
/// runs after `f` returned or unwound.
fn with_current<R>(f: impl FnOnce(&Current) -> R) -> Option<R> {
    let cur = CURRENT.get();
    // SAFETY: see above — a non-null binding points at a live `Current`.
    (!cur.is_null()).then(|| f(unsafe { &*cur }))
}

/// How many coroutine stacks the process has mapped since it started. A
/// run maps a stack only when no earlier run left one to reuse, so a run
/// no larger than one before it maps none.
pub fn stacks_mapped() -> u64 {
    coro::MAPPED.load(Ordering::Relaxed)
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
    with_current(|cur| cur.handle.sched.park_task(cur, now))
}

/// Retire the adopted task of the current thread and clear the binding.
/// The thread may outlive the task (e.g. to return a value) but must not
/// call back into the scheduler. A coroutine retires when its body
/// returns: calling this in one panics.
pub fn retire() {
    match with_current(|cur| matches!(cur.runner, Runner::Thread(_))) {
        None => {}
        Some(false) => panic!("sched::retire in a coroutine: it retires when its body returns"),
        Some(true) => {
            let cur = CURRENT.replace(std::ptr::null());
            // SAFETY: an adopted task's `Current`, boxed by `adopt` and
            // owned by the binding just cleared.
            let cur = unsafe { Box::from_raw(cur as *mut Current) };
            cur.handle.sched.retire_task(cur.handle.id.0, true);
        }
    }
}

/// Spawn a dynamic task for `rank` starting at `time` under the current
/// adopted task's scheduler. Returns `None` on a thread that runs no
/// task. The new task's thread must take the returned handle up
/// ([`Handle::run`]) before the simulation can advance. Panics in a
/// coroutine, which spawns with [`spawn`].
pub fn spawn_handle(rank: u32, time: SimTime) -> Option<Handle> {
    with_current(|cur| {
        assert!(
            matches!(cur.runner, Runner::Thread(_)),
            "sched::spawn_handle in a coroutine: a coroutine spawns with sched::spawn"
        );
        cur.handle.sched.create_task(rank, time)
    })
}

/// Spawn a dynamic task for `rank` starting at `time` under the current
/// task's scheduler, with `job` as its body: a coroutine, ready at once.
/// A panic of the job aborts the run. Panics if the calling thread runs
/// no task, or runs an adopted one (only a [`run_roots`] run has
/// coroutines).
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
    sched.spawn_coroutine((rank, time, Some(seq)), false, job)
}

/// Block the current task until `target` retires. No-op when the
/// current thread is not a task of the same scheduler (a request that
/// outlived its run).
pub fn join_task(target: &Handle) {
    with_current(|cur| {
        if Arc::ptr_eq(&cur.handle.sched, &target.sched) {
            cur.handle.sched.join_task_inner(cur, target.id.0);
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
            cur.handle.sched.park_task(cur, at)
        });
        let wake = wake.expect(
            "WaitQueue::wait on a thread that runs no task: every blocking site \
             runs under the scheduler (sched::run_roots, sched::spawn, Handle::run)",
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
        run_roots(bodies.len(), |i| once(i)()).1
    }

    /// [`run_tasks`] with every root an adopted thread of its own.
    fn run_adopted(bodies: Vec<Box<dyn FnOnce() + Send>>) -> Stats {
        let sched = Scheduler::new(bodies.len());
        std::thread::scope(|s| {
            for (i, body) in bodies.into_iter().enumerate() {
                let root = sched.create_root(i as u32);
                s.spawn(move || root.run(body));
            }
        });
        if let Some(p) = sched.take_panic() {
            std::panic::resume_unwind(p);
        }
        sched.stats()
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
            let lc = Arc::clone(&l);
            let job = Box::new(move || lc.lock().unwrap().push("child"));
            let child = spawn(0, SimTime::ZERO + SimDuration::from_ns(5), job);
            join_task(&child);
            l.lock().unwrap().push("parent-after-join");
        })]);
        assert_eq!(*log.lock().unwrap(), vec!["child", "parent-after-join"]);
    }

    #[test]
    fn an_adopted_thread_spawns_a_thread_and_joins_it() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        run_adopted(vec![Box::new(move || {
            let child = spawn_handle(0, SimTime::ZERO + SimDuration::from_ns(5)).unwrap();
            let lc = Arc::clone(&l);
            let hc = child.clone();
            let jh = std::thread::spawn(move || hc.run(|| lc.lock().unwrap().push("child")));
            join_task(&child);
            l.lock().unwrap().push("parent-after-join");
            jh.join().unwrap();
            // Coroutine tasks exist only under run_roots.
            let r = catch_unwind(|| spawn(0, SimTime::ZERO, Box::new(|| {})));
            let p = r.expect_err("sched::spawn on an adopted thread must panic");
            assert!(p.downcast_ref::<String>().unwrap().contains("run_roots"));
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
        let stats = run_adopted(vec![Box::new(move || {
            let sched = Arc::clone(current().unwrap().scheduler());
            for i in 0..CYCLES {
                let child = spawn_handle(0, SimTime::ZERO).unwrap();
                let (hc, pc) = (child.clone(), Arc::clone(&p));
                let jh = std::thread::spawn(move || {
                    hc.run(|| {
                        let mine = with_current(|cur| match &cur.runner {
                            Runner::Thread(parker) => Arc::downgrade(parker),
                            Runner::Coroutine(_) => unreachable!("an adopted thread"),
                        });
                        let mine = mine.unwrap();
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
    fn retired_coroutines_lend_their_stacks_to_the_next_spawn() {
        // `live` tasks at once, over and over — the shape of a rank with
        // `live` requests in flight per iteration: the run keeps as many
        // records (and stacks) as tasks were live at once, and no more.
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
                    assert_eq!(g.spare.len(), live, "round {round}");
                }
                *so.lock().unwrap() = Some(Arc::clone(&sched));
            })]);
            // The run's end freed every record and handed every stack to
            // the process's list of retired stacks.
            let sched = sched_out.lock().unwrap().take().unwrap();
            let g = sched.lock();
            assert!(g.spare.is_empty() && g.tasks.iter().all(|t| t.coro.is_none()));
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
        // Its coroutine drops the second job unrun: the channel closes empty.
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

    #[test]
    fn every_task_runs_on_the_launching_thread() {
        let launcher = std::thread::current().id();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let theirs = Arc::clone(&seen);
        run_roots(4, move |rank| {
            let seen = Arc::clone(&theirs);
            seen.lock().unwrap().push(std::thread::current().id());
            park(SimTime::ZERO + SimDuration::from_ns(rank as u64));
            let mine = Arc::clone(&seen);
            let job = Box::new(move || mine.lock().unwrap().push(std::thread::current().id()));
            join_task(&spawn(rank as u32, SimTime::ZERO, job));
            seen.lock().unwrap().push(std::thread::current().id());
        });
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 12);
        assert!(seen.iter().all(|&id| id == launcher));
    }

    thread_local! {
        static TAG: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// A test's thread-local state that follows its task.
    #[derive(Default)]
    struct Tag(u32);

    impl TaskLocal for Tag {
        fn swap(&mut self) {
            self.0 = TAG.replace(self.0);
        }
    }

    #[test]
    fn task_locals_follow_their_task_across_switches() {
        // Each root sets its tag, then wakes whoever waits and parks, three
        // times over; a spawned task starts from the default.
        TAG.set(99);
        let queue = WaitQueue::new();
        let (tags, _) = run_roots_with::<Tag, _>(6, |rank| {
            let mut seen = vec![TAG.get()];
            TAG.set(rank as u32 + 1);
            for step in 0..3 {
                queue.wake_all();
                queue.register_current();
                park(SimTime::ZERO + SimDuration::from_ns(step));
                seen.push(TAG.get());
            }
            let job = Box::new(|| assert_eq!(TAG.get(), 0, "a spawned task starts fresh"));
            join_task(&spawn(rank as u32, SimTime::ZERO, job));
            seen.push(TAG.get());
            seen
        });
        for (rank, seen) in tags.iter().enumerate() {
            let mine = rank as u32 + 1;
            assert_eq!(seen, &[0, mine, mine, mine, mine], "rank {rank}");
        }
        assert_eq!(TAG.get(), 99, "the launching thread's own value is back");
    }

    #[test]
    fn a_backtrace_ends_at_the_coroutine_entry() {
        let (frames, _) = run_roots(1, |_| {
            let trace = std::backtrace::Backtrace::force_capture().to_string();
            let frame = |l: &&str| {
                l.trim_start()
                    .split(':')
                    .next()
                    .unwrap()
                    .parse::<u32>()
                    .is_ok()
            };
            let frames: Vec<String> = trace.lines().filter(frame).map(str::to_string).collect();
            frames
        });
        let frames = &frames[0];
        let [.., entry, last] = &frames[..] else {
            panic!("a short backtrace: {frames:#?}")
        };
        assert!(
            entry.ends_with("coroutine_main") && last.ends_with("scimpi_sched_start"),
            "the walk must end at the entry's trampoline: {frames:#?}"
        );
    }
}

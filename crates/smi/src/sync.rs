//! Shared-memory synchronisation: spinlocks and barriers.
//!
//! SCI-MPICH performs the mutual exclusion required by passive- and
//! active-target one-sided synchronisation "via shared memory locks and
//! barriers" (§4.2, citing Schulz (reference 14)): the lock word lives in an SCI
//! segment and is manipulated by transparent remote accesses. These
//! primitives have very low latency under little contention — and the
//! paper explicitly warns that contended locks should be avoided.
//!
//! In the simulation the *mutual exclusion itself* is provided by real
//! process-wide primitives (the rank threads genuinely block), while the
//! *cost* is charged to virtual clocks: a local acquisition costs an atomic
//! RMW, a remote acquisition costs an SCI read (check) plus an SCI write
//! (set); contended acquisitions additionally wait for the holder's
//! virtual release time.
//!
//! Under the event backend (`docs/SCHEDULER.md`) a contended acquisition
//! or barrier arrival parks the calling *task* instead of blocking its
//! thread: release/completion wakes the registered waiters through a
//! [`sched::WaitQueue`], so dispatch order — and therefore lock handover
//! order — is the scheduler's deterministic `(time, rank, seq)` order.

use crate::{ProcId, SmiWorld};
use simclock::{clock::barrier_release, Clock, SimDuration, SimTime};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, TryLockError};

/// A lock whose lock word lives in the shared memory of `owner`'s node.
#[derive(Debug)]
pub struct SmiLock {
    world: Arc<SmiWorld>,
    owner: ProcId,
    /// Virtual time at which the lock was last released, protected by the
    /// real mutex that provides actual exclusion between rank threads.
    state: Mutex<SimTime>,
    /// Event-backend tasks parked on a contended acquire.
    waiters: sched::WaitQueue,
}

/// Exclusive access to an [`SmiLock`]. Call [`SmiLockGuard::release`] to
/// unlock with correct virtual-time accounting; dropping the guard without
/// releasing unlocks too (so poisoned paths cannot deadlock) but then the
/// next holder does not observe this holder's critical-section time.
#[derive(Debug)]
pub struct SmiLockGuard<'a> {
    inner: Option<MutexGuard<'a, SimTime>>,
    waiters: &'a sched::WaitQueue,
}

impl SmiLock {
    /// Cost of a local (same-node) lock operation: one atomic RMW.
    const LOCAL_OP: SimDuration = SimDuration::from_ns(120);

    /// Create a lock resident at `owner`.
    pub fn new(world: Arc<SmiWorld>, owner: ProcId) -> Self {
        SmiLock {
            world,
            owner,
            state: Mutex::new(SimTime::ZERO),
            waiters: sched::WaitQueue::new(),
        }
    }

    fn acquire_cost(&self, p: ProcId) -> SimDuration {
        if self.world.same_node(p, self.owner) {
            Self::LOCAL_OP
        } else {
            // Remote check (stalling read) + remote set (posted write +
            // barrier).
            let params = self.world.fabric().params();
            let hops = self
                .world
                .fabric()
                .topology()
                .distance(self.world.node_of(p), self.world.node_of(self.owner));
            params.read_stall
                + params.txn_overhead
                + params.wire_latency(hops)
                + params.store_barrier
        }
    }

    /// Acquire the lock for process `p`, blocking the calling thread until
    /// the real mutex is free and charging `clock` for the SCI traffic and
    /// for any virtual wait on the previous holder.
    pub fn acquire<'a>(&'a self, clock: &mut Clock, p: ProcId) -> SmiLockGuard<'a> {
        let guard = if sched::is_event_task() {
            // A task must never block on the real mutex while holding the
            // run token (the holder may itself be parked): try, park,
            // retry on wake. The scheduler's dispatch order makes the
            // handover deterministic.
            loop {
                match self.state.try_lock() {
                    Ok(g) => break g,
                    Err(TryLockError::WouldBlock) => {
                        self.waiters.register_current();
                        sched::park(clock.now());
                    }
                    Err(TryLockError::Poisoned(e)) => {
                        panic!("SmiLock state poisoned: {e}")
                    }
                }
            }
        } else {
            self.state.lock().unwrap()
        };
        obs::inc(obs::Counter::SmiLockAcquires);
        // Wait (in virtual time) for the previous holder's release.
        obs::attrib::merge_waited(clock, *guard, obs::WaitKind::Lock, None);
        obs::attrib::advance(clock, obs::Bucket::Transfer, self.acquire_cost(p));
        SmiLockGuard {
            inner: Some(guard),
            waiters: &self.waiters,
        }
    }

    /// Try to acquire without blocking the thread. Charges the probe cost
    /// either way (the remote check happens regardless of success).
    pub fn try_acquire<'a>(&'a self, clock: &mut Clock, p: ProcId) -> Option<SmiLockGuard<'a>> {
        let probe = self.acquire_cost(p);
        match self.state.try_lock() {
            Ok(guard) => {
                obs::inc(obs::Counter::SmiLockAcquires);
                obs::attrib::merge_waited(clock, *guard, obs::WaitKind::Lock, None);
                obs::attrib::advance(clock, obs::Bucket::Transfer, probe);
                Some(SmiLockGuard {
                    inner: Some(guard),
                    waiters: &self.waiters,
                })
            }
            Err(_) => {
                obs::attrib::advance(clock, obs::Bucket::Transfer, probe);
                None
            }
        }
    }

    /// The process whose node hosts the lock word.
    pub fn owner(&self) -> ProcId {
        self.owner
    }
}

impl SmiLockGuard<'_> {
    /// Unlock, recording the holder's current virtual time so the next
    /// acquirer waits for it.
    pub fn release(mut self, clock: &mut Clock) {
        obs::attrib::advance(clock, obs::Bucket::Transfer, SmiLock::LOCAL_OP);
        if let Some(mut inner) = self.inner.take() {
            *inner = clock.now();
            drop(inner);
            self.waiters.wake_all();
        }
    }
}

impl Drop for SmiLockGuard<'_> {
    fn drop(&mut self) {
        // Drop-without-release (poisoned paths) must still wake parked
        // event tasks or they would stall until the next liveness sweep.
        if self.inner.take().is_some() {
            self.waiters.wake_all();
        }
    }
}

/// A barrier that synchronises both the real rank threads and their
/// virtual clocks: everyone leaves with `clock.now()` equal to the common
/// release time (latest arrival plus a logarithmic fan-in cost).
#[derive(Debug)]
pub struct TimeBarrier {
    n: usize,
    per_hop: SimDuration,
    state: Mutex<BarrierState>,
    /// Arrivals waiting for the generation to advance.
    waiters: sched::WaitQueue,
}

#[derive(Debug, Default)]
struct BarrierState {
    generation: u64,
    arrived: usize,
    max_arrival: SimTime,
    release: SimTime,
}

impl TimeBarrier {
    /// A barrier for `n` participants with a per-tree-level cost of
    /// `per_hop` (use the fabric's store latency for SCI barriers).
    pub fn new(n: usize, per_hop: SimDuration) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        TimeBarrier {
            n,
            per_hop,
            state: Mutex::new(BarrierState::default()),
            waiters: sched::WaitQueue::new(),
        }
    }

    /// Number of participants.
    pub fn parties(&self) -> usize {
        self.n
    }

    /// Real time a blocked thread lets pass between two polls of its
    /// `cancel`; a blocked task polls once per scheduler stall round.
    const CANCEL_POLL: std::time::Duration = std::time::Duration::from_millis(10);

    /// Enter the barrier; blocks until all `n` participants arrive, then
    /// merges every clock to the common release time. Returns `true` on
    /// the "leader" (last arriver), mirroring `std::sync::Barrier`.
    pub fn wait(&self, clock: &mut Clock) -> bool {
        self.wait_cancel(clock, || None)
            .expect("a barrier wait that cannot be cancelled completes")
    }

    /// Enter the barrier, but keep polling `cancel` while blocked: if it
    /// returns `Some(at)` before the barrier completes, withdraw this
    /// participant's arrival and return `Err(at)` (the caller converts
    /// `at` into its own cancellation accounting). The leader path — the
    /// last arriver, `Ok(true)` — always completes the barrier, and a
    /// completion that races a cancellation wins: the generation change
    /// is checked before `cancel` under the same lock.
    pub fn wait_cancel(
        &self,
        clock: &mut Clock,
        mut cancel: impl FnMut() -> Option<SimTime>,
    ) -> Result<bool, SimTime> {
        obs::inc(obs::Counter::BarrierCrossings);
        let mut st = self.state.lock().unwrap();
        st.arrived += 1;
        st.max_arrival = st.max_arrival.max(clock.now());
        if st.arrived == self.n {
            let arrivals = [st.max_arrival];
            st.release = barrier_release(&arrivals, self.per_hop, self.n);
            st.arrived = 0;
            st.max_arrival = SimTime::ZERO;
            st.generation += 1;
            let release = st.release;
            drop(st);
            self.waiters.wake_all();
            obs::attrib::merge_waited(clock, release, obs::WaitKind::Barrier, None);
            return Ok(true);
        }
        let gen = st.generation;
        loop {
            if st.generation != gen {
                let release = st.release;
                drop(st);
                obs::attrib::merge_waited(clock, release, obs::WaitKind::Barrier, None);
                return Ok(false);
            }
            if let Some(at) = cancel() {
                st.arrived -= 1;
                return Err(at);
            }
            let now = Some(clock.now());
            st = self.waiters.wait(&self.state, st, now, Self::CANCEL_POLL).0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sci_fabric::{Fabric, FabricSpec, Topology};
    use std::thread;

    fn world(nodes: usize) -> Arc<SmiWorld> {
        let fabric = Fabric::new(FabricSpec {
            topology: Topology::ringlet(nodes),
            ..FabricSpec::default()
        });
        SmiWorld::one_per_node(fabric)
    }

    #[test]
    fn lock_provides_exclusion_across_threads() {
        let w = world(4);
        let lock = Arc::new(SmiLock::new(Arc::clone(&w), ProcId(0)));
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for p in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                let mut clock = Clock::new();
                for _ in 0..250 {
                    let g = lock.acquire(&mut clock, ProcId(p));
                    {
                        let mut c = counter.lock().unwrap();
                        *c += 1;
                    }
                    clock.advance(SimDuration::from_ns(50));
                    g.release(&mut clock);
                }
                clock.now()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock().unwrap(), 1000);
    }

    #[test]
    fn remote_acquire_costs_more_than_local() {
        let w = world(4);
        let lock = SmiLock::new(Arc::clone(&w), ProcId(0));
        let mut local = Clock::new();
        lock.acquire(&mut local, ProcId(0)).release(&mut local);
        let mut remote = Clock::new();
        lock.acquire(&mut remote, ProcId(3)).release(&mut remote);
        assert!(
            remote.now().as_ps() > 3 * local.now().as_ps(),
            "remote {:?} vs local {:?}",
            remote.now(),
            local.now()
        );
    }

    #[test]
    fn second_holder_waits_virtually_for_first() {
        let w = world(2);
        let lock = SmiLock::new(Arc::clone(&w), ProcId(0));
        let mut c0 = Clock::new();
        let g = lock.acquire(&mut c0, ProcId(0));
        c0.advance(SimDuration::from_us(100)); // long critical section
        g.release(&mut c0);

        let mut c1 = Clock::new(); // starts at t=0
        let g = lock.acquire(&mut c1, ProcId(1));
        g.release(&mut c1);
        assert!(
            c1.now() >= SimTime::ZERO + SimDuration::from_us(100),
            "waiter did not observe holder's critical section: {:?}",
            c1.now()
        );
    }

    #[test]
    fn try_acquire_fails_when_held() {
        let w = world(2);
        let lock = SmiLock::new(Arc::clone(&w), ProcId(0));
        let mut c0 = Clock::new();
        let g = lock.acquire(&mut c0, ProcId(0));
        let mut c1 = Clock::new();
        assert!(lock.try_acquire(&mut c1, ProcId(1)).is_none());
        // The failed probe still cost time.
        assert!(c1.now() > SimTime::ZERO);
        g.release(&mut c0);
        assert!(lock.try_acquire(&mut c1, ProcId(1)).is_some());
    }

    #[test]
    fn barrier_aligns_clocks() {
        let barrier = Arc::new(TimeBarrier::new(4, SimDuration::from_us(1)));
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                let mut clock = Clock::new();
                clock.advance(SimDuration::from_us(10 * i)); // skewed arrivals
                barrier.wait(&mut clock);
                clock.now()
            }));
        }
        let times: Vec<SimTime> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Everyone leaves at the same virtual time, at or after the latest
        // arrival (30us).
        assert!(times.iter().all(|t| *t == times[0]));
        assert!(times[0] >= SimTime::ZERO + SimDuration::from_us(30));
    }

    #[test]
    fn barrier_is_reusable() {
        let barrier = Arc::new(TimeBarrier::new(2, SimDuration::from_us(1)));
        for round in 0..3u64 {
            let b = Arc::clone(&barrier);
            let t = thread::spawn(move || {
                let mut c = Clock::new();
                c.advance(SimDuration::from_us(round * 5));
                b.wait(&mut c);
                c.now()
            });
            let mut c = Clock::new();
            c.advance(SimDuration::from_us(100));
            barrier.wait(&mut c);
            let other = t.join().unwrap();
            assert_eq!(other, c.now(), "round {round}");
        }
    }

    #[test]
    fn single_party_barrier_is_nonblocking() {
        let barrier = TimeBarrier::new(1, SimDuration::from_us(1));
        let mut c = Clock::new();
        assert!(barrier.wait(&mut c));
        assert!(barrier.wait(&mut c));
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_party_barrier_panics() {
        let _ = TimeBarrier::new(0, SimDuration::ZERO);
    }

    #[test]
    fn wait_cancel_completes_like_wait_when_not_cancelled() {
        let barrier = Arc::new(TimeBarrier::new(2, SimDuration::from_us(1)));
        let b = Arc::clone(&barrier);
        let t = thread::spawn(move || {
            let mut c = Clock::new();
            b.wait_cancel(&mut c, || None).unwrap();
            c.now()
        });
        let mut c = Clock::new();
        c.advance(SimDuration::from_us(50));
        barrier.wait(&mut c);
        assert_eq!(t.join().unwrap(), c.now());
    }

    #[test]
    fn wait_cancel_withdraws_and_leaves_barrier_reusable() {
        let barrier = Arc::new(TimeBarrier::new(2, SimDuration::from_us(1)));
        let mut c = Clock::new();
        let cancel_at = SimTime::ZERO + SimDuration::from_us(7);
        let err = barrier
            .wait_cancel(&mut c, || Some(cancel_at))
            .expect_err("must cancel");
        assert_eq!(err, cancel_at);
        // The withdrawn arrival must not linger: a fresh pair of waiters
        // completes normally.
        let b = Arc::clone(&barrier);
        let t = thread::spawn(move || {
            let mut c = Clock::new();
            b.wait(&mut c);
            c.now()
        });
        let mut c2 = Clock::new();
        barrier.wait(&mut c2);
        assert_eq!(t.join().unwrap(), c2.now());
    }
}

/// Thread-arm stress: OS threads with no scheduler, so every wait is the
/// condvar's (see `scimpi`'s `mailbox::thread_arm_stress`).
#[cfg(test)]
mod thread_arm_stress {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn a_withdrawn_party_leaves_the_generation_for_the_others_to_finish() {
        // Each round: party 1 arrives and blocks; party 2 arrives
        // cancellable and withdraws; only then does party 0 arrive (the
        // channel forces it, or 2 could be the last arriver and complete
        // instead), 2 arrives again and the generation completes. A
        // second, plain generation follows: 300 in all.
        const ROUNDS: u64 = 150;
        let barrier = Arc::new(TimeBarrier::new(3, SimDuration::from_us(1)));
        let (withdrawn, seen) = mpsc::channel::<()>();
        let cancel = Arc::new(AtomicBool::new(false));
        let party = |me: u64, withdrawn: Option<mpsc::Sender<()>>| {
            let (barrier, cancel) = (Arc::clone(&barrier), Arc::clone(&cancel));
            thread::spawn(move || {
                let mut clock = Clock::new();
                let mut out = Vec::new();
                for round in 0..ROUNDS {
                    clock.advance(SimDuration::from_us(1 + me));
                    if let Some(withdrawn) = &withdrawn {
                        let at = clock.now() + SimDuration::from_us(3);
                        let polled = barrier.wait_cancel(&mut clock, || {
                            cancel.load(Ordering::SeqCst).then_some(at)
                        });
                        assert_eq!(polled, Err(at), "round {round}");
                        cancel.store(false, Ordering::SeqCst);
                        withdrawn.send(()).unwrap();
                    }
                    barrier.wait(&mut clock);
                    out.push(clock.now());
                    assert!(barrier.wait_cancel(&mut clock, || None).is_ok());
                    out.push(clock.now());
                }
                out
            })
        };
        let (one, two) = (party(1, None), party(2, Some(withdrawn)));
        let mut clock = Clock::new();
        let mut mine = Vec::new();
        for _ in 0..ROUNDS {
            clock.advance(SimDuration::from_us(1));
            cancel.store(true, Ordering::SeqCst);
            seen.recv().unwrap();
            barrier.wait(&mut clock);
            mine.push(clock.now());
            barrier.wait(&mut clock);
            mine.push(clock.now());
        }
        assert_eq!(mine.len() as u64, 2 * ROUNDS);
        assert_eq!(one.join().unwrap(), mine);
        assert_eq!(two.join().unwrap(), mine);
        assert!(mine.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_waiter_on_a_poisoned_barrier_panics_instead_of_hanging() {
        // Three parties, so neither arrival below is the leader. The
        // second one's `cancel` runs under the state lock and panics.
        let barrier = Arc::new(TimeBarrier::new(3, SimDuration::ZERO));
        let waiter = {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || barrier.wait_cancel(&mut Clock::new(), || None))
        };
        let poisoner = {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait_cancel(&mut Clock::new(), || panic!("cancel panicked"))
            })
        };
        assert!(poisoner.join().is_err());
        // Asleep by now or not yet arrived: either way it must find out.
        assert!(waiter.join().is_err());
        let late = thread::spawn(move || barrier.wait(&mut Clock::new()));
        assert!(late.join().is_err());
    }
}

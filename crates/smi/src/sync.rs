//! Shared-memory synchronisation: spinlocks and barriers.
//!
//! SCI-MPICH performs the mutual exclusion required by passive- and
//! active-target one-sided synchronisation "via shared memory locks and
//! barriers" (§4.2, citing Schulz (reference 14)): the lock word lives in an SCI
//! segment and is manipulated by transparent remote accesses. These
//! primitives have very low latency under little contention — and the
//! paper explicitly warns that contended locks should be avoided.
//!
//! In the simulation the *mutual exclusion itself* is provided by a real
//! mutex, while the *cost* is charged to virtual clocks: a local
//! acquisition costs an atomic RMW, a remote acquisition costs an SCI read
//! (check) plus an SCI write (set); contended acquisitions additionally
//! wait for the holder's virtual release time.
//!
//! A contended acquisition or barrier arrival parks the calling *task*
//! (`docs/SCHEDULER.md`): release/completion wakes the registered waiters
//! through a [`sched::WaitQueue`], so dispatch order — and therefore lock
//! handover order — is the scheduler's deterministic `(time, rank, seq)`
//! order.

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
    /// real mutex that provides actual exclusion between ranks.
    state: Mutex<SimTime>,
    /// Tasks parked on a contended acquire.
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

    /// Acquire the lock for process `p`, parking the calling task until
    /// the real mutex is free and charging `clock` for the SCI traffic and
    /// for any virtual wait on the previous holder.
    pub fn acquire<'a>(&'a self, clock: &mut Clock, p: ProcId) -> SmiLockGuard<'a> {
        // A task must never block on the real mutex while holding the run
        // token (the holder may itself be parked): try, park, retry on
        // wake. The scheduler's dispatch order makes the handover
        // deterministic. A free lock never reaches the park, so a thread
        // that runs no task can take one nobody contends.
        let guard = loop {
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
        // tasks or they would stall until the next liveness sweep.
        if self.inner.take().is_some() {
            self.waiters.wake_all();
        }
    }
}

/// A barrier that synchronises both the rank tasks and their virtual
/// clocks: everyone leaves with `clock.now()` equal to the common
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

    /// Enter the barrier; blocks until all `n` participants arrive, then
    /// merges every clock to the common release time. Returns `true` on
    /// the "leader" (last arriver), mirroring `std::sync::Barrier`.
    pub fn wait(&self, clock: &mut Clock) -> bool {
        self.wait_cancel(clock, || None)
            .expect("a barrier wait that cannot be cancelled completes")
    }

    /// Enter the barrier, but poll `cancel` while blocked, once per wake
    /// and per scheduler stall round: if it returns `Some(at)` before the
    /// barrier completes, withdraw this participant's arrival and return
    /// `Err(at)` (the caller converts `at` into its own cancellation
    /// accounting). The leader path — the
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
            st = self.waiters.wait(&self.state, st, now).0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sci_fabric::{Fabric, FabricSpec, Topology};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn world(nodes: usize) -> Arc<SmiWorld> {
        let fabric = Fabric::new(FabricSpec {
            topology: Topology::ringlet(nodes),
            ..FabricSpec::default()
        });
        SmiWorld::one_per_node(fabric)
    }

    #[test]
    fn lock_provides_exclusion_across_tasks() {
        let w = world(4);
        let lock = SmiLock::new(Arc::clone(&w), ProcId(0));
        let (counter, contenders) = (Mutex::new(0u64), AtomicUsize::new(4));
        sched::run_roots(4, |p| {
            let mut clock = Clock::new();
            for _ in 0..250 {
                let g = lock.acquire(&mut clock, ProcId(p));
                // Give the token away mid-update: the others find the
                // lock held and park on it until a stall round resumes
                // this holder.
                let seen = *counter.lock().unwrap();
                clock.advance(SimDuration::from_ns(50));
                if contenders.load(Ordering::SeqCst) > 1 {
                    sched::park(clock.now());
                }
                *counter.lock().unwrap() = seen + 1;
                g.release(&mut clock);
            }
            contenders.fetch_sub(1, Ordering::SeqCst);
        });
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
        let barrier = TimeBarrier::new(4, SimDuration::from_us(1));
        let (times, _) = sched::run_roots(4, |i| {
            let mut clock = Clock::new();
            clock.advance(SimDuration::from_us(10 * i as u64)); // skewed arrivals
            barrier.wait(&mut clock);
            clock.now()
        });
        // Everyone leaves at the same virtual time, at or after the latest
        // arrival (30us).
        assert!(times.iter().all(|t| *t == times[0]));
        assert!(times[0] >= SimTime::ZERO + SimDuration::from_us(30));
    }

    #[test]
    fn barrier_is_reusable() {
        let barrier = TimeBarrier::new(2, SimDuration::from_us(1));
        let (times, _) = sched::run_roots(2, |i| {
            let mut c = Clock::new();
            (0..3u64)
                .map(|round| {
                    let skew = if i == 0 { 100 } else { round * 5 };
                    c.advance(SimDuration::from_us(skew));
                    // The cancellable entry completes like the plain one.
                    if round == 2 {
                        barrier.wait_cancel(&mut c, || None).unwrap();
                    } else {
                        barrier.wait(&mut c);
                    }
                    c.now()
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(times[0], times[1]);
        assert!(times[0].windows(2).all(|w| w[0] < w[1]));
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
    fn wait_cancel_withdraws_and_leaves_barrier_reusable() {
        let barrier = TimeBarrier::new(2, SimDuration::from_us(1));
        let mut c = Clock::new();
        let cancel_at = SimTime::ZERO + SimDuration::from_us(7);
        let err = barrier
            .wait_cancel(&mut c, || Some(cancel_at))
            .expect_err("must cancel");
        assert_eq!(err, cancel_at);
        // The withdrawn arrival must not linger: a fresh pair of waiters
        // completes normally.
        let (times, _) = sched::run_roots(2, |_| {
            let mut c = Clock::new();
            barrier.wait(&mut c);
            c.now()
        });
        assert_eq!(times[0], times[1]);
    }

    #[test]
    fn a_withdrawn_party_leaves_the_generation_for_the_others_to_finish() {
        // Party 1 arrives and blocks; party 2 arrives cancellable and
        // blocks; the stall round that follows lets party 0 raise the
        // flag, so 2's next poll withdraws while 1 stays in. Then 2
        // arrives again, 0 arrives last and the generation completes. A
        // second, plain generation follows.
        let barrier = TimeBarrier::new(3, SimDuration::from_us(1));
        let cancel = AtomicBool::new(false);
        let (times, stats) = sched::run_roots(3, |me| {
            let mut clock = Clock::new();
            clock.advance(SimDuration::from_us(1 + me as u64));
            match me {
                0 => {
                    assert_eq!(sched::park(clock.now()), sched::Wake::Stalled);
                    cancel.store(true, Ordering::SeqCst);
                    assert_eq!(sched::park(clock.now()), sched::Wake::Stalled);
                }
                2 => {
                    let at = clock.now() + SimDuration::from_us(3);
                    let before = clock.now();
                    let polled = barrier
                        .wait_cancel(&mut clock, || cancel.load(Ordering::SeqCst).then_some(at));
                    assert_eq!(polled, Err(at));
                    assert_eq!(clock.now(), before, "a withdrawal moved the clock");
                }
                _ => {}
            }
            barrier.wait(&mut clock);
            let first = clock.now();
            barrier.wait(&mut clock);
            (first, clock.now())
        });
        assert!(times.iter().all(|t| *t == times[0]));
        assert!(times[0].0 < times[0].1);
        assert_eq!(stats.stalls, 2);
    }
}

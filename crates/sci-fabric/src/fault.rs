//! Fault injection and connection monitoring.
//!
//! Section 2 of the paper stresses that SCI "is still a network": cables can
//! be pulled, nodes can fail, and transmission errors cause retried
//! transfers, which in turn means data can arrive **out of order** unless a
//! store barrier is issued. This module models those properties:
//!
//! * per-transaction error probability → the transaction is retried,
//!   costing extra latency;
//! * retried transactions make arrival timestamps non-monotonic (delivery
//!   jitter), which the PIO layer surfaces so only a store barrier
//!   guarantees complete delivery;
//! * links can be administratively failed (cable pulled) and restored;
//! * a [`ConnectionMonitor`] performs the session checking SCI-MPICH needs
//!   on top of raw remote memory.

use crate::mem::{OutOfBounds, SharedMem};
use crate::topology::{LinkId, Route};
use simclock::{SimDuration, SplitMix64};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Errors surfaced by the fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SciError {
    /// A link on the route is down (cable pulled / node dead).
    LinkDown(LinkId),
    /// The connection monitor declared the peer dead.
    PeerDead(usize),
    /// Access outside an exported segment.
    OutOfBounds(crate::mem::OutOfBounds),
}

impl fmt::Display for SciError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SciError::LinkDown(l) => write!(f, "SCI link {} is down", l.0),
            SciError::PeerDead(n) => write!(f, "peer node n{n} declared dead"),
            SciError::OutOfBounds(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SciError {}

impl From<crate::mem::OutOfBounds> for SciError {
    fn from(e: crate::mem::OutOfBounds) -> Self {
        SciError::OutOfBounds(e)
    }
}

/// A transaction (or burst) that errored out hard, together with the
/// virtual time the failed attempts consumed before giving up.
///
/// Callers that surface the error must charge `wasted` to their clock so
/// a hard failure after `max_retries` attempts costs the same virtual
/// time the retries would have on a recovering link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailedTransaction {
    /// The underlying fabric error.
    pub error: SciError,
    /// Virtual time burned by the attempts that preceded the hard failure.
    pub wasted: SimDuration,
    /// Retries performed before the failure.
    pub retries: u32,
}

impl From<SciError> for FailedTransaction {
    /// An immediate failure (e.g. a severed route) that cost no retries.
    fn from(error: SciError) -> Self {
        FailedTransaction {
            error,
            wasted: SimDuration::ZERO,
            retries: 0,
        }
    }
}

impl fmt::Display for FailedTransaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (after {} retries, {} ps wasted)",
            self.error,
            self.retries,
            self.wasted.as_ps()
        )
    }
}

impl std::error::Error for FailedTransaction {}

/// Extra latency per retry (timeout + resend).
const RETRY_PENALTY: SimDuration = SimDuration::from_us(5);
/// Maximum delivery jitter applied to retried transactions (models
/// reordering; a store barrier waits past all jitter).
const REORDER_JITTER: SimDuration = SimDuration::from_us(2);

/// Configuration of the fault injector.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that one SCI transaction needs a retry.
    pub error_rate: f64,
    /// Maximum retries before the transaction errors out hard.
    pub max_retries: u32,
    /// Probability that one SCI transaction *succeeds* at the protocol
    /// level yet delivers a flipped bit — the silent corruption real
    /// Dolphin adapters are exposed to and the reason SISCI ships
    /// `SCIStartSequence`/`SCICheckSequence`.
    pub corrupt_rate: f64,
    /// Probability that one posted store transaction is silently
    /// discarded: the destination keeps its previous content and nothing
    /// signals the loss.
    pub drop_rate: f64,
}

impl Default for FaultConfig {
    /// A healthy fabric: no injected faults.
    fn default() -> Self {
        FaultConfig {
            error_rate: 0.0,
            max_retries: 8,
            corrupt_rate: 0.0,
            drop_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// A mildly lossy fabric for failure-injection tests.
    pub fn lossy(error_rate: f64) -> Self {
        FaultConfig {
            error_rate,
            ..FaultConfig::default()
        }
    }

    /// A fabric that silently corrupts or drops posted stores: every
    /// transaction still *succeeds*, but with probability `corrupt_rate`
    /// a bit flips and with probability `drop_rate` the store vanishes.
    pub fn silent(corrupt_rate: f64, drop_rate: f64) -> Self {
        FaultConfig {
            corrupt_rate,
            drop_rate,
            ..FaultConfig::default()
        }
    }
}

/// A silent fault applied to one transaction of a burst. Positions are
/// byte offsets into the burst's logical byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SilentFault {
    /// The transaction delivered, but the byte at `pos` arrived with
    /// `mask` XOR-ed in.
    BitFlip { pos: usize, mask: u8 },
    /// The posted store transaction covering `[pos, pos+len)` was
    /// discarded; the destination keeps whatever bytes were there.
    DroppedStore { pos: usize, len: usize },
}

/// Result of a SISCI-style sequence check over a transfer interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqStatus {
    /// No transmission error occurred in the checked interval.
    Ok,
    /// At least one transaction of the interval was silently corrupted
    /// or dropped. SISCI only *detects* this; repair is the caller's job.
    Tainted,
}

/// Outcome of passing one transaction through the injector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnOutcome {
    /// Extra latency caused by retries.
    pub extra_latency: SimDuration,
    /// Delivery jitter: the transaction may land up to this much *later*
    /// than its nominal arrival, unordered relative to neighbours.
    pub jitter: SimDuration,
    /// Number of retries performed.
    pub retries: u32,
}

impl TxnOutcome {
    /// A clean pass-through.
    pub const CLEAN: TxnOutcome = TxnOutcome {
        extra_latency: SimDuration::ZERO,
        jitter: SimDuration::ZERO,
        retries: 0,
    };
}

/// Deterministic fault injector shared by all nodes of a fabric.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    seed: u64,
    state: Mutex<InjectorState>,
    /// `state.down_links.len()`, readable without the lock:
    /// [`Self::check_route`] runs once per store burst and on a fabric
    /// with every cable plugged in has nothing to look up. Written under
    /// the `state` lock; `SeqCst` so a cable pulled by one thread is seen
    /// by the next check on any other.
    links_down: AtomicUsize,
}

#[derive(Debug)]
struct InjectorState {
    rng: SplitMix64,
    down_links: HashSet<usize>,
    dead_nodes: HashSet<usize>,
    /// One RNG stream per ordered (source node, destination node) pair,
    /// forked lazily off the master seed. Silent-fault draws come from
    /// these: transfers between one pair of nodes are ordered by the
    /// protocol, so per-pair streams make silent faults independent of
    /// the order in which ranks' transfers run. Retry draws share `rng`
    /// instead and interleave in dispatch order: deterministic, since
    /// every task of a run runs on the launching thread, but dependent on
    /// the scheduler's tie-break among equal-time tasks.
    pair_rngs: HashMap<(usize, usize), SplitMix64>,
}

impl FaultInjector {
    /// Build an injector with a deterministic seed.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        FaultInjector {
            config,
            seed,
            state: Mutex::new(InjectorState {
                rng: SplitMix64::new(seed),
                down_links: HashSet::new(),
                dead_nodes: HashSet::new(),
                pair_rngs: HashMap::new(),
            }),
            links_down: AtomicUsize::new(0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Administratively fail a link (pull the cable).
    pub fn fail_link(&self, link: LinkId) {
        let mut st = self.state.lock().unwrap();
        st.down_links.insert(link.0);
        self.links_down.store(st.down_links.len(), Ordering::SeqCst);
    }

    /// Restore a failed link.
    pub fn restore_link(&self, link: LinkId) {
        let mut st = self.state.lock().unwrap();
        st.down_links.remove(&link.0);
        self.links_down.store(st.down_links.len(), Ordering::SeqCst);
    }

    /// Mark a node as dead (crash).
    pub fn kill_node(&self, node: usize) {
        self.state.lock().unwrap().dead_nodes.insert(node);
    }

    /// Revive a dead node.
    pub fn revive_node(&self, node: usize) {
        self.state.lock().unwrap().dead_nodes.remove(&node);
    }

    /// True if the node is currently marked dead.
    pub fn node_dead(&self, node: usize) -> bool {
        self.state.lock().unwrap().dead_nodes.contains(&node)
    }

    /// True while no transaction can fail, retry, arrive late or be
    /// silently altered: every fault rate is zero and every cable is
    /// plugged in. While this holds, equal bursts on one route have equal
    /// outcomes and roll no dice.
    pub fn is_quiet(&self) -> bool {
        let c = &self.config;
        c.error_rate <= 0.0
            && c.corrupt_rate <= 0.0
            && c.drop_rate <= 0.0
            && self.links_down.load(Ordering::SeqCst) == 0
    }

    /// Check a route for failed links.
    pub fn check_route(&self, route: &Route) -> Result<(), SciError> {
        if self.links_down.load(Ordering::SeqCst) == 0 {
            return Ok(());
        }
        let st = self.state.lock().unwrap();
        for l in &route.links {
            if st.down_links.contains(&l.0) {
                return Err(SciError::LinkDown(*l));
            }
        }
        Ok(())
    }

    /// Pass one transaction through the injector: possibly retries (extra
    /// latency + delivery jitter). Returns an error only if `max_retries`
    /// consecutive attempts fail.
    pub fn transact(&self, route: &Route) -> Result<TxnOutcome, FailedTransaction> {
        self.transact_bulk(route, 1)
    }

    /// Pass a burst of `txns` SCI transactions through the injector: each
    /// transaction independently needs a retry with the configured error
    /// rate. A 64 kiB chunk is ~1000 transactions, so losses scale with
    /// transfer size, as on the real wire.
    ///
    /// On hard failure the returned [`FailedTransaction`] carries the
    /// virtual time the failed attempts burned (`RETRY_PENALTY` each), so
    /// an unrecoverable transfer is not free.
    pub fn transact_bulk(&self, route: &Route, txns: u64) -> Result<TxnOutcome, FailedTransaction> {
        self.check_route(route)?;
        if self.config.error_rate <= 0.0 || txns == 0 {
            return Ok(TxnOutcome::CLEAN);
        }
        let mut st = self.state.lock().unwrap();
        let mut retries = 0u32;
        for _ in 0..txns {
            let mut consecutive = 0u32;
            while st.rng.chance(self.config.error_rate) {
                consecutive += 1;
                retries += 1;
                if consecutive > self.config.max_retries {
                    // Persistent failure: report the first link as faulty,
                    // charging the time the failed attempts consumed.
                    let link = route.links.first().copied().unwrap_or(LinkId(0));
                    obs::inc(obs::Counter::LinkHardFailures);
                    obs::add(obs::Counter::LinkTxnRetries, retries as u64);
                    return Err(FailedTransaction {
                        error: SciError::LinkDown(link),
                        wasted: RETRY_PENALTY.saturating_mul(retries as u64),
                        retries,
                    });
                }
            }
        }
        if retries == 0 {
            return Ok(TxnOutcome::CLEAN);
        }
        obs::add(obs::Counter::LinkTxnRetries, retries as u64);
        let jitter_ps = st.rng.next_below(REORDER_JITTER.as_ps().max(1));
        Ok(TxnOutcome {
            extra_latency: RETRY_PENALTY.saturating_mul(retries as u64),
            jitter: SimDuration::from_ps(jitter_ps),
            retries,
        })
    }

    /// Roll silent faults for a burst of `total_bytes` moved in SCI
    /// transactions of `txn_bytes` each, flowing between the ordered node
    /// `pair` (source, destination). `stores` selects whether dropped-store
    /// faults apply: a lost *read* transaction stalls and retries inside
    /// the adapter (it cannot be silent), so read paths only see bit flips.
    ///
    /// Intra-node transfers (`pair.0 == pair.1`) never fault, and when
    /// both silent rates are zero this returns without drawing or locking
    /// — existing traces stay bit-identical.
    pub fn silent_faults(
        &self,
        pair: (usize, usize),
        txn_bytes: usize,
        total_bytes: usize,
        stores: bool,
    ) -> Vec<SilentFault> {
        let corrupt = self.config.corrupt_rate;
        let drop = if stores { self.config.drop_rate } else { 0.0 };
        if (corrupt <= 0.0 && drop <= 0.0) || total_bytes == 0 || pair.0 == pair.1 {
            return Vec::new();
        }
        let txn_bytes = txn_bytes.max(1);
        let mut st = self.state.lock().unwrap();
        let seed = self.seed;
        let rng = st.pair_rngs.entry(pair).or_insert_with(|| {
            let key = ((pair.0 as u64) << 32) | pair.1 as u64;
            SplitMix64::new(seed).fork(key)
        });
        let mut faults = Vec::new();
        let mut pos = 0usize;
        while pos < total_bytes {
            let len = txn_bytes.min(total_bytes - pos);
            if corrupt > 0.0 && rng.chance(corrupt) {
                let byte = pos + rng.next_below(len as u64) as usize;
                let mask = 1u8 << rng.next_below(8);
                faults.push(SilentFault::BitFlip { pos: byte, mask });
            } else if drop > 0.0 && rng.chance(drop) {
                faults.push(SilentFault::DroppedStore { pos, len });
            }
            pos += len;
        }
        if !faults.is_empty() {
            obs::add(obs::Counter::CorruptionsInjected, faults.len() as u64);
        }
        faults
    }

    /// Apply silent store faults directly to a burst carried in `data`
    /// (for protocol paths that model a PIO burst without moving bytes
    /// through a mapped segment, e.g. the eager path and the one-sided
    /// emulation packets). A dropped store leaves the pre-posted receive
    /// buffer's zeroed content. Returns the number of faults applied.
    pub fn corrupt_buffer(&self, pair: (usize, usize), txn_bytes: usize, data: &mut [u8]) -> usize {
        let faults = self.silent_faults(pair, txn_bytes, data.len(), true);
        for f in &faults {
            match *f {
                SilentFault::BitFlip { pos, mask } => data[pos] ^= mask,
                SilentFault::DroppedStore { pos, len } => data[pos..pos + len].fill(0),
            }
        }
        faults.len()
    }
}

/// One entry of a node-death schedule: `node` is to be killed once the
/// driving harness reaches virtual-time offset `after` in its own
/// schedule. Produced by [`death_schedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeathEvent {
    /// The node to kill.
    pub node: usize,
    /// Virtual-time offset at which the death takes effect, relative to
    /// whatever origin the harness anchors the schedule to.
    pub after: SimDuration,
}

/// Draw a seed-deterministic schedule of up to `deaths` *distinct* node
/// deaths among `nodes` nodes, each with an independent virtual-time
/// offset in `[0, horizon)`.
///
/// The function is pure: it forks a private RNG stream off `seed` and
/// never reads or advances any [`FaultInjector`] state, so computing a
/// schedule cannot perturb retry draws or per-pair silent-fault streams
/// — runs with and without a schedule stay bit-identical until the
/// first kill actually lands. Events come back sorted by `(after,
/// node)` so harnesses can replay them in one deterministic pass.
///
/// Node 0 is never scheduled to die: the recovery protocols treat the
/// lowest-ranked survivor as the shrink leader, and chaos harnesses need
/// one rank that is guaranteed to outlive every schedule to collect
/// verdicts from. With `nodes <= 1` or `deaths == 0` the schedule is
/// empty.
pub fn death_schedule(
    seed: u64,
    nodes: usize,
    deaths: usize,
    horizon: SimDuration,
) -> Vec<DeathEvent> {
    if nodes <= 1 || deaths == 0 {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(seed).fork(0xDEAD);
    let deaths = deaths.min(nodes - 1);
    let mut victims: Vec<usize> = Vec::with_capacity(deaths);
    while victims.len() < deaths {
        // Rejection-sample distinct victims from 1..nodes. Each accepted
        // draw shrinks the candidate set, so termination is certain and
        // the draw sequence is a pure function of the seed.
        let n = 1 + rng.next_below(nodes as u64 - 1) as usize;
        if !victims.contains(&n) {
            victims.push(n);
        }
    }
    let mut events: Vec<DeathEvent> = victims
        .into_iter()
        .map(|node| DeathEvent {
            node,
            after: SimDuration::from_ps(rng.next_below(horizon.as_ps().max(1))),
        })
        .collect();
    events.sort_unstable_by_key(|e| (e.after, e.node));
    events
}

/// Land `data` at `mem[dst_offset..]` with `faults` applied. Fault
/// positions are relative to the burst's byte stream; `stream_pos` is the
/// stream position of `data[0]` (nonzero for scatter/gather entries in the
/// middle of a DMA descriptor list). Dropped transactions leave the
/// destination's previous content in place — exactly what a vanished
/// posted store does.
pub fn write_with_faults(
    mem: &SharedMem,
    dst_offset: usize,
    data: &[u8],
    stream_pos: usize,
    faults: &[SilentFault],
) -> Result<(), OutOfBounds> {
    if faults.is_empty() {
        return mem.write(dst_offset, data);
    }
    mem.check_range(dst_offset, data.len())?;
    let window = stream_pos..stream_pos + data.len();
    let mut scratch = data.to_vec();
    let mut dropped: Vec<(usize, usize)> = Vec::new();
    for f in faults {
        match *f {
            SilentFault::BitFlip { pos, mask } if window.contains(&pos) => {
                scratch[pos - stream_pos] ^= mask;
            }
            SilentFault::DroppedStore { pos, len } => {
                let lo = pos.max(window.start);
                let hi = (pos + len).min(window.end);
                if lo < hi {
                    dropped.push((lo - stream_pos, hi - stream_pos));
                }
            }
            _ => {}
        }
    }
    dropped.sort_unstable();
    let mut cur = 0usize;
    for (lo, hi) in dropped {
        if lo > cur {
            mem.write(dst_offset + cur, &scratch[cur..lo])?;
        }
        cur = cur.max(hi);
    }
    if cur < scratch.len() {
        mem.write(dst_offset + cur, &scratch[cur..])?;
    }
    Ok(())
}

/// Heartbeat-style connection monitor: SCI-MPICH checks peers before
/// trusting transparent remote memory, because a hung node looks exactly
/// like slow memory.
#[derive(Debug)]
pub struct ConnectionMonitor<'a> {
    injector: &'a FaultInjector,
    /// Probe cost per check (a small remote read round trip).
    pub probe_cost: SimDuration,
}

impl<'a> ConnectionMonitor<'a> {
    /// A monitor bound to a fabric's injector.
    pub fn new(injector: &'a FaultInjector, probe_cost: SimDuration) -> Self {
        ConnectionMonitor {
            injector,
            probe_cost,
        }
    }

    /// Probe a peer: costs `probe_cost` on the caller's clock and errors if
    /// the peer is dead or the route is severed.
    pub fn probe(
        &self,
        clock: &mut simclock::Clock,
        peer: usize,
        route: &Route,
    ) -> Result<(), SciError> {
        clock.advance(self.probe_cost);
        self.injector.check_route(route)?;
        if self.injector.node_dead(peer) {
            return Err(SciError::PeerDead(peer));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeId, Topology};
    use simclock::Clock;

    fn route() -> Route {
        Topology::ringlet(8).route(NodeId(0), NodeId(3))
    }

    #[test]
    fn healthy_fabric_is_clean() {
        let inj = FaultInjector::new(FaultConfig::default(), 1);
        for _ in 0..1000 {
            assert_eq!(inj.transact(&route()).unwrap(), TxnOutcome::CLEAN);
        }
    }

    #[test]
    fn lossy_fabric_retries_sometimes() {
        let inj = FaultInjector::new(FaultConfig::lossy(0.2), 42);
        let mut retried = 0;
        for _ in 0..1000 {
            let out = inj.transact(&route()).unwrap();
            if out.retries > 0 {
                retried += 1;
                assert!(out.extra_latency >= RETRY_PENALTY);
            }
        }
        // ~20% of transactions should see at least one retry.
        assert!((100..350).contains(&retried), "retried {retried}");
    }

    #[test]
    fn injector_is_deterministic() {
        let run = |seed| {
            let inj = FaultInjector::new(FaultConfig::lossy(0.3), seed);
            (0..100)
                .map(|_| inj.transact(&route()).unwrap().retries)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn pulled_cable_blocks_routes_through_it() {
        let inj = FaultInjector::new(FaultConfig::default(), 1);
        inj.fail_link(LinkId(1));
        let r = route(); // crosses links 0,1,2
        assert_eq!(
            inj.transact(&r),
            Err(FailedTransaction::from(SciError::LinkDown(LinkId(1))))
        );
        inj.restore_link(LinkId(1));
        assert!(inj.transact(&r).is_ok());
    }

    #[test]
    fn unaffected_route_still_works() {
        let topo = Topology::ringlet(8);
        let inj = FaultInjector::new(FaultConfig::default(), 1);
        inj.fail_link(LinkId(6));
        let r = topo.route(NodeId(0), NodeId(3)); // links 0..2
        assert!(inj.transact(&r).is_ok());
    }

    #[test]
    fn persistent_errors_eventually_fail_hard() {
        let cfg = FaultConfig {
            error_rate: 1.0, // every attempt fails
            max_retries: 3,
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(cfg, 9);
        let err = inj.transact(&route()).unwrap_err();
        assert!(matches!(err.error, SciError::LinkDown(_)));
    }

    /// Regression: a transaction that errors out hard must still charge
    /// the virtual time its failed attempts consumed — a dead link is not
    /// a free path, the adapter spent `RETRY_PENALTY` per attempt before
    /// giving up.
    #[test]
    fn hard_failure_charges_wasted_retry_time() {
        let cfg = FaultConfig {
            error_rate: 1.0, // every attempt fails
            max_retries: 3,
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(cfg, 9);
        let err = inj.transact(&route()).unwrap_err();
        // max_retries + 1 attempts burned a RETRY_PENALTY each.
        assert_eq!(err.retries, 4);
        assert_eq!(err.wasted, RETRY_PENALTY.saturating_mul(4));
        // An administratively severed route fails instantly and free.
        inj.fail_link(LinkId(0));
        let err = inj.transact(&route()).unwrap_err();
        assert_eq!(err.wasted, SimDuration::ZERO);
        assert_eq!(err.retries, 0);
    }

    #[test]
    fn monitor_detects_dead_peer() {
        let inj = FaultInjector::new(FaultConfig::default(), 1);
        let mon = ConnectionMonitor::new(&inj, SimDuration::from_us(4));
        let mut clock = Clock::new();
        assert!(mon.probe(&mut clock, 3, &route()).is_ok());
        inj.kill_node(3);
        assert_eq!(
            mon.probe(&mut clock, 3, &route()),
            Err(SciError::PeerDead(3))
        );
        inj.revive_node(3);
        assert!(mon.probe(&mut clock, 3, &route()).is_ok());
        // Three probes cost 12us.
        assert_eq!(clock.now().as_ps(), SimDuration::from_us(12).as_ps());
    }

    #[test]
    fn error_display_is_informative() {
        let e = SciError::LinkDown(LinkId(4));
        assert!(e.to_string().contains("link 4"));
        let e = SciError::PeerDead(2);
        assert!(e.to_string().contains("n2"));
    }

    #[test]
    fn silent_faults_default_off_and_draw_free() {
        let inj = FaultInjector::new(FaultConfig::default(), 3);
        assert!(inj.silent_faults((0, 3), 64, 1 << 20, true).is_empty());
        // The shared retry RNG must be untouched by silent-fault queries:
        // two injectors, one queried and one not, stay in lockstep.
        let a = FaultInjector::new(FaultConfig::lossy(0.3), 5);
        let b = FaultInjector::new(FaultConfig::lossy(0.3), 5);
        a.silent_faults((0, 1), 64, 4096, true);
        let draws_a: Vec<u32> = (0..50)
            .map(|_| a.transact(&route()).unwrap().retries)
            .collect();
        let draws_b: Vec<u32> = (0..50)
            .map(|_| b.transact(&route()).unwrap().retries)
            .collect();
        assert_eq!(draws_a, draws_b);
    }

    #[test]
    fn silent_faults_are_per_pair_deterministic() {
        let roll = |pair| {
            let inj = FaultInjector::new(FaultConfig::silent(0.1, 0.05), 77);
            inj.silent_faults(pair, 64, 64 * 1024, true)
        };
        assert_eq!(roll((0, 2)), roll((0, 2)));
        assert_ne!(roll((0, 2)), roll((2, 0)), "pairs are ordered");
        // Interleaving with another pair's draws must not perturb a pair's
        // own sequence.
        let inj = FaultInjector::new(FaultConfig::silent(0.1, 0.05), 77);
        inj.silent_faults((1, 3), 64, 64 * 1024, true);
        assert_eq!(inj.silent_faults((0, 2), 64, 64 * 1024, true), roll((0, 2)));
    }

    #[test]
    fn intra_node_transfers_never_fault() {
        let inj = FaultInjector::new(FaultConfig::silent(1.0, 1.0), 1);
        assert!(inj.silent_faults((2, 2), 64, 4096, true).is_empty());
    }

    #[test]
    fn read_paths_see_flips_but_no_drops() {
        let inj = FaultInjector::new(FaultConfig::silent(0.0, 1.0), 1);
        assert!(inj.silent_faults((0, 1), 64, 4096, false).is_empty());
        let inj = FaultInjector::new(FaultConfig::silent(1.0, 0.0), 1);
        let faults = inj.silent_faults((0, 1), 64, 4096, false);
        assert_eq!(faults.len(), 64, "one flip per transaction at rate 1");
        assert!(faults
            .iter()
            .all(|f| matches!(f, SilentFault::BitFlip { .. })));
    }

    #[test]
    fn write_with_faults_flips_and_drops() {
        let mem = SharedMem::new(256);
        mem.fill(0, 256, 0xEE).unwrap();
        let data = vec![0x00u8; 128];
        let faults = [
            SilentFault::BitFlip { pos: 5, mask: 0x80 },
            SilentFault::DroppedStore { pos: 64, len: 64 },
        ];
        write_with_faults(&mem, 0, &data, 0, &faults).unwrap();
        let snap = mem.snapshot();
        assert_eq!(snap[5], 0x80, "bit flip landed");
        assert!(snap[..5].iter().all(|&b| b == 0), "clean bytes landed");
        assert!(
            snap[64..128].iter().all(|&b| b == 0xEE),
            "dropped store left previous content"
        );
        assert!(snap[128..].iter().all(|&b| b == 0xEE), "untouched tail");
    }

    #[test]
    fn death_schedule_is_pure_and_deterministic() {
        let horizon = SimDuration::from_ms(5);
        let a = death_schedule(11, 8, 3, horizon);
        let b = death_schedule(11, 8, 3, horizon);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(
            death_schedule(11, 8, 3, horizon),
            death_schedule(12, 8, 3, horizon),
            "different seeds differ"
        );
        // Distinct victims, node 0 spared, offsets inside the horizon,
        // events sorted by time.
        assert_eq!(a.len(), 3);
        let mut nodes: Vec<usize> = a.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 3, "victims are distinct");
        assert!(a.iter().all(|e| e.node != 0 && e.node < 8));
        assert!(a.iter().all(|e| e.after < horizon));
        assert!(a.windows(2).all(|w| w[0].after <= w[1].after));
    }

    #[test]
    fn death_schedule_caps_at_survivable_population() {
        // Asking for more deaths than killable nodes caps at nodes-1
        // (node 0 always survives); degenerate worlds get no deaths.
        let horizon = SimDuration::from_ms(1);
        assert_eq!(death_schedule(5, 4, 10, horizon).len(), 3);
        assert!(death_schedule(5, 1, 2, horizon).is_empty());
        assert!(death_schedule(5, 0, 2, horizon).is_empty());
        assert!(death_schedule(5, 8, 0, horizon).is_empty());
    }

    #[test]
    fn death_schedule_leaves_injector_streams_untouched() {
        // Computing a schedule must not perturb any injector RNG: two
        // injectors, one alongside schedule draws and one without, stay
        // in lockstep.
        let a = FaultInjector::new(FaultConfig::lossy(0.3), 5);
        let b = FaultInjector::new(FaultConfig::lossy(0.3), 5);
        let _ = death_schedule(5, 8, 4, SimDuration::from_ms(2));
        let draws_a: Vec<u32> = (0..50)
            .map(|_| a.transact(&route()).unwrap().retries)
            .collect();
        let draws_b: Vec<u32> = (0..50)
            .map(|_| b.transact(&route()).unwrap().retries)
            .collect();
        assert_eq!(draws_a, draws_b);
    }

    #[test]
    fn corrupt_buffer_applies_in_place() {
        let inj = FaultInjector::new(FaultConfig::silent(1.0, 0.0), 4);
        let mut data = vec![0xFFu8; 64]; // one transaction
        let n = inj.corrupt_buffer((0, 1), 64, &mut data);
        assert_eq!(n, 1);
        assert_eq!(
            data.iter().filter(|&&b| b != 0xFF).count(),
            1,
            "exactly one flipped byte"
        );
    }
}

//! Ring-link contention and traffic accounting.
//!
//! SCI is built from independent point-to-point segments; the effective
//! bandwidth of a transfer depends on how many concurrent transfers cross
//! each segment it uses (the paper's *segment utilisation*, Table 2) and on
//! ring saturation (goodput degrades once offered load exceeds ~90 % of the
//! nominal link rate — flow-control echoes and retries eat the rest).
//!
//! The registry tracks, per segment, the number of active streams and the
//! cumulative data / flow-control bytes injected, so harnesses can report
//! the paper's *load* and *efficiency* columns.

use crate::params::SciParams;
use crate::topology::{LinkId, Route, Topology};
use simclock::Bandwidth;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-segment state.
#[derive(Debug, Default)]
struct LinkState {
    /// Streams currently crossing this segment.
    active: AtomicU32,
    /// Arrival-ordered sequence numbers of the streams currently open on
    /// this segment. This is the registry's *arbitration order*: shares
    /// resolve against the streams on this list, and the list mutates in
    /// the order streams open and close. Kept beside `active` (which
    /// stays a bare atomic so the share math is untouched).
    open: Mutex<Vec<u64>>,
    /// Cumulative payload bytes carried.
    data_bytes: AtomicU64,
    /// Cumulative flow-control / echo bytes carried.
    fc_bytes: AtomicU64,
}

/// Registry of all ring segments of a fabric.
#[derive(Debug)]
pub struct LinkRegistry {
    links: Vec<LinkState>,
    /// Monotonic arrival stamp handed to each stream as it opens. The
    /// assignment order *is* the arbitration order: ranks of a `scimpi`
    /// run open their streams in virtual-time dispatch order, so the
    /// sequence is deterministic (see `docs/ASYNC.md`); free-running
    /// threads using the fabric directly open them in host order.
    next_seq: AtomicU64,
    /// Bumped after every change to any segment's `active` count (a stream
    /// opening or closing). [`Self::effective_bandwidth`] reads nothing
    /// else that can change, so a caller may reuse its last result while
    /// this stands still. Bumped with `Release` *after* the counts move
    /// and read with `Acquire` *before* they are read: whoever sees the
    /// new generation sees the new counts.
    generation: AtomicU64,
}

impl LinkRegistry {
    /// A registry sized for `topology`.
    pub fn new(topology: &Topology) -> Self {
        let mut links = Vec::with_capacity(topology.link_count());
        links.resize_with(topology.link_count(), LinkState::default);
        LinkRegistry {
            links,
            next_seq: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Number of segments tracked.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Register an active stream on the **request path** of `route`.
    /// Echo/flow-control traffic is accounted as a load factor (see
    /// [`LinkRegistry::effective_bandwidth`]) rather than as streams —
    /// Table 2 shows neighbour transfers at full rate on a fully
    /// populated ring, so small echoes must not count as competitors.
    /// Returns a guard that deregisters on drop.
    pub fn start_stream(self: &Arc<Self>, route: &Route) -> StreamGuard {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let links: Vec<LinkId> = route.links.clone();
        for l in &links {
            self.links[l.0].active.fetch_add(1, Ordering::Relaxed);
            self.links[l.0].open.lock().unwrap().push(seq);
        }
        self.generation.fetch_add(1, Ordering::Release);
        StreamGuard {
            registry: Arc::clone(self),
            links,
            seq,
        }
    }

    /// Current number of active streams on a segment.
    pub fn active_on(&self, link: LinkId) -> u32 {
        self.links[link.0].active.load(Ordering::Relaxed)
    }

    /// Arrival-ordered sequence numbers of the streams currently open on
    /// `link` — the order contention shares resolve in: virtual-time
    /// dispatch order in a `scimpi` run.
    pub fn open_streams(&self, link: LinkId) -> Vec<u64> {
        self.links[link.0].open.lock().unwrap().clone()
    }

    /// The contention generation: changes whenever a stream opens or
    /// closes anywhere on the fabric, i.e. whenever
    /// [`Self::effective_bandwidth`] may answer differently for the same
    /// route and demand.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Total streams ever opened on this registry.
    pub fn streams_opened(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// The maximum active-stream count over the request path of `route`
    /// (the bottleneck utilisation).
    pub fn bottleneck_utilisation(&self, route: &Route) -> u32 {
        route
            .links
            .iter()
            .map(|l| self.active_on(*l))
            .max()
            .unwrap_or(0)
    }

    /// Effective bandwidth available to one stream following `route`,
    /// given the stream's own uncontended `demand` rate and current
    /// contention.
    ///
    /// Composition: each segment offers `goodput(load) * link_bw / n_active`
    /// to each of its streams; the stream gets the minimum share over its
    /// request path, never more than its own demand. The offered load is
    /// estimated as `n_active · demand / link_bw` (all concurrent streams
    /// of a symmetric benchmark want the same rate). Local routes are
    /// unconstrained by the ring.
    pub fn effective_bandwidth(
        &self,
        params: &SciParams,
        route: &Route,
        demand: Bandwidth,
    ) -> Bandwidth {
        if route.is_local() {
            return demand;
        }
        let mut bw = demand;
        for l in &route.links {
            let n = self.active_on(*l).max(1) as u64;
            // Offered load: n data streams plus their flow-control echoes.
            let offered = n as f64 * demand.mib_per_sec() * (1.0 + params.flow_control_overhead)
                / params.link_bandwidth.mib_per_sec();
            let goodput = params.ring_goodput(offered);
            let share = params.link_bandwidth.scale(goodput).share(n);
            bw = bw.min(share);
        }
        bw
    }

    /// Account traffic for a transfer of `payload` bytes over `route`:
    /// payload on the request path, flow-control echoes on the echo path.
    pub fn account(&self, params: &SciParams, route: &Route, payload: u64) {
        self.account_bursts(params, route, payload, 1);
    }

    /// [`Self::account`] for `bursts` transfers of `payload` bytes each:
    /// the flow-control share is truncated to whole bytes per transfer, as
    /// accounting them one by one would.
    pub fn account_bursts(&self, params: &SciParams, route: &Route, payload: u64, bursts: u64) {
        let fc = (payload as f64 * params.flow_control_overhead) as u64;
        for l in &route.links {
            self.links[l.0]
                .data_bytes
                .fetch_add(payload * bursts, Ordering::Relaxed);
        }
        for l in &route.echo_links {
            self.links[l.0]
                .fc_bytes
                .fetch_add(fc * bursts, Ordering::Relaxed);
        }
    }

    /// Snapshot cumulative traffic.
    pub fn traffic(&self) -> TrafficStats {
        TrafficStats {
            per_link: self
                .links
                .iter()
                .map(|l| LinkTraffic {
                    data_bytes: l.data_bytes.load(Ordering::Relaxed),
                    fc_bytes: l.fc_bytes.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Reset traffic counters (benchmark repetitions).
    pub fn reset_traffic(&self) {
        for l in &self.links {
            l.data_bytes.store(0, Ordering::Relaxed);
            l.fc_bytes.store(0, Ordering::Relaxed);
        }
    }
}

/// RAII registration of one stream on a set of segments.
#[derive(Debug)]
pub struct StreamGuard {
    registry: Arc<LinkRegistry>,
    links: Vec<LinkId>,
    seq: u64,
}

impl StreamGuard {
    /// The arrival stamp this stream was assigned when it opened.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl Drop for StreamGuard {
    fn drop(&mut self) {
        for l in &self.links {
            self.registry.links[l.0]
                .active
                .fetch_sub(1, Ordering::Relaxed);
            self.registry.links[l.0]
                .open
                .lock()
                .unwrap()
                .retain(|&s| s != self.seq);
        }
        self.registry.generation.fetch_add(1, Ordering::Release);
    }
}

/// Cumulative bytes carried by one segment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Payload bytes.
    pub data_bytes: u64,
    /// Flow-control / echo bytes.
    pub fc_bytes: u64,
}

impl LinkTraffic {
    /// Total wire bytes.
    pub fn total(&self) -> u64 {
        self.data_bytes + self.fc_bytes
    }
}

/// Snapshot of traffic over all segments.
#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    /// Per-segment counters, indexed by `LinkId`.
    pub per_link: Vec<LinkTraffic>,
}

impl TrafficStats {
    /// The busiest segment's total bytes.
    pub fn max_link_bytes(&self) -> u64 {
        self.per_link
            .iter()
            .map(LinkTraffic::total)
            .max()
            .unwrap_or(0)
    }

    /// Sum of payload bytes over all segments.
    pub fn total_data(&self) -> u64 {
        self.per_link.iter().map(|l| l.data_bytes).sum()
    }

    /// Sum of flow-control bytes over all segments.
    pub fn total_fc(&self) -> u64 {
        self.per_link.iter().map(|l| l.fc_bytes).sum()
    }

    /// Per-segment traffic as explicit `(LinkId, LinkTraffic)` pairs, so
    /// tests and the tracer can assert on individual segment utilisation
    /// instead of only the totals.
    pub fn per_link(&self) -> Vec<(LinkId, LinkTraffic)> {
        self.per_link
            .iter()
            .enumerate()
            .map(|(i, t)| (LinkId(i), *t))
            .collect()
    }
}

impl std::fmt::Display for TrafficStats {
    /// One line per segment (`L3: 4096 data + 327 fc B`), then a totals
    /// line. Segments that carried nothing are elided.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (id, t) in self.per_link() {
            if t.total() == 0 {
                continue;
            }
            writeln!(f, "L{}: {} data + {} fc B", id.0, t.data_bytes, t.fc_bytes)?;
        }
        write!(
            f,
            "total: {} data + {} fc B over {} links (busiest {} B)",
            self.total_data(),
            self.total_fc(),
            self.per_link.len(),
            self.max_link_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    fn setup() -> (SciParams, Topology, Arc<LinkRegistry>) {
        let t = Topology::ringlet(8);
        let r = Arc::new(LinkRegistry::new(&t));
        (SciParams::default(), t, r)
    }

    #[test]
    fn stream_guard_registers_and_releases() {
        let (_, t, reg) = setup();
        let route = t.route(NodeId(0), NodeId(3));
        {
            let _g = reg.start_stream(&route);
            assert_eq!(reg.active_on(LinkId(0)), 1);
            assert_eq!(reg.active_on(LinkId(2)), 1);
            // Echo path is NOT registered as a stream (it is load, not a
            // competitor).
            assert_eq!(reg.active_on(LinkId(5)), 0);
        }
        assert_eq!(reg.active_on(LinkId(0)), 0);
    }

    #[test]
    fn single_stream_gets_its_demand() {
        let (p, t, reg) = setup();
        let route = t.route(NodeId(0), NodeId(1));
        let _g = reg.start_stream(&route);
        let bw = reg.effective_bandwidth(&p, &route, p.node_injection_cap);
        assert_eq!(bw, p.node_injection_cap);
        // Even a demand above the link rate is honoured when uncontended
        // enough (one stream, goodput 1 below onset).
        let raw = reg.effective_bandwidth(&p, &route, p.pio_write_peak);
        assert_eq!(raw, p.pio_write_peak);
    }

    #[test]
    fn eight_streams_on_one_segment_shrink_share() {
        let (p, t, reg) = setup();
        let route = t.route(NodeId(0), NodeId(1));
        let guards: Vec<_> = (0..8).map(|_| reg.start_stream(&route)).collect();
        let bw = reg.effective_bandwidth(&p, &route, p.node_injection_cap);
        // Table 2 anchor: ~63 MiB/s per stream at utilisation 8.
        assert!(bw.mib_per_sec() < 85.0, "got {bw}");
        assert!(bw.mib_per_sec() > 45.0, "got {bw}");
        drop(guards);
    }

    #[test]
    fn local_route_not_ring_limited() {
        let (p, t, reg) = setup();
        let route = t.route(NodeId(2), NodeId(2));
        let bw = reg.effective_bandwidth(&p, &route, p.cache.mem_copy);
        assert_eq!(bw, p.cache.mem_copy);
    }

    #[test]
    fn accounting_tracks_request_and_echo() {
        let (p, t, reg) = setup();
        let route = t.route(NodeId(0), NodeId(2));
        reg.account(&p, &route, 1000);
        let traffic = reg.traffic();
        assert_eq!(traffic.per_link[0].data_bytes, 1000);
        assert_eq!(traffic.per_link[1].data_bytes, 1000);
        assert_eq!(traffic.per_link[2].data_bytes, 0);
        assert_eq!(traffic.per_link[2].fc_bytes, 80); // 8% of payload
        assert_eq!(traffic.total_data(), 2000);
        reg.reset_traffic();
        assert_eq!(reg.traffic().total_data(), 0);
    }

    #[test]
    fn per_link_pairs_and_display() {
        let (p, t, reg) = setup();
        let route = t.route(NodeId(0), NodeId(2));
        reg.account(&p, &route, 1000);
        let traffic = reg.traffic();
        let pairs = traffic.per_link();
        assert_eq!(pairs.len(), traffic.per_link.len());
        assert_eq!(pairs[0], (LinkId(0), traffic.per_link[0]));
        assert_eq!(pairs[1].1.data_bytes, 1000);
        let rendered = traffic.to_string();
        assert!(rendered.contains("L0: 1000 data + 0 fc B"), "{rendered}");
        assert!(rendered.contains("L2: 0 data + 80 fc B"), "{rendered}");
        assert!(
            rendered.contains("total: 2000 data + 480 fc B"),
            "{rendered}"
        );
        // Idle links are elided.
        assert!(!rendered.contains("L1: 0 data + 0"), "{rendered}");
    }

    #[test]
    fn bottleneck_utilisation_sees_peak() {
        let (_, t, reg) = setup();
        let long = t.route(NodeId(0), NodeId(4));
        let short = t.route(NodeId(2), NodeId(3));
        let _g1 = reg.start_stream(&long);
        let _g2 = reg.start_stream(&short);
        // Link 2 carries both.
        assert_eq!(reg.bottleneck_utilisation(&long), 2);
        assert_eq!(reg.bottleneck_utilisation(&short), 2);
    }

    #[test]
    fn arrival_sequence_is_the_arbitration_order() {
        let (_, t, reg) = setup();
        let long = t.route(NodeId(0), NodeId(3)); // L0 L1 L2
        let short = t.route(NodeId(2), NodeId(3)); // L2
        let g1 = reg.start_stream(&long);
        let g2 = reg.start_stream(&short);
        let g3 = reg.start_stream(&short);
        // Stamps are handed out in open order and every shared segment
        // lists its competitors in that order.
        assert!(g1.seq() < g2.seq() && g2.seq() < g3.seq());
        assert_eq!(
            reg.open_streams(LinkId(2)),
            vec![g1.seq(), g2.seq(), g3.seq()]
        );
        assert_eq!(reg.open_streams(LinkId(0)), vec![g1.seq()]);
        // Closing the *middle* competitor keeps the survivors in arrival
        // order — the list is order-preserving, not a stack.
        drop(g2);
        assert_eq!(reg.open_streams(LinkId(2)), vec![g1.seq(), g3.seq()]);
        drop(g1);
        drop(g3);
        assert!(reg.open_streams(LinkId(2)).is_empty());
        assert_eq!(reg.streams_opened(), 3);
    }

    #[test]
    fn concurrent_guards_from_threads() {
        use std::sync::Arc;
        let t = Topology::ringlet(8);
        let reg = Arc::new(LinkRegistry::new(&t));
        let mut handles = Vec::new();
        for i in 0..8 {
            let reg = Arc::clone(&reg);
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                let route = t.route(NodeId(i), NodeId((i + 1) % 8));
                for _ in 0..1000 {
                    let _g = reg.start_stream(&route);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for l in 0..8 {
            assert_eq!(reg.active_on(LinkId(l)), 0);
        }
    }
}

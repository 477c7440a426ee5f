//! Cluster topology: nodes, ring segments, routes.
//!
//! The paper's testbed is a single SCI ringlet of 8 nodes: node *i*'s output
//! is cabled to node *i+1 mod N*'s input, so a request from A to B traverses
//! the segments A, A+1, …, B−1. SCI responses (echoes) continue around the
//! ring back to the sender, which is why the paper counts a maximum segment
//! utilisation of 8 on an 8-node ring.
//!
//! For the outlook in §5.3 (512-node systems from 8-node ringlets in a 3-D
//! torus) the topology also supports multiple rings joined by switch nodes;
//! routing between rings adds a fixed switch latency per crossing.

use core::fmt;

/// Identifies one node of the simulated cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies one unidirectional ring segment (the cable from `from` to the
/// next node on its ring). Links are numbered globally across rings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub usize);

/// A route: the ordered list of ring segments a request traverses, plus the
/// number of inter-ring switch crossings.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Route {
    /// Segments traversed by the request path, in order.
    pub links: Vec<LinkId>,
    /// Segments traversed by the SCI echo/response on its way back to the
    /// sender (continuing around each ring).
    pub echo_links: Vec<LinkId>,
    /// Inter-ring switch crossings (0 on a single ringlet).
    pub switch_crossings: usize,
    /// True for a failover route computed by [`Topology::alternate_route`]:
    /// traffic pays a degraded-path latency penalty while riding it.
    pub degraded: bool,
}

impl Route {
    /// An empty route (intra-node access).
    pub fn local() -> Route {
        Route::default()
    }

    /// True if this route stays inside one node (no fabric traversal).
    pub fn is_local(&self) -> bool {
        self.links.is_empty() && self.switch_crossings == 0
    }

    /// Number of request-path hops.
    pub fn hops(&self) -> usize {
        self.links.len() + self.switch_crossings
    }
}

/// Cluster interconnect topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Topology {
    /// A single SCI ringlet of `nodes` nodes.
    Ringlet { nodes: usize },
    /// `rings` ringlets of `nodes_per_ring` nodes each, joined through a
    /// switch fabric (abstracting the paper's 3-D torus outlook). Node ids
    /// are assigned ring-major: node `r * nodes_per_ring + i` is position
    /// `i` on ring `r`.
    MultiRing {
        /// Number of ringlets.
        rings: usize,
        /// Nodes per ringlet.
        nodes_per_ring: usize,
    },
}

impl Topology {
    /// A single ringlet of `nodes` nodes (panics on zero).
    pub fn ringlet(nodes: usize) -> Topology {
        assert!(nodes > 0, "a ringlet needs at least one node");
        Topology::Ringlet { nodes }
    }

    /// A multi-ring torus-like fabric (panics on zero dimensions).
    pub fn multi_ring(rings: usize, nodes_per_ring: usize) -> Topology {
        assert!(rings > 0 && nodes_per_ring > 0, "degenerate multi-ring");
        Topology::MultiRing {
            rings,
            nodes_per_ring,
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        match *self {
            Topology::Ringlet { nodes } => nodes,
            Topology::MultiRing {
                rings,
                nodes_per_ring,
            } => rings * nodes_per_ring,
        }
    }

    /// Total number of unidirectional ring segments.
    pub fn link_count(&self) -> usize {
        match *self {
            // A 1-node "ring" has no usable segment but we keep one slot so
            // LinkId arithmetic stays total.
            Topology::Ringlet { nodes } => nodes.max(1),
            Topology::MultiRing {
                rings,
                nodes_per_ring,
            } => rings * nodes_per_ring.max(1),
        }
    }

    /// The ring a node belongs to and its position on that ring.
    fn locate(&self, n: NodeId) -> (usize, usize, usize) {
        match *self {
            Topology::Ringlet { nodes } => {
                assert!(n.0 < nodes, "node {n} outside topology");
                (0, n.0, nodes)
            }
            Topology::MultiRing {
                rings,
                nodes_per_ring,
            } => {
                assert!(n.0 < rings * nodes_per_ring, "node {n} outside topology");
                (n.0 / nodes_per_ring, n.0 % nodes_per_ring, nodes_per_ring)
            }
        }
    }

    /// Segments from position `pos` walking `count` hops forward on `ring`.
    fn walk(&self, ring: usize, pos: usize, count: usize, ring_len: usize) -> Vec<LinkId> {
        (0..count)
            .map(|k| LinkId(ring * ring_len + (pos + k) % ring_len))
            .collect()
    }

    /// Compute the route for a request from `src` to `dst`.
    ///
    /// On a single ring the request travels forward from `src` to `dst` and
    /// the echo continues forward from `dst` back to `src`, so together they
    /// traverse every segment of the ring exactly once — matching the
    /// paper's utilisation accounting. Intra-node routes are empty.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route {
        if src == dst {
            return Route::local();
        }
        let (ring_s, pos_s, len_s) = self.locate(src);
        let (ring_d, pos_d, len_d) = self.locate(dst);
        if ring_s == ring_d {
            let fwd = (pos_d + len_s - pos_s) % len_s;
            let links = self.walk(ring_s, pos_s, fwd, len_s);
            let echo_links = self.walk(ring_s, pos_d, len_s - fwd, len_s);
            Route {
                links,
                echo_links,
                switch_crossings: 0,
                degraded: false,
            }
        } else {
            // Cross-ring: ride the source ring to its switch port (position
            // 0), cross the switch, ride the target ring from its port.
            let to_port = (len_s - pos_s) % len_s;
            let mut links = self.walk(ring_s, pos_s, to_port, len_s);
            links.extend(self.walk(ring_d, 0, pos_d, len_d));
            let echo_links = self.walk(ring_d, pos_d, len_d - pos_d, len_d);
            Route {
                links,
                echo_links,
                switch_crossings: 1,
                degraded: false,
            }
        }
    }

    /// Compute a failover route from `src` to `dst` that avoids the
    /// request links of the primary [`Topology::route`], or `None` when
    /// the topology offers no alternative.
    ///
    /// A single ringlet is unidirectional — there is exactly one way
    /// around, so no alternate exists. On a multi-ring fabric the switch
    /// ports give a second path: within a ring the alternate rides the
    /// complement arc *backwards* (modelling a maintenance bypass through
    /// the switch ports), and across rings it rides both ring arcs the
    /// other way. Alternate routes are marked [`Route::degraded`]; the
    /// fabric charges `degraded_route_latency` per access on them.
    pub fn alternate_route(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        if src == dst {
            return None;
        }
        match *self {
            Topology::Ringlet { .. } => None,
            Topology::MultiRing { .. } => {
                let (ring_s, pos_s, len_s) = self.locate(src);
                let (ring_d, pos_d, len_d) = self.locate(dst);
                if ring_s == ring_d {
                    let fwd = (pos_d + len_s - pos_s) % len_s;
                    // The complement arc dst→src reversed: the same
                    // segments, traversed in the bypass direction, none
                    // shared with the primary request path.
                    let mut links = self.walk(ring_s, pos_d, len_s - fwd, len_s);
                    links.reverse();
                    let mut echo_links = self.walk(ring_s, pos_s, fwd, len_s);
                    echo_links.reverse();
                    Some(Route {
                        links,
                        echo_links,
                        switch_crossings: 0,
                        degraded: true,
                    })
                } else {
                    // Ride the source ring backwards to its switch port
                    // and the target ring backwards from the port — the
                    // arcs the primary route does not touch.
                    let mut links = self.walk(ring_s, 0, pos_s, len_s);
                    links.reverse();
                    let mut tail = self.walk(ring_d, pos_d, (len_d - pos_d) % len_d, len_d);
                    tail.reverse();
                    links.extend(tail);
                    let echo_links = self.walk(ring_d, 0, pos_d, len_d);
                    Some(Route {
                        links,
                        echo_links,
                        switch_crossings: 1,
                        degraded: true,
                    })
                }
            }
        }
    }

    /// Ring distance (request hops) from `src` to `dst`: the hop count of
    /// [`Topology::route`], computed without building the route.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        if src == dst {
            return 0;
        }
        let (ring_s, pos_s, len_s) = self.locate(src);
        let (ring_d, pos_d, _) = self.locate(dst);
        if ring_s == ring_d {
            (pos_d + len_s - pos_s) % len_s
        } else {
            // To the source ring's switch port, one crossing, from the
            // target ring's port.
            (len_s - pos_s) % len_s + 1 + pos_d
        }
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ringlet_neighbour_route() {
        let t = Topology::ringlet(8);
        let r = t.route(NodeId(2), NodeId(3));
        assert_eq!(r.links, vec![LinkId(2)]);
        // Echo continues 3→…→2: seven segments.
        assert_eq!(r.echo_links.len(), 7);
        assert_eq!(r.hops(), 1);
    }

    #[test]
    fn ringlet_wraps_around() {
        let t = Topology::ringlet(8);
        let r = t.route(NodeId(6), NodeId(1));
        assert_eq!(r.links, vec![LinkId(6), LinkId(7), LinkId(0)]);
        assert_eq!(r.hops(), 3);
    }

    #[test]
    fn request_plus_echo_cover_whole_ring_once() {
        let t = Topology::ringlet(8);
        for d in 1..8 {
            let r = t.route(NodeId(0), NodeId(d));
            let mut all: Vec<usize> = r
                .links
                .iter()
                .chain(r.echo_links.iter())
                .map(|l| l.0)
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..8).collect::<Vec<_>>(), "distance {d}");
        }
    }

    #[test]
    fn local_route_is_empty() {
        let t = Topology::ringlet(4);
        let r = t.route(NodeId(1), NodeId(1));
        assert!(r.is_local());
        assert_eq!(r.hops(), 0);
        assert!(r.echo_links.is_empty());
    }

    #[test]
    fn distances_on_ring() {
        let t = Topology::ringlet(8);
        assert_eq!(t.distance(NodeId(0), NodeId(7)), 7);
        assert_eq!(t.distance(NodeId(7), NodeId(0)), 1);
        assert_eq!(t.distance(NodeId(3), NodeId(3)), 0);
    }

    #[test]
    fn distance_is_the_route_hop_count() {
        let ringlets = (1..=9).map(Topology::ringlet);
        let multi = (2..=3).flat_map(|r| (1..=5).map(move |n| Topology::multi_ring(r, n)));
        for t in ringlets.chain(multi) {
            for s in t.nodes() {
                for d in t.nodes() {
                    assert_eq!(t.distance(s, d), t.route(s, d).hops(), "{t:?} {s}->{d}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn distance_checks_its_nodes() {
        let _ = Topology::ringlet(4).distance(NodeId(0), NodeId(4));
    }

    #[test]
    fn multi_ring_crossing() {
        let t = Topology::multi_ring(2, 4);
        assert_eq!(t.node_count(), 8);
        assert_eq!(t.link_count(), 8);
        let r = t.route(NodeId(1), NodeId(6)); // ring 0 pos 1 → ring 1 pos 2
        assert_eq!(r.switch_crossings, 1);
        // 3 hops to port on ring 0 (links 1,2,3), 2 hops on ring 1 (links 4,5)
        assert_eq!(
            r.links,
            vec![LinkId(1), LinkId(2), LinkId(3), LinkId(4), LinkId(5)]
        );
        assert!(!r.is_local());
    }

    #[test]
    fn multi_ring_same_ring_stays_local_to_ring() {
        let t = Topology::multi_ring(2, 4);
        let r = t.route(NodeId(5), NodeId(7)); // both ring 1
        assert_eq!(r.switch_crossings, 0);
        assert_eq!(r.links, vec![LinkId(5), LinkId(6)]);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn out_of_range_node_panics() {
        let t = Topology::ringlet(4);
        let _ = t.route(NodeId(0), NodeId(4));
    }

    #[test]
    fn nodes_iterator_counts() {
        let t = Topology::multi_ring(3, 5);
        assert_eq!(t.nodes().count(), 15);
        assert_eq!(t.nodes().next(), Some(NodeId(0)));
    }

    #[test]
    fn ringlet_has_no_alternate_route() {
        let t = Topology::ringlet(8);
        assert!(t.alternate_route(NodeId(0), NodeId(3)).is_none());
        assert!(t.alternate_route(NodeId(3), NodeId(3)).is_none());
    }

    #[test]
    fn multi_ring_alternate_avoids_primary_links() {
        let t = Topology::multi_ring(2, 4);
        for s in 0..8 {
            for d in 0..8 {
                if s == d {
                    continue;
                }
                let primary = t.route(NodeId(s), NodeId(d));
                let alt = t.alternate_route(NodeId(s), NodeId(d)).unwrap();
                assert!(alt.degraded);
                for l in &alt.links {
                    assert!(
                        !primary.links.contains(l),
                        "{s}->{d}: alternate reuses primary link {l:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_ring_alternate_same_ring_rides_other_arc() {
        let t = Topology::multi_ring(2, 4);
        // Primary 0→2 uses links 0,1; alternate must use 2,3.
        let alt = t.alternate_route(NodeId(0), NodeId(2)).unwrap();
        let mut links: Vec<usize> = alt.links.iter().map(|l| l.0).collect();
        links.sort_unstable();
        assert_eq!(links, vec![2, 3]);
        assert_eq!(alt.switch_crossings, 0);
    }

    #[test]
    fn single_node_ring() {
        let t = Topology::ringlet(1);
        assert_eq!(t.link_count(), 1);
        assert!(t.route(NodeId(0), NodeId(0)).is_local());
    }
}

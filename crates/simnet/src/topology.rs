//! The testbed topology: named machines and the links between them.
//!
//! The paper's infrastructure (§3.2): client NUCs wired to E1 over
//! Ethernet (≤1 ms RTT), E2 reachable from E1 across 2–4 LAN hops
//! (≈3 ms RTT), and an AWS cloud instance at ≈15 ms RTT from everything
//! on-premises. Co-located services talk over loopback.
//!
//! Two storage layouts back the same API (see `Store`): a dense pair
//! matrix for the paper-sized testbed and a sparse adjacency list for
//! scale-out worlds with hundreds of access-site nodes. The layout is
//! selected automatically from the node count and is invisible to
//! callers — [`Topology::link_between`] answers identically in both.

use serde::{Deserialize, Serialize};
use simcore::SimDuration;

use crate::link::Link;

/// Identifier of a machine in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Largest node count served by the dense matrix. The paper's testbed
/// has 4 machines; the matrix stays the hot-path winner (one
/// multiply-add, no branch misses) up to a few dozen nodes, after which
/// its O(n²) memory — and O(n²) per-send cache footprint in
/// [`crate::UdpNet`] — loses to the adjacency list.
const DENSE_MAX_NODES: usize = 64;

/// Link storage. `Dense` is a row-major pair matrix with a stride
/// (`cap`) that grows by doubling, so building an n-node world costs
/// O(n²) amortized instead of the old O(n³) reallocate-per-node.
/// `Sparse` keeps a sorted adjacency list per node; each undirected
/// edge gets a dense id at first `connect`, which [`crate::UdpNet`]
/// uses to index per-edge state without any n² allocation.
#[derive(Debug, Clone)]
enum Store {
    Dense {
        /// Matrix stride; invariant `cap >= names.len()`.
        cap: usize,
        links: Vec<Option<Link>>,
    },
    Sparse {
        /// Per node: `(peer, edge_id, link)` sorted by peer. The link is
        /// mirrored on both endpoints so either side resolves a pair
        /// with one binary search of the smaller list.
        adj: Vec<Vec<(u32, u32, Link)>>,
        edges: u32,
    },
}

/// A set of machines and the duplex links between them.
///
/// Links are stored per unordered pair and used symmetrically (the
/// testbed's links are symmetric); loopback traffic within one machine
/// uses a dedicated low-latency link.
#[derive(Debug, Clone)]
pub struct Topology {
    names: Vec<String>,
    store: Store,
    loopback: Link,
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

impl Topology {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A topology expecting about `nodes` machines. Picks the storage
    /// layout up front and reserves it, so batch construction of a
    /// scale-out world never reallocates per added node.
    pub fn with_capacity(nodes: usize) -> Self {
        let store = if nodes > DENSE_MAX_NODES {
            Store::Sparse {
                adj: Vec::with_capacity(nodes),
                edges: 0,
            }
        } else {
            Store::Dense {
                cap: nodes,
                links: vec![None; nodes * nodes],
            }
        };
        Topology {
            names: Vec::new(),
            store,
            // Loopback/IPC between co-located containers: ~60 µs, no loss.
            loopback: Link::with_latency(SimDuration::from_micros(60)),
        }
    }

    /// Force the sparse layout regardless of node count (equivalence
    /// tests compare it against the dense default at small n).
    pub fn sparse() -> Self {
        Topology {
            names: Vec::new(),
            store: Store::Sparse {
                adj: Vec::new(),
                edges: 0,
            },
            loopback: Link::with_latency(SimDuration::from_micros(60)),
        }
    }

    pub fn is_sparse(&self) -> bool {
        matches!(self.store, Store::Sparse { .. })
    }

    /// Number of distinct connected pairs (sparse layout only; the dense
    /// matrix has no edge ids).
    pub fn edge_count(&self) -> usize {
        match &self.store {
            Store::Dense { .. } => 0,
            Store::Sparse { edges, .. } => *edges as usize,
        }
    }

    /// Add a machine; returns its id.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.to_string());
        let n = self.names.len();
        match &mut self.store {
            Store::Dense { cap, links } => {
                if n > DENSE_MAX_NODES {
                    // Outgrew the matrix: migrate to the adjacency list.
                    self.store = Self::to_sparse(*cap, links, n);
                } else if n > *cap {
                    // Double the stride and re-index surviving entries —
                    // amortized O(n²) over the whole build instead of the
                    // old fresh n² allocation on every single add.
                    let new_cap = (*cap * 2).max(4).max(n);
                    let mut grown = vec![None; new_cap * new_cap];
                    for a in 0..n - 1 {
                        for b in a..n - 1 {
                            grown[a * new_cap + b] = links[a * *cap + b].take();
                        }
                    }
                    *cap = new_cap;
                    *links = grown;
                }
            }
            Store::Sparse { adj, .. } => adj.push(Vec::new()),
        }
        id
    }

    /// Convert a dense matrix to the sparse layout, assigning edge ids
    /// in deterministic lo-major pair order.
    fn to_sparse(cap: usize, links: &mut [Option<Link>], n: usize) -> Store {
        let mut adj: Vec<Vec<(u32, u32, Link)>> = vec![Vec::new(); n];
        let mut edges = 0u32;
        for a in 0..n - 1 {
            for b in a..n - 1 {
                if let Some(link) = links[a * cap + b].take() {
                    adj[a].push((b as u32, edges, link.clone()));
                    adj[b].push((a as u32, edges, link));
                    edges += 1;
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable_by_key(|&(peer, _, _)| peer);
        }
        Store::Sparse { adj, edges }
    }

    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Install (or replace) the duplex link between `a` and `b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: Link) {
        assert_ne!(a, b, "use the loopback for same-node traffic");
        match &mut self.store {
            Store::Dense { cap, links } => {
                let (lo, hi) = if a <= b { (a.0, b.0) } else { (b.0, a.0) };
                links[lo as usize * *cap + hi as usize] = Some(link);
            }
            Store::Sparse { adj, edges } => {
                let (a, b) = (a.0, b.0);
                let id = match adj[a as usize].binary_search_by_key(&b, |&(peer, _, _)| peer) {
                    Ok(i) => {
                        let id = adj[a as usize][i].1;
                        adj[a as usize][i].2 = link.clone();
                        id
                    }
                    Err(i) => {
                        let id = *edges;
                        *edges += 1;
                        adj[a as usize].insert(i, (b, id, link.clone()));
                        id
                    }
                };
                match adj[b as usize].binary_search_by_key(&a, |&(peer, _, _)| peer) {
                    Ok(i) => adj[b as usize][i].2 = link,
                    Err(i) => adj[b as usize].insert(i, (a, id, link)),
                }
            }
        }
    }

    /// Link used for traffic from `a` to `b`. Same-node traffic gets the
    /// loopback; unknown pairs get `None` (unroutable).
    #[inline]
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        if a == b {
            return Some(&self.loopback);
        }
        self.edge_entry(a, b).map(|(_, link)| link)
    }

    /// Edge id and link of the unordered pair `(a, b)`, if connected.
    /// The id is stable from first `connect` and densely allocated in
    /// the sparse layout; the dense matrix synthesizes the pair slot
    /// (ids are only consumed by the sparse [`crate::UdpNet`] path).
    #[inline]
    pub fn edge_entry(&self, a: NodeId, b: NodeId) -> Option<(u32, &Link)> {
        match &self.store {
            Store::Dense { cap, links } => {
                let (lo, hi) = if a <= b { (a.0, b.0) } else { (b.0, a.0) };
                links[lo as usize * *cap + hi as usize]
                    .as_ref()
                    .map(|link| (lo * *cap as u32 + hi, link))
            }
            Store::Sparse { adj, .. } => {
                // Search from the lower-degree endpoint: access sites have
                // O(1) neighbours, so site↔edge lookups touch a 3-entry
                // list even when E1's own list has thousands of sites.
                let (x, y) = (a.0 as usize, b.0 as usize);
                let (from, to) = if adj[x].len() <= adj[y].len() {
                    (x, b.0)
                } else {
                    (y, a.0)
                };
                adj[from]
                    .binary_search_by_key(&to, |&(peer, _, _)| peer)
                    .ok()
                    .map(|i| (adj[from][i].1, &adj[from][i].2))
            }
        }
    }

    /// Replace the loopback link (tests and ablations).
    pub fn set_loopback(&mut self, link: Link) {
        self.loopback = link;
    }

    /// The loopback link (same-node traffic).
    pub fn loopback(&self) -> &Link {
        &self.loopback
    }
}

/// Handles to the machines of the paper's testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Testbed {
    pub e1: NodeId,
    pub e2: NodeId,
    pub cloud: NodeId,
    /// One node per client NUC host (site 0 in scale-out worlds).
    pub client_host: NodeId,
}

impl Testbed {
    /// Build the paper's testbed. The returned [`Topology`] has four
    /// machines: E1, E2, cloud, and a client host standing in for the
    /// NUC pool (clients are virtualized containers on NUCs in the paper,
    /// so one network vantage point suffices).
    pub fn build() -> (Topology, Testbed) {
        let (topo, tb, _) = Self::build_with_sites(1);
        (topo, tb)
    }

    /// Build the testbed with `sites` access-site nodes in place of the
    /// single client host. Each site gets the client-host link set:
    /// Ethernet to E1, LAN to E2, Internet to the cloud. `sites = 1`
    /// reproduces [`Testbed::build`] exactly — same node ids, same
    /// insertion and connect order — so legacy seeded runs are
    /// byte-identical. Returns the site nodes; `client_host` is site 0.
    pub fn build_with_sites(sites: usize) -> (Topology, Testbed, Vec<NodeId>) {
        let sites = sites.max(1);
        let mut topo = Topology::with_capacity(sites + 3);
        let site_nodes: Vec<NodeId> = (0..sites)
            .map(|i| {
                if sites == 1 {
                    topo.add_node("client-host")
                } else {
                    topo.add_node(&format!("site-{i}"))
                }
            })
            .collect();
        let e1 = topo.add_node("E1");
        let e2 = topo.add_node("E2");
        let cloud = topo.add_node("cloud");

        // Client NUCs wired directly to E1: ≤1 ms RTT gigabit Ethernet.
        for &site in &site_nodes {
            topo.connect(site, e1, Link::from_rtt_ms(1.0).bandwidth_mbps(1000.0));
        }
        // E1 ↔ E2 over 2–4 LAN hops: ≈3 ms RTT, gigabit.
        topo.connect(e1, e2, Link::from_rtt_ms(3.0).bandwidth_mbps(1000.0));
        // Clients reach E2 through the LAN: 1 + 3 ms RTT.
        for &site in &site_nodes {
            topo.connect(site, e2, Link::from_rtt_ms(4.0).bandwidth_mbps(1000.0));
        }
        // Cloud at ≈15 ms RTT from the premises. The public Internet path
        // has mild jitter (the paper observes elevated cloud-side frame
        // jitter), residual loss, and a constrained uplink — the
        // congestion the hybrid deployment of fig. 11 runs into.
        let inet_jitter = SimDuration::from_micros(400);
        let inet = |l: Link| l.jitter(inet_jitter).loss(5e-4).bandwidth_mbps(120.0);
        for &site in &site_nodes {
            topo.connect(site, cloud, inet(Link::from_rtt_ms(15.0)));
        }
        topo.connect(e1, cloud, inet(Link::from_rtt_ms(15.0)));
        topo.connect(e2, cloud, inet(Link::from_rtt_ms(15.0)));

        let tb = Testbed {
            e1,
            e2,
            cloud,
            client_host: site_nodes[0],
        };
        (topo, tb, site_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_has_paper_latencies() {
        let (topo, tb) = Testbed::build();
        assert_eq!(topo.node_count(), 4);
        let c_e1 = topo.link_between(tb.client_host, tb.e1).unwrap();
        assert_eq!(c_e1.base_latency.as_micros(), 500);
        let e1_e2 = topo.link_between(tb.e1, tb.e2).unwrap();
        assert_eq!(e1_e2.base_latency.as_micros(), 1500);
        let e1_cloud = topo.link_between(tb.e1, tb.cloud).unwrap();
        assert_eq!(e1_cloud.base_latency.as_micros(), 7500);
    }

    #[test]
    fn links_are_symmetric() {
        let (topo, tb) = Testbed::build();
        let ab = topo.link_between(tb.e1, tb.e2).unwrap().base_latency;
        let ba = topo.link_between(tb.e2, tb.e1).unwrap().base_latency;
        assert_eq!(ab, ba);
    }

    #[test]
    fn loopback_for_same_node() {
        let (topo, tb) = Testbed::build();
        let lo = topo.link_between(tb.e1, tb.e1).unwrap();
        assert!(lo.base_latency < SimDuration::from_millis(1));
        assert_eq!(lo.loss_prob, 0.0);
    }

    #[test]
    fn unknown_pair_is_unroutable() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        assert!(topo.link_between(a, b).is_none());
    }

    #[test]
    fn connect_replaces_link() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b, Link::from_rtt_ms(2.0));
        topo.connect(b, a, Link::from_rtt_ms(8.0));
        assert_eq!(topo.link_between(a, b).unwrap().base_latency.as_millis(), 4);
    }

    #[test]
    fn sparse_store_answers_like_dense() {
        let mut dense = Topology::new();
        let mut sparse = Topology::sparse();
        assert!(!dense.is_sparse());
        assert!(sparse.is_sparse());
        for i in 0..6 {
            dense.add_node(&format!("n{i}"));
            sparse.add_node(&format!("n{i}"));
        }
        let pairs = [(0u32, 1u32), (0, 2), (1, 4), (3, 5), (2, 5)];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let link = Link::from_rtt_ms(2.0 * (i + 1) as f64);
            dense.connect(NodeId(a), NodeId(b), link.clone());
            sparse.connect(NodeId(b), NodeId(a), link);
        }
        assert_eq!(sparse.edge_count(), pairs.len());
        for a in 0..6u32 {
            for b in 0..6u32 {
                let d = dense
                    .link_between(NodeId(a), NodeId(b))
                    .map(|l| l.base_latency);
                let s = sparse
                    .link_between(NodeId(a), NodeId(b))
                    .map(|l| l.base_latency);
                assert_eq!(d, s, "pair ({a}, {b}) disagrees across layouts");
            }
        }
    }

    #[test]
    fn sparse_connect_replaces_and_keeps_edge_id() {
        let mut topo = Topology::sparse();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b, Link::from_rtt_ms(2.0));
        let (id0, _) = topo.edge_entry(a, b).unwrap();
        topo.connect(b, a, Link::from_rtt_ms(8.0));
        let (id1, link) = topo.edge_entry(b, a).unwrap();
        assert_eq!(id0, id1);
        assert_eq!(link.base_latency.as_millis(), 4);
        assert_eq!(topo.edge_count(), 1);
    }

    #[test]
    fn dense_outgrows_into_sparse() {
        let mut topo = Topology::new();
        let nodes: Vec<NodeId> = (0..DENSE_MAX_NODES)
            .map(|i| topo.add_node(&format!("n{i}")))
            .collect();
        assert!(!topo.is_sparse());
        // A star around node 0 must survive the layout migration.
        for &n in &nodes[1..] {
            topo.connect(nodes[0], n, Link::from_rtt_ms(2.0));
        }
        let extra = topo.add_node("overflow");
        assert!(topo.is_sparse());
        assert_eq!(topo.edge_count(), DENSE_MAX_NODES - 1);
        for &n in &nodes[1..] {
            assert!(topo.link_between(nodes[0], n).is_some());
        }
        assert!(topo.link_between(nodes[0], extra).is_none());
        topo.connect(extra, nodes[3], Link::from_rtt_ms(6.0));
        assert_eq!(
            topo.link_between(nodes[3], extra)
                .unwrap()
                .base_latency
                .as_millis(),
            3
        );
    }

    #[test]
    fn build_with_sites_one_matches_legacy_build() {
        let (legacy, legacy_tb) = Testbed::build();
        let (sited, tb, sites) = Testbed::build_with_sites(1);
        assert_eq!(sites, vec![legacy_tb.client_host]);
        assert_eq!(
            (tb.e1, tb.e2, tb.cloud),
            (legacy_tb.e1, legacy_tb.e2, legacy_tb.cloud)
        );
        assert_eq!(legacy.node_count(), sited.node_count());
        for a in 0..4u32 {
            assert_eq!(legacy.name(NodeId(a)), sited.name(NodeId(a)));
            for b in 0..4u32 {
                let l = legacy
                    .link_between(NodeId(a), NodeId(b))
                    .map(|l| format!("{l:?}"));
                let s = sited
                    .link_between(NodeId(a), NodeId(b))
                    .map(|l| format!("{l:?}"));
                assert_eq!(l, s);
            }
        }
    }

    #[test]
    fn build_with_sites_connects_every_site() {
        let (topo, tb, sites) = Testbed::build_with_sites(200);
        assert!(topo.is_sparse());
        assert_eq!(topo.node_count(), 203);
        assert_eq!(sites.len(), 200);
        assert_eq!(tb.client_host, sites[0]);
        for &site in &sites {
            assert_eq!(
                topo.link_between(site, tb.e1)
                    .unwrap()
                    .base_latency
                    .as_micros(),
                500
            );
            assert_eq!(
                topo.link_between(site, tb.e2)
                    .unwrap()
                    .base_latency
                    .as_micros(),
                2000
            );
            assert_eq!(
                topo.link_between(site, tb.cloud)
                    .unwrap()
                    .base_latency
                    .as_micros(),
                7500
            );
        }
        // Sites do not talk to each other directly.
        assert!(topo.link_between(sites[0], sites[1]).is_none());
    }
}

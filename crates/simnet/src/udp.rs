//! UDP datagram transport over a [`Topology`].
//!
//! [`UdpNet`] is the single place the pipeline layer asks "what happens
//! to this datagram?". It owns its RNG stream (split from the experiment
//! seed) and per-pair traffic counters, so experiments can report bytes
//! on the wire per link — how we verified scAtteR++'s 180 KB → 480 KB
//! frame growth shows up as ~2.7× client-uplink traffic.

use simcore::{SimDuration, SimRng, SimTime};

use crate::gilbert::GilbertElliott;
use crate::link::Delivery;
use crate::topology::{NodeId, Topology};

/// Traffic counters for one direction of one node pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStats {
    pub datagrams_sent: u64,
    pub datagrams_lost: u64,
    pub bytes_sent: u64,
}

/// Whole-transport aggregate of every direction's counters — what the
/// observatory's per-phase attribution table reconciles its net-decide
/// call count against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTotals {
    pub datagrams_sent: u64,
    pub datagrams_lost: u64,
    pub bytes_sent: u64,
}

/// Where a direction's state lives in the active [`DirStore`].
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Index into the pair vectors (dense: `src * n + dst`, including
    /// the diagonal; sparse: `2 * edge_id + direction`).
    Pair(usize),
    /// Sparse-layout loopback state, indexed by node.
    Loop(usize),
}

/// Per-direction transport state (counters, transmitter free times,
/// burst channels), in the layout matching the topology's.
///
/// `Dense` mirrors the topology's pair matrix: with a handful of nodes
/// the `(src, dst)` multiply-add beats any lookup, and the three SipHash
/// probes `send` once performed per datagram dominated the transport's
/// cost. `Sparse` allocates two slots per *connected edge*
/// (`2 * edge_id + direction`) plus per-node loopback slots — O(edges)
/// instead of O(n²), which is what lets a 100k-client world with
/// thousands of access-site nodes keep the transport's memory flat.
#[derive(Debug)]
enum DirStore {
    Dense {
        /// Node count the matrices were sized for (re-sized lazily if
        /// the topology grows after construction).
        n: usize,
        stats: Vec<PairStats>,
        tx_free_at: Vec<SimTime>,
        burst: Vec<Option<GilbertElliott>>,
    },
    Sparse {
        stats: Vec<PairStats>,
        tx_free_at: Vec<SimTime>,
        burst: Vec<Option<GilbertElliott>>,
        loop_stats: Vec<PairStats>,
        loop_tx_free_at: Vec<SimTime>,
        loop_burst: Vec<Option<GilbertElliott>>,
    },
}

impl DirStore {
    fn stats_mut(&mut self, slot: Slot) -> &mut PairStats {
        match (self, slot) {
            (DirStore::Dense { stats, .. }, Slot::Pair(i))
            | (DirStore::Sparse { stats, .. }, Slot::Pair(i)) => &mut stats[i],
            (DirStore::Sparse { loop_stats, .. }, Slot::Loop(i)) => &mut loop_stats[i],
            (DirStore::Dense { .. }, Slot::Loop(_)) => {
                unreachable!("dense store has no loop slots")
            }
        }
    }

    fn tx_free_at_mut(&mut self, slot: Slot) -> &mut SimTime {
        match (self, slot) {
            (DirStore::Dense { tx_free_at, .. }, Slot::Pair(i))
            | (DirStore::Sparse { tx_free_at, .. }, Slot::Pair(i)) => &mut tx_free_at[i],
            (
                DirStore::Sparse {
                    loop_tx_free_at, ..
                },
                Slot::Loop(i),
            ) => &mut loop_tx_free_at[i],
            (DirStore::Dense { .. }, Slot::Loop(_)) => {
                unreachable!("dense store has no loop slots")
            }
        }
    }

    fn burst_mut(&mut self, slot: Slot) -> &mut Option<GilbertElliott> {
        match (self, slot) {
            (DirStore::Dense { burst, .. }, Slot::Pair(i))
            | (DirStore::Sparse { burst, .. }, Slot::Pair(i)) => &mut burst[i],
            (DirStore::Sparse { loop_burst, .. }, Slot::Loop(i)) => &mut loop_burst[i],
            (DirStore::Dense { .. }, Slot::Loop(_)) => {
                unreachable!("dense store has no loop slots")
            }
        }
    }
}

/// Datagram transport facade: topology + RNG + counters + per-direction
/// serialization queues for bandwidth-limited links. The directed state
/// lives in a `DirStore` whose layout follows the topology's — dense
/// matrices for the paper testbed, per-edge vectors at scale. Both
/// layouts execute the identical decision sequence (and draw from the
/// RNG in the identical order), so outcomes are layout-independent;
/// the sparse-vs-dense proptest pins that.
#[derive(Debug)]
pub struct UdpNet {
    topo: Topology,
    rng: SimRng,
    store: DirStore,
    /// `true` only when at least one burst channel is installed, so the
    /// common no-burst run skips the per-send check entirely.
    has_burst: bool,
}

impl UdpNet {
    pub fn new(topo: Topology, rng: SimRng) -> Self {
        let n = topo.node_count();
        let store = if topo.is_sparse() {
            let slots = 2 * topo.edge_count();
            DirStore::Sparse {
                stats: vec![PairStats::default(); slots],
                tx_free_at: vec![SimTime::ZERO; slots],
                burst: (0..slots).map(|_| None).collect(),
                loop_stats: vec![PairStats::default(); n],
                loop_tx_free_at: vec![SimTime::ZERO; n],
                loop_burst: (0..n).map(|_| None).collect(),
            }
        } else {
            DirStore::Dense {
                n,
                stats: vec![PairStats::default(); n * n],
                tx_free_at: vec![SimTime::ZERO; n * n],
                burst: (0..n * n).map(|_| None).collect(),
            }
        };
        UdpNet {
            topo,
            rng,
            store,
            has_burst: false,
        }
    }

    /// Resolve the `(src, dst)` direction's slot, growing the store
    /// first if the topology gained nodes/edges through
    /// [`UdpNet::topology_mut`] after construction. Panics if the pair
    /// is unroutable — a placement bug, not a runtime condition.
    #[inline]
    fn dir_slot(&mut self, src: NodeId, dst: NodeId) -> Slot {
        match &mut self.store {
            DirStore::Dense { n, .. } => {
                let count = self.topo.node_count();
                if count != *n {
                    self.resize_dense(count);
                }
                Slot::Pair(src.0 as usize * count + dst.0 as usize)
            }
            DirStore::Sparse {
                stats,
                tx_free_at,
                burst,
                loop_stats,
                loop_tx_free_at,
                loop_burst,
            } => {
                if src == dst {
                    let node = src.0 as usize;
                    if node >= loop_stats.len() {
                        let count = self.topo.node_count();
                        loop_stats.resize(count, PairStats::default());
                        loop_tx_free_at.resize(count, SimTime::ZERO);
                        loop_burst.resize_with(count, || None);
                    }
                    return Slot::Loop(node);
                }
                let (edge, _) = self
                    .topo
                    .edge_entry(src, dst)
                    .unwrap_or_else(|| panic!("no route {:?} -> {:?}", src, dst));
                let slots = 2 * self.topo.edge_count();
                if stats.len() < slots {
                    stats.resize(slots, PairStats::default());
                    tx_free_at.resize(slots, SimTime::ZERO);
                    burst.resize_with(slots, || None);
                }
                Slot::Pair(2 * edge as usize + usize::from(src > dst))
            }
        }
    }

    #[cold]
    fn resize_dense(&mut self, count: usize) {
        let DirStore::Dense {
            n,
            stats,
            tx_free_at,
            burst,
        } = &mut self.store
        else {
            unreachable!("resize_dense on sparse store");
        };
        let old = *n;
        let mut new_stats = vec![PairStats::default(); count * count];
        let mut new_tx = vec![SimTime::ZERO; count * count];
        let mut new_burst: Vec<Option<GilbertElliott>> = (0..count * count).map(|_| None).collect();
        for a in 0..old {
            for b in 0..old {
                new_stats[a * count + b] = stats[a * old + b];
                new_tx[a * count + b] = tx_free_at[a * old + b];
                new_burst[a * count + b] = burst[a * old + b].take();
            }
        }
        *n = count;
        *stats = new_stats;
        *tx_free_at = new_tx;
        *burst = new_burst;
    }

    /// Install a burst-loss channel on the `(src, dst)` direction (and
    /// an independent one on the reverse if called twice). Fragment
    /// losses on this direction then come from the Markov channel
    /// instead of the link's i.i.d. loss probability.
    pub fn set_burst_channel(&mut self, src: NodeId, dst: NodeId, ch: GilbertElliott) {
        let slot = self.dir_slot(src, dst);
        *self.store.burst_mut(slot) = Some(ch);
        self.has_burst = true;
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Offer a datagram of `bytes` from `src` to `dst` at instant `now`.
    ///
    /// Bandwidth-limited links serialize datagrams in FIFO order per
    /// direction: a busy transmitter queues the datagram (adding delay)
    /// up to the link's queue limit, beyond which the buffer drops it —
    /// the congestion behaviour the paper's hybrid edge-cloud deployment
    /// suffers from. Panics if the pair is unroutable — a placement bug,
    /// not a runtime condition.
    pub fn send(&mut self, src: NodeId, dst: NodeId, bytes: usize, now: SimTime) -> Delivery {
        let slot = self.dir_slot(src, dst);
        let link = self
            .topo
            .link_between(src, dst)
            .unwrap_or_else(|| panic!("no route {:?} -> {:?}", src, dst));
        // Per-fragment loss / propagation from the link model (which also
        // accounts for per-byte serialization on an idle transmitter).
        let mut outcome = link.send(bytes, &mut self.rng);
        let (bandwidth_bps, queue_limit) = (link.bandwidth_bps, link.queue_limit);
        // Burst-loss override: advance the Markov channel one step per
        // fragment; any lost fragment kills the datagram.
        if self.has_burst {
            if let Some(ch) = self.store.burst_mut(slot).as_mut() {
                let frags = crate::link::Link::fragments(bytes);
                let mut lost = false;
                for _ in 0..frags {
                    lost |= ch.lose_packet(&mut self.rng);
                }
                if lost {
                    outcome = Delivery::Lost;
                }
            }
        }
        // FIFO transmitter queueing for bandwidth-limited links.
        if let (Delivery::Delayed(d), Some(bps)) = (outcome, bandwidth_bps) {
            let ser = SimDuration::from_secs_f64(bytes as f64 * 8.0 / bps);
            let tx_free_at = self.store.tx_free_at_mut(slot);
            let start = (*tx_free_at).max(now);
            let queue_wait = start.saturating_since(now);
            if queue_wait > queue_limit {
                outcome = Delivery::Lost;
            } else {
                *tx_free_at = start + ser;
                // `link.send` already charged one serialization time; add
                // only the queueing component.
                outcome = Delivery::Delayed(d + queue_wait);
            }
        }
        let entry = self.store.stats_mut(slot);
        entry.datagrams_sent += 1;
        entry.bytes_sent += bytes as u64;
        if outcome.is_lost() {
            entry.datagrams_lost += 1;
        }
        outcome
    }

    /// Counters for the `(src, dst)` direction.
    pub fn pair_stats(&self, src: NodeId, dst: NodeId) -> PairStats {
        match &self.store {
            DirStore::Dense { n, stats, .. } => {
                // Matrices lag a grown topology; new pairs have no traffic.
                let (s, d) = (src.0 as usize, dst.0 as usize);
                if s >= *n || d >= *n {
                    return PairStats::default();
                }
                stats[s * *n + d]
            }
            DirStore::Sparse {
                stats, loop_stats, ..
            } => {
                if src == dst {
                    return loop_stats.get(src.0 as usize).copied().unwrap_or_default();
                }
                match self.topo.edge_entry(src, dst) {
                    Some((edge, _)) => stats
                        .get(2 * edge as usize + usize::from(src > dst))
                        .copied()
                        .unwrap_or_default(),
                    None => PairStats::default(),
                }
            }
        }
    }

    /// Total bytes offered to the network (all pairs, both directions).
    pub fn total_bytes(&self) -> u64 {
        match &self.store {
            DirStore::Dense { stats, .. } => stats.iter().map(|s| s.bytes_sent).sum(),
            DirStore::Sparse {
                stats, loop_stats, ..
            } => stats
                .iter()
                .chain(loop_stats.iter())
                .map(|s| s.bytes_sent)
                .sum(),
        }
    }

    /// One-pass aggregate across all pairs and both directions.
    pub fn totals(&self) -> NetTotals {
        let fold = |acc: NetTotals, s: &PairStats| NetTotals {
            datagrams_sent: acc.datagrams_sent + s.datagrams_sent,
            datagrams_lost: acc.datagrams_lost + s.datagrams_lost,
            bytes_sent: acc.bytes_sent + s.bytes_sent,
        };
        match &self.store {
            DirStore::Dense { stats, .. } => stats.iter().fold(NetTotals::default(), fold),
            DirStore::Sparse {
                stats, loop_stats, ..
            } => stats
                .iter()
                .chain(loop_stats.iter())
                .fold(NetTotals::default(), fold),
        }
    }

    /// Total datagrams lost across all pairs.
    pub fn total_lost(&self) -> u64 {
        match &self.store {
            DirStore::Dense { stats, .. } => stats.iter().map(|s| s.datagrams_lost).sum(),
            DirStore::Sparse {
                stats, loop_stats, ..
            } => stats
                .iter()
                .chain(loop_stats.iter())
                .map(|s| s.datagrams_lost)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::topology::Testbed;
    use simcore::SimDuration;

    #[test]
    fn burst_channel_overrides_link_loss() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b, Link::with_latency(SimDuration::from_millis(1)));
        let mut net = UdpNet::new(topo, SimRng::new(9));
        net.set_burst_channel(a, b, GilbertElliott::with_average_loss(0.3, 10.0));
        let mut lost = 0;
        for _ in 0..5000 {
            if net.send(a, b, 100, SimTime::ZERO).is_lost() {
                lost += 1;
            }
        }
        let rate = lost as f64 / 5000.0;
        assert!((rate - 0.3).abs() < 0.06, "burst loss rate {rate}");
        // Reverse direction untouched.
        assert!(!net.send(b, a, 100, SimTime::ZERO).is_lost());
    }

    #[test]
    fn bandwidth_queueing_is_fifo_per_direction() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        // 8 Mbps: a 10_000-byte datagram takes 10 ms to serialize.
        topo.connect(
            a,
            b,
            Link::with_latency(SimDuration::from_millis(1)).bandwidth_mbps(8.0),
        );
        let mut net = UdpNet::new(topo, SimRng::new(4));
        let d1 = net.send(a, b, 10_000, SimTime::ZERO).delay().unwrap();
        let d2 = net.send(a, b, 10_000, SimTime::ZERO).delay().unwrap();
        // Second datagram queues behind the first: ≥ 10 ms more delay.
        assert!(
            d2.as_millis_f64() >= d1.as_millis_f64() + 9.5,
            "{d1} then {d2}"
        );
    }

    #[test]
    fn bandwidth_queue_overflow_drops() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let mut link = Link::with_latency(SimDuration::from_millis(1)).bandwidth_mbps(8.0);
        link.queue_limit = SimDuration::from_millis(15);
        topo.connect(a, b, link);
        let mut net = UdpNet::new(topo, SimRng::new(5));
        // Each datagram serializes in 10 ms; the third would wait 20 ms.
        assert!(!net.send(a, b, 10_000, SimTime::ZERO).is_lost());
        assert!(!net.send(a, b, 10_000, SimTime::ZERO).is_lost());
        assert!(net.send(a, b, 10_000, SimTime::ZERO).is_lost());
    }

    #[test]
    fn send_over_testbed_accumulates_stats() {
        let (topo, tb) = Testbed::build();
        let mut net = UdpNet::new(topo, SimRng::new(1));
        for _ in 0..10 {
            let d = net.send(tb.client_host, tb.e1, 1400, SimTime::ZERO);
            assert!(!d.is_lost());
        }
        let s = net.pair_stats(tb.client_host, tb.e1);
        assert_eq!(s.datagrams_sent, 10);
        assert_eq!(s.bytes_sent, 14_000);
        assert_eq!(s.datagrams_lost, 0);
        // Reverse direction untouched.
        assert_eq!(net.pair_stats(tb.e1, tb.client_host).datagrams_sent, 0);
    }

    #[test]
    fn lossy_link_counts_losses() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(
            a,
            b,
            Link::with_latency(SimDuration::from_millis(1)).loss(0.5),
        );
        let mut net = UdpNet::new(topo, SimRng::new(2));
        for _ in 0..1000 {
            net.send(a, b, 100, SimTime::ZERO);
        }
        let s = net.pair_stats(a, b);
        assert!(s.datagrams_lost > 350 && s.datagrams_lost < 650, "{s:?}");
        assert_eq!(net.total_lost(), s.datagrams_lost);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unroutable_pair_panics() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let mut net = UdpNet::new(topo, SimRng::new(3));
        net.send(a, b, 1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn sparse_unroutable_pair_panics() {
        let mut topo = Topology::sparse();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let mut net = UdpNet::new(topo, SimRng::new(3));
        net.send(a, b, 1, SimTime::ZERO);
    }

    #[test]
    fn same_seed_same_outcomes() {
        let run = |seed| {
            let (topo, tb) = Testbed::build();
            let mut net = UdpNet::new(topo, SimRng::new(seed));
            (0..100)
                .map(|_| {
                    net.send(tb.client_host, tb.cloud, 50_000, SimTime::ZERO)
                        .delay()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn sparse_loopback_and_stats() {
        let mut topo = Topology::sparse();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b, Link::with_latency(SimDuration::from_millis(1)));
        let mut net = UdpNet::new(topo, SimRng::new(6));
        assert!(!net.send(a, a, 500, SimTime::ZERO).is_lost());
        net.send(a, b, 100, SimTime::ZERO);
        net.send(b, a, 100, SimTime::ZERO);
        assert_eq!(net.pair_stats(a, a).bytes_sent, 500);
        assert_eq!(net.pair_stats(a, b).datagrams_sent, 1);
        assert_eq!(net.pair_stats(b, a).datagrams_sent, 1);
        assert_eq!(net.total_bytes(), 700);
        let t = net.totals();
        assert_eq!(t.datagrams_sent, 3);
        assert_eq!(t.bytes_sent, 700);
        assert_eq!(t.datagrams_lost, net.total_lost());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::link::Link;
    use proptest::prelude::*;
    use simcore::SimDuration;

    proptest! {
        /// Same world, same seed, same send sequence: the dense matrix and
        /// the sparse adjacency store must produce identical deliveries and
        /// identical counters. This is the layout-equivalence guarantee the
        /// automatic dense/sparse selection rests on.
        #[test]
        fn sparse_store_matches_dense(
            n in 2usize..24,
            seed in 0u64..1000,
            edges in proptest::collection::vec((0usize..24, 0usize..24, 1u64..20, 0u8..2), 1..40),
            sends in proptest::collection::vec((0usize..24, 0usize..24, 1usize..30_000, 0u64..50), 1..200),
        ) {
            let build = |sparse: bool| {
                let mut topo = if sparse { Topology::sparse() } else { Topology::new() };
                for i in 0..n {
                    topo.add_node(&format!("n{i}"));
                }
                for &(a, b, rtt, bw) in &edges {
                    let (a, b) = (a % n, b % n);
                    if a == b {
                        continue;
                    }
                    let mut link = Link::from_rtt_ms(rtt as f64).loss(0.05);
                    if bw == 1 {
                        link = link.bandwidth_mbps(8.0);
                    }
                    topo.connect(NodeId(a as u32), NodeId(b as u32), link);
                }
                UdpNet::new(topo, SimRng::new(seed))
            };
            let mut dense = build(false);
            let mut sparse = build(true);
            prop_assert!(!dense.topology().is_sparse());
            prop_assert!(sparse.topology().is_sparse());
            for &(src, dst, bytes, at_ms) in &sends {
                let (src, dst) = (NodeId((src % n) as u32), NodeId((dst % n) as u32));
                if src != dst && dense.topology().link_between(src, dst).is_none() {
                    continue;
                }
                let now = SimTime::from_millis(at_ms);
                let d = dense.send(src, dst, bytes, now);
                let s = sparse.send(src, dst, bytes, now);
                prop_assert_eq!(d.delay(), s.delay(), "delivery diverged for {:?}->{:?}", src, dst);
                prop_assert_eq!(dense.pair_stats(src, dst), sparse.pair_stats(src, dst));
            }
            prop_assert_eq!(dense.total_bytes(), sparse.total_bytes());
            prop_assert_eq!(dense.total_lost(), sparse.total_lost());
        }

        /// Burst channels behave identically across layouts too (they sit
        /// on the same per-direction slots).
        #[test]
        fn sparse_burst_matches_dense(
            seed in 0u64..500,
            sends in proptest::collection::vec((0u8..2, 1usize..5_000), 1..150),
        ) {
            let build = |sparse: bool| {
                let mut topo = if sparse { Topology::sparse() } else { Topology::new() };
                let a = topo.add_node("a");
                let b = topo.add_node("b");
                topo.connect(a, b, Link::with_latency(SimDuration::from_millis(1)));
                let mut net = UdpNet::new(topo, SimRng::new(seed));
                net.set_burst_channel(a, b, GilbertElliott::with_average_loss(0.2, 8.0));
                (net, a, b)
            };
            let (mut dense, da, db) = build(false);
            let (mut sparse, sa, sb) = build(true);
            for &(rev, bytes) in &sends {
                let (src, dst) = if rev == 0 { (da, db) } else { (db, da) };
                let (ssrc, sdst) = if rev == 0 { (sa, sb) } else { (sb, sa) };
                let d = dense.send(src, dst, bytes, SimTime::ZERO);
                let s = sparse.send(ssrc, sdst, bytes, SimTime::ZERO);
                prop_assert_eq!(d.delay(), s.delay());
            }
            prop_assert_eq!(dense.total_lost(), sparse.total_lost());
        }
    }
}

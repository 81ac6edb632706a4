//! Replica load balancing.
//!
//! Oakestra load-balances requests across service replicas round-robin.
//! For stateful services the paper notes "frames balanced across sift
//! instances remain tied to that replica due to state restrictions" — the
//! sticky variant binds a flow key (client id) to the replica chosen for
//! its first request and keeps it there even if that replica congests,
//! which is exactly the limitation the scalability experiments expose.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Removing the last replica of a service would leave nothing to route
/// to. Instead of panicking mid-run, [`Balancer::remove_replica`]
/// reports the outage and leaves the balancer untouched; the caller is
/// expected to stop routing to the service and account subsequent
/// frames as service-outage drops until a replica comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LastReplica;

impl std::fmt::Display for LastReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot remove the last replica: service would be in outage"
        )
    }
}

impl std::error::Error for LastReplica {}

/// Balancing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BalancerKind {
    /// Pure round-robin per request.
    RoundRobin,
    /// Round-robin on first sight of a flow key, then pinned.
    StickyByFlow,
}

/// Chooses a replica index in `0..n_replicas` for each request.
#[derive(Debug, Clone)]
pub struct Balancer {
    kind: BalancerKind,
    n_replicas: usize,
    next: usize,
    bindings: HashMap<u64, usize>,
}

impl Balancer {
    pub fn new(kind: BalancerKind, n_replicas: usize) -> Self {
        assert!(n_replicas >= 1, "balancer needs at least one replica");
        Balancer {
            kind,
            n_replicas,
            next: 0,
            bindings: HashMap::new(),
        }
    }

    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    pub fn kind(&self) -> BalancerKind {
        self.kind
    }

    /// Pick a replica for a request from flow `flow_key` (client id).
    pub fn pick(&mut self, flow_key: u64) -> usize {
        match self.kind {
            BalancerKind::RoundRobin => {
                let r = self.next;
                self.next = (self.next + 1) % self.n_replicas;
                r
            }
            BalancerKind::StickyByFlow => {
                if let Some(&r) = self.bindings.get(&flow_key) {
                    return r;
                }
                let r = self.next;
                self.next = (self.next + 1) % self.n_replicas;
                self.bindings.insert(flow_key, r);
                r
            }
        }
    }

    /// The replica a flow is bound to, if sticky and already seen.
    pub fn binding(&self, flow_key: u64) -> Option<usize> {
        self.bindings.get(&flow_key).copied()
    }

    /// Remove a failed replica: rebind its flows on next pick. Indices
    /// above `replica` shift down by one (mirroring instance-list
    /// compaction in the cluster). Removing the last replica is a
    /// service outage, reported instead of asserted so a mid-run
    /// failure degrades to counted drops rather than an abort.
    pub fn remove_replica(&mut self, replica: usize) -> Result<(), LastReplica> {
        assert!(replica < self.n_replicas);
        if self.n_replicas == 1 {
            // Flows bound to the dead replica are unbound either way.
            self.bindings.clear();
            return Err(LastReplica);
        }
        self.n_replicas -= 1;
        self.next %= self.n_replicas;
        self.bindings.retain(|_, r| *r != replica);
        for r in self.bindings.values_mut() {
            if *r > replica {
                *r -= 1;
            }
        }
        Ok(())
    }

    /// Add a replica (a revived instance rejoining the rotation).
    pub fn add_replica(&mut self) {
        self.n_replicas += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_robin_cycles() {
        let mut b = Balancer::new(BalancerKind::RoundRobin, 3);
        let picks: Vec<_> = (0..6).map(|_| b.pick(0)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn sticky_pins_flows() {
        let mut b = Balancer::new(BalancerKind::StickyByFlow, 3);
        let first = b.pick(42);
        for _ in 0..10 {
            assert_eq!(b.pick(42), first);
        }
        // A different flow gets the next replica.
        let second = b.pick(43);
        assert_ne!(first, second);
        assert_eq!(b.binding(42), Some(first));
    }

    #[test]
    fn sticky_spreads_distinct_flows() {
        let mut b = Balancer::new(BalancerKind::StickyByFlow, 2);
        let r0 = b.pick(1);
        let r1 = b.pick(2);
        let r2 = b.pick(3);
        assert_ne!(r0, r1);
        assert_eq!(r0, r2); // wraps around
    }

    #[test]
    fn remove_replica_rebinds() {
        let mut b = Balancer::new(BalancerKind::StickyByFlow, 3);
        let flows: Vec<u64> = (0..3).collect();
        for &f in &flows {
            b.pick(f);
        }
        let victim = b.binding(1).unwrap();
        b.remove_replica(victim).expect("two replicas remain");
        assert_eq!(b.binding(1), None, "flows on the victim are unbound");
        // Remaining bindings are valid indices.
        for &f in &flows {
            if let Some(r) = b.binding(f) {
                assert!(r < b.n_replicas());
            }
        }
        // Re-pick lands in range.
        assert!(b.pick(1) < b.n_replicas());
    }

    #[test]
    fn removing_last_replica_reports_outage_without_panicking() {
        let mut b = Balancer::new(BalancerKind::StickyByFlow, 1);
        b.pick(42);
        assert_eq!(b.remove_replica(0), Err(LastReplica));
        // The balancer survives: still one (dead-to-the-caller) replica,
        // but the stale binding is gone so a later revival starts clean.
        assert_eq!(b.n_replicas(), 1);
        assert_eq!(b.binding(42), None);
        // Outage is recoverable: scale back out and routing resumes.
        b.add_replica();
        assert!(b.pick(42) < b.n_replicas());
    }

    proptest! {
        #[test]
        fn picks_always_in_range(
            n in 1usize..8,
            flows in proptest::collection::vec(0u64..20, 1..100),
            sticky in proptest::bool::ANY,
        ) {
            let kind = if sticky { BalancerKind::StickyByFlow } else { BalancerKind::RoundRobin };
            let mut b = Balancer::new(kind, n);
            for f in flows {
                prop_assert!(b.pick(f) < n);
            }
        }

        #[test]
        fn round_robin_is_fair(n in 1usize..6) {
            let mut b = Balancer::new(BalancerKind::RoundRobin, n);
            let mut counts = vec![0u32; n];
            for _ in 0..(n * 10) {
                counts[b.pick(0)] += 1;
            }
            for &c in &counts {
                prop_assert_eq!(c, 10);
            }
        }
    }
}

//! The client → access-site overlay for scale-out worlds.
//!
//! At paper scale every client shares one network vantage point (the
//! `client-host` node). At 100k–1M clients that single node is not
//! realistic, but making every client a topology *node* would
//! reintroduce the O(n²) state this refactor removes. [`SiteMap`] is the compact middle ground: clients are not
//! nodes — each one carries a `u32` site index into a short list of
//! access-site nodes (built by
//! [`crate::Testbed::build_with_sites`]), so per-client routing state
//! is 4 bytes and all link/transport state stays O(sites).

use crate::topology::NodeId;

/// Compact client → access-site assignment.
#[derive(Debug, Clone)]
pub struct SiteMap {
    /// Site index per client.
    of_client: Vec<u32>,
    /// Topology node of each site.
    site_nodes: Vec<NodeId>,
}

impl SiteMap {
    /// Attach `clients` round-robin across `site_nodes` (client `i` to
    /// site `i % sites`) — the deterministic default assignment.
    pub fn round_robin(clients: usize, site_nodes: &[NodeId]) -> SiteMap {
        assert!(!site_nodes.is_empty(), "need at least one access site");
        SiteMap {
            of_client: (0..clients)
                .map(|i| (i % site_nodes.len()) as u32)
                .collect(),
            site_nodes: site_nodes.to_vec(),
        }
    }

    /// Explicit per-client assignment (tests and future mobility/locality
    /// experiments). Panics if an index is out of range.
    pub fn from_assignment(assignment: Vec<u32>, site_nodes: &[NodeId]) -> SiteMap {
        assert!(!site_nodes.is_empty(), "need at least one access site");
        assert!(
            assignment.iter().all(|&s| (s as usize) < site_nodes.len()),
            "site index out of range"
        );
        SiteMap {
            of_client: assignment,
            site_nodes: site_nodes.to_vec(),
        }
    }

    pub fn clients(&self) -> usize {
        self.of_client.len()
    }

    pub fn sites(&self) -> usize {
        self.site_nodes.len()
    }

    /// Site index of a client.
    #[inline]
    pub fn site_index(&self, client: usize) -> u32 {
        self.of_client[client]
    }

    /// Topology node a client's traffic enters and leaves through.
    #[inline]
    pub fn node_of(&self, client: usize) -> NodeId {
        self.site_nodes[self.of_client[client] as usize]
    }

    pub fn site_nodes(&self) -> &[NodeId] {
        &self.site_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_all_sites() {
        let nodes = [NodeId(0), NodeId(1), NodeId(2)];
        let map = SiteMap::round_robin(7, &nodes);
        assert_eq!(map.clients(), 7);
        assert_eq!(map.sites(), 3);
        assert_eq!(map.node_of(0), NodeId(0));
        assert_eq!(map.node_of(4), NodeId(1));
        assert_eq!(map.site_index(5), 2);
    }

    #[test]
    fn explicit_assignment_respected() {
        let nodes = [NodeId(10), NodeId(20)];
        let map = SiteMap::from_assignment(vec![1, 1, 0], &nodes);
        assert_eq!(map.node_of(0), NodeId(20));
        assert_eq!(map.node_of(2), NodeId(10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_assignment_panics() {
        SiteMap::from_assignment(vec![2], &[NodeId(0), NodeId(1)]);
    }
}

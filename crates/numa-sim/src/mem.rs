//! Virtual memory: regions, NUMA page placement policies, and the memory
//! footprint that Phasenprüfer samples "through procfs".

use crate::coherence::IntMap;
use crate::topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// NUMA placement policy for a region, mirroring `libnuma`/`mbind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocPolicy {
    /// Pages land on the node of the first core that touches them — the
    /// Linux default and the mechanism NUMA-aware code (the SIFT
    /// implementation of §V-B) exploits.
    FirstTouch,
    /// All pages bound to one node (used to *induce* remote accesses, like
    /// the paper does with `mlc`).
    Bind(NodeId),
    /// Pages striped round-robin across all nodes.
    Interleave,
}

/// A reserved virtual region.
#[derive(Debug, Clone)]
struct Region {
    base: u64,
    bytes: u64,
    policy: AllocPolicy,
}

/// The per-program virtual address space with NUMA page placement.
///
/// Regions are carved back to back out of a flat space starting at
/// `page_bytes`, so all addresses are plain `u64`s that workload
/// generators can do arithmetic on, and the mapped addresses are exactly
/// `page_bytes..next_base`.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    page_bytes: u64,
    regions: Vec<Region>,
    next_base: u64,
    /// `page index -> owning node`, assigned lazily (first touch) or at
    /// allocation (bind/interleave).
    page_nodes: IntMap<u64, NodeId>,
    nodes: usize,
    reserved_bytes: u64,
}

impl AddressSpace {
    /// Creates an empty address space for a machine with `topology`.
    pub fn new(topology: &Topology, page_bytes: u64) -> Self {
        assert!(page_bytes.is_power_of_two());
        AddressSpace {
            page_bytes,
            regions: Vec::new(),
            next_base: page_bytes, // keep 0 unmapped
            page_nodes: IntMap::default(),
            nodes: topology.nodes,
            reserved_bytes: 0,
        }
    }

    /// Reserves `bytes` under `policy`, returning the base address.
    /// Regions are page-aligned and padded to whole pages.
    pub fn alloc(&mut self, bytes: u64, policy: AllocPolicy) -> u64 {
        let pages = bytes.div_ceil(self.page_bytes).max(1);
        let base = self.next_base;
        self.next_base += pages * self.page_bytes;
        self.regions.push(Region {
            base,
            bytes: pages * self.page_bytes,
            policy,
        });
        self.reserved_bytes += pages * self.page_bytes;

        // Non-lazy policies pin pages immediately.
        let first_page = base / self.page_bytes;
        match policy {
            AllocPolicy::Bind(node) => {
                for p in 0..pages {
                    self.page_nodes.insert(first_page + p, node);
                }
            }
            AllocPolicy::Interleave => {
                for p in 0..pages {
                    self.page_nodes
                        .insert(first_page + p, (p as usize) % self.nodes);
                }
            }
            AllocPolicy::FirstTouch => {}
        }
        base
    }

    /// Releases `bytes` from the footprint accounting (region data stays
    /// mapped — the simulator never reuses addresses, which keeps traces
    /// unambiguous).
    pub fn release(&mut self, bytes: u64) {
        self.reserved_bytes = self.reserved_bytes.saturating_sub(bytes);
    }

    /// Page index of an address.
    #[inline]
    pub fn page_of(&self, addr: u64) -> u64 {
        addr / self.page_bytes
    }

    /// The node owning the page of `addr`, resolving first-touch with the
    /// toucher's node. Unmapped addresses fault to node 0 (and are counted
    /// by the engine as touching a demand-zero page).
    #[inline]
    pub fn node_of_access(&mut self, addr: u64, toucher_node: NodeId) -> NodeId {
        let page = self.page_of(addr);
        *self.page_nodes.entry(page).or_insert(toucher_node)
    }

    /// The node a page is currently placed on, if it has been placed.
    pub fn node_of_page(&self, page: u64) -> Option<NodeId> {
        self.page_nodes.get(&page).copied()
    }

    /// Currently reserved bytes — the "memory footprint (reserved memory,
    /// obtained through procfs)" of §IV-C.
    pub fn reserved_bytes(&self) -> u64 {
        self.reserved_bytes
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Number of regions allocated.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Iterates region layouts as `(base, padded bytes, policy)` for
    /// diagnostics and placement reports.
    pub fn regions(&self) -> impl Iterator<Item = (u64, u64, AllocPolicy)> + '_ {
        self.regions.iter().map(|r| (r.base, r.bytes, r.policy))
    }

    /// Whether `addr` falls inside an allocated region. Regions are carved
    /// back to back from `page_bytes`, so their union is one range.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        (self.page_bytes..self.next_base).contains(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn space() -> AddressSpace {
        AddressSpace::new(&Topology::fully_interconnected(4, 2, 1 << 30), 4096)
    }

    #[test]
    fn alloc_returns_page_aligned_disjoint_regions() {
        let mut s = space();
        let a = s.alloc(100, AllocPolicy::FirstTouch);
        let b = s.alloc(5000, AllocPolicy::FirstTouch);
        assert_eq!(a % 4096, 0);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 4096); // padded to whole pages
        assert_eq!(s.region_count(), 2);
    }

    #[test]
    fn first_touch_assigns_toucher_node() {
        let mut s = space();
        let a = s.alloc(8192, AllocPolicy::FirstTouch);
        assert_eq!(s.node_of_page(s.page_of(a)), None);
        assert_eq!(s.node_of_access(a, 2), 2);
        // Sticky: later touches from other nodes do not migrate it.
        assert_eq!(s.node_of_access(a, 3), 2);
        // Second page independently placed.
        assert_eq!(s.node_of_access(a + 4096, 1), 1);
    }

    #[test]
    fn bind_places_all_pages_immediately() {
        let mut s = space();
        let a = s.alloc(3 * 4096, AllocPolicy::Bind(3));
        for p in 0..3 {
            assert_eq!(s.node_of_page(s.page_of(a) + p), Some(3));
        }
        assert_eq!(s.node_of_access(a, 0), 3);
    }

    #[test]
    fn interleave_stripes_round_robin() {
        let mut s = space();
        let a = s.alloc(8 * 4096, AllocPolicy::Interleave);
        let first = s.page_of(a);
        let nodes: Vec<_> = (0..8).map(|p| s.node_of_page(first + p).unwrap()).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn footprint_tracks_reserve_and_release() {
        let mut s = space();
        assert_eq!(s.reserved_bytes(), 0);
        s.alloc(4096, AllocPolicy::FirstTouch);
        s.alloc(100, AllocPolicy::FirstTouch); // rounds up to one page
        assert_eq!(s.reserved_bytes(), 8192);
        s.release(4096);
        assert_eq!(s.reserved_bytes(), 4096);
        s.release(1 << 40); // saturates at zero
        assert_eq!(s.reserved_bytes(), 0);
    }

    #[test]
    fn zero_byte_alloc_still_reserves_a_page() {
        let mut s = space();
        let a = s.alloc(0, AllocPolicy::FirstTouch);
        assert!(a > 0);
        assert_eq!(s.reserved_bytes(), 4096);
    }
}

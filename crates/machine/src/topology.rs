//! Origin2000-style topology: dual-CPU nodes on a bristled hypercube.
//!
//! In the Origin2000, each node board carries two CPUs and a memory bank,
//! and attaches to a router; each router hosts two nodes ("bristled"), and
//! routers form a hypercube. We model hop distance as:
//!
//! * same node → 0 hops (access is node-local),
//! * same router, different node → 1 hop,
//! * different routers → Hamming distance between router indices + 1
//!   (one hop onto the fabric plus one per dimension crossed).

/// PE / node / router layout of the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    pes: usize,
    cpus_per_node: usize,
    nodes: usize,
}

/// Nodes per router in the bristled hypercube.
const NODES_PER_ROUTER: usize = 2;

impl Topology {
    /// Lay out `pes` PEs over nodes of `cpus_per_node` CPUs each.
    ///
    /// # Panics
    /// Panics if `pes` or `cpus_per_node` is zero.
    pub fn new(pes: usize, cpus_per_node: usize) -> Self {
        assert!(pes > 0, "topology needs at least one PE");
        assert!(cpus_per_node > 0, "nodes need at least one CPU");
        let nodes = pes.div_ceil(cpus_per_node);
        Topology {
            pes,
            cpus_per_node,
            nodes,
        }
    }

    /// Total PEs.
    #[inline]
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Total nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Node hosting PE `pe` (PEs are packed consecutively onto nodes).
    ///
    /// # Panics
    /// Panics in debug builds if `pe` is out of range.
    #[inline]
    pub fn node_of(&self, pe: usize) -> usize {
        debug_assert!(pe < self.pes, "PE {pe} out of range ({})", self.pes);
        pe / self.cpus_per_node
    }

    /// Router hosting node `node`.
    #[inline]
    pub fn router_of(&self, node: usize) -> usize {
        node / NODES_PER_ROUTER
    }

    /// Router hops between two nodes (see module docs for the model).
    #[inline]
    pub fn hops(&self, node_a: usize, node_b: usize) -> u32 {
        if node_a == node_b {
            return 0;
        }
        let ra = self.router_of(node_a);
        let rb = self.router_of(node_b);
        if ra == rb {
            1
        } else {
            (ra ^ rb).count_ones() + 1
        }
    }

    /// Largest hop distance present in this machine. Used for worst-case
    /// collective cost estimates.
    pub fn max_hops(&self) -> u32 {
        if self.nodes <= 1 {
            return 0;
        }
        let routers = self.nodes.div_ceil(NODES_PER_ROUTER);
        if routers <= 1 {
            1
        } else {
            // Highest router index determines the widest Hamming distance.
            let max_idx = routers - 1;
            (usize::BITS - max_idx.leading_zeros()) + 1
        }
    }

    /// Tree depth of a machine-wide collective: ceil(log2(pes)).
    #[inline]
    pub fn tree_depth(&self) -> u32 {
        usize::BITS - (self.pes.max(1) - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_assignment_is_packed() {
        let t = Topology::new(8, 2);
        assert_eq!(t.nodes(), 4);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(1), 0);
        assert_eq!(t.node_of(2), 1);
        assert_eq!(t.node_of(7), 3);
    }

    #[test]
    fn odd_pe_count_rounds_nodes_up() {
        let t = Topology::new(5, 2);
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.node_of(4), 2);
    }

    #[test]
    fn hop_distances() {
        let t = Topology::new(16, 2); // 8 nodes, 4 routers
        assert_eq!(t.hops(0, 0), 0);
        assert_eq!(t.hops(0, 1), 1); // same router (nodes 0,1 → router 0)
        assert_eq!(t.hops(0, 2), 2); // routers 0 vs 1: hamming 1 + 1
        assert_eq!(t.hops(0, 6), 3); // routers 0 vs 3: hamming 2 + 1
                                     // symmetry
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
    }

    #[test]
    fn hops_zero_iff_same_node() {
        let t = Topology::new(32, 2);
        for a in 0..t.nodes() {
            for b in 0..t.nodes() {
                assert_eq!(t.hops(a, b) == 0, a == b);
            }
        }
    }

    #[test]
    fn max_hops_bounds_all_pairs() {
        for pes in [1, 2, 3, 4, 8, 16, 31, 64] {
            let t = Topology::new(pes, 2);
            let mx = t.max_hops();
            for a in 0..t.nodes() {
                for b in 0..t.nodes() {
                    assert!(t.hops(a, b) <= mx, "pes={pes} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn tree_depth_log2() {
        assert_eq!(Topology::new(1, 2).tree_depth(), 0);
        assert_eq!(Topology::new(2, 2).tree_depth(), 1);
        assert_eq!(Topology::new(8, 2).tree_depth(), 3);
        assert_eq!(Topology::new(9, 2).tree_depth(), 4);
        assert_eq!(Topology::new(64, 2).tree_depth(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_panics() {
        Topology::new(0, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The hop metric is symmetric, zero exactly on the diagonal, and
        /// satisfies a relaxed triangle inequality (hypercube Hamming
        /// distance plus the bristle hop is within one of metric).
        #[test]
        fn hop_metric_properties(pes in 1usize..128, cpn in 1usize..5) {
            let t = Topology::new(pes, cpn);
            let n = t.nodes();
            for a in 0..n.min(12) {
                for b in 0..n.min(12) {
                    prop_assert_eq!(t.hops(a, b), t.hops(b, a));
                    prop_assert_eq!(t.hops(a, b) == 0, a == b);
                    for c in 0..n.min(12) {
                        prop_assert!(
                            t.hops(a, c) <= t.hops(a, b) + t.hops(b, c) + 1,
                            "triangle violated: {a} {b} {c}"
                        );
                    }
                }
            }
        }

        /// `max_hops` bounds every pair's distance, is attained whenever the
        /// router count is a power of two (so the far corner of the cube is
        /// populated), and never decreases as the machine grows.
        #[test]
        fn max_hops_is_a_tight_monotone_bound(pes in 1usize..256, cpn in 1usize..5) {
            let t = Topology::new(pes, cpn);
            let n = t.nodes();
            let mx = t.max_hops();
            let mut widest = 0;
            for a in 0..n {
                for b in 0..n {
                    let h = t.hops(a, b);
                    prop_assert!(h <= mx, "hops({a},{b})={h} > max_hops={mx}");
                    widest = widest.max(h);
                }
            }
            let routers = n.div_ceil(2);
            if routers.is_power_of_two() {
                prop_assert_eq!(widest, mx, "bound not attained at {n} nodes");
            }
            if pes > 1 {
                let smaller = Topology::new(pes - 1, cpn);
                prop_assert!(smaller.max_hops() <= mx, "max_hops not monotone at {pes}");
            }
        }

        /// Every PE lands on a node below `nodes()`, no node is empty and
        /// none holds more than `cpus_per_node` PEs.
        #[test]
        fn pes_pack_onto_nodes(pes in 1usize..200, cpn in 1usize..6) {
            let t = Topology::new(pes, cpn);
            let mut per_node = vec![0usize; t.nodes()];
            for pe in 0..pes {
                per_node[t.node_of(pe)] += 1;
            }
            prop_assert!(per_node.iter().all(|&c| (1..=cpn).contains(&c)));
        }
    }
}

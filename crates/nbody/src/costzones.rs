//! Costzones partitioning (Singh, Holt, Hennessy, Gupta).
//!
//! The CC-SAS decomposition from the SPLASH Barnes-Hut code: bodies are
//! laid out along the octree's canonical traversal order (which is
//! spatially local), each body carries the *cost* it incurred last
//! timestep (its interaction count), and the cumulative-cost line is cut
//! into `nparts` equal zones. Because the tree order changes slowly
//! between steps, zones move little — cheap, incremental load balance
//! with no explicit remapping code.

use partition::cut_order;

use crate::octree::Octree;

/// Assign each body to a zone: equal-cost contiguous chunks of the tree
/// order. `costs[b]` is body `b`'s work estimate (use 1.0 on the first
/// step, previous interaction counts thereafter).
///
/// # Panics
/// Panics if `nparts == 0` or `costs.len()` differs from the tree's bodies.
pub fn costzones(tree: &Octree, costs: &[f64], nparts: usize) -> Vec<u32> {
    assert_eq!(costs.len(), tree.num_bodies());
    cut_order(&tree.body_order(), |b| costs[b], nparts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plummer::plummer;
    use crate::vec3::Vec3;

    fn tree(n: usize) -> Octree {
        let bodies = plummer(n, 17);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        Octree::build(&pos, &mass, 4)
    }

    #[test]
    fn unit_costs_balance_counts() {
        let t = tree(512);
        let costs = vec![1.0; 512];
        for nparts in [2, 4, 7] {
            let a = costzones(&t, &costs, nparts);
            let mut counts = vec![0usize; nparts];
            for &z in &a {
                counts[z as usize] += 1;
            }
            let fair = 512 / nparts;
            for &c in &counts {
                assert!(
                    c.abs_diff(fair) <= fair / 4 + 2,
                    "nparts={nparts}: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn skewed_costs_balance_load_not_count() {
        let t = tree(256);
        let order = t.body_order();
        // First half of the tree order is 9x as expensive.
        let mut costs = vec![1.0; 256];
        for &b in &order[..128] {
            costs[b as usize] = 9.0;
        }
        let a = costzones(&t, &costs, 2);
        let mut loads = [0.0f64; 2];
        for (b, &z) in a.iter().enumerate() {
            loads[z as usize] += costs[b];
        }
        let total: f64 = costs.iter().sum();
        assert!((loads[0] / total - 0.5).abs() < 0.1, "{loads:?}");
    }

    #[test]
    fn zones_are_contiguous_in_tree_order() {
        let t = tree(300);
        let costs = vec![1.0; 300];
        let a = costzones(&t, &costs, 5);
        let order = t.body_order();
        let zones: Vec<u32> = order.iter().map(|&b| a[b as usize]).collect();
        assert!(
            zones.windows(2).all(|w| w[0] <= w[1]),
            "zones must not interleave"
        );
        assert_eq!(zones[0], 0);
        assert_eq!(*zones.last().unwrap(), 4);
    }

    #[test]
    fn zero_costs_fall_back_to_counts() {
        let t = tree(64);
        let a = costzones(&t, &vec![0.0; 64], 4);
        let mut counts = vec![0usize; 4];
        for &z in &a {
            counts[z as usize] += 1;
        }
        assert_eq!(counts, vec![16; 4]);
    }

    #[test]
    fn zones_are_spatially_coherent() {
        // Tree order is spatially local: the average intra-zone distance
        // should be clearly below the global average pairwise distance.
        let t = tree(256);
        let a = costzones(&t, &vec![1.0; 256], 8);
        let mut intra = 0.0;
        let mut intra_n = 0u32;
        let mut global = 0.0;
        let mut global_n = 0u32;
        for i in 0..256 {
            for j in (i + 1)..256 {
                let d = t.pos[i].dist(&t.pos[j]);
                global += d;
                global_n += 1;
                if a[i] == a[j] {
                    intra += d;
                    intra_n += 1;
                }
            }
        }
        let (intra, global) = (intra / intra_n as f64, global / global_n as f64);
        assert!(intra < 0.8 * global, "intra {intra} vs global {global}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::plummer::plummer;
    use crate::vec3::Vec3;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Zones always cover every body exactly once, stay contiguous in
        /// tree order, and balance arbitrary non-negative costs to within
        /// the largest single cost.
        #[test]
        fn zones_balance_arbitrary_costs(
            n in 32usize..256,
            nparts in 1usize..9,
            seed in any::<u64>(),
            cost_scale in 1.0f64..100.0,
        ) {
            let bodies = plummer(n, seed % 1000);
            let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
            let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
            let tree = crate::octree::Octree::build(&pos, &mass, 4);
            let costs: Vec<f64> = (0..n)
                .map(|i| 1.0 + cost_scale * ((i * 37 % 17) as f64))
                .collect();
            let zones = costzones(&tree, &costs, nparts);
            prop_assert!(zones.iter().all(|&z| (z as usize) < nparts));
            // Contiguity along the tree order.
            let order = tree.body_order();
            let seq: Vec<u32> = order.iter().map(|&b| zones[b as usize]).collect();
            prop_assert!(seq.windows(2).all(|w| w[0] <= w[1]));
            // Balance: no zone exceeds fair share + max single cost.
            let total: f64 = costs.iter().sum();
            let max_cost = costs.iter().cloned().fold(0.0f64, f64::max);
            let mut loads = vec![0.0f64; nparts];
            for (b, &z) in zones.iter().enumerate() {
                loads[z as usize] += costs[b];
            }
            let fair = total / nparts as f64;
            for l in loads {
                prop_assert!(l <= fair + max_cost + 1e-9, "load {l} vs fair {fair}");
            }
        }
    }
}

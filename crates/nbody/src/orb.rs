//! Orthogonal recursive bisection of bodies in 3-D.
//!
//! The decomposition the MP and SHMEM N-body codes use: space is cut into
//! `nparts` boxes of roughly equal work, each rank owning the bodies inside
//! its box. Exposes the per-part bounding boxes the locally-essential-tree
//! construction needs.

use partition::rcb_partition_by;

use crate::vec3::Vec3;

/// An axis-aligned box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    pub min: Vec3,
    pub max: Vec3,
}

impl BBox {
    /// Smallest box containing `points` (degenerate if empty).
    pub fn of(points: &[Vec3]) -> BBox {
        let mut min = points.first().copied().unwrap_or(Vec3::ZERO);
        let mut max = min;
        for p in points {
            min = min.min(p);
            max = max.max(p);
        }
        BBox { min, max }
    }

    /// Whether `p` lies inside (inclusive).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }
}

/// ORB-partition `positions` with `weights` into `nparts`; returns the part
/// of each body. This is `partition`'s recursive coordinate bisection in
/// three dimensions: O(n log n), ties between equally long axes going to
/// the first (x, then y).
///
/// # Panics
/// Panics if `nparts == 0` or lengths differ.
pub fn orb_partition(positions: &[Vec3], weights: &[f64], nparts: usize) -> Vec<u32> {
    assert_eq!(positions.len(), weights.len());
    rcb_partition_by(
        positions.len(),
        |i| {
            let p = positions[i];
            [p.x, p.y, p.z]
        },
        |i| weights[i],
        nparts,
    )
}

/// Bounding boxes of each part under `assignment`.
pub fn part_boxes(positions: &[Vec3], assignment: &[u32], nparts: usize) -> Vec<BBox> {
    (0..nparts)
        .map(|p| {
            let pts: Vec<Vec3> = positions
                .iter()
                .zip(assignment)
                .filter(|(_, &a)| a as usize == p)
                .map(|(pt, _)| *pt)
                .collect();
            BBox::of(&pts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plummer::plummer;

    #[test]
    fn balances_plummer_bodies() {
        let bodies = plummer(1024, 3);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let w = vec![1.0; 1024];
        for nparts in [2, 4, 8, 6] {
            let a = orb_partition(&pos, &w, nparts);
            let mut counts = vec![0usize; nparts];
            for &p in &a {
                counts[p as usize] += 1;
            }
            let fair = 1024 / nparts;
            for &c in &counts {
                assert!(
                    c.abs_diff(fair) <= fair / 4 + 2,
                    "nparts={nparts}: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn part_boxes_contain_their_bodies() {
        let bodies = plummer(256, 9);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let w = vec![1.0; 256];
        let a = orb_partition(&pos, &w, 4);
        let boxes = part_boxes(&pos, &a, 4);
        for (i, p) in pos.iter().enumerate() {
            assert!(boxes[a[i] as usize].contains(*p));
        }
    }

    #[test]
    fn boxes_are_spatially_disjoint_for_two_parts() {
        let bodies = plummer(512, 1);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let w = vec![1.0; 512];
        let a = orb_partition(&pos, &w, 2);
        let boxes = part_boxes(&pos, &a, 2);
        // Split along some axis: one box's min exceeds the other's max on it
        // (allowing exact-boundary ties).
        let separated = (boxes[0].max.x <= boxes[1].min.x + 1e-12
            || boxes[1].max.x <= boxes[0].min.x + 1e-12)
            || (boxes[0].max.y <= boxes[1].min.y + 1e-12
                || boxes[1].max.y <= boxes[0].min.y + 1e-12)
            || (boxes[0].max.z <= boxes[1].min.z + 1e-12
                || boxes[1].max.z <= boxes[0].min.z + 1e-12);
        assert!(separated, "{boxes:?}");
    }

    #[test]
    fn weighted_orb_respects_weights() {
        // Heavy half on the left: counts skew so loads balance.
        let mut pos = Vec::new();
        let mut w = Vec::new();
        for i in 0..100 {
            pos.push(Vec3::new(i as f64, 0.0, 0.0));
            w.push(if i < 50 { 3.0 } else { 1.0 });
        }
        let a = orb_partition(&pos, &w, 2);
        let mut loads = [0.0f64; 2];
        for (i, &p) in a.iter().enumerate() {
            loads[p as usize] += w[i];
        }
        let total = 200.0;
        assert!((loads[0] / total - 0.5).abs() < 0.05, "{loads:?}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// ORB covers all bodies with valid parts, and each part's box
        /// contains exactly its bodies.
        #[test]
        fn orb_boxes_partition_space(
            pts in proptest::collection::vec(
                (-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0),
                8..128,
            ),
            nparts in 1usize..9,
        ) {
            let pos: Vec<Vec3> = pts.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
            let w = vec![1.0; pos.len()];
            let parts = orb_partition(&pos, &w, nparts);
            prop_assert_eq!(parts.len(), pos.len());
            prop_assert!(parts.iter().all(|&p| (p as usize) < nparts));
            let boxes = part_boxes(&pos, &parts, nparts);
            for (i, p) in pos.iter().enumerate() {
                prop_assert!(boxes[parts[i] as usize].contains(*p));
            }
        }
    }
}

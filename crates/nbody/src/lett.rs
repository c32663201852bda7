//! Locally-essential-tree (LET) extraction.
//!
//! Under message passing, a rank owning an ORB box cannot walk remote
//! subtrees during force evaluation. Salmon's construction sends it, ahead
//! of time, exactly the remote data it could ever need: walking a remote
//! rank's tree, any node that is *guaranteed* to satisfy the θ-criterion
//! for every point of the box is exported as a single pseudo-body (its
//! mass and centre of mass); anything closer is opened, down to real
//! bodies. The receiving rank then computes purely locally.
//!
//! This module is the reason the MP N-body code is so much longer than the
//! SAS one — in the paper as here.

use crate::octree::{Octree, WalkStack};
use crate::orb::BBox;
use crate::vec3::Vec3;

/// A mass summary exported to a remote rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PseudoBody {
    pub pos: Vec3,
    pub mass: f64,
}

/// Extract from `tree` the set of pseudo-bodies essential for computing
/// θ-MAC forces anywhere inside `target` — remote leaves are exported as
/// real bodies, well-separated internal nodes as summaries.
pub fn essential_for(tree: &Octree, target: &BBox, theta: f64) -> Vec<PseudoBody> {
    // The exported cells are disjoint and each holds a body, so there are
    // at most as many as bodies: the result never regrows.
    let mut out = Vec::with_capacity(tree.num_bodies());
    let mut stack = WalkStack::root();
    while let Some(ni) = stack.pop() {
        let node = &tree.nodes[ni as usize];
        if node.mass == 0.0 {
            continue;
        }
        // Worst-case distance from the box to anything this node summarises:
        // distance from the box to the node's cell (not just its COM). The
        // test applies to leaves too — a well-separated leaf exports one
        // summary, not its individual bodies.
        let cell = BBox {
            min: node.center - Vec3::new(node.half, node.half, node.half),
            max: node.center + Vec3::new(node.half, node.half, node.half),
        };
        let d = box_dist(target, &cell);
        if d > 0.0 && node.width() < theta * d {
            out.push(PseudoBody {
                pos: node.com,
                mass: node.mass,
            });
        } else if node.is_leaf() {
            for &b in tree.bodies(node) {
                out.push(PseudoBody {
                    pos: tree.pos[b as usize],
                    mass: tree.mass[b as usize],
                });
            }
        } else {
            stack.push_children(node.first_child);
        }
    }
    out
}

/// Euclidean distance between two boxes (0 if they intersect).
pub(crate) fn box_dist(a: &BBox, b: &BBox) -> f64 {
    let gap = |alo: f64, ahi: f64, blo: f64, bhi: f64| (blo - ahi).max(alo - bhi).max(0.0);
    let dx = gap(a.min.x, a.max.x, b.min.x, b.max.x);
    let dy = gap(a.min.y, a.max.y, b.min.y, b.max.y);
    let dz = gap(a.min.z, a.max.z, b.min.z, b.max.z);
    (dx * dx + dy * dy + dz * dz).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::accel_at;
    use crate::orb::{orb_partition, part_boxes};
    use crate::plummer::plummer;

    #[test]
    fn box_dist_basics() {
        let a = BBox {
            min: Vec3::ZERO,
            max: Vec3::new(1.0, 1.0, 1.0),
        };
        let b = BBox {
            min: Vec3::new(3.0, 0.0, 0.0),
            max: Vec3::new(4.0, 1.0, 1.0),
        };
        assert_eq!(box_dist(&a, &b), 2.0);
        assert_eq!(box_dist(&a, &a), 0.0);
        let c = BBox {
            min: Vec3::new(0.5, 0.5, 0.5),
            max: Vec3::new(2.0, 2.0, 2.0),
        };
        assert_eq!(box_dist(&a, &c), 0.0, "overlap is distance zero");
    }

    #[test]
    fn essential_mass_is_conserved() {
        let bodies = plummer(400, 23);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let tree = Octree::build(&pos, &mass, 4);
        let target = BBox {
            min: Vec3::new(-0.2, -0.2, -0.2),
            max: Vec3::new(0.2, 0.2, 0.2),
        };
        let ess = essential_for(&tree, &target, 0.8);
        let total: f64 = ess.iter().map(|p| p.mass).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "summaries preserve mass: {total}"
        );
        // And it is a real compression: fewer pseudo-bodies than bodies
        // would only fail if the box covered everything.
        assert!(ess.len() < 400);
    }

    #[test]
    fn let_forces_match_full_tree_forces() {
        // The end-to-end property the MP application relies on: forces on a
        // rank's bodies computed from (own bodies + imported essentials)
        // match forces from the full tree.
        let bodies = plummer(600, 31);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let theta = 0.7;
        let eps = 0.05;
        let full_tree = Octree::build(&pos, &mass, 4);

        let parts = orb_partition(&pos, &vec![1.0; 600], 4);
        let boxes = part_boxes(&pos, &parts, 4);
        #[allow(clippy::needless_range_loop)] // rank indexes parts AND boxes
        for rank in 0..4 {
            // Local bodies.
            let mine: Vec<usize> = (0..600).filter(|&i| parts[i] as usize == rank).collect();
            let mut lpos: Vec<Vec3> = mine.iter().map(|&i| pos[i]).collect();
            let mut lmass: Vec<f64> = mine.iter().map(|&i| mass[i]).collect();
            // Imports from every other rank's subtree.
            for other in 0..4 {
                if other == rank {
                    continue;
                }
                let theirs: Vec<usize> = (0..600).filter(|&i| parts[i] as usize == other).collect();
                let opos: Vec<Vec3> = theirs.iter().map(|&i| pos[i]).collect();
                let omass: Vec<f64> = theirs.iter().map(|&i| mass[i]).collect();
                let otree = Octree::build(&opos, &omass, 4);
                for pb in essential_for(&otree, &boxes[rank], theta) {
                    lpos.push(pb.pos);
                    lmass.push(pb.mass);
                }
            }
            let ltree = Octree::build(&lpos, &lmass, 4);
            // Compare on a sample of this rank's bodies.
            for &i in mine.iter().step_by(7) {
                let (af, _) = accel_at(&full_tree, pos[i], theta, eps);
                let (al, _) = accel_at(&ltree, pos[i], theta, eps);
                let denom = af.norm().max(1e-12);
                let rel = (af - al).norm() / denom;
                assert!(
                    rel < 0.05,
                    "rank {rank} body {i}: LET force off by {rel} ({af:?} vs {al:?})"
                );
            }
        }
    }

    #[test]
    fn far_box_gets_heavy_compression() {
        let bodies = plummer(500, 2);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let tree = Octree::build(&pos, &mass, 4);
        let near = BBox {
            min: Vec3::new(-0.5, -0.5, -0.5),
            max: Vec3::new(0.5, 0.5, 0.5),
        };
        let far = BBox {
            min: Vec3::new(50.0, 50.0, 50.0),
            max: Vec3::new(51.0, 51.0, 51.0),
        };
        let n_near = essential_for(&tree, &near, 0.7).len();
        let n_far = essential_for(&tree, &far, 0.7).len();
        assert!(n_far < n_near / 4, "far box: {n_far}, near box: {n_near}");
        assert!(n_far >= 1);
    }
}
